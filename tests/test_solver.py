import json
import random
from fractions import Fraction
from math import inf

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nearheight import (
    DecisionSequence,
    External,
    InfeasibleHeightError,
    InstanceError,
    ProblemInstance,
    backward_pass,
    build_tree_from_decisions,
    forward_pass,
    generate_random_instance,
    h_min,
    solve,
    solve_with_max_height,
    tree_height,
    weighted_path_length,
)
from nearheight import solver
from nearheight.oracles import knuth_unrestricted
from nearheight.states import feasible_decisions, transition
from nearheight.solver import _kernel_pass, solution_from_obj


def bits(*levels):
    s = 0
    for i in levels:
        s |= 1 << i
    return s


def test_backward_pass_golden(golden_instance):
    tables = backward_pass(golden_instance, 3)
    assert tables.values[3][bits(0, 1, 2)] == inf  # V_4((1,1,1))
    assert tables.values[0][0] == Fraction(25, 16)
    assert bits(0, 1, 2) not in tables.policies[3]


def test_backward_pass_zero_weights():
    for n in (1, 3, 7):
        inst = ProblemInstance(beta=(Fraction(0),) * n, alpha=(Fraction(0),) * (n + 1))
        tables = backward_pass(inst, h_min(n))
        assert tables.values[0][0] == 0


def test_forward_pass_golden(golden_instance):
    cost, ds = forward_pass(backward_pass(golden_instance, 3))
    assert cost == Fraction(25, 16)
    assert ds.levels == (1, 2, 0, 1)


def test_forward_pass_single_key():
    inst = ProblemInstance(beta=(Fraction(2, 3),), alpha=(Fraction(1, 6), Fraction(1, 6)))
    cost, ds = forward_pass(backward_pass(inst, 1))
    assert ds.levels == (0,)
    assert cost == Fraction(2, 3) + 2 * Fraction(1, 6)


def test_solve_golden(golden_instance):
    sol = solve(golden_instance, 0)
    assert sol.cost == Fraction(25, 16)
    assert sol.decisions.levels == (1, 2, 0, 1)
    assert tree_height(sol.tree) == 3
    assert sol.h_max == 3


def test_solve_scales_the_weights_once(monkeypatch, golden_instance):
    """The kernel and the cost check share one integer scaling per solve."""
    calls = []
    real = ProblemInstance.integer_weights

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(ProblemInstance, "integer_weights", counted)
    solve(golden_instance, 0)
    solve(generate_random_instance(100, 3, dist="zipf"), 1)
    assert len(calls) == 2


def test_solve_empty_instance():
    inst = ProblemInstance(beta=(), alpha=(Fraction(1, 2),))
    sol = solve(inst, 0)
    assert sol.cost == 0
    assert isinstance(sol.tree, External) and sol.tree.level == 0
    assert sol.decisions.levels == ()
    assert sol.h_max == sol.decisions.h_max == 0
    again = solution_from_obj(json.loads(json.dumps(sol.to_obj())))
    assert again.h_max == again.decisions.h_max == 0
    assert again.to_obj() == sol.to_obj()


def test_solve_two_equal_keys():
    inst = ProblemInstance(beta=(Fraction(1, 2), Fraction(1, 2)), alpha=(0, 0, 0))
    assert solve(inst, 0).cost == Fraction(3, 2)


def test_solve_rejects_invalid():
    inst = ProblemInstance(beta=(Fraction(1),), alpha=(Fraction(0),))
    with pytest.raises(Exception):
        solve(inst, 0)
    with pytest.raises(ValueError):
        solve(ProblemInstance(beta=(Fraction(1),), alpha=(0, 0)), -1)


def test_solve_with_max_height(golden_instance):
    assert solve_with_max_height(golden_instance, 3).cost == Fraction(25, 16)
    assert solve_with_max_height(golden_instance, 4).cost == Fraction(25, 16)
    with pytest.raises(InfeasibleHeightError):
        solve_with_max_height(golden_instance, 2)


def test_telescoping_identity():
    """The reference pass's V_1(0) is the weighted path length of the tree
    its decisions build."""
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 12)
        delta = rng.randint(0, 2)
        inst = generate_random_instance(n, rng.randint(0, 10**6))
        cost, ds = forward_pass(backward_pass(inst, h_min(n) + delta))
        assert cost == weighted_path_length(build_tree_from_decisions(ds, n), inst)


def test_monotone_in_delta():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 10)
        inst = generate_random_instance(n, rng.randint(0, 10**6))
        costs = [solve(inst, d).cost for d in range(4)]
        assert all(a >= b for a, b in zip(costs, costs[1:]))


def test_unrestricted_once_height_slack_covers_n():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(1, 9)
        inst = generate_random_instance(n, rng.randint(0, 10**6))
        assert solve(inst, n - h_min(n)).cost == knuth_unrestricted(inst).cost


@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=10**6),
    st.fractions(min_value=Fraction(1, 100), max_value=Fraction(100)),
)
@settings(max_examples=60)
def test_scale_invariance(n, seed, c):
    inst = generate_random_instance(n, seed)
    a = solve(inst, 1)
    b = solve(inst.scaled(c), 1)
    assert b.cost == c * a.cost
    assert b.decisions == a.decisions


def test_height_guarantee():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 14)
        delta = rng.randint(0, 2)
        inst = generate_random_instance(n, rng.randint(0, 10**6))
        sol = solve(inst, delta)
        assert tree_height(sol.tree) <= h_min(n) + delta
        assert weighted_path_length(sol.tree, inst) == sol.cost


def test_engines_agree():
    rng = random.Random(31)
    cases = []
    for _ in range(25):
        n = rng.randint(1, 60)
        dist = rng.choice(["uniform", "zipf"]) if n <= 20 else "uniform"
        cases.append((n, rng.randint(0, 2), dist))
    # zipf weights over lcm(1..n+1) overflow int64 from n = 41 on
    cases += [(rng.randint(41, 120), rng.randint(0, 2), "zipf") for _ in range(6)]
    # h = 12: the pair index (1+p)*(h+1) of the shallow move exceeds int8
    cases.append((40, 6, "uniform"))
    for n, delta, dist in cases:
        inst = generate_random_instance(n, rng.randint(0, 10**6), dist=dist)
        h_max = min(h_min(n) + delta, n)
        cost, ds = forward_pass(backward_pass(inst, h_max))
        low, error, got_ds, path = _kernel_pass(inst.integer_weights(), h_max)
        assert got_ds == ds, (n, delta, dist)
        assert low <= cost <= low + error, (n, delta, dist)
        if n > 40 and dist == "zipf":
            assert path == "int64-floored" and error > 0
        else:
            assert path == "int64" and error == 0


def _mark_every_margin_thin(monkeypatch):
    """Make every certificate of the floored pass fail, so _kernel_pass
    reruns on the exact object dtype."""
    real = solver._backward

    def every_margin_thin(alpha, beta, h_max, dtype, dead, certify):
        value, policies = real(alpha, beta, h_max, dtype, dead, certify)
        if certify:
            policies |= solver._THIN
        return value, policies

    monkeypatch.setattr(solver, "_backward", every_margin_thin)


@pytest.mark.parametrize("n", [96, 160, 256])
def test_floored_path_matches_object_path(monkeypatch, n):
    rng = random.Random(n)
    cases = []
    for delta in range(3):
        inst = generate_random_instance(n, rng.randint(0, 10**6), dist="zipf")
        h_max = min(h_min(n) + delta, n)
        cases.append((inst, h_max, _kernel_pass(inst.integer_weights(), h_max)))
    _mark_every_margin_thin(monkeypatch)
    for inst, h_max, (low, error, ds, path) in cases:
        cost, zero, exact_ds, exact_path = _kernel_pass(inst.integer_weights(), h_max)
        assert (path, exact_path) == ("int64-floored", "object")
        assert ds == exact_ds
        assert zero == 0 and low <= cost <= low + error


def _mirrored(n, d):
    """Weights over the denominator d that peak at the middle key and read
    the same from either end."""
    unit = d // (n + 2) ** 2
    beta = [
        Fraction(unit * min(i, n + 1 - i) ** 2 + i * (n + 1 - i), d) for i in range(1, n + 1)
    ]
    alpha = [Fraction(unit * min(j + 1, n + 1 - j) + 1, d) for j in range(n + 1)]
    return ProblemInstance(beta=tuple(beta), alpha=tuple(alpha))


@pytest.mark.parametrize("d", [2**61 - 1, 2**89 - 1])
@pytest.mark.parametrize("n", [6, 7, 30, 31, 254, 255])
def test_exact_ties_take_the_exact_path(n, d):
    """A mirror-symmetric instance with an even n has an optimal tree and
    its distinct mirror image, so the walk meets an exact tie, which floored
    values cannot certify: the kernel must fall back to the exact pass and
    keep the smallest level. With an odd n the optimum is unique. At
    n = 254 and 255 the widths 8..10 reach the deep levels on both sides of
    _FUSED_LEVELS."""
    inst = _mirrored(n, d)
    assert inst.common_denominator() == d
    for delta in range(3):
        h_max = min(h_min(n) + delta, n)
        cost, ds = forward_pass(backward_pass(inst, h_max))
        low, error, got_ds, path = _kernel_pass(inst.integer_weights(), h_max)
        assert path == ("object" if n % 2 == 0 else "int64-floored"), delta
        assert got_ds == ds, delta
        assert low <= cost <= low + error, delta


def _grid_shift_search(total, h_max, slack):
    """The smallest K at which the packed top of a pass on weights floored
    to 2^K fits int64, found by stepping up from a few bits below the
    estimate: the search that solver._grid_bits puts in closed form."""

    def top(shift):
        bound = (h_max + 1) * (total >> shift)
        return ((2 * bound + slack) << solver._LEVEL_BITS) | solver._LEVEL_MASK

    shift = max(0, top(0).bit_length() - 66)
    while top(shift) > solver._INT64_MAX:
        shift += 1
    return shift


def test_grid_bits_matches_search():
    rng = random.Random(53)
    room = solver._INT64_MAX >> solver._LEVEL_BITS
    for _ in range(1500):
        n = rng.randint(1, 16000)
        h_max = rng.randint(1, 24)
        for slack in (1, (h_max + 1) * (2 * n + 1) + 2):
            cap = (room - slack) // (2 * (h_max + 1))
            # every K steps up where total crosses (cap + 1) << K
            edge = (cap + 1) << rng.randint(0, 300)
            totals = [rng.getrandbits(rng.randint(1, 4000))]
            totals += [edge + d for d in range(-3, 4)]
            for total in totals:
                want = _grid_shift_search(total, h_max, slack)
                assert solver._grid_bits(total, h_max, slack) == want, (total, h_max, slack)


def test_grid_boundary_total():
    """An integer-weight instance whose total is the largest with every
    exact packed value in int64 takes the exact "int64" path; one more
    unit of weight takes "int64-floored"."""
    rng = random.Random(59)
    n = 12
    for delta in range(3):
        h_max = h_min(n) + delta
        largest = ((solver._INT64_MAX >> solver._LEVEL_BITS) - 1) // (2 * (h_max + 1))
        weights = [rng.randint(1, largest // (2 * n + 1)) for _ in range(2 * n + 1)]
        weights[0] += largest - sum(weights)
        for extra, want in ((0, "int64"), (1, "int64-floored")):
            inst = ProblemInstance(
                beta=tuple(weights[:n]), alpha=(weights[n] + extra,) + tuple(weights[n + 1 :])
            )
            assert inst.integer_weights()[0] == 1
            cost, ds = forward_pass(backward_pass(inst, h_max))
            low, error, got_ds, path = _kernel_pass(inst.integer_weights(), h_max)
            assert path == want and (error == 0) == (extra == 0), delta
            assert got_ds == ds, delta
            assert low <= cost <= low + error, delta


def test_kernel_matches_reference_on_ties():
    """Weights in {0, 1, 2} make many decisions tie; both passes must pick
    the smallest level. The last three cases run at widths above
    _FUSED_LEVELS, where fused and contiguous deep levels compete."""
    rng = random.Random(41)
    wide = solver._FUSED_LEVELS + 1
    cases = [(n, rng.randint(0, 3)) for n in range(1, 41)]
    cases += [(n, wide + i - h_min(n)) for i, n in enumerate((60, 90, 120))]
    for n, delta in cases:
        beta = tuple(Fraction(rng.randint(0, 2)) for _ in range(n))
        if n % 3 == 0:
            alpha = (Fraction(0),) * (n + 1)
        else:
            alpha = tuple(Fraction(rng.randint(0, 2)) for _ in range(n + 1))
        if not any(beta + alpha):
            beta = (Fraction(1),) + beta[1:]
        inst = ProblemInstance(beta=beta, alpha=alpha)
        h_max = min(h_min(n) + delta, n)
        cost, ds = forward_pass(backward_pass(inst, h_max))
        got_cost, error, got_ds, path = _kernel_pass(inst.integer_weights(), h_max)
        assert (got_cost, got_ds) == (cost, ds), (n, delta)
        assert (path, error) == ("int64", 0)


def _scalar_stage(v_next, alpha, beta, h_max):
    """Best and runner-up packed candidate of every state of one stage, over
    the finite values v_next (None where dead), as (best, second) with None
    for no candidate."""
    out = []
    for s in range(1 << h_max):
        p = s.bit_length() - 1
        cands = []
        for a in feasible_decisions(s, h_max):
            cont = v_next[transition(s, a)]
            if cont is not None:
                cost = cont + (1 + max(p, a)) * alpha + (a + 1) * beta
                cands.append((cost << solver._LEVEL_BITS) | a)
        out.append((sorted(cands) + [None, None])[:2])
    return out


def test_thin_flags_match_scalar_margins():
    """_backward with certify, on exact int64 weights: at every state with a
    finite value the level bits are the smallest-level argmin, and _THIN is
    set exactly where the runner-up candidate is at most (E_nu+1) << 5 above
    the best, both taken over the packed finite candidates. Widths run past
    _FUSED_LEVELS, so segments, shallow moves and deep blocks all count."""
    rng = random.Random(67)
    thin_seen = sure_seen = 0
    for h_max in range(1, solver._FUSED_LEVELS + 3):
        for dist in ("uniform", "zipf", "ties"):
            n = rng.randint(min(h_max, (1 << h_max) - 1), min(h_max + 3, (1 << h_max) - 1))
            if dist == "ties":
                beta = tuple(Fraction(rng.randint(0, 2)) for _ in range(n))
                alpha = tuple(Fraction(rng.randint(0, 2)) for _ in range(n + 1))
                inst = ProblemInstance(beta=(Fraction(1),) + beta[1:], alpha=alpha)
            else:
                inst = generate_random_instance(n, rng.randint(0, 10**6), dist=dist)
            _, alpha, beta = inst.integer_weights()
            total = sum(alpha) + sum(beta)
            dead = (h_max + 1) * total + (h_max + 1) * (2 * n + 1) + 2
            value, policies = solver._backward(alpha, beta, h_max, np.int64, dead, True)
            v_next = [None] * (1 << h_max)
            for k in range(1, h_max + 1):
                v_next[(1 << k) - 1] = k * alpha[n]
            for nu in range(n, 0, -1):
                margin = ((h_max + 1) * (2 * (n - nu) + 3) + 1) << solver._LEVEL_BITS
                stage = _scalar_stage(v_next, alpha[nu - 1], beta[nu - 1], h_max)
                pol = policies[nu - 1].tolist()
                for s, (best, second) in enumerate(stage):
                    if best is None:
                        continue
                    thin = second is not None and second - best <= margin
                    assert pol[s] == (best & solver._LEVEL_MASK) | (solver._THIN * thin), (
                        h_max, dist, nu, bin(s),
                    )
                    thin_seen += thin
                    sure_seen += not thin
                v_next = [None if c is None else c >> solver._LEVEL_BITS for c, _ in stage]
            assert value == v_next[0]
    assert thin_seen and sure_seen


@pytest.mark.parametrize("h_max", range(1, 13))
def test_shallow_moves_closed_form(h_max):
    """The first moves of the table are the shallow levels of the states
    s >= 2^(A-1), with A = min(_FUSED_LEVELS, h_max), in order: the feasible
    level q-1 below the top set bit p, to transition(s, q-1) at pair index
    (1+p)(h_max+1) + q, the pair of cost (1+p)*alpha + q*beta and level
    q-1. A state without one moves to the dead slot 2^h_max at pair 0, of
    cost 0 and level 0."""
    kt = solver._kernel_tables(h_max)
    size = 1 << h_max
    low = 1 << (min(solver._FUSED_LEVELS, h_max) - 1)
    assert kt.gap_coef[0] == kt.key_coef[0] == kt.level[0] == 0
    for s in range(low, size):
        p = s.bit_length() - 1
        shallow = [a for a in feasible_decisions(s, h_max) if a < p]
        move = s - low
        if shallow:
            (a,) = shallow
            pair = (1 + p) * (h_max + 1) + a + 1
            assert (kt.succ[move], kt.pair[move]) == (transition(s, a), pair), bin(s)
            assert (kt.gap_coef[pair], kt.key_coef[pair], kt.level[pair]) == (1 + p, a + 1, a)
        else:
            assert (kt.succ[move], kt.pair[move]) == (size, 0), bin(s)


@pytest.mark.parametrize("h_max", range(1, 13))
def test_fused_moves_closed_form(h_max):
    """The segments, after the 2^h_max - 2^(A-1) shallow moves, list, for
    every state s < 2^(A-1) with A = min(_FUSED_LEVELS, h_max), exactly
    feasible_decisions(s, A), in ascending order, the shallow level
    included, with successor transition(s, a) and pair index
    (1+max(p, a))(h_max+1) + a+1 (p the top set bit, -1 for s = 0), the
    pair of cost (1+max(p, a))*alpha + (a+1)*beta and level a."""
    kt = solver._kernel_tables(h_max)
    fused = min(solver._FUSED_LEVELS, h_max)
    low = 1 << (fused - 1)
    want, starts = [], []
    for s in range(low):
        starts.append(len(want))
        levels = feasible_decisions(s, fused)
        assert levels == sorted(levels) and levels
        for a in levels:
            gap = 1 + max(s.bit_length() - 1, a)
            pair = gap * (h_max + 1) + a + 1
            want.append((s, transition(s, a), pair))
            assert (kt.gap_coef[pair], kt.key_coef[pair], kt.level[pair]) == (gap, a + 1, a)
    first = (1 << h_max) - low
    got = list(zip(kt.seg.tolist(), kt.succ[first:].tolist(), kt.pair[first:].tolist()))
    assert got == want
    assert kt.starts.tolist() == starts


def test_cached_tables_stay_within_ten_bytes_per_state():
    """The arrays cached for a width, the kernel's move table and
    constants, take at most 10 bytes per state plus a fixed allowance."""
    for h_max in range(1, 17):
        solve(generate_random_instance(h_max, h_max), h_max)  # clamped to width n
        cached = list(solver._KERNEL_CACHE[h_max])
        assert sum(a.nbytes for a in cached) <= 10 * (1 << h_max) + 64 * 1024, h_max


def test_numpy_engine_never_falls_back(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("reference pass called")

    monkeypatch.setattr(solver, "backward_pass", refuse)
    inst = generate_random_instance(100, 3, dist="zipf")
    sol = solve(inst, 1)
    assert weighted_path_length(sol.tree, inst) == sol.cost
    # a wide bound: h = 21 after the clamp, 2^21 states per stage
    inst = generate_random_instance(21, 5)
    sol = solve(inst, 100)
    assert sol.cost == knuth_unrestricted(inst).cost
    assert tree_height(sol.tree) <= 21


def test_engine_selection_by_width(monkeypatch, golden_instance):
    monkeypatch.setattr(solver.st, "TABLE_MAX_WIDTH", 2)
    with pytest.raises(ValueError, match="height bound 3 above"):
        solve(golden_instance, 0)


def test_reference_pass_refuses_wide_tables():
    inst = generate_random_instance(40, 1)
    with pytest.raises(ValueError, match="height bound 40 above"):
        backward_pass(inst, 40)
    with pytest.raises(ValueError, match="height bound 40 above"):
        solve(inst, 40)


def test_policy_table_refused_before_allocating(monkeypatch):
    # n = 16000 at width 17: 2 GB of policy, within the limit
    solver.st.check_policy_size(16000, 17)

    def refuse(h_max):
        raise AssertionError("a table was built")

    monkeypatch.setattr(solver, "_kernel_tables", refuse)
    # n = 1000 at width 24: 16 GB of policy
    inst = generate_random_instance(1000, 1)
    with pytest.raises(ValueError, match=f"needs {1000 << 24} bytes"):
        solve(inst, 14)


def test_cost_check_raises_on_mismatch(monkeypatch, golden_instance):
    real = solver._kernel_pass
    shift = {}

    def wrong_cost(weights, h_max):
        cost, error, ds, path = real(weights, h_max)
        return cost + shift[path](error), error, ds, path

    monkeypatch.setattr(solver, "_kernel_pass", wrong_cost)
    shift["int64"] = lambda error: 1
    with pytest.raises(RuntimeError, match="differs"):
        solve(golden_instance, 0)
    # a floored value lies below the tree's wpl by less than its rounding
    # bound; the solution reports the exact wpl
    inst = generate_random_instance(96, 1, dist="zipf")
    shift["int64-floored"] = lambda error: 0
    cost, _ = forward_pass(backward_pass(inst, h_min(96)))
    assert solve(inst, 0).cost == cost
    for moved in (2, -2):
        shift["int64-floored"] = lambda error: moved * error
        with pytest.raises(RuntimeError, match="rounding bound"):
            solve(inst, 0)


def test_height_bound_clamped_to_n():
    rng = random.Random(19)
    for n in range(1, 10):
        inst = generate_random_instance(n, rng.randint(0, 10**6))
        sol = solve(inst, 100)
        assert sol.h_max == n
        assert sol.cost == knuth_unrestricted(inst).cost
        assert solve_with_max_height(inst, 100).h_max == n


def test_fast_engine_relaxation_count_matches_tables():
    from nearheight.states import stage_counts

    for n, delta, seed in [(5, 0, 1), (12, 1, 2), (30, 2, 3), (9, 3, 4)]:
        inst = generate_random_instance(n, seed)
        h_max = h_min(n) + delta
        tables = backward_pass(inst, h_max)
        assert tables.relaxations == sum(stage_counts(n, h_max)[1])


def test_solution_reader_checks_levels():
    """A solution read from outside whose node levels do not follow the
    tree's shape is refused, not scored: with gap 2 moved to level 0 the
    levels would give a wpl of 11 for a tree whose wpl is 12."""
    inst = ProblemInstance(beta=(Fraction(1), Fraction(5)), alpha=(1, 1, 1))
    obj = json.loads(json.dumps(solve(inst, 0).to_obj()))
    assert obj["wpl"] == "12"
    gap2 = obj["tree"]["right"]
    assert gap2 == {"gap": 2, "level": 1}
    gap2["level"] = 0
    with pytest.raises(InstanceError, match="depth 1 has level 0"):
        solution_from_obj(obj)
    gap2["level"] = 1
    obj["tree"]["level"] = 1
    with pytest.raises(InstanceError, match="depth 0 has level 1"):
        solution_from_obj(obj)


def test_solution_reader_needs_both_children():
    """An internal node without its left or right child is refused with
    InstanceError, not a KeyError."""
    for tree in ({"key": 1, "level": 0}, {"key": 1, "level": 0, "left": {"gap": 0, "level": 1}}):
        obj = {"wpl": "2", "decisions": [0], "h_max": 1, "tree": tree}
        with pytest.raises(InstanceError, match="needs 'left' and 'right'"):
            solution_from_obj(obj)


def test_solution_json_round_trip(golden_instance):
    sol = solve(golden_instance, 0)
    obj = json.loads(json.dumps(sol.to_obj()))
    again = solution_from_obj(obj)
    assert again.cost == sol.cost
    assert again.decisions == sol.decisions
    assert again.to_obj() == sol.to_obj()


def test_dead_states_are_retained(golden_instance):
    tables = backward_pass(golden_instance, 3)
    # every reachable state appears in its stage's value map, finite or not
    for nu in range(1, 6):
        assert set(tables.values[nu - 1]) == set(tables.sets.states(nu))
        if nu <= 4:
            assert set(tables.policies[nu - 1]) == {
                s for s, v in tables.values[nu - 1].items() if v != inf
            }
