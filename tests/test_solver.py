import hashlib
import itertools
import json
import random
import tracemalloc
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
from nearheight.oracles import brute_force_optimum, height_restricted_dp, knuth_unrestricted
from nearheight.states import feasible_decisions, policy_bytes, transition
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
    """An instance with one gap weight too few is refused where it is made,
    so it never reaches solve(); a negative delta is refused by solve()."""
    with pytest.raises(InstanceError, match=r"^alpha length must be n\+1 = 2, got 1$"):
        ProblemInstance(beta=(Fraction(1),), alpha=(Fraction(0),))
    with pytest.raises(ValueError):
        solve(ProblemInstance(beta=(Fraction(1),), alpha=(0, 0)), -1)


def test_numpy_weights_read_as_python_ints():
    """NumPy int64 and int32 weight arrays, and a Fraction of an np.int64,
    give the instance of the same weights as lists: Fractions of Python
    ints, whose products do not overflow. With NumPy parts, 2^62 * 3
    wrapped to -2^62 in integer_weights(), and solve() failed on
    np.int64.bit_length."""
    cases = [
        ([2**62, 1], [Fraction(1, 3), 0, 0], np.array([2**62, 1]), [Fraction(1, 3), 0, 0]),
        ([3, 1, 4], [1, 5, 9, 2], np.array([3, 1, 4], np.int32), np.array([1, 5, 9, 2], np.int32)),
        ([5, 2], [0, 1, 0], [Fraction(np.int64(5)), np.int64(2)], [0, Fraction(np.int64(1)), 0]),
    ]
    for beta, alpha, np_beta, np_alpha in cases:
        want = ProblemInstance(beta=beta, alpha=alpha)
        got = ProblemInstance(beta=np_beta, alpha=np_alpha)
        for w in got.beta + got.alpha:
            assert type(w.numerator) is int and type(w.denominator) is int, w
        assert got.integer_weights() == want.integer_weights()
        h_max = h_min(got.n) + 1
        assert forward_pass(backward_pass(got, h_max)) == forward_pass(backward_pass(want, h_max))
        assert height_restricted_dp(got, h_max).cost == height_restricted_dp(want, h_max).cost
        for delta in (0, 1):
            assert solve(got, delta).to_obj() == solve(want, delta).to_obj()
    big = ProblemInstance(beta=np.array([2**62, 1]), alpha=[Fraction(1, 3), 0, 0])
    assert big.integer_weights() == (3, [1, 0, 0], [3 * 2**62, 3])
    # key 1 at the root, key 2 and gap 0 at level 1: 2^62 + 2 + 1/3
    assert forward_pass(backward_pass(big, 2))[0] == Fraction(3 * 2**62 + 7, 3)


def test_instance_is_validated_once_where_it_is_made(monkeypatch, golden_instance):
    """Construction runs require_valid() once; the solvers and the oracles
    take the instance as valid and run it no more."""
    calls = []
    require_valid = ProblemInstance.require_valid
    monkeypatch.setattr(
        ProblemInstance, "require_valid", lambda inst: calls.append(inst) or require_valid(inst)
    )
    inst = ProblemInstance(beta=golden_instance.beta, alpha=golden_instance.alpha)
    assert calls == [inst]
    calls.clear()
    solve(inst, 1)
    solve_with_max_height(inst, 4)
    backward_pass(inst, 3)
    brute_force_optimum(inst, 3)
    knuth_unrestricted(inst)
    height_restricted_dp(inst, 3)
    assert calls == []


def test_solve_with_max_height(golden_instance):
    assert solve_with_max_height(golden_instance, 3).cost == Fraction(25, 16)
    assert solve_with_max_height(golden_instance, 4).cost == Fraction(25, 16)
    with pytest.raises(InfeasibleHeightError):
        solve_with_max_height(golden_instance, 2)


@pytest.mark.parametrize("max_height", [True, 5.0, "5", None])
def test_solve_with_max_height_refuses_non_integers(golden_instance, max_height):
    with pytest.raises(ValueError, match=f"max_height must be an integer, got {max_height!r}"):
        solve_with_max_height(golden_instance, max_height)


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


def _exact_path(weights, h_max):
    """The exact path of a pass on the integer weights: "int32" when its
    packed top, the dead sentinel plus the largest finite value with every
    level bit set, fits int32, else "int64"."""
    _, alpha, beta = weights
    bound = (h_max + 1) * (sum(alpha) + sum(beta))
    top = ((2 * bound + 1) << solver._LEVEL_BITS) | solver._LEVEL_MASK
    return "int32" if top < 2**31 else "int64"


def _kernel_fractions(weights, h_max):
    """_kernel_pass on the integer weights (d, alpha, beta), with its two
    bounds, integers over d, read as the Fractions they stand for."""
    low, error, ds, path = _kernel_pass(weights, h_max)
    return Fraction(low, weights[0]), Fraction(error, weights[0]), ds, path


def test_kernel_matches_reference_pass():
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
    # zipf totals pass the int32 cap from n = 15 or so, and int64 from n = 41
    cases.append((20, 1, "zipf"))
    paths = set()
    for n, delta, dist in cases:
        inst = generate_random_instance(n, rng.randint(0, 10**6), dist=dist)
        h_max = min(h_min(n) + delta, n)
        cost, ds = forward_pass(backward_pass(inst, h_max))
        low, error, got_ds, path = _kernel_fractions(inst.integer_weights(), h_max)
        paths.add(path)
        assert got_ds == ds, (n, delta, dist)
        assert low <= cost <= low + error, (n, delta, dist)
        if n > 40 and dist == "zipf":
            assert path == "int64-floored" and error > 0
        else:
            assert path == _exact_path(inst.integer_weights(), h_max) and error == 0
    assert paths == {"int32", "int64", "int64-floored"}


def _mark_every_margin_thin(monkeypatch):
    """Make every certificate of the floored pass fail, so _kernel_pass
    reruns on the exact object dtype."""
    real = solver._thin_margins

    def every_margin_thin(table, alpha_n, h_max, dead, visited, rows):
        return np.ones_like(real(table, alpha_n, h_max, dead, visited, rows))

    monkeypatch.setattr(solver, "_thin_margins", every_margin_thin)


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


def test_object_pass_releases_its_pair_costs():
    """An "object" pass over three blocks of _PAIR_BLOCK stages leaves no
    Python ints behind: three more passes hold no more traced memory than
    one. np.matmul into an object out= array keeps the values it
    overwrites, about 0.35 MB per block here."""
    n = 3 * solver._PAIR_BLOCK
    h_max = h_min(n)
    _, alpha, beta = generate_random_instance(n, 5, dist="zipf").integer_weights()
    dead = (h_max + 1) * (sum(alpha) + sum(beta)) + 1
    table = solver._weight_table(alpha, beta, object)
    solver._backward(table, alpha[n], h_max, dead)  # builds the cached tables
    tracemalloc.start()
    try:
        solver._backward(table, alpha[n], h_max, dead)
        one, _ = tracemalloc.get_traced_memory()
        for _ in range(3):
            solver._backward(table, alpha[n], h_max, dead)
        four, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert four - one < 64 << 10


@pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (2, 1)])
def test_pair_cost_blocks_match_reference(monkeypatch, blocks, extra):
    """n stages on both sides of one and of two blocks of _PAIR_BLOCK, so
    that the last block is partial and stages fall on each side of a block
    boundary: on each path the kernel's decisions equal the reference
    pass's, and its cost equals it up to its rounding bound (0 when exact).
    Uniform weights take "int32", and "int64" scaled by 10^7, zipf weights
    "int64-floored", and zipf weights with every margin thin "object"."""
    n = blocks * solver._PAIR_BLOCK + extra
    h_max = h_min(n)
    uniform = generate_random_instance(n, n)
    cases = [(uniform, "int32"), (uniform.scaled(Fraction(10**7)), "int64")]
    cases.append((generate_random_instance(n, n, dist="zipf"), "int64-floored"))
    for inst, path in cases:
        cost, ds = forward_pass(backward_pass(inst, h_max))
        low, error, got_ds, got_path = _kernel_fractions(inst.integer_weights(), h_max)
        assert (got_path, got_ds) == (path, ds) and low <= cost <= low + error
    _mark_every_margin_thin(monkeypatch)  # the zipf instance reruns exactly
    assert _kernel_fractions(inst.integer_weights(), h_max) == (cost, 0, ds, "object")


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
        low, error, got_ds, path = _kernel_fractions(inst.integer_weights(), h_max)
        assert path == ("object" if n % 2 == 0 else "int64-floored"), delta
        assert got_ds == ds, delta
        assert low <= cost <= low + error, delta


def _record_passes(monkeypatch):
    """Record every pass that _stages starts as (dtype, stages relaxed)."""
    real = solver._stages
    passes = []

    def recorded(table, alpha_n, h_max, dead, nu_lo=1):
        passes.append((table.dtype, 0))
        for stage in real(table, alpha_n, h_max, dead, nu_lo):
            passes[-1] = (table.dtype, passes[-1][1] + 1)
            yield stage

    monkeypatch.setattr(solver, "_stages", recorded)
    return passes


def _row_counts(n):
    """The counts of kept rows on both sides of each _PAIR_BLOCK boundary
    below n, with none, one, all but one and all n."""
    block = solver._PAIR_BLOCK
    return sorted({k for k in (0, 1, block - 1, block, block + 1, n - 1, n) if 0 <= k <= n})


@pytest.mark.parametrize(
    "n, d",
    [(n, None) for n in (63, 64, 65, 129)]
    + [(n, d) for d in (2**61 - 1, 2**89 - 1) for n in (30, 31, 254, 255)],
)
def test_pass_one_rows_match_the_second_pass(monkeypatch, n, d):
    """With _ROW_BUDGET patched to k rows of 2^h+1 int64 next values, the
    floored pass keeps the rows of stages 1..k, which equal the next values
    of a pass over every stage, and _thin_margins recomputes stages n..k+1
    in one more int64 pass, none when k = n. For k = 0, 1, 63, 64, 65, n-1
    and n, the _kernel_pass result and the flags equal those of k = 0,
    which recomputes every stage. The zipf n (d None) lie on both sides of
    _PAIR_BLOCK boundaries; the mirrored fixtures of even n have a thin
    walked stage, which a row read one stage off would lose or move."""
    inst = generate_random_instance(n, n, dist="zipf") if d is None else _mirrored(n, d)
    weights = inst.integer_weights()
    real = solver._thin_margins
    seen = []

    def spy(table, alpha_n, h_max, dead, visited, rows):
        flags = real(table, alpha_n, h_max, dead, visited, rows)
        seen.append((table, alpha_n, dead, rows.copy(), flags.tolist()))
        return flags

    monkeypatch.setattr(solver, "_thin_margins", spy)
    passes = _record_passes(monkeypatch)
    for delta in range(3):
        h_max = min(h_min(n) + delta, n)
        row_bytes = 8 * ((1 << h_max) + 1)
        runs, kept = [], []
        for k in _row_counts(n):
            monkeypatch.setattr(solver, "_ROW_BUDGET", k * row_bytes)
            passes.clear()
            result = _kernel_pass(weights, h_max)
            want = [(np.int64, n)] + ([(np.int64, n - k)] if k < n else [])
            want += [(object, n)] if result[3] == "object" else []
            assert passes == want, (delta, k)
            table, alpha_n, dead, rows, flags = seen.pop()
            assert rows.shape == (k, (1 << h_max) + 1) and rows.nbytes <= k * row_bytes
            runs.append((result, flags))
            kept.append(rows.tolist())
        stages = solver._stages(table, alpha_n, h_max, dead)
        full = [v.tolist() for _, v, _ in stages][::-1]  # row nu-1 is V_{nu+1}
        assert all(rows == full[: len(rows)] for rows in kept), delta
        assert all(run == runs[0] for run in runs), delta
        assert runs[0][0][3] != "int64", delta
        if d is not None:
            assert any(runs[0][1]) == (n % 2 == 0), delta


def test_rows_kept_for_the_lowest_stages_that_fit(monkeypatch):
    """A floored shape whose n(2^h+1) next values exceed _ROW_BUDGET keeps
    the rows of the lowest k stages that fit, at most _ROW_BUDGET bytes,
    and recomputes only the n - k stages above them; it decides as with no
    rows kept (every stage recomputed) and as with all n kept (no
    recompute). The exact paths keep no rows: "int32", "int64", and the
    "object" rerun after a floored pass that kept them."""
    real = solver._backward
    kept = []

    def spy(*args):
        out = real(*args)
        kept.append(out[2].nbytes)
        return out

    monkeypatch.setattr(solver, "_backward", spy)
    passes = _record_passes(monkeypatch)
    n = 1100
    h_max = h_min(n)
    row_bytes = 8 * ((1 << h_max) + 1)
    weights = generate_random_instance(n, 5, dist="zipf").integer_weights()
    assert n * row_bytes > solver._ROW_BUDGET
    k = solver._ROW_BUDGET // row_bytes
    split = _kernel_pass(weights, h_max)
    assert split[3] == "int64-floored"
    assert kept.pop() == k * row_bytes <= solver._ROW_BUDGET
    assert passes == [(np.int64, n), (np.int64, n - k)]
    for budget, rows, want in ((0, 0, [(np.int64, n)] * 2), (n * row_bytes, n, [(np.int64, n)])):
        with monkeypatch.context() as m:
            m.setattr(solver, "_ROW_BUDGET", budget)
            passes.clear()
            assert _kernel_pass(weights, h_max) == split
        assert kept.pop() == rows * row_bytes and passes == want

    n, h_max = 60, h_min(60)  # rows that fit
    uniform = generate_random_instance(n, 5)
    for inst, path in ((uniform, "int32"), (uniform.scaled(Fraction(10**7)), "int64")):
        assert _kernel_pass(inst.integer_weights(), h_max)[3] == path
        assert kept.pop() == 0
    _mark_every_margin_thin(monkeypatch)
    weights = generate_random_instance(n, 5, dist="zipf").integer_weights()
    assert _kernel_pass(weights, h_max)[3] == "object"
    assert kept[0] > 0 and kept[1:] == [0]


def _grid_shift_search(total, h_max, slack, ceiling):
    """The smallest K at which the packed top of a pass on weights floored
    to 2^K is at most ceiling, found by stepping up from a few bits below
    the estimate: the search that solver._grid_bits puts in closed form."""

    def top(shift):
        bound = (h_max + 1) * (total >> shift)
        return ((2 * bound + slack) << solver._LEVEL_BITS) | solver._LEVEL_MASK

    shift = max(0, top(0).bit_length() - ceiling.bit_length() - 3)
    while top(shift) > ceiling:
        shift += 1
    return shift


def test_grid_bits_matches_search():
    rng = random.Random(53)
    assert (solver._INT32_MAX, solver._INT64_MAX) == (2**31 - 1, 2**63 - 1)
    for _ in range(1500):
        n = rng.randint(1, 16000)
        h_max = rng.randint(1, 24)
        for ceiling, slack in itertools.product(
            (solver._INT32_MAX, solver._INT64_MAX), (1, (h_max + 1) * (2 * n + 1) + 2)
        ):
            cap = ((ceiling >> solver._LEVEL_BITS) - slack) // (2 * (h_max + 1))
            # every K steps up where total crosses (cap + 1) << K
            edge = (cap + 1) << rng.randint(0, 300)
            totals = [rng.getrandbits(rng.randint(1, 4000))]
            totals += [edge + d for d in range(-3, 4)]
            for total in totals:
                want = _grid_shift_search(total, h_max, slack, ceiling)
                got = solver._grid_bits(total, h_max, slack, ceiling)
                assert got == want, (total, h_max, slack, ceiling)


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
            low, error, got_ds, path = _kernel_fractions(inst.integer_weights(), h_max)
            assert path == want and (error == 0) == (extra == 0), delta
            assert got_ds == ds, delta
            assert low <= cost <= low + error, delta


def test_int32_boundary_total():
    """At h_max = 12, integer weights whose total is the largest with every
    exact packed value in int32, 2,581,110, take the "int32" path; one more
    unit of weight takes "int64". Both equal the reference pass."""
    rng = random.Random(61)
    n = h_max = 12
    largest = ((solver._INT32_MAX >> solver._LEVEL_BITS) - 1) // (2 * (h_max + 1))
    assert largest == 2_581_110
    weights = [rng.randint(1, largest // (2 * n + 1)) for _ in range(2 * n + 1)]
    weights[0] += largest - sum(weights)
    for extra, want in ((0, "int32"), (1, "int64")):
        inst = ProblemInstance(
            beta=tuple(weights[:n]), alpha=(weights[n] + extra,) + tuple(weights[n + 1 :])
        )
        assert inst.integer_weights()[0] == 1
        cost, ds = forward_pass(backward_pass(inst, h_max))
        assert _kernel_fractions(inst.integer_weights(), h_max) == (cost, 0, ds, want)


# widths 6, 8, 9 and 12
@pytest.mark.parametrize("n, delta", [(40, 0), (70, 1), (60, 3), (90, 5)])
def test_int32_and_int64_passes_agree(n, delta):
    """On exact instances at widths on both sides of _FUSED_LEVELS, an
    int32 and an int64 _backward return the same value and byte-identical
    int8 policies: the low byte of a packed value does not depend on the
    dtype it was computed in. An "object" pass on the same weights, which
    stores the level alone in a branch taken once per pass, returns the same
    value and the same level bits at every state."""
    h_max = h_min(n) + delta
    for inst in (generate_random_instance(n, n), generate_random_instance(n, n, "zipf")):
        weights = inst.integer_weights()
        _, alpha, beta = weights
        if _exact_path(weights, h_max) != "int32":
            # zipf weights above int32: keep their ratios on a coarser grid
            shift = (sum(alpha) + sum(beta)).bit_length() - 16
            alpha, beta = [w >> shift for w in alpha], [w >> shift for w in beta]
        dead = (h_max + 1) * (sum(alpha) + sum(beta)) + 1
        narrow, wide, exact = (
            solver._backward(solver._weight_table(alpha, beta, dtype), alpha[n], h_max, dead)
            for dtype in (np.int32, np.int64, object)
        )
        assert narrow[0] == wide[0] == exact[0], (n, delta)
        assert narrow[1].dtype == np.int8 and narrow[1].tobytes() == wide[1].tobytes()
        assert exact[1].dtype == np.int8 and (exact[1] <= solver._LEVEL_MASK).all()
        assert (exact[1] == wide[1] & solver._LEVEL_MASK).all(), (n, delta)


def test_kernel_matches_reference_on_ties():
    """Weights in {0, 1, 2} make many decisions tie; both passes must pick
    the smallest level. The last three cases run at widths above
    _FUSED_LEVELS, where fused and contiguous deep levels compete. Each
    instance also runs scaled by 10^8, which puts its total above the int32
    cap of every width (16,777,215 at h_max = 1), so the same ties reach
    both exact dtypes."""
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
        h_max = min(h_min(n) + delta, n)
        small = ProblemInstance(beta=beta, alpha=alpha)
        for inst, dtype in ((small, "int32"), (small.scaled(Fraction(10**8)), "int64")):
            cost, ds = forward_pass(backward_pass(inst, h_max))
            got_cost, error, got_ds, path = _kernel_fractions(inst.integer_weights(), h_max)
            assert (got_cost, got_ds) == (cost, ds), (n, delta, dtype)
            assert (path, error) == (dtype, 0), (n, delta)


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
    """_thin_margins after a plain pass and its walk, on exact int64
    weights, given the rows the pass kept of a random number of its lowest
    stages, none and all n included, the stages above them recomputed: row
    nu-1 is V_{nu+1} over all states, dead where the scalar pass has no
    value; at every walked state the walked level is the smallest-level
    argmin, and the margin is thin exactly where the runner-up candidate
    is at most (E_nu+1) << 5 above the best, both taken over the packed
    finite candidates. Both verdicts occur, and so does an instance whose
    thin margins all lie off the walked path, which certifies. Weights in
    {0, 1, 2} times E_nu + 1 of some stage put walked margins on the bound
    itself. Widths run past _FUSED_LEVELS, so segments, shallow moves and
    deep blocks all count."""
    rng = random.Random(67)
    verdicts, on_bound = [], 0
    for h_max in range(1, solver._FUSED_LEVELS + 3):
        for dist in ("uniform", "zipf", "ties", "scaled", "scaled"):
            n = rng.randint(min(h_max, (1 << h_max) - 1), min(h_max + 3, (1 << h_max) - 1))
            if dist in ("ties", "scaled"):
                m = 1 if dist == "ties" else (h_max + 1) * (2 * (n - rng.randint(1, n)) + 3) + 1
                beta = tuple(Fraction(m * rng.randint(0, 2)) for _ in range(n))
                alpha = tuple(Fraction(m * rng.randint(0, 2)) for _ in range(n + 1))
                inst = ProblemInstance(beta=(Fraction(m),) + beta[1:], alpha=alpha)
            else:
                inst = generate_random_instance(n, rng.randint(0, 10**6), dist=dist)
            _, alpha, beta = inst.integer_weights()
            total = sum(alpha) + sum(beta)
            dead = (h_max + 1) * total + (h_max + 1) * (2 * n + 1) + 2
            kept = rng.choice((0, n, rng.randint(1, n)))  # rows of stages 1..kept
            table = solver._weight_table(alpha, beta, np.int64)
            value, policies, rows = solver._backward(table, alpha[n], h_max, dead, kept)
            assert rows.shape == (kept, (1 << h_max) + 1)
            levels, visited = solver._walk(policies)
            got = solver._thin_margins(table, alpha[n], h_max, dead, visited, rows)
            v_next = [None] * (1 << h_max)
            for k in range(1, h_max + 1):
                v_next[(1 << k) - 1] = k * alpha[n]
            thin_anywhere = False
            for nu in range(n, 0, -1):
                if nu <= kept:  # row nu-1 is V_{nu+1}, dead slot included
                    row = [c >> solver._LEVEL_BITS for c in rows[nu - 1].tolist()]
                    assert [None if c >= dead else c for c in row] == v_next + [None], nu
                margin = ((h_max + 1) * (2 * (n - nu) + 3) + 1) << solver._LEVEL_BITS
                stage = _scalar_stage(v_next, alpha[nu - 1], beta[nu - 1], h_max)
                thin = [
                    best is not None and second is not None and second - best <= margin
                    for best, second in stage
                ]
                best, second = stage[visited[nu - 1]]
                assert levels[nu - 1] == best & solver._LEVEL_MASK, (h_max, dist, nu)
                on_bound += second is not None and abs(second - best - margin) < 32
                assert got[nu - 1] == thin[visited[nu - 1]], (h_max, dist, nu)
                thin_anywhere |= any(thin)
                v_next = [None if c is None else c >> solver._LEVEL_BITS for c, _ in stage]
            assert value == v_next[0]
            verdicts.append((bool(got.any()), thin_anywhere))
    assert (True, True) in verdicts and (False, False) in verdicts
    assert (False, True) in verdicts  # thin only off the walked path
    assert on_bound


@pytest.mark.parametrize("h_max", range(1, 13))
def test_shallow_moves_closed_form(h_max):
    """The first moves of the table are the shallow levels of the states
    s >= 2^(A-1), with A = min(_FUSED_LEVELS, h_max), in order: the feasible
    level q-1 below the top set bit p, to transition(s, q-1) at pair index
    (1+p)(h_max+1) + q, whose column of kt.coef is ((1+p) << 5, q << 5,
    q-1): cost (1+p)*alpha + q*beta and level q-1. A state without one moves
    to the dead slot 2^h_max at pair 0, whose column is zero: cost 0 and
    level 0."""
    kt = solver._kernel_tables(h_max)
    size = 1 << h_max
    low = 1 << (min(solver._FUSED_LEVELS, h_max) - 1)
    assert kt.coef[:, 0].tolist() == [0, 0, 0]
    for s in range(low, size):
        p = s.bit_length() - 1
        shallow = [a for a in feasible_decisions(s, h_max) if a < p]
        move = s - low
        if shallow:
            (a,) = shallow
            pair = (1 + p) * (h_max + 1) + a + 1
            assert (kt.succ[move], kt.pair[move]) == (transition(s, a), pair), bin(s)
            assert kt.coef[:, pair].tolist() == [(1 + p) << 5, (a + 1) << 5, a]
        else:
            assert (kt.succ[move], kt.pair[move]) == (size, 0), bin(s)


@pytest.mark.parametrize("h_max", range(1, 13))
def test_fused_moves_closed_form(h_max):
    """The segments, after the 2^h_max - 2^(A-1) shallow moves, list, for
    every state s < 2^(A-1) with A = min(_FUSED_LEVELS, h_max), exactly
    feasible_decisions(s, A), in ascending order, the shallow level
    included, with successor transition(s, a) and pair index
    (1+max(p, a))(h_max+1) + a+1 (p the top set bit, -1 for s = 0), whose
    column of kt.coef is ((1+max(p, a)) << 5, (a+1) << 5, a): cost
    (1+max(p, a))*alpha + (a+1)*beta and level a. The table takes its
    segments from states.is_feasible, so comparing them with
    feasible_decisions checks them against the scalar rule."""
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
            assert kt.coef[:, pair].tolist() == [gap << 5, (a + 1) << 5, a]
    first = (1 << h_max) - low
    assert kt.starts.tolist() == starts
    # segment s holds the moves of state s, from kt.starts[s] to the next start
    state = np.repeat(np.arange(low), np.diff(kt.starts, append=len(kt.succ) - first))
    got = list(zip(state.tolist(), kt.succ[first:].tolist(), kt.pair[first:].tolist()))
    assert got == want


def _walk_from(s, h_max):
    """The walk's levels and states along a policy that takes the all-zero
    state to s, placing its set bits in ascending order, and then one more
    stage: its last level is the one the walk takes in s."""
    half = 1 << (h_max - 1)
    levels = [i for i in range(h_max) if s >> i & 1]
    policy = np.zeros((len(levels) + 1, half), np.int8)
    t = 0
    for nu, a in enumerate(levels):
        policy[nu, t] = a
        t = transition(t, a)
    got, visited = solver._walk(policy)
    assert got[:-1] == levels and visited[-1] == s
    return got[-1]


@pytest.mark.parametrize("h_max", range(1, 13))
def test_policy_states_are_the_branching_ones(h_max):
    """The policy covers the states below 2^(h_max-1). Every state at or
    above has at most one feasible level, and only 2^h_max - 1 has none; the
    walk takes that level without a policy byte. Every state below, but
    2^(h_max-1) - 1, has a choice of at least two levels."""
    half = 1 << (h_max - 1)
    for s in range(half, 2 * half):
        levels = feasible_decisions(s, h_max)
        if s == 2 * half - 1:
            assert levels == []
        else:
            assert levels == [_walk_from(s, h_max)], bin(s)
    for s in range(half - 1):
        assert len(feasible_decisions(s, h_max)) >= 2, bin(s)


def test_walk_matches_reference_through_the_upper_half():
    """On weights in {0, 1, 2}, exact ties throughout, the kernel's policy
    over the states below 2^(h-1) walks to the reference pass's decisions,
    through states at or above 2^(h-1), at widths on both sides of
    _FUSED_LEVELS."""
    rng = random.Random(71)
    widths = set()
    for n, delta in ((12, 0), (30, 0), (100, 0), (120, 2), (256, 0)):
        h_max = h_min(n) + delta
        inst = ProblemInstance(
            beta=tuple(Fraction(rng.randint(0, 2)) for _ in range(n)),
            alpha=tuple(Fraction(rng.randint(0, 2)) for _ in range(n + 1)),
        )
        _, alpha, beta = inst.integer_weights()
        dead = (h_max + 1) * (sum(alpha) + sum(beta)) + 1
        table = solver._weight_table(alpha, beta, np.int64)
        _, policies, _ = solver._backward(table, alpha[n], h_max, dead)
        assert policies.shape == (n, 1 << (h_max - 1))
        levels, visited = solver._walk(policies)
        assert max(visited) >= 1 << (h_max - 1), n
        assert tuple(levels) == forward_pass(backward_pass(inst, h_max))[1].levels, n
        widths.add(h_max)
    assert min(widths) <= 8 and max(widths) > solver._FUSED_LEVELS


def test_policy_bytes_hold_the_level_in_their_low_bits(monkeypatch):
    """Each pass of _kernel_pass stores an int8 policy of policy_bytes(n, h)
    bytes whose low _LEVEL_BITS bits, at every reachable state below
    2^(h-1) with a finite value, are the level of the reference pass on the
    integer weights the pass ran on: exact int32 and int64, floored and
    object passes, at widths on both sides of _FUSED_LEVELS. The int32 and
    int64 bytes keep value bits above the level; _walk masks them out, so
    setting bits 5-7 of every byte, which makes every byte negative,
    changes none of its levels and states."""
    real = solver._backward
    passes = []

    def spy(table, alpha_n, h_max, dead, kept=0):
        out = real(table, alpha_n, h_max, dead, kept)
        passes.append((table[0].tolist() + [alpha_n], table[1].tolist(), h_max, out[1]))
        return out

    monkeypatch.setattr(solver, "_backward", spy)
    uniform = [(generate_random_instance(n, 9), delta) for n, delta in ((20, 0), (40, 4))]
    # scaled above the int32 cap, the same instances take "int64"
    uniform += [(inst.scaled(Fraction(10**7)), delta) for inst, delta in uniform]
    zipf = [(generate_random_instance(n, 9, "zipf"), delta) for n, delta in ((48, 1), (60, 3))]
    kinds = []
    for thin, cases in ((False, uniform + zipf), (True, zipf)):
        if thin:
            _mark_every_margin_thin(monkeypatch)
        for inst, delta in cases:
            h_max = h_min(inst.n) + delta
            path = _kernel_pass(inst.integer_weights(), h_max)[3]
            # an "object" path reruns after a floored pass
            first = "int64-floored" if path == "object" else path
            kinds += [(first, h_max)] + ([(path, h_max)] if path == "object" else [])
    assert len(kinds) == len(passes)
    paths = ("int32", "int64", "int64-floored", "object")
    assert {path for path, _ in kinds} == set(paths)
    for path in paths:
        widths = [h for p, h in kinds if p == path]
        assert min(widths) <= solver._FUSED_LEVELS < max(widths), path
    value_bits = False
    for (path, _), (alpha, beta, h_max, policy) in zip(kinds, passes):
        n, half = len(beta), 1 << (h_max - 1)
        assert policy.dtype == np.int8 and policy.nbytes == policy_bytes(n, h_max)
        ref = backward_pass(
            ProblemInstance(beta=tuple(map(Fraction, beta)), alpha=tuple(map(Fraction, alpha))),
            h_max,
        )
        for nu, table in enumerate(ref.policies):
            want = {s: a for s, a in table.items() if s < half}
            assert {s: policy[nu, s] & solver._LEVEL_MASK for s in want} == want, (path, nu)
        value_bits |= path != "object" and bool((policy.view(np.uint8) > solver._LEVEL_MASK).any())
        walked = solver._walk(policy)
        high = policy.view(np.uint8)
        high |= 0xE0
        assert (policy < 0).all() and solver._walk(policy) == walked, path
    assert value_bits


def test_cached_tables_stay_within_ten_bytes_per_state():
    """The arrays cached for a width, the kernel's move table and
    constants, take at most 10 bytes per state plus a fixed allowance, and
    each width is built once: a second call returns the same object."""
    for h_max in range(1, 17):
        solve(generate_random_instance(h_max, h_max), h_max)  # clamped to width n
        cached = solver._kernel_tables(h_max)
        assert solver._kernel_tables(h_max) is cached, h_max
        assert sum(a.nbytes for a in cached) <= 10 * (1 << h_max) + 64 * 1024, h_max


def test_solve_never_calls_reference_pass(monkeypatch):
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


def test_solve_refuses_width_above_table_max(monkeypatch, golden_instance):
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
    # n = 16000 at width 17: 1 GB of policy, within the limit
    solver.st.check_policy_size(16000, 17)

    def refuse(h_max):
        raise AssertionError("a table was built")

    monkeypatch.setattr(solver, "_kernel_tables", refuse)
    # n = 1000 at width 24: 8 GB of policy
    inst = generate_random_instance(1000, 1)
    with pytest.raises(ValueError, match=f"needs {1000 << 23} bytes"):
        solve(inst, 14)


def test_policy_limit_at_width_22(monkeypatch):
    """One byte per stage and state below 2^21: n = 2048 fills
    POLICY_MAX_BYTES exactly and n = 2049 is refused before any table."""
    solver.st.check_policy_size(2048, 22)

    def refuse(h_max):
        raise AssertionError("a table was built")

    monkeypatch.setattr(solver, "_kernel_tables", refuse)
    with pytest.raises(ValueError, match=f"needs {2049 << 21} bytes, above the limit of {1 << 32}"):
        solve(generate_random_instance(2049, 1), 22 - h_min(2049))


def test_cost_check_raises_on_mismatch(monkeypatch, golden_instance):
    """solve() compares the kernel's bounds, integers over the common
    denominator d, with the tree's wpl scaled to d. On the exact paths a
    value one unit over d above or below the wpl is refused. The instances
    with keys 1/6, 1/3, 1/2 have a wpl whose denominator is below d, so a
    check that read the wpl's numerator without scaling it to d would
    refuse their unmoved values. A floored value may lie up to its rounding
    bound below the wpl, and no more: one unit past either end is refused."""
    real = solver._kernel_pass
    move = {}

    def wrong_cost(weights, h_max):
        low, error, ds, path = real(weights, h_max)
        return move[path](low, error), error, ds, path

    monkeypatch.setattr(solver, "_kernel_pass", wrong_cost)
    shared = ProblemInstance(beta=(Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)), alpha=(0,) * 4)
    cases = [(golden_instance, "int32"), (golden_instance.scaled(10**12), "int64")]
    cases += [(shared, "int32"), (shared.scaled(6 * 10**8 + 1), "int64")]
    for inst, path in cases:
        assert real(inst.integer_weights(), h_min(inst.n))[3] == path
        move[path] = lambda low, error: low
        wpl = solve(inst, 0).cost
        assert wpl == forward_pass(backward_pass(inst, h_min(inst.n)))[0]
        if inst.n == 3:
            assert wpl.denominator < inst.common_denominator() == 6
        for step in (1, -1):
            move[path] = lambda low, error: low + step
            with pytest.raises(RuntimeError, match="differs"):
                solve(inst, 0)
    # a floored value lies below the tree's wpl by less than its rounding
    # bound; the solution reports the exact wpl
    inst = generate_random_instance(96, 1, dist="zipf")
    d = inst.common_denominator()
    cost, _ = forward_pass(backward_pass(inst, h_min(96)))
    total = cost.numerator * (d // cost.denominator)
    for low in (lambda low, error: low, lambda low, error: total, lambda low, error: total - error):
        move["int64-floored"] = low
        assert solve(inst, 0).cost == cost
    for low in (
        lambda low, error: low + 2 * error,
        lambda low, error: low - 2 * error,
        lambda low, error: total + 1,  # the wpl one unit below low
        lambda low, error: total - error - 1,  # the wpl one unit above low + error
    ):
        move["int64-floored"] = low
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


def test_reference_relaxation_count_matches_stage_counts():
    from nearheight.states import stage_counts

    for n, delta, seed in [(5, 0, 1), (12, 1, 2), (30, 2, 3), (9, 3, 4)]:
        inst = generate_random_instance(n, seed)
        h_max = h_min(n) + delta
        tables = backward_pass(inst, h_max)
        assert tables.relaxations == sum(stage_counts(n, h_max)[1])


def test_solution_reader_checks_levels():
    """A solution read from outside whose node levels do not follow the
    tree's shape is refused, not scored: with gap 2 moved to level 0 the
    levels would give a wpl of 11 for a tree whose wpl is 12. Nor is one
    whose decisions are not its tree's key levels: the decisions (1, 0) of
    beta = (1, 5) with the tree of beta = (5, 1), whose levels are (0, 1).
    Nor is an h_max of 1 or -3, neither of which holds level 1, nor a
    negative h_max for no keys, nor decisions that form no tree, at once
    even with a decision or h_max of 10^12, which the replay never spells
    out bit by bit; such an h_max over decisions that form a tree is read."""
    zero = (Fraction(0),) * 3
    obj = solve(ProblemInstance(beta=(Fraction(1), Fraction(5)), alpha=zero), 0).to_obj()
    swapped = solve(ProblemInstance(beta=(Fraction(5), Fraction(1)), alpha=zero), 0).to_obj()
    assert (obj["decisions"], swapped["decisions"]) == ([1, 0], [0, 1])
    with pytest.raises(InstanceError, match="key 2 at level 0 has 'key' 1, not 2$"):
        solution_from_obj(dict(obj, tree=swapped["tree"]))
    empty = solve(ProblemInstance(beta=(), alpha=(Fraction(1),)), 0).to_obj()
    for bad in (dict(obj, h_max=1), dict(obj, h_max=-3), dict(empty, h_max=-1)):
        with pytest.raises(InstanceError, match="'h_max'"):
            solution_from_obj(bad)
    huge = 10**12
    for decisions, h_max in (
        ([0, 0], 2), ([1, 1], 2), ([-1, 0], 2),
        ([0, 0], huge), ([0, 2], huge), ([huge], huge + 1), ([1, huge], huge + 1),
    ):
        with pytest.raises(InstanceError, match="'decisions' form no tree"):
            solution_from_obj(dict(obj, decisions=decisions, h_max=h_max))
    assert solution_from_obj(dict(obj, h_max=huge)).h_max == huge
    inst = ProblemInstance(beta=(Fraction(1), Fraction(5)), alpha=(1, 1, 1))
    obj = json.loads(json.dumps(solve(inst, 0).to_obj()))
    assert obj["wpl"] == "12"
    gap2 = obj["tree"]["right"]
    assert gap2 == {"gap": 2, "level": 1}
    gap2["level"] = 0
    with pytest.raises(InstanceError, match="gap 2 at level 1 has 'level' 0, not 1$"):
        solution_from_obj(obj)
    gap2["level"] = 1
    obj["tree"]["level"] = 1
    with pytest.raises(InstanceError, match="key 2 at level 0 has 'level' 1, not 0$"):
        solution_from_obj(obj)


def test_solution_reader_needs_both_children():
    """An internal node without its left or right child is refused with
    InstanceError, not a KeyError."""
    for tree in ({"key": 1, "level": 0}, {"key": 1, "level": 0, "left": {"gap": 0, "level": 1}}):
        obj = {"wpl": "2", "height": 1, "h_min": 1, "decisions": [0], "h_max": 1, "tree": tree}
        with pytest.raises(InstanceError, match="key 1 at level 0 must be a JSON object"):
            solution_from_obj(obj)


def test_solution_reader_needs_every_field():
    """A solution object that is not a JSON object, lacks a field, or has
    decisions that are not an array is refused with InstanceError, not a
    TypeError or KeyError. So is one that to_obj() would not write: a
    height or h_min other than the rebuilt tree's, an extra field, or a
    wpl not in lowest terms."""
    inst = ProblemInstance(beta=(Fraction(1),), alpha=(Fraction(1),) * 2)
    obj = solve(inst, 0).to_obj()
    assert (obj["wpl"], obj["height"], obj["h_min"]) == ("3", 1, 1)
    bad = [[obj], dict(obj, decisions=5), dict(obj, decisions="0")]
    for field in obj:
        bad.append({k: v for k, v in obj.items() if k != field})
    for case in bad:
        with pytest.raises(InstanceError):
            solution_from_obj(case)
    edits = [
        (dict(obj, height=99), "solution has 'height' 99, not 1$"),
        (dict(obj, h_min=-5), "solution has 'h_min' -5, not 1$"),
        (dict(obj, extra=1), "solution must be a JSON object with exactly the fields"),
        (dict(obj, wpl="2/4"), "solution has 'wpl' '2/4', not '1/2'$"),
        (dict(obj, wpl="007"), "solution has 'wpl' '007', not '7'$"),
    ]
    for case, message in edits:
        with pytest.raises(InstanceError, match=message):
            solution_from_obj(case)
    assert solution_from_obj(obj).to_obj() == obj


def test_solution_reader_refuses_booleans():
    """JSON true and false are not integers: as a key, gap, level,
    decision, height or h_max they are refused, not read as 1 and 0. Nor is
    a float level, even one equal to the rebuilt node's."""
    inst = ProblemInstance(beta=(Fraction(1),), alpha=(Fraction(1),) * 2)
    obj = solve(inst, 0).to_obj()
    assert obj["tree"] == {
        "key": 1, "level": 0, "left": {"gap": 0, "level": 1}, "right": {"gap": 1, "level": 1}
    }
    edits = [
        (lambda o: o, "h_max", True, "h_max must be an integer"),
        (lambda o: o, "height", True, "solution has 'height' True, not 1$"),
        (lambda o: o["decisions"], 0, False, "decision must be an integer"),
        (lambda o: o["tree"], "key", True, "key 1 at level 0 has 'key' True, not 1$"),
        (lambda o: o["tree"], "level", False, "key 1 at level 0 has 'level' False, not 0$"),
        (lambda o: o["tree"]["right"], "gap", True, "gap 1 at level 1 has 'gap' True, not 1$"),
        (lambda o: o["tree"]["left"], "level", True, "gap 0 at level 1 has 'level' True, not 1$"),
        (lambda o: o["tree"]["left"], "level", 1.0, r"gap 0 at level 1 has 'level' 1\.0, not 1$"),
    ]
    for node, field, value, message in edits:
        bad = json.loads(json.dumps(obj))
        node(bad)[field] = value
        with pytest.raises(InstanceError, match=message):
            solution_from_obj(bad)
    assert solution_from_obj(obj).to_obj() == obj


def test_solution_reader_refuses_relabeled_trees(golden_instance):
    """The tree is rebuilt from the decisions, and every label, level and
    field of the JSON tree must match it: the golden solution with its
    keys renumbered 11..14 and gaps 10..14, which has the right levels, is
    refused, and so are one wrong gap label and one extra field."""
    obj = json.loads(json.dumps(solve(golden_instance, 0).to_obj()))
    relabeled = json.loads(json.dumps(obj))
    stack = [relabeled["tree"]]
    while stack:
        node = stack.pop()
        if "key" in node:
            node["key"] += 10
            stack += [node["left"], node["right"]]
        else:
            node["gap"] += 10
    with pytest.raises(InstanceError, match="key 3 at level 0 has 'key' 13, not 3$"):
        solution_from_obj(relabeled)
    assert obj["tree"]["right"]["right"] == {"gap": 4, "level": 2}
    edits = [
        (lambda t: t["right"]["right"], "gap", 3, "gap 4 at level 2 has 'gap' 3, not 4$"),
        (lambda t: t["right"]["right"], "key", 4, "gap 4 at level 2 must be a JSON object"),
        (lambda t: t, "weight", "1", "key 3 at level 0 must be a JSON object"),
    ]
    for node, field, value, message in edits:
        bad = json.loads(json.dumps(obj))
        node(bad["tree"])[field] = value
        with pytest.raises(InstanceError, match=message):
            solution_from_obj(bad)


def test_solution_json_round_trip(golden_instance):
    """The golden solve and every solve that test_solve_outputs_are_pinned
    pins read back from their JSON text as the same Solution, whose tree
    is the one rebuilt from the decisions."""
    cases = [("golden", golden_instance, 0), *_pinned_cases()]
    for name, inst, delta in cases:
        sol = solve(inst, delta)
        again = solution_from_obj(json.loads(json.dumps(sol.to_obj())))
        assert (again.cost, again.decisions) == (sol.cost, sol.decisions), name
        assert again.to_obj() == sol.to_obj(), name
    assert len(cases) == len(PINNED) + 1


def test_dead_states_are_retained(golden_instance):
    tables = backward_pass(golden_instance, 3)
    # every reachable state appears in its stage's value map, finite or not
    for nu in range(1, 6):
        assert set(tables.values[nu - 1]) == set(tables.sets.states(nu))
        if nu <= 4:
            assert set(tables.policies[nu - 1]) == {
                s for s, v in tables.values[nu - 1].items() if v != inf
            }


# bigint-zipf's (n, delta) shapes in perfbench/workloads.py
_ZIPF_SHAPES = [
    (96, 0), (96, 1), (96, 2), (112, 1), (128, 0), (128, 1), (128, 2),
    (160, 0), (160, 1), (192, 0), (192, 1), (224, 0), (256, 0),
]


def _pinned_cases():
    """(name, instance, delta) of the solves whose outputs PINNED records:
    every bigint-zipf shape, 40 small shapes spaced like small-mixed's
    n (delta 0..3, a quarter zero-alpha), one wide uniform solve, one
    uniform solve scaled above the int32 cap, and the mirrored tie
    fixtures of test_exact_ties_take_the_exact_path."""
    for i, (n, delta) in enumerate(_ZIPF_SHAPES):
        yield f"zipf n={n} d={delta}", generate_random_instance(n, 1000 + i, "zipf"), delta
    for j in range(40):
        n = round(1 + 79 * (j / 39) ** 3)
        delta = j % 4 if n <= 48 else j % 3
        zero_alpha = j % 4 == 1
        inst = generate_random_instance(n, 2000 + j, zero_alpha=zero_alpha)
        yield f"uniform seed={2000 + j} n={n} d={delta} za={zero_alpha:d}", inst, delta
    yield "uniform n=800 d=3", generate_random_instance(800, 3000), 3
    scaled = generate_random_instance(30, 2040).scaled(Fraction(10**7))
    yield "uniform seed=2040 n=30 d=1 x10^7", scaled, 1
    for d in (2**61 - 1, 2**89 - 1):
        for n in (6, 7, 30, 31, 254, 255):
            for delta in range(3):
                yield f"mirrored n={n} 2^{d.bit_length()}-1 d={delta}", _mirrored(n, d), delta


def test_solve_outputs_are_pinned(monkeypatch):
    """solve() takes the kernel path, and returns the cost and decisions,
    that PINNED records for every case of _pinned_cases: each digest is the
    first 16 hex digits of the sha256 of perfbench's digest text
    "cost|levels". The cases cover all four kernel paths."""
    real = solver._kernel_pass
    paths = []

    def spy(weights, h_max):
        out = real(weights, h_max)
        paths.append(out[3])
        return out

    monkeypatch.setattr(solver, "_kernel_pass", spy)
    got = {}
    for name, inst, delta in _pinned_cases():
        sol = solve(inst, delta)
        text = f"{sol.cost}|{','.join(map(str, sol.decisions.levels))}"
        got[name] = (paths.pop(), hashlib.sha256(text.encode()).hexdigest()[:16])
    assert got == PINNED
    paths = {"int32", "int64", "int64-floored", "object"}
    assert {path for path, _ in PINNED.values()} == paths


# (path, digest) of each case of _pinned_cases. A change that keeps
# solve()'s outputs leaves this table as it is.
PINNED = {
    "zipf n=96 d=0": ("int64-floored", "d8cf29576c532a9e"),
    "zipf n=96 d=1": ("int64-floored", "845f280cf0972074"),
    "zipf n=96 d=2": ("int64-floored", "a299beeade2e4e3c"),
    "zipf n=112 d=1": ("int64-floored", "458b0acb8e22be83"),
    "zipf n=128 d=0": ("int64-floored", "3df6d1d78fbafe66"),
    "zipf n=128 d=1": ("int64-floored", "d9c72b78867ade66"),
    "zipf n=128 d=2": ("int64-floored", "eb154d1e714e35fb"),
    "zipf n=160 d=0": ("int64-floored", "fe4df87bc044d195"),
    "zipf n=160 d=1": ("int64-floored", "a1811e7fc65e9ead"),
    "zipf n=192 d=0": ("int64-floored", "e1da128bb34c1f73"),
    "zipf n=192 d=1": ("int64-floored", "75071d93ebcabde0"),
    "zipf n=224 d=0": ("int64-floored", "f736f602eb289f10"),
    "zipf n=256 d=0": ("int64-floored", "ff45ce7d0c1a23cc"),
    "uniform seed=2000 n=1 d=0 za=0": ("int32", "bbc0924be89647ad"),
    "uniform seed=2001 n=1 d=1 za=1": ("int32", "309740135f85c6f5"),
    "uniform seed=2002 n=1 d=2 za=0": ("int32", "3657aa24cb763054"),
    "uniform seed=2003 n=1 d=3 za=0": ("int32", "30746a4a83b052c4"),
    "uniform seed=2004 n=1 d=0 za=0": ("int32", "aa6a1f0ffb4b2d36"),
    "uniform seed=2005 n=1 d=1 za=1": ("int32", "44875944ebe2b096"),
    "uniform seed=2006 n=1 d=2 za=0": ("int32", "27b069f1ecd764f7"),
    "uniform seed=2007 n=1 d=3 za=0": ("int32", "c4481b6c16aec2e2"),
    "uniform seed=2008 n=2 d=0 za=0": ("int32", "541558c40d01f560"),
    "uniform seed=2009 n=2 d=1 za=1": ("int32", "ccfd3a0b14fbb682"),
    "uniform seed=2010 n=2 d=2 za=0": ("int32", "af3045ca888d441c"),
    "uniform seed=2011 n=3 d=3 za=0": ("int32", "d1307bfa94e36b6f"),
    "uniform seed=2012 n=3 d=0 za=0": ("int32", "ae7080615252f7cb"),
    "uniform seed=2013 n=4 d=1 za=1": ("int32", "e0679ffaacf6ac23"),
    "uniform seed=2014 n=5 d=2 za=0": ("int32", "b24e3f0801378362"),
    "uniform seed=2015 n=5 d=3 za=0": ("int32", "5f8af4a4e1639709"),
    "uniform seed=2016 n=6 d=0 za=0": ("int32", "6dbf4504a6b419b8"),
    "uniform seed=2017 n=8 d=1 za=1": ("int32", "9ecbdd8dc3803a60"),
    "uniform seed=2018 n=9 d=2 za=0": ("int32", "1ccbd82c5b19c330"),
    "uniform seed=2019 n=10 d=3 za=0": ("int32", "76b7a45b523ecb93"),
    "uniform seed=2020 n=12 d=0 za=0": ("int32", "91cc616e188a799c"),
    "uniform seed=2021 n=13 d=1 za=1": ("int32", "f4913557b581c693"),
    "uniform seed=2022 n=15 d=2 za=0": ("int32", "57cb3067b58c5627"),
    "uniform seed=2023 n=17 d=3 za=0": ("int32", "d45f895cd35e072e"),
    "uniform seed=2024 n=19 d=0 za=0": ("int32", "872b3d9ade6ce69d"),
    "uniform seed=2025 n=22 d=1 za=1": ("int32", "3465723002bd2523"),
    "uniform seed=2026 n=24 d=2 za=0": ("int32", "19d5e04ef70fd985"),
    "uniform seed=2027 n=27 d=3 za=0": ("int32", "a479300a8017ed4c"),
    "uniform seed=2028 n=30 d=0 za=0": ("int32", "d4dfae803d8dec47"),
    "uniform seed=2029 n=33 d=1 za=1": ("int32", "d90f46c7d578935b"),
    "uniform seed=2030 n=37 d=2 za=0": ("int32", "4963ca56b5678796"),
    "uniform seed=2031 n=41 d=3 za=0": ("int32", "75fa0d3d6caec5df"),
    "uniform seed=2032 n=45 d=0 za=0": ("int32", "81e6dd162474e5f6"),
    "uniform seed=2033 n=49 d=0 za=1": ("int32", "1d4d7a53f0a0f2c4"),
    "uniform seed=2034 n=53 d=1 za=0": ("int32", "6fc74c78e093fd18"),
    "uniform seed=2035 n=58 d=2 za=0": ("int32", "ae94c73876ca3dc8"),
    "uniform seed=2036 n=63 d=0 za=0": ("int32", "1c0ee345bb8ed083"),
    "uniform seed=2037 n=68 d=1 za=1": ("int32", "2bf5a28fa46c5251"),
    "uniform seed=2038 n=74 d=2 za=0": ("int32", "f42082c77f613c80"),
    "uniform seed=2039 n=80 d=0 za=0": ("int32", "c26d6cccb0d35302"),
    "uniform n=800 d=3": ("int32", "9150dfed26519817"),
    "uniform seed=2040 n=30 d=1 x10^7": ("int64", "6b1915c4ea957e1f"),
    "mirrored n=6 2^61-1 d=0": ("object", "c2d4368e411cb498"),
    "mirrored n=6 2^61-1 d=1": ("object", "c0eb64e1cf51d9df"),
    "mirrored n=6 2^61-1 d=2": ("object", "c0eb64e1cf51d9df"),
    "mirrored n=7 2^61-1 d=0": ("int64-floored", "ec0b64c9f466d799"),
    "mirrored n=7 2^61-1 d=1": ("int64-floored", "718f12a1d51c6532"),
    "mirrored n=7 2^61-1 d=2": ("int64-floored", "718f12a1d51c6532"),
    "mirrored n=30 2^61-1 d=0": ("object", "5115f5d96b6bb2f6"),
    "mirrored n=30 2^61-1 d=1": ("object", "c641f8d5f78219f8"),
    "mirrored n=30 2^61-1 d=2": ("object", "a5307347635b1794"),
    "mirrored n=31 2^61-1 d=0": ("int64-floored", "17e080ab8277471d"),
    "mirrored n=31 2^61-1 d=1": ("int64-floored", "5af23e2becfcd92f"),
    "mirrored n=31 2^61-1 d=2": ("int64-floored", "71f0c25b6cfb8eef"),
    "mirrored n=254 2^61-1 d=0": ("object", "873e6b6bbd3d9575"),
    "mirrored n=254 2^61-1 d=1": ("object", "e8043341f344774f"),
    "mirrored n=254 2^61-1 d=2": ("object", "2e19e7d1e246846f"),
    "mirrored n=255 2^61-1 d=0": ("int64-floored", "ceb6b316b79ffc4e"),
    "mirrored n=255 2^61-1 d=1": ("int64-floored", "8cbc0b57cc5e2f97"),
    "mirrored n=255 2^61-1 d=2": ("int64-floored", "ee2a9f5a9492dbba"),
    "mirrored n=6 2^89-1 d=0": ("object", "6c0ea8464aacd316"),
    "mirrored n=6 2^89-1 d=1": ("object", "1533001eec9b0aae"),
    "mirrored n=6 2^89-1 d=2": ("object", "1533001eec9b0aae"),
    "mirrored n=7 2^89-1 d=0": ("int64-floored", "7c2249b668e6778b"),
    "mirrored n=7 2^89-1 d=1": ("int64-floored", "f793f053a440fa6f"),
    "mirrored n=7 2^89-1 d=2": ("int64-floored", "f793f053a440fa6f"),
    "mirrored n=30 2^89-1 d=0": ("object", "4bf9d08af17ca447"),
    "mirrored n=30 2^89-1 d=1": ("object", "ac1a6608f8446a6c"),
    "mirrored n=30 2^89-1 d=2": ("object", "3d21a9de73906ddf"),
    "mirrored n=31 2^89-1 d=0": ("int64-floored", "5365a7f8bd15b4ef"),
    "mirrored n=31 2^89-1 d=1": ("int64-floored", "e1fd13e0c4e7cc19"),
    "mirrored n=31 2^89-1 d=2": ("int64-floored", "4ac5e9bd5ef70849"),
    "mirrored n=254 2^89-1 d=0": ("object", "8954782426deb265"),
    "mirrored n=254 2^89-1 d=1": ("object", "a54d2e4f1b89e332"),
    "mirrored n=254 2^89-1 d=2": ("object", "95049a6e947d8059"),
    "mirrored n=255 2^89-1 d=0": ("int64-floored", "a838b447717d2668"),
    "mirrored n=255 2^89-1 d=1": ("int64-floored", "d369a29e91e30fc8"),
    "mirrored n=255 2^89-1 d=2": ("int64-floored", "a49d892f1ee3aea8"),
}
