import json
import random
from fractions import Fraction
from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from nearheight import (
    DecisionSequence,
    External,
    InfeasibleHeightError,
    ProblemInstance,
    backward_pass,
    forward_pass,
    gap_level,
    generate_random_instance,
    h_min,
    solve,
    solve_with_max_height,
    stage_cost,
    terminal_cost,
    tree_height,
    weighted_path_length,
)
from nearheight import solver
from nearheight.oracles import knuth_unrestricted
from nearheight.solver import _kernel_pass, solution_from_obj
from nearheight.states import transition


def bits(*levels):
    s = 0
    for i in levels:
        s |= 1 << i
    return s


def test_gap_level():
    assert gap_level(1, 2) == 3
    assert gap_level(0, 1) == 2
    with pytest.raises(ValueError):
        gap_level(2, 2)
    with pytest.raises(ValueError):
        gap_level(-1, 0)


def test_stage_cost_examples(golden_instance):
    assert stage_cost(golden_instance, 1, 0, 1) == Fraction(3, 8)
    assert stage_cost(golden_instance, 2, bits(1), 2) == Fraction(3, 16)


def test_stage_cost_zero_weights():
    inst = ProblemInstance(beta=(Fraction(0), Fraction(1)), alpha=(0, 0, 0))
    assert stage_cost(inst, 1, 0, 1) == 0


def test_stage_cost_includes_gap_term():
    inst = ProblemInstance(beta=(Fraction(1, 2), Fraction(1, 4)), alpha=(Fraction(1, 8),) * 3)
    # stage 2 from state (1,0): gap between keys at levels 0 and 1 sits on level 2
    assert stage_cost(inst, 2, bits(0), 1) == 2 * Fraction(1, 8) + 2 * Fraction(1, 4)


def test_stage_cost_rejects_infeasible(golden_instance):
    with pytest.raises(ValueError):
        stage_cost(golden_instance, 1, bits(0), 0)


def test_terminal_cost(golden_instance):
    assert terminal_cost(golden_instance, bits(0, 2)) == inf
    assert terminal_cost(golden_instance, bits(0, 1)) == 0
    inst = ProblemInstance(
        beta=(Fraction(1, 2), Fraction(1, 4)),
        alpha=(0, 0, Fraction(1, 8)),
    )
    assert terminal_cost(inst, bits(0, 1)) == Fraction(1, 4)


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
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 12)
        delta = rng.randint(0, 2)
        inst = generate_random_instance(n, rng.randint(0, 10**6))
        tables = backward_pass(inst, h_min(n) + delta)
        cost, ds = forward_pass(tables)
        s = 0
        total = Fraction(0)
        for nu, a in enumerate(ds.levels, start=1):
            total += stage_cost(inst, nu, s, a)
            s = transition(s, a)
        total += terminal_cost(inst, s)
        assert total == cost


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
        got_cost, got_ds, dtype = _kernel_pass(inst, h_max)
        assert (got_cost, got_ds) == (cost, ds), (n, delta, dist)
        if n > 40 and dist == "zipf":
            assert dtype == "object"


def test_kernel_matches_reference_on_ties():
    """Weights in {0, 1, 2} make many decisions tie; both passes must pick
    the smallest level."""
    rng = random.Random(41)
    for n in range(1, 41):
        delta = rng.randint(0, 3)
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
        got_cost, got_ds, dtype = _kernel_pass(inst, h_max)
        assert (got_cost, got_ds) == (cost, ds), (n, delta)
        assert dtype == "int64"


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


def test_cost_check_raises_on_mismatch(monkeypatch, golden_instance):
    real = solver._kernel_pass

    def wrong_cost(inst, h_max):
        cost, ds, dtype = real(inst, h_max)
        return cost + 1, ds, dtype

    monkeypatch.setattr(solver, "_kernel_pass", wrong_cost)
    with pytest.raises(RuntimeError, match="differs"):
        solve(golden_instance, 0)


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
