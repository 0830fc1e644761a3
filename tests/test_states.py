import pytest
from hypothesis import given, strategies as st

from nearheight.instance import h_min
from nearheight.states import (
    StageSets,
    WidthError,
    capacity_profile,
    decision_table,
    feasible_decisions,
    is_feasible,
    is_terminal_valid,
    precdec,
    stage_counts,
    state_to_bits,
    transition,
)


def bfs_stage_sets(n, h_max):
    """S_1..S_{n+1} by literal iteration: S_1 = {0} and S_{nu+1} holds every
    state one feasible transition away from a state of S_nu."""
    sets = [[0]]
    for _ in range(n):
        sets.append(
            sorted({transition(s, a) for s in sets[-1] for a in feasible_decisions(s, h_max)})
        )
    return sets


def bits(*levels):
    s = 0
    for i in levels:
        s |= 1 << i
    return s


def test_tables_refuse_width_zero():
    with pytest.raises(WidthError, match="h_max must be in 1..24, got 0"):
        decision_table(0)


def test_is_feasible_all_zero():
    for a in range(3):
        assert is_feasible(0, a)


def test_is_feasible_101():
    s = bits(0, 2)  # (1,0,1)
    assert is_feasible(s, 1)
    assert not is_feasible(s, 0)  # unoccupied level 1 below occupied level 2
    assert not is_feasible(s, 2)  # level occupied


def test_feasible_decisions_examples():
    assert feasible_decisions(0, 3) == [0, 1, 2]
    assert feasible_decisions(bits(0, 2), 3) == [1]
    assert feasible_decisions(bits(0, 1, 2), 3) == []


def test_transition_chain():
    # (000) -a=1-> (010) -a=0-> (100) -a=2-> (101) -a=1-> (110)
    s = 0
    s = transition(s, 1)
    assert s == bits(1)
    s = transition(s, 0)
    assert s == bits(0)
    s = transition(s, 2)
    assert s == bits(0, 2)
    s = transition(s, 1)
    assert s == bits(0, 1)


def test_transition_rejects_infeasible():
    with pytest.raises(ValueError):
        transition(bits(0), 0)


def test_precdec():
    assert precdec(0) == 0
    assert precdec(bits(0, 2)) == 2
    assert precdec(bits(0, 1)) == 1


def test_is_terminal_valid():
    assert not is_terminal_valid(bits(0, 2))  # level 1 unoccupied below level 2
    assert is_terminal_valid(bits(0, 1))
    assert not is_terminal_valid(bits(1))
    assert not is_terminal_valid(0)


def test_state_to_bits():
    assert state_to_bits(bits(0, 2), 3) == "101"
    assert state_to_bits(0, 3) == "000"


def test_stage_sets_first_sets():
    sets = StageSets(4, 3)
    assert sets.states(1) == [0]
    assert sets.states(2) == sorted([bits(0), bits(1), bits(2)])
    assert all(len(sets.states(nu)) <= 10 for nu in range(1, 6))  # 2^(0+1) * (4+1)


def test_stage_sets_preconditions():
    with pytest.raises(ValueError):
        StageSets(4, 2)  # below h_min(4) = 3
    with pytest.raises(ValueError):
        StageSets(0, 1)
    with pytest.raises(ValueError):
        StageSets(20, 3)  # below h_min(20) = 5


states_and_widths = st.integers(min_value=1, max_value=12).flatmap(
    lambda w: st.tuples(st.just(w), st.integers(min_value=0, max_value=(1 << w) - 1))
)


@given(states_and_widths)
def test_precdec_of_transition(sw):
    h_max, s = sw
    for a in feasible_decisions(s, h_max):
        assert precdec(transition(s, a)) == a


@given(states_and_widths)
def test_transition_bit_structure(sw):
    h_max, s = sw
    for a in feasible_decisions(s, h_max):
        t = transition(s, a)
        assert t & ((1 << a) - 1) == s & ((1 << a) - 1)  # below a preserved
        assert (t >> a) & 1 == 1
        assert t >> (a + 1) == 0  # above a cleared


@given(states_and_widths)
def test_feasible_matches_literal_conditions(sw):
    h_max, s = sw
    literal = [
        a
        for a in range(h_max)
        if not (s >> a) & 1
        and not any(
            not (s >> i) & 1 and (s >> j) & 1
            for i in range(a + 1, h_max)
            for j in range(i + 1, h_max)
        )
    ]
    assert feasible_decisions(s, h_max) == literal


@given(states_and_widths)
def test_deepest_bit_forces_single_decision(sw):
    h_max, s = sw
    if (s >> (h_max - 1)) & 1:
        assert len(feasible_decisions(s, h_max)) <= 1


@pytest.mark.parametrize("n,delta", [(1, 0), (4, 0), (7, 1), (10, 2), (20, 1), (33, 0)])
def test_theorem_bounds_on_reachable_sets(n, delta):
    h_max = h_min(n) + delta
    sets = StageSets(n, h_max)
    for nu in range(1, n + 2):
        s_nu = sets.states(nu)
        assert len(s_nu) <= (1 << (delta + 1)) * (n + 1)
        assert sum(len(feasible_decisions(s, h_max)) for s in s_nu) <= (
            1 << (delta + 2)
        ) * (n + 1)


@pytest.mark.parametrize("n,h_max", [(1, 1), (4, 3), (4, 4), (9, 4), (16, 6), (25, 5), (31, 5)])
def test_capacity_profile_matches_iteration(n, h_max):
    """The closed-form membership (popcount <= placed keys <= left-filled
    capacity), and StageSets built on it, reproduce the iterated reachable
    sets exactly."""
    min_keys, max_keys, _ = capacity_profile(h_max)
    sets = StageSets(n, h_max)
    for nu, iterated in enumerate(bfs_stage_sets(n, h_max), start=1):
        m = nu - 1
        formula = [
            s for s in range(1 << h_max) if min_keys[s] <= m <= max_keys[s]
        ]
        assert formula == iterated
        assert sets.states(nu) == iterated


@pytest.mark.parametrize("n,h_max", [(1, 1), (5, 3), (12, 4), (40, 8), (64, 7)])
def test_stage_counts_match_sets(n, h_max):
    sizes, sums = stage_counts(n, h_max)
    sets = bfs_stage_sets(n, h_max)
    assert sizes == [len(s_nu) for s_nu in sets]
    assert sums == [
        sum(len(feasible_decisions(s, h_max)) for s in s_nu) for s_nu in sets[:n]
    ]


def test_degree_counts_decisions():
    _, _, degree = capacity_profile(4)
    for s in range(1 << 4):
        assert degree[s] == len(feasible_decisions(s, 4))


@pytest.mark.parametrize("h_max", range(1, 13))
def test_decision_table_closed_form(h_max):
    """D(s) = {q-1 if q >= 1} | {p+1..h_max-1}, with p the top set bit of s
    and q the lowest bit of the run of set bits ending at p, equals the
    literal feasibility test on every state."""
    tab = decision_table(h_max)
    _, _, degree = capacity_profile(h_max)
    for s in range(1 << h_max):
        shallow = int(tab.shallow[s])
        closed = ([shallow] if shallow >= 0 else []) + list(range(int(tab.top[s]) + 1, h_max))
        assert closed == feasible_decisions(s, h_max), bin(s)
        assert degree[s] == len(closed)
        if shallow >= 0:
            assert tab.shallow_next[s] == transition(s, shallow)
        else:
            assert tab.shallow_next[s] == 1 << h_max


@pytest.mark.parametrize("h_max", [40, 62])
def test_tables_refuse_wide_widths(h_max):
    """Every table over all 2^h_max states refuses a width above 24 before
    allocating; the scalar functions take a state of any width."""
    for build in (decision_table, capacity_profile, lambda h: stage_counts(100, h)):
        with pytest.raises(WidthError, match=f"height bound {h_max} above"):
            build(h_max)
    with pytest.raises(ValueError, match=f"height bound {h_max} above"):
        StageSets(40, h_max)
    assert feasible_decisions(0, h_max) == list(range(h_max))
