import random
from fractions import Fraction

import pytest

from nearheight import (
    External,
    ProblemInstance,
    build_tree_from_decisions,
    generate_random_instance,
    h_min,
    solve,
)
from nearheight.instance import tree_height, weighted_path_length
from nearheight.oracles import (
    MAX_ENUM_KEYS,
    brute_force_optimum,
    enumerate_trees,
    height_restricted_dp,
    knuth_unrestricted,
    shape_height,
    shape_to_tree,
)
from nearheight.solver import InfeasibleHeightError

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]


@pytest.mark.parametrize("n", range(9))
def test_enumeration_counts_and_uniqueness(n):
    shapes = list(enumerate_trees(n))
    assert len(shapes) == CATALAN[n]
    assert len(set(shapes)) == len(shapes)


def test_enumeration_cap():
    with pytest.raises(ValueError):
        list(enumerate_trees(MAX_ENUM_KEYS + 1))


def test_brute_force_cap():
    n = MAX_ENUM_KEYS + 1
    with pytest.raises(ValueError, match=f"capped at n = {MAX_ENUM_KEYS}"):
        brute_force_optimum(generate_random_instance(n, 1), h_min(n) + 1)


def test_enumeration_order_is_root_major():
    roots = [s[0] for s in enumerate_trees(3)]
    assert roots == sorted(roots)


def test_shape_to_tree_levels():
    tree = shape_to_tree((2, (1, None, None), (3, None, None)), 3)
    assert tree.key == 2 and tree.level == 0
    assert tree.left.key == 1 and tree.left.level == 1
    assert tree_height(tree) == 2 == shape_height((2, (1, None, None), (3, None, None)))


def test_brute_force_golden(golden_instance):
    sol = brute_force_optimum(golden_instance, 3)
    assert sol.cost == Fraction(25, 16)
    assert tree_height(sol.tree) <= 3
    assert weighted_path_length(sol.tree, golden_instance) == sol.cost


def test_brute_force_two_keys():
    inst = ProblemInstance(beta=(Fraction(1, 2), Fraction(1, 2)), alpha=(0, 0, 0))
    assert brute_force_optimum(inst, 2).cost == Fraction(3, 2)


def test_brute_force_infeasible_height():
    inst = generate_random_instance(4, 1)
    with pytest.raises(InfeasibleHeightError):
        brute_force_optimum(inst, 2)


def test_brute_force_matches_naive_enumeration():
    """The interval-combination fast path agrees with literally evaluating
    wpl on every materialized shape."""
    rng = random.Random(3)
    for n in range(7):
        inst = generate_random_instance(n, rng.randint(0, 10**6))
        max_height = n if n else 1
        naive_best = None
        for shape in enumerate_trees(n):
            tree = shape_to_tree(shape, n)
            if tree_height(tree) > max_height:
                continue
            cost = weighted_path_length(tree, inst)
            if naive_best is None or cost < naive_best:
                naive_best = cost
        assert brute_force_optimum(inst, max_height).cost == naive_best


@pytest.mark.parametrize("n", range(1, 8))
def test_brute_force_exact_beyond_int64(n):
    """Weights whose scaled costs exceed int64 run on exact Python ints and
    still match the naive minimum and solve() at every height bound."""
    base = generate_random_instance(n, 17 * n)
    inst = ProblemInstance(
        beta=tuple(b + Fraction(1, 2**70 + 1) for b in base.beta),
        alpha=tuple(a * 2**65 for a in base.alpha),
    )
    _, alpha, beta = inst.integer_weights()
    assert (n + 1) * (sum(alpha) + sum(beta)) >= 1 << 62
    trees = [shape_to_tree(shape, n) for shape in enumerate_trees(n)]
    for L in range(h_min(n), n + 1):
        naive_best = min(
            weighted_path_length(t, inst) for t in trees if tree_height(t) <= L
        )
        sol = brute_force_optimum(inst, L)
        assert sol.cost == naive_best == solve(inst, L - h_min(n)).cost
        assert tree_height(sol.tree) <= L
        assert weighted_path_length(sol.tree, inst) == sol.cost


def test_knuth_golden(golden_instance):
    assert knuth_unrestricted(golden_instance).cost == Fraction(25, 16)


def test_knuth_single_key():
    inst = ProblemInstance(
        beta=(Fraction(1, 3),), alpha=(Fraction(1, 5), Fraction(1, 7))
    )
    sol = knuth_unrestricted(inst)
    assert sol.cost == Fraction(1, 3) + Fraction(1, 5) + Fraction(1, 7)


def test_knuth_matches_brute_force_uniform():
    inst = ProblemInstance(beta=(Fraction(1, 7),) * 7, alpha=(0,) * 8)
    assert knuth_unrestricted(inst).cost == brute_force_optimum(inst, 7).cost


def test_knuth_tree_consistency():
    rng = random.Random(9)
    for _ in range(15):
        n = rng.randint(0, 10)
        inst = generate_random_instance(n, rng.randint(0, 10**6))
        sol = knuth_unrestricted(inst)
        assert weighted_path_length(sol.tree, inst) == sol.cost


def test_height_restricted_golden(golden_instance):
    assert height_restricted_dp(golden_instance, 3).cost == Fraction(25, 16)


def test_height_restricted_unbounded_equals_knuth():
    rng = random.Random(13)
    for _ in range(15):
        n = rng.randint(1, 9)
        inst = generate_random_instance(n, rng.randint(0, 10**6))
        assert height_restricted_dp(inst, n).cost == knuth_unrestricted(inst).cost


def test_height_restricted_rejects_tight_bound():
    inst = generate_random_instance(4, 2)
    with pytest.raises(InfeasibleHeightError):
        height_restricted_dp(inst, 2)


def test_height_restricted_matches_brute_force():
    rng = random.Random(21)
    for _ in range(30):
        n = rng.randint(1, 8)
        L = rng.randint(h_min(n), n)
        inst = generate_random_instance(n, rng.randint(0, 10**6))
        a = height_restricted_dp(inst, L)
        b = brute_force_optimum(inst, L)
        assert a.cost == b.cost
        assert tree_height(a.tree) <= L
        assert weighted_path_length(a.tree, inst) == a.cost


def test_three_way_agreement_sample():
    rng = random.Random(42)
    for _ in range(40):
        n = rng.randint(1, 9)
        delta = rng.randint(0, 2)
        inst = generate_random_instance(n, rng.randint(0, 10**6))
        L = h_min(n) + delta
        got = solve(inst, delta).cost
        assert got == brute_force_optimum(inst, L).cost
        assert got == height_restricted_dp(inst, L).cost


def test_oracles_handle_empty_instance():
    inst = ProblemInstance(beta=(), alpha=(Fraction(1, 2),))
    sols = [knuth_unrestricted(inst)]
    for max_height in (0, 1, 3):
        sols += [brute_force_optimum(inst, max_height), height_restricted_dp(inst, max_height)]
    for sol in sols:
        assert sol.cost == 0
        assert sol.tree == External(gap=0, level=0)
        assert sol.decisions.levels == ()
        assert build_tree_from_decisions(sol.decisions, 0) == sol.tree
