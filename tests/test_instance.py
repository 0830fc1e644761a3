import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nearheight import (
    DecisionSequence,
    External,
    InfeasibleDecisionError,
    InstanceError,
    Internal,
    ProblemInstance,
    build_tree_from_decisions,
    format_weight,
    generate_random_instance,
    h_min,
    parse_weight,
    tree_height,
    tree_to_dot,
    weighted_path_length,
)
from nearheight.instance import inorder, key_levels, tree_from_obj, tree_to_obj


def test_h_min_examples():
    assert h_min(4) == 3
    assert h_min(0) == 0
    assert h_min(7) == 3


@given(st.integers(min_value=0, max_value=10**12))
def test_h_min_is_ceil_log2(n):
    h = h_min(n)
    assert 2**h >= n + 1
    assert h == 0 or 2 ** (h - 1) < n + 1


def test_h_min_rejects_negative():
    with pytest.raises(ValueError):
        h_min(-1)


@pytest.mark.parametrize(
    "text,value",
    [("3/16", Fraction(3, 16)), ("0", Fraction(0)), ("2", Fraction(2)), ("4/8", Fraction(1, 2))],
)
def test_parse_weight(text, value):
    assert parse_weight(text) == value


@pytest.mark.parametrize("text", ["3/0", "-1", "1/2/3", "1.5", "", "a", " 1", "1/-2"])
def test_parse_weight_rejects(text):
    with pytest.raises(InstanceError):
        parse_weight(text)


def test_format_weight_lowest_terms():
    assert format_weight(Fraction(25, 16)) == "25/16"
    assert format_weight(Fraction(4, 2)) == "2"
    assert format_weight(Fraction(0)) == "0"


def test_validate_good_shape(golden_instance):
    assert golden_instance.validate() == []


def test_validate_alpha_length():
    inst = ProblemInstance(beta=(Fraction(1), Fraction(1)), alpha=(Fraction(0), Fraction(0)))
    problems = inst.validate()
    assert len(problems) == 1 and "n+1" in problems[0]


def test_validate_key_order():
    inst = ProblemInstance(beta=(Fraction(1), Fraction(1)), alpha=(0, 0, 0), keys=("b", "a"))
    assert any("strictly increasing" in p for p in inst.validate())


def test_validate_negative_weight():
    inst = ProblemInstance(beta=(Fraction(-1, 2),), alpha=(0, 0))
    assert any("negative" in p for p in inst.validate())


@pytest.mark.parametrize(
    "inst",
    [
        generate_random_instance(30, 5),
        generate_random_instance(30, 5, dist="zipf"),
        generate_random_instance(12, 8, zero_alpha=True),
        ProblemInstance(
            beta=(Fraction(3, 16), Fraction(2, 7), Fraction(5), Fraction(1, 2**70 + 1)),
            alpha=(Fraction(0), Fraction(1, 6), Fraction(9, 10), Fraction(4, 15), Fraction(7, 12)),
        ),
        ProblemInstance(beta=(Fraction(0),), alpha=(Fraction(0), Fraction(0))),
    ],
    ids=["uniform", "zipf", "zero-alpha", "mixed", "all-zero"],
)
def test_integer_weights_scale_exactly(inst):
    d, alpha, beta = inst.integer_weights()
    assert d == math.lcm(*(w.denominator for w in inst.beta + inst.alpha))
    assert len(alpha) == inst.n + 1 and len(beta) == inst.n
    for x, w in zip(alpha + beta, inst.alpha + inst.beta):
        assert type(x) is int
        assert Fraction(x, d) == w


def golden_tree():
    return build_tree_from_decisions(DecisionSequence(levels=(1, 2, 0, 1), h_max=3), 4)


def test_wpl_golden(golden_instance):
    # key levels permuted per key index: b = (1, 2, 0, 1)
    assert weighted_path_length(golden_tree(), golden_instance) == Fraction(25, 16)


def test_wpl_single_key():
    tree = build_tree_from_decisions(DecisionSequence(levels=(0,), h_max=1), 1)
    inst = ProblemInstance(beta=(Fraction(1),), alpha=(0, 0))
    assert weighted_path_length(tree, inst) == 1


def test_wpl_two_keys_matches_hand_count():
    # k1 at root, k2 its right child; gaps at levels 1, 2, 2
    inst = ProblemInstance(
        beta=(Fraction(1, 4), Fraction(1, 4)),
        alpha=(Fraction(1, 6), Fraction(1, 6), Fraction(1, 6)),
    )
    tree = build_tree_from_decisions(DecisionSequence(levels=(0, 1), h_max=2), 2)
    expected = Fraction(1, 4) * 1 + Fraction(1, 4) * 2 + Fraction(1, 6) * (1 + 2 + 2)
    assert weighted_path_length(tree, inst) == expected


def test_wpl_arity_mismatch(golden_instance):
    with pytest.raises(InstanceError):
        weighted_path_length(External(gap=0, level=0), golden_instance)


def test_tree_height():
    assert tree_height(golden_tree()) == 3
    single = build_tree_from_decisions(DecisionSequence(levels=(0,), h_max=1), 1)
    assert tree_height(single) == 1
    assert tree_height(External(gap=0, level=0)) == 0


def test_build_tree_golden_structure():
    root = golden_tree()
    assert isinstance(root, Internal) and root.key == 3 and root.level == 0
    assert root.left.key == 1 and root.left.right.key == 2
    assert root.right.key == 4 and root.right.level == 1


def test_build_tree_single():
    root = build_tree_from_decisions(DecisionSequence(levels=(0,), h_max=1), 1)
    assert isinstance(root, Internal) and root.key == 1
    assert isinstance(root.left, External) and isinstance(root.right, External)


def test_build_tree_rejects_occupied_level():
    with pytest.raises(InfeasibleDecisionError) as exc:
        build_tree_from_decisions(DecisionSequence(levels=(0, 0), h_max=2), 2)
    assert exc.value.stage == 2


def test_build_tree_rejects_invalid_terminal():
    # final state (1,0,1): level 1 unoccupied below level 2
    with pytest.raises(InfeasibleDecisionError):
        build_tree_from_decisions(DecisionSequence(levels=(0, 2), h_max=3), 2)


@pytest.mark.parametrize("h_max", [63, 100])
def test_build_tree_errors_at_any_width(h_max):
    """Formatting the error message must not raise its own error on a width
    no table could hold."""
    with pytest.raises(InfeasibleDecisionError) as exc:
        build_tree_from_decisions(DecisionSequence(levels=(0, 0), h_max=h_max), 2)
    assert exc.value.stage == 2
    with pytest.raises(InfeasibleDecisionError) as exc:
        build_tree_from_decisions(DecisionSequence(levels=(0, 2), h_max=h_max), 2)
    assert exc.value.stage == 3


def test_build_tree_in_order_sequence():
    kinds = [
        (type(nd).__name__, nd.key if isinstance(nd, Internal) else nd.gap)
        for nd in inorder(golden_tree())
    ]
    assert kinds == [
        ("External", 0), ("Internal", 1), ("External", 1), ("Internal", 2),
        ("External", 2), ("Internal", 3), ("External", 3), ("Internal", 4),
        ("External", 4),
    ]


@given(st.integers(min_value=1, max_value=40), st.randoms(use_true_random=False))
def test_build_tree_round_trip(n, rng):
    from conftest import random_bounded_shape
    from nearheight.oracles import shape_to_tree

    height = h_min(n) + rng.randint(0, 2)
    shape = random_bounded_shape(rng, 1, n, height)
    levels = key_levels(shape_to_tree(shape, n))
    root = build_tree_from_decisions(DecisionSequence(levels=levels, h_max=height), n)
    assert key_levels(root) == levels
    assert tree_height(root) <= height
    # depth equals stored level, children one below parent
    def check(nd, depth):
        assert nd.level == depth
        if isinstance(nd, Internal):
            check(nd.left, depth + 1)
            check(nd.right, depth + 1)
    check(root, 0)


@given(st.integers(min_value=2, max_value=40), st.randoms(use_true_random=False))
def test_gap_level_law(n, rng):
    from conftest import random_bounded_shape
    from nearheight.oracles import shape_to_tree

    shape = random_bounded_shape(rng, 1, n, h_min(n) + 1)
    nodes = list(inorder(shape_to_tree(shape, n)))
    for prev, gap, cur in zip(nodes[1::2], nodes[2::2], nodes[3::2]):
        assert gap.level == 1 + max(prev.level, cur.level)


@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**31),
    st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(1000)),
)
def test_wpl_scales_linearly(n, seed, c):
    inst = generate_random_instance(n, seed)
    from nearheight.solver import solve

    tree = solve(inst, 1).tree
    assert weighted_path_length(tree, inst.scaled(c)) == c * weighted_path_length(tree, inst)


def test_generator_deterministic():
    a = generate_random_instance(3, seed=1)
    b = generate_random_instance(3, seed=1)
    assert a == b
    assert a != generate_random_instance(3, seed=2)


def test_generator_zipf_numerators():
    inst = generate_random_instance(5, seed=7, dist="zipf")
    assert sorted(inst.beta) == sorted(Fraction(1, r) for r in range(1, 6))
    assert sorted(inst.alpha) == sorted(Fraction(1, r) for r in range(1, 7))


def test_generator_zero_alpha():
    inst = generate_random_instance(4, seed=3, zero_alpha=True)
    assert all(a == 0 for a in inst.alpha)
    assert all(b > 0 for b in inst.beta)


def test_generator_uniform_range():
    inst = generate_random_instance(50, seed=9)
    for w in inst.beta + inst.alpha:
        assert Fraction(1, 1000) <= w <= 1
        assert 1000 % w.denominator == 0


def test_instance_json_round_trip(golden_instance):
    text = golden_instance.dumps()
    assert ProblemInstance.loads(text) == golden_instance


def test_instance_json_rejects_unknown_field(golden_instance):
    obj = golden_instance.to_obj()
    obj["extra"] = 1
    with pytest.raises(InstanceError, match="unknown"):
        ProblemInstance.from_obj(obj)


def test_instance_json_requires_arrays():
    with pytest.raises(InstanceError):
        ProblemInstance.loads('{"beta": ["1"]}')


def test_instance_json_keys():
    text = json.dumps({"beta": ["1", "1"], "alpha": ["0", "0", "0"], "keys": ["a", "b"]})
    inst = ProblemInstance.loads(text)
    assert inst.keys == ("a", "b")


def test_tree_json_round_trip():
    root = golden_tree()
    obj = tree_to_obj(root)
    again = tree_from_obj(json.loads(json.dumps(obj)))
    assert tree_to_obj(again) == obj


def test_dot_export_stable_and_complete():
    first = tree_to_dot(golden_tree())
    second = tree_to_dot(golden_tree())
    assert first == second
    for ident in ["k1", "k2", "k3", "k4", "g0", "g4"]:
        assert ident in first
    assert "-> k3" not in first  # k3 is the root
    assert 'k3 [shape=circle, label="3"];' in first


def test_dot_export_uses_key_labels():
    inst_keys = ("a", "b", "c", "d")
    out = tree_to_dot(golden_tree(), inst_keys)
    assert 'label="c"' in out


GOLDEN_DOT = r"""digraph bst {
  g0 [shape=box, label="(0)"];
  k1 [shape=circle, label="%s"];
  g1 [shape=box, label="(1)"];
  k2 [shape=circle, label="%s"];
  g2 [shape=box, label="(2)"];
  k3 [shape=circle, label="%s"];
  g3 [shape=box, label="(3)"];
  k4 [shape=circle, label="%s"];
  g4 [shape=box, label="(4)"];
  k1 -> g0;
  k3 -> k1;
  k2 -> g1;
  k1 -> k2;
  k2 -> g2;
  k4 -> g3;
  k3 -> k4;
  k4 -> g4;
}
"""


@pytest.mark.parametrize(
    "keys,labels",
    [
        (None, ("1", "2", "3", "4")),
        (("a", 'b"c', "d\\", "e"), ("a", r'b\"c', r"d\\", "e")),
    ],
    ids=["plain", "escaped"],
)
def test_dot_export_golden_bytes(keys, labels):
    """Nodes in in-order, then each node's incoming edge in in-order."""
    assert tree_to_dot(golden_tree(), keys) == GOLDEN_DOT % labels


def test_dot_export_escapes_labels():
    out = tree_to_dot(golden_tree(), ("a", 'b"c', "d\\", "e"))
    assert 'k2 [shape=circle, label="b\\"c"];' in out
    assert 'k3 [shape=circle, label="d\\\\"];' in out


def test_empty_tree():
    for h_max in (0, 1):
        root = build_tree_from_decisions(DecisionSequence(levels=(), h_max=h_max), 0)
        assert root == External(gap=0, level=0)


def test_build_tree_exhaustive():
    """Every sequence in {0..h-1}^n for n <= 7 and h_min(n) <= h <= min(n, 4)
    builds a tree iff it is the key-level sequence of a tree of height <= h;
    every other sequence is refused at a stage in 1..n+1."""
    from nearheight.oracles import enumerate_trees, shape_height, shape_to_tree

    def check_depths(nd, depth):
        assert nd.level == depth
        if isinstance(nd, Internal):
            check_depths(nd.left, depth + 1)
            check_depths(nd.right, depth + 1)

    swept = accepted = 0
    for n in range(1, 8):
        shapes = [(shape_height(sh), shape_to_tree(sh, n)) for sh in enumerate_trees(n)]
        for h in range(h_min(n), min(n, 4) + 1):
            trees = {key_levels(t) for height, t in shapes if height <= h}
            for levels in itertools.product(range(h), repeat=n):
                swept += 1
                try:
                    root = build_tree_from_decisions(DecisionSequence(levels, h), n)
                except InfeasibleDecisionError as e:
                    assert levels not in trees
                    assert 1 <= e.stage <= n + 1
                    continue
                accepted += 1
                assert levels in trees
                check_depths(root, 0)
                assert key_levels(root) == levels
                assert tree_height(root) <= h
    assert (swept, accepted) == (25_040, 179)
