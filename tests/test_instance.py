import hashlib
import itertools
import json
import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
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
    solve,
    tree_height,
    tree_to_dot,
    weighted_path_length,
)
from nearheight.instance import (
    count_keys,
    height_bound,
    inorder,
    key_levels,
    tree_to_obj,
)
from nearheight.solver import Solution, solution_from_obj


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


@pytest.mark.parametrize(
    "text",
    ["3/0", "-1", "1/2/3", "1.5", "", "a", " 1", "1/-2", "3\n", "\u0663/4", "\uff11/2", 3, None],
)
def test_parse_weight_rejects(text):
    with pytest.raises(InstanceError):
        parse_weight(text)


@pytest.mark.parametrize("text", ["3\n", "\u0663/4", "\uff11/2"])
def test_loads_rejects_non_ascii_digits_and_newlines(text):
    """A trailing newline or a digit outside 0-9 in a weight is refused by
    the instance reader too."""
    obj = {"beta": [text], "alpha": ["1", "1"]}
    with pytest.raises(InstanceError, match="bad rational literal"):
        ProblemInstance.loads(json.dumps(obj))


def test_format_weight_lowest_terms():
    assert format_weight(Fraction(25, 16)) == "25/16"
    assert format_weight(Fraction(4, 2)) == "2"
    assert format_weight(Fraction(0)) == "0"


def test_validate_good_shape(golden_instance):
    """The golden instance's fields make the same instance again:
    construction finds no problem in them."""
    again = ProblemInstance(beta=golden_instance.beta, alpha=golden_instance.alpha)
    assert again == golden_instance


def refusal(**fields) -> str:
    """The message of the InstanceError that construction raises on fields."""
    with pytest.raises(InstanceError) as info:
        ProblemInstance(**fields)
    return str(info.value)


def test_validate_alpha_length():
    problem = refusal(beta=(Fraction(1), Fraction(1)), alpha=(Fraction(0), Fraction(0)))
    assert problem == "alpha length must be n+1 = 3, got 2"


def test_validate_key_order():
    problem = refusal(beta=(Fraction(1), Fraction(1)), alpha=(0, 0, 0), keys=("b", "a"))
    assert problem == "keys not strictly increasing at position 1: 'b' !< 'a'"


@pytest.mark.parametrize("keys", [(1, 2), (1, "a"), ("a", None)])
def test_validate_refuses_non_string_keys(keys):
    """Keys must be strings however the instance is made: construction and
    the JSON reader refuse the instance."""
    problem = refusal(beta=(Fraction(1), Fraction(2)), alpha=(0, 0, 0), keys=keys)
    assert problem == "keys must be strings"
    obj = {"beta": ["1", "2"], "alpha": ["0", "0", "0"], "keys": list(keys)}
    with pytest.raises(InstanceError, match="keys must be strings"):
        ProblemInstance.from_obj(obj)


@pytest.mark.parametrize("delta", [1.0, True, False, "1", None])
def test_height_bound_refuses_non_integer_delta(golden_instance, delta):
    with pytest.raises(ValueError, match="delta must be an integer"):
        height_bound(4, delta)
    with pytest.raises(ValueError, match="delta must be an integer"):
        solve(golden_instance, delta)


@pytest.mark.parametrize(
    "weight", ["1/0", "abc", float("nan"), float("inf"), None, [1], True, False]
)
def test_instance_refuses_unconvertible_weights(weight):
    """A weight that is not a rational raises InstanceError, as a key
    weight and as a gap weight, not ZeroDivisionError, ValueError,
    OverflowError or TypeError. A bool is refused too, not read as 1 or 0."""
    with pytest.raises(InstanceError, match="beta must hold rational weights"):
        ProblemInstance(beta=(weight,), alpha=(0, 0))
    with pytest.raises(InstanceError, match="alpha must hold rational weights"):
        ProblemInstance(beta=(1,), alpha=(0, weight))


def test_instance_builds_without_fraction_slots(monkeypatch):
    """On a Python whose Fraction keeps its parts elsewhere than the slots
    _numerator and _denominator, every weight goes through the slow path
    and the instance is the same, refusals included."""
    from nearheight import instance

    weights = (Fraction(3, 16), Fraction(np.int64(5)), 2, np.int64(7), "x")
    fast = ProblemInstance(beta=weights[:4], alpha=(0,) * 5)
    monkeypatch.setattr(instance, "_SLOTTED", None)
    slow = ProblemInstance(beta=weights[:4], alpha=(0,) * 5)
    assert slow == fast and slow.integer_weights() == fast.integer_weights()
    assert all(type(w.numerator) is int is type(w.denominator) for w in slow.beta)
    with pytest.raises(InstanceError, match="beta must hold rational weights"):
        ProblemInstance(beta=weights, alpha=(0,) * 6)


def test_validate_negative_weight():
    assert refusal(beta=(Fraction(-1, 2),), alpha=(0, 0)) == "beta[0] = -1/2 is negative"


@pytest.mark.parametrize(
    "beta, alpha, keys, problem",
    [
        ((1,), (0, Fraction(-1, 3)), None, "alpha[1] = -1/3 is negative"),
        ((1, 2), (0, 0, 0), ("a",), "keys length must be n = 2, got 1"),
        ((1,), (0, 0), ("a", "b"), "keys length must be n = 1, got 2"),
    ],
)
def test_validate_names_the_problem(beta, alpha, keys, problem):
    assert refusal(beta=beta, alpha=alpha, keys=keys) == problem


def test_construction_joins_every_problem():
    """Construction raises every problem require_valid() finds, in its
    order, joined by '; '."""
    problem = refusal(beta=(-1, 2), alpha=(0, Fraction(-1, 3)), keys=("b", "a"))
    assert problem == (
        "alpha length must be n+1 = 3, got 2; beta[0] = -1 is negative; "
        "alpha[1] = -1/3 is negative; keys not strictly increasing at position 1: 'b' !< 'a'"
    )


@given(st.data())
def test_construction_refuses_exactly_the_invalid_fields(data):
    """Over random weights (negatives included), gap counts and keys
    (unsorted, repeated, of the wrong count or not strings), construction
    raises InstanceError exactly when the fields are invalid, and any
    instance it returns is made again from its own fields."""
    weight = st.integers(-1, 3) | st.fractions(-1, 2, max_denominator=4).map(abs)
    beta = data.draw(st.lists(weight, max_size=4))
    n = len(beta)
    gaps = max(n + 1 + data.draw(st.sampled_from((0, 0, 0, -1, 1))), 0)
    alpha = data.draw(st.lists(weight, min_size=gaps, max_size=gaps))
    label = st.text(alphabet="abc", max_size=2)
    keys = data.draw(
        st.none()
        | st.lists(label, unique=True, min_size=n, max_size=n).map(sorted)
        | st.lists(label | st.integers(0, 3), min_size=max(n - 1, 0), max_size=n + 1)
    )
    valid = (
        len(alpha) == n + 1
        and all(w >= 0 for w in beta + alpha)
        and (
            keys is None
            or len(keys) == n
            and all(isinstance(k, str) for k in keys)
            and all(a < b for a, b in zip(keys, keys[1:]))
        )
    )
    try:
        inst = ProblemInstance(beta=tuple(beta), alpha=tuple(alpha), keys=keys)
    except InstanceError:
        assert not valid
    else:
        assert valid and ProblemInstance(beta=inst.beta, alpha=inst.alpha, keys=inst.keys) == inst


@pytest.mark.parametrize(
    "keys", ["ab", b"ab", "", bytearray(b"ab"), {"a": 1, "b": 2}, {"a", "b"}, frozenset("ab")]
)
def test_instance_refuses_one_string_as_keys(keys):
    """A str or bytes is one label, not a sequence of them: split into its
    characters, "ab" would pass require_valid() as the keys ('a', 'b'). Nor are
    a bytearray, a dict (read as its keys) or a set (in hash order) a
    sequence of keys."""
    what = "string" if isinstance(keys, (str, bytes)) else type(keys).__name__
    with pytest.raises(InstanceError, match=f"strings, not one {what}$"):
        ProblemInstance(beta=(1, 1), alpha=(0, 0, 0), keys=keys)


@pytest.mark.parametrize(
    "beta, alpha, name, what",
    [("12", "000", "beta", "string"), (b"\x01\x02", (0, 0, 0), "beta", "string"),
     ((1, 2), "000", "alpha", "string"), ((1, 2), b"\x00\x00\x00", "alpha", "string"),
     ("", "0", "beta", "string"), (bytearray(b"\x01\x02"), (0, 0, 0), "beta", "bytearray"),
     ((1, 2), memoryview(b"\x00\x00\x00"), "alpha", "memoryview"),
     ({1: 0, 2: 0}, (0, 0, 0), "beta", "dict"), ((1, 2), {0, 1, 2}, "alpha", "set"),
     ((1, 2), frozenset((0, 1, 2)), "alpha", "frozenset")],
    ids=["str-beta", "bytes-beta", "str-alpha", "bytes-alpha", "empty-beta", "bytearray-beta",
         "memoryview-alpha", "dict-beta", "set-alpha", "frozenset-alpha"],
)
def test_instance_refuses_one_string_as_weights(beta, alpha, name, what):
    """A str or bytes is not a sequence of weights: split into its
    characters or bytes, "12" would solve as the key weights (1, 2). A
    bytearray or memoryview would read as small ints (bytearray(b"\x01\x02")
    solved to cost 4), a dict as its keys and a set in hash order."""
    problem = refusal(beta=beta, alpha=alpha)
    assert problem == f"{name} must be a sequence of weights, not one {what}"


def test_instance_reads_ordered_iterables():
    """Lists, tuples, generators and NumPy arrays of weights and keys are
    read in their order, to the same instance."""
    want = ProblemInstance(beta=(1, 2), alpha=(0, 3, 0), keys=("a", "b"))
    for make in (list, tuple, iter, np.array):
        got = ProblemInstance(
            beta=make([1, 2]), alpha=make([0, 3, 0]), keys=make(["a", "b"])
        )
        assert (got.beta, got.alpha, list(got.keys)) == (want.beta, want.alpha, ["a", "b"])


@pytest.mark.parametrize("c", [0, -1, Fraction(-1, 2)])
def test_scaled_refuses_nonpositive_factor(golden_instance, c):
    with pytest.raises(ValueError, match="scale factor must be positive"):
        golden_instance.scaled(c)


class _FractionSubclass(Fraction):
    """A weight type that is a Fraction but not Fraction itself."""


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
        # each denominator shared by keys and gaps, and by several of each
        ProblemInstance(
            beta=(Fraction(1, 6), Fraction(5, 6), Fraction(3, 4), Fraction(1, 6)),
            alpha=(Fraction(7, 6), Fraction(1, 4), Fraction(1, 4), Fraction(2), Fraction(5, 6)),
        ),
        # over 32 * 32 distinct denominators: three levels of the lcm tree
        ProblemInstance(
            beta=tuple(Fraction(1, q) for q in range(1, 1101)),
            alpha=tuple(Fraction(q % 7, q + 1100) for q in range(1101)),
        ),
        # weights given as int, float, Decimal, "p/q" string and a subclass
        ProblemInstance(
            beta=(3, 0.375, Decimal("2.25"), "5/12", _FractionSubclass(7, 9)),
            alpha=(Decimal("0.1"), "1/3", 2, 0.5, _FractionSubclass(1, 2**65 + 3), "0"),
        ),
        # denominators above 2^64, one shared by a key and a gap
        ProblemInstance(
            beta=(Fraction(1, 2**64 + 13), Fraction(2**70, 2**80 - 1), Fraction(5, 3 * 2**66)),
            alpha=(Fraction(7, 2**80 - 1), Fraction(0), Fraction(1, 2**127 - 1), Fraction(9)),
        ),
    ],
    ids=[
        "uniform", "zipf", "zero-alpha", "mixed", "all-zero", "repeated", "many-denominators",
        "converted", "wide-denominators",
    ],
)
def test_integer_weights_scale_exactly(inst):
    """The scaling reads each weight's parts from Fraction's slots; they
    equal the parts that as_integer_ratio gives."""
    d, alpha, beta = inst.integer_weights()
    assert d == math.lcm(*(w.denominator for w in inst.beta + inst.alpha))
    assert len(alpha) == inst.n + 1 and len(beta) == inst.n
    for x, w in zip(alpha + beta, inst.alpha + inst.beta):
        assert type(x) is int
        assert Fraction(x, d) == w
    parts = [w.as_integer_ratio() for w in inst.alpha + inst.beta]
    assert d == inst.common_denominator() == math.lcm(*(q for _, q in parts))
    assert alpha + beta == [p * (d // q) for p, q in parts]


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


@pytest.mark.parametrize("keys", [(0, 2), (2, 2)])
def test_wpl_rejects_mislabelled_keys(keys):
    # k1 at root, k2 its right child: 1 * 1 + 5 * 2 = 11. Relabelled, the
    # key counts still match, and key 0 would read beta[-1].
    inst = ProblemInstance(beta=(Fraction(1), Fraction(5)), alpha=(0, 0, 0))

    def tree(k1, k2):
        right = Internal(key=k2, level=1, left=External(1, 2), right=External(2, 2))
        return Internal(key=k1, level=0, left=External(0, 1), right=right)

    assert weighted_path_length(tree(1, 2), inst) == 11
    with pytest.raises(InstanceError, match="first difference at in-order node 1"):
        weighted_path_length(tree(*keys), inst)


def test_wpl_names_the_first_difference():
    """Trees that leave the order gap 0, key 1, gap 1, key 2, gap 2 (in-order
    nodes 0..4) are refused with InstanceError naming the first node that
    differs: a missing last gap (node 4), an extra key on the right spine
    (node 5, key 3 of 2) and a gap in place of key 2 (node 3)."""
    inst = ProblemInstance(beta=(Fraction(1), Fraction(5)), alpha=(0, 0, 0))

    def tree(last):
        return Internal(1, 0, External(0, 1), Internal(2, 1, External(1, 2), last))

    assert weighted_path_length(tree(External(2, 2)), inst) == 11
    extra = Internal(3, 2, External(2, 3), External(3, 3))
    gap_for_key = Internal(1, 0, External(0, 1), External(1, 1))
    for root, node in ((tree(None), 4), (tree(extra), 5), (gap_for_key, 3)):
        with pytest.raises(InstanceError, match=rf"first difference at in-order node {node}\)"):
            weighted_path_length(root, inst)


def test_wpl_takes_deep_trees():
    """A left spine of 5000 keys, far deeper than Python's recursion limit:
    key i sits at level n-i, gap 0 at level n and gap j >= 1 at n-j+1."""
    n = 5000
    root = External(0, n)
    for i in range(1, n + 1):
        root = Internal(i, n - i, root, External(i, n - i + 1))
    beta = tuple(Fraction(i, 7) for i in range(1, n + 1))
    alpha = tuple(Fraction(j + 1, 3) for j in range(n + 1))
    inst = ProblemInstance(beta=beta, alpha=alpha)
    # key i weighs (n-i) + 1 and gap i, its right child, n-i+1
    want = alpha[0] * n + sum((b + a) * k for b, a, k in zip(beta, alpha[1:], range(n, 0, -1)))
    assert weighted_path_length(root, inst) == want


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


@pytest.mark.parametrize("h_max", [63, 100, 10**12])
def test_build_tree_errors_at_any_width(h_max):
    """Formatting the error message must not raise its own error on a width
    no table could hold, nor take time or memory in h_max: the message shows
    n+1 bits of the state, and a level above n, which would make a state of
    that many bits, is refused at its stage."""
    with pytest.raises(InfeasibleDecisionError) as exc:
        build_tree_from_decisions(DecisionSequence(levels=(0, 0), h_max=h_max), 2)
    assert exc.value.stage == 2
    with pytest.raises(InfeasibleDecisionError) as exc:
        build_tree_from_decisions(DecisionSequence(levels=(0, 2), h_max=h_max), 2)
    assert exc.value.stage == 3
    assert "final state 101 " in str(exc.value)
    with pytest.raises(InfeasibleDecisionError, match="stage 2 \\(state 100\\)") as exc:
        build_tree_from_decisions(DecisionSequence(levels=(0, h_max - 1), h_max=h_max), 2)
    assert exc.value.stage == 2


@pytest.mark.parametrize("levels, n", [((0,), 2), ((1, 0), 1), ((), 1)])
def test_build_tree_needs_one_decision_per_key(levels, n):
    with pytest.raises(InfeasibleDecisionError, match=f"need {n} decisions, got {len(levels)}"):
        build_tree_from_decisions(DecisionSequence(levels=levels, h_max=2), n)


@pytest.mark.parametrize(
    "levels, stage",
    [
        ((-1,), 1),
        ((0, 2), 2),
        ((1, 0, 5), 3),
        ((1.0, 0), 1),
        ((0, 0.5), 2),
        ((True,), 1),
        ((0, np.bool_(False)), 2),
        ((Fraction(1),), 1),
        (("0",), 1),
    ],
)
def test_decision_sequence_refuses_bad_levels(levels, stage):
    """A level outside 0..h_max-1, a bool, or a level that is not a Python
    or NumPy integer is refused at its stage; the float 1.0 would otherwise
    reach build_tree_from_decisions and fail there with a bare TypeError."""
    with pytest.raises(InfeasibleDecisionError, match=f"at stage {stage} is not an integer") as e:
        DecisionSequence(levels=levels, h_max=2)
    assert e.value.stage == stage


def test_decision_sequence_takes_numpy_integers():
    """NumPy integer levels are stored as ints, so a solution made of them
    serialises: json.dumps refuses np.int64."""
    ds = DecisionSequence(levels=(np.int64(1), np.int8(0), np.uint8(1)), h_max=2)
    assert key_levels(build_tree_from_decisions(ds, 3)) == (1, 0, 1)
    ds = DecisionSequence(levels=np.array([1, 0, 1]), h_max=2)
    assert ds.levels == (1, 0, 1) and {type(a) for a in ds.levels} == {int}
    sol = Solution(cost=Fraction(0), decisions=ds, tree=build_tree_from_decisions(ds, 3))
    assert json.loads(json.dumps(sol.to_obj()))["decisions"] == [1, 0, 1]


def test_count_keys():
    assert count_keys(golden_tree()) == 4
    assert count_keys(External(gap=0, level=0)) == 0


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


@pytest.mark.parametrize(
    "n, dist, message",
    [
        (-1, "uniform", "nonnegative"),
        (3, "normal", "unknown distribution"),
        (True, "uniform", "n must be an integer"),
        (3.0, "uniform", "n must be an integer"),
    ],
)
def test_generator_refuses_bad_arguments(n, dist, message):
    with pytest.raises(ValueError, match=message):
        generate_random_instance(n, 1, dist=dist)


# sha256 of dumps() per (dist, zero_alpha, n, seed), pinned so that a change
# to how the generator draws or builds its weights shows as a changed digest
GENERATOR_DIGESTS = {
    ("uniform", False, 0, 1): "983dc1791327c723c5da811ce785de08675aa2b68057181556adc8a7cceed30e",
    ("uniform", False, 0, 2): "3fc0e61bff4b3e76a5da97e5316309c2aa2a76c32ba77472eb14246159ed08de",
    ("uniform", False, 1, 1): "1235a9666840e56213ad837e75f31043de965160374e09b2c599a02f62b11277",
    ("uniform", False, 1, 2): "b8ee5a3316d13135f6016ae3e2d99994b61781baea10923e4d334dbc4615bce1",
    ("uniform", False, 12, 1): "b8b8aa752fb9811f29600b7ed1e56f8b362ec3144df98da8a113d31248ef95b7",
    ("uniform", False, 12, 2): "3aecbb44e2cd5c23a99b783b51b1b991620fcce739dfde40a26159b44037be93",
    ("uniform", False, 2000, 1): "b91121831de1e4e032c2cbefd5a63e5aea1cdac97cb88b69b65d5767b5f23c59",
    ("uniform", False, 2000, 2): "75ae4483b394d3aabf38d4f3d8295afab7be510a803301a256fb1ef730937eb7",
    ("zipf", False, 1, 1): "df2e08c682f1ccc622598599ccdcf1cd510b8644471805a8a9d5de6a75443c78",
    ("zipf", False, 1, 2): "df2e08c682f1ccc622598599ccdcf1cd510b8644471805a8a9d5de6a75443c78",
    ("zipf", False, 50, 1): "90b67bc247efeceda1bc1feb3661eec659793d718b3d6f5aa5f24e1aa2bdb5b1",
    ("zipf", False, 50, 2): "15003ef1d22a1a387c768646455b5175e728bcf4d5029acb35dfe1524f1295db",
    ("zipf", False, 256, 1): "c0d6290435c7280e04cb6dab3b9ab6c844b42d2a0c09dd308a6e279367c682be",
    ("zipf", False, 256, 2): "3b1e69eabb0b037381f4f4cad2d252b43f0ac4b5fb0827e75b46352bfe2dddce",
    ("uniform", True, 12, 1): "62f8046e26b2820a29c36467f76bfc0d28f352203b2215c32d13bfd59f5e5401",
    ("uniform", True, 12, 2): "94a20692e117c9bebc44453dad90faf5f66808a21cef01b3b4a565ff4fd605bf",
    ("uniform", True, 1200, 1): "bd4d1c7c35e26c7151e09554e54b791cbfb8cddbd4a2aed69a775084aa3918e7",
    ("uniform", True, 1200, 2): "97b6bb9b351967646db28c1a680402fe29f418c50906b44800bf61ac7f61f783",
}


@pytest.mark.parametrize("dist, zero_alpha, n, seed", sorted(GENERATOR_DIGESTS))
def test_generator_bytes_are_pinned(dist, zero_alpha, n, seed):
    text = generate_random_instance(n, seed, dist=dist, zero_alpha=zero_alpha).dumps()
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == GENERATOR_DIGESTS[dist, zero_alpha, n, seed]


@pytest.mark.parametrize(
    "dist, zero_alpha", [("uniform", False), ("zipf", False), ("uniform", True)]
)
def test_generated_instances_round_trip(dist, zero_alpha):
    inst = generate_random_instance(30, 4, dist=dist, zero_alpha=zero_alpha)
    assert ProblemInstance.loads(inst.dumps()) == inst


def test_instance_keeps_fraction_weights():
    w, z = Fraction(3, 4), Fraction(0)
    inst = ProblemInstance(beta=(w,), alpha=(z, w))
    assert inst.beta[0] is w
    assert inst.alpha[0] is z and inst.alpha[1] is w


class _Ratio(Fraction):
    pass


@pytest.mark.parametrize(
    "weight", [3, "3/4", 0.75, Decimal("0.75"), _Ratio(3, 4)], ids=lambda w: type(w).__name__
)
def test_instance_converts_other_weights(weight):
    inst = ProblemInstance(beta=(weight,), alpha=(weight, 0))
    for w in (inst.beta[0], inst.alpha[0]):
        assert type(w) is Fraction
        assert w == Fraction(weight)


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


@pytest.mark.parametrize(
    "text, message", [("{", "invalid JSON"), ("[]", "JSON object"), ('"1"', "JSON object")]
)
def test_loads_refuses_what_is_not_a_json_object(text, message):
    with pytest.raises(InstanceError, match=message):
        ProblemInstance.loads(text)


def test_instance_json_round_trip_keeps_keys():
    inst = ProblemInstance(beta=(1, 2), alpha=(0, 1, 0), keys=("a", "b"))
    assert json.loads(inst.dumps())["keys"] == ["a", "b"]
    assert ProblemInstance.loads(inst.dumps()) == inst


def test_instance_json_requires_arrays():
    with pytest.raises(InstanceError):
        ProblemInstance.loads('{"beta": ["1"]}')


def test_instance_json_keys():
    text = json.dumps({"beta": ["1", "1"], "alpha": ["0", "0", "0"], "keys": ["a", "b"]})
    inst = ProblemInstance.loads(text)
    assert inst.keys == ("a", "b")


def _solution_obj(tree_obj, levels, h_max):
    """A solution object around a JSON tree, with the height and h_min of the
    tree rebuilt from levels; the reader checks 'wpl' for its form only."""
    levels = list(levels)
    tree = build_tree_from_decisions(DecisionSequence(levels=levels, h_max=h_max), len(levels))
    return {
        "wpl": "0", "height": tree_height(tree), "h_min": h_min(len(levels)),
        "h_max": h_max, "decisions": levels, "tree": tree_obj,
    }


def test_tree_json_round_trip():
    root = golden_tree()
    obj = json.loads(json.dumps(tree_to_obj(root)))
    again = solution_from_obj(_solution_obj(obj, key_levels(root), 3)).tree
    assert tree_to_obj(again) == obj


@pytest.mark.parametrize(
    "obj, message",
    [
        ([], "must be a JSON object"),
        ({"level": 0}, "key 1 at level 0 must be a JSON object with exactly"),
        ({"key": 1, "level": 0, "left": 0, "right": {"gap": 1, "level": 1}}, "JSON object"),
        ({"key": 1, "level": 0, "left": {"gap": 0, "level": 1}, "right": {"level": 1}}, "'gap'"),
    ],
)
def test_tree_reader_refuses_malformed_nodes(obj, message):
    """Each node, wrapped in the solution of one key at level 0."""
    with pytest.raises(InstanceError, match=message):
        solution_from_obj(_solution_obj(obj, [0], 1))


def test_tree_reader_takes_deep_trees():
    """A right spine of 3000 keys, far deeper than Python's recursion limit,
    is read whole, written back with to_obj() and read again; a wrong level
    at its deepest node is refused with InstanceError. The round trip is
    checked by the reader, not with ==, which recurses once per level."""
    n = 3000
    obj = {"gap": n, "level": n}
    for key in range(n, 0, -1):
        left = {"gap": key - 1, "level": key}
        obj = {"key": key, "level": key - 1, "left": left, "right": obj}
    sol = solution_from_obj(_solution_obj(obj, range(n), n))
    assert key_levels(sol.tree) == tuple(range(n)) and tree_height(sol.tree) == n
    again = solution_from_obj(sol.to_obj())
    assert again.decisions == sol.decisions and key_levels(again.tree) == tuple(range(n))
    node = obj
    while "key" in node:
        node = node["right"]
    node["level"] = 0
    with pytest.raises(InstanceError, match=f"gap {n} at level {n} has 'level' 0, not {n}$"):
        solution_from_obj(_solution_obj(obj, range(n), n))


def test_dot_export_takes_deep_trees():
    """A right spine of 3000 keys, far deeper than Python's recursion limit,
    renders whole: every node, and one edge into each node but the root."""
    n = 3000
    tree = build_tree_from_decisions(DecisionSequence(levels=tuple(range(n)), h_max=n), n)
    out = tree_to_dot(tree)
    assert out.count("shape=circle") == n and out.count("shape=box") == n + 1
    assert out.count(" -> ") == 2 * n
    assert f"  k{n} -> g{n};" in out and " -> k1;" not in out


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
