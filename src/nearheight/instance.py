"""Problem model: exact rational weights, instances, trees, weighted path length.

A ProblemInstance is checked once, when it is made, so every instance that
exists is valid; its weights are Fractions of Python ints. A tree is built
only from its decision sequence (the in-order key levels), by one replay of
the decision process of the states module, and rendered as JSON (the only
tree form solver.solution_from_obj reads), DOT or text, each walked from an
explicit stack. Also height_bound and generators.
"""

from __future__ import annotations

import functools
import json
import random
import re
from collections.abc import Mapping, Set
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from numbers import Integral
from typing import Iterator, Optional, Union

from . import states
from .states import h_min


class InstanceError(ValueError):
    """Malformed instance data or instance file."""


class InfeasibleDecisionError(ValueError):
    """A decision sequence violates the level-placement rules."""

    def __init__(self, message: str, stage: Optional[int] = None):
        super().__init__(message)
        self.stage = stage


def height_bound(n: int, delta: int) -> int:
    """The height bound h_min(n) + delta, clamped to n, the height of the
    tallest tree on n keys. A delta that is not an int (a bool included) or
    is negative raises ValueError."""
    if type(delta) is not int:
        raise ValueError(f"delta must be an integer, got {delta!r}")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    return min(h_min(n) + delta, n)


_WEIGHT_RE = re.compile(r"([0-9]+)(?:/([0-9]+))?")


def parse_weight(text: str) -> Fraction:
    """Parse a rational literal: INT or INT/POSINT, nonnegative, in ASCII
    digits and nothing else, not even a trailing newline."""
    if not isinstance(text, str):
        raise InstanceError(f"rational literal must be a string, got {type(text).__name__}")
    m = _WEIGHT_RE.fullmatch(text)
    if not m:
        raise InstanceError(f"bad rational literal {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise InstanceError(f"zero denominator in {text!r}")
    return Fraction(num, den)


def json_int(value, what: str) -> int:
    """value, refused with InstanceError unless it is an int and not a bool."""
    if type(value) is not int:
        raise InstanceError(f"{what} must be an integer, got {value!r}")
    return value


# Iterable, but not an ordered sequence of weights or keys: a str or bytes
# would be split into characters or bytes, a bytearray or memoryview read as
# small ints, a mapping as its keys and a set in hash order.
_NOT_A_SEQUENCE = (str, bytes, bytearray, memoryview, Mapping, Set)

# Fraction, whose parts ProblemInstance reads from CPython's slots (the properties
# doubled the time to make an instance, and as_integer_ratio and the denominator
# property took 6.2 µs of scaling at n = 10, the slots 3.9 µs), or None without
# them: all go through _weight, and the scaling reads the properties.
_SLOTTED = Fraction if {"_numerator", "_denominator"} <= set(dir(Fraction)) else None


def _weight(w) -> Fraction:
    """w as a Fraction of Python ints: NumPy parts would overflow."""
    if type(w) is bool:  # which Fraction would take as 0 or 1
        raise TypeError(f"{w!r} is a bool, not a weight")
    p, q = Fraction(w).as_integer_ratio()
    return Fraction(int(p), int(q))


def format_weight(w: Fraction) -> str:
    """Lowest-terms literal, e.g. '25/16' or '0'."""
    if w.denominator == 1:
        return str(w.numerator)
    return f"{w.numerator}/{w.denominator}"


@dataclass(frozen=True)
class ProblemInstance:
    """n keys with key weights beta[0..n-1] and gap weights alpha[0..n]."""

    beta: tuple
    alpha: tuple
    keys: Optional[tuple] = None

    def __post_init__(self):
        """Convert the weights to Fractions, keeping each exact Fraction as it
        is. Weights or keys given as one str or bytes, a bytearray,
        memoryview, mapping or set, a bool or unconvertible weight, or any
        problem that require_valid() finds raise InstanceError."""
        for name, items in (("beta", "weights"), ("alpha", "weights"), ("keys", "strings")):
            value = getattr(self, name)
            if isinstance(value, _NOT_A_SEQUENCE):
                what = "string" if isinstance(value, (str, bytes)) else type(value).__name__
                raise InstanceError(f"{name} must be a sequence of {items}, not one {what}")
        for name in ("beta", "alpha"):
            try:
                weights = tuple(
                    w if type(w) is _SLOTTED and type(w._numerator) is int is type(w._denominator)
                    else _weight(w)
                    for w in getattr(self, name)
                )
                object.__setattr__(self, name, weights)
            except (TypeError, ValueError, ZeroDivisionError, OverflowError) as e:
                raise InstanceError(f"{name} must hold rational weights: {e}") from e
        if self.keys is not None:
            object.__setattr__(self, "keys", tuple(self.keys))
        self.require_valid()

    @property
    def n(self) -> int:
        return len(self.beta)

    def require_valid(self):
        """Raise InstanceError listing every problem of the fields; construction calls it."""
        problems = []
        if len(self.alpha) != len(self.beta) + 1:
            problems.append(f"alpha length must be n+1 = {self.n + 1}, got {len(self.alpha)}")
        # the weights are Fractions, whose sign is the numerator's
        for name in ("beta", "alpha"):
            for i, w in enumerate(getattr(self, name)):
                if w.numerator < 0:
                    problems.append(f"{name}[{i}] = {w} is negative")
        if self.keys is not None:
            if len(self.keys) != len(self.beta):
                problems.append(f"keys length must be n = {self.n}, got {len(self.keys)}")
            elif not all(isinstance(k, str) for k in self.keys):
                problems.append("keys must be strings")
            else:
                for i in range(1, len(self.keys)):
                    if not self.keys[i - 1] < self.keys[i]:
                        problems.append(
                            f"keys not strictly increasing at position {i}: "
                            f"{self.keys[i - 1]!r} !< {self.keys[i]!r}"
                        )
        if problems:
            raise InstanceError("; ".join(problems))

    def scaled(self, c: Fraction) -> "ProblemInstance":
        """Instance with every weight multiplied by positive rational c."""
        c = Fraction(c)
        if c <= 0:
            raise ValueError("scale factor must be positive")
        return ProblemInstance(
            beta=tuple(b * c for b in self.beta),
            alpha=tuple(a * c for a in self.alpha),
            keys=self.keys,
        )

    def common_denominator(self) -> int:
        """The lcm of the distinct denominators, taken over a tree whose
        leaves are the lcm of up to 32 of them, so that each step joins
        numbers of about equal length."""
        level = list(
            {w._denominator if _SLOTTED else w.denominator for w in self.beta + self.alpha}
        )
        while len(level) > 32:
            level = [lcm(*level[i : i + 32]) for i in range(0, len(level), 32)]
        return lcm(*level)

    def integer_weights(self) -> tuple:
        """(d, alpha * d, beta * d): the common denominator d and the weights
        scaled by it, as lists of ints. Every exact cost is an int over d.
        Each distinct denominator q is divided into d once."""
        d = self.common_denominator()
        scale = {}  # q -> d // q, never 0 since q divides d
        scaled = [
            (w._numerator if _SLOTTED else w.numerator)
            * (
                scale.get(q := w._denominator if _SLOTTED else w.denominator)
                or scale.setdefault(q, d // q)
            )
            for w in self.alpha + self.beta
        ]
        return d, scaled[: len(self.alpha)], scaled[len(self.alpha) :]

    def to_obj(self) -> dict:
        obj = {
            "beta": [format_weight(b) for b in self.beta],
            "alpha": [format_weight(a) for a in self.alpha],
        }
        if self.keys is not None:
            obj["keys"] = list(self.keys)
        return obj

    @classmethod
    def from_obj(cls, obj) -> "ProblemInstance":
        if not isinstance(obj, dict):
            raise InstanceError("instance file must contain a JSON object")
        unknown = set(obj) - {"beta", "alpha", "keys"}
        if unknown:
            raise InstanceError(f"unknown fields: {sorted(unknown)}")
        if "beta" not in obj or "alpha" not in obj:
            raise InstanceError("instance requires 'beta' and 'alpha' arrays")
        if not (isinstance(obj["beta"], list) and isinstance(obj["alpha"], list)):
            raise InstanceError("'beta' and 'alpha' must be JSON arrays")
        beta = tuple(parse_weight(w) for w in obj["beta"])
        alpha = tuple(parse_weight(w) for w in obj["alpha"])
        keys = obj.get("keys")
        if keys is not None and not isinstance(keys, list):
            raise InstanceError("'keys' must be a JSON array")
        return cls(beta=beta, alpha=alpha, keys=keys)

    def dumps(self) -> str:
        return json.dumps(self.to_obj(), indent=2)

    @classmethod
    def loads(cls, text: str) -> "ProblemInstance":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise InstanceError(f"invalid JSON: {e}") from e
        return cls.from_obj(obj)


# ---------------------------------------------------------------------------
# Trees


@dataclass(slots=True)
class Internal:
    key: int  # 1..n
    level: int
    left: "Node"
    right: "Node"


@dataclass(slots=True)
class External:
    gap: int  # 0..n
    level: int


Node = Union[Internal, External]


def inorder(root: Node) -> Iterator[Node]:
    stack = []
    node = root
    while stack or node is not None:
        while isinstance(node, Internal):
            stack.append(node)
            node = node.left
        if node is not None:  # an External
            yield node
            node = None
        if stack:
            node = stack.pop()
            yield node
            node = node.right


def tree_height(root: Node) -> int:
    """Level of the deepest external node."""
    return max(nd.level for nd in inorder(root) if isinstance(nd, External))


def key_levels(root: Node) -> tuple:
    """Key levels in in-order, i.e. the decision sequence of the tree."""
    return tuple(nd.level for nd in inorder(root) if isinstance(nd, Internal))


def count_keys(root: Node) -> int:
    return sum(1 for nd in inorder(root) if isinstance(nd, Internal))


def weighted_path_length(root: Node, inst: ProblemInstance, *, weights=None) -> Fraction:
    """sum beta_i * (b_i + 1) + sum alpha_j * a_j, exact: summed over the
    integer weights of inst.integer_weights(), or over `weights` when a
    caller that already holds that triple passes it.

    The in-order walk, from an explicit stack, must read gap 0, key 1,
    gap 1, ..., key n, gap n; any other labelling raises InstanceError,
    which names the in-order position of the first difference."""
    d, alpha, beta = inst.integer_weights() if weights is None else weights
    n = inst.n
    total = i = 0  # in-order node i: gap i/2 when i is even, key (i+1)/2 when odd
    stack = []  # the keys whose left subtree is being read
    node = root
    while True:
        while type(node) is Internal:
            stack.append(node)
            node = node.left
        j = i >> 1
        if type(node) is not External or not node.gap == j <= n:
            break
        total += alpha[j] * node.level
        i += 1
        if not stack:
            if i == 2 * n + 1:
                return Fraction(total, d)
            break
        node = stack.pop()
        if not node.key == j + 1 <= n:
            break
        total += beta[j] * (node.level + 1)
        i += 1
        node = node.right
    raise InstanceError(
        f"tree does not read gap 0, key 1, ..., key {n}, gap {n} in order "
        f"(first difference at in-order node {i})"
    )


def tree_to_obj(root: Node) -> dict:
    """The JSON object form of a tree, built from an explicit stack: fields
    key, level, left, right or gap, level, in that order."""
    top = {}
    stack = [(root, top, "tree")]  # (node, the object that holds it, its field there)
    while stack:
        nd, holder, field = stack.pop()
        if type(nd) is Internal:
            holder[field] = obj = {"key": nd.key, "level": nd.level}
            stack += ((nd.right, obj, "right"), (nd.left, obj, "left"))
        else:
            holder[field] = {"gap": nd.gap, "level": nd.level}
    return top["tree"]


def tree_to_dot(root: Node, keys: Optional[tuple] = None) -> str:
    """Graphviz rendering; byte-stable for a fixed tree.

    Internal nodes are circles labeled with the key label (or index),
    externals are boxes labeled "(j)". Node ids are k<i> / g<j>; nodes, and
    the edge into each node, are emitted in in-order, walked from an explicit
    stack, so depth is limited by memory only. Backslashes and double quotes
    in labels are escaped.
    """
    nodes, edges = [], []
    stack = [(root, None, False)]  # (node, its parent's id, children pushed)
    while stack:
        nd, parent, pushed = stack.pop()
        if isinstance(nd, Internal):
            ident = f"k{nd.key}"
            if not pushed:  # the left subtree comes off first, then nd
                stack += [(nd.right, ident, False), (nd, parent, True), (nd.left, ident, False)]
                continue
            label = keys[nd.key - 1] if keys is not None else str(nd.key)
            label = label.replace("\\", "\\\\").replace('"', '\\"')
            nodes.append(f'  {ident} [shape=circle, label="{label}"];')
        else:
            ident = f"g{nd.gap}"
            nodes.append(f'  {ident} [shape=box, label="({nd.gap})"];')
        if parent is not None:
            edges.append(f"  {parent} -> {ident};")
    return "\n".join(["digraph bst {", *nodes, *edges, "}"]) + "\n"


def tree_to_text(root: Node, keys: Optional[tuple] = None) -> str:
    """Human-readable in-order listing, one node per line, indented by level."""
    lines = []
    for nd in inorder(root):
        if isinstance(nd, Internal):
            label = keys[nd.key - 1] if keys is not None else str(nd.key)
            lines.append(f"{'  ' * nd.level}{nd.level} key {nd.key} [{label}]")
        else:
            lines.append(f"{'  ' * nd.level}{nd.level} gap {nd.gap}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Decision sequences


@dataclass(frozen=True)
class DecisionSequence:
    """Per-key level choices; entry nu-1 is the level of key k_nu, a Python
    or NumPy integer (not a bool) in 0..h_max-1, stored as an int."""

    levels: tuple
    h_max: int

    def __post_init__(self):
        levels = tuple(self.levels)
        for i, a in enumerate(levels):
            # bool is Integral, np.bool_ is not; other Integrals become ints
            integer = type(a) is int or type(a) is not bool and isinstance(a, Integral)
            if not (integer and 0 <= a < self.h_max):
                raise InfeasibleDecisionError(
                    f"decision {a} at stage {i + 1} is not an integer in 0..{self.h_max - 1}",
                    stage=i + 1,
                )
        object.__setattr__(self, "levels", tuple(map(int, levels)))

    def __len__(self):
        return len(self.levels)


def build_tree_from_decisions(ds: DecisionSequence, n: int) -> Node:
    """Build the unique tree whose in-order key levels equal the decisions.

    Replays the decision process once: stage i checks that level ds[i-1]
    is feasible in the current state, then links gap i-1 and key i onto a
    stack that holds the keys of the current rightmost path, which are
    exactly the set bits of the state. A gap sits one level below the deeper
    of its neighbouring keys. A sequence the process accepts, ending in a
    contiguous rightmost path, always forms a tree; any other raises
    InfeasibleDecisionError with the failing stage (n+1 for the final state).
    """
    if len(ds) != n:
        raise InfeasibleDecisionError(f"need {n} decisions, got {len(ds)}")
    # no tree on n keys reaches a level above n; refusing one keeps states to n+1 bits
    s = prev = 0  # prev: the level of key stage-1, states.precdec(s)
    stack = []
    for stage, a in enumerate(ds.levels, start=1):
        if a > n or not states.is_feasible(s, a):
            raise InfeasibleDecisionError(
                f"decision {a} infeasible at stage {stage} "
                f"(state {states.state_to_bits(s, n + 1)})",
                stage=stage,
            )
        # keys deeper than a leave the rightmost path: with the gap they
        # form the left subtree of key `stage`
        node = External(stage - 1, 1 + max(prev, a))
        while stack and stack[-1].level > a:
            stack[-1].right = node
            node = stack.pop()
        key = Internal(stage, a, node, None)
        if stack:
            stack[-1].right = key
        stack.append(key)
        s = (s & ((1 << a) - 1)) | (1 << a)  # states.transition, checked above
        prev = a
    if stack and not states.is_terminal_valid(s):
        raise InfeasibleDecisionError(
            f"final state {states.state_to_bits(s, n + 1)} is not a valid "
            "rightmost path",
            stage=n + 1,
        )
    node = External(gap=n, level=len(stack))
    while stack:
        stack[-1].right = node
        node = stack.pop()
    return node


# ---------------------------------------------------------------------------
# Instance generation


@functools.cache
def _thousandths() -> tuple:
    """Fraction(k, 1000) at index k, for k in 0..1000, built on first use."""
    return tuple(Fraction(k, 1000) for k in range(1001))


def _draw(rng: random.Random, dist: str, m: int) -> tuple:
    if dist == "uniform":
        weight = _thousandths()
        return tuple(weight[rng.randint(1, 1000)] for _ in range(m))
    ranks = list(range(1, m + 1))
    rng.shuffle(ranks)
    return tuple(Fraction(1, r) for r in ranks)


def generate_random_instance(
    n: int,
    seed: int,
    dist: str = "uniform",
    zero_alpha: bool = False,
) -> ProblemInstance:
    """Deterministic random instance with exact rational weights.

    uniform: numerators drawn in [1, 1000] over denominator 1000.
    zipf: keys get weights 1/rank over a random permutation of ranks 1..n,
    gaps likewise with ranks 1..n+1; integer_weights puts them over their
    common denominator lcm(1..n+1).
    The dumps() of the result is a fixed function of (n, seed, dist,
    zero_alpha). An n that is not an int (a bool included) or is negative
    raises ValueError.
    """
    if type(n) is not int:
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if dist not in ("uniform", "zipf"):
        raise ValueError(f"unknown distribution {dist!r}")
    rng = random.Random(f"{n}:{seed}:{dist}:{zero_alpha}")
    beta = _draw(rng, dist, n)
    # the gap draws come last: skipping them leaves every kept draw as it was
    alpha = (Fraction(0),) * (n + 1) if zero_alpha else _draw(rng, dist, n + 1)
    return ProblemInstance(beta=beta, alpha=alpha)
