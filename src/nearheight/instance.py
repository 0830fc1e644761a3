"""Problem model: exact rational weights, instances, trees, weighted path length.

A tree is rebuilt from its decision sequence (the in-order key levels) by
one replay of the decision process of the states module, and rendered as
JSON, Graphviz DOT or text. Random instances and height_bound, the height
bound of solve() and bench, are here too.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterator, Optional, Union


class InstanceError(ValueError):
    """Malformed instance data or instance file."""


class InfeasibleDecisionError(ValueError):
    """A decision sequence violates the level-placement rules."""

    def __init__(self, message: str, stage: Optional[int] = None):
        super().__init__(message)
        self.stage = stage


def h_min(n: int) -> int:
    """Minimum height of a binary search tree on n keys: ceil(log2(n+1)).

    Pure integer arithmetic; h_min(n) == n.bit_length().
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return n.bit_length()


def height_bound(n: int, delta: int) -> int:
    """The height bound h_min(n) + delta, clamped to n, the height of the
    tallest tree on n keys. A negative delta raises ValueError."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    return min(h_min(n) + delta, n)


_WEIGHT_RE = re.compile(r"^(\d+)(?:/(\d+))?$")


def parse_weight(text: str) -> Fraction:
    """Parse a rational literal: INT or INT/POSINT, nonnegative."""
    if not isinstance(text, str):
        raise InstanceError(f"rational literal must be a string, got {type(text).__name__}")
    m = _WEIGHT_RE.match(text)
    if not m:
        raise InstanceError(f"bad rational literal {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise InstanceError(f"zero denominator in {text!r}")
    return Fraction(num, den)


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
        object.__setattr__(self, "beta", tuple(Fraction(b) for b in self.beta))
        object.__setattr__(self, "alpha", tuple(Fraction(a) for a in self.alpha))
        if self.keys is not None:
            object.__setattr__(self, "keys", tuple(self.keys))

    @property
    def n(self) -> int:
        return len(self.beta)

    def validate(self) -> list:
        """Return a list of violation messages; empty iff the instance is valid."""
        problems = []
        if len(self.alpha) != len(self.beta) + 1:
            problems.append(
                f"alpha length must be n+1 = {len(self.beta) + 1}, got {len(self.alpha)}"
            )
        for i, b in enumerate(self.beta):
            if b < 0:
                problems.append(f"beta[{i}] = {b} is negative")
        for j, a in enumerate(self.alpha):
            if a < 0:
                problems.append(f"alpha[{j}] = {a} is negative")
        if self.keys is not None:
            if len(self.keys) != len(self.beta):
                problems.append(
                    f"keys length must be n = {len(self.beta)}, got {len(self.keys)}"
                )
            else:
                for i in range(1, len(self.keys)):
                    if not self.keys[i - 1] < self.keys[i]:
                        problems.append(
                            f"keys not strictly increasing at position {i}: "
                            f"{self.keys[i - 1]!r} !< {self.keys[i]!r}"
                        )
        return problems

    def require_valid(self):
        problems = self.validate()
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
        return lcm(*(w.denominator for w in self.beta + self.alpha))

    def integer_weights(self) -> tuple:
        """(d, alpha * d, beta * d): the common denominator d and the weights
        scaled by it, as lists of ints. Every exact cost is an int over d."""
        d = self.common_denominator()
        alpha = [w.numerator * (d // w.denominator) for w in self.alpha]
        beta = [w.numerator * (d // w.denominator) for w in self.beta]
        return d, alpha, beta

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
        if keys is not None:
            if not isinstance(keys, list):
                raise InstanceError("'keys' must be a JSON array")
            if not all(isinstance(k, str) for k in keys):
                raise InstanceError("keys must be strings")
            keys = tuple(keys)
        inst = cls(beta=beta, alpha=alpha, keys=keys)
        inst.require_valid()
        return inst

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


@dataclass
class Internal:
    key: int  # 1..n
    level: int
    left: "Node"
    right: "Node"


@dataclass
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


def weighted_path_length(root: Node, inst: ProblemInstance) -> Fraction:
    """sum beta_i * (b_i + 1) + sum alpha_j * a_j, exact: summed over the
    integer weights of inst.integer_weights()."""
    d, alpha, beta = inst.integer_weights()
    total = 0
    n_keys = 0
    n_gaps = 0
    for nd in inorder(root):
        if isinstance(nd, Internal):
            total += beta[nd.key - 1] * (nd.level + 1)
            n_keys += 1
        else:
            total += alpha[nd.gap] * nd.level
            n_gaps += 1
    if n_keys != inst.n or n_gaps != inst.n + 1:
        raise InstanceError(
            f"tree has {n_keys} keys / {n_gaps} gaps, instance expects "
            f"{inst.n} / {inst.n + 1}"
        )
    return Fraction(total, d)


def tree_to_obj(root: Node) -> dict:
    if isinstance(root, Internal):
        return {
            "key": root.key,
            "level": root.level,
            "left": tree_to_obj(root.left),
            "right": tree_to_obj(root.right),
        }
    return {"gap": root.gap, "level": root.level}


def tree_from_obj(obj) -> Node:
    if not isinstance(obj, dict):
        raise InstanceError("tree node must be a JSON object")
    if "key" in obj:
        return Internal(
            key=obj["key"],
            level=obj["level"],
            left=tree_from_obj(obj["left"]),
            right=tree_from_obj(obj["right"]),
        )
    if "gap" in obj:
        return External(gap=obj["gap"], level=obj["level"])
    raise InstanceError("tree node needs 'key' or 'gap'")


def tree_to_dot(root: Node, keys: Optional[tuple] = None) -> str:
    """Graphviz rendering; byte-stable for a fixed tree.

    Internal nodes are circles labeled with the key label (or index),
    externals are boxes labeled "(j)". Node ids are k<i> / g<j>; nodes and
    edges are emitted in in-order. Backslashes and double quotes in labels
    are escaped.
    """
    nodes, edges = [], []

    def walk(nd, parent):
        if isinstance(nd, Internal):
            ident = f"k{nd.key}"
            walk(nd.left, ident)
            label = keys[nd.key - 1] if keys is not None else str(nd.key)
            label = label.replace("\\", "\\\\").replace('"', '\\"')
            nodes.append(f'  {ident} [shape=circle, label="{label}"];')
        else:
            ident = f"g{nd.gap}"
            nodes.append(f'  {ident} [shape=box, label="({nd.gap})"];')
        if parent is not None:
            edges.append(f"  {parent} -> {ident};")
        if isinstance(nd, Internal):
            walk(nd.right, ident)

    walk(root, None)
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
    """Per-key level choices; entry nu-1 is the level of key k_nu."""

    levels: tuple
    h_max: int

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        for i, a in enumerate(self.levels):
            if not 0 <= a < self.h_max:
                raise InfeasibleDecisionError(
                    f"decision {a} at stage {i + 1} outside 0..{self.h_max - 1}",
                    stage=i + 1,
                )

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
    from . import states

    if len(ds) != n:
        raise InfeasibleDecisionError(f"need {n} decisions, got {len(ds)}")
    s = 0
    stack = []
    for stage, a in enumerate(ds.levels, start=1):
        if not states.is_feasible(s, a):
            raise InfeasibleDecisionError(
                f"decision {a} infeasible at stage {stage} "
                f"(state {states.state_to_bits(s, ds.h_max)})",
                stage=stage,
            )
        # keys deeper than a leave the rightmost path: with the gap they
        # form the left subtree of key `stage`
        node = External(gap=stage - 1, level=1 + max(states.precdec(s), a))
        while stack and stack[-1].level > a:
            stack[-1].right = node
            node = stack.pop()
        key = Internal(key=stage, level=a, left=node, right=None)
        if stack:
            stack[-1].right = key
        stack.append(key)
        s = states.transition(s, a)
    if stack and not states.is_terminal_valid(s):
        raise InfeasibleDecisionError(
            f"final state {states.state_to_bits(s, ds.h_max)} is not a valid "
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


def generate_random_instance(
    n: int,
    seed: int,
    dist: str = "uniform",
    zero_alpha: bool = False,
) -> ProblemInstance:
    """Deterministic random instance with exact rational weights.

    uniform: numerators drawn in [1, 1000] over denominator 1000.
    zipf: keys get weights 1/rank over a random permutation of ranks 1..n,
    gaps likewise with ranks 1..n+1, all over the common denominator
    lcm(1..n+1).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    rng = random.Random(f"{n}:{seed}:{dist}:{zero_alpha}")
    if dist == "uniform":
        denom = 1000
        beta = tuple(Fraction(rng.randint(1, 1000), denom) for _ in range(n))
        alpha = tuple(Fraction(rng.randint(1, 1000), denom) for _ in range(n + 1))
    elif dist == "zipf":
        denom = lcm(*range(1, n + 2))
        key_ranks = list(range(1, n + 1))
        gap_ranks = list(range(1, n + 2))
        rng.shuffle(key_ranks)
        rng.shuffle(gap_ranks)
        beta = tuple(Fraction(denom // r, denom) for r in key_ranks)
        alpha = tuple(Fraction(denom // r, denom) for r in gap_ranks)
    else:
        raise ValueError(f"unknown distribution {dist!r}")
    if zero_alpha:
        alpha = tuple(Fraction(0) for _ in range(n + 1))
    return ProblemInstance(beta=beta, alpha=alpha)
