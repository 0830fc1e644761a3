"""Backward-induction solver for height-bounded optimal binary search trees.

Stage nu places key k_nu on a level; states are rightmost-path bit masks.
solve() runs one NumPy kernel over the closed-form decision sets of
states.decision_table, in int64 or, when values could overflow it, in
exact Python ints, for height bounds (instance.height_bound) up to
states.TABLE_MAX_WIDTH. The dict-based backward_pass/forward_pass over the
reachable sets of states.StageSets is the reference the tests compare it
with; solve() never calls it. Both compute exactly on
ProblemInstance.integer_weights() and break value ties toward the smallest
level, with bit-identical results.
solve() rebuilds the tree with build_tree_from_decisions, which replays the
decisions through the state machine once, and checks the kernel's cost
against the tree's weighted path length, summed over the same integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf
from typing import List, Tuple, Union

import numpy as np

from .instance import (
    DecisionSequence,
    Node,
    ProblemInstance,
    build_tree_from_decisions,
    format_weight,
    h_min,
    height_bound,
    tree_height,
    tree_to_obj,
    weighted_path_length,
)
from . import states as st

CostValue = Union[Fraction, float]  # Fraction, or math.inf for dead states

INFINITY = inf

# The kernel packs each candidate as value << _LEVEL_BITS | level, so one
# minimum finds the lowest value and, among equal values, the smallest level.
_LEVEL_BITS = 5
_LEVEL_MASK = (1 << _LEVEL_BITS) - 1


class InfeasibleHeightError(ValueError):
    """No tree with the requested height bound exists."""


def gap_level(prev_key_level: int, cur_key_level: int) -> int:
    """Level of the gap between two adjacent keys: one below the deeper."""
    if prev_key_level < 0 or cur_key_level < 0:
        raise ValueError("levels must be nonnegative")
    if prev_key_level == cur_key_level:
        raise ValueError("adjacent keys cannot share a level")
    return 1 + max(prev_key_level, cur_key_level)


def stage_cost(inst: ProblemInstance, nu: int, s: int, a: int) -> Fraction:
    """(1 + max(precdec(s), a)) * alpha_{nu-1} + (a+1) * beta_nu."""
    if not st.is_feasible(s, a):
        raise ValueError(f"decision {a} infeasible in state {bin(s)}")
    return (1 + max(st.precdec(s), a)) * inst.alpha[nu - 1] + (a + 1) * inst.beta[nu - 1]


def terminal_cost(inst: ProblemInstance, s: int) -> CostValue:
    """(1 + precdec(s)) * alpha_n for a valid final rightmost path, inf else."""
    if st.is_terminal_valid(s):
        return (1 + st.precdec(s)) * inst.alpha[inst.n]
    return INFINITY


@dataclass
class StageTables:
    """Value and policy maps over the reachable states of every stage."""

    h_max: int
    sets: st.StageSets
    values: List[dict]  # index nu-1, nu = 1..n+1: state -> CostValue
    policies: List[dict]  # index nu-1, nu = 1..n: state -> level (finite V only)
    relaxations: int = 0


@dataclass
class Solution:
    cost: Fraction
    decisions: DecisionSequence
    tree: Node
    h_max: int

    def to_obj(self) -> dict:
        n = len(self.decisions)
        return {
            "wpl": format_weight(self.cost),
            "height": tree_height(self.tree),
            "h_min": h_min(n),
            "h_max": self.h_max,
            "decisions": list(self.decisions.levels),
            "tree": tree_to_obj(self.tree),
        }


def solution_from_obj(obj: dict) -> "Solution":
    """Rebuild a Solution from its JSON object form."""
    from .instance import parse_weight, tree_from_obj

    return Solution(
        cost=parse_weight(obj["wpl"]),
        decisions=DecisionSequence(
            levels=tuple(obj["decisions"]), h_max=obj["h_max"]
        ),
        tree=tree_from_obj(obj["tree"]),
        h_max=obj["h_max"],
    )


def backward_pass(inst: ProblemInstance, h_max: int) -> StageTables:
    """Solve the Bellman equation over all reachable states, stage n down
    to 1. Dead states keep V = inf and no policy entry."""
    inst.require_valid()
    n = inst.n
    sets = st.StageSets(n, h_max)

    # exact integer arithmetic over the common denominator; None marks inf
    denom, alpha_i, beta_i = inst.integer_weights()

    values: List[dict] = [None] * (n + 1)
    policies: List[dict] = [None] * n
    v_next = {
        s: (1 + st.precdec(s)) * alpha_i[n] if st.is_terminal_valid(s) else None
        for s in sets.states(n + 1)
    }
    values[n] = v_next
    relaxations = 0
    for nu in range(n, 0, -1):
        alpha = alpha_i[nu - 1]
        beta = beta_i[nu - 1]
        v_cur: dict = {}
        pi_cur: dict = {}
        for s in sets.states(nu):
            best = None
            best_a = None
            pd = st.precdec(s)
            for a in st.feasible_decisions(s, h_max):
                relaxations += 1
                cont = v_next[st.transition(s, a)]
                if cont is None:
                    continue
                cand = (1 + max(pd, a)) * alpha + (a + 1) * beta + cont
                if best is None or cand < best:
                    best = cand
                    best_a = a
            v_cur[s] = best
            if best_a is not None:
                pi_cur[s] = best_a
        values[nu - 1] = v_cur
        policies[nu - 1] = pi_cur
        v_next = v_cur
    for table in values:
        for s, v in table.items():
            table[s] = INFINITY if v is None else Fraction(v, denom)
    return StageTables(
        h_max=h_max, sets=sets, values=values, policies=policies, relaxations=relaxations
    )


def forward_pass(tables: StageTables) -> Tuple[CostValue, DecisionSequence]:
    """Walk the stored policy from the all-zero state, collecting decisions."""
    n = len(tables.policies)
    s = 0
    cost = tables.values[0][s]
    if cost == INFINITY:
        raise InfeasibleHeightError("no feasible tree within the height bound")
    levels = []
    for nu in range(1, n + 1):
        a = tables.policies[nu - 1][s]
        levels.append(a)
        s = st.transition(s, a)
    return cost, DecisionSequence(levels=tuple(levels), h_max=tables.h_max)


# ---------------------------------------------------------------------------
# Vectorized kernel


def _kernel_pass(
    inst: ProblemInstance, h_max: int
) -> Tuple[Fraction, DecisionSequence, str]:
    """Backward and forward pass over all 2^h_max states, in NumPy.

    Returns the cost, the decisions and the dtype used. The kernel evaluates
    every state of the width, reachable or not, which leaves the values of
    reachable states unchanged. Values are integers over the common
    denominator: int64 when every packed value fits, exact Python ints
    ("object") otherwise. A width above states.TABLE_MAX_WIDTH raises
    ValueError before any table is built.
    """
    n = inst.n
    denom, alpha, beta = inst.integer_weights()
    # Every finite value is at most `bound`, so `dead` (infinity) sits above
    # them all; a value that involves a dead state is at most dead + bound.
    bound = (h_max + 1) * (sum(alpha) + sum(beta))
    dead = bound + 1
    top_packed = ((dead + bound) << _LEVEL_BITS) | _LEVEL_MASK
    dtype = "int64" if top_packed <= np.iinfo(np.int64).max else "object"

    size = 1 << h_max
    tab = st.decision_table(h_max)
    # The shallow decision q-1 of state s costs (1+p)*alpha + q*beta. Pair
    # (1+p, q) has index (1+p)*(h_max+1) + q; index 0 (cost 0, level 0)
    # stands for states without a shallow decision. The cached top is int8,
    # where (1+p)*(h_max+1) would wrap from h_max = 11 on: widen it first.
    width = h_max + 1
    top = tab.top.astype(np.int64)
    pair = np.where(tab.shallow >= 0, (top + 1) * width + tab.shallow + 1, 0)
    gap_coef, key_coef = np.divmod(np.arange(width * width), width)
    gap_coef, key_coef = gap_coef.astype(dtype), key_coef.astype(dtype)
    level = np.maximum(key_coef - 1, 0)

    # v: the next stage's packed values with the level bits cleared; slot
    # `size` stays dead as the successor of states without a shallow level
    v = np.full(size + 1, dead << _LEVEL_BITS, dtype=dtype)
    for k in range(1, h_max + 1):
        v[(1 << k) - 1] = (k * alpha[n]) << _LEVEL_BITS  # levels 0..k-1 occupied
    best = np.empty(size, dtype=dtype)
    cand = np.empty(size, dtype=dtype)
    # deep level a takes state s < 2^a to s + 2^a: three views per level
    deep = [(v[1 << a : 2 << a], best[: 1 << a], cand[: 1 << a]) for a in range(h_max)]
    policies = np.empty((n, size), dtype=np.int8)
    for nu in range(n, 0, -1):
        a_w = alpha[nu - 1] << _LEVEL_BITS
        b_w = beta[nu - 1] << _LEVEL_BITS
        pair_cost = gap_coef * a_w + key_coef * b_w + level
        v.take(tab.shallow_next, out=best, mode="clip")
        pair_cost.take(pair, out=cand, mode="clip")
        best += cand
        w = a_w + b_w  # a deep level a costs (a+1)*(alpha+beta)
        for a, (succ, b, c) in enumerate(deep):
            np.add(succ, (a + 1) * w + a, out=c)
            np.minimum(b, c, out=b)
        np.bitwise_and(best, _LEVEL_MASK, out=policies[nu - 1], casting="unsafe")
        np.bitwise_and(best, ~_LEVEL_MASK, out=v[:size])

    f_int = int(v[0]) >> _LEVEL_BITS
    if f_int >= dead:
        raise InfeasibleHeightError("no feasible tree within the height bound")
    levels = []
    s = 0
    for nu in range(n):
        a = int(policies[nu, s])
        levels.append(a)
        s = (s & ((1 << a) - 1)) | (1 << a)
    ds = DecisionSequence(levels=tuple(levels), h_max=h_max)
    return Fraction(f_int, denom), ds, dtype


# ---------------------------------------------------------------------------
# Entry points


def solve(inst: ProblemInstance, delta: int = 0) -> Solution:
    """Optimal tree with height at most h_min(n) + delta.

    The bound is instance.height_bound(n, delta), clamped to n; the Solution
    and its decisions report it. A bound above states.TABLE_MAX_WIDTH raises
    ValueError before any table is built. The empty instance (bound 0) skips
    only the kernel.
    """
    inst.require_valid()
    n = inst.n
    h_max = height_bound(n, delta)
    if n == 0:
        cost, ds = Fraction(0), DecisionSequence(levels=(), h_max=0)
    else:
        cost, ds, _dtype = _kernel_pass(inst, h_max)
    tree = build_tree_from_decisions(ds, n)
    wpl = weighted_path_length(tree, inst)
    if wpl != cost:
        raise RuntimeError(f"solver cost {cost} differs from the tree's wpl {wpl}")
    return Solution(cost=cost, decisions=ds, tree=tree, h_max=h_max)


def solve_with_max_height(inst: ProblemInstance, max_height: int) -> Solution:
    """Like solve, but with an absolute height cap instead of slack."""
    inst.require_valid()
    hm = h_min(inst.n)
    if max_height < hm:
        raise InfeasibleHeightError(
            f"no tree of height <= {max_height} exists for n = {inst.n} "
            f"(h_min = {hm})"
        )
    return solve(inst, delta=max_height - hm)
