"""Backward-induction solver for height-bounded optimal binary search trees.

Stage nu places key k_nu on a level; states are rightmost-path bit masks.
solve() runs one NumPy kernel over the closed-form decision sets of every
state, listed once per width as the moves of _kernel_tables, for height
bounds (instance.height_bound) up to states.TABLE_MAX_WIDTH and policies up
to states.POLICY_MAX_BYTES. The kernel is one int64 pass on the weights
floored to a 2^K grid, with K the smallest grid whose packed values fit
int64. K = 0 is the exact "int64" path. On the "int64-floored" path
(K >= 1) every decision the forward walk uses must beat the runner-up by
more than the rounding bound E_nu = (h+1)(2(n-nu)+3) grid units, and states
whose margin is thinner carry a flag in the policy; when the walk meets
one, the pass reruns in exact Python ints, the "object" path. A stage
relaxes every level below A = min(_FUSED_LEVELS, h) of each state below
2^(A-1), and the shallow level of every other state, in one gather and one
segmented minimum, and each deeper level as one contiguous block. The
dict-based backward_pass/forward_pass over the reachable sets of
states.StageSets is the reference the tests compare it with; solve() never
calls it. Both compute on ProblemInstance.integer_weights() and break value
ties toward the smallest level, with bit-identical decisions. solve()
scales the weights once, rebuilds the tree with build_tree_from_decisions,
which replays the decisions through the state machine once, and reports the
tree's weighted path length, summed over the same integers, as the cost. It
checks that the kernel's value lies at most its rounding bound (0 on the
exact paths) below it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf
from typing import List, NamedTuple, Tuple, Union

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
# Policy bit of a floored decision whose margin is too thin to certify it.
_THIN = 1 << 6
_INT64_MAX = int(np.iinfo(np.int64).max)
# The levels below this one of the states below 2^(A-1) are relaxed in one
# gather and one segmented minimum per stage: as blocks, they would hold at
# most 2^(A-1) states, too few to pay for a NumPy call per level. Chosen by
# timing A = 6..9.
_FUSED_LEVELS = 8


class InfeasibleHeightError(ValueError):
    """No tree with the requested height bound exists."""


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

    @property
    def h_max(self) -> int:
        """The height bound, as the decisions record it."""
        return self.decisions.h_max

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
        decisions=DecisionSequence(levels=tuple(obj["decisions"]), h_max=obj["h_max"]),
        tree=tree_from_obj(obj["tree"]),
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


def _grid_bits(total: int, h_max: int, slack: int) -> int:
    """Smallest K >= 0 for which every packed value of a pass on the weights
    floored to multiples of 2^K fits int64.

    Finite values are at most bound = (h_max+1) * (total >> K), where total
    is the sum of the integer weights; the dead sentinel sits `slack` above
    bound, and a value through a dead state is at most dead + bound. The
    packed top (2*bound + slack) << _LEVEL_BITS | _LEVEL_MASK fits exactly
    when total >> K <= cap, that is when total < (cap + 1) << K.
    """
    cap = ((_INT64_MAX >> _LEVEL_BITS) - slack) // (2 * (h_max + 1))
    return (total // (cap + 1)).bit_length()


class _KernelTables(NamedTuple):
    """Per-width move table of _backward, 10 bytes per state.

    Pair (g, k) of the (h_max+1)^2 pair-cost vector costs g*alpha + k*beta
    plus level max(k-1, 0) in the level bits; its index is g*(h_max+1) + k.
    Let p be the top set bit of s (-1 for s = 0) and q the lowest bit of the
    run of set bits ending at p: D(s) = {q-1 if q >= 1} | {p+1, ..., h_max-1}.
    With A = min(_FUSED_LEVELS, h_max), the moves are the shallow level q-1
    of each state s >= 2^(A-1), in order, then one segment per state
    s < 2^(A-1) listing its levels below A in ascending order (never empty).
    Every move (s, a) goes to transition(s, a) at pair (1+max(p, a), a+1); a
    state without a shallow level moves to the dead slot 2^h_max at pair 0
    (cost 0, level 0).
    """

    gap_coef: np.ndarray  # g of every pair (int64)
    key_coef: np.ndarray  # k of every pair (int64)
    level: np.ndarray  # max(k-1, 0) of every pair (int64)
    succ: np.ndarray  # successor of every move (intp)
    pair: np.ndarray  # pair index of every move (int16)
    starts: np.ndarray  # first move of each segment, from the first segment (intp)
    seg: np.ndarray  # the state of every segment move (intp)


_KERNEL_CACHE = {}


def _kernel_tables(h_max: int) -> _KernelTables:
    """The _KernelTables of width h_max, built once per width and cached."""
    cached = _KERNEL_CACHE.get(h_max)
    if cached is not None:
        return cached
    size = 1 << h_max
    width = h_max + 1
    gap_coef, key_coef = np.divmod(np.arange(width * width), width)
    fused = min(_FUSED_LEVELS, h_max)
    low = 1 << (fused - 1)
    segments = [(s, a) for s in range(low) for a in st.feasible_decisions(s, fused)]
    seg, seg_level = np.array(segments, dtype=np.intp).T.copy()
    s = np.concatenate((np.arange(low, size), seg))
    p = np.frexp(s)[1] - 1  # the top set bit, -1 for 0
    # complementing bits 0..p turns the run ending at p into zeros, so the top
    # set bit of what is left is q-1, the shallow level; segments keep theirs
    a = np.frexp(s ^ ((1 << (p + 1)) - 1))[1] - 1
    a[size - low :] = seg_level
    bit = 1 << np.maximum(a, 0)
    tables = _KernelTables(
        gap_coef,
        key_coef,
        np.maximum(key_coef - 1, 0),
        np.where(a >= 0, (s & (bit - 1)) | bit, size),
        np.where(a >= 0, (1 + np.maximum(p, a)) * width + a + 1, 0).astype(np.int16),
        np.flatnonzero(np.diff(seg, prepend=-1)),
        seg,
    )
    _KERNEL_CACHE[h_max] = tables
    return tables


def _backward(alpha, beta, h_max: int, dtype, dead: int, certify: bool):
    """Packed backward pass over all 2^h_max states.

    Returns V_1(0) and the n x 2^h_max int8 policy. The kernel evaluates
    every state of the width, reachable or not, which leaves the values of
    reachable states unchanged. Values at or above `dead` stand for
    infinity; a dead V_1(0) raises InfeasibleHeightError. With certify, the
    pass also tracks the second-best candidate of every state and sets _THIN
    in the policy where second - best is at most E_nu + 1 grid units, with
    E_nu = (h_max+1)(2(n-nu)+3) the rounding bound of stage nu.

    A stage relaxes every move of _kernel_tables in one gather of the next
    values and one of the pair costs: the shallow moves give each state
    s >= 2^(A-1) its first candidate, and one segmented minimum gives each
    state below 2^(A-1) its best level below A. Each deep level a >= A is
    one contiguous block of 2^a states. That is 10 + 2(h_max-A) NumPy calls
    per stage, and 18 + 4(h_max-A) with certify.
    """
    n = len(beta)
    size = 1 << h_max
    width = h_max + 1
    kt = _kernel_tables(h_max)
    pair = kt.pair.astype(np.intp)
    gap_coef, key_coef, level = (c.astype(dtype, copy=False) for c in kt[:3])
    fused = min(_FUSED_LEVELS, h_max)
    low = 1 << (fused - 1)

    # v: the next stage's packed values with the level bits cleared; slot
    # `size` stays dead as the successor of states without a shallow level
    v = np.full(size + 1, dead << _LEVEL_BITS, dtype=dtype)
    for k in range(1, h_max + 1):
        v[(1 << k) - 1] = (k * alpha[n]) << _LEVEL_BITS  # levels 0..k-1 occupied
    # the best of every state, then the segments: the gathers fill moves[low:]
    moves = np.empty(low + len(pair), dtype=dtype)
    move_cost = np.empty(len(pair), dtype=dtype)
    gathered, best, seg_moves = moves[low:], moves[:size], moves[size:]
    low_best = best[:low]
    # deep level a >= A takes state s < 2^a to s + 2^a: three views per level
    deep = [
        (a, v[1 << a : 2 << a], best[: 1 << a], move_cost[: 1 << a])
        for a in range(fused, h_max)
    ]
    if certify:
        # second: the runner-up, or a dead candidate when there is none
        second = np.empty(size, dtype=dtype)
        low_second = second[:low]
        runner_up = [second[: 1 << a] for a in range(fused, h_max)]
        spread = np.empty_like(seg_moves)
        is_best = np.empty(len(seg_moves), dtype=bool)
        thin = np.empty(size, dtype=bool)
    policies = np.empty((n, size), dtype=np.int8)
    for nu in range(n, 0, -1):
        a_w = alpha[nu - 1] << _LEVEL_BITS
        b_w = beta[nu - 1] << _LEVEL_BITS
        pair_cost = gap_coef * a_w + key_coef * b_w + level
        v.take(kt.succ, out=gathered, mode="clip")
        pair_cost.take(pair, out=move_cost, mode="clip")
        gathered += move_cost
        np.minimum.reduceat(seg_moves, kt.starts, out=low_best)
        if certify:
            np.maximum(best, dead << _LEVEL_BITS, out=second)
            # the packed candidates of a state differ in their level bits,
            # so with its best masked, a segment's minimum is its runner-up
            low_best.take(kt.seg, out=spread, mode="clip")
            np.equal(seg_moves, spread, out=is_best)
            np.putmask(seg_moves, is_best, _INT64_MAX)
            np.minimum.reduceat(seg_moves, kt.starts, out=low_second)
        w = a_w + b_w  # a deep level a costs (a+1)*(alpha+beta)
        for i, (a, succ, b, c) in enumerate(deep):
            np.add(succ, (a + 1) * w + a, out=c)
            if certify:
                # best <= second, so the new runner-up is the median of
                # (best, second, c): max(best, min(second, c))
                s2 = runner_up[i]
                np.minimum(s2, c, out=s2)
                np.maximum(s2, b, out=s2)
            np.minimum(b, c, out=b)
        pol = policies[nu - 1]
        np.bitwise_and(best, _LEVEL_MASK, out=pol, casting="unsafe")
        if certify:
            e_nu = width * (2 * (n - nu) + 3)
            np.subtract(second, best, out=second)
            np.less_equal(second, (e_nu + 1) << _LEVEL_BITS, out=thin)
            np.bitwise_or(pol, _THIN, out=pol, where=thin)
        np.bitwise_and(best, ~_LEVEL_MASK, out=v[:size])

    value = int(v[0]) >> _LEVEL_BITS
    if value >= dead:
        raise InfeasibleHeightError("no feasible tree within the height bound")
    return value, policies


def _walk(policies):
    """Decisions along the policy from the all-zero state, or None when a
    visited state carries _THIN."""
    levels = []
    s = 0
    for pol in policies:
        a = int(pol[s])
        if a & _THIN:
            return None
        levels.append(a)
        s = (s & ((1 << a) - 1)) | (1 << a)
    return levels


def _kernel_pass(weights, h_max: int) -> Tuple[Fraction, Fraction, DecisionSequence, str]:
    """Backward and forward pass over all 2^h_max states, in NumPy, on the
    integer weights (d, alpha, beta) of ProblemInstance.integer_weights().

    Returns (cost, error, decisions, path): the optimal cost lies in
    [cost, cost + error], and error is 0 unless the path is "int64-floored".
    Values are integers over the common denominator d.

    One int64 pass runs on the weights floored to multiples of 2^K, with K
    from _grid_bits. K = 0 when every packed exact value fits int64, with
    the dead sentinel 1 above every finite value: the pass is exact, the
    "int64" path. Otherwise K >= 1 is the smallest grid on which the floored
    values fit with dead E_1 + 2 above them, the "int64-floored" path. In
    units of 2^K each floored weight is low by less than 1 and every
    coefficient is at most h+1, so V_nu is low by less than
    E_nu = (h+1)(2(n-nu)+3) and each stage-nu candidate by less than E_nu as
    well. A decision whose candidate beats every other one by more than E_nu
    is the unique exact argmin, so the smallest-level tie rule never decides
    it and it equals the exact decision. The pass marks every state whose
    margin is not that wide (_THIN); a dead runner-up, E_1 + 2 above every
    finite value, never marks a state. When the walk meets a marked state,
    the pass reruns on the exact weights in Python ints, the "object" path.

    A width outside 1..states.TABLE_MAX_WIDTH, or a policy above
    states.POLICY_MAX_BYTES, raises ValueError before any table is built.
    """
    denom, alpha, beta = weights
    n = len(beta)
    st.check_policy_size(n, h_max)
    total = sum(alpha) + sum(beta)
    error = 0 if _grid_bits(total, h_max, 1) == 0 else (h_max + 1) * (2 * n + 1)  # E_1
    slack = error + 2 if error else 1
    shift = _grid_bits(total, h_max, slack)
    value, policies = _backward(
        [w >> shift for w in alpha],
        [w >> shift for w in beta],
        h_max,
        np.int64,
        (h_max + 1) * (total >> shift) + slack,
        shift > 0,
    )
    levels = _walk(policies)
    if levels is not None:
        ds = DecisionSequence(levels=tuple(levels), h_max=h_max)
        path = "int64-floored" if shift else "int64"
        return Fraction(value << shift, denom), Fraction(error << shift, denom), ds, path
    del policies  # before the exact pass allocates its own
    value, policies = _backward(alpha, beta, h_max, object, (h_max + 1) * total + 1, False)
    ds = DecisionSequence(levels=tuple(_walk(policies)), h_max=h_max)
    return Fraction(value, denom), Fraction(0), ds, "object"


# ---------------------------------------------------------------------------
# Entry points


def solve(inst: ProblemInstance, delta: int = 0) -> Solution:
    """Optimal tree with height at most h_min(n) + delta.

    The bound is instance.height_bound(n, delta), clamped to n; the Solution
    and its decisions report it. A bound above states.TABLE_MAX_WIDTH, or a
    policy above states.POLICY_MAX_BYTES, raises ValueError before any table
    is built. The cost is the exact weighted path length of the rebuilt
    tree; RuntimeError is raised unless the kernel's value lies at most its
    rounding bound below it, a bound that is 0 on the exact paths. The empty
    instance (bound 0) skips only the kernel.
    """
    inst.require_valid()
    n = inst.n
    h_max = height_bound(n, delta)
    weights = inst.integer_weights()
    if n == 0:
        low, error, ds = Fraction(0), Fraction(0), DecisionSequence(levels=(), h_max=0)
    else:
        low, error, ds, _path = _kernel_pass(weights, h_max)
    tree = build_tree_from_decisions(ds, n)
    wpl = weighted_path_length(tree, inst, weights=weights)
    if not low <= wpl <= low + error:
        raise RuntimeError(
            f"solver cost {low} (rounding bound {error}) differs from the "
            f"tree's wpl {wpl}"
        )
    return Solution(cost=wpl, decisions=ds, tree=tree)


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
