"""Backward-induction solver for height-bounded optimal binary search trees.

Stage nu places key k_nu on a level; states are rightmost-path bit masks,
and states.is_feasible is the one rule for which levels a state admits.
solve() runs one NumPy kernel; each fact about it is stated once, where
the code that keeps it lives:

- _kernel_pass: the grid shift K, the "int32", "int64", "int64-floored"
  and "object" paths, the rounding bound, when a pass keeps its rows, and
  its bounds as integers over the common denominator d;
- _KernelTables: the move layout and each move's pair cost, which only
  _kernel_tables builds;
- _weight_table: the one conversion of a pass's weights, floored or exact,
  into the pass's dtype, which the pass and its certificate both read;
- _stages: one stage's relaxation, the blocks of pair costs and the
  gather mode;
- _backward: the policy, the packed low byte of each state below 2^(h-1),
  and the rows of the lowest stages that fit;
- _walk: the level in each policy byte, and the one move of every other state;
- _thin_margins: the certificate of a floored pass;
- solve(): the height bound, the refusals and the cost check, which
  compares integers over d.

The dict-based backward_pass/forward_pass is the reference the tests
compare the kernel with; solve() never calls it. Both break value ties
toward the smallest level.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import inf
from typing import List, NamedTuple, Tuple, Union

import numpy as np

from .instance import (
    DecisionSequence,
    InfeasibleDecisionError,
    InstanceError,
    Node,
    ProblemInstance,
    build_tree_from_decisions,
    format_weight,
    h_min,
    height_bound,
    json_int,
    parse_weight,
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
# The largest values of the machine-integer pass dtypes, read once: np.iinfo
# takes about 1.7 µs a call, 2% of a small solve.
_INT32_MAX = int(np.iinfo(np.int32).max)
_INT64_MAX = int(np.iinfo(np.int64).max)
# The levels below this one of the states below 2^(A-1) are relaxed in one
# gather and one segmented minimum per stage: as blocks, they would hold at
# most 2^(A-1) states, too few to pay for a NumPy call per level. Chosen by
# timing A = 6..9.
_FUSED_LEVELS = 8
# _stages builds the pair costs of this many consecutive stages at once,
# which bounds its pair-cost rows at _PAIR_BLOCK * (h+1)^2 values.
_PAIR_BLOCK = 64
# A floored pass keeps the next values of its lowest stages that fit in this
# many bytes, and _thin_margins recomputes only the stages above them.
_ROW_BUDGET = 8 << 20


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
    """Read the JSON object that Solution.to_obj writes, and nothing else:
    rebuild the tree from 'decisions' and 'h_max', parse 'wpl', and require
    obj to equal the result's to_obj(), walked from an explicit stack: the
    same fields, and every other value (the decisions, read as ints above,
    as one list) of the same JSON type and value. So 'wpl' is checked for
    form only; its value needs the instance: weighted_path_length(sol.tree,
    inst). Any other input raises InstanceError naming the first differing
    field and, in the tree, its node."""
    if not isinstance(obj, dict) or not {"wpl", "decisions", "h_max", "tree"} <= obj.keys():
        raise InstanceError("solution needs 'wpl', 'decisions', 'h_max' and 'tree'")
    if not isinstance(obj["decisions"], list):
        raise InstanceError("'decisions' must be a JSON array")
    levels = tuple(json_int(a, "decision") for a in obj["decisions"])
    h_max = json_int(obj["h_max"], "h_max")
    if h_max <= max(levels, default=-1):
        raise InstanceError(f"'h_max' {h_max} is negative or not above every decision")
    try:
        decisions = DecisionSequence(levels=levels, h_max=h_max)
        tree = build_tree_from_decisions(decisions, len(levels))
    except InfeasibleDecisionError as e:
        raise InstanceError(f"'decisions' form no tree: {e}") from e
    sol = Solution(cost=parse_weight(obj["wpl"]), decisions=decisions, tree=tree)
    stack = [(obj, sol.to_obj(), None, None)]  # (read, written, the object holding it, field)
    while stack:
        got, want, holder, field = stack.pop()
        if type(want) is not dict:
            if type(got) is type(want) and got == want:
                continue
            problem = f"has {field!r} {got!r}, not {want!r}"
        elif type(got) is dict and got.keys() == want.keys():
            stack += [(got[k], want[k], want, k) for k in reversed(want)]
            continue
        else:
            holder, problem = want, f"must be a JSON object with exactly the fields {sorted(want)}"
        where = "solution"
        if "level" in holder:  # a tree node, whose first field is "key" or "gap"
            name = next(iter(holder))
            where = f"tree node of {name} {holder[name]} at level {holder['level']}"
        raise InstanceError(f"{where} {problem}")
    return sol


def backward_pass(inst: ProblemInstance, h_max: int) -> StageTables:
    """Solve the Bellman equation over all reachable states, stage n down
    to 1. Dead states keep V = inf and no policy entry."""
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
            for a in range(h_max):
                if not st.is_feasible(s, a):
                    continue
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


def _grid_bits(total: int, h_max: int, slack: int, top: int) -> int:
    """Smallest K >= 0 for which every packed value of a pass on the weights
    floored to multiples of 2^K is at most top, the largest value of the
    pass's dtype: _INT64_MAX, or _INT32_MAX for the "int32" test of
    _kernel_pass.

    Finite values are at most bound = (h_max+1) * (total >> K), where total
    is the sum of the integer weights; the dead sentinel sits `slack` above
    bound, and a value through a dead state is at most dead + bound. The
    packed top (2*bound + slack) << _LEVEL_BITS | _LEVEL_MASK fits exactly
    when total >> K <= cap, that is when total < (cap + 1) << K.
    """
    cap = ((top >> _LEVEL_BITS) - slack) // (2 * (h_max + 1))
    return (total // (cap + 1)).bit_length()


class _KernelTables(NamedTuple):
    """Per-width move table of _stages, 10 bytes per state.

    Column g*(h_max+1) + k of coef is (g << 5, k << 5, max(k-1, 0)): times
    (alpha, beta, 1), the packed cost g*alpha + k*beta of pair (g, k), with
    level max(k-1, 0). With A = min(_FUSED_LEVELS, h_max), the moves are the
    shallow level q-1 of each state s >= 2^(A-1), in order, then one segment
    per state s < 2^(A-1) listing its levels below A by states.is_feasible,
    ascending (never empty), so starts has 2^(A-1) entries; p is the top set
    bit of s (-1 for s = 0) and q the lowest bit of the run of set bits
    ending at p. Every move (s, a) goes to transition(s, a) at pair
    (1+max(p, a), a+1); a state without a shallow level moves to the dead
    slot 2^h_max at pair 0 (cost 0, level 0).
    """

    coef: np.ndarray  # 3 x (h_max+1)^2 pair coefficients (int64)
    succ: np.ndarray  # successor of every move (intp)
    pair: np.ndarray  # pair index of every move (int16)
    starts: np.ndarray  # first move of each segment, from the first segment (intp)


@functools.cache
def _kernel_tables(h_max: int) -> _KernelTables:
    """The _KernelTables of width h_max, built once per width and cached."""
    size = 1 << h_max
    width = h_max + 1
    gap, key = np.divmod(np.arange(width * width), width)
    fused = min(_FUSED_LEVELS, h_max)
    low = 1 << (fused - 1)
    seg, seg_level = np.nonzero(st.is_feasible(np.arange(low)[:, None], np.arange(fused)))
    s = np.concatenate((np.arange(low, size), seg))
    p = np.frexp(s)[1] - 1  # the top set bit, -1 for 0
    # complementing bits 0..p turns the run ending at p into zeros, so the top
    # set bit of what is left is q-1, the shallow level; segments keep theirs
    a = np.frexp(s ^ ((1 << (p + 1)) - 1))[1] - 1
    a[size - low :] = seg_level
    bit = 1 << np.maximum(a, 0)
    return _KernelTables(
        np.array((gap << _LEVEL_BITS, key << _LEVEL_BITS, np.maximum(key - 1, 0))),
        np.where(a >= 0, (s & (bit - 1)) | bit, size),
        np.where(a >= 0, (1 + np.maximum(p, a)) * width + a + 1, 0).astype(np.int16),
        np.flatnonzero(np.diff(seg, prepend=-1)),
    )


def _weight_table(alpha, beta, dtype, shift: int = 0) -> np.ndarray:
    """The weights of one pass as a 3 x n array of its dtype, with rows
    alpha[:n], beta and 1, each weight floored to a multiple of 2^shift and
    counted in units of it. The pass converts its weights here once; the
    weight alpha[n] of gap n stays a Python int, alpha[n] >> shift."""
    n = len(beta)
    alpha = alpha[:n]
    if shift:
        alpha, beta = [w >> shift for w in alpha], [w >> shift for w in beta]
    return np.array((alpha, beta, [1] * n), dtype)


def _stages(table, alpha_n: int, h_max: int, dead: int, nu_lo: int = 1):
    """Packed backward pass over all 2^h_max states, stage n down to nu_lo,
    on the weight table of _weight_table, in its dtype, and the weight
    alpha_n of gap n, a Python int.

    Yields (nu, v, best) once per stage nu, after its relaxation: v holds
    the packed next values V_{nu+1} with the level bits cleared, and best
    the packed values and levels of stage nu at the states below
    2^(h_max-1), the only ones with a choice of level (see _walk). Both are
    views of buffers that the next stage overwrites. Slot 2^h_max of v
    stays dead, the successor of states without a shallow level. The
    kernel evaluates every state of the width, reachable or not, which
    leaves the values of reachable states unchanged. Values at or above
    `dead`, and the dead slot, stand for infinity. A range that ends at
    nu_lo > 1 leaves stages nu_lo-1..1 out: _thin_margins recomputes only
    the stages above the rows _backward kept.

    Each move is priced from its stage's row of pair costs: at the first
    stage of each block of _PAIR_BLOCK stages, one matrix product of the
    block's columns of the table, already in the pass's dtype, with coef of
    _kernel_tables gives the block's rows; no weight is converted per block.
    A stage relaxes the moves of _kernel_tables in one gather of the next
    values and one of its row: the shallow moves give each state
    s >= 2^(A-1) its first candidate, and one segmented minimum gives each
    state below 2^(A-1) its best level below A. Each deep level a >= A is
    one contiguous block of 2^a states at pair (a+1, a+1), column
    (a+1)(h_max+2). With the mask of best into v, that is 5 + 2(h_max-A)
    NumPy calls per stage, and 6 + 2(h_max-A) with what the caller keeps.

    Both gathers take mode="wrap". Their indices are in range by
    construction, successors at most 2^h_max on the 2^h_max + 1 slots of v
    and pair indices below (h_max+1)^2, so every mode reads the same values;
    "raise" buffers the out= array, and "clip" clamps each index, which at
    h_max = 13 made an int32 gather of the 8439 moves take 7.3 µs against
    5.4 µs with wrap (int64: 7.0 against 6.7 µs).
    """
    n = table.shape[1]
    dtype = table.dtype
    size = 1 << h_max
    kt = _kernel_tables(h_max)
    pair = kt.pair.astype(np.intp)
    coef = kt.coef.astype(dtype)
    low = len(kt.starts)  # 2^(A-1), one segment per state below it

    v = np.full(size + 1, dead << _LEVEL_BITS, dtype=dtype)
    for k in range(1, h_max + 1):
        v[(1 << k) - 1] = (k * alpha_n) << _LEVEL_BITS  # levels 0..k-1 occupied
    # the best of every state, then the segments: the gathers fill moves[low:]
    moves = np.empty(low + len(pair), dtype=dtype)
    move_cost = np.empty(len(pair), dtype=dtype)
    gathered, best, seg_moves = moves[low:], moves[:size], moves[size:]
    low_best, choice_best = best[:low], best[: size >> 1]
    # the mask that clears the level bits of best into v, as a scalar of the
    # pass's dtype (a Python int on an "object" pass): NumPy 2 converts a
    # Python-int operand of an int64 array on every call
    live_v, value_bits = v[:size], np.dtype(dtype).type(~_LEVEL_MASK)
    # deep level a >= A takes state s < 2^a to s + 2^a at pair (a+1, a+1)
    deep = [
        (v[1 << a : 2 << a], best[: 1 << a], move_cost[: 1 << a], (a + 1) * (h_max + 2))
        for a in range(low.bit_length(), h_max)
    ]
    # stages 1 + b*_PAIR_BLOCK .. (b+1)*_PAIR_BLOCK share a block; stage nu
    # reads row (nu-1) % _PAIR_BLOCK. A matrix product, unlike a broadcast
    # sum, allocates no iteration buffers. It makes a new array per block:
    # np.matmul into an object out= array never releases the values it
    # overwrites, which leaked every block but the last of an "object" pass.
    for nu in range(n, nu_lo - 1, -1):
        row = (nu - 1) % _PAIR_BLOCK
        if nu == n or row == _PAIR_BLOCK - 1:
            pair_costs = table[:, nu - 1 - row : nu].T @ coef
        costs = pair_costs[row]
        v.take(kt.succ, out=gathered, mode="wrap")
        costs.take(pair, out=move_cost, mode="wrap")
        gathered += move_cost
        np.minimum.reduceat(seg_moves, kt.starts, out=low_best)
        for succ_v, b, c, deep_pair in deep:
            np.add(succ_v, costs[deep_pair], out=c)
            np.minimum(b, c, out=b)
        yield nu, v, choice_best
        np.bitwise_and(best, value_bits, out=live_v)


def _backward(table, alpha_n: int, h_max: int, dead: int, kept: int = 0):
    """The pass of _stages on the weight table of _weight_table and the
    weight alpha_n of gap n, and what it keeps of its stages.

    Returns V_1(0), the int8 policy of every stage over the states below
    2^(h_max-1), and the next values v of the lowest `kept` stages as a
    kept x (2^h_max + 1) array: row nu-1 is V_{nu+1} << _LEVEL_BITS, dead
    slot included, from which _thin_margins reads the candidates of stage
    nu <= kept. Every other state has at most one feasible level, which
    _walk computes from the state, so the policy is n x 2^(h_max-1).
    A pass in a machine-integer dtype, int32 or int64, stores the low byte
    of each packed best, the level in its low _LEVEL_BITS bits and value
    bits above, which _walk masks out: one plain int8 write per stage from
    the view that _stages yields. Masking the level out by a Python int
    instead made int32 passes 10-15% slower than int64 ones at n = 10..80,
    and np.copyto(..., casting="unsafe") took 0.50 µs a row where the plain
    write takes 0.32 µs. Python ints do not fit int8, so the object pass
    stores the level alone, and keeps no rows; the dtype picks one of the
    two loops once per pass.
    A dead V_1(0) raises InfeasibleHeightError.
    """
    policy = np.empty((table.shape[1], 1 << (h_max - 1)), np.int8)
    rows = np.empty((kept, (1 << h_max) + 1), table.dtype)
    stages = _stages(table, alpha_n, h_max, dead)
    if table.dtype == object:
        for nu, _, best in stages:
            policy[nu - 1] = best & _LEVEL_MASK
    else:
        for nu, v, best in stages:
            policy[nu - 1] = best
            if nu <= kept:
                rows[nu - 1] = v
    value = int(best[0]) >> _LEVEL_BITS
    if value >= dead:
        raise InfeasibleHeightError("no feasible tree within the height bound")
    return value, policy, rows


def _walk(policies):
    """Decisions along the policy from the all-zero state, and the states
    they are taken in.

    The policy of _backward covers the states below 2^(h_max-1), h_max
    read from its width; a state's level is the low _LEVEL_BITS bits of its
    byte, whatever the bits above hold. A state s at or above has no level
    above its top set bit h_max-1, so its one move, where its value is
    finite, is its shallow level q-1, q the lowest bit of the run of set
    bits ending at h_max-1: the top set bit of (2^h_max - 1) ^ s."""
    half = policies.shape[1]
    full = 2 * half - 1
    levels, visited = [], []
    s = 0
    for nu in range(len(policies)):
        visited.append(s)
        a = policies.item(nu, s) & _LEVEL_MASK if s < half else (full ^ s).bit_length() - 1
        levels.append(a)
        s = (s & ((1 << a) - 1)) | (1 << a)
    return levels, visited


def _thin_margins(table, alpha_n: int, h_max: int, dead: int, visited, rows):
    """Which walked decisions of a pass on the int64 weight table of
    _weight_table and the weight alpha_n of gap n have a margin too thin to
    certify them, as n booleans. It reads the same table as the pass: the
    weights are not converted again.

    The candidates of stage nu read V_{nu+1} at the successor
    transition(s, a) of its visited state s under every level a, the dead
    slot 2^h_max where a is not feasible in s. Stages nu <= k read rows, the
    next values _backward kept of the lowest k stages of the same pass; the
    stages above k, if any, one recompute that _stages ends at stage k+1.
    With p the top set bit of s, the packed candidate of a is that value
    plus (1+max(p, a))*alpha + (a+1)*beta and level a, and the least one is
    the walked decision's. Entry nu-1 is True when another candidate is at
    most (E_nu+1) << _LEVEL_BITS above it, with E_nu = (h_max+1)(2(n-nu)+3)
    the rounding bound of stage nu.
    """
    n = table.shape[1]
    s = np.array(visited)[:, None]
    a = np.arange(h_max)
    p = np.frexp(s)[1] - 1  # the top set bit, -1 for 0
    bit = 1 << a
    succ = np.where(st.is_feasible(s, a), (s & (bit - 1)) | bit, 1 << h_max)
    k = len(rows)
    cand = np.empty(succ.shape, np.int64)
    cand[:k] = np.take_along_axis(rows, succ[:k], axis=1)
    for nu, v, _ in _stages(table, alpha_n, h_max, dead, k + 1) if k < n else ():
        v.take(succ[nu - 1], out=cand[nu - 1], mode="wrap")
    alpha_nu, beta_nu = table[0, :, None], table[1, :, None]
    cand += (((1 + np.maximum(p, a)) * alpha_nu + (a + 1) * beta_nu) << _LEVEL_BITS) + a
    cand -= cand.min(axis=1, keepdims=True)
    e_nu = (h_max + 1) * (2 * (n - np.arange(n)[:, None]) + 1)
    return np.count_nonzero(cand <= (e_nu + 1) << _LEVEL_BITS, axis=1) > 1


def _kernel_pass(weights, h_max: int) -> Tuple[int, int, DecisionSequence, str]:
    """Backward and forward pass over all 2^h_max states, in NumPy, on the
    integer weights (d, alpha, beta) of ProblemInstance.integer_weights().

    Returns (low, error, decisions, path), low and error integers over the
    common denominator d: the optimal cost lies in [low/d, (low + error)/d],
    and error is 0 unless the path is "int64-floored". Each pass converts
    its weights, floored or exact, once, into the table of _weight_table
    in the pass's dtype, which its stages and _thin_margins read.

    One pass runs on the weights floored to multiples of 2^K, with K from
    _grid_bits, and the walk follows its policy. K = 0 when every packed
    exact value fits int64, with the dead sentinel 1 above every finite
    value: the pass is exact. It runs in int32, the "int32" path, when
    every packed value fits int32 too, as for uniform weights up to
    n = 2500 or so, which halves the bytes each relaxation moves; else in
    int64, the "int64" path. When the exact values do not fit int64, K >= 1
    is the smallest grid on which the floored values fit with dead E_1 + 2
    above them, the "int64-floored" path. In units of 2^K each floored
    weight is low by less than 1 and every coefficient is at most h+1, so
    V_nu is low by less than E_nu = (h+1)(2(n-nu)+3) and each stage-nu
    candidate by less than E_nu as well. A decision whose candidate beats
    every other one by more than E_nu is the unique exact argmin, which no
    tie rule decides, so it is the exact decision. _thin_margins checks
    that at every walked state; a dead candidate, E_1 + 2 above every
    finite value, never fails it. The floored pass keeps the next values of
    its lowest k stages, k = n or as many as fit in _ROW_BUDGET bytes, and
    the check recomputes only stages n..k+1, none when k = n. The floored
    pass and its check stay int64: a grid that fits int32 would be 2^32
    times coarser, and its rounding bound would leave most walked margins
    thin. On a thinner margin the pass reruns on the exact weights in
    Python ints, the "object" path, which keeps no rows.

    A width outside 1..states.TABLE_MAX_WIDTH, or a policy above
    states.POLICY_MAX_BYTES, raises ValueError before any table is built.
    """
    _, alpha, beta = weights
    n = len(beta)
    st.check_policy_size(n, h_max)
    total = sum(alpha) + sum(beta)
    exact = _grid_bits(total, h_max, 1, _INT64_MAX) == 0
    error = 0 if exact else (h_max + 1) * (2 * n + 1)  # E_1
    slack = error + 2 if error else 1
    shift = _grid_bits(total, h_max, slack, _INT64_MAX)
    dead = (h_max + 1) * (total >> shift) + slack
    kept = min(n, _ROW_BUDGET // (8 * ((1 << h_max) + 1))) if shift else 0
    dtype, path = np.int64, "int64-floored" if shift else "int64"
    if _grid_bits(total, h_max, 1, _INT32_MAX) == 0:
        dtype, path = np.int32, "int32"
    table, alpha_n = _weight_table(alpha, beta, dtype, shift), alpha[n] >> shift
    value, policies, rows = _backward(table, alpha_n, h_max, dead, kept)
    levels, visited = _walk(policies)
    del policies  # before a certificate pass allocates its own tables
    if shift and _thin_margins(table, alpha_n, h_max, dead, visited, rows).any():
        del rows  # the exact rerun keeps nothing of the floored pass
        exact_table = _weight_table(alpha, beta, object)
        value, policies, _ = _backward(exact_table, alpha[n], h_max, (h_max + 1) * total + 1)
        levels = _walk(policies)[0]
        shift, error, path = 0, 0, "object"
    ds = DecisionSequence(levels=tuple(levels), h_max=h_max)
    return value << shift, error << shift, ds, path


# ---------------------------------------------------------------------------
# Entry points


def solve(inst: ProblemInstance, delta: int = 0) -> Solution:
    """Optimal tree with height at most h_min(n) + delta.

    The bound is instance.height_bound(n, delta), clamped to n; the Solution
    and its decisions report it. A bound above states.TABLE_MAX_WIDTH, or a
    policy above states.POLICY_MAX_BYTES, raises ValueError before any table
    is built. The cost is the exact weighted path length of the rebuilt
    tree; RuntimeError is raised unless the kernel's value lies at most its
    rounding bound below it, a bound that is 0 on the exact paths. The check
    compares integers over the common denominator d: the kernel's bounds,
    and the wpl's numerator scaled by d over its denominator, which divides
    d. The empty instance (bound 0) skips only the kernel.
    """
    n = inst.n
    h_max = height_bound(n, delta)
    weights = inst.integer_weights()
    if n == 0:
        low, error, ds = 0, 0, DecisionSequence(levels=(), h_max=0)
    else:
        low, error, ds, _path = _kernel_pass(weights, h_max)
    tree = build_tree_from_decisions(ds, n)
    wpl = weighted_path_length(tree, inst, weights=weights)
    d = weights[0]
    if not low <= wpl.numerator * (d // wpl.denominator) <= low + error:
        raise RuntimeError(
            f"solver cost {Fraction(low, d)} (rounding bound {Fraction(error, d)}) "
            f"differs from the tree's wpl {wpl}"
        )
    return Solution(cost=wpl, decisions=ds, tree=tree)


def solve_with_max_height(inst: ProblemInstance, max_height: int) -> Solution:
    """Like solve, but with an absolute height cap instead of slack. A
    max_height that is not an int (a bool included) raises ValueError."""
    if type(max_height) is not int:
        raise ValueError(f"max_height must be an integer, got {max_height!r}")
    hm = h_min(inst.n)
    if max_height < hm:
        raise InfeasibleHeightError(
            f"no tree of height <= {max_height} exists for n = {inst.n} "
            f"(h_min = {hm})"
        )
    return solve(inst, delta=max_height - hm)
