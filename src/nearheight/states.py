"""Rightmost-path occupancy states encoded as fixed-width bit masks.

Bit i of a state records whether level i of the rightmost path currently
holds a key (level 0 = least significant bit). The scalar functions take a
state of any width; the tables over all 2^h_max states (decision_table,
capacity_profile, and the StageSets and stage_counts built on it) refuse
widths outside 1..TABLE_MAX_WIDTH before allocating anything.
"""

from __future__ import annotations

from typing import List, NamedTuple

import numpy as np

from .instance import h_min

# A table holds 2^h_max slots; the solver's kernel keeps n of them as its
# policy, and at width 24, n = 24 peaks at about 1.4 GB RSS.
TABLE_MAX_WIDTH = 24


class WidthError(ValueError):
    """A table width outside 1..TABLE_MAX_WIDTH."""


def _check_table_width(h_max: int):
    if h_max < 1:
        raise WidthError(f"h_max must be in 1..{TABLE_MAX_WIDTH}, got {h_max}")
    if h_max > TABLE_MAX_WIDTH:
        raise WidthError(
            f"height bound {h_max} above the table width limit {TABLE_MAX_WIDTH}"
        )


def is_feasible(s: int, a: int) -> bool:
    """A key may go on level a iff the level is free and every occupied
    level above a forms a contiguous run starting at a+1."""
    if (s >> a) & 1:
        return False
    high = s >> (a + 1)
    return (high & (high + 1)) == 0


def feasible_decisions(s: int, h_max: int) -> List[int]:
    """All feasible levels for state s, ascending."""
    return [a for a in range(h_max) if is_feasible(s, a)]


def transition(s: int, a: int) -> int:
    """Occupy level a; levels above a become unoccupied."""
    if not is_feasible(s, a):
        raise ValueError(f"decision {a} infeasible in state {bin(s)}")
    return (s & ((1 << a) - 1)) | (1 << a)


def precdec(s: int) -> int:
    """Level of the previously placed key: highest set bit (0 for the
    all-zero state)."""
    return s.bit_length() - 1 if s else 0


def is_terminal_valid(s: int) -> bool:
    """True iff the set bits form a contiguous prefix from level 0."""
    return s != 0 and (s & (s + 1)) == 0


def state_to_bits(s: int, h_max: int) -> str:
    """Render as a bit string from level 0 upward, e.g. '101'."""
    return "".join("1" if (s >> i) & 1 else "0" for i in range(h_max))


class DecisionTable(NamedTuple):
    """Closed-form decision sets of all 2^h_max states, indexed by state.

    Let p be the top set bit of s and q the lowest bit of the run of set
    bits ending at p. Then D(s) = {q-1 if q >= 1} | {p+1, ..., h_max-1}
    (for s = 0, every level). A deep level a > p takes s to s + 2^a; the one
    shallow level q-1 < p is given here with its successor.
    """

    top: np.ndarray  # p = precdec(s), -1 for s = 0 (int8)
    shallow: np.ndarray  # q-1, or -1 when s has no level below p (int8)
    shallow_next: np.ndarray  # transition(s, q-1), or 2^h_max when none (intp)


_TABLE_CACHE = {}


def decision_table(h_max: int) -> DecisionTable:
    """The DecisionTable of width h_max, built once per width and cached
    at 10 bytes per state."""
    _check_table_width(h_max)
    cached = _TABLE_CACHE.get(h_max)
    if cached is not None:
        return cached
    size = 1 << h_max
    s = np.arange(size, dtype=np.int64)
    top = np.full(size, -1, dtype=np.int64)
    for i in range(h_max):
        top[1 << i : 2 << i] = i
    # complementing bits 0..p turns the run ending at p into zeros, so the
    # top set bit of what is left is q-1
    shallow = top[s ^ ((1 << (top + 1)) - 1)]
    has = shallow >= 0
    low = np.where(has, 1 << np.maximum(shallow, 0), 0)
    shallow_next = np.where(has, (s & (low - 1)) | low, size)
    table = DecisionTable(top.astype(np.int8), shallow.astype(np.int8), shallow_next)
    _TABLE_CACHE[h_max] = table
    return table


def capacity_profile(h_max: int):
    """Per-state key-count interval and decision degree, for all 2^h_max states.

    A state s is reachable with m keys placed iff
    popcount(s) <= m <= sum over set bits i of 2^(h_max-1-i):
    the lower end places one key per occupied rightmost-path level, the
    upper end additionally fills every left subtree hanging off that path.
    The degree |D(s)| is read off the DecisionTable. Returns
    (min_keys, max_keys, degree) indexed by state, as int64, int64 and int8.
    """
    _check_table_width(h_max)
    s = np.arange(1 << h_max, dtype=np.int64)
    min_keys = np.zeros_like(s)
    max_keys = np.zeros_like(s)
    for i in range(h_max):
        bit = (s >> i) & 1
        min_keys += bit
        max_keys += bit << (h_max - 1 - i)
    tab = decision_table(h_max)
    return min_keys, max_keys, (tab.shallow >= 0) + (h_max - 1 - tab.top)


def stage_counts(n: int, h_max: int):
    """(|S_nu| for nu=1..n+1, sum |D(s)| over S_nu for nu=1..n) in
    O(2^h_max + n) via the capacity characterization."""
    if n < 1:
        raise ValueError("n must be >= 1")
    min_keys, max_keys, degree = capacity_profile(h_max)
    hi = np.minimum(max_keys, n)
    live = min_keys <= hi
    lo, hi, deg = min_keys[live], hi[live] + 1, degree[live]
    sizes = np.cumsum(np.bincount(lo, minlength=n + 2) - np.bincount(hi, minlength=n + 2))
    # float weights sum exactly: every partial sum is far below 2^53
    sums = np.cumsum(
        np.bincount(lo, weights=deg, minlength=n + 2)
        - np.bincount(hi, weights=deg, minlength=n + 2)
    )
    return sizes[: n + 1].tolist(), sums[:n].astype(np.int64).tolist()


class StageSets:
    """Reachable state sets S_1..S_{n+1} from the all-zero state.

    S_nu holds the states s with min_keys[s] <= nu-1 <= max_keys[s] of
    capacity_profile, which is the image of S_{nu-1} under all feasible
    transitions (S_1 = {0}).
    """

    def __init__(self, n: int, h_max: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        if h_max < h_min(n):
            raise ValueError(f"h_max {h_max} below h_min({n}) = {h_min(n)}")
        self.n = n
        self.h_max = h_max
        self._min_keys, self._max_keys, _ = capacity_profile(h_max)

    def states(self, nu: int) -> list:
        """Sorted state list of S_nu."""
        if not 1 <= nu <= self.n + 1:
            raise ValueError(f"stage {nu} outside 1..{self.n + 1}")
        m = nu - 1
        return np.flatnonzero((self._min_keys <= m) & (m <= self._max_keys)).tolist()
