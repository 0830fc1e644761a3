"""Rightmost-path occupancy states encoded as fixed-width bit masks.

Bit i of a state records whether level i of the rightmost path currently
holds a key (level 0 = least significant bit). is_feasible is the one
statement of the decision sets D(s), for ints and NumPy arrays alike. The
scalar functions take a state of any width; the tables over all 2^h_max
states (capacity_profile, and the StageSets and stage_counts built on it)
refuse widths outside 1..TABLE_MAX_WIDTH before allocating anything, and
check_policy_size refuses the solver's n x 2^(h_max-1) policy
(policy_bytes) above POLICY_MAX_BYTES.
"""

from __future__ import annotations

from typing import List

import numpy as np

# A table holds 2^h_max slots; the solver's kernel keeps n half tables as
# its policy, and at width 24, n = 24 peaks at about 0.9 GB RSS.
TABLE_MAX_WIDTH = 24
# The kernel's policy holds one byte per stage and state below 2^(h_max-1)
# (policy_bytes): n = 16000 at width 17 takes 1 GB, n = 1000 at width 24
# would take 8 GB.
POLICY_MAX_BYTES = 1 << 32


def h_min(n: int) -> int:
    """Minimum height of a binary search tree on n keys, ceil(log2(n+1))."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return n.bit_length()


class WidthError(ValueError):
    """A table width outside 1..TABLE_MAX_WIDTH."""


def _check_table_width(h_max: int):
    if h_max < 1:
        raise WidthError(f"h_max must be in 1..{TABLE_MAX_WIDTH}, got {h_max}")
    if h_max > TABLE_MAX_WIDTH:
        raise WidthError(
            f"height bound {h_max} above the table width limit {TABLE_MAX_WIDTH}"
        )


def policy_bytes(n: int, h_max: int) -> int:
    """Bytes of the solver's policy: one per stage and state below
    2^(h_max-1). Every state at or above has at most one feasible level."""
    return n << (h_max - 1)


def check_policy_size(n: int, h_max: int):
    """Refuse a width outside 1..TABLE_MAX_WIDTH (WidthError), then a policy
    of policy_bytes(n, h_max) above POLICY_MAX_BYTES (ValueError)."""
    _check_table_width(h_max)
    need = policy_bytes(n, h_max)
    if need > POLICY_MAX_BYTES:
        raise ValueError(
            f"policy table for n = {n} at height bound {h_max} needs {need} "
            f"bytes, above the limit of {POLICY_MAX_BYTES}"
        )


def is_feasible(s, a):
    """A key may go on level a iff the level is free and every occupied
    level above a forms a contiguous run starting at a+1: with t = s >> a,
    bit 0 of t is clear and t >> 1 is 2^k - 1, which is t & (t + 2) == 0.
    Takes ints, or NumPy integer arrays that broadcast to the answers."""
    t = s >> a
    return (t & (t + 2)) == 0


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


def capacity_profile(h_max: int):
    """Per-state key-count interval and decision degree, for all 2^h_max states.

    A state s is reachable with m keys placed iff
    popcount(s) <= m <= sum over set bits i of 2^(h_max-1-i):
    the lower end places one key per occupied rightmost-path level, the
    upper end additionally fills every left subtree hanging off that path.
    The degree |D(s)| counts the levels above the top set bit, plus the one
    just below the run of set bits ending there unless that run reaches
    level 0: h_max - bit_length(s) + [s & (s+1) != 0]. Returns
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
    _, length = np.frexp(s)  # bit_length(s), exact below 2^53
    degree = (h_max - length + ((s & (s + 1)) != 0)).astype(np.int8)
    return min_keys, max_keys, degree


def stage_counts(n: int, h_max: int):
    """(|S_nu| for nu=1..n+1, sum |D(s)| over S_nu for nu=1..n) in
    O(2^h_max + n) via the capacity characterization."""
    if n < 1:
        raise ValueError("n must be >= 1")
    min_keys, max_keys, degree = capacity_profile(h_max)
    hi = np.minimum(max_keys, n)
    live = min_keys <= hi
    lo, hi = min_keys[live], hi[live] + 1
    # S_nu holds the states with lo <= nu-1 < hi; the degree-weighted float
    # sums are exact, every partial sum being far below 2^53
    sizes, sums = (
        np.cumsum(np.bincount(lo, w, n + 2) - np.bincount(hi, w, n + 2))
        for w in (None, degree[live])
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
