"""Independent reference algorithms for validating the solver.

None of these share solver code paths: exhaustive shape enumeration, a
plain cubic unrestricted interval DP, and an interval-times-height-budget
DP in the style of the classical height-restricted algorithms. They share
only the weight scaling, ProblemInstance.integer_weights(), which the
tests check against the rational weights directly.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterator, Optional, Tuple

import numpy as np

from .instance import (
    DecisionSequence,
    External,
    Internal,
    Node,
    ProblemInstance,
    h_min,
    key_levels,
)
from .solver import InfeasibleHeightError, Solution

MAX_ENUM_KEYS = 14  # Catalan growth cap

# A shape is None (empty) or (root_key_index, left_shape, right_shape).
TreeShape = Optional[Tuple]


def enumerate_trees(n: int) -> Iterator[TreeShape]:
    """Every binary tree shape on keys 1..n, ordered by root index, then
    left sub-shape, then right sub-shape."""
    if not 0 <= n <= MAX_ENUM_KEYS:
        raise ValueError(f"n must be in 0..{MAX_ENUM_KEYS}")
    yield from _shapes(1, n)


def _shapes(lo: int, hi: int) -> Iterator[TreeShape]:
    if lo > hi:
        yield None
        return
    for r in range(lo, hi + 1):
        for left in _shapes(lo, r - 1):
            for right in _shapes(r + 1, hi):
                yield (r, left, right)


def shape_to_tree(shape: TreeShape, n: int) -> Node:
    """Materialize a shape as a level-annotated tree with gap externals."""

    def build(sh, lo, hi, level):
        if sh is None:
            return External(gap=lo - 1, level=level)
        r, left, right = sh
        return Internal(
            key=r,
            level=level,
            left=build(left, lo, r - 1, level + 1),
            right=build(right, r + 1, hi, level + 1),
        )

    return build(shape, 1, n, 0)


def shape_height(shape: TreeShape) -> int:
    """Deepest external level of the shape."""
    if shape is None:
        return 0
    return 1 + max(shape_height(shape[1]), shape_height(shape[2]))


def _interval_weight_fn(alpha, beta):
    """w(i, j): total weight of keys i..j plus their bounding gaps.

    Every node of a subtree over that interval pays w once per level it is
    pushed down, so wpl(shape) = sum of w over all recursive intervals.
    """
    n = len(beta)
    prefix = [0] * (n + 1)  # prefix[j] = alpha_0..alpha_j + beta_1..beta_j
    acc = alpha[0]
    prefix[0] = acc
    for k in range(1, n + 1):
        acc += beta[k - 1] + alpha[k]
        prefix[k] = acc

    def w(i, j):  # empty interval (j = i-1) yields alpha_{i-1}
        return prefix[j] - prefix[i - 1] + alpha[i - 1] if j >= i else alpha[i - 1]

    return w


def brute_force_optimum(inst: ProblemInstance, max_height: int) -> Solution:
    """Exhaustive minimum over every shape with height <= max_height.

    Ties resolve to the first shape in enumeration order. Costs are built
    bottom-up per interval: cost(shape) = cost(left) + cost(right) + w(i,j),
    which equals the weighted path length of the materialized tree.
    """
    n = inst.n
    if n > MAX_ENUM_KEYS:
        raise ValueError(f"brute force capped at n = {MAX_ENUM_KEYS}")
    if max_height < h_min(n):
        raise InfeasibleHeightError(
            f"no tree of height <= {max_height} exists for n = {n}"
        )
    denom, alpha, beta = inst.integer_weights()
    w = _interval_weight_fn(alpha, beta)

    # Exhaustive (cost, height) per shape, in enumeration order per interval,
    # as NumPy arrays: costs in int64 when every cost fits, else in exact
    # Python ints (object dtype).
    dtype = np.int64 if (n + 1) * w(1, n) < 1 << 62 else object

    memo = {}

    def lists(i, j):
        if i > j:
            return (np.zeros(1, dtype=dtype), np.zeros(1, dtype=np.int64))
        got = memo.get((i, j))
        if got is None:
            wij = w(i, j)
            costs, heights = [], []
            for r in range(i, j + 1):
                cl, hl = lists(i, r - 1)
                cr, hr = lists(r + 1, j)
                costs.append((cl[:, None] + cr[None, :] + wij).ravel())
                heights.append((1 + np.maximum(hl[:, None], hr[None, :])).ravel())
            got = memo[(i, j)] = (np.concatenate(costs), np.concatenate(heights))
        return got

    costs, heights = lists(1, n)
    mask = heights <= max_height
    if not mask.any():
        raise InfeasibleHeightError(
            f"no tree of height <= {max_height} exists for n = {n}"
        )
    best_cost = int(costs[mask].min())
    winner = int(np.flatnonzero(mask & (costs == best_cost))[0])

    tree = shape_to_tree(shape_at_index(1, n, winner), n)
    return Solution(
        cost=Fraction(best_cost, denom),
        decisions=DecisionSequence(levels=key_levels(tree), h_max=max_height),
        tree=tree,
    )


def _catalan(m: int) -> int:
    return comb(2 * m, m) // (m + 1)


def shape_at_index(lo: int, hi: int, idx: int) -> TreeShape:
    """Shape at position idx of the interval's enumeration order."""
    if lo > hi:
        if idx != 0:
            raise IndexError("empty interval has a single shape")
        return None
    for r in range(lo, hi + 1):
        left_count = _catalan(r - lo)
        right_count = _catalan(hi - r)
        block = left_count * right_count
        if idx < block:
            return (
                r,
                shape_at_index(lo, r - 1, idx // right_count),
                shape_at_index(r + 1, hi, idx % right_count),
            )
        idx -= block
    raise IndexError("shape index out of range")


def knuth_unrestricted(inst: ProblemInstance) -> Solution:
    """Unrestricted optimum via the classical interval DP, with plain cubic
    root splitting (no monotonicity speedup)."""
    n = inst.n
    denom, alpha, beta = inst.integer_weights()
    w = _interval_weight_fn(alpha, beta)

    # e[i][j]: optimal wpl of a subtree over keys i..j rooted at relative level 0
    e = [[0] * (n + 1) for _ in range(n + 2)]
    root = [[0] * (n + 1) for _ in range(n + 2)]
    for length in range(1, n + 1):
        for i in range(1, n - length + 2):
            j = i + length - 1
            wij = w(i, j)
            best = None
            best_r = None
            for r in range(i, j + 1):
                c = e[i][r - 1] + e[r + 1][j] + wij
                if best is None or c < best:
                    best = c
                    best_r = r
            e[i][j] = best
            root[i][j] = best_r

    def build_shape(i, j):
        if i > j:
            return None
        r = root[i][j]
        return (r, build_shape(i, r - 1), build_shape(r + 1, j))

    tree = shape_to_tree(build_shape(1, n), n)
    return Solution(
        cost=Fraction(e[1][n], denom),
        decisions=DecisionSequence(levels=key_levels(tree), h_max=n),
        tree=tree,
    )


def height_restricted_dp(inst: ProblemInstance, max_height: int) -> Solution:
    """Optimum over trees of height <= max_height via an interval-by-budget
    DP (O(L n^3) with plain root splitting)."""
    n = inst.n
    if max_height < h_min(n):
        raise InfeasibleHeightError(
            f"no tree of height <= {max_height} exists for n = {n}"
        )
    denom, alpha, beta = inst.integer_weights()
    w = _interval_weight_fn(alpha, beta)

    # best[(i, j, h)]: optimal cost over keys i..j with every external of
    # the subtree at relative level <= h; None when infeasible.
    memo = {}

    def best(i, j, h):
        if i > j:
            return 0
        if h < 1:
            return None
        key = (i, j, h)
        got = memo.get(key, memo)
        if got is not memo:
            return got[0] if got else None
        wij = w(i, j)
        out = None
        for r in range(i, j + 1):
            cl = best(i, r - 1, h - 1)
            if cl is None:
                continue
            cr = best(r + 1, j, h - 1)
            if cr is None:
                continue
            c = cl + cr + wij
            if out is None or c < out[0]:
                out = (c, r)
        memo[key] = out
        return out[0] if out else None

    total = best(1, n, max_height)
    if total is None:
        raise InfeasibleHeightError(
            f"no tree of height <= {max_height} exists for n = {n}"
        )

    def build_shape(i, j, h):
        if i > j:
            return None
        r = memo[(i, j, h)][1]
        return (r, build_shape(i, r - 1, h - 1), build_shape(r + 1, j, h - 1))

    tree = shape_to_tree(build_shape(1, n, max_height), n)
    return Solution(
        cost=Fraction(total, denom),
        decisions=DecisionSequence(levels=key_levels(tree), h_max=max_height),
        tree=tree,
    )
