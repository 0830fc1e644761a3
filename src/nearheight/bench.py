"""Operation counting and scaling runs for the complexity claims.

Relaxation counts (sum of |D(s)| over the reachable states of every stage)
are deterministic and machine independent; wall clock is recorded for
human inspection only. Counts are taken at solve()'s height bound,
instance.height_bound(n, delta).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import List, Optional

from .instance import format_weight, generate_random_instance, height_bound
from .solver import solve
from . import states


def state_set_bound(n: int, delta: int) -> int:
    """Cardinality bound 2^(delta+1) * (n+1) for every reachable state set."""
    return (1 << (delta + 1)) * (n + 1)


def decision_set_bound(n: int, delta: int) -> int:
    """Bound 2^(delta+2) * (n+1) on the per-stage feasible-decision total."""
    return (1 << (delta + 2)) * (n + 1)


@dataclass
class RunReport:
    n: int
    delta: int
    seed: Optional[int]
    state_counts: List[int]  # |S_nu| for nu = 1..n+1
    decision_counts: List[int]  # sum |D(s)| over S_nu for nu = 1..n
    wall_clock_s: Optional[float]
    wpl: Optional[str]

    @property
    def relaxation_count(self) -> int:
        return sum(self.decision_counts)

    @property
    def max_state_count(self) -> int:
        return max(self.state_counts)

    @property
    def max_decision_count(self) -> int:
        return max(self.decision_counts)

    @property
    def theorem1_ok(self) -> bool:
        return self.max_state_count <= state_set_bound(self.n, self.delta)

    @property
    def theorem2_ok(self) -> bool:
        bound = decision_set_bound(self.n, self.delta)
        return (
            self.max_decision_count <= bound
            and self.relaxation_count <= self.n * bound
        )

    def to_obj(self) -> dict:
        return {
            "n": self.n,
            "delta": self.delta,
            "seed": self.seed,
            "relaxation_count": self.relaxation_count,
            "state_counts": self.state_counts,
            "decision_counts": self.decision_counts,
            "wall_clock_s": self.wall_clock_s,
            "wpl": self.wpl,
            "state_set_bound": state_set_bound(self.n, self.delta),
            "decision_set_bound": decision_set_bound(self.n, self.delta),
            "theorem1_ok": self.theorem1_ok,
            "theorem2_ok": self.theorem2_ok,
            "policy_bytes": states.policy_bytes(self.n, height_bound(self.n, self.delta)),
        }


CSV_HEADER = (
    "n,delta,seed,relaxation_count,max_state_count,max_decision_count,"
    "wall_clock_s,wpl"
)


def report_to_csv_row(r: RunReport) -> str:
    wall = "" if r.wall_clock_s is None else f"{r.wall_clock_s:.6f}"
    return (
        f"{r.n},{r.delta},{'' if r.seed is None else r.seed},"
        f"{r.relaxation_count},{r.max_state_count},{r.max_decision_count},"
        f"{wall},{r.wpl or ''}"
    )


def state_stats(n: int, delta: int) -> RunReport:
    """Reachable-state and decision-set counts only, no solve, at the height
    bound solve() uses (instance.height_bound)."""
    sizes, sums = states.stage_counts(n, height_bound(n, delta))
    return RunReport(n, delta, seed=None, state_counts=sizes, decision_counts=sums,
                     wall_clock_s=None, wpl=None)


def run_scaling(
    sizes: List[int],
    delta: int,
    reps: int = 3,
    seed: int = 1,
    dist: str = "uniform",
) -> List[RunReport]:
    """Solve reps random instances per size; one report per (size, rep)."""
    if not sizes or list(sizes) != sorted(sizes):
        raise ValueError("sizes must be nonempty and ascending")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    reports = []
    for n in sizes:
        counts = state_stats(n, delta)
        for rep in range(reps):
            inst_seed = seed * 1_000_003 + rep
            inst = generate_random_instance(n, inst_seed, dist=dist)
            t0 = time.perf_counter()
            sol = solve(inst, delta)
            wall = time.perf_counter() - t0
            reports.append(
                replace(counts, seed=inst_seed, wall_clock_s=wall, wpl=format_weight(sol.cost))
            )
    return reports
