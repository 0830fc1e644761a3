"""Benchmark workloads: fixed instance shapes whose weights come from the seed.

A shape is (n, delta, dist, zero_alpha). The shapes of a workload never
depend on the seed, so runs with different seeds load the solver the same
way and differ only in the drawn weights; the seed makes the inputs, never
the amount of work.
"""

from __future__ import annotations

from dataclasses import dataclass


def _small_mixed():
    # n spaced cubically over 1..80 so most calls are cheap and per-call
    # overhead shows; delta 0..2 at every n and 3 (large slack) up to n = 48,
    # since delta 3 at n > 48 would take half of every pass; a quarter
    # zero-alpha.
    shapes = []
    for j in range(40):
        n = round(1 + 79 * (j / 39) ** 3)
        for delta in range(4):
            if delta < 3 or n <= 48:
                shapes.append((n, delta, "uniform", (j + delta) % 4 == 0))
    return shapes


SHAPES = {
    # Two deep (many narrow stages), two wide (few wide stages) and two
    # zero-alpha solves, sized to take about the same time each (0.6-0.9 s
    # on a 2-vCPU machine), so that a run times each of them several times.
    "large-int64": [
        (2000, 1, "uniform", False),
        (800, 3, "uniform", False),
        (1200, 2, "uniform", True),
    ] * 2,
    "small-mixed": _small_mixed(),
    # n > 80, so a dict-engine solve here comes from int64 overflow of the
    # lcm(1..n+1) scaling, not from the small-n engine switch. With an odd
    # count the median is one instance of the cheap cluster, not the mean
    # of two instances on either side of the gap above it.
    "bigint-zipf": [
        (n, delta, "zipf", False)
        for n, delta in [
            (96, 0), (96, 1), (96, 2), (112, 1), (128, 0), (128, 1), (128, 2),
            (160, 0), (160, 1), (192, 0), (192, 1), (224, 0), (256, 0),
        ]
    ],
}

# Workloads whose solves ran on the NumPy engine when the benchmark was
# defined; their reference work (run.reference_work) is half NumPy calls,
# the others' is all interpreter work, so that the reference slows down
# with the machine as their solves do.
NUMPY_REFERENCE = {"large-int64"}

# Cases with n up to this size are also checked against the independent
# height-restricted interval DP (cubic, so only small instances).
ORACLE_MAX_N = {"large-int64": 0, "small-mixed": 20, "bigint-zipf": 0}


@dataclass(frozen=True)
class Case:
    index: int
    n: int
    delta: int
    dist: str
    zero_alpha: bool
    h_max: int
    inst: object  # nearheight.ProblemInstance


def build(nh, name: str, seed: int) -> list:
    """The workload's instances for `seed`, made by the package's own
    generator; `nh` is the imported nearheight package."""
    return [
        Case(
            index=i,
            n=n,
            delta=delta,
            dist=dist,
            zero_alpha=zero_alpha,
            h_max=nh.h_min(n) + delta,
            inst=nh.generate_random_instance(
                n, seed * 1000 + i, dist=dist, zero_alpha=zero_alpha
            ),
        )
        for i, (n, delta, dist, zero_alpha) in enumerate(SHAPES[name])
    ]
