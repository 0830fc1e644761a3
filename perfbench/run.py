#!/usr/bin/env python3
"""Benchmark of nearheight's solve(): one caller, closed loop, every output checked.

    python3 perfbench/run.py --workload small-mixed --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

The package is imported from the src/ directory next to this one, never
from site-packages. A run builds the workload's instances from --seed,
solves them in as many whole passes as fit in about --seconds (one caller,
no worker threads or processes), checks every output outside the timed region,
prints one line per metric with its unit and sample count, and ends with
one JSON line: {"correct", "attempted", "failed", "metrics"}.

End-to-end times are in seconds at reference speed: each measured time is
scaled by REF_S over the time of reference_work() measured next to it, so a
phase in which a shared machine runs everything slower scales out.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
reports the per-layer ones: each instance is solved once untraced and once
inside a root span, with spans recorded around the public functions that
solve() calls, and the spans are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import workloads  # noqa: E402

# Set-up runs once in this process and again in this many fresh processes;
# setup_s is the median, because import time alone varies run to run.
SETUP_PROBES = 10

# Each instance's time is the median of its passes, so it rests on three
# samples or more.
MIN_TIMED_PASSES = 3

# On a shared 2-vCPU machine the same code runs up to 1.6x slower in phases
# of seconds to minutes, so raw times of one run differ from the next by
# more than any bound could allow. reference_work() is timed at least every
# REF_EVERY_S seconds between solves, and every time is multiplied by REF_S
# over the mean of the two reference times around it. REF_S is roughly the
# reference's time on the 2-vCPU Xeon of baseline.json in a quiet phase, so
# scaled times read close to raw seconds there.
REF_S = 0.009
REF_EVERY_S = 0.1

# Printed in the table but kept out of the JSON metrics: p90 rests on the
# few heaviest instances, and the raw wall-clock median moves with the
# machine's load; both are shown to read beside the gated figures.
TABLE_ONLY = {"solve_s.p90", "wall_s.p50"}

# Count self-check instance size: small enough for the dict engine at h = 14.
COUNT_CHECK_MAX_N = 8


def reference_work(numpy_share: bool) -> int:
    """Fixed work of the kinds solve() spends its time on: small-integer
    arithmetic, dict and tuple churn and big-integer arithmetic in the
    interpreter, and with `numpy_share` half of it in NumPy calls on int64
    arrays that fit in cache instead. It uses nothing from nearheight, so no
    change to the package moves its time; only the machine's speed does.
    NumPy is imported here, not at the top, so that set-up pays for it."""
    rounds = 1 if numpy_share else 2
    x, table = 0, {}
    for i in range(10000 * rounds):
        x = (x * 31 + i) % 1000003
        table[i & 1023] = x
    pairs, kept = {}, []
    for i in range(3500 * rounds):
        key = (i & 255, i & 7)
        old = pairs.get(key)
        pairs[key] = i if old is None or old > i else old + 1
        if i & 15 == 0:
            kept.append([key, old])
    big, mins = 10**40 + 7, {}
    for i in range(4000 * rounds):
        big = (big * 3 + i) % (10**45 + 9)
        mins[i & 511] = min(big, mins.get(i & 511, big))
    if numpy_share:
        import numpy as np

        a = np.arange(8192, dtype=np.int64)
        b, c, idx = a[::-1].copy(), np.empty_like(a), (a * 7919) % 8192
        for _ in range(300):
            np.add(a, b, out=c)
            np.minimum(c, a, out=c)
            x += int(c.take(idx).argmin())
    return x + len(kept) + big % 97


class RefClock:
    """Reference times taken between timed calls, and the scale they give
    a call: REF_S over the mean of the reference times just before and just
    after it."""

    def __init__(self, numpy_share: bool):
        self.numpy_share = numpy_share
        self.ends: list = []  # perf_counter() when each reference ended
        self.times: list = []  # its duration

    def measure(self):
        t0 = time.perf_counter()
        reference_work(self.numpy_share)
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.times.append(t1 - t0)

    def measure_if_due(self):
        if not self.ends or time.perf_counter() - self.ends[-1] >= REF_EVERY_S:
            self.measure()

    def scale(self, started: float) -> float:
        """Factor for a call that started at `started`: from the reference
        times just before and just after it, or from the first two after it
        when none ran before. measure() must have run twice after the call
        or once before and once after it."""
        i = max(1, bisect.bisect_right(self.ends, started))
        return 2 * REF_S / (self.times[i - 1] + self.times[i])


def import_package():
    """Import nearheight from SRC; exit non-zero if it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import nearheight
        from nearheight import cli, instance, oracles, solver, states  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"run.py: cannot import nearheight from {SRC}: {exc}")
    if not Path(nearheight.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"run.py: nearheight imported from {nearheight.__file__}, not {SRC}")
    return nearheight


# ---------------------------------------------------------------------------
# Set-up


@dataclass
class Setup:
    total_s: float  # import + generation + reachability profiles, at reference speed
    generate_s: float
    profile_s: float | None  # None when states.capacity_profile is gone


def setup(name: str, seed: int):
    """Import the package, build the instances and fill the per-width
    reachability profiles, as a first solve in a fresh process would."""
    t0 = time.perf_counter()
    nh = import_package()
    t1 = time.perf_counter()
    cases = workloads.build(nh, name, seed)
    t2 = time.perf_counter()
    profile = getattr(nh.states, "capacity_profile", None)
    if profile is not None:
        for h in sorted({c.h_max for c in cases}):
            profile(h)
    t3 = time.perf_counter()
    # Measured after set-up only, so that importing NumPy stays in it.
    clock = RefClock(name in workloads.NUMPY_REFERENCE)
    clock.measure()
    clock.measure()
    return nh, cases, Setup((t3 - t0) * clock.scale(t0), t2 - t1, t3 - t2 if profile else None)


def setup_samples(name: str, seed: int, first: float) -> list:
    samples = [first]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


# ---------------------------------------------------------------------------
# Timed loop and output gate


@dataclass
class Record:
    case: workloads.Case
    seconds: float
    started: float  # perf_counter() when the timed call began
    failure: str | None  # None when every check passed
    digest: str | None  # of (cost, decisions), for a checked solution


def timed_solve(solve, case):
    """(solve's Solution or the exception it raised, seconds, start time)."""
    t0 = time.perf_counter()
    try:
        out = solve(case.inst, case.delta)
    except Exception as exc:  # counted as a failed solve by the gate
        out = exc
    return out, time.perf_counter() - t0, t0


def closed_loop(cases, seconds: float, step, min_passes: int = 1) -> int:
    """Call step(case) over whole passes of `cases`: as many passes as the
    first one says fit in `seconds`, at least `min_passes`. Whole passes
    keep the mix of instances the same on every run and every commit."""
    t0 = time.perf_counter()
    for case in cases:
        step(case)
    passes = max(min_passes, round(seconds / (time.perf_counter() - t0)))
    for _ in range(passes - 1):
        for case in cases:
            step(case)
    return passes


def check_solution(nh, case, sol, oracle_cost=None):
    """None if `sol` is a correct answer for `case`, else the reason."""
    if isinstance(sol, Exception):
        return f"raised {sol!r}"
    inst = nh.instance
    try:
        if inst.weighted_path_length(sol.tree, case.inst) != sol.cost:
            return "weighted path length of the tree differs from the cost"
        if inst.tree_height(sol.tree) > case.h_max:
            return f"height {inst.tree_height(sol.tree)} above {case.h_max}"
        if inst.count_keys(sol.tree) != case.n:
            return f"tree holds {inst.count_keys(sol.tree)} keys, not {case.n}"
        if inst.key_levels(sol.tree) != tuple(sol.decisions.levels):
            return "decisions differ from the tree's key levels"
    except (ValueError, AttributeError, TypeError) as exc:
        return f"malformed solution: {exc!r}"
    if oracle_cost is not None and sol.cost != oracle_cost:
        return f"cost {sol.cost} differs from the oracle's {oracle_cost}"
    return None


class Gate:
    """Checks each solution as soon as its timed call returns, so a run
    keeps no solution trees alive, then compares digests across solves."""

    def __init__(self, nh, name: str):
        self.nh = nh
        self.oracle_max_n = workloads.ORACLE_MAX_N[name]
        self.oracle = {}  # case index -> cost from the interval DP

    def check(self, case, sol, seconds: float, started: float = 0.0) -> Record:
        oracle_cost = None
        if case.n <= self.oracle_max_n:
            if case.index not in self.oracle:
                dp = self.nh.oracles.height_restricted_dp(case.inst, case.h_max)
                self.oracle[case.index] = dp.cost
            oracle_cost = self.oracle[case.index]
        failure = check_solution(self.nh, case, sol, oracle_cost)
        digest = None
        if failure is None:
            text = f"{sol.cost}|{','.join(map(str, sol.decisions.levels))}"
            digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        return Record(case, seconds, started, failure, digest)

    @staticmethod
    def compare_digests(records, digest_file: Path | None = None):
        """Fail every record whose digest differs from the first solve of
        the same instance in this run, or in earlier runs of the same seed
        kept in `digest_file`."""
        known = {}  # digest of (delta, instance) -> digest of (cost, decisions)
        if digest_file is not None and digest_file.exists():
            known = json.loads(digest_file.read_text())
        keys = {}
        for r in records:
            if r.digest is None:
                continue
            if r.case.index not in keys:
                text = f"{r.case.delta}|{r.case.inst.dumps()}"
                keys[r.case.index] = hashlib.sha256(text.encode()).hexdigest()[:16]
            want = known.setdefault(keys[r.case.index], r.digest)
            if r.digest != want:
                r.failure = f"digest {r.digest} differs from {want} of an earlier solve"
        if digest_file is not None:
            digest_file.parent.mkdir(parents=True, exist_ok=True)
            digest_file.write_text(json.dumps(known, sort_keys=True))


def count_self_check(nh, cases) -> list:
    """backward_pass must relax exactly the pairs states.stage_counts
    counts, on one small instance per width; returns the problems found."""
    backward = getattr(nh.solver, "backward_pass", None)
    counts = getattr(nh.states, "stage_counts", None)
    if backward is None or counts is None:
        return []
    problems = []
    by_width = {}
    for c in cases:
        by_width.setdefault(c.h_max, c)
    for h, c in sorted(by_width.items()):
        n = min(c.n, COUNT_CHECK_MAX_N)
        inst = nh.generate_random_instance(n, 0, dist=c.dist, zero_alpha=c.zero_alpha)
        got = backward(inst, h).relaxations
        want = sum(counts(n, h)[1])
        if got != want:
            problems.append(f"h={h} n={n}: backward_pass relaxed {got}, stage_counts {want}")
    return problems


# ---------------------------------------------------------------------------
# Metrics: name -> (value, unit, sample count)


def end_to_end_metrics(records, clock: RefClock, setup_s: list) -> dict:
    """Percentiles over the instances of each one's median time across
    passes, at reference speed; the rate is verified solves per second of
    all timed calls at reference speed."""
    scaled, raw = {}, {}
    for r in records:
        scaled.setdefault(r.case.index, []).append(r.seconds * clock.scale(r.started))
        raw.setdefault(r.case.index, []).append(r.seconds)
    typical = [statistics.median(v) for v in scaled.values()]
    p90 = (statistics.quantiles(typical, n=10, method="inclusive")[-1]
           if len(typical) > 1 else typical[0])
    verified = sum(r.failure is None for r in records)
    n = len(records)
    return {
        "solve_s.p50": (statistics.median(typical), "s", n),
        "solve_s.p90": (p90, "s", n),
        "wall_s.p50": (statistics.median(statistics.median(v) for v in raw.values()), "s", n),
        "solves_per_s": (verified / sum(v for vs in scaled.values() for v in vs), "1/s", n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
    }


# Wrapped functions: (owner path, attribute, span name). Module attributes
# are the names solve() looks up at call time.
WRAPPED = [
    ("instance.ProblemInstance", "require_valid", "instance.require_valid"),
    ("instance.ProblemInstance", "common_denominator", "instance.common_denominator"),
    ("solver", "build_tree_from_decisions", "instance.build_tree_from_decisions"),
    ("solver", "weighted_path_length", "instance.weighted_path_length"),
    ("states", "capacity_profile", "states.capacity_profile"),
    ("solver", "backward_pass", "solver.backward_pass"),
    ("solver", "forward_pass", "solver.forward_pass"),
    ("cli", "solve", "solver.solve"),
]

# Per-layer metric -> span it needs (absent when that span could not be set).
_SPAN_OF = {
    "instance.validate_s": "instance.require_valid",
    "instance.scale_s": "instance.common_denominator",
    "instance.rebuild_s": "instance.build_tree_from_decisions",
    "instance.verify_s": "instance.weighted_path_length",
    "solver.dict_engine_frac": "solver.backward_pass",
    "cli.overhead_s": "solver.solve",
}


def install_wrappers(nh, tracer):
    for path, attr, name in WRAPPED:
        owner = nh
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            tracer.absent[name] = f"nearheight.{path} not found"
        else:
            tracer.wrap(owner, attr, name)


def stage_totals(nh, cases) -> dict:
    """(n, h_max) -> (reachable states, relaxations) from states.stage_counts."""
    out = {}
    for c in cases:
        key = (c.n, c.h_max)
        if key not in out:
            sizes, sums = nh.states.stage_counts(c.n, c.h_max)
            out[key] = (sum(sizes), sum(sums))
    return out


def per_layer_metrics(nh, tracer, cases, plain, traced, cli_root, peak_alloc, st: Setup,
                      codec_s: float, absent: dict) -> dict:
    loop_roots = [sp for sp in tracer.spans if sp.parent is None and sp.name == "solver.solve"]
    self_ns = tracer.self_times()
    in_loop = {sp.id for sp in loop_roots}
    by_name = {}
    by_layer = {}
    dict_requests = set()
    for sp in tracer.spans:
        if sp.request not in in_loop:
            continue
        by_name[sp.name] = by_name.get(sp.name, 0) + self_ns[sp.id]
        by_layer[sp.layer] = by_layer.get(sp.layer, 0) + self_ns[sp.id]
        if sp.name == "solver.backward_pass":
            dict_requests.add(sp.request)
    n = len(loop_roots)
    total_ns = sum(sp.duration for sp in loop_roots)

    def per_solve(span_name):
        return (by_name.get(span_name, 0) / 1e9 / n, "s", n)

    m = {
        "instance.validate_s": per_solve("instance.require_valid"),
        "instance.scale_s": per_solve("instance.common_denominator"),
        "instance.rebuild_s": per_solve("instance.build_tree_from_decisions"),
        "instance.verify_s": per_solve("instance.weighted_path_length"),
        "instance.generate_s": (st.generate_s, "s", 1),
        "instance.codec_s": (codec_s, "s", len(cases)),
        "solver.self_s": (by_layer.get("solver", 0) / 1e9 / n, "s", n),
        "solver.self_share": (by_layer.get("solver", 0) / total_ns, "ratio", n),
        "solver.dict_engine_frac": (len(dict_requests) / n, "ratio", n),
        "solver.peak_alloc_mb": (peak_alloc / 2**20, "MB", 1),
        "trace.overhead_frac": (
            sum(r.seconds for r in traced) / sum(r.seconds for r in plain) - 1, "ratio", n),
    }
    if st.profile_s is not None:
        m["states.profile_s"] = (st.profile_s, "s", len({c.h_max for c in cases}))
    else:
        absent["states.profile_s"] = "states.capacity_profile not found"
    if getattr(nh.states, "stage_counts", None) is not None:
        totals = stage_totals(nh, cases)
        m["states.reachable_states"] = (sum(totals[(c.n, c.h_max)][0] for c in cases), "count", len(cases))
        m["states.relaxations"] = (sum(totals[(c.n, c.h_max)][1] for c in cases), "count", len(cases))
        relax = sum(totals[(r.case.n, r.case.h_max)][1] for r in traced)
        m["solver.ns_per_relaxation"] = (by_layer.get("solver", 0) / relax, "ns", n)
    else:
        for k in ("states.reachable_states", "states.relaxations", "solver.ns_per_relaxation"):
            absent[k] = "states.stage_counts not found"
    inner = sum(sp.duration for sp in tracer.spans
                if sp.parent == cli_root.id and sp.name == "solver.solve")
    m["cli.solve_s"] = (cli_root.duration / 1e9, "s", 1)
    m["cli.overhead_s"] = ((cli_root.duration - inner) / 1e9, "s", 1)
    for metric, span_name in _SPAN_OF.items():
        if span_name in tracer.absent:
            m.pop(metric, None)
            absent[metric] = tracer.absent[span_name]
    return m


# ---------------------------------------------------------------------------
# Runs


def run_cli(nh, case, tracer, gate):
    """Time cli.main(["solve", ...]) on one instance through stdin/stdout;
    returns (root span, Record)."""
    stdin, stdout = io.StringIO(case.inst.dumps()), io.StringIO()
    saved = sys.stdin
    sys.stdin = stdin
    try:
        with contextlib.redirect_stdout(stdout), tracer.span("cli.main") as root:
            code = nh.cli.main(["solve", "-i", "-", "--delta", str(case.delta)])
    finally:
        sys.stdin = saved
    if code == 0:
        out = nh.solver.solution_from_obj(json.loads(stdout.getvalue()))
    else:
        out = RuntimeError(f"cli exit code {code}")
    return root, gate.check(case, out, root.duration / 1e9)


def run_untraced(nh, name, seed, seconds, cases, st: Setup):
    gate = Gate(nh, name)
    clock = RefClock(name in workloads.NUMPY_REFERENCE)
    records = []

    def step(case):
        clock.measure_if_due()
        records.append(gate.check(case, *timed_solve(nh.solve, case)))

    gc.collect()
    closed_loop(cases, seconds, step, MIN_TIMED_PASSES)
    clock.measure()
    Gate.compare_digests(records, OUT / "digests" / f"{name}-{seed}.json")
    samples = setup_samples(name, seed, st.total_s)
    return records, end_to_end_metrics(records, clock, samples), {}


def run_traced(nh, name, seed, seconds, cases, st: Setup):
    t0 = time.perf_counter()
    for c in cases:
        nh.ProblemInstance.loads(c.inst.dumps())
    codec_s = (time.perf_counter() - t0) / len(cases)

    gate = Gate(nh, name)
    tracer = spans.Tracer()
    install_wrappers(nh, tracer)
    plain, traced = [], []

    def step(case):
        plain.append(gate.check(case, *timed_solve(nh.solve, case)))
        with tracer.span("solver.solve"):
            out, seconds, started = timed_solve(nh.solve, case)
        traced.append(gate.check(case, out, seconds, started))

    gc.collect()
    try:
        closed_loop(cases, seconds, step)
        cli_root, cli_record = run_cli(nh, min(cases, key=lambda c: (c.n, c.index)), tracer, gate)
    finally:
        tracer.unwrap_all()
    tracer.write(OUT / f"spans-{name}-{seed}.json")

    biggest = max(cases, key=lambda c: c.n << c.h_max)
    tracemalloc.start()
    try:
        out, alloc_s, _ = timed_solve(nh.solve, biggest)
        peak_alloc = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    records = plain + traced + [cli_record, gate.check(biggest, out, alloc_s)]
    Gate.compare_digests(records, OUT / "digests" / f"{name}-{seed}.json")
    absent = {}
    metrics = per_layer_metrics(nh, tracer, cases, plain, traced, cli_root, peak_alloc, st,
                                codec_s, absent)
    return records, metrics, absent


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    nh, cases, st = setup(name, seed)
    runner = run_traced if trace else run_untraced
    records, metrics, absent = runner(nh, name, seed, seconds, cases, st)
    count_problems = count_self_check(nh, cases)

    failed = sum(r.failure is not None for r in records)
    for r in records:
        if r.failure is not None:
            print(f"FAIL {name} case {r.case.index} (n={r.case.n}, delta={r.case.delta}): "
                  f"{r.failure}")
    for p in count_problems:
        print(f"FAIL {name} count self-check: {p}")
    for metric, why in sorted(absent.items()):
        print(f"{name:<12} {metric:<26} absent: {why}")
    for metric, (value, unit, samples) in metrics.items():
        print(f"{name:<12} {metric:<26} {value:>16.6g} {unit:<6} samples={samples}")
    print(f"{name:<12} {'failed_frac':<26} {failed / len(records):>16.6g} {'ratio':<6} "
          f"samples={len(records)}")
    return {
        "correct": failed == 0 and not count_problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()
                    if k not in TABLE_ONLY},
    }


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Every workload, each in a fresh process so peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.SHAPES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, check=True, cwd=ROOT,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}/{k}"] = v
    return combined


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*workloads.SHAPES, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe:
        *_, st = setup(args.workload, args.seed)
        print(json.dumps({"setup_s": st.total_s}))
        return 0
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
