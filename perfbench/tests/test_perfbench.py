"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import dataclasses
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

nh = run.import_package()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def test_same_seed_same_instances():
    for name in workloads.SHAPES:
        first = [c.inst.to_obj() for c in workloads.build(nh, name, 7)]
        again = [c.inst.to_obj() for c in workloads.build(nh, name, 7)]
        other = [c.inst.to_obj() for c in workloads.build(nh, name, 8)]
        assert first == again
        assert first != other


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.SHAPES)


def test_printed_metric_names_match_benchmark_json():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run_cli("--workload", "small-mixed", "--seed", "1", "--seconds", "0",
                        "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in SPEC[key]}
        for name in printed:
            assert f" {name} " in proc.stdout  # the human-readable line


def test_wrong_cost_counts_as_failed(monkeypatch, capsys):
    def wrong_cost(inst, delta=0, engine="auto"):
        sol = nh.solver.solve(inst, delta, engine)
        return dataclasses.replace(sol, cost=sol.cost + 1)

    monkeypatch.setitem(workloads.SHAPES, "small-mixed", workloads.SHAPES["small-mixed"][:12])
    monkeypatch.setattr(nh, "solve", wrong_cost)
    result = run.run_workload("small-mixed", 1, 0, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    line = next(ln for ln in capsys.readouterr().out.splitlines() if " failed_frac " in ln)
    assert float(line.split()[2]) == 1.0


def test_missing_wrapped_function_is_absent_not_fatal(monkeypatch, capsys):
    wrapped = [w for w in run.WRAPPED if w[1] != "backward_pass"]
    wrapped.append(("solver", "renamed_backward_pass", "solver.backward_pass"))
    monkeypatch.setattr(run, "WRAPPED", wrapped)
    monkeypatch.setitem(workloads.SHAPES, "small-mixed", workloads.SHAPES["small-mixed"][:8])
    result = run.run_workload("small-mixed", 1, 0, trace=True)
    assert result["correct"]
    assert "solver.dict_engine_frac" not in result["metrics"]
    assert "solver.self_s" in result["metrics"]
    assert "solver.dict_engine_frac" in capsys.readouterr().out


def test_count_self_check_catches_a_changed_count(monkeypatch):
    cases = workloads.build(nh, "bigint-zipf", 1)
    assert run.count_self_check(nh, cases) == []
    real = nh.states.stage_counts

    def off_by_one(n, h_max):
        sizes, sums = real(n, h_max)
        return sizes, sums[:-1] + [sums[-1] + 1]

    monkeypatch.setattr(nh.states, "stage_counts", off_by_one)
    assert len(run.count_self_check(nh, cases)) == len({c.h_max for c in cases})


def test_self_time_subtracts_child_coverage():
    tracer = spans.Tracer()
    tracer.spans = [
        spans.Span(0, "solver.solve", 0, 100, None, 0),
        spans.Span(1, "instance.a", 10, 30, 0, 0),
        spans.Span(2, "instance.b", 20, 50, 0, 0),  # overlaps a: counted once
        spans.Span(3, "states.c", 60, 70, 0, 0),
        spans.Span(4, "instance.d", 62, 65, 3, 0),
    ]
    got = tracer.self_times()
    assert got == {0: 100 - 40 - 10, 1: 20, 2: 30, 3: 7, 4: 3}


def test_wrapper_records_only_inside_a_root_span():
    tracer = spans.Tracer()
    mod = types.SimpleNamespace(f=lambda x: x + 1)
    assert not tracer.wrap(mod, "missing", "solver.missing")
    assert "solver.missing" in tracer.absent
    assert tracer.wrap(mod, "f", "solver.f")
    assert mod.f(1) == 2
    with tracer.span("solver.solve"):
        assert mod.f(2) == 3
    tracer.unwrap_all()
    assert [sp.name for sp in tracer.spans] == ["solver.solve", "solver.f"]
    assert tracer.spans[1].parent == 0 and tracer.spans[1].request == 0
    assert mod.f(3) == 4 and len(tracer.spans) == 2


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run_cli("--workload", "small-mixed", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_ref_clock_scales_by_the_references_around_a_call():
    clock = run.RefClock(numpy_share=False)
    clock.ends, clock.times = [1.0, 2.0, 3.0], [0.01, 0.03, 0.02]
    assert clock.scale(1.5) == 2 * run.REF_S / 0.04
    assert clock.scale(2.5) == 2 * run.REF_S / 0.05
    assert clock.scale(0.5) == 2 * run.REF_S / 0.04  # set-up: the first two after it
    clock.measure()
    assert len(clock.times) == 4 and clock.times[-1] > 0
