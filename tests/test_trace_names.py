"""The traced benchmark run (perfbench/run.py --trace 1) wraps nearheight
functions by name and reports a per-layer metric as `absent` when a name
is missing, and reads a name that solve() never calls as 0. These tests
fail on either instead."""

import importlib.util
import sys
from pathlib import Path

import pytest

import nearheight
from nearheight import cli, instance, oracles, solver, states  # noqa: F401

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def run_module():
    """perfbench/run.py loaded by path. Loading it registers it and its
    helper modules in sys.modules (its dataclasses need that) and puts
    perfbench/ on sys.path; all of this is undone afterwards."""
    saved_path = list(sys.path)
    names = ("perfbench_run", "spans", "workloads")
    saved = {name: sys.modules.get(name) for name in names}
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules["perfbench_run"] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path[:] = saved_path
        for name, mod in saved.items():
            if mod is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = mod


# The names perfbench/run.py and perfbench/workloads.py call besides WRAPPED:
# the output gate, the oracle, the count self-check, set-up, the CLI and
# codec loops, and instance generation. run.py skips some of them when they
# are missing, which would silently blank or weaken its checks.
CALLED_BY_PERFBENCH = [
    "instance.weighted_path_length",
    "instance.tree_height",
    "instance.count_keys",
    "instance.key_levels",
    "oracles.height_restricted_dp",
    "states.stage_counts",
    "states.capacity_profile",
    "solver.solution_from_obj",
    "cli.main",
    "ProblemInstance.loads",
    "ProblemInstance.dumps",
    "generate_random_instance",
    "h_min",
    "solve",
]


def resolve(name):
    owner = nearheight
    for part in name.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_wrapped_name_resolves(run_module):
    assert run_module.WRAPPED
    for path, attr, span in run_module.WRAPPED:
        assert callable(resolve(f"{path}.{attr}")), span


@pytest.mark.parametrize("name", CALLED_BY_PERFBENCH)
def test_every_called_name_resolves(name):
    assert callable(resolve(name)), name


def test_solve_calls_rebuild_and_check_once(monkeypatch, golden_instance):
    """The trace times the rebuild and the cost check through these two
    module names; a solve() that bypassed them would read as 0 there."""
    calls = {}

    def counted(name):
        real = getattr(solver, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, name, wrapper)

    counted("build_tree_from_decisions")
    counted("weighted_path_length")
    solver.solve(golden_instance, 0)
    assert calls == {"build_tree_from_decisions": 1, "weighted_path_length": 1}
    calls.clear()
    solver.solve(nearheight.ProblemInstance(beta=(), alpha=(1,)), 0)  # n = 0
    assert calls == {"build_tree_from_decisions": 1, "weighted_path_length": 1}
