import json
import sys
from contextlib import contextmanager

import pytest

from nearheight.cli import main
from nearheight.instance import ProblemInstance, format_weight, generate_random_instance
from nearheight.oracles import knuth_unrestricted
from nearheight.solver import backward_pass, forward_pass, solution_from_obj, solve

GOLDEN = json.dumps(
    {"beta": ["3/16", "1/16", "1/2", "1/4"], "alpha": ["0", "0", "0", "0", "0"]}
)


@pytest.fixture
def golden_file(tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(GOLDEN)
    return str(path)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_golden_json(golden_file, capsys):
    code, out, _ = run(["solve", "-i", golden_file, "--delta", "0"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["wpl"] == "25/16"
    assert obj["decisions"] == [1, 2, 0, 1]
    assert obj["height"] == 3


def test_solve_writes_file(golden_file, tmp_path, capsys):
    out_path = tmp_path / "sol.json"
    code, _, _ = run(["solve", "-i", golden_file, "-o", str(out_path)], capsys)
    assert code == 0
    assert json.loads(out_path.read_text())["wpl"] == "25/16"


def test_solve_large_delta_clamped(tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"beta": ["2/3"], "alpha": ["1/6", "1/6"]}))
    code, out, err = run(["solve", "-i", str(path), "--delta", "100"], capsys)
    assert code == 0, err
    obj = json.loads(out)
    assert obj["h_max"] == 1
    inst = ProblemInstance.loads(path.read_text())
    assert obj["wpl"] == format_weight(knuth_unrestricted(inst).cost)


def test_solve_text_format(golden_file, capsys):
    code, out, _ = run(["solve", "-i", golden_file, "--format", "text"], capsys)
    assert code == 0
    assert "0 key 3" in out


def test_solve_malformed_rational(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"beta": ["3/0"], "alpha": ["0", "0"]}')
    code, _, err = run(["solve", "-i", str(path)], capsys)
    assert code == 2
    assert "invalid instance" in err


def test_solve_unknown_field(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"beta": ["1"], "alpha": ["0", "0"], "gamma": []}')
    code, _, _ = run(["solve", "-i", str(path)], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "text",
    [
        '{"beta": "123", "alpha": ["0", "0", "0", "0"]}',
        '{"beta": ["1", "1", "1"], "alpha": "0000"}',
        '{"beta": ["1", "1"], "alpha": ["0", "0", "0"], "keys": "ab"}',
    ],
)
def test_solve_rejects_non_array_fields(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, _, err = run(["solve", "-i", str(path)], capsys)
    assert code == 2
    assert "must be" in err and "JSON array" in err


def test_solve_zero_total_weight(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"beta": ["0"] * 3, "alpha": ["0"] * 4}))
    code, out, err = run(["solve", "-i", str(path)], capsys)
    assert code == 0, err
    obj = json.loads(out)
    assert obj["wpl"] == "0"
    inst = ProblemInstance.loads(path.read_text())
    _, ds = forward_pass(backward_pass(inst, obj["h_max"]))
    assert obj["decisions"] == list(ds.levels)


def test_solve_width_above_kernel_limit(tmp_path, capsys):
    path = tmp_path / "wide.json"
    path.write_text(generate_random_instance(25, 1).dumps())
    code, _, err = run(["solve", "-i", str(path), "--max-height", "25"], capsys)
    assert code == 1
    assert "height bound 25" in err


def test_solve_policy_above_memory_limit(tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text(generate_random_instance(1000, 1).dumps())
    code, _, err = run(["solve", "-i", str(path), "--delta", "14"], capsys)
    assert code == 1
    assert f"needs {1000 << 23} bytes" in err


def test_solve_infeasible_height(golden_file, capsys):
    code, _, err = run(["solve", "-i", golden_file, "--max-height", "2"], capsys)
    assert code == 3
    assert "infeasible" in err


def test_usage_error(capsys):
    assert run(["no-such-command"], capsys)[0] == 1


def test_missing_input_file(capsys):
    assert run(["solve", "-i", "/no/such/file.json"], capsys)[0] == 1


def test_input_directory(tmp_path, capsys):
    code, _, err = run(["solve", "-i", str(tmp_path)], capsys)
    assert code == 1
    assert "cannot read input" in err


def test_output_in_missing_directory(tmp_path, capsys):
    out_path = tmp_path / "missing" / "x.json"
    code, _, err = run(["gen", "--n", "3", "-o", str(out_path)], capsys)
    assert code == 1
    assert "cannot write output" in err and not out_path.exists()


@contextmanager
def any_int_digits():
    """Lift Python's limit on int <-> str conversion, where it has one."""
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


@pytest.mark.parametrize(
    "beta",
    [
        # denominators of 2201 digits: the wpl's has 4401
        [f"1/{10**2200 + 1}", f"1/{10**2200 + 3}"],
        # a 5000-digit literal
        ["1" + "0" * 4999, "1"],
    ],
)
def test_solve_weights_wider_than_the_digit_limit(beta, tmp_path, capsys):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"beta": beta, "alpha": ["0", "0", "0"]}))
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run(["solve", "-i", str(path)], capsys)
    assert code == 0, err
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    with any_int_digits():
        inst = ProblemInstance.loads(path.read_text())
        assert json.loads(out)["wpl"] == format_weight(solve(inst, 0).cost)


def test_gen_deterministic(capsys):
    code, out1, _ = run(["gen", "--n", "6", "--seed", "3"], capsys)
    assert code == 0
    _, out2, _ = run(["gen", "--n", "6", "--seed", "3"], capsys)
    assert out1 == out2
    inst = ProblemInstance.loads(out1)
    assert inst.n == 6


def test_gen_zero_alpha(capsys):
    _, out, _ = run(["gen", "--n", "4", "--seed", "1", "--zero-alpha"], capsys)
    inst = ProblemInstance.loads(out)
    assert all(a == 0 for a in inst.alpha)


def test_export_dot_golden(golden_file, capsys):
    code, out, _ = run(["solve", "-i", golden_file, "--format", "dot"], capsys)
    assert code == 0
    for ident in ["k1", "k2", "k3", "k4", "g0", "g1", "g2", "g3", "g4"]:
        assert ident in out
    assert "-> k3" not in out  # unique node of depth 0


def test_export_dot_repeatable(golden_file, capsys):
    _, out1, _ = run(["solve", "-i", golden_file, "--format", "dot"], capsys)
    _, out2, _ = run(["solve", "-i", golden_file, "--format", "dot"], capsys)
    assert out1 == out2


def test_export_dot_single_key(tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text('{"beta": ["1"], "alpha": ["0", "0"]}')
    code, out, _ = run(["solve", "-i", str(path), "--format", "dot"], capsys)
    assert code == 0
    assert "k1" in out and "g0" in out and "g1" in out and "k2" not in out


def test_gen_solve_export_pipeline(tmp_path, capsys):
    for n in (1, 2, 7, 19):
        for seed in (1, 5):
            _, gen_out, _ = run(["gen", "--n", str(n), "--seed", str(seed)], capsys)
            inst_path = tmp_path / f"i{n}_{seed}.json"
            inst_path.write_text(gen_out)
            code, sol_out, _ = run(
                ["solve", "-i", str(inst_path), "--delta", "1"], capsys
            )
            assert code == 0
            sol = solution_from_obj(json.loads(sol_out))
            assert len(sol.decisions.levels) == n
            code, dot_out, _ = run(
                ["solve", "-i", str(inst_path), "--format", "dot"], capsys
            )
            assert code == 0
            assert dot_out.startswith("digraph")


def test_solution_round_trip_through_cli(golden_file, capsys):
    _, out, _ = run(["solve", "-i", golden_file], capsys)
    sol = solution_from_obj(json.loads(out))
    assert json.dumps(sol.to_obj()) == json.dumps(json.loads(out))


def test_stats_command(capsys):
    code, out, _ = run(["stats", "--n", "4", "--delta", "0"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["theorem1_ok"] and obj["theorem2_ok"]
    assert max(obj["state_counts"]) <= 10


def test_stats_reports_policy_bytes(tmp_path, monkeypatch, capsys):
    """stats names the bytes of the policy that solve would allocate, so a
    bound that will be refused can be seen before solving: with the limit
    one byte lower, solve refuses the same bound and names that count."""
    code, out, _ = run(["stats", "--n", "100", "--delta", "2"], capsys)
    assert code == 0
    need = json.loads(out)["policy_bytes"]
    assert need == 100 << (7 + 2 - 1)
    path = tmp_path / "inst.json"
    path.write_text(generate_random_instance(100, 1).dumps())
    monkeypatch.setattr("nearheight.states.POLICY_MAX_BYTES", need)
    assert run(["solve", "-i", str(path), "--delta", "2"], capsys)[0] == 0
    monkeypatch.setattr("nearheight.states.POLICY_MAX_BYTES", need - 1)
    code, _, err = run(["solve", "-i", str(path), "--delta", "2"], capsys)
    assert code == 1
    assert f"needs {need} bytes" in err


@pytest.mark.parametrize("n,delta", [("4", "-1"), ("20", "-2")])
def test_stats_rejects_negative_delta(n, delta, capsys):
    code, out, err = run(["stats", "--n", n, "--delta", delta], capsys)
    assert code == 1
    assert out == ""
    assert "delta must be nonnegative" in err


def test_stats_refuses_wide_table(capsys):
    # h = min(h_min(100) + 40, 100) = 47: a 2^47-state table is refused
    code, out, err = run(["stats", "--n", "100", "--delta", "40"], capsys)
    assert code == 1
    assert out == ""
    assert "height bound 47 above" in err
    assert "Traceback" not in err


def test_bench_rejects_zero_reps(capsys):
    code, out, err = run(["bench", "--sizes", "10", "--reps", "0"], capsys)
    assert code == 1
    assert out == ""
    assert "reps must be >= 1" in err


def test_bench_ndjson(capsys):
    code, out, err = run(
        ["bench", "--sizes", "10,20", "--delta", "0", "--reps", "1", "--seed", "2"],
        capsys,
    )
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["n"] for r in lines] == [10, 20]
    assert "median_wall" in err


def test_bench_zipf(capsys):
    code, out, _ = run(
        ["bench", "--sizes", "50", "--delta", "1", "--reps", "1", "--dist", "zipf"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    inst = generate_random_instance(50, report["seed"], dist="zipf")
    assert report["wpl"] == format_weight(solve(inst, 1).cost)


def test_bench_csv(capsys):
    code, out, _ = run(
        ["bench", "--sizes", "10", "--reps", "2", "--csv"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,delta,seed,relaxation_count")
    assert len(lines) == 3


def test_verify_clean(capsys):
    code, _, err = run(
        ["verify", "--n-max", "4", "--trials", "3", "--delta-max", "1"], capsys
    )
    assert code == 0
    assert "all cases agree" in err


def test_verify_refuses_empty_ranges(capsys):
    """A verify run that would check no case is refused, not reported as
    agreeing."""
    for flag, value in (("--trials", "0"), ("--n-max", "0"), ("--delta-max", "-1")):
        code, out, err = run(["verify", "--n-max", "3", "--trials", "2", flag, value], capsys)
        assert code == 1, flag
        assert out == "" and "all cases agree" not in err, flag
        assert "needs 1 <= n-max" in err, flag


def test_verify_detects_mismatch(monkeypatch, capsys):
    """Mutation check: a corrupted solver must trip exit code 4 and print
    the failing instance as a loadable file."""
    from fractions import Fraction

    import nearheight.cli as cli_mod

    real_solve = cli_mod.solve

    def broken_solve(inst, delta=0, **kw):
        sol = real_solve(inst, delta, **kw)
        sol.cost = sol.cost + Fraction(1)
        return sol

    monkeypatch.setattr(cli_mod, "solve", broken_solve)
    code, out, err = run(["verify", "--n-max", "3", "--trials", "2"], capsys)
    assert code == 4
    assert "MISMATCH" in err
    ProblemInstance.loads(out[out.index("{"):])
