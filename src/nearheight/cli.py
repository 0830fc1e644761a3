"""Command-line front end: solve, gen, verify, bench, stats.

`solve --format dot` writes the solved tree as Graphviz DOT.

Exit codes: 0 success, 1 usage error, 2 invalid instance, 3 infeasible
height bound, 4 verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from . import bench, oracles
from .instance import (
    InstanceError,
    ProblemInstance,
    generate_random_instance,
    height_bound,
    tree_to_dot,
    tree_to_text,
)
from .solver import InfeasibleHeightError, solve, solve_with_max_height

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID_INSTANCE = 2
EXIT_INFEASIBLE_HEIGHT = 3
EXIT_VERIFY_MISMATCH = 4


class _UsageExit(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageExit()


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        print(f"cannot read input: {e}", file=sys.stderr)
        raise _UsageExit() from e


def _write_output(path: str, data: str):
    try:
        if path == "-":
            sys.stdout.write(data)
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(data)
    except OSError as e:
        print(f"cannot write output: {e}", file=sys.stderr)
        raise _UsageExit() from e


def _cmd_solve(args) -> int:
    inst = ProblemInstance.loads(_read_input(args.input))
    if args.max_height is not None:
        sol = solve_with_max_height(inst, args.max_height)
    else:
        sol = solve(inst, args.delta)
    if args.format == "json":
        out = json.dumps(sol.to_obj(), indent=2) + "\n"
    elif args.format == "dot":
        out = tree_to_dot(sol.tree, inst.keys)
    else:
        out = tree_to_text(sol.tree, inst.keys)
    _write_output(args.output, out)
    return EXIT_OK


def _cmd_gen(args) -> int:
    inst = generate_random_instance(
        args.n, args.seed, dist=args.dist, zero_alpha=args.zero_alpha
    )
    _write_output(args.output, inst.dumps() + "\n")
    return EXIT_OK


def _cmd_stats(args) -> int:
    report = bench.state_stats(args.n, args.delta)
    _write_output(args.output, json.dumps(report.to_obj(), indent=2) + "\n")
    return EXIT_OK


def _cmd_bench(args) -> int:
    sizes = sorted({int(tok) for tok in args.sizes.split(",") if tok})
    reports = bench.run_scaling(
        sizes, args.delta, reps=args.reps, seed=args.seed, dist=args.dist
    )
    if args.csv:
        lines = [bench.CSV_HEADER]
        lines += [bench.report_to_csv_row(r) for r in reports]
        _write_output(args.output, "\n".join(lines) + "\n")
    else:
        _write_output(
            args.output,
            "".join(json.dumps(r.to_obj()) + "\n" for r in reports),
        )
    for n in sizes:
        walls = [r.wall_clock_s for r in reports if r.n == n]
        relax = next(r.relaxation_count for r in reports if r.n == n)
        print(
            f"n={n}: relaxations={relax} median_wall={statistics.median(walls):.4f}s",
            file=sys.stderr,
        )
    return EXIT_OK


def _cmd_verify(args) -> int:
    if not 1 <= args.n_max <= oracles.MAX_ENUM_KEYS or args.trials < 1 or args.delta_max < 0:
        raise ValueError(
            f"verify needs 1 <= n-max <= {oracles.MAX_ENUM_KEYS}, trials >= 1, delta-max >= 0"
        )
    failures = 0
    for n in range(1, args.n_max + 1):
        for delta in range(args.delta_max + 1):
            max_height = height_bound(n, delta)
            ok = 0
            for trial in range(args.trials):
                seed = args.seed * 1_000_003 + n * 1009 + delta * 101 + trial
                inst = generate_random_instance(n, seed)
                got = solve(inst, delta).cost
                exp_bf = oracles.brute_force_optimum(inst, max_height).cost
                exp_dp = oracles.height_restricted_dp(inst, max_height).cost
                if got == exp_bf == exp_dp:
                    ok += 1
                    continue
                failures += 1
                print(
                    f"MISMATCH n={n} delta={delta} trial={trial}: "
                    f"solver={got} brute={exp_bf} restricted={exp_dp}",
                    file=sys.stderr,
                )
                print(inst.dumps())
                break
            print(f"n={n} delta={delta}: {ok}/{args.trials} agree", file=sys.stderr)
            if failures:
                return EXIT_VERIFY_MISMATCH
    print(f"verify: all cases agree (n <= {args.n_max}, delta <= {args.delta_max})",
          file=sys.stderr)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="nearheight", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, needs_input=True):
        if needs_input:
            p.add_argument("-i", "--input", default="-", help="instance file or - for stdin")
        p.add_argument("-o", "--output", default="-", help="output file or - for stdout")

    def add_height(p):
        group = p.add_mutually_exclusive_group()
        group.add_argument("--delta", type=int, default=0,
                           help="height slack above h_min (default 0)")
        group.add_argument("--max-height", type=int, default=None,
                           help="absolute height bound")

    p = sub.add_parser("solve", help="solve an instance")
    add_io(p)
    add_height(p)
    p.add_argument("--format", choices=("json", "dot", "text"), default="json")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--dist", choices=("uniform", "zipf"), default="uniform")
    p.add_argument("--zero-alpha", action="store_true")
    add_io(p, needs_input=False)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("stats", help="reachable-state statistics vs bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=int, default=0)
    add_io(p, needs_input=False)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("bench", help="scaling runs with operation counts")
    p.add_argument("--sizes", default="500,1000,2000", help="comma-separated sizes")
    p.add_argument("--delta", type=int, default=1)
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--dist", choices=("uniform", "zipf"), default="uniform")
    p.add_argument("--csv", action="store_true")
    add_io(p, needs_input=False)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("verify", help="cross-check solver against the oracles")
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--delta-max", type=int, default=2)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageExit:
        return EXIT_USAGE
    # weights and costs may have more than the 4300 digits Python converts
    # between int and str by default
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except InstanceError as e:
        print(f"invalid instance: {e}", file=sys.stderr)
        return EXIT_INVALID_INSTANCE
    except InfeasibleHeightError as e:
        print(f"infeasible height bound: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE_HEIGHT
    except _UsageExit:
        return EXIT_USAGE
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
