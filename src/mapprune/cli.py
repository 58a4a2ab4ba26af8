"""Command-line interface.

Subcommands: solve, prune, verify, gen, bench.  Exit codes: 0 success,
1 usage error, 2 solver failure, 3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path

from . import __version__
from .errors import MapPruneError, SolverError, StateSpaceCapError, UaiParseError
from .instances import KINDS, InstanceSpec, generate
from .model import GraphicalModel
from .oracle import verify_persistent
from .persistency import prune
from .reporting import RunReport, persistency_percentage
from .solvers import ENUMERATION_CAP, StopRule, bruteforce_output, solve_lp_exact, solve_trws
from .uai import parse_uai, write_uai

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _range_pair(text: str) -> tuple[float, float]:
    parts = text.replace(",", ":").split(":")
    if len(parts) == 1:
        v = float(parts[0])
        return (v, v)
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}")
    return (float(parts[0]), float(parts[1]))


def _hw_pair(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected HxW, got {text!r}")
    return (int(parts[0]), int(parts[1]))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing leaves it unchanged."""
    p = _Parser(prog="mapprune", description=__doc__)
    p.add_argument("--version", action="version", version=f"mapprune {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def add_model_args(sp):
        sp.add_argument("model", type=Path, help="UAI model file")
        sp.add_argument("--values", choices=("cost", "probability"), default="cost")

    def add_trws_args(sp):
        default = StopRule()
        sp.add_argument("--gap", type=float, default=default.gap_tol, help="relative duality gap stop")
        sp.add_argument("--stall", type=int, default=default.stall_passes, help="stagnant-pass stop")
        sp.add_argument("--max-iters", type=int, default=default.max_passes, help="total pass cap")

    def add_instance_args(sp):
        sp.add_argument("--hw", type=_hw_pair, default=None, help="grid HxW")
        sp.add_argument("--nodes", type=int, default=0)
        sp.add_argument("--labels", type=int, default=2)
        sp.add_argument("--coupling", type=_range_pair, default=(0.0, 1.0))
        sp.add_argument("--noise", type=_range_pair, default=(0.0, 1.0))
        sp.add_argument("--edge-prob", type=float, default=0.5)
        sp.add_argument("--hyper-count", type=int, default=1)

    sp = sub.add_parser("solve", help="minimize a model with one solver")
    add_model_args(sp)
    sp.add_argument("--solver", choices=("bruteforce", "lp", "trws"), default="lp")
    sp.add_argument("--cap", type=int, default=ENUMERATION_CAP)
    add_trws_args(sp)

    sp = sub.add_parser("prune", help="find a persistent partial labeling")
    add_model_args(sp)
    sp.add_argument("--solver", choices=("bruteforce", "lp", "trws"), default="lp")
    sp.add_argument("--mode", choices=("original", "optimal"), default="original")
    sp.add_argument("--cap", type=int, default=ENUMERATION_CAP)
    sp.add_argument("--out", type=Path, default=None, help="write the JSON report here")
    sp.add_argument(
        "--verify", action="store_true",
        help="run the brute-force oracle on the result and embed its verdict",
    )
    add_trws_args(sp)

    sp = sub.add_parser("verify", help="re-check a prune report against the oracle")
    sp.add_argument("report", type=Path)
    sp.add_argument("model", type=Path)
    sp.add_argument("--values", choices=("cost", "probability"), default="cost")
    sp.add_argument("--cap", type=int, default=ENUMERATION_CAP)

    sp = sub.add_parser("gen", help="emit a synthetic instance as UAI text")
    sp.add_argument("--kind", choices=KINDS, required=True)
    add_instance_args(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", type=Path, default=None)

    sp = sub.add_parser("bench", help="sweep seeded instances, emit CSV")
    sp.add_argument("--gen", dest="kind", choices=KINDS, required=True)
    add_instance_args(sp)
    sp.add_argument("--n", type=int, default=10, help="number of instances")
    sp.add_argument("--seed", type=int, default=0, help="seed of the first instance")
    sp.add_argument("--solver", choices=("bruteforce", "lp", "trws"), default="lp")
    sp.add_argument("--mode", choices=("original", "optimal"), default="original")
    sp.add_argument("--cap", type=int, default=ENUMERATION_CAP)
    sp.add_argument("--out", type=Path, default=None)
    sp.add_argument("--timings", action="store_true", help="fill the time column (breaks byte determinism)")
    add_trws_args(sp)
    return p


def _load_model(path: Path, values: str) -> GraphicalModel:
    return parse_uai(path.read_text(), values=values)


def _stop_rule(args) -> StopRule:
    return StopRule(gap_tol=args.gap, stall_passes=args.stall, max_passes=args.max_iters)


def _spec_from_args(args, seed: int) -> InstanceSpec:
    hw = args.hw or (0, 0)
    return InstanceSpec(
        kind=args.kind,
        labels=args.labels,
        height=hw[0],
        width=hw[1],
        num_nodes=args.nodes,
        coupling=args.coupling,
        noise=args.noise,
        seed=seed,
        edge_probability=args.edge_prob,
        hyper_count=args.hyper_count,
    )


def _cmd_solve(args) -> int:
    model = _load_model(args.model, args.values)
    if args.solver == "bruteforce":
        out = bruteforce_output(model, args.cap)
        print(f"value {out.objective_bound!r}")
        print("labeling " + " ".join(out.render_labels()))
        return EXIT_OK
    if args.solver == "trws":
        out = solve_trws(model, _stop_rule(args))
        print(f"bound {out.objective_bound!r}")
        print("labeling " + " ".join(out.render_labels()))
        print(f"passes {out.iterations}")
        return EXIT_OK
    mu, value, out = solve_lp_exact(model)
    print(f"value {value!r}")
    print("labeling " + " ".join(out.render_labels()))
    for v in range(model.num_nodes):
        if out.labels[v] is None:
            print(f"marginal {v} " + " ".join(f"{m:.6g}" for m in mu.node[v]))
    return EXIT_OK


def _cmd_prune(args) -> int:
    model = _load_model(args.model, args.values)
    t0 = time.monotonic()
    result = prune(model, solver=args.solver, mode=args.mode, stop=_stop_rule(args), cap=args.cap)
    elapsed = time.monotonic() - t0
    verification = None
    if args.verify:
        try:
            oracle = verify_persistent(model, result.a_star, result.x_star, cap=args.cap)
            verification = {"persistent": bool(oracle.verdict), "num_optima": oracle.num_optima}
        except StateSpaceCapError as e:
            verification = {"skipped": str(e)}
            print(f"warning: verification skipped: {e}", file=sys.stderr)
    report = RunReport.from_result(str(args.model), result, model, elapsed, verification)
    text = report.to_json()
    if args.out is not None:
        args.out.write_text(text)
        print(f"wrote {args.out} (|A*| = {len(result.a_star)}, "
              f"percentage = {report.percentage:.4f})")
    else:
        sys.stdout.write(text)
    if verification is not None and verification.get("persistent") is False:
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = RunReport.from_json(args.report.read_text())
    model = _load_model(args.model, args.values)
    oracle = verify_persistent(model, report.a_star, report.x_star_partial(), cap=args.cap)
    print(f"persistent: {'true' if oracle.verdict else 'false'}")
    print(f"global optima: {oracle.num_optima}")
    if not oracle.verdict:
        print("counterexample optimum: " + " ".join(str(l) for l in oracle.counterexample))
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_gen(args) -> int:
    model = generate(_spec_from_args(args, args.seed))
    text = write_uai(model)
    if args.out is not None:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_bench(args) -> int:
    rows = ["instance,solver,mode,a_star_size,percentage,iterations,time_s"]
    for i in range(args.n):
        spec = _spec_from_args(args, args.seed + i)
        model = generate(spec)
        t0 = time.monotonic()
        result = prune(
            model, solver=args.solver, mode=args.mode, stop=_stop_rule(args), cap=args.cap
        )
        elapsed = time.monotonic() - t0
        pct = persistency_percentage(model, result.a_star)
        time_cell = f"{elapsed:.3f}" if args.timings else ""
        rows.append(
            f"{spec.name},{result.solver},{result.mode},"
            f"{len(result.a_star)},{pct!r},{result.loop_iterations},{time_cell}"
        )
    text = "\n".join(rows) + "\n"
    if args.out is not None:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "prune": _cmd_prune,
    "verify": _cmd_verify,
    "gen": _cmd_gen,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (SolverError, StateSpaceCapError) as e:
        print(f"solver error: {e}", file=sys.stderr)
        return EXIT_SOLVER
    except (UaiParseError, MapPruneError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
