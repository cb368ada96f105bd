"""Command line front end.

Five subcommands: distances, simulate, oracle, torsion-check, chsh.
Angles are degrees in every file and radians everywhere else.  CSV
numbers carry 17 significant digits so files round-trip the underlying
doubles; given the same config (and seed) every command rewrites its
output byte for byte.

Exit codes: 0 success, 1 argument or config problem, 2 I/O failure,
3 numeric-domain violation.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import chsh as chsh_mod
from . import frames, oracle, spin
from .errors import (
    ChartDegeneracy,
    DomainError,
    InvalidConfig,
    SpinsphereError,
    StepOutOfRange,
)
from .geometry import so3_distance, su2_distance

EXIT_OK = 0
EXIT_ARGS = 1
EXIT_IO = 2
EXIT_DOMAIN = 3

_CURVE_COLUMNS = (
    "eta_deg",
    "raw_mc",
    "raw_stderr",
    "std_score",
    "residual",
    "scalar_form",
    "su2_ref",
    "so3_ref",
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad arguments by default; the contract wants 1
    def error(self, message):
        self.exit(EXIT_ARGS, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_text(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", newline="") as handle:
        handle.write(text)


def _tabular(rows, columns, fmt: str) -> str:
    if fmt == "json":
        records = [dict(zip(columns, row)) for row in rows]
        return json.dumps(records, indent=2) + "\n"
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(value) for value in row) for row in rows)
    return "\n".join(lines) + "\n"


def cmd_distances(args) -> int:
    degrees = spin.grid_degrees(args.start, args.stop, args.step)
    eta = np.radians(degrees)
    rows = zip(degrees.tolist(), su2_distance(eta).tolist(), so3_distance(eta).tolist())
    _write_text(args.output, _tabular(rows, ("eta", "su2", "so3"), args.format))
    return EXIT_OK


def cmd_oracle(args) -> int:
    degrees = spin.grid_degrees(args.start, args.stop, args.step)
    rows = zip(degrees.tolist(), oracle.sign_model_curve(np.radians(degrees)).tolist())
    _write_text(args.output, _tabular(rows, ("theta_deg", "oracle"), args.format))
    return EXIT_OK


def _load_experiment_config(path, seed_override) -> spin.ExperimentConfig:
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except json.JSONDecodeError as err:
        raise InvalidConfig(f"config is not valid JSON: {err}") from None
    if not isinstance(payload, dict):
        raise InvalidConfig("config must be a JSON object")
    known = {"n_trials", "seed", "lambda_mode", "alignment_mode", "direction_pairs"}
    unknown = set(payload) - known
    if unknown:
        raise InvalidConfig(f"unknown config fields {sorted(unknown)}")
    try:
        config = spin.ExperimentConfig(
            n_trials=payload["n_trials"],
            seed=payload["seed"] if seed_override is None else seed_override,
            lambda_mode=payload.get("lambda_mode", "fair_coin"),
            alignment_mode=payload.get("alignment_mode", "unit"),
            direction_pairs=payload.get("direction_pairs"),
        )
    except KeyError as missing:
        raise InvalidConfig(f"config missing field {missing}") from None
    return config.validate()


def cmd_simulate(args) -> int:
    config = _load_experiment_config(args.config, args.seed)
    results = spin.correlation_curve(config, threads=args.threads)
    rows = []
    for eta_deg, res in zip(config.pair_degrees(), results):
        rows.append(
            (
                eta_deg,
                res.raw_mc,
                res.raw_stderr,
                res.standard_score_scalar,
                res.standard_score_residual_bivector_norm,
                res.scalar_product_form,
                res.su2_reference,
                res.so3_reference,
            )
        )
    _write_text(args.output, _tabular(rows, _CURVE_COLUMNS, args.format))
    return EXIT_OK


def _torsion_points(args):
    if args.points is not None:
        with open(args.points) as handle:
            payload = json.load(handle)
        if not isinstance(payload, list) or not payload:
            raise InvalidConfig("points file must be a non-empty JSON array")
        try:
            points = [tuple(float(c) for c in point) for point in payload]
        except (TypeError, ValueError):
            raise InvalidConfig("points must be arrays of numbers") from None
        if any(len(point) != 3 for point in points):
            raise InvalidConfig("points must be [chi, theta, phi] triples")
        return points
    seed = 20 if args.seed is None else args.seed
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    lo, hi = frames.COLLAR, np.pi - frames.COLLAR
    points = []
    while len(points) < args.n_points:
        point = (rng.uniform(lo, hi), rng.uniform(lo, hi), rng.uniform(0.0, 2.0 * np.pi))
        try:
            frames.check_curvature_point(point, args.h)
        except ChartDegeneracy:
            continue
        points.append(point)
    return points


def cmd_torsion_check(args) -> int:
    points = _torsion_points(args)
    curvature = frames.curvature_tensor(points, args.h)
    torsion = frames.torsion_tensor(points, args.h).components
    records = [
        {"point": list(point), "max_abs_curvature": c, "max_abs_torsion": t}
        for point, c, t in zip(
            points,
            np.abs(curvature).reshape(len(points), -1).max(axis=1).tolist(),
            np.abs(torsion).reshape(len(points), -1).max(axis=1).tolist(),
        )
    ]
    report = {
        "h": args.h,
        "points": records,
        "summary": {
            "max_abs_curvature": max(r["max_abs_curvature"] for r in records),
            "max_abs_torsion": max(r["max_abs_torsion"] for r in records),
        },
    }
    _write_text(args.output, json.dumps(report, indent=2) + "\n")
    return EXIT_OK


def cmd_chsh(args) -> int:
    config = chsh_mod.OptimizerConfig(budget=args.budget, threads=args.threads)
    if args.seed is not None:
        config.seed = args.seed
    report = chsh_mod.maximize_chsh(args.kind, config)
    payload = {
        "kind": args.kind,
        "max_abs_chsh": report.chsh_value,
        "argmax_degrees": list(report.angles_deg),
        "bound": report.rhs_bound,
    }
    _write_text(args.output, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _add_grid(parser, start, stop, step):
    parser.add_argument("--start", type=float, default=start)
    parser.add_argument("--stop", type=float, default=stop)
    parser.add_argument("--step", type=float, default=step)


def _common_flags(parser, suppress: bool) -> None:
    # registered on the main parser with real defaults and on each
    # subparser with SUPPRESS, so the flags work on either side of the
    # subcommand without the subparser clobbering an earlier value
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--output", default=d, help="output file (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default=d)
    parser.add_argument(
        "--seed",
        type=int,
        default=d,
        help="simulate: overrides the config's seed; torsion-check: seeds the "
        "generated points (default 20); chsh --kind monte_carlo: seeds the "
        "ensemble (default 2026); distances, oracle and the closed-form chsh "
        "kinds ignore it",
    )
    parser.add_argument(
        "--threads",
        type=_positive_int,
        default=argparse.SUPPRESS if suppress else 1,
        help="workers for simulate and chsh --kind monte_carlo: the ensemble's "
        "blocks are split among min(THREADS, blocks, usable CPUs) workers, each "
        "a thread with its own workspace; the output is identical for any value",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="spinsphere", description=__doc__)
    _common_flags(parser, suppress=False)
    common = _Parser(add_help=False)
    _common_flags(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("distances", parents=[common], help="SU(2) vs SO(3) distance curve")
    _add_grid(p, 0.0, 360.0, 1.0)
    p.set_defaults(func=cmd_distances, default_format="csv")

    p = sub.add_parser("simulate", parents=[common], help="Monte Carlo correlation curve")
    p.add_argument("config", help="JSON experiment config")
    p.set_defaults(func=cmd_simulate, default_format="csv")

    p = sub.add_parser("oracle", parents=[common], help="sign-model quadrature reference curve")
    _add_grid(p, 0.0, 180.0, 5.0)
    p.set_defaults(func=cmd_oracle, default_format="csv")

    p = sub.add_parser("torsion-check", parents=[common], help="curvature/torsion survey")
    p.add_argument("points", nargs="?", help="JSON array of chart points")
    p.add_argument("--h", type=float, default=1e-4)
    p.add_argument("--n-points", type=_positive_int, default=100)
    p.set_defaults(func=cmd_torsion_check, default_format="json")

    p = sub.add_parser("chsh", parents=[common], help="search for the largest |CHSH|")
    p.add_argument(
        "--kind",
        choices=("su2_cosine", "so3_saw", "monte_carlo"),
        default="su2_cosine",
    )
    p.add_argument("--budget", type=_positive_int, default=5_000_000)
    p.set_defaults(func=cmd_chsh, default_format="json")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse handles --help (status 0) and bad usage (status 1, via
        # _Parser.error) by raising; fold both into the return-code contract
        return int(err.code or 0)
    if args.format is None:
        args.format = args.default_format
    try:
        return args.func(args)
    except (ChartDegeneracy, StepOutOfRange, DomainError) as err:
        print(f"spinsphere: {err}", file=sys.stderr)
        return EXIT_DOMAIN
    except (InvalidConfig, ValueError) as err:
        print(f"spinsphere: {err}", file=sys.stderr)
        return EXIT_ARGS
    except OSError as err:
        print(f"spinsphere: {err}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as err:
        print(f"spinsphere: input too large for memory: {err}", file=sys.stderr)
        return EXIT_ARGS
    except SpinsphereError as err:
        print(f"spinsphere: {err}", file=sys.stderr)
        return EXIT_ARGS


if __name__ == "__main__":
    sys.exit(main())
