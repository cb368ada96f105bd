"""The benchmark's four workloads: generated inputs, operations and checks.

Each workload turns the workload seed into program inputs (a config
file, CLI seeds, chart points) and a list of operations.  An operation
is one `spinsphere.cli.main` call, or one library call the benchmark
makes as a control, together with the check of its output.  Each
iteration of a run gets inputs of its own, derived from the workload
seed and the iteration index, so no iteration can reuse a result an
earlier one left in memory or on disk, while a run at the same seed
repeats exactly the same inputs.

Why these four, and what each should move (see also BENCHMARK.json):

curve        spin does almost all the work (ensemble draw, per-pair
             reductions, ~1.3 GB peak RSS); chsh and frames are idle.
             Moves spin.ensemble.*, spin.reduce.*, spin.curve.s, oracle.*.
             --threads 2 exercises the documented flag at 2 cores.
chsh_closed  bound by Python call cost: the Nelder-Mead restart guard
             takes almost all of each search; spin is bypassed.
             Moves chsh.guard.*, chsh.correlator.{su2_cosine,so3_saw}.*,
             geometry.distance.*.
chsh_mc      the same two layers used differently: one 1M ensemble,
             then 360 full reads of it over xy-plane directions.  A
             streaming ensemble that re-reads per evaluation shows its
             cost here; a sort-based table shows its gain only here.
             Moves spin.ensemble.*, chsh.correlator.monte_carlo.*.
torsion      the only workload where frames and geometry.embed_round do
             the work; spin and chsh are bypassed.  Moves frames.*,
             geometry.embed_round.*.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import checks

CURVE_TRIALS = 1_000_000
CURVE_GRID = tuple(5.0 * k for k in range(37))  # the README's 0..180 degree grid
MC_TRIALS = 1_000_000  # OptimizerConfig.mc_trials; the chsh command has no flag for it
TORSION_POINTS = 100
TORSION_H = 1e-4
FRAME_CHECK_POINTS = 3
# chart points stay this far from the poles of chi and theta, clear of the
# 0.1 rad degeneracy collar plus the stencils' reach
POINT_MARGIN = 0.15


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    output: Optional[Path] = None


@dataclass
class Workload:
    ops: list
    work_units: float  # per iteration, for work_per_s
    inputs: dict = field(default_factory=dict)


def derived_seed(workload: str, seed: int, iteration: int) -> int:
    return random.Random(f"{workload}:{seed}:{iteration}").randrange(1, 2**31)


def chart_points(seed: int, iteration: int, count: int = TORSION_POINTS):
    rng = random.Random(f"torsion-points:{seed}:{iteration}")
    lo, hi = POINT_MARGIN, math.pi - POINT_MARGIN
    return [[rng.uniform(lo, hi), rng.uniform(lo, hi), rng.uniform(0.0, 2.0 * math.pi)] for _ in range(count)]


def _csv(path: Path):
    with open(path, newline="") as handle:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(handle)]


def _json(path: Path):
    with open(path) as handle:
        return json.load(handle)


def _cli(program, args, output: Path, check_file) -> Op:
    argv = [*args, "--output", str(output)]

    def check(code):
        if code != 0:
            return [f"{args[0]}: exit code {code}"]
        return check_file(output)

    return Op(f"cli.{args[0]}", lambda: program.cli.main(argv), check, output)


def curve(seed: int, iteration: int, workdir: Path, program) -> Workload:
    config_seed = derived_seed("curve", seed, iteration)
    config = workdir / "curve.json"
    config.write_text(
        json.dumps(
            {
                "n_trials": CURVE_TRIALS,
                "seed": config_seed,
                "lambda_mode": "fair_coin",
                "alignment_mode": "unit",
                "direction_pairs": {"start_deg": 0.0, "stop_deg": 180.0, "step_deg": 5.0},
            }
        )
    )
    ops = [
        _cli(
            program,
            ["simulate", str(config), "--threads", "2"],
            workdir / "curve.csv",
            lambda p: checks.curve(_csv(p), CURVE_GRID, CURVE_TRIALS),
        ),
        _cli(program, ["oracle"], workdir / "oracle.csv", lambda p: checks.oracle(_csv(p), CURVE_GRID)),
        _cli(program, ["distances"], workdir / "distances.csv", lambda p: checks.distances(_csv(p))),
    ]
    return Workload(ops, CURVE_TRIALS * len(CURVE_GRID), {"config_seed": config_seed})


def chsh_closed(seed: int, iteration: int, workdir: Path, program) -> Workload:
    cli_seed = derived_seed("chsh_closed", seed, iteration)
    ops = [
        _cli(
            program,
            ["chsh", "--kind", kind, "--seed", str(cli_seed)],
            workdir / f"{kind}.json",
            lambda p, kind=kind, want=want: checks.chsh(_json(p), kind, want, 1e-9),
        )
        for kind, want in (("su2_cosine", checks.TSIRELSON), ("so3_saw", 2.0))
    ]
    return Workload(ops, 2, {"chsh_seed": cli_seed})


def chsh_mc(seed: int, iteration: int, workdir: Path, program) -> Workload:
    cli_seed = derived_seed("chsh_mc", seed, iteration)
    tol = 30.0 / math.sqrt(MC_TRIALS)
    ops = [
        _cli(
            program,
            ["chsh", "--kind", "monte_carlo", "--seed", str(cli_seed)],
            workdir / "monte_carlo.json",
            lambda p: checks.chsh(_json(p), "monte_carlo", 2.0, tol),
        )
    ]
    return Workload(ops, 1, {"chsh_seed": cli_seed})


def torsion(seed: int, iteration: int, workdir: Path, program) -> Workload:
    frames = program.frames
    points = chart_points(seed, iteration)
    points_file = workdir / "points.json"
    points_file.write_text(json.dumps(points))

    def check_report(path):
        errors = checks.torsion_report(_json(path), points, TORSION_H)
        for point in points[:FRAME_CHECK_POINTS]:
            errors += checks.frame_torsion(frames.torsion_frame_components(point, TORSION_H))
        return errors

    ops = [
        _cli(
            program,
            ["torsion-check", str(points_file), "--h", repr(TORSION_H)],
            workdir / "torsion.json",
            check_report,
        ),
        # the control that proves the stencils can see curvature
        Op(
            "bench.control",
            lambda: [frames.round_metric_sectional(p, TORSION_H) for p in points],
            checks.sectional,
        ),
    ]
    return Workload(ops, TORSION_POINTS, {"points_seed": f"torsion-points:{seed}:{iteration}"})


WORKLOADS = {
    "curve": curve,
    "chsh_closed": chsh_closed,
    "chsh_mc": chsh_mc,
    "torsion": torsion,
}
