"""Run one spinsphere benchmark workload and print its metrics.

    python3 bench/run.py --workload curve --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The program is imported from src/ and
driven through spinsphere.cli.main.  Iterations run the workload's
operations, each iteration on its own inputs generated from --seed and
the iteration index, until the next one would overrun --seconds; every
output is removed before and checked against closed forms after the
timed region.  An operation fails on a nonzero exit code, an exception
or a failed check.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: the median
iteration wall time, set-up time (median of fresh interpreters importing
spinsphere.cli and building its parser, taken between iterations), this
process's peak RSS and work per second.  --trace 1 runs an untraced
warm-up, then alternates untraced and traced iterations, and reports
the per-layer metrics.  Either way the run's record, with the
environment and for traced runs every span and count, is written to
bench/out/.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
THREADS = "2"  # the workloads are sized for, and limited to, two cores
SETUP_SAMPLES = 5

sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _python(code, *flags):
    prelude = f"import sys; sys.path.insert(0, {str(SRC)!r}); "
    return subprocess.run(
        [sys.executable, *flags, "-c", prelude + code],
        capture_output=True, text=True, timeout=120, check=True,
    )


def setup_sample():
    """Time for a fresh interpreter to import the CLI and build its parser."""
    code = (
        "import time; t = time.perf_counter(); import spinsphere.cli as c; "
        "c.build_parser(); print(time.perf_counter() - t)"
    )
    return float(_python(code).stdout)


def import_seconds():
    """Cumulative import time per module from `python -X importtime`."""
    stderr = _python("import spinsphere.cli", "-X", "importtime").stderr
    cumulative = {}
    for line in stderr.splitlines():
        fields = line.partition("import time:")[2].split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            cumulative[fields[2].strip()] = int(fields[1]) / 1e6
    return cumulative


def source_lines():
    """Non-blank, non-comment lines per spinsphere module."""
    counts = {}
    for path in sorted((SRC / "spinsphere").glob("*.py")):
        lines = path.read_text().splitlines()
        counts[path.stem] = sum(1 for ln in lines if ln.strip() and not ln.strip().startswith("#"))
    return counts


def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(program):
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": program.numpy.__version__,
        "scipy": program.scipy.__version__,
        "commit": git_commit(),
        "blas_threads": THREADS,
    }


def run_ops(workload, tracer):
    """Run every operation once; returns the wall time and (op, value, error) triples."""
    for op in workload.ops:
        if op.output is not None:
            op.output.unlink(missing_ok=True)
    outcomes = []
    start = time.perf_counter()
    for op in workload.ops:
        span = tracer.span(op.name) if tracer else contextlib.nullcontext()
        try:
            with span:
                value = op.run()
            outcomes.append((op, value, None))
        except Exception:  # an operation that raises counts as failed
            outcomes.append((op, None, traceback.format_exc()))
    return time.perf_counter() - start, outcomes


def check_ops(outcomes):
    """Check outputs outside the timed region; returns (failed, output bytes)."""
    failed, output_bytes = 0, 0
    for op, value, error in outcomes:
        if error is None:
            try:
                problems = op.check(value)
            except Exception:  # unreadable output is a failed check
                problems = [traceback.format_exc()]
            if op.output is not None and op.output.exists():
                output_bytes += op.output.stat().st_size
        else:
            problems = [error]
        if problems:
            failed += 1
            print(f"# FAILED {op.name}: " + "; ".join(problems), file=sys.stderr)
    return failed, output_bytes


def load_program():
    if not (SRC / "spinsphere" / "cli.py").is_file():
        raise SystemExit(f"bench: no spinsphere package under {SRC}")
    # set before numpy loads; the set-up subprocesses inherit it
    os.environ.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), THREADS))
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    from spinsphere import chsh, cli, frames, oracle, spin

    return SimpleNamespace(numpy=numpy, scipy=scipy, cli=cli, chsh=chsh, frames=frames, oracle=oracle, spin=spin)


def declared_metrics():
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def tail(walls):
    """(percentile, value) of the highest percentile with ten samples above it, or None."""
    if len(walls) < 11:
        return None
    k = len(walls) - 11
    return 100.0 * (k + 1) / len(walls), sorted(walls)[k]


def measure(args, program, workdir):
    """Run iterations until the next would pass --seconds; returns the run record.

    Set-up samples are taken between the first iterations, so that they
    see the same host as the iterations do; their time is not counted
    against --seconds.
    """
    tracer = tracing.Tracer() if args.trace else None
    walls, traced_walls, traced_bytes, setup, inputs = [], [], [], [], []
    attempted = failed = 0
    spent = 0.0
    for iteration in itertools.count():
        began = time.perf_counter()
        workload = workloads.WORKLOADS[args.workload](args.seed, iteration, workdir, program)
        inputs.append(workload.inputs)
        # a trace run alternates untraced and traced iterations after a warm-up
        traced = tracer is not None and iteration >= 2 and iteration % 2 == 0
        if traced:
            tracer.run_id = len(traced_walls) + 1
            with tracer.installed(lambda t: layers.install(t, program)):
                wall, outcomes = run_ops(workload, tracer)
            traced_walls.append(wall)
        else:
            wall, outcomes = run_ops(workload, None)
            walls.append(wall)
        bad, written = check_ops(outcomes)
        attempted += len(outcomes)
        failed += bad
        if traced:
            traced_bytes.append(written)
        last = time.perf_counter() - began
        spent += last
        if len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample())
        if spent + last > args.seconds and (tracer is None or traced_walls):
            break
    setup += [setup_sample() for _ in range(SETUP_SAMPLES - len(setup))]
    return SimpleNamespace(
        walls=walls, traced_walls=traced_walls, traced_bytes=traced_bytes, setup=setup,
        inputs=inputs, work_units=workload.work_units, attempted=attempted, failed=failed,
        tracer=tracer,
    )


def layer_metrics(run):
    """Per-layer metrics: counts of the first traced iteration, medians of times."""
    per_run = [layers.metrics(run.tracer, i + 1, b) for i, b in enumerate(run.traced_bytes)]
    values = {
        name: per_run[0][name] if layers.is_count(name) else statistics.median(m[name] for m in per_run)
        for name in per_run[0]
    }
    imports = import_seconds()
    values.update({f"setup.import.{m}.s": imports.get(m, 0.0) for m in layers.IMPORTS})
    sloc = source_lines()
    values.update({f"sloc.{m}": sloc.get(m, 0) for m in layers.SOURCES})
    values["sloc.total"] = sum(sloc.values())
    # against the untraced iterations interleaved with the traced ones
    values["trace.overhead_s"] = statistics.median(run.traced_walls) - statistics.median(run.walls[1:])
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    declared = declared_metrics()
    program = load_program()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        run = measure(args, program, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wall = statistics.median(run.walls)
    setup = statistics.median(run.setup)
    if args.trace:
        values = layer_metrics(run)
    else:
        values = {
            "wall_s": wall,
            "setup_s": setup,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "work_per_s": run.work_units / wall,
        }
    units = declared[args.trace]
    if set(values) != set(units):
        raise SystemExit(f"bench: metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")

    env = environment(program)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "inputs": run.inputs,
        "iterations": len(run.walls) + len(run.traced_walls),
        "wall_s_tail": tail(run.walls),
        "wall_s": run.walls, "traced_wall_s": run.traced_walls, "setup_s": run.setup,
        "attempted": run.attempted, "failed": run.failed, "metrics": values,
    }
    if run.tracer is not None:
        record["trace"] = run.tracer.dump()
    result_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print("# environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(
        f"# workload={args.workload} seed={args.seed} iterations={record['iterations']} "
        f"attempted={run.attempted} failed={run.failed} "
        f"fail_ratio={run.failed / run.attempted:.6g} record={result_file.relative_to(ROOT)}"
    )
    for name in units:
        print(f"# {name} = {values[name]:.6g} {units[name]}")
    if not args.trace:
        high = record["wall_s_tail"]
        print(
            f"# wall_s over {len(run.walls)} iterations: median {wall:.6g} s, "
            + (f"p{high[0]:.0f} {high[1]:.6g} s" if high else "no percentile has ten samples above it")
        )
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
