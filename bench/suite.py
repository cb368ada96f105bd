"""Run benchmark workloads, each in a fresh interpreter, and summarise them.

    python3 bench/suite.py                          # all workloads, seed 1, untraced
    python3 bench/suite.py --seeds 1 2 3 4 5 --workloads chsh_mc
    python3 bench/suite.py --trace 1

Prints every metric by name with its unit, the failure ratio of each
workload, and, with two or more seeds, the spread of each metric: the
distance between its first and third quartiles as a share of its median,
next to the bound BENCHMARK.json fixes for it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    status = 0
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        if not results:
            continue
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        if failed:
            status = 1
        print(f"{workload}: runs={len(results)} attempted={attempted} failed={failed} "
              f"fail_ratio={failed / attempted:.6g}")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            line = f"  {name} = {median:.6g} {first['unit']}"
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median if median else 0.0
                line += f"  spread={spread:.4f}"
                if bounds.get(name) is not None:
                    line += f" bound={bounds[name]} ({'ok' if spread < bounds[name] / 3 else 'WIDE'})"
                line += "  values=" + ",".join(f"{v:.6g}" for v in values)
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
