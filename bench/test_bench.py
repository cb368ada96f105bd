"""Self-tests of the benchmark: checkers, tracer and declared metrics.

    python3 -m pytest bench -q

Every checker must accept the closed form and reject a perturbed output,
so a check that silently passes everything cannot hide a wrong answer.
"""

import json
import math
import shutil
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest

import checks
import layers
import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
N = 1_000_000
GRID = workloads.CURVE_GRID


def curve_rows():
    rows = []
    for deg in GRID:
        eta = math.radians(deg)
        rows.append(
            {
                "eta_deg": deg,
                "raw_mc": checks.saw(eta),
                "raw_stderr": 0.0,
                "std_score": -math.cos(eta),
                "residual": 0.0,
                "scalar_form": -1.0,
                "su2_ref": -math.cos(eta),
                "so3_ref": checks.saw(eta),
            }
        )
    return rows


def perturbed(rows, index, column, delta):
    out = [dict(r) for r in rows]
    out[index][column] += delta
    return out


def test_curve_accepts_closed_form():
    assert checks.curve(curve_rows(), GRID, N) == []


@pytest.mark.parametrize(
    "index, column, delta",
    [
        (7, "raw_mc", 10 / math.sqrt(N)),
        (0, "raw_mc", 6 / math.sqrt(N)),  # the 0 degree row has zero stderr
        (1, "eta_deg", -8e-9),
        (3, "std_score", 1e-9),
        (3, "su2_ref", 1e-9),
        (9, "so3_ref", 1e-9),
        (5, "scalar_form", 1e-3),
        (18, "residual", 6 / math.sqrt(N)),
        (0, "residual", 1e-15),  # sin(0) = 0 allows no residual at all
    ],
)
def test_curve_rejects_perturbation(index, column, delta):
    assert checks.curve(perturbed(curve_rows(), index, column, delta), GRID, N)


def test_curve_rejects_missing_row_and_nan():
    assert checks.curve(curve_rows()[:-1], GRID, N)
    rows = curve_rows()
    rows[4]["raw_mc"] = float("nan")
    assert checks.curve(rows, GRID, N)


def test_oracle():
    rows = [{"theta_deg": d, "oracle": checks.saw(math.radians(d))} for d in GRID]
    assert checks.oracle(rows, GRID) == []
    assert checks.oracle(perturbed(rows, 11, "oracle", 2e-6), GRID)
    assert checks.oracle(rows[1:], GRID)


def test_distances():
    rows = [
        {"eta": d, "su2": -math.cos(math.radians(d)), "so3": checks.saw(math.radians(d))}
        for d in range(361)
    ]
    assert checks.distances(rows) == []
    assert checks.distances(perturbed(rows, 200, "so3", 1e-9))
    assert checks.distances(perturbed(rows, 45, "su2", 1e-9))
    assert checks.distances(rows[:360])


def chsh_payload(kind, value):
    return {"kind": kind, "max_abs_chsh": value, "argmax_degrees": None, "bound": checks.TSIRELSON}


def test_chsh():
    assert checks.chsh(chsh_payload("su2_cosine", 2.8284271247461903), "su2_cosine", checks.TSIRELSON, 1e-9) == []
    assert checks.chsh(chsh_payload("so3_saw", 2.000000000000026), "so3_saw", 2.0, 1e-9) == []
    assert checks.chsh(chsh_payload("so3_saw", 2.83), "so3_saw", 2.0, 1e-9)
    assert checks.chsh(chsh_payload("su2_cosine", 2.0), "su2_cosine", checks.TSIRELSON, 1e-9)
    assert checks.chsh(chsh_payload("so3_saw", checks.TSIRELSON), "su2_cosine", checks.TSIRELSON, 1e-9)
    tol = 30 / math.sqrt(N)
    assert checks.chsh(chsh_payload("monte_carlo", 2.003), "monte_carlo", 2.0, tol) == []
    assert checks.chsh(chsh_payload("monte_carlo", 2.0 + 31 / math.sqrt(N)), "monte_carlo", 2.0, tol)


def torsion_payload(points, curvature=1e-8):
    return {
        "h": 1e-4,
        "points": [{"point": list(p), "max_abs_curvature": curvature, "max_abs_torsion": 2.0} for p in points],
        "summary": {"max_abs_curvature": curvature, "max_abs_torsion": 2.0},
    }


def test_torsion_report():
    points = workloads.chart_points(1, 0, 4)
    assert checks.torsion_report(torsion_payload(points), points, 1e-4) == []
    assert checks.torsion_report(torsion_payload(points, curvature=1e-3), points, 1e-4)
    assert checks.torsion_report(torsion_payload(points[:3]), points, 1e-4)
    assert checks.torsion_report(torsion_payload(points), workloads.chart_points(1, 1, 4), 1e-4)
    assert checks.torsion_report(torsion_payload(points), points, 2e-4)


def test_frame_torsion():
    exact = [[[-2.0 * checks._epsilon(c, a, b) for b in range(3)] for a in range(3)] for c in range(3)]
    assert exact[0][1][2] == -2.0 and exact[0][2][1] == 2.0
    assert checks.frame_torsion(exact) == []
    off = json.loads(json.dumps(exact))
    off[2][0][1] += 1e-5
    assert checks.frame_torsion(off)
    assert checks.frame_torsion([[[-v for v in row] for row in plane] for plane in exact])


def test_sectional():
    assert checks.sectional([[1.0, 1.0, 1.0 + 1e-7]] * 3) == []
    assert checks.sectional([[1.0, 1.0, 1.0], [1.0, 1.0 + 2e-5, 1.0]])
    assert checks.sectional([[0.0, 0.0, 0.0]])


# -- inputs ---------------------------------------------------------------------


def test_inputs_follow_the_seed():
    seed = workloads.derived_seed
    assert seed("curve", 3, 0) == seed("curve", 3, 0)
    assert seed("curve", 3, 0) != seed("curve", 4, 0)
    assert seed("curve", 3, 0) != seed("curve", 3, 1)
    assert seed("curve", 3, 0) != seed("chsh_mc", 3, 0)
    points = workloads.chart_points(5, 0)
    assert points == workloads.chart_points(5, 0) != workloads.chart_points(6, 0)
    assert points != workloads.chart_points(5, 1)
    assert len(points) == workloads.TORSION_POINTS
    lo, hi = workloads.POINT_MARGIN, math.pi - workloads.POINT_MARGIN
    assert all(lo <= chi <= hi and lo <= theta <= hi for chi, theta, _ in points)


# -- tracer ----------------------------------------------------------------------


def test_self_time_subtracts_children_and_counted_calls():
    tracer = tracing.Tracer()
    tracer.spans = [
        {"id": 1, "name": "outer", "parent": None, "run": 1, "attrs": {}, "start": 0.0, "end": 10.0},
        {"id": 2, "name": "a", "parent": 1, "run": 1, "attrs": {}, "start": 1.0, "end": 4.0},
        {"id": 3, "name": "b", "parent": 1, "run": 1, "attrs": {}, "start": 3.0, "end": 5.0},
    ]
    tracer.counted = {("leaf", 1, 1): [10, 2.0], ("leaf", 2, 1): [5, 1.0]}
    self_time = tracer.self_times()
    assert self_time[1] == pytest.approx(10.0 - 4.0 - 2.0)
    assert self_time[2] == pytest.approx(2.0)
    assert self_time[3] == pytest.approx(2.0)


def test_union_length():
    assert tracing.union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == pytest.approx(4.0)
    assert tracing.union_length([]) == 0.0


def test_wrap_restore_and_parents():
    module = types.ModuleType("fake")
    module.work = lambda x: module.leaf(x) + 1
    module.leaf = lambda x: x * 2
    original_work, original_leaf = module.work, module.leaf
    tracer = tracing.Tracer()

    def install(t):
        t.wrap(module, "work", t.spanned("work", note=lambda a, k, r: {"result": r}))
        t.wrap(module, "leaf", t.counter("leaf"))
        with pytest.raises(AttributeError):
            t.wrap(module, "absent", t.counter("absent"))
        with pytest.raises(ValueError):
            t.wrap(module, "work", t.spanned("again"))

    with tracer.installed(install):
        with tracer.span("root") as root:
            assert module.work(3) == 7
            worker = threading.Thread(target=module.work, args=(1,))
            worker.start()
            worker.join(timeout=10)
        assert not worker.is_alive()
    assert module.work is original_work and module.leaf is original_leaf
    work = [s for s in tracer.spans if s["name"] == "work"]
    assert [s["parent"] for s in work] == [root["id"], root["id"]]
    assert work[0]["attrs"] == {"result": 7}
    assert sum(calls for calls, _ in tracer.counted.values()) == 2
    assert {parent for (_, parent, _) in tracer.counted} == {s["id"] for s in work}


def test_layer_metrics_read_one_traced_iteration():
    tracer = tracing.Tracer()
    tracer.counted = {("geometry.embed_round", None, 1): [5, 0.5], ("geometry.embed_round", None, 2): [7, 0.9]}
    assert layers.metrics(tracer, 1, 0)["geometry.embed_round.calls"] == 5
    assert layers.metrics(tracer, 2, 0)["geometry.embed_round.s"] == 0.9
    assert layers.is_count("geometry.embed_round.calls") and layers.is_count("cli.output_bytes")
    assert not layers.is_count("geometry.embed_round.s") and not layers.is_count("spin.reduce.parallelism")


def test_layer_metrics_cover_declared_names():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["per_layer"]]
    extra = [f"setup.import.{m}.s" for m in layers.IMPORTS]
    extra += [f"sloc.{m}" for m in layers.SOURCES] + ["sloc.total", "trace.overhead_s"]
    assert declared == list(layers.metrics(tracing.Tracer(), 1, 0)) + extra
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb", "work_per_s"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_output_left_by_an_earlier_iteration_cannot_pass(tmp_path):
    stale = tmp_path / "out.csv"
    stale.write_text("written by an earlier iteration\n")
    op = workloads.Op("noop", lambda: 0, lambda code: [] if stale.exists() else ["no output"], stale)
    _, outcomes = run.run_ops(workloads.Workload([op], 1), None)
    assert run.check_ops(outcomes) == (1, 0)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "curve", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
