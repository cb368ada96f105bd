"""End-to-end command line checks: formats, determinism, exit codes."""

import hashlib
import json
import time

import numpy as np
import pytest

from spinsphere import cli, geometry, oracle, spin


def run(argv):
    return cli.main(argv)


def write_config(path, **kw):
    payload = dict(
        n_trials=2000,
        seed=17,
        lambda_mode="balanced_exact",
        alignment_mode="unit",
        direction_pairs={"start_deg": 0.0, "stop_deg": 180.0, "step_deg": 45.0},
    )
    payload.update(kw)
    path.write_text(json.dumps(payload))
    return path


def test_distances_default_grid(tmp_path):
    out = tmp_path / "d.csv"
    assert run(["distances", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "eta,su2,so3"
    assert len(lines) == 362  # header + 0..360 inclusive
    for line in (lines[1], lines[46], lines[91], lines[181]):
        deg, su2, so3 = (float(x) for x in line.split(","))
        eta = np.radians(deg)
        assert su2 == geometry.su2_distance(eta)
        assert so3 == geometry.so3_distance(eta)


def test_distances_rerun_byte_identical(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    run(["distances", "--output", str(first)])
    run(["distances", "--output", str(second)])
    assert first.read_bytes() == second.read_bytes()


def test_distances_json_format(tmp_path):
    out = tmp_path / "d.json"
    assert run(["distances", "--format", "json", "--output", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 361
    assert rows[90]["eta"] == 90.0
    assert abs(rows[90]["su2"]) < 1e-15


def test_distances_grid_flags_validated(tmp_path):
    out = tmp_path / "d.csv"
    assert run(["distances", "--step", "0", "--output", str(out)]) == 1
    assert run(["distances", "--start", "10", "--stop", "0", "--output", str(out)]) == 1


def test_oracle_default_grid(tmp_path):
    out = tmp_path / "o.csv"
    assert run(["oracle", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "theta_deg,oracle"
    assert len(lines) == 38
    deg, value = (float(x) for x in lines[13].split(","))
    assert value == oracle.sign_model_correlation(np.radians(deg))


def test_simulate_csv(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "s.csv"
    assert run(["simulate", str(cfg), "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert (
        lines[0]
        == "eta_deg,raw_mc,raw_stderr,std_score,residual,scalar_form,su2_ref,so3_ref"
    )
    assert len(lines) == 6  # header + 0,45,90,135,180
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[1] == -1.0  # raw at equal settings
    assert first[5] == -1.0  # scalar form
    last = [float(x) for x in lines[-1].split(",")]
    assert last[6] == 1.0 and last[7] == 1.0


def test_simulate_eta_deg_is_the_grid_angle(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        direction_pairs={"start_deg": 0.0, "stop_deg": 180.0, "step_deg": 5.0},
    )
    out = tmp_path / "s.csv"
    assert run(["simulate", str(cfg), "--output", str(out)]) == 0
    eta = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
    assert eta == [f"{5.0 * k:.17g}" for k in range(37)]


def test_simulate_eta_deg_for_explicit_pairs(tmp_path):
    pairs = [[[0, 0, 1], [1, 0, 0]], [[0, 0, 1], [0.6, 0, 0.8]]]
    cfg = write_config(tmp_path / "cfg.json", direction_pairs=pairs)
    out = tmp_path / "s.json"
    assert run(["simulate", str(cfg), "--format", "json", "--output", str(out)]) == 0
    rows = json.loads(out.read_text())
    want = [np.degrees(geometry.separation_angle(np.array(a, float), np.array(b, float)))
            for a, b in pairs]
    assert [row["eta_deg"] for row in rows] == want


def test_simulate_threads_byte_identical(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    one = tmp_path / "one.csv"
    eight = tmp_path / "eight.csv"
    assert run(["simulate", str(cfg), "--threads", "1", "--output", str(one)]) == 0
    assert run(["simulate", str(cfg), "--threads", "8", "--output", str(eight)]) == 0
    assert one.read_bytes() == eight.read_bytes()


# sha256 of the CSV of the README's simulate example
README_SIMULATE_SHA256 = "df1a0eb48acbe9ec6b9044fc6adc25c0e5a502b000d0ee2e092aee17d415254a"


@pytest.mark.parametrize("threads", ["1", "2", "8"])
def test_simulate_readme_config_bytes_for_any_threads(tmp_path, threads):
    cfg = write_config(
        tmp_path / "run.json",
        n_trials=1_000_000,
        seed=2026,
        lambda_mode="fair_coin",
        direction_pairs={"start_deg": 0.0, "stop_deg": 180.0, "step_deg": 5.0},
    )
    out = tmp_path / "curve.csv"
    assert run(["simulate", str(cfg), "--threads", threads, "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == README_SIMULATE_SHA256


# sha256 of the simulate CSV for two full blocks and a short one (two
# trials for balanced_exact, which needs an even n_trials, three otherwise)
SIMULATE_BLOCKS_SHA256 = {
    "half_degree_balanced_uniform_r": (
        dict(
            n_trials=2 * spin.BLOCK_TRIALS + 2,
            seed=11,
            lambda_mode="balanced_exact",
            alignment_mode="uniform_r",
            direction_pairs={"start_deg": 0.0, "stop_deg": 180.0, "step_deg": 0.5},
        ),
        "15376c6e89d8971e61298800eddfd35372c69128a1b82e4f89b5ab8c544b43c5",
    ),
    "offset_7_degree_fair_coin": (
        dict(
            n_trials=2 * spin.BLOCK_TRIALS + 3,
            seed=12,
            lambda_mode="fair_coin",
            direction_pairs={"start_deg": 3.0, "stop_deg": 178.0, "step_deg": 7.0},
        ),
        "c2ed993591ed607a3eb0d0e5b9428032c6b92883f52153aa437903de22ece242",
    ),
    "explicit_pairs": (
        dict(
            n_trials=2 * spin.BLOCK_TRIALS + 3,
            seed=13,
            lambda_mode="fair_coin",
            direction_pairs=[
                [[0, 0, 1], [1, 0, 0]],
                [[1, 0, 0], [0, 1, 0]],
                [[0.6, 0, 0.8], [0, -0.8, 0.6]],
                [[0, 1, 0], [0, -1, 0]],
            ],
        ),
        "f5fb9abedfab672fa141fdf0a2583c84e222f3b0a4dfba19a9196ccd5b7b73cb",
    ),
}


@pytest.mark.parametrize("name", sorted(SIMULATE_BLOCKS_SHA256))
def test_simulate_block_config_bytes(tmp_path, name):
    settings, digest = SIMULATE_BLOCKS_SHA256[name]
    cfg = write_config(tmp_path / "run.json", **settings)
    out = tmp_path / "curve.csv"
    assert run(["simulate", str(cfg), "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of each command's output at its default grid, size and seed
OUTPUT_SHA256 = [
    (["distances"], "ad09897548babcbbab9321634b163383633120213fc007513a1239574113d3e9"),
    (["distances", "--format", "json"],
     "0eaa363f5944554b6fbeb87cce0f529907ac9a980765988a1f9b2bfc03395e7f"),
    (["oracle"], "4df5248f3bb8c60e004bb2bb5d14079fed8f73390dc31472d09610113dd2320f"),
    (["oracle", "--format", "json"],
     "38ae416833f23c6a0d932371c5a9fbf277618eb1747aa8947c0e40f7bb08ad14"),
    (["chsh", "--kind", "su2_cosine"],
     "b731e0240b2c4478475139c9bd6fa151d4544309affc2a2f945fd319bc218134"),
    (["chsh", "--kind", "so3_saw"],
     "cf32f3f140dd876c2ee63d3ed37049fc6d1ef7317216712196ed31debaff3747"),
    (["torsion-check", "--n-points", "100"],
     "26e590b5704ef24cac66007dbebd7cd9a7415c189f926e5877954d9e38f7d5db"),
]


@pytest.mark.parametrize("argv, digest", OUTPUT_SHA256)
def test_command_output_bytes(tmp_path, argv, digest):
    out = tmp_path / "out"
    assert run(argv + ["--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def assert_worker_memory_error_exits_one(tmp_path, capsys, monkeypatch, reducer, **config):
    monkeypatch.setattr(spin, "_usable_cpus", lambda: 2)
    original = getattr(spin, reducer)

    def failing(*args):
        if args[-3] == 1:  # the reducer's block index c
            raise MemoryError("block 1")
        return original(*args)

    monkeypatch.setattr(spin, reducer, failing)
    cfg = write_config(tmp_path / "cfg.json", n_trials=4 * spin.BLOCK_TRIALS, **config)
    out = tmp_path / "s.csv"
    # block 1 is reduced on the second worker's thread
    assert run(["simulate", str(cfg), "--threads", "2", "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("spinsphere: input too large for memory") and "Traceback" not in err
    assert not out.exists()


def test_simulate_worker_memory_error_exits_one(tmp_path, capsys, monkeypatch):
    # a grid config: its blocks go through the planar reducer
    assert_worker_memory_error_exits_one(tmp_path, capsys, monkeypatch, "_planar_counts")


def test_simulate_pairs_worker_memory_error_exits_one(tmp_path, capsys, monkeypatch):
    # explicit pairs: their blocks go through the projection reducer
    pairs = [[[0, 0, 1], [1, 0, 0]], [[0, 0, 1], [0.6, 0, 0.8]]]
    assert_worker_memory_error_exits_one(
        tmp_path, capsys, monkeypatch, "_block_counts", direction_pairs=pairs
    )


def test_simulate_seed_override_changes_output(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    base = tmp_path / "base.csv"
    other = tmp_path / "other.csv"
    run(["simulate", str(cfg), "--output", str(base)])
    run(["simulate", str(cfg), "--seed", "99", "--output", str(other)])
    assert base.read_bytes() != other.read_bytes()
    rerun = tmp_path / "rerun.csv"
    run(["simulate", str(cfg), "--seed", "99", "--output", str(rerun)])
    assert other.read_bytes() == rerun.read_bytes()


def test_simulate_config_errors(tmp_path):
    missing = tmp_path / "nope.json"
    assert run(["simulate", str(missing), "--output", str(tmp_path / "x.csv")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["simulate", str(bad), "--output", str(tmp_path / "x.csv")]) == 1
    unknown = write_config(tmp_path / "unknown.json")
    unknown.write_text(json.dumps({"n_trials": 10, "seed": 1, "extra": True}))
    assert run(["simulate", str(unknown), "--output", str(tmp_path / "x.csv")]) == 1
    odd = write_config(tmp_path / "odd.json", n_trials=11)
    assert run(["simulate", str(odd), "--output", str(tmp_path / "x.csv")]) == 1


def test_output_io_error(tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert run(["distances", "--output", str(target)]) == 2


def test_torsion_check_default_suite(tmp_path):
    out = tmp_path / "t.json"
    assert run(["torsion-check", "--n-points", "5", "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["h"] == 1e-4
    assert len(report["points"]) == 5
    for record in report["points"]:
        assert record["max_abs_curvature"] < 1e-5
        assert record["max_abs_torsion"] > 1e-3
    assert report["summary"]["max_abs_curvature"] == max(
        r["max_abs_curvature"] for r in report["points"]
    )
    rerun = tmp_path / "t2.json"
    run(["torsion-check", "--n-points", "5", "--output", str(rerun)])
    assert out.read_bytes() == rerun.read_bytes()


def test_torsion_check_points_file(tmp_path):
    points = tmp_path / "pts.json"
    points.write_text(json.dumps([[1.0, 1.2, 0.8], [0.7, 1.9, 2.5]]))
    out = tmp_path / "t.json"
    assert run(["torsion-check", str(points), "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [r["point"] for r in report["points"]] == [[1.0, 1.2, 0.8], [0.7, 1.9, 2.5]]


def test_torsion_check_empty_points_file(tmp_path):
    points = tmp_path / "pts.json"
    points.write_text("[]")
    assert run(["torsion-check", str(points), "--output", str(tmp_path / "t.json")]) == 1


def test_torsion_check_domain_error(tmp_path):
    points = tmp_path / "pts.json"
    points.write_text(json.dumps([[0.05, 1.2, 0.8]]))
    assert run(["torsion-check", str(points), "--output", str(tmp_path / "t.json")]) == 3


def test_torsion_check_step_flag_domain(tmp_path):
    assert run(["torsion-check", "--h", "0.5", "--n-points", "1",
                "--output", str(tmp_path / "t.json")]) == 3


def test_chsh_report(tmp_path):
    out = tmp_path / "c.json"
    assert run(["chsh", "--kind", "su2_cosine", "--output", str(out)]) == 0
    text = out.read_text()
    assert "2.8284271247461903" in text
    report = json.loads(text)
    assert report["kind"] == "su2_cosine"
    assert report["bound"] == 2.8284271247461903
    assert abs(report["max_abs_chsh"] - 2.8284271247461903) < 1e-3
    assert len(report["argmax_degrees"]) == 4


def test_chsh_budget_flag(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert run(["chsh", "--budget", "10", "--output", str(out)]) == 1
    # the law table is charged 360 units before any scalar correlator call
    assert capsys.readouterr().err == "spinsphere: exceeded 10 budget units\n"


@pytest.mark.parametrize("seed", ["1", "7", "2026"])
@pytest.mark.parametrize(
    "kind, value, degrees",
    [("su2_cosine", 2.8284271247461903, [0.0, 90.0, 225.0, 135.0]),
     ("so3_saw", 2.0, [0.0, 0.0, 180.0, 0.0])],
)
def test_chsh_closed_form_bytes(tmp_path, seed, kind, value, degrees):
    out = tmp_path / "c.json"
    assert run(["chsh", "--kind", kind, "--seed", seed, "--output", str(out)]) == 0
    payload = {"kind": kind, "max_abs_chsh": value, "argmax_degrees": degrees,
               "bound": 2.8284271247461903}
    assert out.read_text() == json.dumps(payload, indent=2) + "\n"


def test_seed_help_says_which_commands_read_it(capsys):
    assert run(["chsh", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "chsh --kind monte_carlo: seeds the ensemble (default 2026)" in text
    assert "distances, oracle and the closed-form chsh kinds ignore it" in text


def test_chsh_monte_carlo_bytes(tmp_path):
    out = tmp_path / "c.json"
    assert run(["chsh", "--kind", "monte_carlo", "--seed", "7", "--output", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "5072e6b130940a30cf0070dc89586e9b22832b50ce4cdc9ed045b88a2b648d24"


@pytest.mark.parametrize("threads", ["1", "2", "8"])
def test_chsh_monte_carlo_bytes_for_any_threads(tmp_path, monkeypatch, threads):
    # as many workers as asked for, up to the 62 blocks, whatever the host
    monkeypatch.setattr(spin, "_usable_cpus", lambda: 8)
    out = tmp_path / "c.json"
    argv = ["chsh", "--kind", "monte_carlo", "--seed", "7", "--threads", threads]
    assert run(argv + ["--output", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "5072e6b130940a30cf0070dc89586e9b22832b50ce4cdc9ed045b88a2b648d24"


@pytest.mark.parametrize("value", ["0", "-5"])
def test_chsh_budget_must_be_positive(tmp_path, capsys, value):
    out = tmp_path / "c.json"
    assert run(["chsh", "--budget", value, "--output", str(out)]) == 1
    assert "--budget: must be a positive integer" in capsys.readouterr().err
    assert not out.exists()


def test_flags_accepted_before_subcommand(tmp_path):
    before = tmp_path / "before.csv"
    after = tmp_path / "after.csv"
    assert run(["--output", str(before), "distances"]) == 0
    assert run(["distances", "--output", str(after)]) == 0
    assert before.read_bytes() == after.read_bytes()


def test_stdout_default(capsys):
    assert run(["oracle", "--step", "45"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "theta_deg,oracle"
    assert len(lines) == 6


def test_unknown_command_exits_one(capsys):
    assert run(["no-such-command"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("value", ["0", "-5"])
def test_threads_must_be_positive(tmp_path, capsys, value):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "s.csv"
    assert run(["simulate", str(cfg), "--threads", value, "--output", str(out)]) == 1
    assert "--threads: must be a positive integer" in capsys.readouterr().err
    assert not out.exists()


def test_torsion_check_n_points_must_be_positive(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert run(["torsion-check", "--n-points", "0", "--output", str(out)]) == 1
    assert "--n-points: must be a positive integer" in capsys.readouterr().err
    assert not out.exists()


def test_grid_too_large_for_memory_exits_one(tmp_path, capsys):
    # 3.6e14 rows: refused by the row cap before anything is allocated
    out = tmp_path / "d.csv"
    assert run(["distances", "--step", "1e-12", "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("spinsphere: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["distances", "--step", "1e-6"],
        ["oracle", "--step", "1e-6"],
        ["distances", "--stop", "inf"],
    ],
)
def test_grid_over_the_row_cap_exits_one_at_once(tmp_path, capsys, argv):
    # 3.6e8 rows fit the address space, so only the cap stops them quickly
    out = tmp_path / "g.csv"
    start = time.perf_counter()
    assert run(argv + ["--output", str(out)]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err == f"spinsphere: grid has more than {spin.MAX_GRID_ROWS} rows\n"
    assert not out.exists()


def test_simulate_grid_over_the_row_cap_exits_one(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json",
        direction_pairs={"start_deg": 0.0, "stop_deg": 180.0, "step_deg": 1e-6},
    )
    out = tmp_path / "s.csv"
    assert run(["simulate", str(cfg), "--output", str(out)]) == 1
    assert "more than" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, payload",
    [
        ("simulate", {"direction_pairs": 5}),
        ("simulate", {"direction_pairs": [1]}),
        ("simulate", {"direction_pairs": [[[0, 0, 1]]]}),
        ("simulate", {"direction_pairs": {"start_deg": None, "stop_deg": 9, "step_deg": 1}}),
        ("simulate", {"n_trials": None}),
        ("torsion-check", [5]),
        ("torsion-check", [[1.0, 1.2]]),
        ("simulate", {"n_trials": 10.7}),
        ("simulate", {"seed": 1.9}),
        ("simulate", {"n_trials": True}),
        ("simulate", {"n_trials": "2000"}),
        (
            "simulate",
            {"direction_pairs": {"start_deg": 0, "stop_deg": 10, "step_deg": 5, "stpe_deg": 1}},
        ),
    ],
)
def test_malformed_input_file_exits_one(tmp_path, capsys, command, payload):
    if command == "simulate":
        source = write_config(tmp_path / "cfg.json", **payload)
    else:
        source = tmp_path / "pts.json"
        source.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert run([command, str(source), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("spinsphere: ") and "Traceback" not in err
    assert not out.exists()


def test_torsion_check_redraws_generated_points_near_the_collar(tmp_path):
    # seed 4 draws chi = 0.10016, which the 2h curvature stencil would carry into the collar
    out = tmp_path / "t.json"
    assert run(["torsion-check", "--n-points", "60", "--seed", "4", "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert len(report["points"]) == 60
    for record in report["points"]:
        chi, theta, _ = record["point"]
        assert min(chi, np.pi - chi, theta, np.pi - theta) >= 0.1 + 2e-4


@pytest.mark.parametrize("coordinate", [0, 1, 2])
@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_torsion_check_non_finite_point_exits_three(tmp_path, capsys, coordinate, value):
    # json reads these literals as floats; NaN fails every collar comparison
    point = ["1.0", "1.2", "0.8"]
    point[coordinate] = value
    points = tmp_path / "pts.json"
    points.write_text(f"[[{', '.join(point)}]]")
    out = tmp_path / "t.json"
    assert run(["torsion-check", str(points), "--output", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("spinsphere: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "point, message",
    [
        ("[[0.05, 1.2, 0.8]]", "point (0.05, 1.2, 0.8) is inside the 0.1-rad degeneracy collar"),
        ("[[NaN, 1.2, 0.8]]", "point (nan, 1.2, 0.8) has a non-finite coordinate"),
        # the given point, not one of its stencil points, and the stencil's reach
        ("[[0.10015, 1.2, 0.8]]", "point (0.10015, 1.2, 0.8) is within the curvature "
         "stencil's reach 2h = 0.0002 of the 0.1-rad degeneracy collar"),
    ],
)
def test_torsion_check_point_messages_print_plain_numbers(tmp_path, capsys, point, message):
    points = tmp_path / "pts.json"
    points.write_text(point)
    assert run(["torsion-check", str(points), "--output", str(tmp_path / "t.json")]) == 3
    assert capsys.readouterr().err == f"spinsphere: {message}\n"


@pytest.mark.parametrize(
    "point",
    # chi and theta's sines vanish at every multiple of pi; next to these points
    # the curvature stencil reads about 421 for a connection that is flat
    [[1.2, 2 * np.pi + 0.001, 0.5], [1.2, -np.pi + 0.001, 0.5], [3 * np.pi + 0.001, 1.2, 0.5]],
)
def test_torsion_check_collar_surrounds_every_multiple_of_pi(tmp_path, capsys, point):
    points = tmp_path / "pts.json"
    points.write_text(json.dumps([point]))
    out = tmp_path / "t.json"
    assert run(["torsion-check", str(points), "--output", str(out)]) == 3
    assert "inside the 0.1-rad degeneracy collar" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_nan_direction_exits_one(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"n_trials": 100, "seed": 1, "direction_pairs": [[[NaN, 0, 0], [0, 0, 1]]]}')
    assert run(["simulate", str(cfg), "--output", str(tmp_path / "c.csv")]) == 1
    assert capsys.readouterr().err == "spinsphere: direction pairs must be unit vectors\n"


def test_grids_too_fine_to_reach_stop_still_hold_their_start(tmp_path):
    out = tmp_path / "d.csv"
    argv = ["distances", "--start", "1", "--stop", "1", "--step", "1e-20", "--output", str(out)]
    assert run(argv) == 0
    eta = np.radians(1.0)
    assert out.read_text() == (
        f"eta,su2,so3\n1,{-np.cos(eta):.17g},{-1.0 + 2.0 * eta / np.pi:.17g}\n"
    )
    spec = {"start_deg": 10.0, "stop_deg": 10.0, "step_deg": 5e-324}
    cfg = write_config(tmp_path / "run.json", direction_pairs=spec)
    curve = tmp_path / "c.csv"
    assert run(["simulate", str(cfg), "--output", str(curve)]) == 0
    lines = curve.read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("10,")


def test_grid_whose_step_does_not_move_its_start_exits_one(tmp_path, capsys):
    # arange would repeat start on every one of about 111,000 rows
    out = tmp_path / "d.csv"
    argv = ["distances", "--start", "1", "--stop", "1.000000000000001", "--step", "1e-20"]
    assert run([*argv, "--output", str(out)]) == 1
    assert capsys.readouterr().err == (
        "spinsphere: grid step 1e-20 is below the spacing of doubles at 1.0\n"
    )
    assert not out.exists()
    spec = {"start_deg": 10.0, "stop_deg": 10.000000000000002, "step_deg": 1e-20}
    cfg = write_config(tmp_path / "run.json", direction_pairs=spec)
    curve = tmp_path / "c.csv"
    assert run(["simulate", str(cfg), "--output", str(curve)]) == 1
    assert "grid step 1e-20" in capsys.readouterr().err
    assert not curve.exists()


def test_torsion_check_bad_point_in_a_later_chunk_exits_three(tmp_path, capsys):
    # index 6 lies in the second chunk of the stacked curvature call
    points = [[1.0 + 0.1 * i, 1.2, 0.8] for i in range(10)]
    points[6] = [0.05, 1.2, 0.8]
    path = tmp_path / "pts.json"
    path.write_text(json.dumps(points))
    out = tmp_path / "t.json"
    assert run(["torsion-check", str(path), "--output", str(out)]) == 3
    assert capsys.readouterr().err == (
        "spinsphere: point (0.05, 1.2, 0.8) is inside the 0.1-rad degeneracy collar\n"
    )
    assert not out.exists()
