"""Monte Carlo ensemble, the three correlation statistics, rotor dispersion."""

import hashlib
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from spinsphere import algebra, chsh, geometry, spin
from spinsphere.errors import DomainError, InvalidConfig, NonConvergentSequence, TooFewTrials

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


def make_config(**kw):
    base = dict(
        n_trials=1000,
        seed=42,
        lambda_mode="balanced_exact",
        direction_pairs=[(E3, E1)],
    )
    base.update(kw)
    return spin.ExperimentConfig(**base)


def empty_ensemble():
    return spin.TrialEnsemble(
        s=np.zeros((0, 3)), lam=np.zeros(0, dtype=np.int8), r_a=np.zeros(0)
    )


def test_grid_pairs_default_count():
    pairs = spin.ExperimentConfig(n_trials=2, seed=0).resolved_pairs()
    assert len(pairs) == 37
    a0, b0 = pairs[0]
    assert np.allclose(a0, E3) and np.allclose(b0, E3)
    a_last, b_last = pairs[-1]
    assert np.allclose(b_last, [np.sin(np.pi), 0, np.cos(np.pi)], atol=1e-15)


def test_grid_degrees_inclusive_and_validated():
    degrees = spin.grid_degrees(0.0, 180.0, 5.0)
    assert degrees.size == 37 and degrees[0] == 0.0 and degrees[-1] == 180.0
    assert [b[0] for _, b in spin.grid_pairs(0.0, 90.0, 90.0)] == [0.0, 1.0]
    with pytest.raises(InvalidConfig):
        spin.grid_degrees(0.0, 180.0, 0.0)
    with pytest.raises(InvalidConfig):
        spin.grid_degrees(10.0, 0.0, 1.0)


@pytest.mark.parametrize("start, step", [(1.0, 1e-20), (10.0, 5e-324), (0.0, 1.0), (-3.5, 2.0)])
def test_grid_degrees_always_holds_its_start(start, step):
    # a step too small to move stop leaves arange empty; the grid keeps its start
    assert spin.grid_degrees(start, start, step).tolist() == [start]
    cfg = make_config(direction_pairs={"start_deg": start, "stop_deg": start, "step_deg": step})
    assert cfg.pair_degrees() == [start]
    assert len(cfg.validate().resolved_pairs()) == 1


def test_grid_degrees_row_cap():
    rows = spin.grid_degrees(0.0, spin.MAX_GRID_ROWS - 1.0, 1.0)
    assert rows.size == spin.MAX_GRID_ROWS
    for args in [
        (0.0, float(spin.MAX_GRID_ROWS), 1.0),
        (0.0, 360.0, 1e-6),
        (0.0, np.inf, 1.0),
        (-np.inf, 0.0, 1.0),
        (np.nan, 1.0, 1.0),
        (0.0, 1.0, np.nan),
    ]:
        with pytest.raises(InvalidConfig):
            spin.grid_degrees(*args)


def test_pair_degrees_grid_values_and_explicit_angles():
    cfg = make_config(direction_pairs={"start_deg": 0.0, "stop_deg": 20.0, "step_deg": 5.0})
    assert cfg.pair_degrees() == [0.0, 5.0, 10.0, 15.0, 20.0]
    cfg = make_config(direction_pairs=[(E3, E1), (E3, [0.6, 0.0, 0.8])])
    assert cfg.pair_degrees() == [
        float(np.degrees(geometry.separation_angle(a, b))) for a, b in cfg.resolved_pairs()
    ]


def test_config_validation():
    with pytest.raises(InvalidConfig):
        make_config(n_trials=0).validate()
    with pytest.raises(InvalidConfig):
        make_config(lambda_mode="biased").validate()
    with pytest.raises(InvalidConfig):
        make_config(alignment_mode="gaussian").validate()
    with pytest.raises(InvalidConfig):
        make_config(n_trials=5).validate()  # balanced needs even n
    with pytest.raises(InvalidConfig):
        make_config(direction_pairs=[(E1, 2 * E2)]).validate()


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_trials", 20000.7),
        ("seed", 1.9),
        ("n_trials", True),
        ("seed", False),
        ("n_trials", "50"),
        ("seed", "1"),
        ("n_trials", np.nan),
        ("seed", None),
    ],
)
def test_config_refuses_non_integral_trials_and_seeds(field, value):
    # int() would truncate them: 20000.7 would run 20,000 trials, seed 1.9 seed 1
    # and True one trial
    cfg = spin.ExperimentConfig(**{"n_trials": 20000, "seed": 1, field: value})
    with pytest.raises(InvalidConfig, match=f"{field} must be an integer"):
        cfg.validate()
    with pytest.raises(InvalidConfig):
        spin.correlation_curve(cfg)


@pytest.mark.parametrize("mc_trials, seed", [(1000.5, 3), (1000, 3.7), (True, 3), ("1000", 3)])
def test_monte_carlo_search_refuses_non_integral_trials_and_seeds(mc_trials, seed):
    with pytest.raises(InvalidConfig, match="must be an integer"):
        chsh.maximize_chsh("monte_carlo", chsh.OptimizerConfig(mc_trials=mc_trials, seed=seed))


@pytest.mark.parametrize("threads", [2.7, "2", True, 0, -3, None])
def test_correlation_curve_refuses_non_integral_or_nonpositive_threads(threads):
    # int() made 2.7 and "2" two workers, and True, 0 and -3 one, silently
    cfg = make_config(n_trials=1000)
    with pytest.raises(InvalidConfig, match="threads must be"):
        spin.correlation_curve(cfg, threads=threads)


@pytest.mark.parametrize("budget", [363.9, "400", True, 0, None])
def test_search_refuses_non_integral_or_nonpositive_budgets(budget):
    # int() read 363.9 as 363 units, "400" as 400 and True as 1
    with pytest.raises(InvalidConfig, match="budget must be"):
        chsh.maximize_chsh("su2_cosine", chsh.OptimizerConfig(budget=budget))


@pytest.mark.parametrize("kind", ["su2_cosine", "so3_saw"])
@pytest.mark.parametrize(
    "field, value",
    [("threads", 2.7), ("threads", 0), ("seed", "x"), ("seed", 3.7), ("mc_trials", -5)],
)
def test_closed_form_search_refuses_non_integral_or_nonpositive_fields(kind, field, value):
    # the closed forms read none of these fields, and returned 2 sqrt(2) for any value
    with pytest.raises(InvalidConfig, match=f"{field} must be"):
        chsh.maximize_chsh(kind, chsh.OptimizerConfig(**{field: value}))


@pytest.mark.parametrize("threads", [2.7, 0])
def test_monte_carlo_search_refuses_non_integral_or_nonpositive_threads(threads):
    cfg = chsh.OptimizerConfig(mc_trials=1000, threads=threads)
    with pytest.raises(InvalidConfig, match="threads must be"):
        chsh.maximize_chsh("monte_carlo", cfg)


def test_threads_and_budget_take_integral_floats_and_numpy_integers():
    cfg = make_config(n_trials=2 * spin.BLOCK_TRIALS + 4)
    want = curve_bytes(spin.correlation_curve(cfg, threads=2))
    for threads in (2.0, np.int64(2), np.uint8(2)):
        assert curve_bytes(spin.correlation_curve(cfg, threads=threads)) == want
    for budget in (364.0, np.int32(364)):
        report = chsh.maximize_chsh("su2_cosine", chsh.OptimizerConfig(budget=budget))
        assert report.chsh_value == pytest.approx(chsh.TSIRELSON_BOUND)


def test_config_takes_integral_floats_and_numpy_integers():
    want = spin.simulate_ensemble(make_config(n_trials=1000, seed=42))
    for n_trials, seed in [(1000.0, 42.0), (np.int64(1000), np.int32(42)), (1000, np.uint64(42))]:
        got = spin.simulate_ensemble(make_config(n_trials=n_trials, seed=seed))
        assert got.s.tobytes() == want.s.tobytes() and got.lam.tobytes() == want.lam.tobytes()


@pytest.mark.parametrize("pair", [([np.nan, 0.0, 0.0], E3), (E3, [0.0, np.nan, 1.0])])
def test_config_rejects_nan_directions(pair):
    with pytest.raises(InvalidConfig, match="unit vectors"):
        make_config(direction_pairs=[pair]).validate()


def test_balanced_four_trials():
    trials = spin.simulate_ensemble(make_config(n_trials=4))
    assert sorted(trials.lam.tolist()) == [-1, -1, 1, 1]


def test_fair_coin_mean_and_isotropy():
    trials = spin.simulate_ensemble(
        make_config(n_trials=1_000_000, lambda_mode="fair_coin")
    )
    assert abs(trials.lam.astype(float).mean()) < 0.004
    assert abs(trials.s[:, 2].mean()) < 0.002
    norms = np.linalg.norm(trials.s, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-12


def test_ensemble_deterministic():
    a = spin.simulate_ensemble(make_config())
    b = spin.simulate_ensemble(make_config())
    assert a.s.tobytes() == b.s.tobytes()
    assert a.lam.tobytes() == b.lam.tobytes()
    assert a.r_a.tobytes() == b.r_a.tobytes()


def test_ensemble_never_orthogonal_to_configured_directions():
    trials = spin.simulate_ensemble(make_config(n_trials=20_000))
    for d in (E3, E1):
        assert np.abs(trials.s @ d).min() >= spin.ORTHO_TOL


def test_redraw_replaces_a_trial_orthogonal_to_a_repeated_direction():
    # the first axis the generator draws for seed 5, and a direction exactly
    # orthogonal to it, configured twice so the distinct-direction check
    # still has to catch it
    first = np.random.Generator(np.random.Philox(key=5)).standard_normal(3)
    d = np.cross(first, E1)
    d /= np.linalg.norm(d)
    assert abs(first @ d) < spin.ORTHO_TOL * np.linalg.norm(first)
    trials = spin.simulate_ensemble(
        make_config(n_trials=10, seed=5, direction_pairs=[(d, E3), (d, d)])
    )
    assert not np.allclose(trials.s[0], first / np.linalg.norm(first))
    assert np.abs(trials.s @ d).min() >= spin.ORTHO_TOL


def test_uniform_r_mode():
    trials = spin.simulate_ensemble(
        make_config(n_trials=10_000, alignment_mode="uniform_r")
    )
    assert 0.45 < trials.r_a.mean() < 0.55
    assert trials.r_a.min() >= 0.0 and trials.r_a.max() <= 1.0


def test_raw_correlation_equal_settings():
    trials = spin.simulate_ensemble(make_config())
    est, err = spin.raw_correlation(trials, E3, E3)
    assert est == -1.0
    assert err == 0.0


def test_raw_correlation_orthogonal_and_oracle():
    from spinsphere import oracle

    cfg = make_config(
        n_trials=100_000,
        direction_pairs=[(E3, E1), (E3, [np.sin(np.pi / 3), 0, np.cos(np.pi / 3)])],
    )
    trials = spin.simulate_ensemble(cfg)
    est, err = spin.raw_correlation(trials, *cfg.resolved_pairs()[0])
    assert abs(est) < 3 * err
    a, b = cfg.resolved_pairs()[1]
    est, err = spin.raw_correlation(trials, a, b)
    assert abs(est - oracle.sign_model_correlation(np.pi / 3)) < 3 * err


def test_raw_score_mean_vanishes():
    trials = spin.simulate_ensemble(make_config(n_trials=100_000))
    n = len(trials)
    assert abs(np.mean(np.sign(trials.s @ E3))) < 3 / np.sqrt(n)


def test_raw_correlation_exact_rotation_invariance():
    cfg = make_config(n_trials=20_000)
    trials = spin.simulate_ensemble(cfg)
    base = spin.raw_correlation(trials, E3, E1)
    q = algebra.rotor_exp(algebra.bivector_embed([0.48, -0.6, 0.64]), 0.9)
    # orthogonal action on vectors through the bivector sandwich
    R = np.stack(
        [
            algebra.bivector_axis(
                algebra.rotate_bivector(q, algebra.bivector_embed(e))
            )
            for e in np.eye(3)
        ],
        axis=1,
    )
    rotated = spin.TrialEnsemble(s=trials.s @ R.T, lam=trials.lam, r_a=trials.r_a)
    got = spin.raw_correlation(rotated, R @ E3, R @ E1)
    assert got[0] == base[0]


def test_too_few_trials():
    trials = spin.simulate_ensemble(make_config(n_trials=2))
    one = spin.TrialEnsemble(s=trials.s[:1], lam=trials.lam[:1], r_a=trials.r_a[:1])
    with pytest.raises(TooFewTrials):
        spin.raw_correlation(one, E3, E1)
    with pytest.raises(TooFewTrials):
        spin.standard_score_correlation(empty_ensemble(), E3, E1)
    with pytest.raises(TooFewTrials):
        spin.scalar_product_correlation(empty_ensemble(), E3, E1)
    with pytest.raises(TooFewTrials):
        spin.quaternion_std_dev(0.5, E3, empty_ensemble())


def test_measurement_variables_are_scalars():
    for lam in (1, -1):
        for d in (E1, E2, [0.6, 0.0, 0.8]):
            A = spin.measurement_A(d, lam)
            B = spin.measurement_B(d, lam)
            assert np.abs(A[1:]).max() == 0.0
            assert np.abs(B[1:]).max() == 0.0
            assert A[0] == lam
            assert B[0] == -lam


def test_standard_score_examples():
    assert np.array_equal(spin.standard_score(E3, 1), algebra.bivector_embed(E3))
    assert np.array_equal(spin.standard_score(E3, -1), -algebra.bivector_embed(E3))


def test_standard_score_via_rotor_route():
    a = np.array([0.36, 0.48, 0.8])
    for lam in (1, -1):
        want = spin.standard_score(a, lam)
        for psi in (0.3, 2.0, 5.1):
            got = spin.standard_score_via_rotor(psi, a, lam)
            assert np.abs(got - want).max() < 1e-15


def test_standard_score_correlation_equal_settings():
    trials = spin.simulate_ensemble(make_config())
    assert spin.standard_score_correlation(trials, E3, E3) == (-1.0, 0.0)


def test_standard_score_correlation_balanced_exact():
    trials = spin.simulate_ensemble(make_config(n_trials=2000))
    for eta in (0.3, 1.1, 2.4):
        b = np.array([np.sin(eta), 0.0, np.cos(eta)])
        scalar, residual = spin.standard_score_correlation(trials, E3, b)
        assert abs(scalar - (-np.cos(eta))) < 1e-15
        assert residual == 0.0


def test_standard_score_correlation_fair_coin():
    trials = spin.simulate_ensemble(
        make_config(n_trials=10_000, lambda_mode="fair_coin")
    )
    scalar, residual = spin.standard_score_correlation(trials, E3, E1)
    assert scalar == 0.0
    assert residual < 0.04


def test_scalar_product_correlation_constant():
    trials = spin.simulate_ensemble(make_config())
    for b in (E3, E1, [0.6, 0.0, 0.8]):
        assert spin.scalar_product_correlation(trials, E3, b) == -1.0


def test_quaternion_std_dev_special_angles():
    trials = spin.simulate_ensemble(make_config(n_trials=200))
    a = np.array([0.0, 0.6, 0.8])
    at_pi = spin.quaternion_std_dev(np.pi, a, trials)
    assert np.abs(at_pi - algebra.even_embed([1, 0, 0, 0])).max() < 1e-12
    d = algebra.bivector_embed(a)
    for psi in (0.0, 2 * np.pi):
        got = spin.quaternion_std_dev(psi, a, trials)
        assert min(np.abs(got - d).max(), np.abs(got + d).max()) < 1e-12


def test_quaternion_std_dev_matches_spread_grid():
    trials = spin.simulate_ensemble(make_config(n_trials=200))
    a = np.array([0.48, -0.6, 0.64])
    for psi in np.linspace(0.0, 4 * np.pi, 10):
        got = spin.quaternion_std_dev(psi, a, trials)
        p = spin.spread_rotor(psi, a)
        assert min(np.abs(got - p).max(), np.abs(got + p).max()) < 1e-12


def per_trial_quaternion_std_dev(psi, a, trials):
    """The dispersion averaged over (n, 8) per-trial rotors, kept as the reference."""
    lam = trials.lam.astype(float)
    q_psi = lam[:, None] * spin.spin_rotor(psi, a, 1)[None, :]
    q_conj = lam[:, None] * spin.spin_rotor(2.0 * np.pi - psi, a, 1)[None, :]
    m = q_psi.mean(axis=0)
    products = np.einsum(
        "ni,nj,ijk->nk", q_psi - m, algebra.reverse(q_conj - m), algebra.CAYLEY
    )
    return algebra.rotor_sqrt(products.mean(axis=0), default_axis=algebra.bivector_embed(-a))


@pytest.mark.parametrize("mode", ["balanced_exact", "fair_coin"])
def test_quaternion_std_dev_matches_the_per_trial_average(mode):
    a = np.array([0.3, -0.4, np.sqrt(0.75)])
    for seed in (1, 2, 3):
        trials = spin.simulate_ensemble(make_config(n_trials=20_000, seed=seed, lambda_mode=mode))
        for psi in (0.0, 0.7, np.pi, 5.0, 4 * np.pi):
            got = spin.quaternion_std_dev(psi, a, trials)
            assert np.abs(got - per_trial_quaternion_std_dev(psi, a, trials)).max() < 1e-12


def test_quaternion_std_dev_memory_does_not_grow_with_the_trials():
    import tracemalloc

    def peak(n_trials):
        trials = spin.simulate_ensemble(make_config(n_trials=n_trials, lambda_mode="fair_coin"))
        tracemalloc.start()
        try:
            spin.quaternion_std_dev(0.7, E3, trials)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # past numpy's 8192-element casting buffer of the integer sum, the peak
    # is flat; an (n, 8) float64 array alone would be 12.8 MB at 200,000 trials
    small, large = peak(20_000), peak(200_000)
    assert large <= small + 4 * 2**10
    assert large <= 256 * 2**10


def test_quaternion_std_dev_domain():
    trials = spin.simulate_ensemble(make_config(n_trials=4))
    with pytest.raises(DomainError):
        spin.quaternion_std_dev(4 * np.pi + 0.1, E3, trials)


def test_measurement_limit_at_zero():
    for lam in (1, -1):
        report = spin.measurement_limit([0.5, 0.1, 1e-5], E3, lam)
        assert report.value[0] == lam
        assert np.abs(report.value[1:]).max() == 0.0
        assert report.deviation < 1e-4


def test_measurement_limit_at_two_pi():
    report = spin.measurement_limit([6.0, 2 * np.pi - 1e-6], E3, 1)
    assert report.value[0] == -1.0
    assert report.deviation < 1e-5


def test_measurement_limit_rejects_half_turn():
    with pytest.raises(NonConvergentSequence) as exc:
        spin.measurement_limit([np.pi, np.pi], E3, 1)
    assert exc.value.is_scalar is False
    # at psi = pi the rotor is the pure bivector L(a, lam)
    assert np.abs(exc.value.value - algebra.bivector_embed(E3)).max() < 1e-15


def test_spin_basis_closure_both_orientations():
    for lam in (1, -1):
        basis = spin.spin_basis(lam)
        assert np.array_equal(basis[0], algebra.even_embed([1, 0, 0, 0]))
        for mu in range(3):
            for nu in range(3):
                prod = algebra.oriented_product(basis[mu + 1], basis[nu + 1], lam)
                want = np.zeros(8)
                if mu == nu:
                    want[0] = -1.0
                else:
                    rho = 3 - mu - nu
                    sign = 1.0 if (mu, nu) in [(0, 1), (1, 2), (2, 0)] else -1.0
                    want = -sign * basis[rho + 1]
                assert np.abs(prod - want).max() < 1e-15
    with pytest.raises(InvalidConfig):
        spin.spin_basis(0)


def test_correlation_curve_threads_identical():
    cfg = make_config(
        n_trials=4000,
        direction_pairs={"start_deg": 0.0, "stop_deg": 180.0, "step_deg": 30.0},
    )
    seq = spin.correlation_curve(cfg, threads=1)
    par = spin.correlation_curve(cfg, threads=8)
    assert len(seq) == 7
    for r1, r2 in zip(seq, par):
        assert r1.raw_mc == r2.raw_mc
        assert r1.raw_stderr == r2.raw_stderr
        assert r1.standard_score_scalar == r2.standard_score_scalar
        assert r1.scalar_product_form == r2.scalar_product_form


def test_correlation_curve_scalar_form_once_per_ensemble(monkeypatch):
    sums = []
    original = spin._curve_rows

    def counted(pairs, counts, n):
        sums.append((counts[-1], n))
        return original(pairs, counts, n)

    monkeypatch.setattr(spin, "_curve_rows", counted)
    cfg = make_config(
        n_trials=2 * spin.BLOCK_TRIALS + 2,
        direction_pairs={"start_deg": 0.0, "stop_deg": 180.0, "step_deg": 30.0},
    )
    results = spin.correlation_curve(cfg, threads=4)
    # one scalar form, from the lam * (-lam) sum over every block of the ensemble
    assert len(results) == 7 and sums == [(-cfg.n_trials, cfg.n_trials)]
    assert all(r.scalar_product_form == -1.0 for r in results)


STREAM_CONFIGS = {
    "fair_coin_grid": dict(
        lambda_mode="fair_coin",
        direction_pairs={"start_deg": 0.0, "stop_deg": 180.0, "step_deg": 15.0},
    ),
    "fair_coin_pairs": dict(
        lambda_mode="fair_coin",
        direction_pairs=[(E3, E1), (E1, E2), ([0.6, 0.0, 0.8], [0.0, -0.8, 0.6]), (E2, -E2)],
    ),
    "balanced_grid": dict(
        lambda_mode="balanced_exact",
        direction_pairs={"start_deg": 10.0, "stop_deg": 170.0, "step_deg": 40.0},
    ),
    "balanced_pairs_uniform_r": dict(
        lambda_mode="balanced_exact",
        alignment_mode="uniform_r",
        direction_pairs=[(E3, [0.6, 0.0, 0.8]), (E1, E1)],
    ),
}


def stream_config(name):
    # three trials past two full blocks (two for balanced_exact, which needs even n)
    extra = 2 if STREAM_CONFIGS[name]["lambda_mode"] == "balanced_exact" else 3
    return make_config(n_trials=2 * spin.BLOCK_TRIALS + extra, **STREAM_CONFIGS[name])


def assert_curve_equals_materialized_estimators(cfg, trials):
    rows = spin.correlation_curve(cfg)
    assert len(rows) == len(cfg.resolved_pairs())
    for row, (a, b) in zip(rows, cfg.resolved_pairs()):
        assert (row.raw_mc, row.raw_stderr) == spin.raw_correlation(trials, a, b)
        assert (
            row.standard_score_scalar,
            row.standard_score_residual_bivector_norm,
        ) == spin.standard_score_correlation(trials, a, b)
        assert row.scalar_product_form == spin.scalar_product_correlation(trials, a, b)
    return rows


@pytest.mark.parametrize("name", sorted(STREAM_CONFIGS))
def test_correlation_curve_rows_equal_materialized_estimators(name):
    cfg = stream_config(name)
    trials = spin.simulate_ensemble(cfg)
    rows = assert_curve_equals_materialized_estimators(cfg, trials)
    if cfg.lambda_mode == "balanced_exact":
        assert int(trials.lam.sum()) == 0
        assert all(row.standard_score_residual_bivector_norm == 0.0 for row in rows)


GRID_7 = {"start_deg": 0.0, "stop_deg": 180.0, "step_deg": 7.0}
REDRAW_CONFIGS = {
    "fair_coin_grid": dict(lambda_mode="fair_coin", direction_pairs=GRID_7),
    "balanced_grid": dict(lambda_mode="balanced_exact", direction_pairs=GRID_7),
    "fair_coin_pairs": STREAM_CONFIGS["fair_coin_pairs"],
    "balanced_pairs_uniform_r": dict(
        STREAM_CONFIGS["fair_coin_pairs"], lambda_mode="balanced_exact", alignment_mode="uniform_r"
    ),
}
# sha256 of s, lam and r_a bytes at ORTHO_TOL = 0.05, as the ensemble
# drawn with per-block temporaries gave them
REDRAW_ENSEMBLE_SHA256 = {
    "fair_coin_grid": "2301fadb847f5bac88bb92ed408e6c9ad8fcea02d0a8ed77eb27eb48f1390119",
    "balanced_grid": "405337c7b2b5403cffd152fff7cd5557d850f5c7afcc79ce85a88498399f9cb7",
    "fair_coin_pairs": "6d079f6a6bef6b0cb625b566930038ebfefd0d804fff2dbccf8f51996f227a57",
    "balanced_pairs_uniform_r": "802f59de5b337fdecad7d9b34a6da40dd99942834e64cea63b7e62c710f87cc1",
}


@pytest.mark.parametrize("name", sorted(REDRAW_CONFIGS))
def test_streamed_curve_through_redraws(name, monkeypatch):
    settings = REDRAW_CONFIGS[name]
    # a short last block after two full ones
    extra = 2 if settings["lambda_mode"] == "balanced_exact" else 3
    cfg = make_config(n_trials=2 * spin.BLOCK_TRIALS + extra, **settings)
    plain = spin.simulate_ensemble(cfg)
    # a tolerance this wide sends a visible share of the trials through redraws
    monkeypatch.setattr(spin, "ORTHO_TOL", 0.05)
    trials = spin.simulate_ensemble(cfg)
    # redraws replace trials in place: the trials that differ are the redrawn ones
    assert np.any(trials.s != plain.s, axis=1).mean() > 0.2
    directions = spin._pair_directions(cfg.resolved_pairs())[0]
    assert np.abs(trials.s @ directions.T).min() >= 0.05 - 1e-12
    digest = hashlib.sha256(trials.s.tobytes() + trials.lam.tobytes() + trials.r_a.tobytes())
    assert digest.hexdigest() == REDRAW_ENSEMBLE_SHA256[name]
    assert_curve_equals_materialized_estimators(cfg, trials)


def assert_planar_blocks_equal_projection_blocks(cfg):
    cfg.validate()
    directions, ia, ib = spin._pair_directions(cfg.resolved_pairs())
    plane = spin._plane(directions, (2, 0), ia, ib)
    for c, lo, hi in spin._blocks(cfg.n_trials):
        projected = spin._block_counts(cfg, directions, ia, ib, c, hi - lo, spin._Workspace())
        planar = plane.counts(spin._planar_counts(cfg, plane, c, hi - lo, spin._Workspace()))
        assert planar.tobytes() == projected.tobytes()


PLANAR_GRIDS = {
    "5": (0.0, 180.0, 5.0),
    "7": (0.0, 180.0, 7.0),
    "3_step_7": (3.0, 178.0, 7.0),
    "half": (0.0, 180.0, 0.5),
    "one_row": (10.0, 10.0, 1.0),
    "0_to_180_by_45": (0.0, 180.0, 45.0),
    "minus_180_to_180_by_30": (-180.0, 180.0, 30.0),
}


# at 0.05 only grids more than 5 degrees apart: on a finer one every in-plane
# angle lies within asin(0.05) = 2.9 degrees of a boundary, and the redraws
# of either reducer would never end
PLANAR_CASES = [(grid, spin.ORTHO_TOL) for grid in sorted(PLANAR_GRIDS)] + [
    (grid, 0.05) for grid in sorted(PLANAR_GRIDS) if PLANAR_GRIDS[grid][2] > 5.0
]


@pytest.mark.parametrize("alignment_mode", ["unit", "uniform_r"])
@pytest.mark.parametrize("lambda_mode", ["fair_coin", "balanced_exact"])
@pytest.mark.parametrize("grid, tol", PLANAR_CASES)
def test_planar_block_counts_equal_projection_counts(
    grid, tol, lambda_mode, alignment_mode, monkeypatch
):
    start, stop, step = PLANAR_GRIDS[grid]
    monkeypatch.setattr(spin, "ORTHO_TOL", tol)
    cfg = make_config(
        n_trials=spin.BLOCK_TRIALS + 2,
        seed=2026,
        lambda_mode=lambda_mode,
        alignment_mode=alignment_mode,
        direction_pairs={"start_deg": start, "stop_deg": stop, "step_deg": step},
    )
    assert_planar_blocks_equal_projection_blocks(cfg)


def test_a_trial_near_a_boundary_takes_the_exact_path(monkeypatch):
    # found by search: at seed 40 one trial of the default grid's first block
    # lies within alpha of a boundary at the default tolerance
    cfg = spin.ExperimentConfig(n_trials=spin.BLOCK_TRIALS, seed=40, lambda_mode="fair_coin")
    assert_planar_blocks_equal_projection_blocks(cfg)
    calls = []
    failing, differ = spin._failing, spin._differ

    def check(directions, vectors, *rest):
        calls.append(("check", len(vectors)))
        return failing(directions, vectors, *rest)

    def count(directions, ia, ib, vectors, work):
        calls.append(("count", len(vectors)))
        return differ(directions, ia, ib, vectors, work)

    # only the exact path's calls: _block_counts checks and counts every trial
    monkeypatch.setattr(spin, "_failing", check)
    monkeypatch.setattr(spin, "_differ", count)
    directions, ia, ib = spin._pair_directions(cfg.validate().resolved_pairs())
    plane = spin._plane(directions, (2, 0), ia, ib)
    spin._planar_counts(cfg, plane, 0, cfg.n_trials, spin._Workspace())
    # the check on the trial; it is not redrawn, and its checked angle counts it
    assert calls == [("check", 1)]


@pytest.mark.parametrize("name", ["fair_coin_grid", "balanced_pairs_uniform_r"])
def test_block_sums_in_reversed_order_give_the_same_bytes(name):
    cfg = stream_config(name).validate()
    pairs = cfg.resolved_pairs()
    directions, ia, ib = spin._pair_directions(pairs)
    blocks = list(spin._blocks(cfg.n_trials))
    assert len(blocks) == 3
    # a grid's blocks go through the planar reducer, explicit pairs' through projections
    if cfg._grid() is None:
        reduce, args, layout = spin._block_counts, (directions, ia, ib), lambda summed: summed
    else:
        plane = spin._plane(directions, (2, 0), ia, ib)
        reduce, args, layout = spin._planar_counts, (plane,), plane.counts
    counts = [reduce(cfg, *args, c, hi - lo, spin._Workspace()) for c, lo, hi in blocks]
    backward = spin._curve_rows(pairs, layout(sum(reversed(counts))), cfg.n_trials)
    forward = spin.correlation_curve(cfg)

    def row_bytes(rows):
        return [
            np.array([r.raw_mc, r.raw_stderr, r.standard_score_residual_bivector_norm]).tobytes()
            for r in rows
        ]

    assert row_bytes(backward) == row_bytes(forward)


def test_block_c_draws_from_philox_counter_c():
    cfg = make_config(n_trials=2 * spin.BLOCK_TRIALS)
    trials = spin.simulate_ensemble(cfg)
    for c in (0, 1):
        rng = np.random.Generator(np.random.Philox(key=cfg.seed, counter=[0, 0, 0, c]))
        first = rng.standard_normal(3)
        assert np.array_equal(trials.s[c * spin.BLOCK_TRIALS], first / np.linalg.norm(first))


def test_correlation_curve_memory_does_not_grow_with_blocks():
    import tracemalloc

    def peak(blocks):
        cfg = make_config(
            n_trials=blocks * spin.BLOCK_TRIALS,
            direction_pairs={"start_deg": 0.0, "stop_deg": 180.0, "step_deg": 30.0},
        )
        tracemalloc.start()
        try:
            spin.correlation_curve(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    four, thirty_two = peak(4), peak(32)
    # a materialized ensemble would need 8x the memory at 32 blocks
    assert thirty_two < 1.25 * four


@pytest.mark.skipif(sys.platform != "linux", reason="ru_minflt counts minor faults on Linux")
def test_correlation_curve_reuses_its_pages():
    # a fresh interpreter: an earlier large allocation in this process raises
    # the allocator's trim threshold and would hide the faults
    code = (
        "import resource; from spinsphere import spin; "
        "cfg = spin.ExperimentConfig(n_trials=1_000_000, seed=2026); "
        "spin.correlation_curve(cfg); "
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt; "
        "spin.correlation_curve(cfg); "
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)"
    )
    src = str(Path(spin.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    # fresh temporaries in each of the 62 blocks took about 66,500 faults
    assert int(out.stdout) < 6_000


@pytest.mark.skipif(sys.platform != "linux", reason="ru_minflt counts minor faults on Linux")
def test_pooled_correlation_curve_reuses_its_pages():
    # the threads=2 twin of the test above: one workspace per worker
    code = (
        "import resource; from spinsphere import spin; "
        "cfg = spin.ExperimentConfig(n_trials=1_000_000, seed=2026); "
        "spin.correlation_curve(cfg, threads=2); "
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt; "
        "spin.correlation_curve(cfg, threads=2); "
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)"
    )
    src = str(Path(spin.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert int(out.stdout) < 6_000


@pytest.mark.skipif(sys.platform != "linux", reason="ru_minflt counts minor faults on Linux")
def test_pooled_pair_curve_reuses_its_pages():
    # the explicit-pairs twin: explicit pairs take _checked_draw and the
    # projection counter, which the grid's two tests never reach
    code = (
        "import resource; import numpy as np; from spinsphere import spin; "
        "e = np.eye(3); g = np.array([[1, 2, 3], [-2, 1, 1], [3, -1, 2], [1, 1, -4], "
        "[-1, 3, 1], [2, 2, 1]], float); g /= np.linalg.norm(g, axis=1)[:, None]; "
        "pairs = [(e[2], e[0]), (e[0], e[1]), (g[0], g[1]), (g[2], g[3]), (g[4], g[5])]; "
        "cfg = spin.ExperimentConfig(n_trials=1_000_000, seed=2026, direction_pairs=pairs); "
        "spin.correlation_curve(cfg, threads=2); "
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt; "
        "spin.correlation_curve(cfg, threads=2); "
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)"
    )
    src = str(Path(spin.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert int(out.stdout) < 6_000


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "consumer, tol",
    [
        ("grid", spin.ORTHO_TOL),
        ("grid", 0.05),
        ("pairs", spin.ORTHO_TOL),
        ("pairs", 0.05),
        ("table", spin.ORTHO_TOL),
    ],
)
def test_each_worker_reuses_one_workspace(consumer, tol, threads, monkeypatch):
    # a deterministic witness of the reuse the page-fault tests above see
    # only through the allocator: one workspace per worker, and no take
    # that replaces a buffer already big enough for the view asked for
    made, replaced = [], []

    class Counting(spin._Workspace):
        def __init__(self):
            super().__init__()
            made.append(self)
            self.largest = {}  # per buffer name, the largest view taken so far

        def take(self, name, shape, dtype=np.float64):
            view = super().take(name, shape, dtype)
            held = self.largest.get(name)
            if held is None or held.size < view.size:
                self.largest[name] = view
            elif view.size and not np.may_share_memory(view, held):
                replaced.append(name)
            return view

    monkeypatch.setattr(spin, "_Workspace", Counting)
    monkeypatch.setattr(spin, "_usable_cpus", lambda: 8)
    monkeypatch.setattr(spin, "ORTHO_TOL", tol)
    n = 5 * spin.BLOCK_TRIALS + 3  # six blocks, the last one short
    if consumer == "table":
        chsh.maximize_chsh("monte_carlo", chsh.OptimizerConfig(mc_trials=n, threads=threads))
    else:
        configs = STREAM_CONFIGS if tol == spin.ORTHO_TOL else REDRAW_CONFIGS
        settings = configs["fair_coin_grid" if consumer == "grid" else "fair_coin_pairs"]
        spin.correlation_curve(make_config(n_trials=n, **settings), threads=threads)
    assert len(made) == threads
    assert replaced == []


def curve_peak(direction_pairs):
    import tracemalloc

    cfg = make_config(
        n_trials=2 * spin.BLOCK_TRIALS, lambda_mode="fair_coin", direction_pairs=direction_pairs
    )
    tracemalloc.start()
    try:
        spin.correlation_curve(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def grid_curve_peak(step_deg, explicit):
    grid = {"start_deg": 0.0, "stop_deg": 180.0, "step_deg": step_deg}
    # the same pairs as explicit vectors take the projection reducer
    return curve_peak(spin.grid_pairs(**grid) if explicit else grid)


def test_workspace_memory_grows_by_the_signs_per_direction():
    def peak(step_deg):
        return grid_curve_peak(step_deg, explicit=True)

    # k = 37 distinct directions against k = 361; the float64 projections
    # (128 KiB per direction unsliced) and the bool signs are both taken in
    # chunks of at most 8 x 2^14 entries, so neither grows with k
    per_direction = (peak(0.5) - peak(5.0)) / (361 - 37)
    assert per_direction <= 32 * 1024


def test_grid_curve_memory_does_not_grow_with_directions():
    # k = 37 distinct directions against k = 3,601: the planar reducer keeps
    # no per-direction signs or projections, only a few trial columns
    fine, coarse = grid_curve_peak(0.05, explicit=False), grid_curve_peak(5.0, explicit=False)
    per_direction = (fine - coarse) / (3601 - 37)
    assert per_direction <= 2 * 1024


def test_pair_curve_memory_does_not_grow_with_directions():
    # the same pairs as explicit vectors: checked and counted in chunks of
    # trials, with no per-direction signs kept for the whole block
    fine, coarse = grid_curve_peak(0.05, explicit=True), grid_curve_peak(5.0, explicit=True)
    per_direction = (fine - coarse) / (3601 - 37)
    assert per_direction <= 2 * 1024


def test_pair_curve_memory_does_not_grow_with_pairs():
    # 10 distinct pairs over 11 directions, repeated: the counter gathers two
    # sign rows per pair, so its chunks shrink as the pairs grow, where packed
    # sign rows gathered per pair took 3 KiB per extra pair
    pairs = spin.grid_pairs(0.0, 45.0, 5.0)
    assert (curve_peak(pairs * 100) - curve_peak(pairs)) / (1000 - 10) <= 1024


def curve_bytes(rows):
    return [
        np.array(
            [
                r.raw_mc,
                r.raw_stderr,
                r.standard_score_scalar,
                r.standard_score_residual_bivector_norm,
                r.scalar_product_form,
            ]
        ).tobytes()
        for r in rows
    ]


def assert_pooled_rows_are_the_same_bytes(name, reducer, tol, monkeypatch):
    # five full blocks and a short one; 0.05 sends many trials through redraws
    configs = STREAM_CONFIGS if tol == spin.ORTHO_TOL else REDRAW_CONFIGS
    settings = configs[name]
    cfg = make_config(n_trials=5 * spin.BLOCK_TRIALS + 3, **settings)
    monkeypatch.setattr(spin, "ORTHO_TOL", tol)
    monkeypatch.setattr(spin, "_usable_cpus", lambda: 8)
    original = getattr(spin, reducer)
    ran = {}

    def recorded(*args):
        ran[args[-3]] = threading.current_thread()  # the reducer's block index c
        return original(*args)

    monkeypatch.setattr(spin, reducer, recorded)
    rows = {}
    interval = sys.getswitchinterval()
    # frequent thread switches, with more workers than a 2-core host has cores
    sys.setswitchinterval(1e-6)
    try:
        for threads in (1, 2, 3):
            ran.clear()
            rows[threads] = curve_bytes(spin.correlation_curve(cfg, threads=threads))
            # every block once, on as many threads as workers, in strides
            assert sorted(ran) == list(range(6))
            assert len(set(ran.values())) == threads
            assert all(ran[c] is ran[c % threads] for c in ran)
    finally:
        sys.setswitchinterval(interval)
    assert rows[1] == rows[2] == rows[3]


@pytest.mark.parametrize("tol", [spin.ORTHO_TOL, 0.05])
def test_pooled_rows_are_the_same_bytes_for_any_worker_count(tol, monkeypatch):
    assert_pooled_rows_are_the_same_bytes("fair_coin_grid", "_planar_counts", tol, monkeypatch)


@pytest.mark.parametrize("tol", [spin.ORTHO_TOL, 0.05])
def test_pooled_pair_rows_are_the_same_bytes_for_any_worker_count(tol, monkeypatch):
    assert_pooled_rows_are_the_same_bytes("fair_coin_pairs", "_block_counts", tol, monkeypatch)


def test_worker_count_is_capped_by_blocks_and_usable_cpus(monkeypatch):
    before = threading.active_count()
    cpus = spin._usable_cpus()
    assert 1 <= cpus <= os.cpu_count()
    assert spin._worker_count(100_000, 62) == min(cpus, 62)
    assert spin._worker_count(100_000, 1) == 1
    assert spin._worker_count(1, 62) == 1
    monkeypatch.setattr(spin, "_usable_cpus", lambda: 64)
    assert spin._worker_count(100_000, 62) == 62
    assert spin._worker_count(3, 62) == 3
    assert threading.active_count() == before


def assert_a_failing_worker_raises_in_the_caller(reducer, direction_pairs, monkeypatch):
    monkeypatch.setattr(spin, "_usable_cpus", lambda: 2)
    original = getattr(spin, reducer)
    ran, failed = [], []

    def failing(*args):
        c = args[-3]  # the reducer's block index
        ran.append(c)
        if c == 3:
            failed.append(threading.current_thread())
            raise MemoryError("block 3")
        if c == 4:
            # the calling thread's block 4, if it gets that far, ends after
            # the failed worker has
            deadline = time.monotonic() + 60
            while not failed and time.monotonic() < deadline:
                time.sleep(0.001)
            failed[0].join(timeout=60)
            assert not failed[0].is_alive()
        return original(*args)

    monkeypatch.setattr(spin, reducer, failing)
    cfg = make_config(n_trials=40 * spin.BLOCK_TRIALS, direction_pairs=direction_pairs)
    before = threading.active_count()
    # block 3 is the second block of worker 1, a thread of its own
    with pytest.raises(MemoryError, match="block 3"):
        spin.correlation_curve(cfg, threads=2)
    assert threading.active_count() == before
    # the calling thread stops at its next block instead of reducing all 20
    assert 3 in ran and max(ran) <= 4


def test_a_failing_worker_raises_in_the_caller(monkeypatch):
    assert_a_failing_worker_raises_in_the_caller("_block_counts", [(E3, E1)], monkeypatch)


def test_a_failing_grid_worker_raises_in_the_caller(monkeypatch):
    assert_a_failing_worker_raises_in_the_caller("_planar_counts", GRID_7, monkeypatch)


def test_correlation_curve_references():
    cfg = make_config(n_trials=100, direction_pairs=[(E3, E1)])
    res = spin.correlation_curve(cfg)[0]
    assert res.su2_reference == geometry.su2_distance(np.pi / 2)
    assert res.so3_reference == geometry.so3_distance(np.pi / 2)
    assert -1.0 <= res.raw_mc <= 1.0
    assert -1.0 <= res.standard_score_scalar <= 1.0


class ScaledNormals:
    """A numpy Generator whose standard normals come out multiplied by scale."""

    def __init__(self, generator, scale, redraws):
        self._generator, self._scale, self._redraws = generator, scale, redraws

    def standard_normal(self, size=None, out=None):
        if out is None:
            self._redraws.append(size)
        normals = self._generator.standard_normal(size, out=out)
        normals *= self._scale
        return normals

    def __getattr__(self, name):
        return getattr(self._generator, name)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("tol", [spin.ORTHO_TOL, 0.05])
def test_draw_block_norms_equal_linalg_norm(scale, tol, monkeypatch):
    # the two-add norm sum of the first draw and the redraw check's
    # np.linalg.norm must agree bit for bit
    redraws = []
    generator = np.random.Generator
    monkeypatch.setattr(
        np.random, "Generator", lambda bits: ScaledNormals(generator(bits), scale, redraws)
    )
    monkeypatch.setattr(spin, "ORTHO_TOL", tol)
    cfg = make_config(
        n_trials=2 * spin.BLOCK_TRIALS + 3, lambda_mode="fair_coin", direction_pairs=GRID_7
    )
    directions = spin._pair_directions(cfg.validate().resolved_pairs())[0]
    work = spin._Workspace()
    for c, lo, hi in spin._blocks(cfg.n_trials):
        raw, norms = spin._checked_draw(cfg, directions, c, hi - lo, work)[:2]
        assert np.abs(np.log10(norms / scale)).max() < 2
        assert norms.tobytes() == np.linalg.norm(raw, axis=1).tobytes()
    # a tolerance this wide sends trials of every block through redraws
    assert len(redraws) >= 3 if tol == 0.05 else not redraws


def test_measurement_limit_rejects_a_nan_tail():
    with pytest.raises(NonConvergentSequence):
        spin.measurement_limit([0.1, np.nan], E3, 1)
