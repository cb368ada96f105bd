"""CHSH string, torsion commutator, variance bound, and the maximizer."""

import numpy as np
import pytest

from spinsphere import algebra, chsh, spin
from spinsphere.errors import InvalidConfig, OptimizerBudgetExceeded

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])

SQRT2 = np.sqrt(2.0)


def planar(deg):
    t = np.radians(deg)
    return np.array([np.cos(t), np.sin(t), 0.0])


def coplanar_config(a_deg, ap_deg, b_deg, bp_deg):
    return chsh.ChshConfig(
        a=planar(a_deg), a_prime=planar(ap_deg), b=planar(b_deg), b_prime=planar(bp_deg)
    )


def test_config_rejects_non_unit_and_bad_kind():
    with pytest.raises(InvalidConfig):
        chsh.ChshConfig(a=2 * E1, a_prime=E2, b=E1, b_prime=E2)
    with pytest.raises(InvalidConfig):
        chsh.ChshConfig(a=E1, a_prime=E2, b=E1, b_prime=E2, correlation_kind="exact")


def test_string_sign_placement():
    # the 0/90/45/135 quadruple: the minus sits on the (a', b') term, so
    # the cosine terms cancel (-s2/2 + s2/2 - s2/2 + s2/2) and the saw
    # terms do too (-0.5 + 0.5 - 0.5 + 0.5)
    config = coplanar_config(0.0, 90.0, 45.0, 135.0)
    assert abs(chsh.chsh_string(config, chsh.su2_cosine_correlator)) < 1e-15
    assert abs(chsh.chsh_string(config, chsh.so3_saw_correlator)) < 1e-15


def test_string_cosine_maximizing_quadruple():
    config = coplanar_config(0.0, 90.0, 225.0, 135.0)
    value = chsh.chsh_string(config, chsh.su2_cosine_correlator)
    assert abs(value - 2 * SQRT2) < 1e-15


def test_string_degenerate_quadruple():
    config = chsh.ChshConfig(a=E1, a_prime=E1, b=E1, b_prime=E1)
    assert chsh.chsh_string(config, chsh.su2_cosine_correlator) == -2.0
    assert chsh.chsh_string(config, chsh.so3_saw_correlator) == -2.0


def test_string_monte_carlo_correlator():
    trials = spin.simulate_ensemble(
        spin.ExperimentConfig(n_trials=50_000, seed=5, direction_pairs=[(E1, E2)])
    )
    correlator = chsh.monte_carlo_correlator(trials)
    config = chsh.ChshConfig(a=E1, a_prime=E1, b=E1, b_prime=E1)
    assert chsh.chsh_string(config, correlator) == -2.0


def test_string_rotational_invariance():
    config = coplanar_config(0.0, 90.0, 225.0, 135.0)
    q = algebra.rotor_exp(algebra.bivector_embed([0.6, 0.0, 0.8]), 0.7)

    def rotate(v):
        return algebra.bivector_axis(
            algebra.rotate_bivector(q, algebra.bivector_embed(v))
        )

    turned = chsh.ChshConfig(
        a=rotate(config.a),
        a_prime=rotate(config.a_prime),
        b=rotate(config.b),
        b_prime=rotate(config.b_prime),
    )
    for correlator in (chsh.su2_cosine_correlator, chsh.so3_saw_correlator):
        assert abs(
            chsh.chsh_string(config, correlator) - chsh.chsh_string(turned, correlator)
        ) < 1e-12


def test_commutator_examples():
    assert np.abs(chsh.commutator_torsion(E1, E1, 1)).max() == 0.0
    got = chsh.commutator_torsion(E1, E2, 1)
    assert np.abs(got + algebra.bivector_embed(E3)).max() < 1e-15


def test_commutator_two_ways():
    rng = np.random.Generator(np.random.Philox(key=6))
    for lam in (1, -1):
        for _ in range(20):
            a = rng.standard_normal(3)
            a /= np.linalg.norm(a)
            ap = rng.standard_normal(3)
            ap /= np.linalg.norm(ap)
            direct = chsh.commutator_torsion(a, ap, lam)
            closed = -lam * algebra.bivector_embed(np.cross(a, ap))
            assert np.abs(direct - closed).max() < 1e-14


def test_commutator_antisymmetry():
    for lam in (1, -1):
        fwd = chsh.commutator_torsion(E1, [0.6, 0.8, 0.0], lam)
        bwd = chsh.commutator_torsion([0.6, 0.8, 0.0], E1, lam)
        assert np.abs(fwd + bwd).max() < 1e-15


def test_variance_rhs_extremes():
    # quadruples realizing (a x a') . (b' x b) = -1, +1, and 0
    low = chsh.variance_rhs(E1, E2, E1, E2)
    assert abs(low.idealized - 2 * SQRT2) < 1e-15
    high = chsh.variance_rhs(E1, E2, E2, E1)
    assert high.idealized == 0.0
    degenerate = chsh.variance_rhs(E1, E1, E1, E2)
    assert degenerate.idealized == 2.0


def test_corrected_variance_bound_orientation():
    # (a x a') . (b' x b) = -1 at (E1, E2, E1, E2), where the cosine string
    # is 0; +1 at the Tsirelson quadruple, where it is 2 sqrt(2)
    assert chsh.variance_rhs(E1, E2, E1, E2).corrected == 0.0
    config = coplanar_config(0.0, 90.0, 225.0, 135.0)
    value = chsh.chsh_string(config, chsh.su2_cosine_correlator)
    bound = chsh.variance_rhs(config.a, config.a_prime, config.b, config.b_prime)
    assert abs(value - 2 * SQRT2) < 1e-12
    assert abs(bound.corrected - 2 * SQRT2) < 1e-12
    assert bound.idealized == 0.0


def test_corrected_variance_bound_holds_on_acceptance_quadruples():
    # the 10,000 seed-707 quadruples of test_acceptance.py::test_07, which
    # asserts the literal (idealized) orientation
    rng = np.random.Generator(np.random.Philox(key=707))
    worst = -np.inf
    for _ in range(10_000):
        v = rng.standard_normal((4, 3))
        a, ap, b, bp = v / np.linalg.norm(v, axis=1, keepdims=True)
        value = chsh.chsh_string(chsh.ChshConfig(a, ap, b, bp), chsh.su2_cosine_correlator)
        worst = max(worst, abs(value) - chsh.variance_rhs(a, ap, b, bp).corrected)
    assert worst <= 1e-9


def test_variance_rhs_finite_n():
    trials = spin.simulate_ensemble(
        spin.ExperimentConfig(
            n_trials=1000,
            seed=9,
            lambda_mode="balanced_exact",
            direction_pairs=[(E1, E2)],
        )
    )
    # non-coplanar quadruple so the two torsion axes are not parallel
    b = np.array([0.6, 0.0, 0.8])
    bound = chsh.variance_rhs(E1, E2, b, E2, trials)
    # balanced ensemble: the mean-lambda term vanishes
    assert abs(bound.finite_n - bound.idealized) < 1e-15
    fair = spin.simulate_ensemble(
        spin.ExperimentConfig(
            n_trials=1000, seed=9, lambda_mode="fair_coin", direction_pairs=[(E1, E2)]
        )
    )
    bound_fair = chsh.variance_rhs(E1, E2, b, E2, fair)
    assert bound_fair.finite_n != bound_fair.idealized


def test_maximize_su2():
    report = chsh.maximize_chsh("su2_cosine")
    assert -1e-3 <= report.chsh_value - 2 * SQRT2 <= 1e-9
    assert report.rhs_bound == 2 * SQRT2
    assert abs(report.chsh_value) <= report.rhs_bound + 1e-9
    assert report.angles_deg is not None
    string = chsh.chsh_string(
        chsh.ChshConfig(*report.directions), chsh.su2_cosine_correlator
    )
    assert abs(abs(string) - report.chsh_value) < 1e-12


def test_maximize_so3():
    report = chsh.maximize_chsh("so3_saw")
    assert abs(report.chsh_value - 2.0) <= 1e-3


def test_maximize_monte_carlo_small():
    cfg = chsh.OptimizerConfig(mc_trials=100_000)
    report = chsh.maximize_chsh("monte_carlo", cfg)
    stderr = 2.0 / np.sqrt(cfg.mc_trials)
    assert abs(report.chsh_value - 2.0) < 3 * stderr
    assert report.angles_deg is not None


def test_maximize_rejects_unknown_kind():
    with pytest.raises(InvalidConfig):
        chsh.maximize_chsh("quantum")


def test_maximize_budget_enforced():
    with pytest.raises(OptimizerBudgetExceeded):
        chsh.maximize_chsh("su2_cosine", chsh.OptimizerConfig(budget=10))


def test_one_estimator_pins_sign_zero_and_closed_form_stderr():
    # a = z, b = x: products sign(s_z) sign(-s_x) are +1, +1, -1 and 0
    trials = spin.TrialEnsemble(
        s=np.array([[-1.0, 0.0, 1.0], [1.0, 0.0, -1.0], [1.0, 0.0, 1.0], [1.0, 0.0, 0.0]]),
        lam=np.array([1, -1, 1, -1], dtype=np.int8),
        r_a=np.ones(4),
    )
    estimate, stderr = spin.raw_correlation(trials, E3, E1)
    assert abs(estimate - 0.25) < 1e-15
    assert abs(stderr - np.sqrt(2.75 / 3) / 2) < 1e-15
    assert chsh.monte_carlo_correlator(trials)(E3, E1) == estimate


def test_monte_carlo_ensemble_redraw_checks_the_table_anchor(monkeypatch):
    drawn = []

    def capture(config):
        drawn.append(config)
        return spin.simulate_ensemble(config)

    monkeypatch.setattr(chsh, "simulate_ensemble", capture)
    chsh.maximize_chsh("monte_carlo", chsh.OptimizerConfig(mc_trials=1000))
    (config,) = drawn
    pairs = config.resolved_pairs()
    assert len(pairs) == 1
    for direction in pairs[0]:
        assert np.array_equal(direction, E1)


@pytest.mark.parametrize("seed", [1, 2, 7, 11, 2026])
def test_monte_carlo_search_never_exceeds_local_bound(seed):
    # every per-trial string of +-1/0 outcomes lies in [-2, 2], so the mean does
    report = chsh.maximize_chsh("monte_carlo", chsh.OptimizerConfig(seed=seed))
    assert report.chsh_value <= 2.0


def test_monte_carlo_count_table_matches_direct_estimator():
    trials = spin.simulate_ensemble(
        spin.ExperimentConfig(200_000, 31, direction_pairs=[(E1, E1)])
    )
    table = chsh._planar_count_table(trials)
    rng = np.random.default_rng(5)
    for i, j in rng.integers(0, 360, size=(24, 2)):
        assert table[i, j] / len(trials) == spin.raw_correlation(trials, planar(i), planar(j))[0]


def test_monte_carlo_count_table_keeps_edge_signs():
    # x-hat against d_90 = (6.1e-17, 1, 0) is +1, the pole z-hat scores 0 everywhere,
    # and (1, 1, 0)/sqrt(2) sits on the 45-degree grid direction
    generic = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
    s = np.array([E1, E2, E3, np.array([1.0, 1.0, 0.0]) / SQRT2, generic])
    trials = spin.TrialEnsemble(s=s, lam=np.ones(5, dtype=np.int8), r_a=np.ones(5))
    table = chsh._planar_count_table(trials)
    for i in (0, 45, 90, 270):
        for j in range(360):
            assert table[i, j] / 5 == spin.raw_correlation(trials, planar(i), planar(j))[0]


def test_monte_carlo_search_charges_one_evaluation_per_table_entry():
    with pytest.raises(OptimizerBudgetExceeded):
        chsh.maximize_chsh("monte_carlo", chsh.OptimizerConfig(budget=360**2 - 1, mc_trials=1000))
    report = chsh.maximize_chsh("monte_carlo", chsh.OptimizerConfig(budget=360**2, mc_trials=1000))
    assert report.chsh_value <= 2.0


def test_monte_carlo_count_table_rounds_grid_azimuths_like_the_estimator():
    # s on integer-degree azimuths: s.d is near 0 at 90 degrees away, and its
    # rounded sign must be the one raw_correlation's dot product gives
    rng = np.random.default_rng(9)
    k = np.radians(rng.integers(0, 360, size=2000))
    s = np.stack([np.cos(k), np.sin(k), rng.normal(size=2000)], axis=1)
    s *= rng.uniform(0.1, 3.0, size=(2000, 1))
    trials = spin.TrialEnsemble(s=s, lam=np.ones(2000, dtype=np.int8), r_a=np.ones(2000))
    table = chsh._planar_count_table(trials)
    for i in rng.integers(0, 360, size=12):
        row = [spin.raw_correlation(trials, planar(i), planar(j))[0] for j in range(360)]
        assert np.array_equal(table[i] / 2000, row)


CLOSED_FORMS = [
    ("su2_cosine", chsh.su2_cosine_correlator, chsh._cosine_law, 2 * SQRT2),
    ("so3_saw", chsh.so3_saw_correlator, chsh._saw_law, 2.0),
]


def test_search_reports_the_stage_of_its_maximum():
    assert chsh.maximize_chsh("su2_cosine").stage == "grid"
    assert chsh.maximize_chsh("so3_saw").stage == "grid"
    report = chsh.maximize_chsh("monte_carlo", chsh.OptimizerConfig(mc_trials=1000))
    assert report.stage == "grid"


@pytest.mark.parametrize("kind, correlator, law, top", CLOSED_FORMS)
def test_law_table_matches_the_scalar_correlator(monkeypatch, kind, correlator, law, top):
    tables = []
    grid_max = chsh._coplanar_grid_max

    def capture(table):
        tables.append(table)
        return grid_max(table)

    monkeypatch.setattr(chsh, "_coplanar_grid_max", capture)
    chsh.maximize_chsh(kind)
    (table,) = tables
    assert np.array_equal(table[0], [correlator(E1, planar(d)) for d in range(360)])
    for u in (1, 90, 359):
        assert np.array_equal(table[u], np.roll(table[0], u))


@pytest.mark.parametrize("kind, correlator, law, top", CLOSED_FORMS)
@pytest.mark.parametrize("seed", [1, 2, 7, 2026])
def test_guard_reaches_the_closed_form_maximum(kind, correlator, law, top, seed):
    budget = chsh._Budget(10**9)
    value, directions = chsh._random_restart_guard(
        correlator, top - 1e-5, chsh.RESTARTS, seed, budget, law
    )
    assert abs(value - top) <= 1e-9
    assert abs(chsh.chsh_string(chsh.ChshConfig(*directions), correlator)) == value
    assert chsh._random_restart_guard(correlator, top, chsh.RESTARTS, seed, budget, law) is None


@pytest.mark.parametrize("kind, correlator, law, top", CLOSED_FORMS)
def test_search_reports_the_guard_stage_when_it_wins(monkeypatch, kind, correlator, law, top):
    guard = chsh._random_restart_guard

    def short_threshold(scalar, coplanar_value, *args):
        return guard(scalar, coplanar_value - 1e-5, *args)

    monkeypatch.setattr(chsh, "_random_restart_guard", short_threshold)
    report = chsh.maximize_chsh(kind)
    assert report.stage == "guard"
    assert report.angles_deg is None
    assert abs(report.chsh_value - top) <= 1e-9


@pytest.mark.parametrize("kind", ["su2_cosine", "so3_saw"])
def test_closed_form_search_makes_one_minimize_call(monkeypatch, kind):
    calls = []
    minimize = chsh.minimize

    def counted(*args, **kwargs):
        calls.append(kwargs.get("method"))
        return minimize(*args, **kwargs)

    monkeypatch.setattr(chsh, "minimize", counted)
    chsh.maximize_chsh(kind)
    assert calls == ["L-BFGS-B"]


@pytest.mark.parametrize("kind, correlator, law, top", CLOSED_FORMS)
def test_guard_gradient_matches_central_differences(kind, correlator, law, top):
    rng = np.random.default_rng(13)
    quadruples = []
    while len(quadruples) < 20:
        v = rng.normal(size=(4, 3))
        u = v / np.linalg.norm(v, axis=1, keepdims=True)
        if np.abs(u[:2] @ u[2:].T).max() < 0.99:  # away from the saw's kinks
            quadruples.append(v)
    v = np.array(quadruples)
    values, grad = chsh._guard_objective(law, v)

    def abs_string(w):
        return abs(chsh._string(correlator, *(w / np.linalg.norm(w, axis=1, keepdims=True))))

    h = 1e-6
    for r in range(len(v)):
        assert abs(values[r] - abs_string(v[r])) < 1e-12
        for k in range(4):
            for i in range(3):
                step = np.zeros((4, 3))
                step[k, i] = h
                numeric = (abs_string(v[r] + step) - abs_string(v[r] - step)) / (2 * h)
                assert abs(grad[r, k, i] - numeric) < 1e-6


def test_guard_charges_its_budget_inside_minimize(monkeypatch):
    spent = []

    def record(correlator, coplanar_value, restarts, seed, budget, law):
        spent.append(budget.spent)

    monkeypatch.setattr(chsh, "_random_restart_guard", record)
    chsh.maximize_chsh("su2_cosine")
    monkeypatch.undo()

    raised = []
    minimize = chsh.minimize

    def watched(*args, **kwargs):
        try:
            return minimize(*args, **kwargs)
        except OptimizerBudgetExceeded:
            raised.append(True)
            raise

    monkeypatch.setattr(chsh, "minimize", watched)
    # covers the table and the grid value, but not one evaluation of all restarts
    config = chsh.OptimizerConfig(budget=spent[0] + 4 * chsh.RESTARTS - 1)
    with pytest.raises(OptimizerBudgetExceeded):
        chsh.maximize_chsh("su2_cosine", config)
    assert raised == [True]
