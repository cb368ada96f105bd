"""CHSH string, torsion commutator, variance bound, and the maximizer."""

import sys
import threading
import tracemalloc

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


@pytest.mark.parametrize("field", ["a", "a_prime", "b", "b_prime"])
def test_config_rejects_nan_directions(field):
    vectors = dict(a=E1, a_prime=E2, b=E1, b_prime=E2)
    vectors[field] = np.array([np.nan, 0.0, 0.0])
    with pytest.raises(InvalidConfig):
        chsh.ChshConfig(**vectors)


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
    planes = []
    planar_counts = spin._planar_counts

    def capture(config, plane, *args):
        planes.append(plane)
        return planar_counts(config, plane, *args)

    monkeypatch.setattr(spin, "_planar_counts", capture)
    chsh.maximize_chsh("monte_carlo", chsh.OptimizerConfig(mc_trials=1000))
    # 1000 trials are one block, checked against the 360 directions of the table
    (plane,) = planes
    assert plane.directions is chsh._GRID and plane.columns == (0, 1)
    assert np.array_equal(plane.directions, [planar(k) for k in range(360)])


@pytest.mark.parametrize("seed", [1, 5, 99, 2026])
@pytest.mark.parametrize("mc_trials", [3, 1000])
def test_monte_carlo_value_is_forced_by_the_local_bound(seed, mc_trials):
    # the lowest tied grid string has a = a' = x-hat, so each per-trial
    # string is 2 sign(s.x) sign(-s.b) = +-2; b = -x-hat makes them all +2,
    # and no mean of strings in [-2, 2] exceeds that: 2.0 for every ensemble
    report = chsh.maximize_chsh("monte_carlo", chsh.OptimizerConfig(seed=seed, mc_trials=mc_trials))
    assert report.chsh_value == 2.0
    assert report.angles_deg[:2] == (0.0, 0.0)


@pytest.mark.parametrize("mc_trials", [0, -5])
def test_monte_carlo_search_rejects_empty_ensembles(mc_trials):
    with pytest.raises(InvalidConfig):
        chsh.maximize_chsh("monte_carlo", chsh.OptimizerConfig(mc_trials=mc_trials))


@pytest.mark.parametrize("seed", [1, 2, 7, 11, 2026])
def test_monte_carlo_search_never_exceeds_local_bound(seed):
    # every per-trial string of +-1 outcomes lies in [-2, 2], so the mean does
    report = chsh.maximize_chsh("monte_carlo", chsh.OptimizerConfig(seed=seed))
    assert report.chsh_value <= 2.0


def lattice_config(n, seed):
    """A config listing the 360 grid directions, so simulate_ensemble checks
    every trial against each direction of the Monte Carlo table."""
    return spin.ExperimentConfig(n, seed, direction_pairs=[(d, d) for d in chsh._GRID])


def monte_carlo_table(mc_trials, seed, threads=1):
    """The count table the Monte Carlo search hands its grid max."""
    tables = []
    grid_max = chsh._coplanar_grid_max
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chsh, "_coplanar_grid_max", lambda t: tables.append(t) or grid_max(t))
        cfg = chsh.OptimizerConfig(seed=seed, mc_trials=mc_trials, threads=threads)
        chsh.maximize_chsh("monte_carlo", cfg)
    (table,) = tables
    assert table.dtype == np.int64 and table.shape == (360, 360)
    return table


def assert_table_is_the_sign_product(table, trials):
    # the sums are exact in float64; no sign is 0, as every trial was checked
    signs = np.sign(trials.s @ chsh._GRID.T)
    assert np.all(signs != 0)
    assert np.array_equal(table, -(signs.T @ signs))


def assert_table_rows_are_the_estimator(table, trials):
    # rows 10, 179 and 300 hold pairs across the cut at +-180 degrees, row 0 none
    for i in (0, 10, 179, 300):
        row = [spin.raw_correlation(trials, planar(i), planar(j))[0] for j in range(360)]
        assert np.array_equal(table[i] / len(trials), row)


def test_monte_carlo_count_table_matches_direct_estimator():
    table = monte_carlo_table(200_000, 31)
    trials = spin.simulate_ensemble(lattice_config(200_000, 31))
    rng = np.random.default_rng(5)
    for i, j in rng.integers(0, 360, size=(24, 2)):
        assert table[i, j] / len(trials) == spin.raw_correlation(trials, planar(i), planar(j))[0]


@pytest.mark.parametrize(
    "n", [1, 3, spin.BLOCK_TRIALS, spin.BLOCK_TRIALS + 7, 200_001]
)
def test_streamed_count_table_equals_the_materialized_table(n):
    trials = spin.simulate_ensemble(lattice_config(n, 13))
    assert_table_is_the_sign_product(monte_carlo_table(n, 13), trials)


def test_streamed_count_table_through_redraws(monkeypatch):
    cfg = lattice_config(2 * spin.BLOCK_TRIALS + 3, 21)
    plain = spin.simulate_ensemble(cfg)
    # redraws every trial within 0.005 of orthogonal to a grid direction; above
    # sin(0.5 degrees) = 0.0087 no trial would pass and the redraws would never end
    monkeypatch.setattr(spin, "ORTHO_TOL", 0.005)
    trials = spin.simulate_ensemble(cfg)
    assert np.any(trials.s != plain.s, axis=1).mean() > 0.5
    assert np.abs(trials.s @ chsh._GRID.T).min() >= 0.005 - 1e-12
    table = monte_carlo_table(len(trials), 21)
    assert_table_is_the_sign_product(table, trials)
    assert_table_rows_are_the_estimator(table, trials)


def test_monte_carlo_search_memory_does_not_grow_with_the_trials():
    def peak(mc_trials):
        tracemalloc.start()
        try:
            chsh.maximize_chsh("monte_carlo", chsh.OptimizerConfig(mc_trials=mc_trials))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(2**15), peak(1_000_000)
    assert large <= 16 * 2**20
    assert large <= small + 2 * 2**20


def test_monte_carlo_search_charges_one_evaluation_per_table_entry():
    with pytest.raises(OptimizerBudgetExceeded):
        chsh.maximize_chsh("monte_carlo", chsh.OptimizerConfig(budget=360**2 - 1, mc_trials=1000))
    report = chsh.maximize_chsh("monte_carlo", chsh.OptimizerConfig(budget=360**2, mc_trials=1000))
    assert report.chsh_value <= 2.0


CLOSED_FORMS = [
    ("su2_cosine", chsh.su2_cosine_correlator, chsh.TSIRELSON_BOUND),
    ("so3_saw", chsh.so3_saw_correlator, 2.0),
]


def test_search_reports_the_stage_of_its_maximum():
    assert chsh.maximize_chsh("su2_cosine").stage == "grid"
    assert chsh.maximize_chsh("so3_saw").stage == "grid"
    report = chsh.maximize_chsh("monte_carlo", chsh.OptimizerConfig(mc_trials=1000))
    assert report.stage == "grid"


@pytest.mark.parametrize("kind, correlator, top", CLOSED_FORMS)
def test_law_table_matches_the_scalar_correlator(monkeypatch, kind, correlator, top):
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


@pytest.mark.parametrize("kind, correlator, top", CLOSED_FORMS)
def test_batched_laws_never_exceed_their_proven_bounds(kind, correlator, top):
    # |S| <= 2 sqrt(2) for the cosine law (Cirel'son 1980) and <= 2 for the
    # saw, a local +-1 model's correlation (CHSH 1969), over all unit vectors;
    # 10^5 full-sphere quadruples test them where the coplanar grid never looks
    rng = np.random.Generator(np.random.Philox(key=17))
    v = rng.standard_normal((100_000, 4, 3))
    u = v / np.linalg.norm(v, axis=-1, keepdims=True)
    strings = np.abs(chsh._string(correlator, *np.moveaxis(u, 1, 0)))
    assert strings.max() <= top
    assert strings.max() > top - 0.05  # the sample comes close to the bound
    for r in np.argsort(strings)[-5:]:
        assert abs(abs(chsh._string(correlator, *u[r])) - strings[r]) < 1e-12


@pytest.mark.parametrize("kind, correlator, top", CLOSED_FORMS)
def test_closed_form_search_attains_the_proven_maximum_exactly(kind, correlator, top):
    assert chsh.maximize_chsh(kind).chsh_value == top


@pytest.mark.parametrize("kind", ["su2_cosine", "so3_saw"])
def test_closed_form_report_does_not_depend_on_the_seed(kind):
    reports = [chsh.maximize_chsh(kind, chsh.OptimizerConfig(seed=s)) for s in (1, 7, 2026)]
    for report in reports[1:]:
        assert report.chsh_value == reports[0].chsh_value
        assert report.angles_deg == reports[0].angles_deg
        assert np.array_equal(report.directions, reports[0].directions)


@pytest.mark.parametrize("kind", ["su2_cosine", "so3_saw"])
def test_closed_form_search_charges_the_table_and_one_string(kind):
    # 360 law table entries, then the scalar string at the grid argmax
    with pytest.raises(OptimizerBudgetExceeded):
        chsh.maximize_chsh(kind, chsh.OptimizerConfig(budget=363))
    report = chsh.maximize_chsh(kind, chsh.OptimizerConfig(budget=364))
    default = chsh.maximize_chsh(kind)
    assert (report.chsh_value, report.angles_deg) == (default.chsh_value, default.angles_deg)


def per_u_grid_max(table):
    """The coplanar grid max as one Python step per u, kept as the reference."""
    best = (-1.0, 0, 0, 0)
    for u in range(table.shape[0]):
        A = table[0] + table[u]
        B = table[0] - table[u]
        v_hi, v_lo = int(np.argmax(A)), int(np.argmin(A))
        w_hi, w_lo = int(np.argmax(B)), int(np.argmin(B))
        hi = A[v_hi] + B[w_hi]
        lo = A[v_lo] + B[w_lo]
        for value, v, w in ((abs(hi), v_hi, w_hi), (abs(lo), v_lo, w_lo)):
            if value > best[0] + chsh.TIE_MARGIN:
                best = (value, u, v, w)
    return best


def assert_grid_max_matches_the_per_u_loop(table):
    got, want = chsh._coplanar_grid_max(table), per_u_grid_max(table)
    assert got[1:] == want[1:]
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()


@pytest.mark.parametrize("kind", ["su2_cosine", "so3_saw"])
def test_grid_max_matches_the_per_u_loop_on_circulant_views(monkeypatch, kind):
    tables = []
    grid_max = chsh._coplanar_grid_max

    def capture(table):
        tables.append(table)
        return grid_max(table)

    monkeypatch.setattr(chsh, "_coplanar_grid_max", capture)
    chsh.maximize_chsh(kind)
    (table,) = tables
    assert not table.flags.owndata  # the zero-copy sliding-window view
    assert_grid_max_matches_the_per_u_loop(table)


@pytest.mark.parametrize("seed", [1, 7, 2026])
def test_grid_max_matches_the_per_u_loop_on_count_tables(seed):
    assert_grid_max_matches_the_per_u_loop(monte_carlo_table(1_000_000, seed))


def test_grid_max_matches_the_per_u_loop_on_tied_tables():
    rng = np.random.default_rng(16)
    for trial in range(200):
        # sizes below, at and past one and two steps of _GRID_ROWS rows, and the old 45
        step = chsh._GRID_ROWS
        n = int(rng.choice([1, 2, step - 1, step, step + 1, 2 * step, 44, 45, 46, 91, 180, 360]))
        table = rng.integers(-2, 3, size=(n, n))  # exact ties everywhere
        if trial % 3 == 1:
            table = table.astype(float)
        elif trial % 3 == 2:
            # ties broken by up to a few TIE_MARGIN, so strings fall on both sides of it
            nudge = rng.integers(-1, 2, size=(n, n)) * rng.uniform(0.0, 2.0, size=(n, n))
            table = table + nudge * chsh.TIE_MARGIN
        assert_grid_max_matches_the_per_u_loop(table)


# exact-path trials: none at the default tolerance, some in every full block
# at 1e-8, and every trial at 0.005, which also redraws most of them
EXACT_BLOCKS = {spin.ORTHO_TOL: set(), 1e-8: set(range(5)), 0.005: set(range(6))}


@pytest.mark.parametrize("ortho_tol", sorted(EXACT_BLOCKS))
def test_pooled_count_table_is_the_same_for_any_worker_count(monkeypatch, ortho_tol):
    # five full blocks and a short one
    n = 5 * spin.BLOCK_TRIALS + 3
    monkeypatch.setattr(spin, "ORTHO_TOL", ortho_tol)
    monkeypatch.setattr(spin, "_usable_cpus", lambda: 8)
    original, failing = spin._planar_counts, spin._failing
    ran, exact, block = {}, set(), threading.local()

    def recorded(config, plane, c, m, work):
        ran[c] = threading.current_thread()
        block.c = c
        return original(config, plane, c, m, work)

    def checked(*args):
        exact.add(block.c)
        return failing(*args)

    monkeypatch.setattr(spin, "_planar_counts", recorded)
    monkeypatch.setattr(spin, "_failing", checked)
    tables = {}
    interval = sys.getswitchinterval()
    # frequent thread switches, with more workers than a 2-core host has cores
    sys.setswitchinterval(1e-6)
    try:
        for threads in (1, 2, 3):
            ran.clear()
            tables[threads] = monte_carlo_table(n, 19, threads)
            # every block once, on as many threads as workers, in strides
            assert sorted(ran) == list(range(6))
            assert len(set(ran.values())) == threads
            assert all(ran[c] is ran[c % threads] for c in ran)
    finally:
        sys.setswitchinterval(interval)
    assert exact == EXACT_BLOCKS[ortho_tol]
    assert tables[1].tobytes() == tables[2].tobytes() == tables[3].tobytes()
    monkeypatch.setattr(spin, "_failing", failing)
    trials = spin.simulate_ensemble(lattice_config(n, 19))
    assert_table_is_the_sign_product(tables[1], trials)
    assert_table_rows_are_the_estimator(tables[1], trials)


def test_a_failing_chsh_reducer_raises_in_the_caller(monkeypatch):
    monkeypatch.setattr(spin, "_usable_cpus", lambda: 2)
    original = spin._planar_counts
    failed = []

    def failing(config, plane, c, m, work):
        if c == 3:
            failed.append(threading.current_thread())
            raise MemoryError("block 3")
        return original(config, plane, c, m, work)

    monkeypatch.setattr(spin, "_planar_counts", failing)
    before = threading.active_count()
    cfg = chsh.OptimizerConfig(mc_trials=8 * spin.BLOCK_TRIALS, threads=2)
    # block 3 is the second block of worker 1, a thread of its own
    with pytest.raises(MemoryError, match="block 3"):
        chsh.maximize_chsh("monte_carlo", cfg)
    assert failed and failed[0] is not threading.main_thread()
    assert threading.active_count() == before
