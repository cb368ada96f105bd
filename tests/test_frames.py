"""Tangent frames, the flat connection, and its curvature/torsion signature."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spinsphere import algebra, cli, frames, geometry
from spinsphere.errors import ChartDegeneracy, NonUnitRotor, StepOutOfRange

RNG = np.random.Generator(np.random.Philox(key=3))

POINT = (1.0, 1.2, 0.8)

EPS = np.zeros((3, 3, 3))
for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
    EPS[i, j, k] = 1.0
    EPS[i, k, j] = -1.0


def random_rotor_coeffs():
    w = RNG.standard_normal(4)
    return w / np.linalg.norm(w)


def random_admissible_point():
    lo, hi = frames.COLLAR + 1e-6, np.pi - frames.COLLAR - 1e-6
    return (RNG.uniform(lo, hi), RNG.uniform(lo, hi), RNG.uniform(0, 2 * np.pi))


def test_frame_at_identity():
    fr = frames.tangent_frame([1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(fr.rows, np.eye(4)[1:])


def test_frame_row_formulas():
    q0, q1, q2, q3 = random_rotor_coeffs()
    fr = frames.tangent_frame([q0, q1, q2, q3])
    assert np.allclose(fr.rows[0], [-q1, q0, q3, -q2], atol=1e-15)
    assert np.allclose(fr.rows[1], [-q2, -q3, q0, q1], atol=1e-15)
    assert np.allclose(fr.rows[2], [-q3, q2, -q1, q0], atol=1e-15)


def test_frame_first_row_example():
    fr = frames.tangent_frame([0.0, 1.0, 0.0, 0.0])
    assert np.array_equal(fr.rows[0], [-1.0, 0.0, 0.0, 0.0])


def test_frame_rows_tangent_and_orthonormal_bulk():
    for _ in range(1000):
        w = random_rotor_coeffs()
        fr = frames.tangent_frame(w)
        assert np.abs(fr.rows @ w).max() < 1e-12
        assert np.abs(fr.rows @ fr.rows.T - np.eye(3)).max() < 1e-12


def test_frame_rejects_non_unit():
    with pytest.raises(NonUnitRotor):
        frames.tangent_frame([2.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("rotor", [[np.nan, 0.0, 0.0, 0.0], [np.nan] + [0.0] * 7])
def test_frame_rejects_nan(rotor):
    with pytest.raises(NonUnitRotor):
        frames.tangent_frame(rotor)


def test_transport_identity_frame_reproduces_frame():
    # right-translating the identity frame by p, each row read as an even
    # element, gives the frame at p
    p = random_rotor_coeffs()

    def right(w):
        product = algebra.geometric_product(algebra.even_embed(w), algebra.even_embed(p))
        return algebra.even_part(product)

    fr0 = frames.tangent_frame([1.0, 0.0, 0.0, 0.0])
    want = frames.tangent_frame(p)
    assert np.abs(np.array([right(row) for row in fr0.rows]) - want.rows).max() < 1e-14
    assert np.abs(right(fr0.base) - want.base).max() < 1e-14


def test_connection_covariant_constancy_at_pinned_point():
    assert frames.covariant_constancy_residual(POINT, 1e-4) < 5e-8


def test_connection_has_antisymmetric_part_and_moves():
    omega_a = frames.weitzenbock_connection(POINT).omega
    antisym = omega_a - np.transpose(omega_a, (0, 2, 1))
    assert np.abs(antisym).max() > 0.1
    omega_b = frames.weitzenbock_connection((0.7, 1.9, 2.5)).omega
    assert np.abs(omega_a - omega_b).max() > 0.01


def test_connection_rejects_collar_and_bad_step():
    with pytest.raises(ChartDegeneracy):
        frames.weitzenbock_connection((0.05, 1.2, 0.8))
    with pytest.raises(ChartDegeneracy):
        frames.weitzenbock_connection((1.0, np.pi - 0.05, 0.8))
    with pytest.raises(StepOutOfRange):
        frames.weitzenbock_connection(POINT, h=1e-7)
    with pytest.raises(StepOutOfRange):
        frames.weitzenbock_connection(POINT, h=1e-2)


def test_curvature_vanishes_at_pinned_point():
    assert np.abs(frames.curvature_tensor(POINT, 1e-4)).max() < 1e-5


def test_torsion_nonzero_and_antisymmetric():
    T = frames.torsion_tensor(POINT).components
    assert np.abs(T).max() > 0.1
    assert np.array_equal(T, -np.transpose(T, (0, 2, 1)))


def test_torsion_in_frame_indices_is_constant():
    for point in [POINT, (0.7, 1.9, 2.5), (2.3, 0.9, 4.0)]:
        Tf = frames.torsion_frame_components(point)
        assert np.abs(Tf + 2.0 * EPS).max() < 1e-6


def test_round_metric_control_is_curved():
    # the Levi-Civita curvature of the round metric is NOT zero: the
    # negative control that the flat-connection result is not an artifact
    R = frames.round_metric_curvature(POINT)
    assert np.abs(R).max() > 0.1
    for K in frames.round_metric_sectional(POINT):
        assert abs(K - 1.0) < 1e-6


def test_torsion_bivector_su2_examples():
    zero = frames.torsion_bivector_su2([1, 0, 0], [1, 0, 0])
    assert np.array_equal(zero, np.zeros(8))
    full = frames.torsion_bivector_su2([1, 0, 0], [0, 1, 0])
    assert np.abs(full - algebra.bivector_embed([0, 0, 1])).max() < 1e-15
    half = frames.torsion_bivector_su2(
        [1, 0, 0], [np.cos(np.pi / 6), np.sin(np.pi / 6), 0]
    )
    assert np.allclose(algebra.bivector_axis(half), [0, 0, 0.5], atol=1e-15)


def test_torsion_bivector_so3_examples():
    def pair(eta):
        return [1, 0, 0], [np.cos(eta), np.sin(eta), 0]

    full = frames.torsion_bivector_so3(*pair(np.pi / 2))
    assert np.allclose(algebra.bivector_axis(full), [0, 0, 1.0], atol=1e-12)
    half = frames.torsion_bivector_so3(*pair(np.pi / 4))
    assert np.allclose(algebra.bivector_axis(half), [0, 0, 0.5], atol=1e-12)
    anti = frames.torsion_bivector_so3(*pair(np.pi))
    assert np.abs(algebra.bivector_axis(anti)).max() < 1e-12


def test_torsion_magnitudes_agree_then_diverge():
    def mags(eta):
        a = [1, 0, 0]
        b = [np.cos(eta), np.sin(eta), 0]
        return (
            np.linalg.norm(algebra.bivector_axis(frames.torsion_bivector_su2(a, b))),
            np.linalg.norm(algebra.bivector_axis(frames.torsion_bivector_so3(a, b))),
        )

    for eta in (1e-15, np.pi / 2):
        su2, so3 = mags(eta)
        assert abs(su2 - so3) < 1e-12
    su2, so3 = mags(np.pi / 4)
    assert np.isclose(abs(su2 - so3), np.sin(np.pi / 4) - 0.5, atol=1e-12)


def test_curvature_random_points_small_sample():
    for _ in range(5):
        point = random_admissible_point()
        assert np.abs(frames.curvature_tensor(point)).max() < 1e-5
        assert np.abs(frames.torsion_tensor(point).components).max() > 1e-3


def test_connection_rejects_non_finite_point():
    with pytest.raises(ChartDegeneracy):
        frames.weitzenbock_connection((np.nan, 1.2, 0.8))


def embed_jacobian(chi, theta, phi):
    """Closed-form rows dY/dchi, dY/dtheta, dY/dphi of geometry.embed_round."""
    sc, cc, st, ct = np.sin(chi), np.cos(chi), np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    return np.stack(
        [
            [-sc, cc * st * cp, cc * st * sp, cc * ct],
            [np.zeros_like(sc), sc * ct * cp, sc * ct * sp, -sc * st],
            [np.zeros_like(sc), -sc * st * sp, sc * st * cp, np.zeros_like(sc)],
        ]
    )


def test_batched_stencil_matches_closed_form_jacobian_and_single_points():
    rng = np.random.Generator(np.random.Philox(key=71))
    lo, hi = frames.COLLAR, np.pi - frames.COLLAR
    X = np.stack(
        [rng.uniform(lo, hi, 40), rng.uniform(lo, hi, 40), rng.uniform(0, 2 * np.pi, 40)],
        axis=-1,
    ).reshape(5, 8, 3)
    h = 1e-4
    grad = frames._gradient(frames._embed, X, h)
    assert grad.shape == (5, 8, 3, 4)
    want = np.moveaxis(embed_jacobian(X[..., 0], X[..., 1], X[..., 2]), (0, 1), (-2, -1))
    assert np.abs(grad - want).max() < 1e-9
    for index in np.ndindex(X.shape[:-1]):
        assert np.array_equal(grad[index], frames._gradient(frames._embed, X[index], h))


def test_complex_jet_matches_closed_form_jacobian_and_single_points():
    rng = np.random.Generator(np.random.Philox(key=71))
    lo, hi = frames.COLLAR, np.pi - frames.COLLAR
    X = np.stack(
        [rng.uniform(lo, hi, 40), rng.uniform(lo, hi, 40), rng.uniform(0, 2 * np.pi, 40)],
        axis=-1,
    ).reshape(5, 8, 3)
    value, jet = frames._complex_jet(frames._embed, X)
    assert value.shape == (5, 8, 4) and jet.shape == (5, 8, 3, 4)
    assert np.abs(value - frames._embed(X)).max() < 1e-15
    want = np.moveaxis(embed_jacobian(X[..., 0], X[..., 1], X[..., 2]), (0, 1), (-2, -1))
    assert np.abs(jet - want).max() < 1e-14
    for index in np.ndindex(X.shape[:-1]):
        single = frames._complex_jet(frames._embed, X[index])
        assert np.array_equal(value[index], single[0]) and np.array_equal(jet[index], single[1])


def test_curvature_evaluates_each_distinct_stencil_point_once(monkeypatch):
    inputs = []
    embed = geometry.embed_round

    def recorded(chi, theta, phi):
        inputs.append(np.stack([chi, theta, phi], axis=-1))
        return embed(chi, theta, phi)

    monkeypatch.setattr(frames, "embed_round", recorded)
    h = 1e-4
    frames.curvature_tensor(POINT, h)
    assert len(inputs) == 1
    points = inputs[0].real.reshape(-1, 3)
    assert len(np.unique(points, axis=0)) == 73
    # two nested five-point levels reach 2h + 2h along one axis
    offsets = (points - POINT) / h
    assert np.abs(offsets - np.rint(offsets)).max() < 1e-6
    assert np.abs(np.rint(offsets)).max() == 4


def test_round_metric_control_reads_one_at_the_bench_points(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    for point in workloads.chart_points(1, 0):
        assert np.abs(frames.round_metric_sectional(point) - 1.0).max() < 1e-8


def test_one_broadcast_call_per_derivative_level(monkeypatch):
    calls = []
    embed = geometry.embed_round

    def counted(*args):
        calls.append(1)
        return embed(*args)

    monkeypatch.setattr(frames, "embed_round", counted)
    frames.curvature_tensor(POINT)
    assert 0 < len(calls) <= 20
    calls.clear()
    frames.torsion_tensor(POINT)
    assert 0 < len(calls) <= 10


def test_curvature_needs_two_steps_of_collar_clearance():
    h = 1e-4
    near = (frames.COLLAR + h, 1.2, 0.8)
    frames.weitzenbock_connection(near, h)
    frames.torsion_tensor(near, h)
    with pytest.raises(ChartDegeneracy):
        frames.curvature_tensor(near, h)
    clear = (frames.COLLAR + 3 * h, 1.2, 0.8)
    frames.weitzenbock_connection(clear, h)
    frames.torsion_tensor(clear, h)
    frames.curvature_tensor(clear, h)
    # the same reach below theta = 2 pi, where sin(theta) vanishes again
    with pytest.raises(ChartDegeneracy, match=r"^point \(1\.2, 6\.\d+, 0\.8\) is within"):
        frames.curvature_tensor((1.2, 2 * np.pi - frames.COLLAR - h, 0.8), h)
    frames.curvature_tensor((1.2, 2 * np.pi - frames.COLLAR - 3 * h, 0.8), h)
    # the step is refused before the stencil's reach is checked
    with pytest.raises(StepOutOfRange):
        frames.curvature_tensor((frames.COLLAR + 1e-2, 1.2, 0.8), 1e-2)


def admissible_stack(n, key=5):
    rng = np.random.Generator(np.random.Philox(key=key))
    lo, hi = frames.COLLAR + 1e-3, np.pi - frames.COLLAR - 1e-3
    return np.stack(
        [rng.uniform(lo, hi, n), rng.uniform(lo, hi, n), rng.uniform(0, 2 * np.pi, n)], axis=-1
    )


@pytest.mark.parametrize("n", [1, 4, 5, 48, 49, 100])
def test_stacked_tensors_equal_the_per_point_calls(n):
    X = admissible_stack(n)
    curvature = frames.curvature_tensor(X)
    torsion = frames.torsion_tensor(X).components
    assert curvature.shape == (n, 3, 3, 3, 3) and torsion.shape == (n, 3, 3, 3)
    for point, c, t in zip(X, curvature, torsion):
        assert np.array_equal(c, frames.curvature_tensor(point))
        assert np.array_equal(t, frames.torsion_tensor(point).components)
    # a list of tuples is a stack too
    listed = [tuple(point) for point in X.tolist()]
    assert np.array_equal(frames.curvature_tensor(listed), curvature)


def test_a_bad_point_in_a_later_chunk_is_refused_before_any_stencil_work(monkeypatch):
    X = admissible_stack(10)
    X[6] = (0.05, 1.2, 0.8)
    X[8] = (np.nan, 1.2, 0.8)  # a later bad point is not the one reported
    calls = []
    embed = geometry.embed_round
    monkeypatch.setattr(frames, "embed_round", lambda *a: calls.append(1) or embed(*a))
    message = r"^point \(0\.05, 1\.2, 0\.8\) is inside the 0\.1-rad degeneracy collar$"
    with pytest.raises(ChartDegeneracy, match=message):
        frames.curvature_tensor(X)
    with pytest.raises(ChartDegeneracy, match=message):
        frames.torsion_tensor(X)
    assert calls == []


def test_stacked_torsion_keeps_its_own_collar():
    # inside the curvature stencil's reach but outside the collar: torsion only
    X = admissible_stack(3)
    X[1] = (frames.COLLAR + 1e-4, 1.2, 0.8)
    with pytest.raises(ChartDegeneracy, match="within the curvature stencil's reach"):
        frames.curvature_tensor(X)
    torsion = frames.torsion_tensor(X).components
    assert np.array_equal(torsion[1], frames.torsion_tensor(X[1]).components)


def test_torsion_check_memory_does_not_grow_with_the_points(tmp_path):
    slack = 2 * 2**20  # an unchunked stack of 400 points would hold about 80 MiB

    def traced_peak(n):
        out = tmp_path / f"t{n}.json"
        tracemalloc.start()
        try:
            assert cli.main(["torsion-check", "--n-points", str(n), "--output", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, out.stat().st_size

    traced_peak(50)  # first use allocates caches that a later call does not
    small, _ = traced_peak(50)
    large, report = traced_peak(400)
    assert large - small <= report + slack
