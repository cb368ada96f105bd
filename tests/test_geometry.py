"""Chart embeddings and the two geodesic distance laws."""

import numpy as np
import pytest

from spinsphere import algebra, chsh, frames, geometry
from spinsphere.errors import DomainError

RNG = np.random.Generator(np.random.Philox(key=2))

AGREEMENT_ETAS = [0.0, np.pi / 2, np.pi, 3 * np.pi / 2, 2 * np.pi]


def random_rotor():
    w = RNG.standard_normal(4)
    return algebra.even_embed(w / np.linalg.norm(w))


def test_embed_round_components():
    chi, theta, phi = 1.0, 1.2, 0.8
    Y = geometry.embed_round(chi, theta, phi)
    assert np.isclose(Y[0], np.cos(chi))
    assert np.isclose(Y[1], np.sin(chi) * np.sin(theta) * np.cos(phi))
    assert np.isclose(Y[2], np.sin(chi) * np.sin(theta) * np.sin(phi))
    assert np.isclose(Y[3], np.sin(chi) * np.cos(theta))
    assert np.isclose(np.linalg.norm(Y), 1.0, atol=1e-15)


def test_embed_round_poles():
    assert np.allclose(geometry.embed_round(0.0, 0.3, 2.0), [1, 0, 0, 0])
    assert np.allclose(
        geometry.embed_round(np.pi, 0.3, 2.0), [-1, 0, 0, 0], atol=1e-15
    )


def test_line_element_matches_embedding_pushforward():
    # quadratic form of a small chart displacement vs the embedded chord
    x = np.array([1.0, 1.2, 0.8])
    h = 1e-5
    for _ in range(10):
        d = RNG.standard_normal(3)
        dY = (geometry.embed_round(*(x + h * d)) - geometry.embed_round(*(x - h * d))) / (
            2 * h
        )
        ds2 = geometry.frw_line_element(x[0], x[1], x[2], *d)
        assert abs(ds2 - float(dY @ dY)) < 1e-6 * max(ds2, 1.0)


def test_line_element_radial_blowup():
    val = geometry.frw_line_element_radial(0.999, 0.5, 0.0, 1.0, 0.0, 0.0)
    assert np.isclose(val, 1.0 / (1.0 - 0.999**2))
    assert val > 500.0
    with pytest.raises(DomainError):
        geometry.frw_line_element_radial(1.0, 0.5, 0.0, 1.0, 0.0, 0.0)


def test_radial_chart_agrees_with_hyperspherical():
    chi = 0.7
    r = np.sin(chi)
    dchi = 0.3
    dr = np.cos(chi) * dchi
    a = geometry.frw_line_element(chi, 1.1, 0.4, dchi, 0.2, -0.5)
    b = geometry.frw_line_element_radial(r, 1.1, 0.4, dr, 0.2, -0.5)
    assert np.isclose(a, b, rtol=1e-12)


def test_relabeling_round_trip():
    Y = geometry.embed_round(1.0, 1.2, 0.8)
    q = algebra.even_embed(Y)
    assert algebra.is_unit_rotor(q)
    assert np.array_equal(algebra.even_part(q), Y)


def test_rotor_angle_blind_to_sign():
    qa, qb = random_rotor(), random_rotor()
    eta = geometry.rotor_angle(qa, qb)
    assert 0.0 <= eta <= np.pi / 2 + 1e-15
    assert geometry.rotor_angle(qa, -qb) == eta
    assert geometry.rotor_angle(-qa, qb) == eta
    assert geometry.rotor_angle(qa, qa) == 0.0
    assert geometry.rotor_angle(qa, -qa) == 0.0


def test_su2_distance_values():
    assert geometry.su2_distance(0.0) == -1.0
    assert abs(geometry.su2_distance(np.pi / 2)) < 1e-15
    assert geometry.su2_distance(np.pi) == 1.0
    with pytest.raises(DomainError):
        geometry.su2_distance(-0.1)
    with pytest.raises(DomainError):
        geometry.su2_distance(2 * np.pi + 0.1)


def test_so3_distance_saw():
    assert geometry.so3_distance(0.0) == -1.0
    assert geometry.so3_distance(np.pi / 4) == -0.5
    assert geometry.so3_distance(np.pi / 2) == 0.0
    assert geometry.so3_distance(np.pi) == 1.0
    assert geometry.so3_distance(3 * np.pi / 2) == 0.0
    assert geometry.so3_distance(2 * np.pi) == -1.0
    with pytest.raises(DomainError):
        geometry.so3_distance(2 * np.pi + 1e-9)


def test_curves_agree_only_at_multiples_of_quarter_turn():
    for eta in AGREEMENT_ETAS:
        assert abs(geometry.su2_distance(eta) - geometry.so3_distance(eta)) < 1e-12
    gap = geometry.su2_distance(np.pi / 4) - geometry.so3_distance(np.pi / 4)
    assert np.isclose(gap, -(np.sqrt(2) / 2 - 0.5), atol=1e-12)
    assert np.isclose(abs(gap), 0.2071, atol=5e-5)


def test_rotor_distance_matches_saw_of_half_angle():
    # identity vs exp(biv(n) eta): relative rotation angle 2 eta
    n = np.array([0.3, -0.5, 0.81])
    n /= np.linalg.norm(n)
    identity = algebra.even_embed([1, 0, 0, 0])
    for eta in np.linspace(0.0, 2 * np.pi, 33):
        q = algebra.rotor_exp(algebra.bivector_embed(n), eta)
        got = geometry.so3_distance_rotors(identity, q)
        assert abs(got - geometry.so3_distance(eta % (2 * np.pi))) < 1e-12


def test_rotor_distance_cross_checked_against_geometric_product():
    for _ in range(50):
        qa, qb = random_rotor(), random_rotor()
        rel = algebra.geometric_product(qa, algebra.reverse(qb))
        psi = 2.0 * np.arctan2(
            np.linalg.norm(algebra.bivector_axis(rel)), algebra.scalar_part(rel)
        )
        want = -1.0 + psi / np.pi
        assert abs(geometry.so3_distance_rotors(qa, qb) - want) < 1e-12


def test_rotor_distance_negating_one_input_flips_sign():
    # the map distinguishes psi from psi + 2pi by design: q and -q are a
    # half-revolution apart, not the same point, so negating one input
    # reflects the saw about zero
    qa, qb = random_rotor(), random_rotor()
    d = geometry.so3_distance_rotors(qa, qb)
    assert abs(geometry.so3_distance_rotors(qa, -qb) + d) < 1e-12
    assert abs(geometry.so3_distance_rotors(-qa, qb) + d) < 1e-12
    assert abs(geometry.so3_distance_rotors(-qa, -qb) - d) < 1e-12


def test_so3_sin_alpha_branches():
    assert geometry.so3_sin_alpha(0.0) == 0.0
    assert geometry.so3_sin_alpha(np.pi / 4) == 0.5
    assert geometry.so3_sin_alpha(np.pi / 2) == 1.0
    assert geometry.so3_sin_alpha(np.pi) == 0.0
    assert geometry.so3_sin_alpha(-np.pi / 4) == -0.5
    with pytest.raises(DomainError):
        geometry.so3_sin_alpha(2.0 * np.pi)


def test_so3_metric_agreement_angles():
    identity = algebra.even_embed([1, 0, 0, 0])
    for eta in AGREEMENT_ETAS:
        assert abs(geometry.so3_distance(eta) - geometry.su2_distance(eta)) < 1e-12
        q = algebra.rotor_exp(algebra.bivector_embed([0, 0, 1]), eta % (2 * np.pi))
        got = geometry.so3_distance_rotors(identity, q)
        assert abs(got - geometry.so3_distance(eta)) < 1e-12


def test_so3_metric_induced_product():
    # the quotient product of unit axes a, b is -cos(alpha) - sin(alpha) biv(c)
    # with both factors piecewise: the saw at their angle, minus the so3 torsion
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([np.cos(np.pi / 4), np.sin(np.pi / 4), 0.0])
    eta = geometry.separation_angle(a, b)
    assert geometry.so3_distance(eta) == geometry.so3_distance(np.pi / 4)
    out = -frames.torsion_bivector_so3(a, b)
    assert np.allclose(algebra.bivector_axis(out), [0, 0, -0.5], atol=1e-12)
    # parallel axes: no bivector part
    assert np.array_equal(frames.torsion_bivector_so3(a, a), np.zeros(8))


def test_separation_angle_clips_rounded_dot_products():
    u = np.ones(3) / np.linalg.norm(np.ones(3))
    # u.u and u.(-u) round to +-1.0000000000000002, outside arccos's domain
    assert geometry.separation_angle(u, u) == 0.0
    assert geometry.separation_angle(u, -u) == np.pi


def test_saw_laws_share_so3_distance_bitwise():
    for psi in np.linspace(0.0, 4 * np.pi, 20_001):
        psi = float(psi)
        saw = -1.0 + psi / np.pi if psi <= 2 * np.pi else 3.0 - psi / np.pi
        assert geometry.so3_distance(psi / 2) == saw
    for _ in range(2_000):
        qa, qb = random_rotor(), random_rotor()
        wa, wb = algebra.even_part(qa), algebra.even_part(qb)
        biv = -wa[0] * wb[1:] + wb[0] * wa[1:] + np.cross(wa[1:], wb[1:])
        psi = 2.0 * float(np.arctan2(np.linalg.norm(biv), float(np.dot(wa, wb))))
        assert geometry.so3_distance_rotors(qa, qb) == -1.0 + psi / np.pi


def bits(values):
    return np.asarray(values, float).tobytes()


def test_batched_laws_equal_the_per_pair_calls_bitwise():
    rng = np.random.Generator(np.random.Philox(key=18))
    v = rng.standard_normal((100_000, 2, 3))
    u = v / np.linalg.norm(v, axis=-1, keepdims=True)
    e, w = np.eye(3), u[0, 0]
    # exactly parallel, antiparallel and orthogonal pairs, and a rounded |w.w| > 1
    special = np.array([(e[0], e[0]), (e[0], -e[0]), (e[0], e[1]), (e[2], e[1]), (w, w), (w, -w)])
    pairs = np.concatenate([u, special])
    a, b = pairs[:, 0], pairs[:, 1]
    eta = geometry.separation_angle(a, b)
    scalar = [geometry.separation_angle(x, y) for x, y in pairs]
    assert all(type(t) is float for t in scalar)
    assert bits(eta) == bits(scalar)
    assert bits(eta[-6:]) == bits([0.0, np.pi, np.pi / 2, np.pi / 2, 0.0, np.pi])
    # np.dot's rounding (fused multiply-adds), which a plain sum over the axis does not repeat
    dots = [np.dot(x, y) for x, y in pairs]
    assert bits(eta) == bits(np.arccos(np.clip(dots, -1.0, 1.0)))
    cosine = chsh.su2_cosine_correlator(a, b)
    assert bits(cosine) == bits(np.negative(dots))
    assert bits(cosine) == bits([chsh.su2_cosine_correlator(x, y) for x, y in pairs])
    # the saw correlator is so3_distance of the separation angle, per pair as well
    assert bits(chsh.so3_saw_correlator(a, b)) == bits(geometry.so3_distance(eta))
    # half the angles moved to (pi, 2 pi], the saw's second branch; the
    # per-angle calls take every fifth of them, 2 * 10^4 in all
    etas = np.concatenate([eta[::2], 2.0 * np.pi - eta[1::2]])
    for law in (geometry.su2_distance, geometry.so3_distance):
        batched = law(etas)
        assert bits(batched[::5]) == bits([law(t) for t in etas[::5].tolist()])
    for r in range(0, len(pairs), 997):
        x, y = pairs[r]
        assert chsh.so3_saw_correlator(x, y) == geometry.so3_distance(scalar[r])


@pytest.mark.parametrize("law", [geometry.su2_distance, geometry.so3_distance])
def test_batched_laws_name_the_first_angle_outside_the_domain(law):
    with pytest.raises(DomainError, match=r"^angle 7\.0 outside \[0, 6\.28"):
        law(np.array([0.5, 7.0, -1.0]))
    with pytest.raises(DomainError, match="^angle nan outside"):
        law(np.array([[1.0, 2.0], [np.nan, 8.0]]))
    with pytest.raises(DomainError, match="^angle -1e-300 outside"):
        law(-1e-300)
    assert type(law(np.float64(1.0))) is float
    assert law(np.array([1.0])).shape == (1,)


def test_radial_line_element_rejects_nan():
    with pytest.raises(DomainError):
        geometry.frw_line_element_radial(np.nan, 0.5, 0.0, 1.0, 0.0, 0.0)
