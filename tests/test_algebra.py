"""Cl(3,0) multivector algebra: table, invariants, rotor calculus."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsphere import algebra
from spinsphere.errors import AxisUndefined, NonUnitBivector, NonUnitRotor

RNG = np.random.Generator(np.random.Philox(key=1))


def _unit(v):
    v = np.asarray(v, float)
    return v / np.linalg.norm(v)


def idx(name):
    return algebra.BLADE_NAMES.index(name)


unit_vectors = st.builds(
    lambda x, y, z: _unit([x, y, z]),
    *(st.floats(-1, 1, allow_nan=False).filter(lambda t: abs(t) > 1e-3),) * 3,
)


def test_blade_order():
    assert algebra.BLADE_NAMES == ("1", "e1", "e2", "e3", "e23", "e31", "e12", "e123")


@pytest.mark.parametrize(
    "left,right,expect",
    [
        ("e1", "e1", {"1": 1.0}),
        ("e1", "e2", {"e12": 1.0}),
        ("e2", "e1", {"e12": -1.0}),
        ("e2", "e3", {"e23": 1.0}),
        ("e3", "e1", {"e31": 1.0}),
        ("e23", "e23", {"1": -1.0}),
        ("e23", "e31", {"e12": -1.0}),
        ("e1", "e23", {"e123": 1.0}),
        ("e12", "e123", {"e3": -1.0}),
        ("e123", "e123", {"1": -1.0}),
    ],
)
def test_hand_checked_products(left, right, expect):
    a = np.zeros(8)
    b = np.zeros(8)
    a[idx(left)] = 1.0
    b[idx(right)] = 1.0
    out = algebra.geometric_product(a, b)
    want = np.zeros(8)
    for name, coeff in expect.items():
        want[idx(name)] = coeff
    assert np.array_equal(out, want)


def test_basis_bivectors_anticommute_to_minus_third():
    b1 = algebra.bivector_embed([1, 0, 0])
    b2 = algebra.bivector_embed([0, 1, 0])
    b3 = algebra.bivector_embed([0, 0, 1])
    assert np.allclose(algebra.geometric_product(b1, b2), -b3, atol=1e-15)
    assert np.allclose(algebra.geometric_product(b2, b3), -b1, atol=1e-15)
    assert np.allclose(algebra.geometric_product(b3, b1), -b2, atol=1e-15)


def test_bivector_product_identity_bulk():
    # beta(a) beta(b) = -a.b - beta(a x b) over many random unit pairs
    n = 10_000
    a = RNG.standard_normal((n, 3))
    b = RNG.standard_normal((n, 3))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    lhs = np.einsum(
        "ni,nj,ijk->nk",
        np.apply_along_axis(algebra.bivector_embed, 1, a),
        np.apply_along_axis(algebra.bivector_embed, 1, b),
        algebra.CAYLEY,
    )
    rhs = np.zeros((n, 8))
    rhs[:, 0] = -np.einsum("ni,ni->n", a, b)
    rhs[:, 4:7] = -np.cross(a, b)
    assert np.abs(lhs - rhs).max() < 1e-12


@given(unit_vectors, unit_vectors)
@settings(max_examples=200, deadline=None)
def test_bivector_product_identity(a, b):
    lhs = algebra.geometric_product(
        algebra.bivector_embed(a), algebra.bivector_embed(b)
    )
    rhs = np.zeros(8)
    rhs[0] = -np.dot(a, b)
    rhs[4:7] = -np.cross(a, b)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_associativity_random_triples():
    for _ in range(50):
        x, y, z = RNG.standard_normal((3, 8))
        left = algebra.geometric_product(algebra.geometric_product(x, y), z)
        right = algebra.geometric_product(x, algebra.geometric_product(y, z))
        scale = max(np.abs(left).max(), 1.0)
        assert np.abs(left - right).max() / scale < 1e-10


def test_norm_multiplicative_on_even_elements():
    # |pq| = |p||q| holds on the even (quaternion) subalgebra
    for _ in range(50):
        p = algebra.even_embed(RNG.standard_normal(4))
        q = algebra.even_embed(RNG.standard_normal(4))
        pq = algebra.geometric_product(p, q)
        assert np.isclose(
            algebra.norm(pq), algebra.norm(p) * algebra.norm(q), rtol=1e-12
        )


def test_reverse_antihomomorphism():
    for _ in range(50):
        x, y = RNG.standard_normal((2, 8))
        lhs = algebra.reverse(algebra.geometric_product(x, y))
        rhs = algebra.geometric_product(algebra.reverse(y), algebra.reverse(x))
        assert np.abs(lhs - rhs).max() < 1e-12 * max(np.abs(lhs).max(), 1.0)


def test_reverse_grade_signs():
    x = np.arange(1.0, 9.0)
    r = algebra.reverse(x)
    assert np.array_equal(r[:4], x[:4])
    assert np.array_equal(r[4:], -x[4:])


def test_grade_projections():
    x = np.arange(1.0, 9.0)
    assert algebra.scalar_part(x) == 1.0
    assert np.array_equal(algebra.bivector_axis(x), [5.0, 6.0, 7.0])
    assert np.array_equal(algebra.even_part(x), [1.0, 5.0, 6.0, 7.0])


@given(unit_vectors, st.floats(1e-6, np.pi - 1e-6))
@settings(max_examples=200, deadline=None)
def test_exp_log_round_trip(axis, half_angle):
    q = algebra.rotor_exp(algebra.bivector_embed(axis), half_angle)
    assert algebra.is_unit_rotor(q)
    got_axis, got_half = algebra.rotor_log(q)
    assert abs(got_half - half_angle) < 1e-12
    assert np.abs(algebra.bivector_axis(got_axis) - axis).max() < 1e-9


def test_log_identity_needs_default_axis():
    with pytest.raises(AxisUndefined):
        algebra.rotor_log(algebra.even_embed([1, 0, 0, 0]))
    axis, half = algebra.rotor_log(
        algebra.even_embed([1, 0, 0, 0]),
        default_axis=algebra.bivector_embed([0, 0, 1]),
    )
    assert half == 0.0
    assert np.array_equal(algebra.bivector_axis(axis), [0, 0, 1])


def test_rotor_exp_rejects_non_unit_bivector():
    with pytest.raises(NonUnitBivector):
        algebra.rotor_exp(2.0 * algebra.bivector_embed([0, 0, 1]), 0.3)


@pytest.mark.parametrize("slot", [0, 4])
def test_rotor_exp_rejects_nan(slot):
    b = algebra.bivector_embed([0, 0, 1])
    b[slot] = np.nan
    with pytest.raises(NonUnitBivector):
        algebra.rotor_exp(b, 0.3)


def test_sqrt_squares_back():
    for _ in range(20):
        axis = _unit(RNG.standard_normal(3))
        half = RNG.uniform(0.05, np.pi - 0.05)
        m = 3.0 * algebra.rotor_exp(algebra.bivector_embed(axis), half)
        root = algebra.rotor_sqrt(m)
        assert np.abs(algebra.geometric_product(root, root) - m).max() < 1e-10


def test_rotate_bivector_quarter_turn():
    # rotating the e23 plane a quarter turn about e12 lands on -e31
    q = algebra.rotor_exp(algebra.bivector_embed([0, 0, 1]), np.pi / 4)
    out = algebra.rotate_bivector(q, algebra.bivector_embed([1, 0, 0]))
    want = -algebra.bivector_embed([0, 1, 0])
    assert np.abs(out - want).max() < 1e-15


def test_rotate_bivector_needs_unit_rotor():
    with pytest.raises(NonUnitRotor):
        algebra.rotate_bivector(
            2.0 * algebra.even_embed([1, 0, 0, 0]), algebra.bivector_embed([1, 0, 0])
        )


def test_oriented_product_swaps_factors():
    x, y = RNG.standard_normal((2, 8))
    assert np.array_equal(
        algebra.oriented_product(x, y, 1), algebra.geometric_product(x, y)
    )
    assert np.array_equal(
        algebra.oriented_product(x, y, -1), algebra.geometric_product(y, x)
    )
    with pytest.raises(ValueError):
        algebra.oriented_product(x, y, 0)
