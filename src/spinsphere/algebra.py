"""Clifford algebra Cl(3,0) on a fixed 8-blade basis.

Multivectors are length-8 float arrays over the basis

    (1, e1, e2, e3, e23, e31, e12, e123)

in that order.  Note the cyclic bivector labels: the fifth blade is
e31 = e3 e1, not e13, so that the unit bivectors obey

    b_mu b_nu = -delta_mu_nu - eps_mu_nu_rho b_rho

with eps the right-handed Levi-Civita symbol.  The product table is
generated once from the (+,+,+) signature and checked at import time
against hand-computed entries.
"""

from __future__ import annotations

import numpy as np

from .errors import AxisUndefined, NonUnitBivector, NonUnitRotor

__all__ = [
    "BLADE_NAMES",
    "CAYLEY",
    "UNIT_TOL",
    "geometric_product",
    "oriented_product",
    "reverse",
    "grade",
    "scalar_part",
    "bivector_embed",
    "bivector_axis",
    "even_embed",
    "even_part",
    "norm",
    "is_unit_rotor",
    "rotor_exp",
    "rotor_log",
    "rotor_sqrt",
    "rotate_bivector",
]

BLADE_NAMES = ("1", "e1", "e2", "e3", "e23", "e31", "e12", "e123")

# Bitmask of each blade (bit k set means e_{k+1} is a factor) and its sign
# relative to the ascending-index canonical blade.  e31 = e3 e1 = -e1 e3.
_BLADE_MASKS = (0b000, 0b001, 0b010, 0b100, 0b110, 0b101, 0b011, 0b111)
_BLADE_SIGNS = (1, 1, 1, 1, 1, -1, 1, 1)
_MASK_INDEX = {m: i for i, m in enumerate(_BLADE_MASKS)}

_GRADES = np.array([bin(m).count("1") for m in _BLADE_MASKS])

# reversal flips sign on grades 2 and 3
_REVERSE_SIGNS = np.where((_GRADES % 4) >= 2, -1.0, 1.0)

UNIT_TOL = 1e-9


def _canonical_blade_product(m1: int, m2: int) -> tuple[int, int]:
    """Product of two ascending-index blades in signature (+,+,+).

    Returns the result mask and the permutation sign from commuting the
    factors of m2 into place (squares contribute +1).
    """
    swaps = 0
    for bit in range(3):
        if (m2 >> bit) & 1:
            swaps += bin(m1 >> (bit + 1)).count("1")
    return m1 ^ m2, -1 if swaps & 1 else 1


def _build_table() -> np.ndarray:
    table = np.zeros((8, 8, 8))
    for i in range(8):
        for j in range(8):
            mask, sign = _canonical_blade_product(_BLADE_MASKS[i], _BLADE_MASKS[j])
            k = _MASK_INDEX[mask]
            table[i, j, k] = _BLADE_SIGNS[i] * _BLADE_SIGNS[j] * sign * _BLADE_SIGNS[k]
    return table


CAYLEY = _build_table()
CAYLEY.setflags(write=False)

# blade_i * blade_j = entry_sign * blade_k, hand-computed
_HAND_CHECKED = [
    ("e1", "e1", 1.0, "1"),
    ("e1", "e2", 1.0, "e12"),
    ("e2", "e1", -1.0, "e12"),
    ("e2", "e3", 1.0, "e23"),
    ("e3", "e1", 1.0, "e31"),
    ("e23", "e23", -1.0, "1"),
    ("e23", "e31", -1.0, "e12"),
    ("e1", "e23", 1.0, "e123"),
    ("e12", "e123", -1.0, "e3"),
    ("e123", "e123", -1.0, "1"),
]


def _verify_table() -> None:
    name = {n: i for i, n in enumerate(BLADE_NAMES)}
    for left, right, sign, result in _HAND_CHECKED:
        row = CAYLEY[name[left], name[right]]
        expected = np.zeros(8)
        expected[name[result]] = sign
        if not np.array_equal(row, expected):
            raise AssertionError(f"Cayley table disagrees at {left} * {right}")


_verify_table()


def geometric_product(x, y):
    """Full geometric product of two multivectors."""
    return np.einsum("i,j,ijk->k", np.asarray(x, float), np.asarray(y, float), CAYLEY)


def oriented_product(x, y, orientation: int):
    """Geometric product in a frame of the given handedness.

    orientation = +1 is the plain product; orientation = -1 multiplies in
    the opposite order (the opposite algebra), which is what a
    left-handed frame's Levi-Civita sign change amounts to.
    """
    if orientation == 1:
        return geometric_product(x, y)
    if orientation == -1:
        return geometric_product(y, x)
    raise ValueError("orientation must be +1 or -1")


def reverse(x):
    """Reversion anti-automorphism (order of vector factors flipped)."""
    return np.asarray(x, float) * _REVERSE_SIGNS


def grade(x, k: int):
    """Grade-k part of a multivector."""
    out = np.array(x, float)
    out[_GRADES != k] = 0.0
    return out


def scalar_part(x) -> float:
    return float(x[0])


def bivector_embed(a):
    """Axis 3-vector a -> bivector a1 e23 + a2 e31 + a3 e12.

    This is the duality map (unit pseudoscalar times the vector); unit a
    gives a bivector squaring to -1.
    """
    out = np.zeros(8)
    out[4:7] = a
    return out


def bivector_axis(x):
    """Axis components (e23, e31, e12) of the grade-2 part."""
    return np.array(x[4:7], float)


def even_embed(w):
    """4 components (scalar, e23, e31, e12) -> even multivector."""
    out = np.zeros(8)
    out[0] = w[0]
    out[4:7] = w[1:4]
    return out


def even_part(x):
    """4 components (scalar, e23, e31, e12) of an even multivector."""
    return np.array([x[0], x[4], x[5], x[6]], float)


def norm(x) -> float:
    """Euclidean norm over the 8 blade coefficients."""
    return float(np.linalg.norm(x))


def is_unit_rotor(q, tol: float = UNIT_TOL) -> bool:
    q = np.asarray(q, float)
    odd = abs(q[1]) + abs(q[2]) + abs(q[3]) + abs(q[7])
    return odd <= tol and abs(norm(q) - 1.0) <= tol


_IDENTITY = np.zeros(8)
_IDENTITY[0] = 1.0
_IDENTITY.setflags(write=False)


def rotor_exp(b, half_angle: float):
    """exp(b * half_angle) for a unit bivector b.

    Returns the rotor cos(half_angle) + b sin(half_angle); a rotation by
    psi = 2 * half_angle about the axis of b, with 4 pi periodicity.
    """
    b = np.asarray(b, float)
    if not (norm(grade(b, 2) - b) <= UNIT_TOL and abs(norm(b) - 1.0) <= UNIT_TOL):
        raise NonUnitBivector("rotor_exp needs a unit bivector")
    return np.cos(half_angle) * _IDENTITY + np.sin(half_angle) * b


def rotor_log(q, default_axis=None):
    """Principal logarithm of a unit rotor.

    Returns (unit bivector, half_angle) with half_angle in [0, pi], so
    rotor_exp(b, half_angle) reproduces q.  At q = +-1 the axis is
    undefined; a caller-supplied unit bivector is used if given,
    otherwise AxisUndefined is raised.
    """
    q = np.asarray(q, float)
    if not is_unit_rotor(q):
        raise NonUnitRotor("rotor_log needs an even unit element")
    biv = grade(q, 2)
    s = norm(biv)
    half_angle = float(np.arctan2(s, q[0]))
    if s < 1e-12:
        if default_axis is None:
            raise AxisUndefined("rotor is +-1, axis undefined")
        return np.asarray(default_axis, float), half_angle
    return biv / s, half_angle


def rotor_sqrt(m, default_axis=None):
    """Principal square root of an even element.

    Writes m = rho * exp(b * t) with t in [0, pi] and returns
    sqrt(rho) * exp(b * t / 2).  default_axis resolves the t = pi case
    exactly as in rotor_log.
    """
    m = np.asarray(m, float)
    rho = norm(m)
    if rho == 0.0:
        return np.zeros(8)
    axis, half = rotor_log(m / rho, default_axis=default_axis)
    return np.sqrt(rho) * rotor_exp(axis, half / 2.0)


def rotate_bivector(q, b):
    """Conjugation q b reverse(q) of a bivector by a unit rotor."""
    q = np.asarray(q, float)
    if not is_unit_rotor(q):
        raise NonUnitRotor("rotate_bivector needs a unit rotor")
    return geometric_product(geometric_product(q, b), reverse(q))
