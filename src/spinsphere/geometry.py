"""Round 3-sphere charts and the SU(2) / SO(3) geodesic distance laws.

The central objects are the unit 4-vector chart point Y(chi, theta, phi),
which algebra.even_embed relabels as an even rotor, and the two distance
functions of the half-rotation angle eta: the smooth cosine law on
SU(2) = S3 and the piecewise-linear saw obtained after identifying
antipodal rotors (SO(3) = RP3).  The two laws agree only at eta in
{0, pi/2, pi, 3pi/2, 2pi} and differ by about 0.207 near eta = pi/4.
Every caller evaluates the laws here, on whole arrays: they, dot and
separation_angle work elementwise (vectors along the last axis), a
Python float for one value.
"""

from __future__ import annotations

import numpy as np

from .algebra import even_part
from .errors import DomainError

__all__ = [
    "embed_round",
    "frw_line_element",
    "frw_line_element_radial",
    "rotor_angle",
    "dot",
    "separation_angle",
    "su2_distance",
    "so3_distance",
    "so3_distance_rotors",
    "so3_sin_alpha",
]


def embed_round(chi: float, theta: float, phi: float) -> np.ndarray:
    """Hyperspherical chart point on the unit 3-sphere.

    Y = (cos chi, sin chi sin theta cos phi, sin chi sin theta sin phi,
    sin chi cos theta).  The rotation angle of the matching rotor is
    psi = 2 chi.
    """
    sc, cc = np.sin(chi), np.cos(chi)
    st, ct = np.sin(theta), np.cos(theta)
    return np.array([cc, sc * st * np.cos(phi), sc * st * np.sin(phi), sc * ct])


def frw_line_element(chi, theta, phi, dchi, dtheta, dphi) -> float:
    """Closed FRW spatial quadratic form in the hyperspherical chart."""
    return float(
        dchi**2 + np.sin(chi) ** 2 * (dtheta**2 + np.sin(theta) ** 2 * dphi**2)
    )


def frw_line_element_radial(r, theta, phi, dr, dtheta, dphi) -> float:
    """Same form in the r = sin(chi) chart; singular as r -> 1."""
    if not abs(r) < 1.0:
        raise DomainError("radial chart needs |r| < 1")
    return float(
        dr**2 / (1.0 - r**2) + r**2 * (dtheta**2 + np.sin(theta) ** 2 * dphi**2)
    )


def rotor_angle(qa, qb) -> float:
    """Angle eta_ab in [0, pi/2] between two unit rotors.

    cos eta_ab = |<qa, qb>| with the 4-component inner product, so the
    value is blind to the sign of either rotor.
    """
    dot = abs(float(np.dot(even_part(qa), even_part(qb))))
    return float(np.arccos(np.clip(dot, 0.0, 1.0)))


def _float_or_array(x):
    return float(x) if np.ndim(x) == 0 else x


def dot(a, b):
    """a.b over the last axis, each pair rounded as np.dot rounds it (DECISIONS.md)."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    return _float_or_array((a[..., None, :] @ b[..., :, None])[..., 0, 0])


def separation_angle(a, b):
    """Angle in [0, pi] between unit vectors a and b; a rounded |a.b| > 1 clips."""
    return _float_or_array(np.arccos(np.clip(dot(a, b), -1.0, 1.0)))


def _check_eta(eta, hi: float) -> np.ndarray:
    eta = np.asarray(eta, float)
    inside = (0.0 <= eta) & (eta <= hi)
    if not inside.all():
        raise DomainError(f"angle {float(eta[~inside][0])} outside [0, {hi}]")
    return eta


def su2_distance(eta):
    """Geodesic correlation law on S3: -cos(eta), eta in [0, 2pi]."""
    return _float_or_array(-np.cos(_check_eta(eta, 2.0 * np.pi)))


def so3_distance(eta):
    """Piecewise-linear saw on the rotation group: -1 + 2 eta/pi, then 3 - 2 eta/pi.

    Domain eta in [0, 2pi]; equals su2_distance exactly at eta in
    {0, pi/2, pi, 3pi/2, 2pi} and nowhere else.
    """
    eta = _check_eta(eta, 2.0 * np.pi)
    slope = 2.0 * eta / np.pi
    return _float_or_array(np.where(eta <= np.pi, slope - 1.0, 3.0 - slope))


def so3_distance_rotors(qa, qb) -> float:
    """Saw distance from the relative rotor qa * reverse(qb).

    The relative rotation angle psi = 2 atan2(|bivector|, scalar) lands
    in [0, 2pi]; since the saw satisfies D(psi) = D(4pi - psi) this
    branch covers the full 4pi range.  Returns so3_distance(psi/2).
    """
    wa, wb = even_part(qa), even_part(qb)
    # qa * reverse(qb) in (scalar, axis) components; biv(u) biv(v) = -u.v - biv(u x v)
    scalar = float(np.dot(wa, wb))
    biv = -wa[0] * wb[1:] + wb[0] * wa[1:] + np.cross(wa[1:], wb[1:])
    return so3_distance(float(np.arctan2(np.linalg.norm(biv), scalar)))


def so3_sin_alpha(eta: float) -> float:
    """Piecewise-linear torsion magnitude: 2 eta/pi on [-pi/2, pi/2], else 2 - 2 eta/pi.

    Domain eta in [-pi/2, 3pi/2].  This is the quotient geometry's
    stand-in for sin(eta); it agrees with it at eta in {0, pi/2, pi}.
    """
    eta = float(eta)
    if not -np.pi / 2 <= eta <= 3 * np.pi / 2:
        raise DomainError(f"angle {eta} outside [-pi/2, 3pi/2]")
    if eta <= np.pi / 2:
        return 2.0 * eta / np.pi
    return 2.0 - 2.0 * eta / np.pi
