"""Global tangent frames on the 3-sphere and the flat-connection checks.

The sphere of unit rotors carries three everywhere-nonzero tangent
fields, obtained by left-multiplying the base point by the three unit
bivectors.  Expressed in a coordinate chart this frame defines a
connection under which it is covariantly constant; the associated
curvature vanishes to finite-difference accuracy while the torsion does
not.  A Levi-Civita control for the round metric (which has constant
sectional curvature +1) guards against a trivially-zero test setup.

Chart Jacobians are taken by complex step, and the connection's derivatives by
five-point central stencils, O(h^4), on their distinct points only; the default
step 1e-4 keeps curvature residuals near 1e-7 even close to the collars.
curvature_tensor and torsion_tensor also take a stack of chart points,
which they check one by one and then evaluate in fixed chunks, so their
working memory does not grow with the stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra
from .errors import ChartDegeneracy, NonUnitRotor, StepOutOfRange
from .geometry import embed_round, separation_angle, so3_sin_alpha

__all__ = [
    "TangentFrame",
    "ConnectionCoefficients",
    "TorsionTensor",
    "tangent_frame",
    "weitzenbock_connection",
    "covariant_constancy_residual",
    "curvature_tensor",
    "check_curvature_point",
    "torsion_tensor",
    "torsion_frame_components",
    "torsion_bivector_su2",
    "torsion_bivector_so3",
    "round_metric_curvature",
    "round_metric_sectional",
    "COLLAR",
    "STEP_RANGE",
]

# left multiplication by e23, e31, e12 acting on rotor components
# (q0, q1, q2, q3) = (scalar, e23, e31, e12)
_LEFT_BIVECTOR = np.array(
    [
        [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
        [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]],
        [[0, 0, 0, -1], [0, 0, 1, 0], [0, -1, 0, 0], [1, 0, 0, 0]],
    ],
    dtype=float,
)

COLLAR = 0.1
STEP_RANGE = (1e-6, 1e-3)


@dataclass
class TangentFrame:
    """Orthonormal frame rows (3x4) attached to a unit rotor base point."""

    rows: np.ndarray
    base: np.ndarray


@dataclass
class ConnectionCoefficients:
    """omega[mu, nu, alpha] at a chart point; nu is the derivative index."""

    omega: np.ndarray
    point: tuple
    h: float


@dataclass
class TorsionTensor:
    """components[..., sigma, mu, nu], antisymmetric in (mu, nu) by construction."""

    components: np.ndarray


def _even_coeffs(q) -> np.ndarray:
    """Accept a rotor as 8 multivector slots or 4 even coefficients."""
    q = np.asarray(q, float)
    if q.shape == (8,):
        if not algebra.is_unit_rotor(q):
            raise NonUnitRotor("rotor is not unit / not even")
        return algebra.even_part(q)
    if q.shape == (4,):
        if not abs(np.linalg.norm(q) - 1.0) <= algebra.UNIT_TOL:
            raise NonUnitRotor("rotor coefficients are not unit norm")
        return q
    raise NonUnitRotor(f"expected 4 or 8 components, got shape {q.shape}")


def tangent_frame(q) -> TangentFrame:
    """Frame rows beta_a(q) = (bivector_a) q as 4-component tangent vectors.

    Rows are mutually orthonormal and each is orthogonal to q itself.
    """
    w = _even_coeffs(q)
    return TangentFrame(rows=_LEFT_BIVECTOR @ w, base=w)


# five-point stencil in units of h: the point, then taps 2, 1, -1, -2 along each axis
_STENCIL = np.vstack([np.zeros(3), np.kron(np.eye(3), [[2.0], [1.0], [-1.0], [-2.0]])])
# curvature's two nested levels visit x + h (s + t) for s, t in _STENCIL: 169 pairs
# of 73 distinct points; _PAIRS[s * 13 + t] indexes _LATTICE
_LATTICE, _PAIRS = np.unique(np.vstack(_STENCIL[:, None] + _STENCIL), axis=0, return_inverse=True)
_EYE3 = np.eye(3)
# complex step: Im f(x + i s e_mu) / s subtracts nothing, so s may lie far below
# rounding; s^2 = 1e-60 still stays clear of subnormals
_STEP = 1e-30


def _five_point(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """O(h^4) derivatives along the 3 coordinates from the point, then its 12 taps, on axis."""
    t = [np.take(values, np.arange(1 + k, 13, 4), axis) for k in range(4)]
    return (-t[0] + 8 * t[1] - 8 * t[2] + t[3]) / (12 * h)


def _gradient(f, x: np.ndarray, h: float) -> np.ndarray:
    """Five-point central derivatives along the three coordinates, by one call of f."""
    return _five_point(f(x[..., None, :] + h * _STENCIL), x.ndim - 1, h)


def _complex_jet(f, x: np.ndarray):
    """f(x) and its derivatives along the three coordinates, by one call of an analytic f."""
    y = f(x[..., None, :] + 1j * _STEP * _EYE3)
    return np.take(y.real, 0, axis=x.ndim - 1), y.imag / _STEP


def _riemann(gammas: np.ndarray, h: float) -> np.ndarray:
    """R[..., sigma, alpha, mu, nu] from a connection at a point and its 12 taps (axis -4)."""
    gamma, d_gamma = gammas[..., 0, :, :, :], _five_point(gammas, gammas.ndim - 4, h)
    return (
        np.einsum("...msna->...samn", d_gamma)
        - np.einsum("...nsma->...samn", d_gamma)
        + np.einsum("...lna,...sml->...samn", gamma, gamma)
        - np.einsum("...lma,...snl->...samn", gamma, gamma)
    )


def _clearance(x: np.ndarray) -> float:
    """Distance of chi and theta from the nearest multiple of pi, where their sines vanish."""
    return float(np.abs(x[:2] - np.pi * np.rint(x[:2] / np.pi)).min())


def _check_point_step(chart_point, h: float) -> np.ndarray:
    x = np.asarray(chart_point, float)
    if x.shape != (3,):
        raise ChartDegeneracy("chart point must be (chi, theta, phi)")
    if not np.isfinite(x).all():
        raise ChartDegeneracy(f"point {tuple(x.tolist())} has a non-finite coordinate")
    if _clearance(x) < COLLAR:
        raise ChartDegeneracy(
            f"point {tuple(x.tolist())} is inside the {COLLAR}-rad degeneracy collar"
        )
    if not STEP_RANGE[0] <= h <= STEP_RANGE[1]:
        raise StepOutOfRange(f"step {h} outside {STEP_RANGE}")
    return x


def check_curvature_point(chart_point, h: float) -> np.ndarray:
    """Curvature's point check: COLLAR + 2h keeps every point of its nested stencils, which
    reach 4h, at least COLLAR - 2h >= 0.098 rad from the zeros of sin chi and sin theta."""
    x = _check_point_step(chart_point, h)
    if _clearance(x) < COLLAR + 2 * h:
        raise ChartDegeneracy(
            f"point {tuple(x.tolist())} is within COLLAR + 2h = {COLLAR} + {2 * h} rad of a "
            f"zero of sin chi or sin theta; curvature's stencils reach 4h and need that clearance"
        )
    return x


def _embed(x: np.ndarray) -> np.ndarray:
    return np.moveaxis(embed_round(x[..., 0], x[..., 1], x[..., 2]), 0, -1)


def _coframe(x: np.ndarray) -> np.ndarray:
    """C[..., a, mu] = beta_a(q(x)) . d_mu q(x), chart Jacobian by complex step.

    Differentiating the embedding keeps the construction agnostic about
    the chart; nothing here assumes hyperspherical coordinates.
    """
    q, dq = _complex_jet(_embed, x)
    rows = np.einsum("akj,...j->...ak", _LEFT_BIVECTOR, q)
    return rows @ np.swapaxes(dq, -1, -2)


def _connection(C: np.ndarray, h: float) -> np.ndarray:
    """omega[..., mu, nu, alpha] from coframes C[..., 13, a, mu] at a point and its taps."""
    Ci = np.linalg.inv(C[..., 0, :, :])
    return np.einsum("...ma,...nab->...mnb", Ci, _five_point(C, C.ndim - 3, h))


def _omega(x: np.ndarray, h: float) -> np.ndarray:
    """omega[..., mu, nu, alpha] of the frame connection at unchecked points."""
    return _connection(_coframe(x[..., None, :] + h * _STENCIL), h)


def weitzenbock_connection(chart_point, h: float = 1e-4) -> ConnectionCoefficients:
    """Connection making the frame covariantly constant, by finite differences.

    omega[mu, nu, alpha] solves d_nu C[a, alpha] = C[a, mu] omega[mu, nu, alpha]
    for the chart coframe C; the contraction uses the inverse coframe
    (for the orthonormal frame rows the pseudo-inverse is the transpose,
    and the square coframe matrix is inverted directly).
    """
    x = _check_point_step(chart_point, h)
    return ConnectionCoefficients(omega=_omega(x, h), point=tuple(x), h=h)


def covariant_constancy_residual(chart_point, h: float = 1e-4) -> float:
    """max |d_nu C - C omega| with an independent derivative at step 2h.

    The doubled step keeps the check independent of the stencil used
    inside weitzenbock_connection without amplifying rounding noise.
    """
    x = _check_point_step(chart_point, h)
    resid = _gradient(_coframe, x, 2 * h) - np.einsum("am,mnb->nab", _coframe(x), _omega(x, h))
    return float(np.abs(resid).max())


# chart points per chunk of a stack, for curvature (73 stencil points each) and
# torsion (13) alike; on 100 points one curvature call's traced peak is 0.45 MiB
_CHUNK = 8


def _stacked(check, f, chart_point, h: float) -> np.ndarray:
    """f at one checked point (3,), or at each point of a stack (n, 3) in chunks.

    Every point of a stack is checked, in order, before any stencil work.
    """
    x = np.asarray(chart_point, float)
    if x.ndim != 2:
        return f(check(x, h), h)
    x = np.array([check(point, h) for point in x])
    return np.concatenate([f(x[i : i + _CHUNK], h) for i in range(0, len(x), _CHUNK)])


def _curvature(x: np.ndarray, h: float) -> np.ndarray:
    # one coframe call on the 73 lattice points, gathered into [..., s, t, a, mu]
    C = _coframe(x[..., None, :] + h * _LATTICE)[..., _PAIRS.reshape(13, 13), :, :]
    return _riemann(_connection(C, h), h)


def _torsion(x: np.ndarray, h: float) -> np.ndarray:
    omega = _omega(x, h)
    return omega - np.swapaxes(omega, -1, -2)


def curvature_tensor(chart_point, h: float = 1e-4) -> np.ndarray:
    """R[..., sigma, alpha, mu, nu] of the frame connection; zero up to stencil noise.

    Takes one chart point (3,) or a stack (n, 3); a stack adds a leading axis.
    """
    return _stacked(check_curvature_point, _curvature, chart_point, h)


def torsion_tensor(chart_point, h: float = 1e-4) -> TorsionTensor:
    """Antisymmetrization of the connection's lower indices; O(1) generically.

    Takes one chart point (3,) or a stack (n, 3); a stack adds a leading axis.
    """
    return TorsionTensor(components=_stacked(_check_point_step, _torsion, chart_point, h))


def torsion_frame_components(chart_point, h: float = 1e-4) -> np.ndarray:
    """Torsion with all indices converted to frame legs.

    Tf[c, a, b] = C[c, sigma] T[sigma, mu, nu] Cinv[mu, a] Cinv[nu, b];
    for this frame field the result is the constant -2 eps_abc.
    """
    x = _check_point_step(chart_point, h)
    T = torsion_tensor(x, h).components
    C = _coframe(x)
    Ci = np.linalg.inv(C)
    return np.einsum("cs,smn,ma,nb->cab", C, T, Ci, Ci)


def torsion_bivector_su2(a, b) -> np.ndarray:
    """Torsion bivector of two unit axes on the sphere: biv(a x b).

    Magnitude sin(eta_ab); parallel axes give the zero bivector.
    """
    cross = np.cross(np.asarray(a, float), np.asarray(b, float))
    if np.linalg.norm(cross) < 1e-12:
        return np.zeros(8)
    return algebra.bivector_embed(cross)


def torsion_bivector_so3(a, b) -> np.ndarray:
    """Quotient-geometry torsion bivector: piecewise-linear magnitude.

    Same axis as the spherical version but scaled by the saw-tooth
    stand-in for sin(eta); zero for parallel axes and at eta = pi.
    """
    cross = np.cross(np.asarray(a, float), np.asarray(b, float))
    n = float(np.linalg.norm(cross))
    if n < 1e-12:
        return np.zeros(8)
    return algebra.bivector_embed(so3_sin_alpha(separation_angle(a, b)) * cross / n)


# ---------------------------------------------------------------------------
# Round-metric Levi-Civita control.  The FRW 3-sphere has sectional
# curvature +1 everywhere; a connection pipeline that reported zero here
# would be differentiating nothing.

def _round_metric(x: np.ndarray) -> np.ndarray:
    sin_chi = np.sin(x[..., 0])
    diagonal = [np.ones_like(sin_chi), sin_chi**2, (sin_chi * np.sin(x[..., 1])) ** 2]
    return np.stack(diagonal, axis=-1)[..., None] * _EYE3


def _christoffel(x: np.ndarray) -> np.ndarray:
    g, dg = _complex_jet(_round_metric, x)
    g_inv = np.linalg.inv(g)
    return 0.5 * (
        np.einsum("...sl,...mln->...smn", g_inv, dg)
        + np.einsum("...sl,...nlm->...smn", g_inv, dg)
        - np.einsum("...sl,...lmn->...smn", g_inv, dg)
    )


def _round_curvature(x: np.ndarray, h: float) -> np.ndarray:
    return _riemann(_christoffel(x[..., None, :] + h * _STENCIL), h)


def round_metric_curvature(chart_point, h: float = 1e-4) -> np.ndarray:
    """Riemann tensor R[sigma, alpha, mu, nu] of the round metric (nonzero)."""
    return _round_curvature(_check_point_step(chart_point, h), h)


def round_metric_sectional(chart_point, h: float = 1e-4) -> np.ndarray:
    """Sectional curvatures of the three coordinate planes; all +1."""
    x = _check_point_step(chart_point, h)
    R = _round_curvature(x, h)
    g = _round_metric(x)
    R_low = np.einsum("ts,samn->tamn", g, R)
    m, n = np.array([0, 0, 1]), np.array([1, 2, 2])  # the three coordinate planes
    return R_low[m, n, m, n] / (g[m, m] * g[n, n] - g[m, n] ** 2)
