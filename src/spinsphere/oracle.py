"""Independent quadrature for the sign-model correlation.

For a spin axis s uniform on the unit sphere and detector directions
a, b separated by theta, this integrates

    E(theta) = (1/4pi) * integral of sign(s . a) sign(-s . b) dOmega

directly.  The inner azimuthal integral is done in closed form (the
integrand is piecewise constant in phi), leaving a 1-d integral over
the polar angle alpha.  Its integrand is smooth between known
breakpoints: the polar sign flip at pi/2 and the |A| = |B| cone
crossings arctan(1/|tan theta|) and pi minus that.  Each piece [p, q]
gets the same fixed 48-node Gauss-Legendre rule after the substitution

    alpha = p + (q - p) (1 - cos(pi t)) / 2,    t in [0, 1],

whose vanishing derivative at both ends cancels the square-root
behaviour of arccos at the cone crossings (Davis and Rabinowitz,
Methods of Numerical Integration, 2nd ed., section 2.9).  Nothing here
touches the Monte Carlo or closed-form code paths; the whole point is
an estimate the simulation cannot contaminate.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = ["sign_model_correlation", "sign_model_curve"]

NODES = 48  # Gauss-Legendre nodes per piece


def _rule(n: int):
    """Nodes u in (0, 1) and weights w with sum w f(p + (q-p) u) ~ integral over [0, 1].

    The nodes x are leggauss's.  leggauss rescales its weights to sum
    to 2, which leaves relative errors up to 1.3e-12 at n = 48 (4e-15 in
    E at theta = 0), so they are recomputed as 2 / ((1 - x^2) P_n'(x)^2),
    good to 4e-14.
    """
    x, _ = np.polynomial.legendre.leggauss(n)
    slope = np.polynomial.Legendre.basis(n).deriv()(x)
    w = 2.0 / ((1.0 - x * x) * slope * slope)
    t = (x + 1.0) / 2.0
    return (1.0 - np.cos(np.pi * t)) / 2.0, w * np.pi * np.sin(np.pi * t) / 4.0


_U, _W = _rule(NODES)


def _azimuthal_mean(alpha: np.ndarray, theta: float) -> np.ndarray:
    """(1/2pi) * integral over phi of sign(-(A cos phi + B)), elementwise in alpha.

    A = sin(alpha) sin(theta) is nonnegative on the domain, so the sign
    flips at phi = arccos(-B/A) when |A| > |B| and never otherwise.
    """
    A = np.sin(alpha) * np.sin(theta)
    B = np.cos(alpha) * np.cos(theta)
    phi_star = np.arccos(np.clip(-B / A, -1.0, 1.0))
    return np.where(A <= np.abs(B), -np.sign(B), 1.0 - 2.0 * phi_star / np.pi)


def _integrand(alpha: np.ndarray, theta: float) -> np.ndarray:
    return np.sign(np.cos(alpha)) * _azimuthal_mean(alpha, theta) * np.sin(alpha) / 2.0


def sign_model_correlation(theta: float) -> float:
    """E(theta) for theta in [0, pi], accurate to about 1e-14."""
    theta = float(theta)
    if not 0.0 <= theta <= np.pi:
        raise DomainError("separation angle must lie in [0, pi]")
    # kinks: the polar sign flip and the |A| = |B| cone crossings
    a1 = float(np.arctan2(1.0, abs(np.tan(theta))))
    breaks = {np.pi / 2, a1, np.pi - a1}
    edges = np.array([0.0, *sorted(p for p in breaks if 0.0 < p < np.pi), np.pi])
    p, width = edges[:-1, None], np.diff(edges)[:, None]
    # A = 0 or subnormal at theta near 0 makes -B/A infinite; np.where discards it
    with np.errstate(divide="ignore", over="ignore"):
        values = _integrand(p + width * _U, theta)
    return float((width * _W * values).sum())


def sign_model_curve(thetas) -> np.ndarray:
    return np.array([sign_model_correlation(t) for t in np.asarray(thetas, float)])
