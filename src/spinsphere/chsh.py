"""CHSH string assembly and the 2 sqrt(2) bound search.

The string E(a,b) + E(a,b') + E(a',b) - E(a',b') is evaluated for three
correlators: the smooth cosine law, the quotient saw, and
spin.raw_correlation on a fixed ensemble redraw-checked against x-hat,
the setting a of every grid string.  The maximizer runs a coplanar
1-degree grid over a table of E between every two grid directions.  For
the closed forms a full-sphere guard then checks the grid's coplanarity
assumption by ascending 100 random quadruples at once, in one L-BFGS-B
run on the analytic gradient of each law in the dot products; its
quadruple is reported only if it beats the grid.  The Monte Carlo table
holds exact integer sums of per-trial products, so every grid string it
reports is the ensemble mean of per-trial strings and never exceeds the
local bound of 2.  The classic maximum for the cosine correlator is
2 sqrt(2) at (0, 90, 225, 135) degrees; the saw correlator tops out at
2, already on degenerate quadruples.

The two stations' scores are kept in separate algebra copies: a string
evaluation never multiplies an a-side element by a b-side element, so
the cross-station commutation assumption is structural rather than
imposed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.optimize import minimize

from . import algebra
from .errors import InvalidConfig, OptimizerBudgetExceeded
from .geometry import separation_angle, so3_distance
from .spin import ExperimentConfig, raw_correlation, simulate_ensemble

__all__ = [
    "TSIRELSON_BOUND",
    "ChshConfig",
    "BoundReport",
    "OptimizerConfig",
    "VarianceBound",
    "su2_cosine_correlator",
    "so3_saw_correlator",
    "monte_carlo_correlator",
    "chsh_string",
    "commutator_torsion",
    "variance_rhs",
    "maximize_chsh",
]

TSIRELSON_BOUND = 2.0 * np.sqrt(2.0)
GRID_STEP_DEG = 1.0  # coplanar grid and correlation table resolution
EDGE_TOL_DEG = 1e-9  # azimuths this close to a grid direction take the dot-product path
TIE_MARGIN = 1e-12  # a grid string replaces the best only above best + TIE_MARGIN
RESTARTS = 100  # full-sphere starts in the guard

_KINDS = ("su2_cosine", "so3_saw", "monte_carlo")


def _check_unit(v, name: str) -> np.ndarray:
    v = np.asarray(v, float)
    if v.shape != (3,) or abs(np.linalg.norm(v) - 1.0) > 1e-12:
        raise InvalidConfig(f"{name} must be a unit 3-vector (within 1e-12)")
    return v


@dataclass
class ChshConfig:
    a: np.ndarray
    a_prime: np.ndarray
    b: np.ndarray
    b_prime: np.ndarray
    correlation_kind: str = "su2_cosine"

    def __post_init__(self):
        self.a = _check_unit(self.a, "a")
        self.a_prime = _check_unit(self.a_prime, "a_prime")
        self.b = _check_unit(self.b, "b")
        self.b_prime = _check_unit(self.b_prime, "b_prime")
        if self.correlation_kind not in _KINDS:
            raise InvalidConfig(f"unknown correlation_kind {self.correlation_kind!r}")


@dataclass
class BoundReport:
    """Search outcome: the found maximum against the global bound.

    stage names the search stage that produced chsh_value: "grid" or
    "guard".  angles_deg is None when the guard wins, since its
    directions leave the xy plane.
    """

    chsh_value: float
    rhs_bound: float
    directions: tuple
    angles_deg: Optional[tuple] = None
    stage: str = "grid"


@dataclass
class OptimizerConfig:
    budget: int = 5_000_000
    seed: int = 2026
    mc_trials: int = 1_000_000


class VarianceBound(NamedTuple):
    idealized: float
    corrected: float
    finite_n: float


def su2_cosine_correlator(a, b) -> float:
    """Smooth geodesic law: E = -a.b."""
    return -float(np.dot(a, b))


def so3_saw_correlator(a, b) -> float:
    """Quotient geodesic law applied to the separation angle."""
    return so3_distance(separation_angle(a, b))


def monte_carlo_correlator(trials):
    """spin.raw_correlation's estimate, bound to a fixed ensemble.

    sign(0) = 0: a trial orthogonal to a direction its ensemble was not
    redraw-checked against scores 0 rather than +-1.
    """
    return lambda a, b: raw_correlation(trials, a, b)[0]


def _string(correlator, a, a_prime, b, b_prime) -> float:
    """E(a,b) + E(a,b') + E(a',b) - E(a',b'), the evaluator of every reported value.

    The grid and the guard sum batched strings of their own.
    """
    return (
        correlator(a, b)
        + correlator(a, b_prime)
        + correlator(a_prime, b)
        - correlator(a_prime, b_prime)
    )


def chsh_string(config: ChshConfig, correlator) -> float:
    """E(a,b) + E(a,b') + E(a',b) - E(a',b')."""
    return _string(correlator, config.a, config.a_prime, config.b, config.b_prime)


def commutator_torsion(a, a_prime, lam: int):
    """Half the oriented commutator of the two first-station scores.

    Equals -L(a x a_prime, lam); antisymmetric under swapping the
    arguments and zero for parallel settings.
    """
    score_a = lam * algebra.bivector_embed(a)
    score_ap = lam * algebra.bivector_embed(a_prime)
    forward = algebra.oriented_product(score_a, score_ap, lam)
    backward = algebra.oriented_product(score_ap, score_a, lam)
    return 0.5 * (forward - backward)


def variance_rhs(a, a_prime, b, b_prime, trials=None) -> VarianceBound:
    """Variance-chain right side for a quadruple of settings.

    idealized: 2 sqrt(1 - (a x a') . (b' x b)), the infinite-ensemble
    expression as printed.  corrected: 2 sqrt(1 + (a x a') . (b' x b)),
    the same chain with the cross-product orientation of the singlet
    identity <S^2> = 4 - 4 (a x a') . (b x b'); it is the form that bounds
    |CHSH| for the cosine correlator (see DECISIONS.md).  finite_n keeps
    the mean-orientation term: the leftover is a bivector whose scalar
    coefficient is |(a x a') x (b' x b)|, weighted by mean(lam) over the
    supplied trials.  It keeps idealized's literal orientation because it
    is reported only, never asserted against the string, and equals
    idealized for a balanced ensemble; DECISIONS.md has the analysis.
    """
    cross_a = np.cross(np.asarray(a, float), np.asarray(a_prime, float))
    cross_b = np.cross(np.asarray(b_prime, float), np.asarray(b, float))
    dot = float(np.dot(cross_a, cross_b))
    idealized = 2.0 * np.sqrt(max(0.0, 1.0 - dot))
    corrected = 2.0 * np.sqrt(max(0.0, 1.0 + dot))
    lam_mean = 0.0 if trials is None else float(np.mean(trials.lam))
    coeff = float(np.linalg.norm(np.cross(cross_a, cross_b)))
    finite = np.sqrt(max(0.0, 4.0 - 4.0 * dot - 4.0 * lam_mean * coeff))
    return VarianceBound(
        idealized=float(idealized), corrected=float(corrected), finite_n=float(finite)
    )


# ---------------------------------------------------------------------------
# maximization


class _Budget:
    def __init__(self, limit: int):
        self.limit = int(limit)
        self.spent = 0

    def spend(self, k: int = 1):
        self.spent += k
        if self.spent > self.limit:
            raise OptimizerBudgetExceeded(
                f"exceeded {self.limit} correlator evaluations"
            )


def _planar_direction(angle_rad: float) -> np.ndarray:
    return np.array([np.cos(angle_rad), np.sin(angle_rad), 0.0])


def _planar_count_table(trials) -> np.ndarray:
    """C[i, j] = sum over trials of sign(s.d_i) sign(-s.d_j), d_k = k grid steps.

    C / n equals raw_correlation(trials, d_i, d_j)[0] bit for bit: the sum
    is an exact integer.  A trial whose azimuth lies strictly inside bin
    k is more than EDGE_TOL_DEG from orthogonal to every d_i, so its signs
    depend on k alone: +1 within a quarter turn of the bin, else -1.  The
    bins enter as one count-weighted integer product of those sign
    patterns, exact and free of BLAS work buffers.  A trial within
    EDGE_TOL_DEG of a grid direction (s_x = s_y = 0 among them: atan2
    gives 0 or 180 degrees) is scored by raw_correlation's own
    per-direction dot products, which keeps sign(0) = 0 and the rounding
    of near-orthogonal s.d; a matrix product may round those differently.
    """
    count = int(round(360.0 / GRID_STEP_DEG))
    directions = [_planar_direction(np.radians(k * GRID_STEP_DEG)) for k in range(count)]
    s = trials.s
    azimuth = np.degrees(np.arctan2(s[:, 1], s[:, 0])) / GRID_STEP_DEG
    edge = np.abs(azimuth - np.rint(azimuth)) * GRID_STEP_DEG <= EDGE_TOL_DEG
    bins = np.bincount(np.floor(azimuth[~edge]).astype(np.int64) % count, minlength=count)
    k = np.arange(count)
    offset = (k[:, None] - k[None, :]) % count
    patterns = np.where((offset < count // 4) | (offset >= 3 * count // 4), 1, -1)
    on_edge = s[edge]
    edge_patterns = np.stack([np.sign(on_edge @ d) for d in directions], axis=1)
    rows = np.vstack([patterns, edge_patterns.astype(np.int64)])
    weights = np.concatenate([bins, np.ones(len(on_edge), dtype=np.int64)])
    return -((rows.T * weights) @ rows)


def _coplanar_grid_max(table: np.ndarray):
    """Best |CHSH| over the integer grid, a fixed at index 0.

    table[i, j] is E (or an integer count) between grid directions i and
    j.  With A = table[0] + table[u] and B = table[0] - table[u] the
    string at (0, u, v, w) is A[v] + B[w], so each u needs only the
    extrema of A and B.  Ties, rounding noise included, keep the lowest
    (u, v, w): argmax hits first, and a new best must clear TIE_MARGIN.
    """
    best = (-1.0, 0, 0, 0)
    for u in range(table.shape[0]):
        A = table[0] + table[u]
        B = table[0] - table[u]
        v_hi, v_lo = int(np.argmax(A)), int(np.argmin(A))
        w_hi, w_lo = int(np.argmax(B)), int(np.argmin(B))
        hi = A[v_hi] + B[w_hi]
        lo = A[v_lo] + B[w_lo]
        for value, v, w in ((abs(hi), v_hi, w_hi), (abs(lo), v_lo, w_lo)):
            if value > best[0] + TIE_MARGIN:
                best = (value, u, v, w)
    return best


def _cosine_law(x):
    """The cosine law on dot products x = a.b: E = -x and dE/dx = -1."""
    return -x, np.full_like(x, -1.0)


def _saw_law(x):
    """The saw on dot products x = a.b: E = -1 + 2 eta / pi, eta = arccos x, and dE/dx.

    dE/dx = -2 / (pi sin eta), with sin eta clamped away from 0 at the
    kinks eta in {0, pi}.  Projected onto a tangent the gradient stays
    bounded, since |b - (a.b) a| = sin eta.
    """
    x = np.clip(x, -1.0, 1.0)
    sin_eta = np.maximum(np.sqrt((1.0 - x) * (1.0 + x)), np.finfo(float).eps)
    return -1.0 + 2.0 * np.arccos(x) / np.pi, -2.0 / (np.pi * sin_eta)


_SIGNS = np.array([[1.0, 1.0], [1.0, -1.0]])  # string signs of E(a|a', b|b')


def _guard_objective(law, v):
    """|CHSH| of each quadruple v (restarts, 4, 3) of free vectors, and its gradient.

    Setting k is the direction v_k / |v_k|.  The gradient flows through
    the law's slope in each dot product, is projected onto the tangent
    of each v_k and divided by |v_k|.
    """
    norm = np.linalg.norm(v, axis=-1, keepdims=True)
    u = v / norm
    a, b = u[:, :2], u[:, 2:]
    value, slope = law(np.einsum("rik,rjk->rij", a, b))
    string = (_SIGNS * value).sum(axis=(1, 2))
    weight = np.sign(string)[:, None, None] * _SIGNS * slope
    grad = np.concatenate(
        [np.einsum("rij,rjk->rik", weight, b), np.einsum("rij,rik->rjk", weight, a)], axis=1
    )
    grad -= (grad * u).sum(axis=-1, keepdims=True) * u
    return np.abs(string), grad / norm


def _random_restart_guard(correlator, coplanar_value, restarts, seed, budget, law):
    """Full-sphere restarts ascended together; returns a better quadruple if found.

    The restarts start from uniform polar and azimuthal angles, so the
    grid's coplanarity assumption gets an independent chance to fail.
    One L-BFGS-B run maximizes their mean |CHSH|, which is separable, on
    the analytic gradient of law, charged 4 per restart per evaluation.
    The best restart, re-evaluated by the scalar correlator, wins only
    if it beats coplanar_value by more than 1e-6.
    """
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    uniform = rng.random((int(restarts), 2, 4))  # theta then phi, per restart
    theta, phi = np.pi * uniform[:, 0], 2.0 * np.pi * uniform[:, 1]
    start = np.stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=-1
    )

    def batch(flat):
        budget.spend(4 * len(start))
        return _guard_objective(law, flat.reshape(start.shape))

    def negative_mean(flat):
        values, grad = batch(flat)
        return -values.mean(), -grad.ravel() / len(start)

    result = minimize(negative_mean, start.ravel(), jac=True, method="L-BFGS-B")
    best = result.x.reshape(start.shape)[np.argmax(batch(result.x)[0])]
    directions = list(best / np.linalg.norm(best, axis=-1, keepdims=True))
    budget.spend(4)
    best_value = abs(_string(correlator, *directions))
    if best_value > coplanar_value + 1e-6:
        return best_value, directions
    return None


def maximize_chsh(
    correlation_kind: str, optimizer_config: Optional[OptimizerConfig] = None
) -> BoundReport:
    """Search for the largest |CHSH| under the named correlator.

    Deterministic given the optimizer config.  The closed forms report
    the scalar string at the grid argmax unless the restart guard beats
    it by more than 1e-6.  The Monte Carlo kind counts every grid table
    entry on a fixed seeded ensemble, one budget evaluation each, and
    stops at the grid stage: 1 degree of direction resolution is already
    far below the estimator's standard error, and the restart guard would
    re-estimate the string thousands of times for no extra information.
    Its argmax, the lowest tied grid string, is the degenerate
    (0, 0, 180, 0) on every seed tried: a = a' = x-hat and b = -x-hat
    make every per-trial string exactly 2, so only the Monte Carlo value
    carries information.
    """
    if correlation_kind not in _KINDS:
        raise InvalidConfig(f"unknown correlation_kind {correlation_kind!r}")
    cfg = optimizer_config or OptimizerConfig()
    budget = _Budget(cfg.budget)
    count = int(round(360.0 / GRID_STEP_DEG))

    if correlation_kind == "monte_carlo":
        budget.spend(count * count)
        x_hat = _planar_direction(0.0)  # a of every grid string; redraw-check it
        ensemble = simulate_ensemble(
            ExperimentConfig(cfg.mc_trials, cfg.seed, direction_pairs=[(x_hat, x_hat)])
        )
        table = _planar_count_table(ensemble)
    else:
        correlator, law = {
            "su2_cosine": (su2_cosine_correlator, _cosine_law),
            "so3_saw": (so3_saw_correlator, _saw_law),
        }[correlation_kind]
        budget.spend(count)
        # E between x-hat and the planar direction d steps away; the laws
        # depend on the separation angle only, so the table is the
        # circulant table[u, v] = relative[(v - u) % count], here a view
        relative = law(np.cos(np.radians(np.arange(count) * GRID_STEP_DEG)))[0]
        windows = np.lib.stride_tricks.sliding_window_view(np.tile(relative, 2), count)
        table = windows[count:0:-1]
    grid_value, u, v, w = _coplanar_grid_max(table)
    angles = np.radians(np.array([0.0, u, v, w]) * GRID_STEP_DEG)
    directions = tuple(_planar_direction(t) for t in angles)

    if correlation_kind == "monte_carlo":
        value = grid_value / len(ensemble)  # |sum of per-trial strings| <= 2 n
    else:
        budget.spend(4)
        value = abs(_string(correlator, *directions))
        guard = _random_restart_guard(correlator, value, RESTARTS, cfg.seed, budget, law)
        if guard is not None:
            value, directions = guard
            return BoundReport(
                float(value), float(TSIRELSON_BOUND), tuple(directions), stage="guard"
            )

    return BoundReport(
        chsh_value=float(value),
        rhs_bound=float(TSIRELSON_BOUND),
        directions=directions,
        angles_deg=tuple(float(np.degrees(t)) for t in angles),
    )
