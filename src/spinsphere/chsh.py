"""CHSH string assembly and the 2 sqrt(2) bound search.

The string E(a,b) + E(a,b') + E(a',b) - E(a',b') is evaluated for three
correlators: the smooth cosine law, the quotient saw, and
spin.raw_correlation on a fixed ensemble redraw-checked against every
direction of the grid; the closed forms take stacked
directions, so _string evaluates one quadruple or many.  The maximizer
has one stage: a coplanar 1-degree grid over a table of E between every
two of the 360 directions _GRID, one correlator call for the closed
forms.  For the closed forms the grid attains the proven maxima
over all unit vectors, so no full-sphere search can beat it: |S| <=
2 sqrt(2) for the cosine law (Cirel'son, Lett. Math. Phys. 4, 93
(1980)), reached at (0, 90, 225, 135) degrees, and |S| <= 2 for the
saw, the correlation of a local +-1 model (Clauser, Horne, Shimony and
Holt, PRL 23, 880 (1969)), reached already on degenerate quadruples.
The Monte Carlo table holds exact integer sums of per-trial products,
so every grid string it reports is the ensemble mean of per-trial
strings and never exceeds the local bound of 2; the bound also forces
the reported value, 2 for every ensemble.  The ensemble is streamed on
spin's pool through the grid curve's counter, spin._planar_counts, on
the xy-plane: each block gives sorted-angle counts at the boundaries of
the 360 directions, once its rare trials near a boundary are checked
against all of them, and memory does not grow with the trial count.

The two stations' scores are kept in separate algebra copies: a string
evaluation never multiplies an a-side element by a b-side element, so
the cross-station commutation assumption is structural rather than
imposed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import algebra, spin
from .errors import InvalidConfig, OptimizerBudgetExceeded
from .geometry import dot, separation_angle, so3_distance
from .spin import ExperimentConfig, raw_correlation
from .spin import simulate_ensemble  # unused here; bench/layers.py wraps this binding

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
_COUNT = int(round(360.0 / GRID_STEP_DEG))  # grid directions
TIE_MARGIN = 1e-12  # a grid string replaces the best only above best + TIE_MARGIN
_GRID_ROWS = 20  # values of u per vectorized step of the grid max; bounds its temporaries
# grid direction k: x-hat turned k grid steps about z-hat
_AZIMUTHS = np.radians(np.arange(_COUNT) * GRID_STEP_DEG)
_GRID = np.stack([np.cos(_AZIMUTHS), np.sin(_AZIMUTHS), np.zeros(_COUNT)], axis=1)
_GRID.setflags(write=False)

_KINDS = ("su2_cosine", "so3_saw", "monte_carlo")


def _check_unit(v, name: str) -> np.ndarray:
    v = np.asarray(v, float)
    if v.shape != (3,) or not abs(np.linalg.norm(v) - 1.0) <= 1e-12:
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
        for name in ("a", "a_prime", "b", "b_prime"):
            setattr(self, name, _check_unit(getattr(self, name), name))
        if self.correlation_kind not in _KINDS:
            raise InvalidConfig(f"unknown correlation_kind {self.correlation_kind!r}")


@dataclass
class BoundReport:
    """Search outcome: the found maximum against the global bound.

    stage is always "grid", the search's one stage.
    """

    chsh_value: float
    rhs_bound: float
    directions: tuple
    angles_deg: tuple
    stage: str = "grid"


@dataclass
class OptimizerConfig:
    budget: int = 5_000_000
    seed: int = 2026
    mc_trials: int = 1_000_000
    threads: int = 1  # workers for the Monte Carlo table, as in spin.correlation_curve


class VarianceBound(NamedTuple):
    idealized: float
    corrected: float
    finite_n: float


def su2_cosine_correlator(a, b):
    """Smooth geodesic law: E = -a.b, over the last axis of stacked directions."""
    return -dot(a, b)


def so3_saw_correlator(a, b):
    """Quotient geodesic law applied to the separation angle, over the last axis."""
    return so3_distance(separation_angle(a, b))


def monte_carlo_correlator(trials):
    """spin.raw_correlation's estimate, bound to a fixed ensemble.

    sign(0) = 0: a trial orthogonal to a direction its ensemble was not
    redraw-checked against scores 0 rather than +-1.
    """
    return lambda a, b: raw_correlation(trials, a, b)[0]


def _string(correlator, a, a_prime, b, b_prime):
    """E(a,b) + E(a,b') + E(a',b) - E(a',b') of one quadruple or stacked ones.

    The evaluator of every reported value; the grid max sums table rows.
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
    """Budget units: one per correlator value, whether it comes from a
    single pair, an entry of a batched call or an entry of a count table."""

    def __init__(self, limit: int):
        self.limit = spin._integer("budget", limit, 1)
        self.spent = 0

    def spend(self, k: int = 1):
        self.spent += k
        if self.spent > self.limit:
            raise OptimizerBudgetExceeded(f"exceeded {self.limit} budget units")


def _coplanar_grid_max(table: np.ndarray):
    """Best |CHSH| over the integer grid, a fixed at index 0.

    table[i, j] is E (or an integer count) between grid directions i and
    j.  With A = table[0] + table[u] and B = table[0] - table[u] the
    string at (0, u, v, w) is A[v] + B[w], so each u needs only the
    extrema of A and B, taken for _GRID_ROWS values of u at a time.  Ties,
    rounding noise included, keep the lowest (u, v, w): argmax hits
    first, and a new best must clear TIE_MARGIN in the scan of each u's
    maximum then minimum string.
    """
    best = (-1.0, 0, 0, 0)
    for lo in range(0, table.shape[0], _GRID_ROWS):
        rows = table[lo : lo + _GRID_ROWS]
        A, B = table[0] + rows, table[0] - rows
        v = np.stack([A.argmax(axis=1), A.argmin(axis=1)], axis=1)
        w = np.stack([B.argmax(axis=1), B.argmin(axis=1)], axis=1)
        values = np.abs(np.take_along_axis(A, v, 1) + np.take_along_axis(B, w, 1))
        candidates = zip(values.ravel().tolist(), v.ravel().tolist(), w.ravel().tolist())
        for k, (value, vk, wk) in enumerate(candidates):
            if value > best[0] + TIE_MARGIN:
                best = (value, lo + k // 2, vk, wk)
    return best


# bench/layers.py still wraps these two names of the deleted full-sphere
# guard; nothing calls them, and they go with ROADMAP item 1b
_random_restart_guard = None
minimize = None


def maximize_chsh(
    correlation_kind: str, optimizer_config: Optional[OptimizerConfig] = None
) -> BoundReport:
    """Search for the largest |CHSH| under the named correlator, on the coplanar grid.

    Deterministic given the optimizer config, whose fields must be
    integers (spin._integer), all but seed at least 1, whatever the
    kind.  The closed forms read only the budget: 360 units for the
    table row and 4 for the string they report at the grid argmax.  The
    Monte Carlo kind is charged one unit per table entry of an ensemble
    seeded by cfg.seed, checked against all 360 grid directions and
    streamed block by block on cfg.threads workers (spin._planar_counts),
    so the report is the same bytes for any worker count.  Its value is
    forced by the local bound: the lowest tied grid string has
    a = a' = x-hat, where every per-trial string is
    2 sign(s.x) sign(-s.b) = +-2, and b = -x-hat makes all of them +2
    ((0, 0, 180, 0) at 1M trials on every seed tried), so neither the
    value, 2.0, nor the argmax depends on the ensemble.
    """
    if correlation_kind not in _KINDS:
        raise InvalidConfig(f"unknown correlation_kind {correlation_kind!r}")
    cfg = optimizer_config or OptimizerConfig()
    budget = _Budget(cfg.budget)
    for name, minimum in (("seed", None), ("mc_trials", 1), ("threads", 1)):
        spin._integer(name, getattr(cfg, name), minimum)

    if correlation_kind == "monte_carlo":
        budget.spend(_COUNT * _COUNT)
        # the draw's seed and modes fix the trials; the plane checks them against all of _GRID
        draw = ExperimentConfig(cfg.mc_trials, cfg.seed).validate()
        n = int(draw.n_trials)
        index = np.arange(_COUNT)
        plane = spin._plane(_GRID, (0, 1), index[:, None], index[None, :])
        summed = spin._reduce_blocks(n, cfg.threads, spin._planar_counts, draw, plane)
        # sign(s.d_i) sign(-s.d_j) is +1 where the signs differ and -1 where they agree
        table = 2 * plane.counts(summed)[:-2].reshape(_COUNT, _COUNT) - n
    else:
        kinds = {"su2_cosine": su2_cosine_correlator, "so3_saw": so3_saw_correlator}
        correlator = kinds[correlation_kind]
        budget.spend(_COUNT)
        # E between x-hat and each grid direction; the laws depend on the
        # separation angle only, so the table is the circulant
        # table[u, v] = relative[(v - u) % _COUNT], here a view
        relative = correlator(_GRID[0], _GRID)
        windows = np.lib.stride_tricks.sliding_window_view(np.tile(relative, 2), _COUNT)
        table = windows[_COUNT:0:-1]
    grid_value, u, v, w = _coplanar_grid_max(table)
    directions = tuple(_GRID[[0, u, v, w]])

    if correlation_kind == "monte_carlo":
        value = grid_value / n  # |sum of per-trial strings| <= 2 n
    else:
        budget.spend(4)
        value = abs(_string(correlator, *directions))

    return BoundReport(
        chsh_value=float(value),
        rhs_bound=float(TSIRELSON_BOUND),
        directions=directions,
        angles_deg=tuple(np.degrees(_AZIMUTHS[[0, u, v, w]]).tolist()),
    )
