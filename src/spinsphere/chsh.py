"""CHSH string assembly and the 2 sqrt(2) bound search.

The string E(a,b) + E(a,b') + E(a',b) - E(a',b') is evaluated for three
correlators: the smooth cosine law, the quotient saw, and
spin.raw_correlation on a fixed ensemble redraw-checked against x-hat,
the setting a of every grid string.  The maximizer has one stage: a
coplanar 1-degree grid over a table of E between every two grid
directions.  For the closed forms the grid attains the proven maxima
over all unit vectors, so no full-sphere search can beat it: |S| <=
2 sqrt(2) for the cosine law (Cirel'son, Lett. Math. Phys. 4, 93
(1980)), reached at (0, 90, 225, 135) degrees, and |S| <= 2 for the
saw, the correlation of a local +-1 model (Clauser, Horne, Shimony and
Holt, PRL 23, 880 (1969)), reached already on degenerate quadruples.
The Monte Carlo table holds exact integer sums of per-trial products,
so every grid string it reports is the ensemble mean of per-trial
strings and never exceeds the local bound of 2; the bound also forces
the reported value, 2 for every ensemble.  The ensemble is streamed on
spin's pool: each block gives 360 azimuth-bin counts and its edge
trials' table, the table follows from arc sums, and memory does not
grow with the trial count.

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
from .geometry import separation_angle, so3_distance
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
EDGE_TOL_DEG = 1e-9  # azimuths this close to a grid direction take the dot-product path
TIE_MARGIN = 1e-12  # a grid string replaces the best only above best + TIE_MARGIN
_GRID_ROWS = 20  # values of u per vectorized step of the grid max; bounds its temporaries

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

    The grid sums batched strings of its own.
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
    scalar call, an entry of a batched law or an entry of a count table."""

    def __init__(self, limit: int):
        self.limit = int(limit)
        self.spent = 0

    def spend(self, k: int = 1):
        self.spent += k
        if self.spent > self.limit:
            raise OptimizerBudgetExceeded(f"exceeded {self.limit} budget units")


def _planar_direction(angle_rad: float) -> np.ndarray:
    return np.array([np.cos(angle_rad), np.sin(angle_rad), 0.0])


def _azimuth_bins(s: np.ndarray):
    """(bins, edge_counts) of unit axes s: azimuth-bin counts and the edge trials' table.

    bins[k] counts the trials whose azimuth lies strictly inside bin k,
    more than EDGE_TOL_DEG from every grid direction.  The others lie
    within EDGE_TOL_DEG of a grid direction (s_x = s_y = 0 among them:
    atan2 gives 0 or 180 degrees), about 2e-9 of a drawn ensemble's
    trials.  Their sign rows E come from raw_correlation's own
    per-direction dot products, which keep sign(0) = 0 and the rounding
    of near-orthogonal s.d (a matrix product may round those
    differently), and edge_counts = E.T @ E, or 0 without edge trials.
    No array is compacted: the bins fold counts of every trial (DECISIONS.md).
    """
    azimuth = np.degrees(np.arctan2(s[:, 1], s[:, 0])) / GRID_STEP_DEG
    edge = np.abs(azimuth - np.rint(azimuth)) * GRID_STEP_DEG <= EDGE_TOL_DEG
    index = np.floor(azimuth).astype(np.intp) + _COUNT // 2
    counts = np.bincount(index, minlength=_COUNT + 1)
    counts -= np.bincount(index[edge], minlength=_COUNT + 1)
    bins = np.roll(counts[:_COUNT], _COUNT // 2)
    if not edge.any():
        return bins, 0
    directions = [_planar_direction(np.radians(k * GRID_STEP_DEG)) for k in range(_COUNT)]
    signs = np.stack([np.sign(s[edge] @ d) for d in directions], axis=1).astype(np.int64)
    return bins, signs.T @ signs


def _table_from_bins(bins: np.ndarray, edge_counts) -> np.ndarray:
    """C[i, j] = sum over trials of sign(s.d_i) sign(-s.d_j) from _azimuth_bins.

    A trial in bin k is more than EDGE_TOL_DEG from orthogonal to every
    d_i, so sign(s.d_i) = f(k, i) depends on k alone: +1 when k lies in
    the half circle H_i = [i - q, i + q), else -1, with angles in grid
    steps (360 to the turn, q = 90).  Summed over the bins,
    sum_k bins[k] f(k, i) f(k, j) = N - 2 bins(H_i ^ H_j), N the binned
    trials.  For d = (j - i) mod 360 <= 180 the symmetric difference is
    the two arcs [i - q, i - q + d) and [i + q, i + q + d); for larger d,
    i and j swap and d becomes 360 - d.  Each arc sum is a difference of
    one prefix sum of the bins tiled twice, all in int64, so the table is
    exact; edge_counts adds the edge trials.
    """
    quarter = _COUNT // 4
    i, j = np.ogrid[:_COUNT, :_COUNT]
    d = (j - i) % _COUNT
    swap = d > _COUNT // 2
    length = np.where(swap, _COUNT - d, d)
    first = np.where(swap, j, i) - quarter
    prefix = np.concatenate([[0], np.cumsum(np.tile(bins, 2))])

    def arc(start):
        start = start % _COUNT
        return prefix[start + length] - prefix[start]

    differ = arc(first) + arc(first + 2 * quarter)
    return 2 * differ - bins.sum() - edge_counts


def _planar_count_table(trials) -> np.ndarray:
    """C[i, j] = sum over trials of sign(s.d_i) sign(-s.d_j), d_k = k grid steps.

    C / n equals raw_correlation(trials, d_i, d_j)[0] bit for bit: the sum
    is an exact integer (_table_from_bins).
    """
    return _table_from_bins(*_azimuth_bins(trials.s))


def _block_tally(config: ExperimentConfig, directions, c: int, m: int, work) -> np.ndarray:
    """Block c's _azimuth_bins of its unit axes raw / norms, as a pair that adds up."""
    raw, norms, _, _, _ = spin._draw_block(config, directions, c, m, work)
    tally = np.empty(2, dtype=object)  # the pool's running sums add it element-wise
    tally[0], tally[1] = _azimuth_bins(np.divide(raw, norms[:, None], out=raw))
    return tally


def _streamed_count_table(config: ExperimentConfig, threads: int = 1) -> np.ndarray:
    """_planar_count_table(simulate_ensemble(config)) without the ensemble.

    spin._reduce_blocks sums _block_tally over the blocks on up to threads
    workers; the integer sums do not depend on the worker count, and
    memory stays bounded whatever n_trials is.
    """
    directions = spin._pair_directions(config.resolved_pairs())[0]
    n, k = int(config.n_trials), len(directions)
    return _table_from_bins(*spin._reduce_blocks(n, k, threads, _block_tally, config, directions))


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


def _cosine_law(x):
    """The cosine law on dot products x = a.b: E = -x."""
    return -x


def _saw_law(x):
    """The saw on dot products x = a.b: E = -1 + 2 eta / pi, eta = arccos x."""
    return -1.0 + 2.0 * np.arccos(np.clip(x, -1.0, 1.0)) / np.pi


# bench/layers.py still wraps these two names of the deleted full-sphere
# guard; nothing calls them, and they go with ROADMAP item 1b
_random_restart_guard = None
minimize = None


def maximize_chsh(
    correlation_kind: str, optimizer_config: Optional[OptimizerConfig] = None
) -> BoundReport:
    """Search for the largest |CHSH| under the named correlator, on the coplanar grid.

    Deterministic given the optimizer config.  The closed forms are
    charged 360 budget units for the law table and 4 for the scalar
    string they report at the grid argmax; cfg.seed is not read.  The
    Monte Carlo kind is charged one unit per table entry of an ensemble
    seeded by cfg.seed and streamed block by block on cfg.threads workers
    (_streamed_count_table), so the report is the same bytes for any
    worker count.  Its value is forced by the local bound: the lowest
    tied grid string has a = a' = x-hat, where every per-trial string is
    2 sign(s.x) sign(-s.b) = +-2, and b = -x-hat makes all of them +2
    ((0, 0, 180, 0) at 1M trials on every seed tried), so neither the
    value, 2.0, nor the argmax depends on the ensemble.
    """
    if correlation_kind not in _KINDS:
        raise InvalidConfig(f"unknown correlation_kind {correlation_kind!r}")
    cfg = optimizer_config or OptimizerConfig()
    budget = _Budget(cfg.budget)

    if correlation_kind == "monte_carlo":
        budget.spend(_COUNT * _COUNT)
        x_hat = _planar_direction(0.0)  # a of every grid string; redraw-check it
        draw = ExperimentConfig(cfg.mc_trials, cfg.seed, direction_pairs=[(x_hat, x_hat)])
        table = _streamed_count_table(draw.validate(), cfg.threads)
    else:
        correlator, law = {
            "su2_cosine": (su2_cosine_correlator, _cosine_law),
            "so3_saw": (so3_saw_correlator, _saw_law),
        }[correlation_kind]
        budget.spend(_COUNT)
        # E between x-hat and the planar direction d steps away; the laws
        # depend on the separation angle only, so the table is the
        # circulant table[u, v] = relative[(v - u) % _COUNT], here a view
        relative = law(np.cos(np.radians(np.arange(_COUNT) * GRID_STEP_DEG)))
        windows = np.lib.stride_tricks.sliding_window_view(np.tile(relative, 2), _COUNT)
        table = windows[_COUNT:0:-1]
    grid_value, u, v, w = _coplanar_grid_max(table)
    angles = np.radians(np.array([0.0, u, v, w]) * GRID_STEP_DEG)
    directions = tuple(_planar_direction(t) for t in angles)

    if correlation_kind == "monte_carlo":
        value = grid_value / int(draw.n_trials)  # |sum of per-trial strings| <= 2 n
    else:
        budget.spend(4)
        value = abs(_string(correlator, *directions))

    return BoundReport(
        chsh_value=float(value),
        rhs_bound=float(TSIRELSON_BOUND),
        directions=directions,
        angles_deg=tuple(float(np.degrees(t)) for t in angles),
    )
