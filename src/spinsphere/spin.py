"""Monte Carlo spin-correlation experiment and its score algebra.

An ensemble of trials is generated: a spin axis s uniform on the unit
sphere, a frame orientation lam = +-1, and an optional alignment radius
r_a.  Three correlation statistics are computed side by side for a
detector pair (a, b):

  * the raw sign-model estimator mean of sign(s.a) sign(-s.b) with
    sign(0) = 0 and its standard error from two counts (chsh uses it too),
  * the standard-score product, a multivector whose scalar part is
    -a.b exactly and whose bivector residual is |mean lam| |a x b|,
  * the scalar product moment, identically -1.

The three do not agree; all are reported and none is adjusted.  The
orientation enters the score algebra through oriented_product: a
left-handed frame multiplies in the opposite order, which is what makes
the basis closure and the residual law hold for both lam values.

Determinism contract: the ensemble is a sequence of blocks of
BLOCK_TRIALS trials (the last one may be shorter).  Block c is drawn
from its own counter-based stream, Philox(key=seed, counter=[0, 0, 0, c])
(Salmon et al., SC'11), in a fixed order: axes, orientations, radii,
then redraws.  A fixed seed therefore fixes every trial, and block 0 is
the start of the plain Philox(key=seed) stream.  correlation_curve
reduces each block to integer counts and adds them; integer addition is
associative, so the result does not depend on how, or in which order,
the blocks are grouped: the same bytes for any threads value and any
number of workers the blocks are split among.  Memory stays bounded
whatever n_trials is: per worker, one workspace of k x 2^14 bool signs
for the k distinct directions, one 8 x 2^14 float64 buffer for the
projections of 8 directions at a time and a few trial columns,
allocated once and reused by every block it reduces.  Every consumer
of the stream runs on _reduce_blocks with a reducer of its own:
correlation_curve's _block_counts, simulate_ensemble's copy of each
block and chsh's azimuth-bin counts for the Monte Carlo table.
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from . import algebra
from .errors import (
    DomainError,
    InvalidConfig,
    NonConvergentSequence,
    TooFewTrials,
    ZeroDispersion,
)
from .geometry import separation_angle, so3_distance, su2_distance

__all__ = [
    "ExperimentConfig",
    "TrialRecord",
    "TrialEnsemble",
    "CorrelationResult",
    "LimitReport",
    "simulate_ensemble",
    "raw_score_pair",
    "raw_correlation",
    "measurement_A",
    "measurement_B",
    "standard_score",
    "standard_score_via_rotor",
    "spin_rotor",
    "spread_rotor",
    "standard_score_correlation",
    "scalar_product_correlation",
    "quaternion_std_dev",
    "measurement_limit",
    "gaussian_density_s3",
    "propagate_error",
    "spin_basis",
    "correlation_curve",
    "grid_degrees",
    "grid_pairs",
    "ORTHO_TOL",
    "BLOCK_TRIALS",
    "MAX_GRID_ROWS",
]

ORTHO_TOL = 1e-12
BLOCK_TRIALS = 2**14  # even, so every balanced_exact block is balanced
# directions projected per matrix product: a product this small stays on
# one OpenBLAS thread, so pooled workers do not oversubscribe the cores
_SLICE_ROWS = 8
MAX_GRID_ROWS = 1_000_000

_LAMBDA_MODES = ("fair_coin", "balanced_exact")
_ALIGNMENT_MODES = ("unit", "uniform_r")


def grid_degrees(start_deg: float, stop_deg: float, step_deg: float) -> np.ndarray:
    """Angles start, start + step, ... up to stop inclusive, in degrees.

    The row count is checked against MAX_GRID_ROWS before anything is
    allocated; NaN and infinite bounds fail the same checks.
    """
    if not step_deg > 0:
        raise InvalidConfig("grid step must be positive")
    if not start_deg <= stop_deg:
        raise InvalidConfig("grid start must not exceed stop")
    stop = stop_deg + step_deg * 0.5
    # arange makes ceil((stop - start) / step) rows
    if not (stop - start_deg) / step_deg <= MAX_GRID_ROWS:
        raise InvalidConfig(f"grid has more than {MAX_GRID_ROWS} rows")
    return np.arange(start_deg, stop, step_deg)


def grid_pairs(start_deg: float, stop_deg: float, step_deg: float):
    """Detector pairs for an angle grid: a = z-hat, b swept in the xz-plane."""
    a = np.array([0.0, 0.0, 1.0])
    pairs = []
    for deg in grid_degrees(start_deg, stop_deg, step_deg):
        eta = np.radians(deg)
        pairs.append((a, np.array([np.sin(eta), 0.0, np.cos(eta)])))
    return pairs


@dataclass
class ExperimentConfig:
    """Generation parameters for one ensemble.

    direction_pairs is either an explicit list of (a, b) unit vectors or
    a grid spec dict with start_deg/stop_deg/step_deg keys; None means
    the default 0..180 grid in 5 degree steps.
    """

    n_trials: int
    seed: int
    lambda_mode: str = "fair_coin"
    alignment_mode: str = "unit"
    direction_pairs: object = None

    def _grid(self):
        """(start_deg, stop_deg, step_deg) of a grid spec, None for explicit pairs."""
        spec = self.direction_pairs
        if spec is None:
            return 0.0, 180.0, 5.0
        if not isinstance(spec, dict):
            return None
        try:
            return float(spec["start_deg"]), float(spec["stop_deg"]), float(spec["step_deg"])
        except KeyError as missing:
            raise InvalidConfig(f"grid spec missing {missing}") from None
        except (TypeError, ValueError):
            raise InvalidConfig("grid spec values must be numbers") from None

    def pair_degrees(self) -> list:
        """The angle of each resolved pair in degrees.

        A grid spec gives its own grid values; explicit pairs give
        degrees(separation_angle(a, b)).
        """
        grid = self._grid()
        if grid is not None:
            return grid_degrees(*grid).tolist()
        return [float(np.degrees(separation_angle(a, b))) for a, b in self.resolved_pairs()]

    def resolved_pairs(self):
        grid = self._grid()
        if grid is not None:
            return grid_pairs(*grid)
        spec = self.direction_pairs
        try:
            pairs = [(np.asarray(a, float), np.asarray(b, float)) for a, b in spec]
        except (TypeError, ValueError):
            raise InvalidConfig("direction_pairs must list [a, b] pairs") from None
        for a, b in pairs:
            if a.shape != (3,) or b.shape != (3,):
                raise InvalidConfig("direction pairs must be 3-vectors")
            if abs(np.linalg.norm(a) - 1.0) > 1e-9 or abs(np.linalg.norm(b) - 1.0) > 1e-9:
                raise InvalidConfig("direction pairs must be unit vectors")
        if not pairs:
            raise InvalidConfig("no direction pairs given")
        return pairs

    def validate(self) -> "ExperimentConfig":
        if int(self.n_trials) < 1:
            raise InvalidConfig("n_trials must be >= 1")
        if self.lambda_mode not in _LAMBDA_MODES:
            raise InvalidConfig(f"unknown lambda_mode {self.lambda_mode!r}")
        if self.alignment_mode not in _ALIGNMENT_MODES:
            raise InvalidConfig(f"unknown alignment_mode {self.alignment_mode!r}")
        if self.lambda_mode == "balanced_exact" and self.n_trials % 2:
            raise InvalidConfig("balanced_exact needs an even n_trials")
        self.resolved_pairs()
        return self


@dataclass
class TrialRecord:
    """One explosion: spin axis of the +s fragment, orientation, alignment."""

    s: np.ndarray
    lam: int
    r_a: float = 1.0


class TrialEnsemble:
    """Column store of trials; indexing and iteration yield TrialRecord."""

    def __init__(self, s: np.ndarray, lam: np.ndarray, r_a: np.ndarray):
        self.s = s
        self.lam = lam
        self.r_a = r_a

    def __len__(self) -> int:
        return self.s.shape[0]

    def __getitem__(self, k: int) -> TrialRecord:
        return TrialRecord(s=self.s[k], lam=int(self.lam[k]), r_a=float(self.r_a[k]))

    def __iter__(self) -> Iterator[TrialRecord]:
        for k in range(len(self)):
            yield self[k]


@dataclass
class CorrelationResult:
    """All three correlation statistics for one detector pair."""

    a: np.ndarray
    b: np.ndarray
    raw_mc: float
    raw_stderr: float
    standard_score_scalar: float
    standard_score_residual_bivector_norm: float
    scalar_product_form: float
    su2_reference: float
    so3_reference: float


def _pair_directions(pairs):
    """The distinct directions of the pairs, and each pair's (a, b) rows in them."""
    directions, inverse = np.unique(
        np.stack([d for pair in pairs for d in pair]), axis=0, return_inverse=True
    )
    inverse = inverse.reshape(-1)
    return directions, inverse[0::2], inverse[1::2]


def _blocks(n: int):
    """(index c, first trial, end trial) of each block of an n-trial ensemble."""
    for c, lo in enumerate(range(0, n, BLOCK_TRIALS)):
        yield c, lo, min(lo + BLOCK_TRIALS, n)


class _Workspace:
    """The buffers of one block over k distinct directions.

    Allocated once per worker and reused by every block it reduces: k x
    BLOCK_TRIALS bool signs, one _SLICE_ROWS x BLOCK_TRIALS float64 buffer
    for the projections of up to _SLICE_ROWS directions at a time, plus
    nine float64 trial columns for the raw and squared axes, the norms and
    the running and per-slice minimum.  Reuse keeps the pages mapped:
    fresh temporaries would be handed back to the OS at the end of each
    block and faulted in again by the next (DECISIONS.md).  A block of m
    trials uses the first m trials of each buffer, as contiguous views, so
    a short last block takes the same matrix products as a full one.
    """

    def __init__(self, k: int):
        self._k = k
        self._raw = np.empty(3 * BLOCK_TRIALS)
        self._squares = np.empty(3 * BLOCK_TRIALS)
        self._proj = np.empty(min(k, _SLICE_ROWS) * BLOCK_TRIALS)
        self._signs = np.empty(k * BLOCK_TRIALS, dtype=bool)
        self._norms = np.empty(BLOCK_TRIALS)
        self._mins = np.empty(2 * BLOCK_TRIALS)

    def views(self, m: int):
        """(raw, squares, signs, norms, mins, slice_mins) for an m-trial block."""
        k = self._k
        return (
            self._raw[: 3 * m].reshape(m, 3),
            self._squares[: 3 * m].reshape(m, 3),
            self._signs[: k * m].reshape(k, m),
            self._norms[:m],
            self._mins[:m],
            self._mins[BLOCK_TRIALS : BLOCK_TRIALS + m],
        )

    def projections(self, rows: int, m: int) -> np.ndarray:
        """The (rows, m) projection buffer of one slice, rows <= _SLICE_ROWS."""
        return self._proj[: rows * m].reshape(rows, m)


def _draw_block(
    config: ExperimentConfig, directions: np.ndarray, c: int, m: int, work: _Workspace
):
    """Block c of the ensemble: m trials from Philox(key=seed, counter=[0, 0, 0, c]).

    Spin axes are three standard normals (normalized by the caller; the
    direction is exactly isotropic).  Any trial whose axis is within
    ORTHO_TOL of orthogonality to one of the distinct directions is
    redrawn from the block's own generator, so the sign scores never see
    a zero.  Returns raw axes, their norms and the signs
    directions @ raw.T < 0 of the checked projections, every one at least
    ORTHO_TOL |raw| in magnitude (views into work), then lam and r_a.
    """
    rng = np.random.Generator(np.random.Philox(key=int(config.seed), counter=[0, 0, 0, c]))
    raw, squares, signs, norms, mins, slice_mins = work.views(m)
    rng.standard_normal(out=raw)

    if config.lambda_mode == "balanced_exact":
        lam = rng.permutation(np.repeat(np.array([1, -1], dtype=np.int8), m // 2))
    else:
        lam = (rng.integers(0, 2, size=m, dtype=np.int8) * 2 - 1).astype(np.int8)

    if config.alignment_mode == "uniform_r":
        r_a = rng.uniform(0.0, 1.0, size=m)
    else:
        r_a = np.ones(m)

    # the arithmetic of check below, written into the workspace _SLICE_ROWS
    # directions at a time; the signs are taken before proj is overwritten
    # by its magnitudes, and mins is the minimum over every slice
    np.multiply(raw, raw, out=squares)
    # add.reduce's own left-to-right order, without its cost on a length-3 axis
    np.add(squares[:, 0], squares[:, 1], out=norms)
    np.add(norms, squares[:, 2], out=norms)
    np.sqrt(norms, out=norms)
    mins.fill(np.inf)
    for lo in range(0, len(directions), _SLICE_ROWS):
        rows = directions[lo : lo + _SLICE_ROWS]
        proj = work.projections(len(rows), m)
        np.matmul(rows, raw.T, out=proj)
        np.less(proj, 0, out=signs[lo : lo + _SLICE_ROWS])
        np.abs(proj, out=proj)
        np.minimum.reduce(proj, axis=0, out=slice_mins)
        np.minimum(mins, slice_mins, out=mins)
    bad = (norms < 1e-9) | (mins < ORTHO_TOL * norms)

    def check(vectors: np.ndarray):
        projections = directions @ vectors.T
        norms = np.linalg.norm(vectors, axis=1)
        bad = (norms < 1e-9) | (np.abs(projections).min(axis=0) < ORTHO_TOL * norms)
        return projections, norms, bad

    while bad.any():
        raw[bad] = rng.standard_normal((int(bad.sum()), 3))
        projections, norms[bad], redo = check(raw[bad])
        signs[:, bad] = projections < 0
        bad[bad] = redo
    return raw, norms, signs, lam, r_a


def simulate_ensemble(config: ExperimentConfig) -> TrialEnsemble:
    """Generate the trial ensemble for a validated config, block by block.

    Each block's unit axes raw / norms of _draw_block, lam and r_a are
    written into the ensemble's columns; the redraw check runs once per
    distinct direction (the default grid repeats z-hat in every pair).
    """
    config.validate()
    n = int(config.n_trials)
    directions = _pair_directions(config.resolved_pairs())[0]
    s, lam, r_a = np.empty((n, 3)), np.empty(n, dtype=np.int8), np.empty(n)

    def write(c: int, m: int, work: _Workspace) -> int:
        lo, hi = c * BLOCK_TRIALS, c * BLOCK_TRIALS + m
        raw, norms, _, lam[lo:hi], r_a[lo:hi] = _draw_block(config, directions, c, m, work)
        np.divide(raw, norms[:, None], out=s[lo:hi])
        return 0

    _reduce_blocks(n, len(directions), 1, write)
    return TrialEnsemble(s=s, lam=lam, r_a=r_a)


def raw_score_pair(trial: TrialRecord, a, b):
    """The two +-1 outcomes (sign(s.a), sign(-s.b)) for one trial."""
    sa = float(np.dot(trial.s, a))
    sb = float(np.dot(trial.s, b))
    return int(np.sign(sa)), int(np.sign(-sb))


def _require_trials(n: int, minimum: int) -> None:
    if n < minimum:
        raise TooFewTrials(f"need at least {minimum} trials, got {n}")


def _sign_moments(total: int, nonzero: int, n: int):
    """Mean and standard error of n products in {-1, 0, +1} from two counts.

    The products sum exactly to total and nonzero of them are +-1, so
    sum((x - mean)^2) = nonzero - total mean.
    """
    total = float(total)
    mean = total / n
    spread = max(nonzero - total * mean, 0.0)
    return mean, float(np.sqrt(spread / (n - 1)) / np.sqrt(n))


def raw_correlation(trials: TrialEnsemble, a, b):
    """Mean and standard error of sign(s.a) sign(-s.b), with sign(0) = 0."""
    _require_trials(len(trials), 2)
    products = np.sign(trials.s @ np.asarray(a, float)) * np.sign(
        -(trials.s @ np.asarray(b, float))
    )
    return _sign_moments(products.sum(), np.count_nonzero(products), len(trials))


def measurement_A(a, lam: int):
    """First station variable: -biv(a) L(a, lam), a grade-0 multivector = lam."""
    d = algebra.bivector_embed(a)
    return -algebra.oriented_product(d, lam * d, lam)


def measurement_B(b, lam: int):
    """Second station variable: +biv(b) L(b, lam) = -lam as a scalar."""
    d = algebra.bivector_embed(b)
    return algebra.oriented_product(d, lam * d, lam)


def standard_score(a, lam: int):
    """Outcome normalized by its dispersion: the bivector lam * biv(a)."""
    return lam * algebra.bivector_embed(a)


def spin_rotor(psi: float, a, lam: int):
    """Trial rotor lam cos(psi/2) + L(a, lam) sin(psi/2)."""
    half = psi / 2.0
    out = np.zeros(8)
    out[0] = lam * np.cos(half)
    out[4:7] = lam * np.sin(half) * np.asarray(a, float)
    return out


def spread_rotor(psi: float, a):
    """Dispersion factor sin(psi/2) - biv(a) cos(psi/2); spin_rotor = spread * L."""
    half = psi / 2.0
    out = np.zeros(8)
    out[0] = np.sin(half)
    out[4:7] = -np.cos(half) * np.asarray(a, float)
    return out


def standard_score_via_rotor(psi: float, a, lam: int):
    """standard_score recovered as spin_rotor(psi) reverse(spread_rotor(psi)).

    The psi dependence cancels; any rotation angle gives the same
    bivector lam * biv(a).
    """
    return algebra.geometric_product(
        spin_rotor(psi, a, lam), algebra.reverse(spread_rotor(psi, a))
    )


def standard_score_correlation(trials: TrialEnsemble, a, b):
    """Ensemble mean of the oriented product of the two standard scores.

    Per trial the product is -a.b - lam * biv(a x b): the scalar part
    does not depend on lam (lam squared is 1) and the bivector part is
    odd in lam.  The mean is therefore evaluated exactly as the pair
    (-a.b, |mean lam| * |a x b|); balanced ensembles give a residual of
    exactly zero.
    """
    _require_trials(len(trials), 1)
    return _score_moments(a, b, int(trials.lam.sum(dtype=np.int64)), len(trials))


def _score_moments(a, b, lam_sum: int, n: int):
    """(-a.b, |mean lam| |a x b|) for n trials whose orientations sum to lam_sum."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    residual_norm = abs(lam_sum / n) * float(np.linalg.norm(np.cross(a, b)))
    return -float(np.dot(a, b)), residual_norm


def scalar_product_correlation(trials: TrialEnsemble, a, b) -> float:
    """Mean of the scalar measurement product; -1 for every pair, as computed."""
    _require_trials(len(trials), 1)
    lam = trials.lam.astype(np.int64)
    return int((lam * -lam).sum()) / len(trials)


def quaternion_std_dev(psi: float, a, trials: TrialEnsemble):
    """Ensemble standard deviation of the trial rotor at angle psi.

    Averages (q_k(psi) - m)(reverse of (q_k(2 pi - psi) - m)) over the
    ensemble, m being the mean of q_k(psi), then takes the principal
    square root.  The result is the spread factor +-spread_rotor(psi, a);
    the principal branch is returned and the overall sign is convention.
    With q_k(psi) = lam_k u, q_k(2 pi - psi) = lam_k v and m = L u, L the
    mean of lam, the average is mean((lam_k - L) lam_k) u rev(v)
    - mean(lam_k - L) L u rev(u) = (1 - L^2) u rev(v), since lam_k^2 = 1:
    one integer sum over the trials and no per-trial array.
    """
    psi = float(psi)
    if not 0.0 <= psi <= 4.0 * np.pi:
        raise DomainError("psi must lie in [0, 4 pi]")
    _require_trials(len(trials), 1)
    a = np.asarray(a, float)
    L = int(trials.lam.sum(dtype=np.int64)) / len(trials)
    u = spin_rotor(psi, a, 1)
    v = spin_rotor(2.0 * np.pi - psi, a, 1)
    M = (1.0 - L * L) * algebra.geometric_product(u, algebra.reverse(v))
    return algebra.rotor_sqrt(M, default_axis=algebra.bivector_embed(-a))


class LimitReport(NamedTuple):
    value: np.ndarray
    deviation: float


def measurement_limit(psi_sequence, a, lam: int) -> LimitReport:
    """Limit of the trial rotor along a sequence approaching 2 kappa pi.

    Returns the scalar limit lam * (-1)^kappa and the distance of the
    last sequence element from it.  A tail further than 1e-3 from every
    limit point raises NonConvergentSequence carrying the last evaluated
    multivector and whether it is grade-0.
    """
    psi_sequence = np.asarray(psi_sequence, float)
    if psi_sequence.size == 0:
        raise NonConvergentSequence("empty sequence", value=None, is_scalar=False)
    tail = float(psi_sequence[-1])
    last = spin_rotor(tail, a, lam)
    kappas = np.array([0.0, 2.0 * np.pi, 4.0 * np.pi])
    nearest = int(np.argmin(np.abs(kappas - tail)))
    if abs(tail - kappas[nearest]) > 1e-3:
        is_scalar = float(np.abs(last[1:]).max()) < 1e-12
        raise NonConvergentSequence(
            f"sequence tail {tail} is not near a 2 kappa pi point",
            value=last,
            is_scalar=is_scalar,
        )
    limit = np.zeros(8)
    limit[0] = lam * (-1.0) ** nearest
    return LimitReport(value=limit, deviation=float(np.linalg.norm(last - limit)))


def gaussian_density_s3(q, mean, sigma) -> float:
    """Gaussian density over rotor space in the 4-component chart."""
    spread = algebra.norm(sigma)
    if spread == 0.0:
        raise ZeroDispersion("sigma must have nonzero norm")
    dist2 = float(np.sum((np.asarray(q, float) - np.asarray(mean, float)) ** 2))
    return float(
        np.exp(-dist2 / (2.0 * spread**2)) / np.sqrt(2.0 * np.pi * spread**2)
    )


def propagate_error(m_S, sigma_S: float, detector):
    """First-order push of (mean, dispersion) through a detector bivector.

    m_A is the scalar part of detector * m_S; sigma_A is the bivector
    detector * sigma_S (sign convention as in the principal root).
    """
    m_A = algebra.scalar_part(algebra.geometric_product(detector, m_S))
    sigma_A = np.asarray(detector, float) * float(sigma_S)
    return m_A, sigma_A


def spin_basis(lam: int):
    """The orientation's even basis {1, lam e23, lam e31, lam e12}.

    Under oriented_product with the same lam the three bivector elements
    close as L_mu L_nu = -delta_mu_nu - eps_mu_nu_rho L_rho for either
    handedness.
    """
    if lam not in (-1, 1):
        raise InvalidConfig("lam must be +1 or -1")
    one = np.zeros(8)
    one[0] = 1.0
    basis = [one]
    for axis in np.eye(3):
        basis.append(lam * algebra.bivector_embed(axis))
    return basis


# bits set in each byte value; np.bitwise_count needs numpy >= 2.0
_POPCOUNT = np.array([bin(byte).count("1") for byte in range(256)], dtype=np.uint8)


def _block_counts(
    config: ExperimentConfig, directions, ia, ib, c: int, m: int, work: _Workspace
) -> np.ndarray:
    """Integer counts of block c: per pair, the trials whose sign bits at a
    and b differ; then the sums of lam and of lam * (-lam)."""
    _, _, signs, lam, _ = _draw_block(config, directions, c, m, work)
    packed = np.packbits(signs, axis=1)
    differ = _POPCOUNT[packed[ia] ^ packed[ib]].sum(axis=1, dtype=np.int64)
    lam = lam.astype(np.int64)
    return np.append(differ, [lam.sum(), (lam * -lam).sum()])


def _curve_rows(pairs, counts: np.ndarray, n: int):
    """CorrelationResult per pair from the whole ensemble's summed counts.

    No projection is zero, so sign(s.a) sign(-s.b) is +1 where the bits
    differ and -1 where they agree: S = 2 differ - n with all n nonzero.
    """
    *differ, lam_sum, lam_product_sum = counts.tolist()
    scalar_form = lam_product_sum / n
    rows = []
    for (a, b), d in zip(pairs, differ):
        raw_mc, raw_stderr = _sign_moments(2 * d - n, n, n)
        scalar, residual = _score_moments(a, b, lam_sum, n)
        eta = separation_angle(a, b)
        rows.append(
            CorrelationResult(
                a=np.asarray(a, float),
                b=np.asarray(b, float),
                raw_mc=raw_mc,
                raw_stderr=raw_stderr,
                standard_score_scalar=scalar,
                standard_score_residual_bivector_norm=residual,
                scalar_product_form=scalar_form,
                su2_reference=su2_distance(eta),
                so3_reference=so3_distance(eta),
            )
        )
    return rows


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(threads: int, n_blocks: int) -> int:
    """Workers for n_blocks blocks: threads, at most one per block and per usable CPU."""
    return max(1, min(int(threads), n_blocks, _usable_cpus()))


def _reduce_blocks(n: int, k: int, threads: int, reducer, *args):
    """Sum of reducer(*args, c, m, work) over the blocks (c, m trials) of n trials.

    Worker w of _worker_count(threads, blocks) workers reduces blocks w,
    w + workers, w + 2 workers, ... through a _Workspace over k
    directions and a running sum of its own.  Worker 0 is the calling
    thread and each other worker is a thread started here, so one worker
    starts none.  The first exception of any worker stops the others at
    their next block and is raised here once every thread has ended.
    """
    workers = _worker_count(threads, -(-n // BLOCK_TRIALS))
    sums = [0] * workers
    failures = []

    def reduce(w: int):
        work = _Workspace(k)
        for c, lo, hi in itertools.islice(_blocks(n), w, None, workers):
            if failures:
                return
            sums[w] = sums[w] + reducer(*args, c, hi - lo, work)

    def guarded(w: int):
        try:
            reduce(w)
        except BaseException as err:
            failures.append(err)

    started = []
    try:
        for w in range(1, workers):
            started.append(threading.Thread(target=guarded, args=(w,)))
            started[-1].start()
        reduce(0)
    except BaseException as err:
        failures.append(err)
        raise
    finally:
        for thread in started:
            thread.join()
    if failures:
        raise failures[0]
    return sum(sums)


def correlation_curve(config: ExperimentConfig, threads: int = 1):
    """CorrelationResult list over the configured pairs, one shared ensemble.

    The ensemble is never held in memory: each block of _draw_block is
    reduced to _block_counts and the integer counts are added.  The blocks
    are split among _worker_count(threads, blocks) workers, each with one
    _Workspace of about k x 2^14 bytes of signs for the k distinct
    directions plus 2.1 MiB, reused by every block it reduces.  Integer
    sums do not depend on how the blocks are grouped, so the rows are the
    same bytes for any threads value and any worker count.  They equal
    raw_correlation and standard_score_correlation on
    simulate_ensemble(config) bit for bit, and the scalar product form is
    computed once, from the whole ensemble's counts.
    """
    config.validate()
    n = int(config.n_trials)
    _require_trials(n, 2)
    pairs = config.resolved_pairs()
    directions, ia, ib = _pair_directions(pairs)
    counts = _reduce_blocks(n, len(directions), threads, _block_counts, config, directions, ia, ib)
    return _curve_rows(pairs, counts, n)
