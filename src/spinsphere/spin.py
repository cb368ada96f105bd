"""Monte Carlo spin-correlation experiment and its score algebra.

An ensemble of trials is generated: a spin axis s uniform on the unit
sphere, a frame orientation lam = +-1, and an optional alignment radius
r_a.  Three correlation statistics are computed side by side for each
detector pair (a, b), every pair of a config's (n, 2, 3) array at once:

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
then redraws.  A fixed seed, a Philox key in [0, 2^128), therefore fixes
every trial (n_trials is at most 2^53), and block 0 is the start of the
plain Philox(key=seed) stream.  correlation_curve
reduces each block to integer counts and adds them; integer addition is
associative, so the result does not depend on how, or in which order,
the blocks are grouped: the same bytes for any threads value and any
number of workers the blocks are split among.  Memory stays bounded
whatever n_trials is: per worker, one workspace of buffers allocated on
first use and reused by every block it reduces: a few trial columns
and at most 8 x 2^14 float64 projections, whatever the number of
directions.  Every consumer of the stream runs on _reduce_blocks with a
reducer of its own, and every one draws through _draw and the one
redraw step, _check: _planar_counts for directions in one coordinate
plane (a grid curve's xz-plane and chsh's Monte Carlo table in the
xy-plane), _block_counts for explicit pairs and simulate_ensemble's
copy of each block.  Every trial is checked by the one check, _failing,
and explicit pairs' differing signs are counted by the one counter,
_differ, both over chunks of trials from _projections; a plane counts
its trials' sorted angles instead.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import algebra
from .errors import DomainError, InvalidConfig, NonConvergentSequence, TooFewTrials
from .geometry import dot, separation_angle, so3_distance, su2_distance

__all__ = [
    "ExperimentConfig",
    "TrialEnsemble",
    "CorrelationResult",
    "LimitReport",
    "simulate_ensemble",
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
# a chunk of trials is projected on every direction in one matrix product
# of at most _SLICE_ROWS x BLOCK_TRIALS floats: a product this small stays
# on one OpenBLAS thread, so pooled workers do not oversubscribe the cores
_SLICE_ROWS = 8
MAX_GRID_ROWS = 1_000_000
_MAX_TRIALS = 2**53
_MAX_SEED = 2**128 - 1

_LAMBDA_MODES = ("fair_coin", "balanced_exact")
_ALIGNMENT_MODES = ("unit", "uniform_r")


def grid_degrees(start_deg: float, stop_deg: float, step_deg: float) -> np.ndarray:
    """Angles start, start + step, ... up to stop inclusive, in degrees.

    The row count is checked against MAX_GRID_ROWS before anything is
    allocated; NaN and infinite bounds fail the same checks.  The grid
    always holds start, also when step is too small to move stop, and a
    grid of two or more rows whose step does not move start is refused.
    """
    if not step_deg > 0:
        raise InvalidConfig("grid step must be positive")
    if not start_deg <= stop_deg:
        raise InvalidConfig("grid start must not exceed stop")
    stop = stop_deg + step_deg * 0.5
    # arange makes ceil((stop - start) / step) rows
    if not (stop - start_deg) / step_deg <= MAX_GRID_ROWS:
        raise InvalidConfig(f"grid has more than {MAX_GRID_ROWS} rows")
    grid = np.arange(start_deg, stop, step_deg)
    # arange fills row i with start + i * (grid[1] - start): a step lost to rounding stalls it
    if len(grid) > 1 and grid[1] == grid[0]:
        raise InvalidConfig(
            f"grid step {step_deg!r} is below the spacing of doubles at {start_deg!r}"
        )
    return grid if len(grid) else np.array([float(start_deg)])


def grid_pairs(start_deg: float, stop_deg: float, step_deg: float) -> np.ndarray:
    """Detector pairs (n, 2, 3) for an angle grid: a = z-hat, b swept in the xz-plane."""
    eta = np.radians(grid_degrees(start_deg, stop_deg, step_deg))
    b = np.stack([np.sin(eta), np.zeros_like(eta), np.cos(eta)], axis=1)
    return np.stack([np.broadcast_to([0.0, 0.0, 1.0], b.shape), b], axis=1)


def _integer(name: str, value, minimum=None, maximum=None) -> int:
    """value as an int: an int, a numpy integer or an integral float, never a
    bool or a str (int() would truncate 2.7 and read True as 1), and within
    the bounds that are given; InvalidConfig otherwise."""
    integral = isinstance(value, (int, np.integer)) or (
        isinstance(value, float) and value.is_integer()
    )
    if isinstance(value, bool) or not integral:
        raise InvalidConfig(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise InvalidConfig(f"{name} must be >= {minimum}")
    if maximum is not None and value > maximum:
        raise InvalidConfig(f"{name} must be <= {maximum}")
    return int(value)


@dataclass
class ExperimentConfig:
    """Generation parameters for one ensemble.

    direction_pairs is either an explicit list of (a, b) unit vectors or
    a grid spec dict of exactly the start_deg/stop_deg/step_deg keys;
    None means the default 0..180 grid in 5 degree steps.
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
        extra = set(spec) - {"start_deg", "stop_deg", "step_deg"}
        if extra:
            raise InvalidConfig(f"unknown grid spec keys {sorted(extra, key=str)}")
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
        pairs = self.resolved_pairs()
        return np.degrees(separation_angle(pairs[:, 0], pairs[:, 1])).tolist()

    def resolved_pairs(self) -> np.ndarray:
        """The pairs as one (n, 2, 3) array: a grid spec's, or the explicit unit vectors."""
        grid = self._grid()
        if grid is not None:
            return grid_pairs(*grid)
        try:
            pairs = np.asarray(self.direction_pairs, float)
        except (TypeError, ValueError):
            raise InvalidConfig("direction_pairs must list [a, b] pairs") from None
        if not pairs.size:
            raise InvalidConfig("no direction pairs given")
        if pairs.ndim != 3 or pairs.shape[1:] != (2, 3):
            raise InvalidConfig("direction_pairs must list [a, b] pairs of 3-vectors")
        # written so that a NaN component fails it too
        if not (np.abs(np.linalg.norm(pairs, axis=2) - 1.0) <= 1e-9).all():
            raise InvalidConfig("direction pairs must be unit vectors")
        return pairs

    def validate(self) -> "ExperimentConfig":
        """Refuse what the generator cannot run as given: n_trials and seed
        must be integers (_integer), n_trials in [1, 2^53], where 2 differ - n
        is exact as a double, and seed a Philox key, in [0, 2^128)."""
        _integer("n_trials", self.n_trials, 1, _MAX_TRIALS)
        _integer("seed", self.seed, 0, _MAX_SEED)
        if self.lambda_mode not in _LAMBDA_MODES:
            raise InvalidConfig(f"unknown lambda_mode {self.lambda_mode!r}")
        if self.alignment_mode not in _ALIGNMENT_MODES:
            raise InvalidConfig(f"unknown alignment_mode {self.alignment_mode!r}")
        if self.lambda_mode == "balanced_exact" and self.n_trials % 2:
            raise InvalidConfig("balanced_exact needs an even n_trials")
        self.resolved_pairs()
        return self


class TrialEnsemble:
    """Column store of trials: unit spin axes s (n, 3), orientations lam
    (n,) of +-1 and alignment radii r_a (n,); len() is the trial count."""

    def __init__(self, s: np.ndarray, lam: np.ndarray, r_a: np.ndarray):
        self.s = s
        self.lam = lam
        self.r_a = r_a

    def __len__(self) -> int:
        return self.s.shape[0]


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
    directions, inverse = np.unique(pairs.reshape(-1, 3), axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    return directions, inverse[0::2], inverse[1::2]


def _blocks(n: int):
    """(index c, first trial, end trial) of each block of an n-trial ensemble."""
    for c, lo in enumerate(range(0, n, BLOCK_TRIALS)):
        yield c, lo, min(lo + BLOCK_TRIALS, n)


class _Workspace:
    """The buffers of one worker, each allocated on first use and reused.

    Every block a worker reduces takes its buffers from here by name:
    take(name, shape) is a contiguous view of the first prod(shape)
    elements of that buffer, so a block of m trials uses the first m
    trials.  _projections writes every chunk's product into one buffer,
    so a worker's buffers do not grow with the number of directions.
    Reuse keeps the pages mapped: fresh temporaries would be handed back
    to the OS at the end of each block and faulted in again by the next
    (DECISIONS.md).
    """

    def __init__(self):
        self._buffers = {}

    def take(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size:
            buffer = self._buffers[name] = np.empty(size, dtype)
        return buffer[:size].reshape(shape)


def _draw(config: ExperimentConfig, c: int, m: int, work: _Workspace):
    """Block c up to its redraws: m trials from Philox(key=seed, counter=[0, 0, 0, c]).

    The stream's order is axes, orientations, radii, then redraws: this
    draws the first three and returns the generator for _check's
    redraws, with the raw axes (three standard normals each, a view into
    work; the direction is exactly isotropic), lam and r_a.
    """
    rng = np.random.Generator(np.random.Philox(key=int(config.seed), counter=[0, 0, 0, c]))
    raw = work.take("raw", (m, 3))
    rng.standard_normal(out=raw)

    if config.lambda_mode == "balanced_exact":
        lam = rng.permutation(np.repeat(np.array([1, -1], dtype=np.int8), m // 2))
    else:
        lam = rng.integers(0, 2, size=m, dtype=np.int8) * 2 - 1

    if config.alignment_mode == "uniform_r":
        r_a = rng.uniform(0.0, 1.0, size=m)
    else:
        r_a = np.ones(m)
    return rng, raw, lam, r_a


def _projections(directions: np.ndarray, vectors: np.ndarray, work: _Workspace, rows: int = 0):
    """(first vector, directions @ chunk.T) over chunks of the vectors, each
    written into work's "proj" buffer; neither it nor the rows a caller
    gathers from it (the counter's pairs) exceed _SLICE_ROWS x BLOCK_TRIALS."""
    step = max(1, _SLICE_ROWS * BLOCK_TRIALS // max(len(directions), rows))
    for lo in range(0, len(vectors), step):
        chunk = vectors[lo : lo + step]
        proj = work.take("proj", (len(directions), len(chunk)))
        yield lo, np.matmul(directions, chunk.T, out=proj)


def _failing(directions: np.ndarray, vectors: np.ndarray, work: _Workspace, norms=None):
    """The redraw check: flags of the vectors with norm below 1e-9 or some
    |projection| below ORTHO_TOL x norm; norms default to np.linalg.norm's."""
    norms = np.linalg.norm(vectors, axis=1) if norms is None else norms
    mins = work.take("mins", (len(vectors),))
    for lo, proj in _projections(directions, vectors, work):
        np.abs(proj, out=proj)
        np.minimum.reduce(proj, axis=0, out=mins[lo : lo + proj.shape[1]])
    return (norms < 1e-9) | (mins < ORTHO_TOL * norms)


def _check(rng, raw: np.ndarray, rows, directions, work: _Workspace, norms=None):
    """The stream's last step: redraws the trials of raw[rows] (rows a slice
    or indices) that _failing flags, against norms if given, from rng in
    trial order, round by round until none fails; returns their indices."""
    redrawn = bad = np.arange(len(raw))[rows][_failing(directions, raw[rows], work, norms)]
    while bad.size:
        raw[bad] = rng.standard_normal((len(bad), 3))
        bad = bad[_failing(directions, raw[bad], work)]
    return redrawn


def _squares(raw: np.ndarray, work: _Workspace):
    """raw squared and its row sums, in add.reduce's own left-to-right
    order without its cost on a length-3 axis; views into work."""
    squares = work.take("squares", raw.shape)
    sums = work.take("sums", (len(raw),))
    np.multiply(raw, raw, out=squares)
    np.add(squares[:, 0], squares[:, 1], out=sums)
    np.add(sums, squares[:, 2], out=sums)
    return squares, sums


def _differ(directions, ia, ib, vectors: np.ndarray, work: _Workspace) -> np.ndarray:
    """Per pair, the checked vectors whose signs at directions[ia] and
    directions[ib] differ, as int64."""
    differ = np.zeros(len(ia), dtype=np.int64)
    for _, proj in _projections(directions, vectors, work, len(ia)):
        negative = np.less(proj, 0, out=work.take("negative", proj.shape, bool))
        # a bool row sum into int32 takes half the time of count_nonzero's intp
        differ += (negative[ia] != negative[ib]).sum(axis=1, dtype=np.int32)
    return differ


def _checked_draw(
    config: ExperimentConfig, directions: np.ndarray, c: int, m: int, work: _Workspace
):
    """Block c with every trial checked against the directions: a trial that
    _failing flags is redrawn from the block's own generator (_check), so
    the sign scores never see a zero.  Returns raw axes, their norms
    (np.linalg.norm's bytes; views into work), lam and r_a."""
    rng, raw, lam, r_a = _draw(config, c, m, work)
    norms = _squares(raw, work)[1]
    np.sqrt(norms, out=norms)
    redrawn = _check(rng, raw, slice(None), directions, work, norms)
    norms[redrawn] = np.linalg.norm(raw[redrawn], axis=1)
    return raw, norms, lam, r_a


def simulate_ensemble(config: ExperimentConfig) -> TrialEnsemble:
    """Generate the trial ensemble for a validated config, block by block.

    Each block's unit axes raw / norms of _checked_draw, lam and r_a are
    written into the ensemble's columns; the redraw check runs once per
    distinct direction (the default grid repeats z-hat in every pair).
    """
    config.validate()
    n = int(config.n_trials)
    directions = _pair_directions(config.resolved_pairs())[0]
    s, lam, r_a = np.empty((n, 3)), np.empty(n, dtype=np.int8), np.empty(n)

    def write(c: int, m: int, work: _Workspace) -> int:
        lo, hi = c * BLOCK_TRIALS, c * BLOCK_TRIALS + m
        raw, norms, lam[lo:hi], r_a[lo:hi] = _checked_draw(config, directions, c, m, work)
        np.divide(raw, norms[:, None], out=s[lo:hi])
        return 0

    _reduce_blocks(n, 1, write)
    return TrialEnsemble(s=s, lam=lam, r_a=r_a)


def _require_trials(n: int, minimum: int) -> None:
    if n < minimum:
        raise TooFewTrials(f"need at least {minimum} trials, got {n}")


def _sign_moments(total, nonzero, n: int):
    """Mean and standard error of n products in {-1, 0, +1} from two counts,
    elementwise over arrays of counts.

    The products sum exactly to total and nonzero of them are +-1, so
    sum((x - mean)^2) = nonzero - total mean.
    """
    total = np.asarray(total, float)
    mean = total / n
    spread = np.maximum(nonzero - total * mean, 0.0)
    return mean, np.sqrt(spread / (n - 1)) / np.sqrt(n)


def raw_correlation(trials: TrialEnsemble, a, b):
    """Mean and standard error of sign(s.a) sign(-s.b), with sign(0) = 0."""
    _require_trials(len(trials), 2)
    products = np.sign(trials.s @ np.asarray(a, float)) * np.sign(
        -(trials.s @ np.asarray(b, float))
    )
    mean, stderr = _sign_moments(products.sum(), np.count_nonzero(products), len(trials))
    return float(mean), float(stderr)


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
    scalar, residual = _score_moments(a, b, int(trials.lam.sum(dtype=np.int64)), len(trials))
    return scalar, float(residual)


def _score_moments(a, b, lam_sum: int, n: int):
    """(-a.b, |mean lam| |a x b|) for n trials whose orientations sum to
    lam_sum, over the last axis of stacked directions.  |c| is sqrt(c.c),
    which is how np.linalg.norm rounds a single vector."""
    c = np.cross(a, b)
    return -dot(a, b), abs(lam_sum / n) * np.sqrt(dot(c, c))


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
    if not abs(tail - kappas[nearest]) <= 1e-3:
        is_scalar = float(np.abs(last[1:]).max()) < 1e-12
        raise NonConvergentSequence(
            f"sequence tail {tail} is not near a 2 kappa pi point",
            value=last,
            is_scalar=is_scalar,
        )
    limit = np.zeros(8)
    limit[0] = lam * (-1.0) ** nearest
    return LimitReport(value=limit, deviation=float(np.linalg.norm(last - limit)))


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


def _block_counts(
    config: ExperimentConfig, directions, ia, ib, c: int, m: int, work: _Workspace
) -> np.ndarray:
    """Integer counts of block c: per pair, the trials whose signs at a and
    b differ, then the sum of lam.  The trials are checked in one pass
    over the directions and counted in a second."""
    raw, _, lam, _ = _checked_draw(config, directions, c, m, work)
    return np.append(_differ(directions, ia, ib, raw, work), lam.sum(dtype=np.int64))


class _Plane(NamedTuple):
    """Directions that lie in one coordinate plane, as boundary angles there.

    columns (u, v) span the plane, so raw.d > 0 exactly when the trial's
    angle phi = atan2(raw_v, raw_u) lies within 90 degrees of
    theta = atan2(d_v, d_u).  keys are the boundaries theta -/+ pi/2,
    wrapped into [-pi, pi) by turns whole turns and sorted; F(key), the
    trials below a key plus turns times all trials, differs between two
    keys by the trials between their unwrapped boundaries, and moving a
    boundary a whole turn moves F by all trials.
    lower and upper are each direction's two key ranks.  The pairs are
    the broadcast of the index arrays ia and ib: the trials whose signs
    differ at a and b lie between the lower and between the upper
    boundaries of a and b, once b's are moved a whole turn toward a's
    where |theta_b - theta_a| > pi.  gates bounds the angles within alpha
    of a key, wrapped copies included; r2 is R^2 (_plane, DECISIONS.md).
    """

    directions: np.ndarray
    columns: tuple
    ia: np.ndarray
    ib: np.ndarray
    theta: np.ndarray
    keys: np.ndarray
    turns: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    gates: np.ndarray  # (2, gates): lower and upper bounds
    r2: float

    def counts(self, summed: np.ndarray) -> np.ndarray:
        """_block_counts' layout (differ per pair, in the broadcast's order,
        then the lam sum) from summed _planar_counts."""
        keys = len(self.keys)
        below, counted = summed[:keys], summed[keys]
        gap = self.theta[self.ib] - self.theta[self.ia]
        turn = counted * ((gap > np.pi).astype(np.int64) - (gap < -np.pi))
        lo, hi = below[self.lower], below[self.upper]
        differ = np.abs(lo[self.ib] - lo[self.ia] - turn) + np.abs(hi[self.ib] - hi[self.ia] - turn)
        return np.append(differ, summed[keys + 1 :])


def _plane(directions: np.ndarray, columns: tuple, ia, ib) -> _Plane:
    """_Plane of directions in the plane of columns, gated for ORTHO_TOL now.

    A trial at least r |raw| long in the plane and farther than alpha
    from every boundary has |raw.d| >= r sin(alpha - 1e-13) |raw| >=
    (2 ORTHO_TOL + 2e-15) |raw| for every direction, so the redraw check
    passes it and phi gives its signs: 1e-13 covers the rounding of the
    angles, the rest that of the dot product and the norm.
    r = cbrt(ORTHO_TOL) keeps both gates rare at the default tolerance.
    Every direction lies in the plane, so a trial the check passes has
    |cos(phi - theta)| >= ORTHO_TOL - 4e-16 for each, which puts phi more
    than 1e-13 from every boundary when ORTHO_TOL > 1.01e-13: phi gives
    the signs of checked trials too.
    """
    tol = float(ORTHO_TOL)
    r = min(0.5, float(np.cbrt(tol + 1e-15)))
    alpha = 1e-13 + float(np.arcsin(min(1.0, (2.0 * tol + 2e-15) / r)))
    u, v = columns
    theta = np.arctan2(directions[:, v], directions[:, u])
    lifted = np.concatenate([theta - np.pi / 2, theta + np.pi / 2])
    turns = (lifted >= np.pi).astype(np.int64) - (lifted < -np.pi)
    wrapped = lifted - 2 * np.pi * turns
    order = np.argsort(wrapped)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    k = len(directions)
    near = np.sort(np.concatenate([wrapped - 2 * np.pi, wrapped, wrapped + 2 * np.pi]))
    near = near[np.abs(near) <= np.pi + alpha]
    gates = np.stack([near - alpha, near + alpha])
    return _Plane(
        directions, columns, ia, ib, theta, wrapped[order], turns[order], rank[:k], rank[k:],
        gates, r * r,
    )


def _planar_counts(config: ExperimentConfig, plane: _Plane, c: int, m: int, work: _Workspace):
    """Integer counts of block c for directions in a plane, from sorted in-plane angles.

    Returns F at plane's keys, the m trials F counts, then the lam sum;
    _Plane.counts turns their sum over blocks into _block_counts'.
    Exact-path trials, within alpha of a key or short in the plane, get
    _checked_draw's redraw step, _check, against every direction of the
    plane; every other trial passes the check unredrawn (_plane).
    A checked trial's phi gives its signs (_plane), so every trial is
    counted from its angle and the counts are _block_counts'.
    """
    rng, raw, lam, _ = _draw(config, c, m, work)
    u, v = plane.columns
    squares, gate = _squares(raw, work)
    inplane = work.take("inplane", (m,))
    exact = work.take("exact", (m,), bool)
    np.add(squares[:, u], squares[:, v], out=inplane)
    np.multiply(gate, plane.r2, out=gate)
    np.add(gate, 2e-18, out=gate)
    np.less(inplane, gate, out=exact)

    phi = work.take("phi", (m,))
    ordered = work.take("ordered", (m,))
    np.arctan2(raw[:, v], raw[:, u], out=phi)
    np.copyto(ordered, phi)
    ordered.sort()
    lo = np.searchsorted(ordered, plane.gates[0])
    hi = np.searchsorted(ordered, plane.gates[1], "right")
    hit = np.flatnonzero(hi > lo)
    if hit.size:
        near = np.concatenate([ordered[a:b] for a, b in zip(lo[hit], hi[hit])])
        exact |= np.isin(phi, near)

    rows = np.flatnonzero(exact)
    redrawn = _check(rng, raw, rows, plane.directions, work) if rows.size else rows
    if redrawn.size:
        phi[redrawn] = np.arctan2(raw[redrawn, v], raw[redrawn, u])
        np.copyto(ordered, phi)
        ordered.sort()
    below = np.searchsorted(ordered, plane.keys) + plane.turns * m
    return np.concatenate([below, [m, lam.sum(dtype=np.int64)]])


def _curve_rows(pairs: np.ndarray, counts: np.ndarray, n: int):
    """CorrelationResult per pair from the whole ensemble's summed counts,
    each column computed for every pair at once.

    No projection is zero, so sign(s.a) sign(-s.b) is +1 where the signs
    differ and -1 where they agree: S = 2 differ - n with all n nonzero.
    The scalar product form is -1.0: lam (-lam) = -1 for every trial.
    """
    a, b = pairs[:, 0], pairs[:, 1]
    eta = separation_angle(a, b)
    columns = (
        *_sign_moments(2 * counts[:-1] - n, n, n),
        *_score_moments(a, b, int(counts[-1]), n),
        np.full(len(pairs), -1.0),
        su2_distance(eta),
        so3_distance(eta),
    )
    rows = zip(*(column.tolist() for column in columns))
    return [CorrelationResult(*pair, *row) for pair, row in zip(pairs, rows)]


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(threads: int, n_blocks: int) -> int:
    """Workers for n_blocks blocks: threads (>= 1), at most one per block and per usable CPU."""
    return min(_integer("threads", threads, 1), n_blocks, _usable_cpus())


def _reduce_blocks(n: int, threads: int, reducer, *args):
    """Sum of reducer(*args, c, m, work) over the blocks (c, m trials) of n trials.

    Worker w of _worker_count(threads, blocks) workers reduces blocks w,
    w + workers, w + 2 workers, ... through a _Workspace and a running
    sum of its own.  Worker 0 is the calling
    thread and each other worker is a thread started here, so one worker
    starts none.  The first exception of any worker stops the others at
    their next block and is raised here once every thread has ended.
    """
    workers = _worker_count(threads, -(-n // BLOCK_TRIALS))
    sums = [0] * workers
    failures = []

    def reduce(w: int):
        work = _Workspace()
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

    The ensemble is never held in memory: each block is reduced to
    integer counts and the counts are added.  A grid config's blocks go
    through _planar_counts, which counts sorted in-plane angles; explicit
    pairs go through _block_counts, which projects every trial on every
    distinct direction, once to check and once to count.  The blocks are
    split among _worker_count(threads, blocks) workers, each with one
    _Workspace reused by every block it reduces: about 1.25 MiB for a
    grid and about 2.1 MiB for explicit pairs, whatever the number of
    directions.  Integer sums do not depend on how the blocks are
    grouped, so the rows are the same bytes for any threads value and any
    worker count.  They equal raw_correlation and
    standard_score_correlation on simulate_ensemble(config) bit for bit,
    and the scalar product form is scalar_product_correlation's -1.0.
    """
    config.validate()
    n = int(config.n_trials)
    _require_trials(n, 2)
    pairs = config.resolved_pairs()
    directions, ia, ib = _pair_directions(pairs)
    if config._grid() is None:
        counts = _reduce_blocks(n, threads, _block_counts, config, directions, ia, ib)
    else:
        plane = _plane(directions, (2, 0), ia, ib)  # angles from z-hat toward x-hat
        counts = plane.counts(_reduce_blocks(n, threads, _planar_counts, config, plane))
    return _curve_rows(pairs, counts, n)
