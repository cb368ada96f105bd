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

Determinism contract: a fixed seed fixes every draw.  The generator is
counter-based (Philox) and all draws happen in one fixed order during
generation, so results do not depend on how later reductions are
scheduled.
"""

from __future__ import annotations

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
]

ORTHO_TOL = 1e-12

_LAMBDA_MODES = ("fair_coin", "balanced_exact")
_ALIGNMENT_MODES = ("unit", "uniform_r")


def grid_degrees(start_deg: float, stop_deg: float, step_deg: float) -> np.ndarray:
    """Angles start, start + step, ... up to stop inclusive, in degrees."""
    if step_deg <= 0:
        raise InvalidConfig("grid step must be positive")
    if start_deg > stop_deg:
        raise InvalidConfig("grid start must not exceed stop")
    return np.arange(start_deg, stop_deg + step_deg * 0.5, step_deg)


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

    def resolved_pairs(self):
        spec = self.direction_pairs
        if spec is None:
            spec = {"start_deg": 0.0, "stop_deg": 180.0, "step_deg": 5.0}
        if isinstance(spec, dict):
            try:
                return grid_pairs(
                    float(spec["start_deg"]),
                    float(spec["stop_deg"]),
                    float(spec["step_deg"]),
                )
            except KeyError as missing:
                raise InvalidConfig(f"grid spec missing {missing}") from None
            except (TypeError, ValueError):
                raise InvalidConfig("grid spec values must be numbers") from None
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


def simulate_ensemble(config: ExperimentConfig) -> TrialEnsemble:
    """Generate the trial ensemble for a validated config.

    Spin axes are three standard normals normalized (exactly isotropic).
    Any trial whose axis is within ORTHO_TOL of orthogonality to a
    configured detector direction is redrawn so the sign scores never
    see a zero.  The check runs once per distinct direction (the default
    grid repeats z-hat in every pair); the redraw loop consumes the
    generator in a fixed order, keeping the stream deterministic.
    """
    config.validate()
    n = int(config.n_trials)
    rng = np.random.Generator(np.random.Philox(key=int(config.seed)))

    raw = rng.standard_normal((n, 3))

    if config.lambda_mode == "balanced_exact":
        lam = np.repeat(np.array([1, -1], dtype=np.int8), n // 2)
        lam = rng.permutation(lam)
    else:
        lam = (rng.integers(0, 2, size=n, dtype=np.int8) * 2 - 1).astype(np.int8)

    if config.alignment_mode == "uniform_r":
        r_a = rng.uniform(0.0, 1.0, size=n)
    else:
        r_a = np.ones(n)

    directions = np.unique(
        np.stack([d for pair in config.resolved_pairs() for d in pair]), axis=0
    )

    def needs_redraw(vectors: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(vectors, axis=1)
        return (norms < 1e-9) | (
            np.abs(vectors @ directions.T).min(axis=1) < ORTHO_TOL * norms
        )

    bad = needs_redraw(raw)
    while bad.any():
        raw[bad] = rng.standard_normal((int(bad.sum()), 3))
        bad[bad] = needs_redraw(raw[bad])

    s = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    return TrialEnsemble(s=s, lam=lam, r_a=r_a)


def raw_score_pair(trial: TrialRecord, a, b):
    """The two +-1 outcomes (sign(s.a), sign(-s.b)) for one trial."""
    sa = float(np.dot(trial.s, a))
    sb = float(np.dot(trial.s, b))
    return int(np.sign(sa)), int(np.sign(-sb))


def _require_trials(trials, minimum: int) -> TrialEnsemble:
    if len(trials) < minimum:
        raise TooFewTrials(f"need at least {minimum} trials, got {len(trials)}")
    return trials


def raw_correlation(trials: TrialEnsemble, a, b):
    """Mean and standard error of sign(s.a) sign(-s.b), with sign(0) = 0.

    The products are +-1 or 0, so their sum S is exact and, with k of
    them nonzero, sum((x - mean)^2) = k - S mean.
    """
    _require_trials(trials, 2)
    products = np.sign(trials.s @ np.asarray(a, float)) * np.sign(
        -(trials.s @ np.asarray(b, float))
    )
    n, total = len(trials), float(products.sum())
    mean = total / n
    spread = max(np.count_nonzero(products) - total * mean, 0.0)
    return mean, float(np.sqrt(spread / (n - 1)) / np.sqrt(n))


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
    _require_trials(trials, 1)
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    lam_mean = float(np.mean(trials.lam))
    scalar = -float(np.dot(a, b))
    residual_norm = abs(lam_mean) * float(np.linalg.norm(np.cross(a, b)))
    return scalar, residual_norm


def scalar_product_correlation(trials: TrialEnsemble, a, b) -> float:
    """Mean of the scalar measurement product; -1 for every pair, as computed."""
    _require_trials(trials, 1)
    lam = trials.lam.astype(float)
    products = lam * (-lam)
    return float(np.mean(products))


def quaternion_std_dev(psi: float, a, trials: TrialEnsemble):
    """Ensemble standard deviation of the trial rotor at angle psi.

    Averages (q_k(psi) - m)(reverse of (q_k(2 pi - psi) - m)) over the
    ensemble, m being the mean of q_k(psi), then takes the principal
    square root.  The result is the spread factor +-spread_rotor(psi, a);
    the principal branch is returned and the overall sign is convention.
    """
    psi = float(psi)
    if not 0.0 <= psi <= 4.0 * np.pi:
        raise DomainError("psi must lie in [0, 4 pi]")
    _require_trials(trials, 1)
    a = np.asarray(a, float)
    lam = trials.lam.astype(float)

    u = spin_rotor(psi, a, 1)
    v = spin_rotor(2.0 * np.pi - psi, a, 1)
    q_psi = lam[:, None] * u[None, :]
    q_conj = lam[:, None] * v[None, :]
    m = q_psi.mean(axis=0)
    centered = q_psi - m
    centered_conj = algebra.reverse(q_conj - m)
    products = np.einsum("ni,nj,ijk->nk", centered, centered_conj, algebra.CAYLEY)
    M = products.mean(axis=0)
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


def _pair_result(trials: TrialEnsemble, a, b, scalar_form: float) -> CorrelationResult:
    raw_mc, raw_stderr = raw_correlation(trials, a, b)
    scalar, residual = standard_score_correlation(trials, a, b)
    eta = separation_angle(a, b)
    return CorrelationResult(
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


def correlation_curve(config: ExperimentConfig, threads: int = 1):
    """CorrelationResult list over the configured pairs, one shared ensemble.

    The pairs are reduced one after another; threads is accepted for
    compatibility and does not change the work or the result.  The
    scalar product form does not depend on the pair, so it is computed
    once per ensemble.
    """
    trials = simulate_ensemble(config)
    pairs = config.resolved_pairs()
    scalar_form = scalar_product_correlation(trials, *pairs[0])
    return [_pair_result(trials, a, b, scalar_form) for a, b in pairs]
