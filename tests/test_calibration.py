"""Calibration of the curve's stochastic outputs against their exact laws, across seeds.

For an isotropic axis s, P(sign(s.a) != sign(s.b)) = eta / pi (Goemans and
Williamson, J. ACM 42, 1115 (1995)), so each row's differ count
D = (n raw_mc + n) / 2 is Binomial(n, p) with p = eta / pi, up to the
redraw's O(ORTHO_TOL) effect, and the fair_coin lam sum is Binomial(n, 1/2).
The default grid's curve is run at n = 4 * 2^14 + 3 trials, five blocks with
a short last one, for each of a fixed list of seeds, so every test here is
deterministic.  Each angle is tested on its own statistics across the seeds:
the rows of one seed share an ensemble and are correlated.

The bounds come from theory alone, set before the data were looked at: a
false-alarm rate of FALSE_ALARM for the whole module, split by Bonferroni
over the four statistics, the interior angles and both tails.  Identical or
overlapping block streams inflate the variance of z and the mean residual;
a wrong standard error moves the mean of n stderr^2 / (4 p (1 - p)).
"""

import math
from statistics import NormalDist

import numpy as np
import pytest

from spinsphere import spin

SEEDS = range(1, 201)
N = 4 * spin.BLOCK_TRIALS + 3
FALSE_ALARM = 0.01
GRID = spin.grid_degrees(0.0, 180.0, 5.0)
INTERIOR = slice(1, len(GRID) - 1)
TAIL = FALSE_ALARM / (4 * (len(GRID) - 2) * 2)
Z_CRIT = NormalDist().inv_cdf(1.0 - TAIL)


def chi2_quantile(dof: int, z: float) -> float:
    """Wilson-Hilferty: the chi-square quantile at the normal quantile z."""
    c = 2.0 / (9.0 * dof)
    return dof * (1.0 - c + z * math.sqrt(c)) ** 3


@pytest.fixture(scope="module")
def curves():
    """Per seed and angle: differ count, raw_stderr, residual / |a x b|, scalar form."""
    differ, stderr, residual, scalar = [], [], [], []
    for seed in SEEDS:
        rows = spin.correlation_curve(spin.ExperimentConfig(N, seed, "fair_coin"))
        differ.append([round((r.raw_mc * N + N) / 2) for r in rows])
        stderr.append([r.raw_stderr for r in rows])
        residual.append(
            [
                r.standard_score_residual_bivector_norm / np.linalg.norm(np.cross(r.a, r.b))
                for r in rows[INTERIOR]
            ]
        )
        scalar.append([r.scalar_product_form for r in rows])
    return np.array(differ), np.array(stderr), np.array(residual), np.array(scalar)


def hemisphere_law():
    return np.radians(GRID[INTERIOR]) / np.pi


def test_end_angles_are_exact(curves):
    differ = curves[0]
    # b = a at 0 degrees; at 180 every checked trial's signs differ
    assert (differ[:, 0] == 0).all()
    assert (differ[:, -1] == N).all()


def test_differ_counts_have_the_binomial_mean(curves):
    p = hemisphere_law()
    z = (curves[0][:, INTERIOR] - N * p) / np.sqrt(N * p * (1 - p))
    # the mean of len(SEEDS) standard scores has sd 1 / sqrt(len(SEEDS))
    assert np.abs(z.mean(axis=0)).max() <= Z_CRIT / math.sqrt(len(SEEDS))


def test_differ_counts_have_the_binomial_variance(curves):
    p = hemisphere_law()
    z = (curves[0][:, INTERIOR] - N * p) / np.sqrt(N * p * (1 - p))
    dof = len(SEEDS) - 1
    variance = z.var(axis=0, ddof=1)
    assert variance.min() >= chi2_quantile(dof, -Z_CRIT) / dof
    assert variance.max() <= chi2_quantile(dof, Z_CRIT) / dof


def test_raw_stderr_matches_the_binomial_law(curves):
    # stderr^2 = 4 q (1 - q) / (n - 1) for the observed rate q, whose mean is
    # exactly 4 p (1 - p) / n; its sd is about |1 - 2p| / sqrt(n p (1 - p))
    # relative, with 2 / n^2 more in variance where that term vanishes
    p = hemisphere_law()
    ratio = curves[1][:, INTERIOR] ** 2 * N / (4 * p * (1 - p))
    sd = np.sqrt((1 - 2 * p) ** 2 / (N * p * (1 - p)) + 2.0 / N**2)
    assert (np.abs(ratio.mean(axis=0) - 1.0) <= Z_CRIT * sd / math.sqrt(len(SEEDS))).all()


def test_fair_coin_residual_has_the_half_normal_mean(curves):
    # residual = |mean lam| |a x b|, and sqrt(n) mean lam is about a standard
    # normal: its magnitude has mean sqrt(2 / pi) and sd sqrt(1 - 2 / pi)
    scaled = curves[2] * math.sqrt(N)
    bound = Z_CRIT * math.sqrt(1.0 - 2.0 / math.pi) / math.sqrt(len(SEEDS))
    assert np.abs(scaled.mean(axis=0) - math.sqrt(2.0 / math.pi)).max() <= bound


def test_scalar_form_is_exactly_minus_one(curves):
    assert (curves[3] == -1.0).all()
