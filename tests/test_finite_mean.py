"""Monte Carlo means against the exact finite-L mean of the energy ratio.

With P combined fingers and tap variances v_l, the combined energy Y (the
first P |alpha_l|^2) and the rest Z are independent, and Y is a sum of
independent exponentials of means v_l. So

    E_L = E[||alpha||^2 / ||alpha_P||^2]
        = 1 + (sum_{l>=P} v_l) int_0^inf prod_{l<P} (1 + v_l s)^-1 ds,

finite for P >= 2. mc_gain_ratio estimates it, and so does the cross
coefficient N h_mai[k, j] / h_sp[j] for k != j: the cross gain is a
quadratic form in user j's path gains, whose circularly symmetric mean
keeps only its diagonal, ||c_k||^2 at every tap. Each check allows
_Z_LIMIT standard errors: over 450 runs of the same grids at other seeds
(30 seeds of the mc_gain_ratio grid, 15 of the cross-coefficient grid)
the largest |z| was 3.25, and over the 30 runs here 1.88.
"""

import math

import numpy as np
import pytest

from rakepower.channel import ApdpProfile, _trial_blocks
from rakepower.gains import RakeSelector, SpreadingConfig, link_gains
from rakepower.oracle import mc_gain_ratio

_Z_LIMIT = 4.0


def _exact_mean(v, fingers):
    """E_L for tap variances v and the first fingers combined: the integral
    is a trapezoid in x = ln s over [-40, 40] with step 0.1, the product
    summed as logarithms so that no factor overflows."""
    x = np.linspace(-40.0, 40.0, 801)
    y = np.exp(x - np.log1p(np.multiply.outer(np.exp(x), v[:fingers])).sum(axis=1))
    integral = 0.1 * (y.sum() - 0.5 * (y[0] + y[-1]))
    return 1.0 + float(v[fingers:].sum()) * integral


@pytest.mark.parametrize("paths, fingers", [(10, 3), (400, 40), (200, 7), (50, 49)])
def test_exact_mean_hits_the_flat_rational(paths, fingers):
    # flat decay: (L - 1) / (P - 1)
    exact = _exact_mean(np.full(paths, 1.0 / paths), fingers)
    assert exact == pytest.approx((paths - 1) / (fingers - 1), rel=1e-14)


def test_mc_gain_ratio_centres_on_the_exact_mean():
    zs = {}
    for seed in (12345, 7):
        for rho_db in (0.0, 10.0, 20.0):
            rho = 10.0 ** (rho_db / 10.0)
            v = ApdpProfile(400, rho).tap_variances(1.0)
            for beta in (0.1, 0.3, 0.5):
                est = mc_gain_ratio(400, rho, beta, 500, seed)
                exact = _exact_mean(v, RakeSelector(beta).finger_count(400))
                zs[seed, rho_db, beta] = (est.mean - exact) / est.se
    assert max(map(abs, zs.values())) < _Z_LIMIT, zs


def test_cross_coefficient_centres_on_the_exact_mean():
    # the studies' draws; the trial is the sampling unit, since the 56
    # ordered pairs of one trial share their path gains
    users, trials = 8, 200
    selectors = (RakeSelector(0.1), RakeSelector(0.3))
    spreading = SpreadingConfig(1, 50)
    zs = {}
    for paths in (100, 200, 800):
        for rho_db in (10.0, 20.0):
            profile = ApdpProfile(paths, 10.0 ** (rho_db / 10.0))
            per_trial = np.concatenate([
                link_gains(profile.path_gains(variances, normals), selectors, spreading,
                           1.0).mai_ratio_inv.sum(axis=-1)
                for _, variances, normals in _trial_blocks(12345, range(trials), users,
                                                           paths, 20)], axis=1)
            per_trial *= spreading.processing_gain / (users * (users - 1))
            v = profile.tap_variances(1.0)
            for sel, samples in zip(selectors, per_trial):
                exact = _exact_mean(v, sel.finger_count(paths))
                se = samples.std(ddof=1) / math.sqrt(trials)
                zs[paths, rho_db, sel.finger_fraction] = (samples.mean() - exact) / se
    assert max(map(abs, zs.values())) < _Z_LIMIT, zs
