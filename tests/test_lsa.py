"""Limiting interference coefficients and the predictions built on them."""

import numpy as np
import pytest

from rakepower import (LsaParams, UtilityParams, efficiency, gamma_star,
                       loss_db, min_frames, mu, mu_flat, nu, nu_arake, nu_flat,
                       nu_flat_arake, predict_power, predict_utility)
from rakepower.lsa import _nu_branch, _region

GAMMA_INF = 12.949200759178689


def _params(beta, rho=10.0, load=0.25, gain=1000, users=8, chips=50):
    return LsaParams(rho=rho, beta=beta, load=load, gain=gain, users=users,
                     sigma_sq=5e-16, chips_per_frame=chips)


# -- cross coefficient -------------------------------------------------------

def test_mu_anchor_values():
    assert mu(10.0, 0.1) == pytest.approx(4.3759044844754555, rel=1e-14)
    assert mu(10.0, 0.5) == pytest.approx(1.316228, rel=1e-6)
    assert mu(100.0, 0.1) == pytest.approx(2.68264, rel=1e-5)
    # direct transcription of the closed form at a generic point
    assert mu(10.0, 0.3) == pytest.approx(
        9.0 * 10.0 ** (0.3 - 1.0) / (10.0 ** 0.3 - 1.0), rel=1e-14)


def test_mu_limits_and_continuity():
    assert mu_flat(0.25) == 4.0
    assert mu(1.0, 1.0) == 1.0
    assert mu(17.0, 1.0) == 1.0
    assert mu(1.0, 0.25) == 4.0
    assert mu(123.0, 1.0) == 1.0
    # dispatch seams
    assert mu(1.0 + 2e-6, 0.3) == pytest.approx(mu_flat(0.3), rel=1e-5)
    assert mu(10.0, 1.0 - 2e-8) == pytest.approx(1.0, rel=1e-7)


def test_mu_monotone_in_rho_and_beta():
    rhos = [1.0, 2.0, 5.0, 10.0, 50.0, 100.0]
    for beta in (0.1, 0.3, 0.5, 0.9):
        vals = [mu(r, beta) for r in rhos]
        assert all(a > b for a, b in zip(vals, vals[1:]))
    betas = np.linspace(0.05, 1.0, 20)
    for rho in (1.0, 10.0, 100.0):
        vals = [mu(rho, b) for b in betas]
        assert all(a > b for a, b in zip(vals, vals[1:]))
    assert np.all(np.array([mu(r, b) for r in rhos for b in (0.1, 0.5, 1.0)]) >= 1.0)


# -- self coefficient --------------------------------------------------------

def test_nu_anchor_values():
    assert nu(10.0, 0.5, 0.25) == pytest.approx(1.4294006798612882, rel=1e-13)
    assert nu(10.0, 0.3, 0.25) == pytest.approx(1.531524620794102, rel=1e-13)
    assert nu(10.0, 0.1, 0.25) == pytest.approx(3.0299131610694787, rel=1e-13)
    assert nu_arake(10.0, 0.25) == pytest.approx(1.416818, rel=1e-6)
    # interior of the fourth branch, both sides of beta = 1/2
    assert nu(10.0, 0.3, 0.85) == pytest.approx(0.6341792103183984, rel=1e-13)
    assert nu(10.0, 0.7, 0.8) == pytest.approx(0.6247989381309589, rel=1e-13)


def test_nu_flat_forms():
    # flat-profile region forms at a few spots, against hand-reduced values
    assert nu_flat(0.5, 0.25) == pytest.approx((2 * 0.25 + 2 * 0.5 - 4 * 0.25 * 0.5 + 0.0625) / 0.5, rel=1e-14)
    assert nu_flat_arake(0.25) == pytest.approx(2.3125 * 2.0 / 3.0, rel=1e-14)
    assert nu_flat_arake(4.0) == pytest.approx(2.0 / 12.0, rel=1e-14)
    assert nu(1.0, 0.3, 0.5) == nu_flat(0.3, 0.5)
    assert nu(1.0, 1.0, 0.5) == nu_flat_arake(0.5)


def test_nu_dispatch_seams():
    assert nu(1.0 + 2e-7, 0.3, 0.6) == pytest.approx(nu_flat(0.3, 0.6), rel=1e-6)
    assert nu(10.0, 1.0 - 2e-10, 0.6) == nu_arake(10.0, 0.6)
    assert nu_flat(1.0 - 2e-10, 0.6) == nu_flat_arake(0.6)


def test_nu_branch_continuity_spot():
    for rho in (2.0, 10.0, 100.0):
        for beta in (0.2, 0.3, 0.45, 0.55, 0.7, 0.9):
            lo, hi = min(beta, 1.0 - beta), max(beta, 1.0 - beta)
            mid = 2 if beta <= 0.5 else 3
            for lam, ra, rb in ((lo, 1, mid), (hi, mid, 4), (1.0, 4, 5)):
                va = _nu_branch(rho, beta, lam, ra)
                vb = _nu_branch(rho, beta, lam, rb)
                assert va == pytest.approx(vb, rel=1e-10)


def test_nu_region_two_three_agree_at_half():
    # at beta = 1/2 the middle-load region is described by either branch
    for rho in (3.0, 10.0, 40.0):
        for lam in (0.5,):
            assert _nu_branch(rho, 0.5, lam, 2) == pytest.approx(
                _nu_branch(rho, 0.5, lam, 3), rel=1e-12)


def test_nu_region_dispatch():
    assert _region(0.3, 0.2) == 1
    assert _region(0.3, 0.5) == 2
    assert _region(0.7, 0.5) == 3
    assert _region(0.3, 0.85) == 4
    assert _region(0.7, 2.0) == 5
    assert _region(0.5, 0.5) == 2


def test_nu_monotone_in_rho_and_load():
    rhos = [1.0, 2.0, 5.0, 10.0, 50.0, 100.0]
    for beta, lam in ((0.1, 0.25), (0.5, 0.5), (0.7, 0.8)):
        vals = [nu(r, beta, lam) for r in rhos]
        assert all(a > b for a, b in zip(vals, vals[1:]))
    loads = [0.1, 0.25, 0.5, 0.75, 1.0, 2.0, 4.0]
    for rho in (1.0, 10.0, 100.0):
        for beta in (0.1, 0.5, 1.0):
            vals = [nu(rho, beta, l) for l in loads]
            assert all(a > b for a, b in zip(vals, vals[1:]))


def test_nu_not_monotone_in_beta_at_strong_decay():
    # at 20 dB decay the self-interference is least for an interior fraction
    betas = np.round(np.arange(0.02, 1.0 + 1e-9, 0.02), 6)
    vals = np.array([nu(100.0, b, 0.25) for b in betas])
    k = int(np.argmin(vals))
    assert 0 < k < betas.size - 1
    assert vals[k] < nu_arake(100.0, 0.25)
    assert vals[k] < vals[0]


def test_invalid_coefficients_arguments():
    with pytest.raises(ValueError):
        mu(0.5, 0.3)
    with pytest.raises(ValueError):
        mu(10.0, 0.0)
    with pytest.raises(ValueError):
        mu(10.0, 1.2)
    with pytest.raises(ValueError):
        nu(10.0, 0.3, 0.0)
    with pytest.raises(ValueError):
        nu_arake(10.0, -1.0)


# -- predictions -------------------------------------------------------------

def test_target_sinr_property():
    p = _params(0.3)
    assert p.target_sinr == gamma_star(1000.0 / p.nu)
    assert p.target_sinr < GAMMA_INF


def test_predict_power_formula():
    p = _params(0.3)
    gam = p.target_sinr
    h = 0.002
    expected = 1000 * 5e-16 * gam / (h * (1000 - gam * (7 * p.mu + p.nu)))
    assert predict_power(p, h) == pytest.approx(expected, rel=1e-14)
    # vectorized over the gain argument
    hs = np.array([0.001, 0.002, 0.004])
    assert np.allclose(predict_power(p, hs), [predict_power(p, x) for x in hs])


def test_utility_power_product_identity():
    # u * p depends only on the target: throughput scale times efficiency
    for beta in (0.1, 0.3, 0.5, 1.0):
        p = _params(beta)
        prod = predict_utility(p, 0.003) * predict_power(p, 0.003)
        expected = UtilityParams().throughput_scale * efficiency(p.target_sinr)
        assert prod == pytest.approx(expected, rel=1e-12)


def test_prediction_infeasible_raises():
    p = _params(0.1, gain=40)  # tiny gain cannot carry 8 users
    with pytest.raises(ValueError, match="infeasible"):
        predict_power(p, 0.001)
    with pytest.raises(ValueError, match="infeasible"):
        predict_utility(p, 0.001)
    # at gain 200 full combining carries the 8 users (budget +91 at the
    # asymptotic target) and partial combining does not (-236): the loss
    # raises on the partial half alone
    full, partial = _params(1.0, gain=200), _params(0.1, gain=200)
    for p, budget in ((full, 91.0), (partial, -236.0)):
        assert 200 - GAMMA_INF * (7 * p.mu + p.nu) == pytest.approx(budget, abs=0.5)
    assert predict_power(full, 0.001) > 0
    for gain in (200, 40):
        for asymptotic in (True, False):
            with pytest.raises(ValueError, match="infeasible"):
                loss_db(_params(0.1, gain=gain), asymptotic_target=asymptotic)


# -- design rules ------------------------------------------------------------

def test_min_frames_reference_points():
    for rho_db, want in ((0.0, 21), (10.0, 9), (20.0, 6)):
        p = _params(0.1, rho=10.0 ** (rho_db / 10.0))
        assert min_frames(p) == want


def test_min_frames_clamps_to_one():
    p = _params(0.5, users=1, chips=100000)
    assert min_frames(p) == 1


def test_min_frames_needs_chips():
    p = LsaParams(rho=10.0, beta=0.5, load=0.25, gain=1000, users=8,
                  sigma_sq=5e-16)
    with pytest.raises(ValueError):
        min_frames(p)


def test_loss_reference_points():
    for beta, want in ((0.5, 1.34), (0.3, 2.94), (0.1, 8.40)):
        assert loss_db(_params(beta)) == pytest.approx(want, abs=0.02)


def test_loss_full_combining_is_zero():
    assert loss_db(_params(1.0)) == pytest.approx(0.0, abs=1e-12)
    assert loss_db(_params(1.0), asymptotic_target=False) == pytest.approx(0.0, abs=1e-12)


def test_loss_finite_target_variant():
    # the finite-gain targets shave the strong-decay penalty visibly
    a = loss_db(_params(0.1), asymptotic_target=True)
    b = loss_db(_params(0.1), asymptotic_target=False)
    assert a == pytest.approx(8.3958, abs=2e-3)
    assert b == pytest.approx(8.3739, abs=2e-3)
    assert b < a


def test_loss_monotone_in_beta():
    p = _params(0.5)
    betas = np.round(np.arange(0.05, 1.0 + 1e-9, 0.05), 6)
    vals = [loss_db(_params(b)) for b in betas]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v >= 0 for v in vals)


def test_lsa_params_validation():
    with pytest.raises(ValueError):
        LsaParams(rho=0.5, beta=0.5, load=0.25, gain=100, users=2, sigma_sq=1e-12)
    with pytest.raises(ValueError):
        LsaParams(rho=10.0, beta=0.0, load=0.25, gain=100, users=2, sigma_sq=1e-12)
    with pytest.raises(ValueError):
        LsaParams(rho=10.0, beta=0.5, load=0.25, gain=0, users=2, sigma_sq=1e-12)
    with pytest.raises(ValueError):
        LsaParams(rho=10.0, beta=0.5, load=0.25, gain=100, users=2, sigma_sq=0.0)
