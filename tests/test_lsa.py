"""Limiting interference coefficients and the predictions built on them."""

import decimal
import itertools
import logging
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from rakepower import (LsaParams, SpreadingConfig, UtilityParams, efficiency, gamma_star,
                       loss_db, min_frames, mu, nu, predict_power, predict_utility)
from rakepower.lsa import _nu_branch, _nu_flat, _region
from rakepower.oracle import (_captured_density, _captured_density_closed,
                              _cross_lag_masses, _cross_mass_combined_closed,
                              _cross_mass_full_closed, _profile, finite_mu, finite_nu,
                              flat_mu_exact, flat_nu_exact)

GAMMA_INF = 12.949200759178689


def _params(beta, rho=10.0, frames=20, chips=50, paths=200, users=8):
    """The reference system: load 50 / 200 = 0.25, gain 20 * 50 = 1000."""
    return LsaParams(rho=rho, beta=beta, users=users, sigma_sq=5e-16,
                     spreading=SpreadingConfig(frames, chips), path_count=paths)


# (rho, beta, chips, users): loads 50, 200 and 800 chips over 200 paths
_GRID = [(10.0 ** (rho_db / 10.0), beta, chips, users)
         for rho_db in (0.0, 10.0, 20.0) for beta in (0.1, 0.3, 0.7, 1.0)
         for chips in (50, 200, 800) for users in (1, 8)]


# -- cross coefficient -------------------------------------------------------

def test_mu_anchor_values():
    assert mu(10.0, 0.1) == pytest.approx(4.3759044844754555, rel=1e-14)
    assert mu(10.0, 0.5) == pytest.approx(1.316228, rel=1e-6)
    assert mu(100.0, 0.1) == pytest.approx(2.68264, rel=1e-5)
    # direct transcription of the closed form at a generic point
    assert mu(10.0, 0.3) == pytest.approx(
        9.0 * 10.0 ** (0.3 - 1.0) / (10.0 ** 0.3 - 1.0), rel=1e-14)


def test_mu_limits_and_continuity():
    assert mu(1.0, 1.0) == 1.0
    assert mu(17.0, 1.0) == 1.0
    assert mu(1.0, 0.25) == 4.0
    assert mu(123.0, 1.0) == 1.0
    # dispatch seams
    assert mu(1.0 + 2e-6, 0.3) == pytest.approx(mu(1.0, 0.3), rel=1e-5)
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
    assert nu(10.0, 1.0, 0.25) == pytest.approx(1.416818, rel=1e-6)
    # interior of the fourth branch, both sides of beta = 1/2
    assert nu(10.0, 0.3, 0.85) == pytest.approx(0.6341792103183984, rel=1e-13)
    assert nu(10.0, 0.7, 0.8) == pytest.approx(0.6247989381309589, rel=1e-13)


def test_nu_flat_forms():
    # flat-profile region forms at a few spots, against hand-reduced values
    assert nu(1.0, 0.5, 0.25) == pytest.approx((2 * 0.25 + 2 * 0.5 - 4 * 0.25 * 0.5 + 0.0625) / 0.5, rel=1e-14)
    assert nu(1.0, 1.0, 0.25) == pytest.approx(2.3125 * 2.0 / 3.0, rel=1e-14)
    assert nu(1.0, 1.0, 4.0) == pytest.approx(2.0 / 12.0, rel=1e-14)


def _neville_at_zero(hs, ys):
    """The value at h = 0 of the polynomial through the points (hs, ys)."""
    p = list(ys)
    for m in range(1, len(hs)):
        for i in range(len(hs) - m):
            p[i] = (hs[i + m] * p[i] - hs[i] * p[i + 1]) / (hs[i + m] - hs[i])
    return p[0]


# (beta, load) in each region of nu, then (0.1, 0.25) and full combining,
# with the region and the exact flat limit; beta L and load L are whole at
# L = 20, 40, 60 and 80
_FLAT_LIMITS = [
    (Fraction(3, 10), Fraction(1, 5), 1, Fraction(29, 9)),
    (Fraction(3, 10), Fraction(1, 2), 2, Fraction(23, 10)),
    (Fraction(7, 10), Fraction(1, 2), 3, Fraction(1853, 1470)),
    (Fraction(7, 10), Fraction(4, 5), 4, Fraction(997, 1176)),
    (Fraction(7, 10), Fraction(2), 5, Fraction(143, 420)),
    (Fraction(1, 10), Fraction(1, 4), 2, Fraction(169, 20)),
    (Fraction(1), Fraction(1, 4), 3, Fraction(37, 24)),
]


@pytest.mark.parametrize("beta, load, region, limit", _FLAT_LIMITS)
def test_nu_flat_forms_are_the_exact_finite_limits(beta, load, region, limit):
    # the flat finite nu at L paths, beta L fingers and load L chips is a
    # quadratic in h = 1/L, exact on rationals: Neville's scheme through
    # three sizes gives its L -> infinity limit, and the next three sizes
    # give it again; the region's flat form is that limit to a few ulps
    def extrapolated(sizes):
        return _neville_at_zero([Fraction(1, L) for L in sizes],
                                [flat_nu_exact(L, int(beta * L), int(load * L)) for L in sizes])
    assert extrapolated((20, 40, 60)) == extrapolated((40, 60, 80)) == limit
    b, lam, exact = float(beta), float(load), float(limit)
    assert _region(b, lam) == region
    assert abs(_nu_flat(b, lam, region) - exact) <= 4 * math.ulp(exact)


@pytest.mark.parametrize("beta", [Fraction(3, 10), Fraction(9, 20), Fraction(1, 2),
                                  Fraction(11, 20), Fraction(7, 10), Fraction(1)])
def test_flat_forms_are_the_exact_limits_around_each_breakpoint(beta):
    # beta on both sides of 1/2 and at it, where 2P = L splits the finite
    # case table; each load breakpoint min(beta, 1 - beta), max(beta,
    # 1 - beta) and 1, and a twentieth on either side: there the dispatched
    # flat form is the exact quadratic limit (checked through two size
    # triples), and at the breakpoint so is each neighbouring region's form
    def limit(load, sizes):
        return _neville_at_zero([Fraction(1, L) for L in sizes],
                                [flat_nu_exact(L, int(beta * L), int(load * L)) for L in sizes])

    b, step = float(beta), Fraction(1, 20)
    for x in sorted({min(beta, 1 - beta), max(beta, 1 - beta), Fraction(1)} - {0}):
        sides = {_region(b, float(x - step)), _region(b, float(x + step))}
        for load in (x - step, x, x + step):
            exact = limit(load, (20, 40, 60))
            assert limit(load, (40, 60, 80)) == exact
            exact = float(exact)
            forms = sides if load == x else {_region(b, float(load))}
            for region in forms:
                assert abs(_nu_flat(b, float(load), region) - exact) <= 4 * math.ulp(exact)
            assert abs(nu(1.0, b, float(load)) - exact) <= 4 * math.ulp(exact)
    # flat mu is (L - 1) / (beta L), linear in 1/L, with limit 1 / beta
    exact = float(_neville_at_zero([Fraction(1, 20), Fraction(1, 40)],
                                   [flat_mu_exact(L, int(beta * L)) for L in (20, 40)]))
    assert exact == float(1 / beta)
    assert abs(mu(1.0, b) - exact) <= math.ulp(exact)


# five sizes at which beta L and load L are whole for every point below,
# so that no breakpoint (beta L, load L, 2P = L at beta 0.5) adds an
# oscillating 1/L term to the finite sums
_LADDER = (1000, 2000, 3000, 4000, 5000)
_LADDER_BETAS = (0.1, 0.3, 0.5, 0.7, 1.0)
# (beta, load) in regions 1 to 5 of nu, then (0.1, 0.25), full combining
# in regions 3 and 5, and beta 0.5 in regions 1 and 4
_LADDER_NU_POINTS = [(0.3, 0.2), (0.3, 0.5), (0.7, 0.5), (0.7, 0.8), (0.7, 2.0),
                     (0.1, 0.25), (1.0, 0.25), (1.0, 2.0), (0.5, 0.25), (0.5, 0.75)]


def _ladder_limit(finite):
    """Neville's scheme in h = 1/L through finite(L) on the five sizes."""
    return _neville_at_zero([1.0 / L for L in _LADDER], [finite(L) for L in _LADDER])


@pytest.mark.parametrize("rho_db", [10, 60, 150, 300, 600])
def test_closed_forms_are_the_extrapolated_finite_sums(rho_db):
    # Every closed form against the limit of its own finite sum: mu, nu in
    # each region, and the captured density and both cross lag masses of
    # the oracle. Recorded sweep of the worst relative error over all of
    # them (numpy 2.4, x86-64):
    #   rho (dB)     10       60       150      300      600
    #   worst     2.0e-13  5.0e-13  4.4e-12  1.3e-10  4.1e-9
    # Five sizes cancel the 1/L to 1/L^4 terms and leave the 1/L^5 one,
    # whose coefficient grows like ln(rho)^5 (the error rises 30-fold per
    # doubling of ln(rho) from 150 dB up), over a roundoff floor of about
    # 100 eps. The tolerance is 5 to 12 times the sweep at each rho, and at
    # 600 dB still 20 times below a 1e-6 error in any form. The five
    # decay ratios take about 0.2 s together, within a budget of 1 s.
    rho = 10.0 ** (rho_db / 10.0)
    tol = 2e-12 + 1e-18 * math.log(rho) ** 5
    pairs = {}
    for beta in _LADDER_BETAS:
        pairs[f"mu {beta}"] = (_ladder_limit(lambda L: finite_mu(L, rho, beta)), mu(rho, beta))
        sums = {L: _profile(L, rho, beta) for L in _LADDER}
        pairs[f"density {beta}"] = (_ladder_limit(lambda L: _captured_density(*sums[L])),
                                    _captured_density_closed(rho, beta))
        masses = {L: _cross_lag_masses(*sums[L]) for L in _LADDER}
        pairs[f"cross combined {beta}"] = (_ladder_limit(lambda L: masses[L][0]),
                                           _cross_mass_combined_closed(rho, beta))
        pairs[f"cross full {beta}"] = (_ladder_limit(lambda L: masses[L][1]),
                                       _cross_mass_full_closed(rho, beta))
    for beta, load in _LADDER_NU_POINTS:
        pairs[f"nu {beta} {load}"] = (
            _ladder_limit(lambda L: finite_nu(L, round(load * L), rho, beta)),
            nu(rho, beta, load))
    errors = {name: abs(limit / closed - 1.0) for name, (limit, closed) in pairs.items()}
    assert max(errors.values()) <= tol, {n: e for n, e in errors.items() if e > tol}


def _arake_nu(rho, load):
    """The all-rake closed forms of nu, the reference for beta = 1: exact
    rationals at flat decay (load a Fraction), floats otherwise."""
    if rho == 1:
        return Fraction(2, 3) * (load * load - 3 * load + 3) if load <= 1 else Fraction(2) / (3 * load)
    lr = math.log(rho)
    if load <= 1.0:
        num = 2.0 * (rho * rho - 1.0 + rho ** load - rho ** (2.0 - load) - 2.0 * rho * load * lr)
    else:
        num = 2.0 * (rho * rho - 1.0 - 2.0 * rho * lr)
    return num / ((rho - 1.0) ** 2 * load * lr)


def test_nu_dispatch_seams():
    assert nu(1.0 + 2e-7, 0.3, 0.6) == pytest.approx(nu(1.0, 0.3, 0.6), rel=1e-6)
    # full combining is regions 3 and 5 at beta = 1
    for load in (0.05, 0.25, 0.6, 0.99, 1.0, 1.01, 2.0, 4.0):
        flat = float(_arake_nu(1, Fraction(load)))
        assert abs(nu(1.0, 1.0, load) - flat) <= math.ulp(flat)
        for rho in (10.0, 100.0, 1e60):
            assert nu(rho, 1.0, load) == pytest.approx(_arake_nu(rho, load), rel=1e-11, abs=0)


def _nu_reference(rho, beta, load, digits=100):
    """nu's own branch on decimals of the given digits: no cancellation
    left at any point the float grid below reaches."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        return float(_nu_branch(Decimal(rho), Decimal(beta), Decimal(load), _region(beta, load)))


def test_nu_near_flat_and_small_beta_against_100_digits():
    # on both sides of min(beta, load) ln(rho) = 0.03, where nu moves from
    # decimals to floats, down to where it stops evaluating (1e-12)
    for lr in (1e-10, 1e-7, 1e-5, 1e-3, 0.02, 0.05, 0.5, 5.0, 138.0):
        rho = math.exp(lr)
        for beta in (1e-9, 1e-4, 0.01, 0.1, 0.3, 0.5, 0.7, 1.0):
            for load in (1e-4, 0.05, 0.25, 0.6, 0.9, 2.0, 10.0):
                if min(beta, load) * math.log(rho) < 1e-12:
                    with pytest.raises(ValueError, match="not evaluated"):
                        nu(rho, beta, load)
                    continue
                assert nu(rho, beta, load) == pytest.approx(
                    _nu_reference(rho, beta, load), rel=1e-9, abs=0), (lr, beta, load)


def test_nu_takes_its_flat_form_below_the_cutoff_against_150_digits():
    # where max(1, load) ln(rho) < 1e-12 nu is its flat form, within
    # 0.67 max(1, load) ln(rho) of its own branch on 150-digit decimals;
    # where only min(beta, load) ln(rho) is below the cutoff it still refuses
    flat = 0
    for log_rho in (1e-13, 3e-13, 1e-12, 1e-11, 1e-10):
        rho = math.exp(log_rho)
        lr = math.log(rho)  # of the float rho nu is given
        for beta in (1e-3, 0.01, 0.1, 0.5, 1.0):
            for load in (1e-3, 0.25, 1.0, 3.0, 100.0):
                depth = max(1.0, load) * lr
                if depth >= 1e-12:
                    if min(beta, load) * lr < 1e-12:
                        with pytest.raises(ValueError, match="not evaluated"):
                            nu(rho, beta, load)
                    continue
                flat += 1
                value = nu(rho, beta, load)
                assert value == nu(1.0, beta, load)
                assert value == pytest.approx(_nu_reference(rho, beta, load, digits=150),
                                              rel=0.67 * depth, abs=0), (lr, beta, load)
    assert flat == 40


def test_nu_near_flat_meets_the_flat_forms():
    # an independent route to the near-flat values: nu is smooth in ln(rho),
    # so at ln(rho) = 1e-9 it lies within about 1e-9 of its flat form
    for beta in (0.1, 0.3, 0.5, 0.7, 1.0):
        for load in (0.05, 0.2, 0.4, 0.6, 0.8, 1.0, 3.0):
            assert nu(math.exp(1e-9), beta, load) == pytest.approx(nu(1.0, beta, load), rel=1e-7)
    # once off by 87% and more: 1 + 2e-6 took a generic branch in floats
    assert nu(1.0 + 2e-6, 0.1, 0.25) == pytest.approx(8.45, abs=5e-3)
    assert min_frames(_params(0.1, rho=1.0 + 2e-6)) == min_frames(_params(0.1, rho=1.0)) == 21


def test_coefficients_without_a_finite_value_raise():
    # a fraction so small that rho^beta rounds to 1, one whose flat form
    # leaves the double range, and a decay ratio past it
    for args in ((10.0, 1e-20, 0.25), (1.0, 1e-320, 0.25), (1e200, 0.7, 0.5)):
        with pytest.raises(ValueError):
            nu(*args)
    with pytest.raises(ValueError, match="finite"):
        mu(1.0, 1e-320)
    with pytest.raises(ValueError, match="finite"):
        mu(1.0 + 1e-15, 5e-324)
    assert mu(10.0, 1e-20) == pytest.approx(0.9 / (1e-20 * math.log(10.0)), rel=1e-12)


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
    assert vals[k] < nu(100.0, 1.0, 0.25)
    assert vals[k] < vals[0]


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
    # gain 4 * 10 = 40 at load 10 / 40 = 0.25 cannot carry 8 users
    tiny = dict(frames=4, chips=10, paths=40)
    p = _params(0.1, **tiny)
    with pytest.raises(ValueError, match="infeasible"):
        predict_power(p, 0.001)
    with pytest.raises(ValueError, match="infeasible"):
        predict_utility(p, 0.001)
    # at gain 4 * 50 = 200 full combining carries the 8 users (budget +91
    # at the asymptotic target) and partial combining does not (-236): the
    # loss raises on the partial half alone
    full, partial = _params(1.0, frames=4), _params(0.1, frames=4)
    for p, budget in ((full, 91.0), (partial, -236.0)):
        assert 200 - GAMMA_INF * (7 * p.mu + p.nu) == pytest.approx(budget, abs=0.5)
    assert predict_power(full, 0.001) > 0
    for point in (dict(frames=4), tiny):
        for asymptotic in (True, False):
            with pytest.raises(ValueError, match="infeasible"):
                loss_db(_params(0.1, **point), asymptotic_target=asymptotic)


# -- design rules ------------------------------------------------------------

def test_min_frames_reference_points():
    for rho_db, want in ((0.0, 21), (10.0, 9), (20.0, 6)):
        p = _params(0.1, rho=10.0 ** (rho_db / 10.0))
        assert min_frames(p) == want


def test_min_frames_is_the_first_count_past_the_mass():
    mass_factor = gamma_star(math.inf)
    for rho, beta, chips, users in _GRID:
        p = _params(beta, rho=rho, chips=chips, users=users)
        mass = mass_factor * ((users - 1) * p.mu + p.nu)
        frames = 1
        while frames * chips <= mass:
            frames += 1
        assert min_frames(p) == frames, (rho, beta, chips, users)


def test_min_frames_clamps_to_one():
    # one user sending one frame of 50 chips needs no second frame
    p = _params(0.5, users=1, frames=1)
    assert min_frames(p) == 1


def test_min_frames_warns_below_five_frames(caplog):
    # a count below 5 is returned but logged: the limiting coefficients are
    # rough at such short spreading; the reference points log nothing
    with caplog.at_level(logging.WARNING, logger="rakepower.lsa"):
        assert min_frames(_params(0.5, users=1, frames=1)) == 1
        assert [(r.name, r.levelno) for r in caplog.records] == [("rakepower.lsa", logging.WARNING)]
        assert "minimum frame count 1 is below 5" in caplog.records[0].getMessage()
        caplog.clear()
        assert min_frames(_params(0.1)) == 9
        assert caplog.records == []


def test_min_frames_needs_chips():
    # the spreading is a required field, so no operating point lacks chips per frame
    with pytest.raises(TypeError, match="spreading"):
        LsaParams(rho=10.0, beta=0.5, users=8, sigma_sq=5e-16, path_count=200)


def test_loss_reference_points():
    for beta, want in ((0.5, 1.34), (0.3, 2.94), (0.1, 8.40)):
        assert loss_db(_params(beta)) == pytest.approx(want, abs=0.02)


def test_loss_full_combining_is_zero():
    assert loss_db(_params(1.0)) == 0.0
    assert loss_db(_params(1.0), asymptotic_target=False) == 0.0


def _four_factor_loss(p, asymptotic):
    """The docstring's product
    mu (f(g_A)/f(g_P)) (g_P/g_A) (N - g_A[(K-1) + nu_A]) / (N - g_P[(K-1) mu + nu])
    in dB; raises ValueError where either budget is not positive."""
    N, K = p.gain, p.users
    nu_a = nu(p.rho, 1.0, p.load)
    if asymptotic:
        g_a = g_p = gamma_star(math.inf)
    else:
        g_a, g_p = gamma_star(N / nu_a), p.target_sinr
    budget_a = N - g_a * ((K - 1) + nu_a)
    budget_p = N - g_p * ((K - 1) * p.mu + p.nu)
    if budget_a <= 0 or budget_p <= 0:
        raise ValueError("infeasible")
    ratio = p.mu * (efficiency(g_a) / efficiency(g_p)) * (g_p / g_a) * budget_a / budget_p
    return 10.0 * math.log10(ratio)


@pytest.mark.parametrize("asymptotic", [True, False])
def test_loss_is_the_four_factor_product(asymptotic):
    # at 4 frames some points close a budget, for either target choice
    feasible = infeasible = 0
    for (rho, beta, chips, users), frames in itertools.product(_GRID, (20, 4)):
        p = _params(beta, rho=rho, frames=frames, chips=chips, users=users)
        try:
            want = _four_factor_loss(p, asymptotic)
        except ValueError:
            infeasible += 1
            with pytest.raises(ValueError, match="infeasible"):
                loss_db(p, asymptotic_target=asymptotic)
            continue
        feasible += 1
        assert loss_db(p, asymptotic_target=asymptotic) == pytest.approx(
            want, rel=1e-12, abs=1e-13), (rho, beta, chips, users, frames)
    assert feasible and infeasible


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


def test_lsa_params_derive_load_and_gain_from_the_spreading():
    p = _params(0.1)
    assert (p.load, p.gain) == (0.25, 1000)
    # the keyword alias the benchmark's output checks call
    assert LsaParams.from_spreading(spreading=SpreadingConfig(20, 50), path_count=200,
                                    rho=10.0, beta=0.1, users=8, sigma_sq=5e-16) == p
