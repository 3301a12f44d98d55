"""Finite-size oracle: dual paths, exact subcases, MC cross-checks, audit."""

from fractions import Fraction

import numpy as np
import pytest

from rakepower import (appendix_intermediates, convergence_table, finite_mu,
                       finite_nu, flat_mu_exact, flat_nu_exact, mc_gain_ratio,
                       mu, nu, nu_arake, nu_flat, oracle_audit,
                       profile_matrices)
from rakepower.gains import _lag_matrix
from rakepower.oracle import (_overlap_table_deviation, _self_lag_mass_direct,
                              _self_lag_mass_table, _theta_factorization_deviation)


# -- deterministic finite sums -----------------------------------------------

def test_finite_mu_anchor_and_convergence():
    assert finite_mu(400, 10.0, 0.1) == pytest.approx(4.343857, rel=1e-6)
    assert finite_mu(4000, 10.0, 0.1) == pytest.approx(mu(10.0, 0.1), rel=1e-3)


def test_finite_nu_dual_paths_agree():
    # "checked" evaluates the lag sum directly and through the overlap-count
    # block tables and refuses to answer if they split
    cases = [
        (40, 10, 10.0, 0.3), (40, 10, 10.0, 0.7), (40, 40, 2.0, 0.5),
        (40, 60, 5.0, 0.25), (41, 13, 7.0, 1.0), (2, 1, 3.0, 0.5),
        (3, 2, 1.0, 1.0), (50, 7, 1.0, 0.06),
    ]
    # an FFT lag sum errs by about eps * v[0]^2, which at two paths and
    # rho = 1e4 already breaks the 1e-12 agreement "checked" demands
    cases += [(L, 50, rho, beta) for L in (2, 3) for rho in (1e4, 1e6)
              for beta in (0.1, 0.5, 1.0)]
    for L, Nc, rho, beta in cases:
        checked = finite_nu(L, Nc, rho, beta, method="checked")
        direct = finite_nu(L, Nc, rho, beta, method="direct")
        table = finite_nu(L, Nc, rho, beta, method="table")
        assert checked == pytest.approx(direct, rel=1e-13)
        assert direct == pytest.approx(table, rel=1e-12)


def test_finite_nu_tracks_each_branch():
    # one point per analytic region, both sides of beta = 1/2 for the shared
    # branches; finite error at L=2000 is a few parts in 1e4
    L = 2000
    points = [(0.3, 0.2), (0.3, 0.5), (0.7, 0.5), (0.3, 0.85), (0.7, 0.8),
              (0.3, 2.0), (0.7, 2.0)]
    for beta, lam in points:
        fin = finite_nu(L, round(lam * L), 10.0, beta)
        assert fin == pytest.approx(nu(10.0, beta, lam), rel=2e-3)


def test_flat_exact_rationals():
    assert flat_mu_exact(400, 40) == Fraction(399, 40)
    assert float(flat_mu_exact(400, 40)) == 9.975
    assert float(flat_nu_exact(400, 40, 100)) == 8.449875
    assert float(flat_nu_exact(400, 400, 400)) == 0.6666625
    assert isinstance(flat_nu_exact(10, 5, 5), Fraction)


def test_flat_finite_sums_hit_exact_rationals():
    for L, P, Nc in ((60, 18, 15), (60, 60, 30), (33, 11, 40)):
        exact = float(flat_nu_exact(L, P, Nc))
        beta = P / L
        assert finite_nu(L, Nc, 1.0, beta) == pytest.approx(exact, rel=1e-12)
        assert finite_mu(L, 1.0, beta) == pytest.approx(float(flat_mu_exact(L, P)), rel=1e-12)


def test_flat_nu_exact_converges_to_closed_form():
    # the flat closed form is the L -> infinity limit of the exact rationals
    vals = [float(flat_nu_exact(L, round(0.3 * L), round(0.85 * L)))
            for L in (200, 800, 3200)]
    target = nu_flat(0.3, 0.85)
    errs = [abs(v - target) / target for v in vals]
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 1e-6


def test_arake_moment_identity():
    # full combining reduces the cross coefficient to 1 - S2/S1^2 on the
    # profile moments; check the generic evaluator against that identity
    L, rho = 700, 8.0
    v = rho ** (-(np.arange(L)) / (L - 1))
    s1, s2 = v.sum(), (v * v).sum()
    assert finite_mu(L, rho, 1.0) == pytest.approx(1.0 - s2 / s1 ** 2, rel=1e-13)


def test_profile_matrices_invariants():
    pm = profile_matrices(50, 12, 10.0, 0.3)
    assert pm.finger_count == 15
    assert pm.tap_power[0] == 1.0
    assert pm.tap_power[-1] == pytest.approx(0.1, rel=1e-12)
    assert np.allclose(pm.tap_std ** 2, pm.tap_power, rtol=1e-14)
    assert pm.finger_mask.sum() == 15
    assert np.array_equal(pm.combined_std, pm.tap_std * pm.finger_mask)
    # phi^2 per column: min(L - i, Nc) / Nc
    lags = np.arange(1, 50)
    assert np.allclose(pm.phi_sq, np.minimum(50 - lags, 12) / 12.0)
    assert pm.lag_pattern_full() == pytest.approx(
        _lag_matrix(pm.tap_std.astype(complex)).real / np.sqrt(50.0))


# -- evaluation routes against per-lag loop references -----------------------
# The loops below are the lag-by-lag forms the vectorised routes replaced.

def _profile(L, P, Nc, rho):
    v = rho ** (-(np.arange(L)) / (L - 1))
    mask = (np.arange(L) < P).astype(float)
    phi_sq = np.minimum(L - np.arange(1, L), Nc) / Nc  # indexed by i = L - d
    return v, mask, phi_sq


def _pair_sum(v, mask, phi_sq):
    L = v.size
    total = 0.0
    for l in range(L):
        for m in range(l + 1, L):
            total += (phi_sq[L - (m - l) - 1] * v[l] * v[m]
                      * (mask[l] + mask[m]) ** 2 / L ** 2)
    return total


def _seg_table(v, P, phi_sq):
    L = v.size

    def seg(i, a, b, weight):
        if b < a:
            return 0.0
        d = L - i
        return weight * float(v[a - 1:b] @ v[a - 1 + d:b + d])

    total = 0.0
    if 2 * P <= L:
        for i in range(1, P + 1):
            total += phi_sq[i - 1] * seg(i, 1, i, 1.0)
        for i in range(P + 1, L - P + 1):
            total += phi_sq[i - 1] * seg(i, 1, P, 1.0)
        for i in range(L - P + 1, L):
            b = P - L + i
            total += phi_sq[i - 1] * (seg(i, 1, b, 4.0) + seg(i, b + 1, P, 1.0))
    else:
        for i in range(1, L - P + 1):
            total += phi_sq[i - 1] * seg(i, 1, i, 1.0)
        for i in range(L - P + 1, min(P, L - 1) + 1):
            b = P - L + i
            total += phi_sq[i - 1] * (seg(i, 1, b, 4.0) + seg(i, b + 1, i, 1.0))
        for i in range(P + 1, L):
            b = P - L + i
            total += phi_sq[i - 1] * (seg(i, 1, b, 4.0) + seg(i, b + 1, P, 1.0))
    return total / L ** 2


def _theta_loop(pm):
    L, P = pm.path_count, pm.finger_count
    v, mask, rho = pm.tap_power, pm.finger_mask, pm.decay_ratio
    dev = 0.0
    for i in range(1, L):
        l = np.arange(1, i + 1)
        m = L + l - i
        direct = v[l - 1] * v[m - 1] * (mask[l - 1] + mask[m - 1]) ** 2
        u1 = (l <= P).astype(float)
        u2 = (l <= P - L + i).astype(float)
        fact = rho ** (-(L + 2 * l - i - 2) / (L - 1)) * (u1 + u2 + 2.0 * u1 * u2)
        scale = max(float(fact.max()), 1e-300)
        dev = max(dev, float(np.max(np.abs(direct - fact))) / scale)
    return dev


def _overlap_loop(L, P):
    worst = 0
    for i in range(1, L):
        l = np.arange(1, i + 1)
        u1 = (l <= P).astype(np.int64)
        u2 = (l <= P - L + i).astype(np.int64)
        direct = u1 + u2 + 2 * u1 * u2
        table = np.zeros(i, dtype=np.int64)
        if 2 * P <= L:
            if i <= P:
                table[:i] = 1
            elif i <= L - P:
                table[:P] = 1
            else:
                b = P - L + i
                table[:b] = 4
                table[b:P] = 1
        else:
            if i <= L - P:
                table[:i] = 1
            elif i <= P:
                b = P - L + i
                table[:b] = 4
                table[b:i] = 1
            else:
                b = P - L + i
                table[:b] = 4
                table[b:P] = 1
        worst = max(worst, int(np.max(np.abs(direct - table))))
    return worst


def _flat_nu_loop(L, P, Nc):
    total = Fraction(0)
    for i in range(1, L):
        both = max(0, P - L + i)
        single = max(0, min(i, P) - both)
        total += Fraction(min(L - i, Nc), Nc) * (4 * both + single)
    den = Fraction(P, L)
    return total / (L * L) / (den * den)


def test_direct_route_matches_pair_double_sum():
    # up to 32 paths the route correlates directly, above it goes by FFT,
    # whose relative error of about eps * rho^(1/(L - 1)) stays small there
    for L in (2, 3, 5, 32, 33, 40, 41):
        for P in sorted({1, max(1, L // 2), L}):
            for Nc in (1, L, 2 * L):
                for rho in (1.0, 10.0, 1e10):
                    v, mask, phi_sq = _profile(L, P, Nc, rho)
                    assert _self_lag_mass_direct(v, mask, phi_sq) == pytest.approx(
                        _pair_sum(v, mask, phi_sq), rel=1e-13, abs=0), (L, P, Nc, rho)


def test_table_route_matches_segment_loop():
    # every P from 1 to L crosses both case branches (2P <= L and 2P > L)
    for L in (2, 3, 5, 40, 41, 200):
        for P in sorted({1, 2, L // 2, L // 2 + 1, L - 1, L} & set(range(1, L + 1))):
            for Nc in sorted({1, max(1, L // 3), L, 2 * L}):
                for rho in (1.0, 10.0, 1000.0):
                    v, _, phi_sq = _profile(L, P, Nc, rho)
                    assert _self_lag_mass_table(v, P, phi_sq) == pytest.approx(
                        _seg_table(v, P, phi_sq), rel=1e-13, abs=0), (L, P, Nc, rho)


def test_elementwise_checks_match_lag_loops():
    for L in (2, 3, 40, 41, 401):
        for beta in (0.01, 0.3, 0.5, 0.7, 1.0):
            for rho in (1.0, 10.0):
                pm = profile_matrices(L, max(1, L // 4), rho, beta)
                assert _theta_factorization_deviation(pm) == _theta_loop(pm)
        for P in sorted({1, 2, L // 3, L // 2, L // 2 + 1, 2 * L // 3, L - 1, L}
                        & set(range(1, L + 1))):
            assert _overlap_table_deviation(L, P) == _overlap_loop(L, P) == 0


def test_flat_nu_exact_matches_fraction_loop():
    for L, P, Nc in ((2, 1, 1), (2, 2, 5), (3, 2, 1), (41, 13, 7), (41, 41, 41),
                     (41, 20, 100), (200, 200, 50), (8000, 800, 2000),
                     (8000, 8000, 2000), (8000, 5600, 20000)):
        assert flat_nu_exact(L, P, Nc) == _flat_nu_loop(L, P, Nc)
    # past L = 1.3e6 the int64 count could wrap: refused, not rounded
    with pytest.raises(ValueError):
        flat_nu_exact(1_400_000, 1, 1)


# -- Monte Carlo cross-checks ------------------------------------------------

def test_mc_gain_ratio_matches_finite_sum():
    est = mc_gain_ratio(400, 10.0, 0.1, trials=500, master_seed=2024)
    fin = finite_mu(400, 10.0, 0.1)
    # per-realization ratio averages carry an O(1/fingers) bias, hence 5%
    assert abs(est.mean - fin) / fin < 0.05
    assert 0.0 < est.se < 0.05
    again = mc_gain_ratio(400, 10.0, 0.1, trials=500, master_seed=2024)
    assert again.mean == est.mean and again.se == est.se


def test_convergence_table_mu_nu():
    rows = convergence_table("mu", (500, 1000, 2000, 4000), 10.0, 0.1)
    errs = [r.rel_err for r in rows]
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] < 1e-3
    rows = convergence_table("nu", (500, 1000, 2000, 4000), 10.0, 0.3, load=0.85)
    errs = [r.rel_err for r in rows]
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] < 1e-3


def test_convergence_table_exact_subcases():
    # flat and full-combining references are exact at every size
    for rows in (convergence_table("mu", (50, 100, 200), 1.0, 0.3),
                 convergence_table("nu", (50, 100, 200), 1.0, 0.3)):
        assert all(r.rel_err < 1e-12 for r in rows)


def test_convergence_table_mc():
    rows = convergence_table("gain_ratio_mc", (100, 400, 1600), 10.0, 0.1,
                             trials=300)
    assert rows[-1].rel_err < rows[0].rel_err


def test_convergence_table_rejects_unsorted():
    with pytest.raises(ValueError):
        convergence_table("mu", (400, 200), 10.0, 0.1)
    with pytest.raises(ValueError):
        convergence_table("typo", (200, 400), 10.0, 0.1)


# -- audit report ------------------------------------------------------------

def test_audit_all_rows_pass_at_moderate_size():
    rows = oracle_audit(1600)
    assert all(r.passed for r in rows)
    assert len(rows) >= 35


def test_audit_covers_every_region_and_kind():
    rows = oracle_audit(800, mc_trials=50)
    names = {r.name for r in rows}
    for i in (1, 2, 3, 4, 5):
        assert f"self_coefficient_region{i}" in names
        assert f"self_lag_mass_region{i}" in names
    for needed in ("cross_coefficient", "cross_coefficient_flat_exact",
                   "cross_coefficient_full_exact", "self_coefficient_flat_exact",
                   "self_coefficient_flat_full_exact", "captured_energy_density",
                   "cross_gain_ratio_identity", "overlap_count_table_low_fraction",
                   "overlap_count_table_high_fraction", "collision_weight_cases",
                   "energy_ratio_mc", "full_combining_power_form",
                   "loss_factorization"):
        assert needed in names
    kinds = {r.kind for r in rows}
    assert kinds == {"limit", "identity", "mc"}


def test_audit_quantifies_near_miss_variants():
    rows = {r.name: r for r in oracle_audit(800, mc_trials=50)}
    assert "l <= i" in rows["overlap_count_table_low_fraction"].note


def test_audit_deterministic():
    a = oracle_audit(800, mc_trials=50)
    b = oracle_audit(800, mc_trials=50)
    assert [(r.name, r.value, r.rel_err) for r in a] == \
        [(r.name, r.value, r.rel_err) for r in b]


def test_intermediates_flat_profile_smoke():
    rows = appendix_intermediates(800, 1.0, 0.3, 0.5, mc_trials=50)
    assert all(r.passed for r in rows)
