"""Finite-size oracle: dual paths, exact subcases, MC cross-checks, audit."""

import operator
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from rakepower import (LsaParams, SpreadingConfig, finite_mu, finite_nu, flat_mu_exact,
                       flat_nu_exact, mc_gain_ratio, mu, nu, oracle_audit)
import rakepower.channel as channel
import rakepower.oracle as oracle
from rakepower.gains import RakeSelector, _phi_squared
from rakepower.oracle import (_captured_density, _direct_lags, _mass,
                              _overlap_table_deviation, _profile, _table_lags,
                              _theta_factorization_deviation)


# -- deterministic finite sums -----------------------------------------------

def test_finite_mu_anchor_and_convergence():
    assert finite_mu(400, 10.0, 0.1) == pytest.approx(4.343857, rel=1e-6)
    assert finite_mu(4000, 10.0, 0.1) == pytest.approx(mu(10.0, 0.1), rel=1e-3)


def test_finite_nu_dual_paths_agree():
    # finite_nu evaluates the lag sum directly and through the overlap-count
    # block tables and refuses to answer if they split
    cases = [
        (40, 10, 10.0, 0.3), (40, 10, 10.0, 0.7), (40, 40, 2.0, 0.5),
        (40, 60, 5.0, 0.25), (41, 13, 7.0, 1.0), (2, 1, 3.0, 0.5),
        (3, 2, 1.0, 1.0), (50, 7, 1.0, 0.06),
    ]
    # an FFT lag sum errs by about eps * v[0]^2, which at two paths and
    # rho = 1e4 already breaks the 1e-12 agreement finite_nu demands
    cases += [(L, 50, rho, beta) for L in (2, 3) for rho in (1e4, 1e6)
              for beta in (0.1, 0.5, 1.0)]
    for L, Nc, rho, beta in cases:
        v, P = _profile(L, rho, beta)
        phi_sq = _phi_squared(Nc, L)
        direct = _mass(_direct_lags(v, P), phi_sq)
        assert finite_nu(L, Nc, rho, beta) == pytest.approx(
            direct / _captured_density(v, P) ** 2, rel=1e-13)
        assert direct == pytest.approx(_mass(_table_lags(v, P), phi_sq), rel=1e-12)


def test_finite_nu_tracks_each_branch():
    # one point per analytic region, both sides of beta = 1/2 for the shared
    # branches; finite error at L=2000 is a few parts in 1e4
    L = 2000
    points = [(0.3, 0.2), (0.3, 0.5), (0.7, 0.5), (0.3, 0.85), (0.7, 0.8),
              (0.3, 2.0), (0.7, 2.0)]
    for beta, lam in points:
        fin = finite_nu(L, round(lam * L), 10.0, beta)
        assert fin == pytest.approx(nu(10.0, beta, lam), rel=2e-3)


_AT_TWO_PATHS = LsaParams(rho=10.0, beta=0.5, users=2, sigma_sq=1e-9,
                          spreading=SpreadingConfig(1, 1), path_count=2)


@pytest.mark.parametrize("call, message", [
    (lambda: _profile(1, 10.0, 0.5), "path_count must be >= 2"),
    (lambda: finite_nu(40, 0, 10.0, 0.5), "chips_per_frame must be >= 1"),
    (lambda: flat_mu_exact(10, 0), r"finger_count must be in 1\.\.path_count"),
    (lambda: flat_mu_exact(10, 11), r"finger_count must be in 1\.\.path_count"),
    (lambda: flat_nu_exact(10, 0, 5), r"finger_count must be in 1\.\.path_count"),
    (lambda: flat_nu_exact(10, 11, 5), r"finger_count must be in 1\.\.path_count"),
    (lambda: mc_gain_ratio(40, 10.0, 0.5, trials=1), "trials must be >= 2"),
    (lambda: oracle_audit(_AT_TWO_PATHS, mc_trials=10, master_seed=1), "path_count must be >= 3"),
], ids=["profile_paths", "finite_nu_chips", "flat_mu_no_finger", "flat_mu_fingers",
        "flat_nu_no_finger", "flat_nu_fingers", "mc_trials", "audit_paths"])
def test_oracle_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_finite_nu_refuses_routes_that_split(monkeypatch):
    table_lags = oracle._table_lags
    monkeypatch.setattr(oracle, "_table_lags",
                        lambda v, fingers: table_lags(v, fingers) * (1.0 + 1e-9))
    # a failed certificate, as an uncertified equilibrium is: no refused input
    with pytest.raises(RuntimeError, match="self-interference evaluation orders disagree"):
        finite_nu(40, 10, 10.0, 0.3)


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
    target = nu(1.0, 0.3, 0.85)
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


def test_profile_invariants():
    v, fingers = _profile(50, 10.0, 0.3)
    assert fingers == 15
    assert v[0] == 1.0
    assert v[-1] == pytest.approx(0.1, rel=1e-12)


# -- evaluation routes against per-lag loop references -----------------------
# The loops below are the lag-by-lag forms the vectorised routes replaced.

def _taps(L, P, Nc, rho):
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


def _theta_loop(v, P, rho):
    L = v.size
    mask = (np.arange(L) < P).astype(float)
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
                    v, mask, phi_sq = _taps(L, P, Nc, rho)
                    assert _mass(_direct_lags(v, P), phi_sq) == pytest.approx(
                        _pair_sum(v, mask, phi_sq), rel=1e-13, abs=0), (L, P, Nc, rho)


def test_table_route_matches_segment_loop():
    # every P from 1 to L crosses both case branches (2P <= L and 2P > L)
    for L in (2, 3, 5, 40, 41, 200):
        for P in sorted({1, 2, L // 2, L // 2 + 1, L - 1, L} & set(range(1, L + 1))):
            for Nc in sorted({1, max(1, L // 3), L, 2 * L}):
                for rho in (1.0, 10.0, 1000.0):
                    v, _, phi_sq = _taps(L, P, Nc, rho)
                    assert _mass(_table_lags(v, P), phi_sq) == pytest.approx(
                        _seg_table(v, P, phi_sq), rel=1e-13, abs=0), (L, P, Nc, rho)


def test_routes_agree_lag_by_lag():
    # each lag sum, not only the phi^2-weighted mass: over this grid the
    # worst max|direct - table| / max|direct| was 1.08e-14 (L = 33,
    # rho = 1e60, beta = 0.01, numpy 2.4), and the bound leaves 4.6 times
    # that for other FFT builds
    for L in (2, 3, 5, 32, 33, 40, 41, 401, 4000, 8000):
        for rho in (1.0, 10.0, 1e4, 1e10, 1e60):
            for beta in (0.01, 0.1, 0.3, 0.5, 0.51, 0.7, 1.0):
                v, P = _profile(L, rho, beta)
                direct, table = _direct_lags(v, P), _table_lags(v, P)
                assert direct.shape == table.shape == (L - 1,)
                assert np.max(np.abs(direct - table)) <= 5e-14 * np.max(np.abs(direct)), \
                    (L, rho, beta)


def test_fft_table_route_matches_direct_route():
    # above 32 paths both routes go by FFT; finite_nu needs them within 1e-12
    for L in (33, 4000, 8000):
        for rho in (1.0, 10.0, 1e6, 1e10):
            for beta in (0.1, 0.5, 0.51, 1.0):
                for load in (0.01, 2.0):
                    v, P = _profile(L, rho, beta)
                    phi_sq = _phi_squared(max(1, round(load * L)), L)
                    assert _mass(_table_lags(v, P), phi_sq) == pytest.approx(
                        _mass(_direct_lags(v, P), phi_sq), rel=1e-12, abs=0), \
                        (L, rho, beta, load)


def test_elementwise_checks_match_lag_loops():
    # the factorization row sweeps taps 1..P in blocks of _TAP_BLOCK = 4:
    # P = 7, 8, 9, 15, 16, 17, 32 and 33 end the sweep in a partial, a full
    # or a single-tap block (also for blocks of 8 and 16), and P = L - 1 and
    # L sweep all taps but the last or all of them; 1e60 is the largest decay
    # ratio the CLI accepts. At 1 + 2.3e-13 the power law steps by less than
    # an ulp, where scaling each lag by its first tap leans on monotone
    # rounding
    for L in (2, 3, 40, 41, 401, 1000):
        for rho in (1.0, 1 + 2.3e-13, 10.0, 1e4, 1e60):
            for beta in (0.01, 0.3, 0.5, 0.7, 1.0):
                v, P = _profile(L, rho, beta)
                assert _theta_factorization_deviation(v, P, rho) == _theta_loop(v, P, rho)
        for rho in (10.0, 1e60):
            v, _ = _profile(L, rho, 1.0)
            for P in sorted({1, 7, 8, 9, 15, 16, 17, 32, 33, L - 1, L}
                            & set(range(1, L + 1))):
                assert _theta_factorization_deviation(v, P, rho) == _theta_loop(v, P, rho), \
                    (L, rho, P)
        for P in sorted({1, 2, L // 3, L // 2, L // 2 + 1, 2 * L // 3, L - 1, L}
                        & set(range(1, L + 1))):
            assert _overlap_table_deviation(L, P) == _overlap_loop(L, P) == 0


def test_factorization_row_catches_a_shifted_u2_prefix(monkeypatch):
    # u2 = [l <= P - L + i] becomes [l <= P - L + i + 1] on the factorized
    # side only: at lag L - P tap 1 weighs 4 there against 1 on the direct
    # side. At P = L the shift moves no pair, since u2 covers all of 1..i.
    real = oracle._u2
    monkeypatch.setattr(oracle, "_u2", lambda L_, P_: real(L_, P_ + 1))
    for L in (40, 41, 401):
        for rho in (1.0, 10.0, 1e60):
            v, _ = _profile(L, rho, 1.0)
            for P in range(1, L):
                assert _theta_factorization_deviation(v, P, rho) > oracle._IDENTITY_TOL, \
                    (L, rho, P)


def test_factorization_row_catches_a_perturbed_tap():
    # only taps l <= P are swept: a tap past the last finger enters the row
    # only as the partner m of tap 1, which still sets its lag's scale
    L, P = 41, 5
    for rho in (1.0, 10.0, 1e60):
        v, _ = _profile(L, rho, 1.0)
        assert _theta_factorization_deviation(v, P, rho) <= oracle._IDENTITY_TOL
        for k in range(L):
            bad = v.copy()
            bad[k] *= 1 + 1e-9
            assert _theta_factorization_deviation(bad, P, rho) > oracle._IDENTITY_TOL, (rho, k)


def test_factorization_row_memory_stays_blockwise():
    # a block of taps at a time into two buffers traces 1.03 MiB at beta 0.1
    # and 1.15 MiB at beta 1; blocks of 8 taps traced 1.52 and 1.64 MiB, and
    # fresh temporaries and a per-block maximum sweep 2.05 MiB (numpy 2.4).
    # All of the 6.1 M swept pairs at once (beta 0.1) would trace about 50 MB
    # per float array, and all 32 M at beta 1 (every tap swept) about 256 MB
    for beta in (0.1, 1.0):
        v, P = _profile(8000, 10.0, beta)
        tracemalloc.start()
        try:
            _theta_factorization_deviation(v, P, 10.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.4 * 2 ** 20, beta


def test_lag_matrix_structure():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    # column i holds the last i entries of a, top-aligned
    expected = np.array([
        [4, 3, 2],
        [0, 4, 3],
        [0, 0, 4],
        [0, 0, 0],
    ], dtype=float)
    assert np.array_equal(oracle._lag_matrix(a), expected)
    # the 1-based law entry by entry: A[l, i] = x[L + l - i] for l <= i, an
    # exact zero below; float64 and C-contiguous, from real taps
    for L in (1, 2, 3, 40, 400):
        x = np.sqrt(np.arange(1, L + 1)) * 0.75
        A = oracle._lag_matrix(x)
        assert A.dtype == np.float64 and A.shape == (L, L - 1)
        assert A.flags["C_CONTIGUOUS"]
        entries, xs = A.tolist(), x.tolist()
        for l in range(1, L + 1):
            for i in range(1, L):
                want = xs[L + l - i - 1] if l <= i else 0.0
                assert entries[l - 1][i - 1] == want, (L, l, i)


def test_gram_rows_keep_the_bits_of_the_whole_lag_matrix(monkeypatch):
    # the Gram deviation squares and sums the lag matrix a block of rows at a
    # time; each row's pairwise sum, and so the row's deviation, keeps the
    # bits of the whole matrix, for blocks that split the rows unevenly too
    def whole(v, fingers, combined):
        L = v.size
        source = np.where(np.arange(L) < fingers, v, 0.0) if combined else v
        M = oracle._lag_matrix(np.sqrt(source)) / np.sqrt(L)
        cs = np.cumsum(source)
        ref = (cs[-1] - cs) / L
        return float(np.max(np.abs(np.sum(M * M, axis=1) - ref))) / float(ref.max())

    for L in (2, 3, 31, 33, 400, 401):
        for rho in (1.0, 10.0, 1e4):
            v, P = _profile(L, rho, 0.3)
            # one finger leaves no combined tap past tap 1: every reference is 0
            for combined in (False, True) if P > 1 else (False,):
                want = whole(v, P, combined)
                for rows in (1, 7, oracle._GRAM_ROW_BLOCK, 2 * L):
                    monkeypatch.setattr(oracle, "_GRAM_ROW_BLOCK", rows)
                    got = oracle._gram_diag_deviation(v, P, combined)
                    assert got == want, (L, rho, combined, rows)


def _block_mutations(blocks):
    """Each copy of the block list with one field of one block moved by one."""
    for k, block in enumerate(blocks):
        for field in range(6):
            for step in (-1, 1):
                bad = list(blocks)
                bad[k] = block[:field] + (block[field] + step,) + block[field + 1:]
                yield bad


def test_overlap_rows_catch_each_block_mutation_that_moves_the_sum(monkeypatch):
    # _overlap_blocks is the one case table: the table route sums it and the
    # overlap rows certify it. Moving one field of one block by one must
    # break the route, leave its sum within 1e-12, or show in the row.
    moved = 0
    for L in (3, 5, 40, 41, 400, 401):
        v, _ = _profile(L, 10.0, 0.5)
        for beta in (0.01, 0.3, 0.5, 0.51, 0.7, 1.0):
            P = RakeSelector(beta).finger_count(L)
            for Nc in sorted({1, max(1, L // 4), 2 * L}):
                phi_sq = _phi_squared(Nc, L)
                exact = _mass(_table_lags(v, P), phi_sq)
                for bad in _block_mutations(oracle._overlap_blocks(L, P)):
                    with monkeypatch.context() as patch:
                        patch.setattr(oracle, "_overlap_blocks", lambda L_, P_, bad=bad: bad)
                        try:
                            total = _mass(_table_lags(v, P), phi_sq)
                        except ValueError:
                            continue
                        if total != pytest.approx(exact, rel=1e-12, abs=0):
                            moved += 1
                            assert _overlap_table_deviation(L, P) > 0, (L, P, Nc, bad)
    assert moved > 2000


def test_overlap_rows_catch_blocks_of_a_neighbouring_finger_count(monkeypatch):
    real = oracle._overlap_blocks
    for L in (3, 5, 40, 41, 400, 401):
        for P in range(1, L + 1):
            for shift in (-1, 1):
                if 1 <= P + shift <= L:
                    monkeypatch.setattr(oracle, "_overlap_blocks",
                                        lambda L_, P_, shift=shift: real(L_, P_ + shift))
                    assert _overlap_table_deviation(L, P) > 0, (L, P, shift)


def test_flat_nu_exact_matches_fraction_loop():
    for L, P, Nc in ((2, 1, 1), (2, 2, 5), (3, 2, 1), (41, 13, 7), (41, 41, 41),
                     (41, 20, 100), (200, 200, 50), (8000, 800, 2000),
                     (8000, 8000, 2000), (8000, 5600, 20000)):
        assert flat_nu_exact(L, P, Nc) == _flat_nu_loop(L, P, Nc)
    # past L = 1.3e6 the int64 count could wrap: refused, not rounded, and
    # a numpy integer path count does not wrap in the bound itself
    for L in (1_400_000, np.int64(2**21)):
        with pytest.raises(ValueError):
            flat_nu_exact(L, 1, 1)
    # a frame has at least one chip, as in finite_nu: no division by zero
    # and no rational from a negative count
    for chips in (0, -3):
        with pytest.raises(ValueError, match="chips_per_frame must be >= 1"):
            flat_nu_exact(10, 5, chips)


def test_audit_flat_references_round_as_their_fractions():
    # the audit divides the integer counts of each flat reference, which is
    # what float() of the Fraction does: the same double, bit for bit
    for L in (2, 3, 5, 40, 41, 400, 1601, 8000):
        for P in sorted({1, 2, L // 3, L // 2, L - 1, L} & set(range(1, L + 1))):
            assert operator.truediv(*oracle._flat_ratio(L, P)) == float(flat_mu_exact(L, P))
            for Nc in sorted({1, max(1, L // 4), L - 1, L, L + 1, 3 * L} - {0}):
                assert operator.truediv(*oracle._flat_ratio(L, P, Nc)) == \
                    float(flat_nu_exact(L, P, Nc)), (L, P, Nc)
    for beta, load in ((0.1, 0.25), (0.7, 1.25), (1.0, 0.25)):
        rows = {r.name: r for r in _audit(400, mc_trials=50, beta=beta, load=load)}
        P, chips = RakeSelector(beta).finger_count(400), round(load * 400)
        assert rows["cross_coefficient_flat_exact"].reference == float(flat_mu_exact(400, P))
        assert rows["self_coefficient_flat_exact"].reference == \
            float(flat_nu_exact(400, P, chips))
        assert rows["self_coefficient_flat_full_exact"].reference == \
            float(flat_nu_exact(400, 400, chips))


# -- Monte Carlo cross-checks ------------------------------------------------

def test_mc_gain_ratio_matches_finite_sum():
    est = mc_gain_ratio(400, 10.0, 0.1, trials=500, master_seed=2024)
    fin = finite_mu(400, 10.0, 0.1)
    # per-realization ratio averages carry an O(1/fingers) bias, hence 5%
    assert abs(est.mean - fin) / fin < 0.05
    assert 0.0 < est.se < 0.05
    again = mc_gain_ratio(400, 10.0, 0.1, trials=500, master_seed=2024)
    assert again.mean == est.mean and again.se == est.se


def test_mc_gain_ratio_draws_bounded_blocks(monkeypatch):
    # memory stays bounded in the trial count: every trial once, in order,
    # a block of at most _MC_BLOCK_TAPS taps at a time
    blocks, keys = [], []
    draw, derive = oracle._trial_normals, channel._substreams
    monkeypatch.setattr(oracle, "_trial_normals", lambda *args: (
        blocks.append(len(ts)) or (ts, normals) for ts, normals in draw(*args)))
    monkeypatch.setattr(channel, "_substreams", lambda seed, trials, users: keys.extend(
        (t, k) for t in trials for k in range(users)) or derive(seed, trials, users))
    mc_gain_ratio(4000, 10.0, 0.3, trials=9)
    assert keys == [(t, 0) for t in range(9)]
    assert sum(blocks) == 9 and len(blocks) > 1
    assert max(blocks) * 4000 <= oracle._MC_BLOCK_TAPS


def test_convergence_table_exact_subcases():
    # flat sums at beta = 0.3 with a quarter as many chips as paths are
    # exact at every size, not only in the limit
    for L, P, Nc in ((50, 15, 12), (100, 30, 25), (200, 60, 50)):
        assert finite_mu(L, 1.0, 0.3) == pytest.approx(
            float(flat_mu_exact(L, P)), rel=1e-12)
        assert finite_nu(L, Nc, 1.0, 0.3) == pytest.approx(
            float(flat_nu_exact(L, P, Nc)), rel=1e-12)


def test_finite_mu_nu_errors_shrink_with_path_count():
    sizes = (500, 1000, 2000, 4000)
    mu_ref, nu_ref = mu(10.0, 0.1), nu(10.0, 0.3, 0.85)
    for errs in ([abs(finite_mu(L, 10.0, 0.1) - mu_ref) / mu_ref for L in sizes],
                 [abs(finite_nu(L, round(0.85 * L), 10.0, 0.3) - nu_ref) / nu_ref
                  for L in sizes]):
        assert errs == sorted(errs, reverse=True)
        assert errs[-1] < 1e-3


def test_mc_gain_ratio_error_shrinks_with_path_count():
    ref = mu(10.0, 0.1)
    errs = [abs(mc_gain_ratio(L, 10.0, 0.1, trials=300, master_seed=777).mean - ref) / ref
            for L in (100, 1600)]
    assert errs[-1] < errs[0]


# -- audit report ------------------------------------------------------------

def _point(L, rho=10.0, beta=0.1, load=0.25):
    """The audit operating point at L paths, the rest of the reference system."""
    return LsaParams(rho=rho, beta=beta, users=8, sigma_sq=5e-16,
                     spreading=SpreadingConfig(20, round(load * L)), path_count=L)


def _audit(L, mc_trials=500, **point):
    return oracle_audit(_point(L, **point), mc_trials=mc_trials, master_seed=20240)


def test_audit_all_rows_pass_at_moderate_size():
    rows = _audit(1600)
    assert all(r.passed for r in rows)
    assert len(rows) >= 35


def test_audit_covers_every_region_and_kind():
    rows = _audit(800, mc_trials=50)
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
    rows = {r.name: r for r in _audit(800, mc_trials=50)}
    assert "l <= i" in rows["overlap_count_table_low_fraction"].note


def test_audit_deterministic():
    a = _audit(800, mc_trials=50)
    b = _audit(800, mc_trials=50)
    assert [(r.name, r.value, r.rel_err) for r in a] == \
        [(r.name, r.value, r.rel_err) for r in b]


def test_intermediates_flat_profile_smoke():
    rows = _audit(800, mc_trials=50, rho=1.0, beta=0.3, load=0.5)
    assert all(r.passed for r in rows)


def test_audit_evaluates_each_self_lag_mass_once(monkeypatch):
    # each route takes its lag sums once per distinct finger count on the
    # decaying profile, and each (fingers, chips) mass keeps the bits of the
    # standalone routes. At beta 0.3 and 0.7 the operating point is also the
    # point of a decomposition row, and at beta 1 it is the full-combining
    # point
    L = 800
    seen = {"_direct_lags": [], "_table_lags": []}
    for name, calls in seen.items():
        route = getattr(oracle, name)

        def counted(v, fingers, route=route, calls=calls):
            calls.append((v.tobytes(), fingers))
            return route(v, fingers)

        monkeypatch.setattr(oracle, name, counted)
    v, _ = _profile(L, 10.0, 0.1)
    chips = round(0.25 * L)

    def fingers(beta):
        return RakeSelector(beta).finger_count(L)

    def masses(fingers_, chips_):
        phi_sq = _phi_squared(chips_, L)
        return _mass(_direct_lags(v, fingers_), phi_sq), _mass(_table_lags(v, fingers_), phi_sq)

    for beta_op in (0.1, 0.3, 0.7, 1.0):
        for calls in seen.values():
            calls.clear()
        rows = {r.name: r for r in _audit(L, mc_trials=50, beta=beta_op)}
        want = sorted({fingers(b) for b in (0.3, 0.7, beta_op, 1.0)})
        for calls in seen.values():
            assert sorted(f for vb, f in calls if vb == v.tobytes()) == want
        for r, (beta, load) in oracle._REGION_POINTS.items():
            direct, table = masses(fingers(beta), round(load * L))
            assert table == pytest.approx(direct, rel=1e-12, abs=0)
            mass = rows[f"self_lag_mass_region{r}"].value
            assert mass == direct
            assert rows[f"self_coefficient_region{r}"].value == \
                mass / _captured_density(v, fingers(beta)) ** 2
        for name, beta in (("operating_point", beta_op), ("full", 1.0)):
            assert rows[f"self_coefficient_{name}"].value == \
                masses(fingers(beta), chips)[0] / _captured_density(v, fingers(beta)) ** 2
        for label, beta in (("low_fraction", 0.3), ("high_fraction", 0.7)):
            row = rows[f"self_lag_sum_decomposition_{label}"]
            assert (row.reference, row.value) == masses(fingers(beta), chips)


@pytest.mark.parametrize("params, mc_trials, message", [
    (_point(41), 500, "infeasible operating point"),
    (_point(40, beta=1e-20), 500, "nu is not evaluated"),
    (_point(400), 1, "trials must be >= 2"),
    (_AT_TWO_PATHS, 500, "path_count must be >= 3"),
], ids=["infeasible", "no-finite-nu", "one-trial", "two-paths"])
def test_audit_refuses_before_any_finite_sum(monkeypatch, params, mc_trials, message):
    # a point the audit cannot certify raises before the profile or a lag sum
    def never(*args):
        pytest.fail("a finite sum ran before the audit refused its point")

    for name in ("_profile", "_direct_lags", "_table_lags"):
        monkeypatch.setattr(oracle, name, never)
    with pytest.raises(ValueError, match=message):
        oracle_audit(params, mc_trials=mc_trials, master_seed=1)


def test_audit_keeps_no_self_lag_correlations_across_groups():
    # one audit at 8000 paths traces a 1.11 MiB peak. The whole 400-path lag
    # matrix of a Gram row, squared in place, traced 1.31 MiB, and with its
    # square beside it 2.51 MiB; keeping every finger count's lag sums to the
    # end of the audit (a cache over them) traced 3.61 MiB. So the bound sits
    # between (numpy 2.4)
    tracemalloc.start()
    try:
        _audit(8000, mc_trials=50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 2 ** 20
