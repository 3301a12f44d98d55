"""Rake gain coefficients: exact finite-size identities and estimates."""

import math

import numpy as np
import pytest

import rakepower.gains as gains_module
from rakepower import (ApdpProfile, LinkGains, RakeSelector, SpreadingConfig,
                       link_gains, sample_channel_bank, sample_topology, sinr,
                       substream)
from rakepower.gains import _phi_squared


def _bank(K, L, rho=10.0, seed=101, trial=0):
    # the users are fixed across trials: drawn once, on the trial-0 substream
    variances = sample_topology(K, 3.0, 20.0, substream(seed, 0))
    return sample_channel_bank(ApdpProfile(L, rho), variances, seed, trial)


def test_finger_count_floor_and_nudge():
    assert RakeSelector(0.3).finger_count(200) == 60
    assert RakeSelector(0.1).finger_count(200) == 20
    assert RakeSelector(1.0).finger_count(137) == 137
    assert RakeSelector(0.5).finger_count(3) == 1
    assert RakeSelector(0.001).finger_count(10) == 1  # clamped to >= 1
    assert RakeSelector(0.7).finger_count(10) == 7


def test_phi_squared_values():
    # below a frame's length the weight is 1; near the end it tapers
    phi_sq = _phi_squared(50, 200)  # entry l - 1 holds lag l
    assert phi_sq.shape == (199,)
    assert phi_sq[0] == 1.0
    assert phi_sq[149] == 1.0
    assert phi_sq[159] == 40.0 / 50.0
    assert phi_sq[189] == 10.0 / 50.0
    assert phi_sq[198] == 1.0 / 50.0


def _loop_gains(gains_list, selector, spreading, sigma_sq):
    """Independent reference: scalar loops straight from the definitions.

    Column i of a vector's lag matrix holds its last i entries shifted to
    the top, so (Y^H x)_i = sum_{m=1}^{i} conj(y_{L-i+m}) x_m (1-based);
    the collision weight phi_i applies per column.
    """
    K = len(gains_list)
    L = gains_list[0].size
    N = spreading.processing_gain
    Nc = spreading.chips_per_frame
    phi_sq = [min(L - i, Nc) / Nc for i in range(1, L)]
    P = selector.finger_count(L)
    weights = [np.where(np.arange(L) < P, a, 0) for a in gains_list]
    h_sp = np.array([np.vdot(c, a).real for a, c in zip(gains_list, weights)])

    def col_sum(x, y, i):
        # x against column i (1-based) of the matrix built from y
        return sum(np.conj(y[L - i + m]) * x[m] for m in range(i))

    h_si = np.zeros(K)
    h_mai = np.zeros((K, K))
    for k in range(K):
        a, c = gains_list[k], weights[k]
        total = 0.0
        for i in range(1, L):
            v = col_sum(a, c, i) + col_sum(c, a, i)
            total += phi_sq[i - 1] * abs(v) ** 2
        h_si[k] = total / (N * h_sp[k])
        for j in range(K):
            if j == k:
                continue
            aj = gains_list[j]
            cross = abs(np.vdot(c, aj)) ** 2
            for i in range(1, L):
                cross += abs(col_sum(aj, c, i)) ** 2 + abs(col_sum(c, aj, i)) ** 2
            h_mai[k, j] = cross / (N * h_sp[k])
    return h_sp, h_si, h_mai


def test_hand_worked_two_user_bank():
    # L=3, Nc=2, Nf=5, fingers=2; values frozen from the scalar expansion
    a0 = np.array([1.0 + 0.5j, -0.25 + 1.0j, 0.5 - 0.5j])
    a1 = np.array([0.5 - 1.0j, 1.0 + 0.0j, -0.5 + 0.25j])
    out = link_gains([a0, a1], RakeSelector(2.0 / 3.0), SpreadingConfig(5, 2), 1e-3)
    assert out.h_sp == pytest.approx([2.3125, 2.25], rel=1e-14)
    assert out.h_si == pytest.approx([0.10337837837837839, 0.1354166666666667], rel=1e-13)
    assert out.h_mai[0, 1] == pytest.approx(0.37787162162162163, rel=1e-13)
    assert out.h_mai[1, 0] == pytest.approx(0.33125, rel=1e-13)
    ref_sp, ref_si, ref_mai = _loop_gains([a0, a1], RakeSelector(2.0 / 3.0),
                                          SpreadingConfig(5, 2), 1e-3)
    assert out.h_sp == pytest.approx(ref_sp, rel=1e-13)
    assert out.h_si == pytest.approx(ref_si, rel=1e-13)
    assert np.allclose(out.h_mai, ref_mai, rtol=1e-13, atol=0)


def test_link_gains_match_loop_reference():
    bank = _bank(3, 12, rho=7.0, seed=31)
    selector = RakeSelector(0.5)
    spreading = SpreadingConfig(frames=4, chips_per_frame=5)
    ref_sp, ref_si, ref_mai = _loop_gains(list(bank), selector, spreading, 1e-3)
    for method in ("spectral", "dense"):
        out = link_gains(bank, selector, spreading, 1e-3, method=method)
        assert np.allclose(out.h_sp, ref_sp, rtol=1e-12, atol=0)
        assert np.allclose(out.h_si, ref_si, rtol=1e-12, atol=0)
        assert np.allclose(out.h_mai, ref_mai, rtol=1e-12, atol=0)


def test_fast_len_is_the_next_2_3_5_smooth_integer():
    # brute force: walk down from 20000 (= 2^5 5^4, itself smooth), keeping
    # the nearest smooth integer at or above n
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    nearest = 20000
    for n in range(20000, 0, -1):
        if smooth(n):
            nearest = n
        assert gains_module._fast_len(n) == nearest, n
    with pytest.raises(ValueError):
        gains_module._fast_len(0)


@pytest.mark.parametrize("L, nfft", [(80, 160), (200, 400), (2000, 4000)])
def test_link_gains_transform_length(monkeypatch, L, nfft):
    # the golden and benchmark path counts keep the lengths they had under
    # scipy.fft.next_fast_len
    lengths = []
    fft = gains_module.fft

    def spy(x, n, axis):
        lengths.append(n)
        return fft(x, n=n, axis=axis)

    monkeypatch.setattr(gains_module, "fft", spy)
    link_gains(_bank(2, L), RakeSelector(0.3), SpreadingConfig(20, 50), 5e-16)
    assert lengths == [nfft, nfft]


def test_spectral_equals_dense():
    bank = _bank(4, 60, rho=10.0, seed=5)
    selector = RakeSelector(0.3)
    spreading = SpreadingConfig(frames=6, chips_per_frame=20)
    spectral = link_gains(bank, selector, spreading, 5e-16, method="spectral")
    dense = link_gains(bank, selector, spreading, 5e-16, method="dense")
    assert np.allclose(spectral.h_sp, dense.h_sp, rtol=1e-12, atol=0)
    assert np.allclose(spectral.h_si, dense.h_si, rtol=1e-12, atol=0)
    assert np.allclose(spectral.h_mai, dense.h_mai, rtol=1e-12, atol=0)


@pytest.mark.parametrize("K, L, beta, chips", [
    (3, 2, 0.5, 1),      # shortest channel, one chip per frame
    (3, 2, 1.0, 4),      # all-rake with chips per frame above L
    (2, 9, 1.0, 3),      # odd L, all-rake
    (4, 10, 0.3, 10),    # even L, chips per frame equal to L
    (3, 17, 0.5, 40),    # odd L, chips per frame above L
    (1, 12, 0.5, 5),     # one user: h_mai is a 1 x 1 zero
])
def test_spectral_edge_shapes(K, L, beta, chips):
    bank = _bank(K, L, rho=5.0, seed=40 + L)
    selector = RakeSelector(beta)
    spreading = SpreadingConfig(frames=3, chips_per_frame=chips)
    spectral = link_gains(bank, selector, spreading, 1e-3)
    as_list = link_gains(list(bank), selector, spreading, 1e-3)
    dense = link_gains(bank, selector, spreading, 1e-3, method="dense")
    ref_sp, ref_si, ref_mai = _loop_gains(list(bank), selector, spreading, 1e-3)
    assert np.array_equal(as_list.h_sp, spectral.h_sp)
    assert np.array_equal(as_list.h_si, spectral.h_si)
    assert np.array_equal(as_list.h_mai, spectral.h_mai)
    assert spectral.h_mai.shape == (K, K)
    assert np.all(np.diag(spectral.h_mai) == 0.0)
    for ref in ((dense.h_sp, dense.h_si, dense.h_mai), (ref_sp, ref_si, ref_mai)):
        assert np.allclose(spectral.h_sp, ref[0], rtol=1e-12, atol=0)
        assert np.allclose(spectral.h_si, ref[1], rtol=1e-12, atol=0)
        assert np.allclose(spectral.h_mai, ref[2], rtol=1e-12, atol=0)


def test_arake_combining_gain_is_channel_energy():
    bank = _bank(2, 40, seed=9)
    out = link_gains(bank, RakeSelector(1.0), SpreadingConfig(10, 25), 1e-9)
    for k, ch in enumerate(bank):
        assert out.h_sp[k] == pytest.approx(np.sum(np.abs(ch) ** 2), rel=1e-12)


def test_prake_combining_gain_is_captured_energy():
    bank = _bank(2, 40, seed=9)
    out = link_gains(bank, RakeSelector(0.25), SpreadingConfig(10, 25), 1e-9)
    for k, ch in enumerate(bank):
        captured = float(np.sum(np.abs(ch[:10]) ** 2))
        assert out.h_sp[k] == pytest.approx(captured, rel=1e-12)


def test_single_path_channel_has_no_self_interference():
    bank = _bank(2, 1, rho=1.0, seed=3)
    out = link_gains(bank, RakeSelector(1.0), SpreadingConfig(5, 10), 1e-6)
    assert np.array_equal(out.h_si, np.zeros(2))
    assert np.all(np.isinf(out.si_ratio))
    # cross term survives: only the zero-lag collision remains
    assert out.h_mai[0, 1] > 0


def test_user_permutation_consistency():
    bank = _bank(4, 30, seed=77)
    selector = RakeSelector(0.5)
    spreading = SpreadingConfig(4, 10)
    out = link_gains(bank, selector, spreading, 1e-9)
    perm = [2, 0, 3, 1]
    out_p = link_gains([bank[i] for i in perm], selector, spreading, 1e-9)
    assert np.allclose(out_p.h_sp, out.h_sp[perm], rtol=1e-14, atol=0)
    assert np.allclose(out_p.h_si, out.h_si[perm], rtol=1e-14, atol=0)
    for a, ka in enumerate(perm):
        for b, kb in enumerate(perm):
            assert out_p.h_mai[a, b] == pytest.approx(out.h_mai[ka, kb], rel=1e-14, abs=0)


def test_gain_scaling_in_processing_gain():
    # h_si and h_mai scale as 1/N at fixed chips per frame; h_sp is unchanged
    bank = _bank(3, 24, seed=13)
    selector = RakeSelector(0.5)
    g1 = link_gains(bank, selector, SpreadingConfig(1, 8), 1e-9)
    g4 = link_gains(bank, selector, SpreadingConfig(4, 8), 1e-9)
    assert np.allclose(g4.h_sp, g1.h_sp, rtol=1e-14, atol=0)
    assert np.allclose(g4.h_si, g1.h_si / 4.0, rtol=1e-14, atol=0)
    assert np.allclose(g4.h_mai, g1.h_mai / 4.0, rtol=1e-14, atol=0)


def test_sinr_power_monotonicity():
    bank = _bank(3, 30, seed=21)
    out = link_gains(bank, RakeSelector(0.5), SpreadingConfig(10, 15), 5e-16)
    p = np.full(3, 1e-8)
    base = [sinr(out, p, k) for k in range(3)]
    p_up = p.copy()
    p_up[0] *= 2.0
    assert sinr(out, p_up, 0) > base[0]
    assert sinr(out, p_up, 1) < base[1]
    assert sinr(out, p_up, 2) < base[2]


def test_sinr_refuses_a_power_shape_or_user_outside_the_bank():
    out = link_gains(_bank(3, 30, seed=21), RakeSelector(0.5), SpreadingConfig(10, 15), 5e-16)
    with pytest.raises(ValueError, match="one entry per user"):
        sinr(out, np.full(2, 1e-8), 0)
    for k in (-1, 3):
        with pytest.raises(IndexError, match=r"user index .* outside 0\.\.2"):
            sinr(out, np.full(3, 1e-8), k)


def _si_ratio_violations(path_count, chips, trials, seed, block=50):
    # each trial keeps its own substreams; the one-user banks go to
    # link_gains as (block, 1, L) stacks
    spreading = SpreadingConfig(frames=1, chips_per_frame=chips)
    selector = RakeSelector(0.3)
    prof = ApdpProfile(path_count, 10.0)
    bad = []
    for start in range(0, trials, block):
        ts = range(start, min(start + block, trials))
        stack = np.array([sample_channel_bank(
            prof, sample_topology(1, 3.0, 20.0, substream(seed, t)), seed, t)
            for t in ts])
        g = link_gains(stack, selector, spreading, 1e-9)
        bad += [ts[i] for i in np.flatnonzero(g.si_ratio[:, 0] < 1.0)]
    return bad


def test_si_headroom_at_least_one():
    # the headroom ratio h_sp / h_si must not drop below 1; checked at the
    # single-frame processing gain (the hardest case) over 1e4 draws per
    # channel length, with any violating trial seed reported
    import logging
    for path_count in (50, 200):
        bad = _si_ratio_violations(path_count, 50, 10000, seed=888 + path_count)
        for t in bad:
            logging.warning("si_ratio < 1 at L=%d, trial seed (%d, %d)",
                            path_count, 888 + path_count, t)
        if path_count == 200:
            assert bad == [], f"si_ratio < 1 at trials {bad}"


def test_link_gains_stack_keeps_checks():
    # a (F, K) / (F, K, K) stack of banks: per-slice ratios, same guards
    bank = _bank(3, 24, seed=13)
    base = link_gains(bank, RakeSelector(0.5), SpreadingConfig(1, 8), 1e-9)
    scale = np.array([1.0, 2.0, 4.0, 8.0])
    # h_sp is one bank's (K,) and broadcasts against the (F, ...) stack
    stack = LinkGains(base.h_sp, base.h_si / scale[:, None],
                      base.h_mai / scale[:, None, None], 1e-9)
    assert stack.user_count == 3
    assert stack.h_sp.shape == (4, 3) and not stack.h_sp.flags.writeable
    for f, nf in enumerate(scale):
        one = LinkGains(base.h_sp, base.h_si / nf, base.h_mai / nf, 1e-9)
        np.testing.assert_array_equal(stack.si_ratio[f], one.si_ratio)
        np.testing.assert_allclose(stack.mai_ratio_inv[f], one.mai_ratio_inv,
                                   rtol=1e-15, atol=0)
    h_sp, h_si, h_mai = stack.h_sp, stack.h_si, stack.h_mai
    bad_diag = h_mai.copy()
    bad_diag[2, 1, 1] = 1e-6
    negative = h_si.copy()
    negative[3, 0] = -1e-9
    # mismatched K (h_mai with one row would broadcast, were K not checked
    # apart from the leading axes) and leading axes that do not broadcast
    for args in ((h_sp, h_si[:, :2], h_mai), (h_sp[:, :2], h_si[:, :2], h_mai),
                 (h_sp, h_si, h_mai[:, :1]), (h_sp, h_si, h_mai[..., :2]),
                 (h_sp, h_si, h_mai[:3]), (base.h_sp, h_si[:3], h_mai),
                 (h_sp, h_si, bad_diag), (h_sp, negative, h_mai),
                 (-h_sp, h_si, h_mai)):
        with pytest.raises(ValueError):
            LinkGains(*args, sigma_sq=1e-9)


def _block(T, K, L, seed=61):
    return np.array([_bank(K, L, seed=seed, trial=t) for t in range(T)])


@pytest.mark.parametrize("K", [1, 8])
@pytest.mark.parametrize("L", [2, 41, 200])
@pytest.mark.parametrize("beta", [0.1, 1.0])
def test_trial_block_equals_per_bank_calls(K, L, beta):
    block = _block(5, K, L)
    selector = RakeSelector(beta)
    spreading = SpreadingConfig(frames=4, chips_per_frame=10)
    out = link_gains(block, selector, spreading, 1e-9)
    assert out.h_sp.shape == (5, K) and out.h_mai.shape == (5, K, K)
    nested = link_gains(block[:4].reshape(2, 2, K, L), selector, spreading, 1e-9)
    assert nested.h_mai.shape == (2, 2, K, K)
    for t, bank in enumerate(block):
        one = link_gains(list(bank), selector, spreading, 1e-9)
        np.testing.assert_allclose(out.h_sp[t], one.h_sp, rtol=1e-13, atol=0)
        np.testing.assert_allclose(out.h_si[t], one.h_si, rtol=1e-13, atol=0)
        np.testing.assert_allclose(out.h_mai[t], one.h_mai, rtol=1e-13, atol=0)
        assert np.all(np.diag(out.h_mai[t]) == 0.0)
        if t < 4:
            np.testing.assert_array_equal(nested.h_mai[t // 2, t % 2], out.h_mai[t])


_FIELDS = ("h_sp", "h_si", "h_mai")


@pytest.mark.parametrize("L", [41, 80, 200, 1000])
@pytest.mark.parametrize("K", [3, 8])
def test_bank_gains_do_not_depend_on_blocking(L, K):
    # bit for bit: a bank alone, inside a (T, K, L) block of trials and
    # inside a selector sequence over that block
    block = _block(5, K, L, seed=L + K)
    selectors = [RakeSelector(beta) for beta in (1.0, 0.5, 0.1)]
    spreading = SpreadingConfig(frames=20, chips_per_frame=L // 4)
    stacked = link_gains(block, selectors, spreading, 5e-16)
    for s, sel in enumerate(selectors):
        blocked = link_gains(block, sel, spreading, 5e-16)
        for t in (0, 3, 4):
            alone = link_gains(block[t], sel, spreading, 5e-16)
            for field in _FIELDS:
                one = getattr(alone, field)
                np.testing.assert_array_equal(getattr(blocked, field)[t], one)
                np.testing.assert_array_equal(getattr(stacked, field)[s, t], one)


def test_selector_sequence_equals_per_selector_calls(monkeypatch):
    # a leading selector axis, each slice bit for bit its own call; beta = 1
    # reuses the path-gain spectrum, and a repeated fraction repeats its slice
    betas = (1.0, 0.3, 0.1, 0.3)
    spreading = SpreadingConfig(frames=4, chips_per_frame=10)
    block = _block(3, 4, 41)
    for alphas in (block, block[1]):
        out = link_gains(alphas, [RakeSelector(b) for b in betas], spreading, 1e-9)
        assert out.h_sp.shape == (4,) + alphas.shape[:-1]
        assert out.h_mai.shape == out.h_sp.shape + (4,)
        for s, beta in enumerate(betas):
            one = link_gains(alphas, RakeSelector(beta), spreading, 1e-9)
            for field in _FIELDS:
                np.testing.assert_array_equal(getattr(out, field)[s], getattr(one, field))
    # one complex transform for the path gains, one per partial fraction
    lengths = []
    fft = gains_module.fft

    def spy(x, n, axis):
        lengths.append(n)
        return fft(x, n=n, axis=axis)

    monkeypatch.setattr(gains_module, "fft", spy)
    link_gains(block, [RakeSelector(b) for b in betas], spreading, 1e-9)
    assert lengths == [81] * 4


@pytest.mark.parametrize("L, nfft", [(1, 1), (2, 3), (3, 5), (8, 15), (41, 81), (200, 400)])
@pytest.mark.parametrize("beta", [1.0, 0.5])
def test_real_transform_self_interference_matches_dense(L, nfft, beta):
    # |v_d|^2 = 4 |rfft(Re R)_d|^2 / n^2, odd transform lengths included
    assert gains_module._fast_len(2 * L - 1) == nfft
    bank = _bank(3, L, rho=10.0, seed=L)
    selector = RakeSelector(beta)
    spreading = SpreadingConfig(frames=5, chips_per_frame=max(1, L // 3))
    spectral = link_gains(bank, selector, spreading, 1e-9)
    dense = link_gains(bank, selector, spreading, 1e-9, method="dense")
    np.testing.assert_allclose(spectral.h_si, dense.h_si, rtol=1e-12, atol=0)
    np.testing.assert_allclose(spectral.h_mai, dense.h_mai, rtol=1e-12, atol=0)


def test_dense_equals_spectral_on_a_stack_and_selector_sequence():
    # a (2, 3, K, L) stack of banks under three fractions, full combining
    # among them: every bank of every fraction summed lag by lag
    stack = _block(6, 4, 41, seed=17).reshape(2, 3, 4, 41)
    selectors = [RakeSelector(b) for b in (1.0, 0.3, 0.1)]
    spreading = SpreadingConfig(frames=4, chips_per_frame=10)
    spectral = link_gains(stack, selectors, spreading, 1e-9)
    dense = link_gains(stack, selectors, spreading, 1e-9, method="dense")
    assert dense.h_mai.shape == (3, 2, 3, 4, 4)
    np.testing.assert_array_equal(dense.h_sp, spectral.h_sp)
    np.testing.assert_allclose(dense.h_si, spectral.h_si, rtol=1e-12, atol=0)
    np.testing.assert_allclose(dense.h_mai, spectral.h_mai, rtol=1e-12, atol=0)


def test_dense_route_memory_stays_linear_in_paths():
    # one dense call at K = 8, L = 1000 stays under 1 MiB of traced
    # allocations, eight times the (8, 1000) complex bank; two banded
    # L x (L - 1) lag matrices per user took about 256 MiB
    import tracemalloc
    bank = _bank(8, 1000)
    tracemalloc.start()
    try:
        link_gains(bank, RakeSelector(0.3), SpreadingConfig(20, 250), 5e-16, method="dense")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_selector_sequence_temporaries_stay_bounded():
    # the four fractions of a (4, 8, 2000) block share F_a and |F_a|^2 and
    # free each fraction's own spectra before the next, so their traced
    # peak does not grow with the fractions: within 256 KiB of a single
    # fraction's (about 7.9 MiB with numpy 2.4) and under 9.8 MiB
    import tracemalloc
    block = _block(4, 8, 2000)
    spreading = SpreadingConfig(frames=20, chips_per_frame=500)
    fractions = [RakeSelector(b) for b in (1.0, 0.5, 0.3, 0.1)]
    peaks = []
    for selector in (fractions[-1], fractions):
        tracemalloc.start()
        try:
            link_gains(block, selector, spreading, 5e-16)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    single, four = peaks
    assert four <= single + (256 << 10)
    assert four <= 9.8 * 2 ** 20


def test_trial_block_guards_fire_on_one_bad_bank():
    block = _block(4, 3, 16)
    selector, spreading = RakeSelector(0.5), SpreadingConfig(2, 8)
    both = [RakeSelector(1.0), selector]
    silent = block.copy()
    silent[2, 1, :8] = 0.0            # user 1 of trial 2 has nothing on its fingers
    with pytest.raises(ValueError,
                       match=r"^h_sp must be positive and finite; it is not at \[\[2, 1\]\]$"):
        link_gains(silent, selector, spreading, 1e-9)
    # all-rake still sees its later taps; the second selector is the bad one,
    # and LinkGains names the position with the selector axis in front
    with pytest.raises(ValueError, match=r"it is not at \[\[1, 2, 1\]\]$"):
        link_gains(silent, both, spreading, 1e-9)
    # a non-finite path gain is refused before the transforms, whose
    # products would otherwise warn
    for value in (math.nan, math.inf, -math.inf, complex(0.0, math.inf)):
        broken = block.copy()
        broken[2, 1, 15] = value
        with pytest.raises(ValueError, match=r"non-finite path gain at "
                           r"\(\.\.\., user, path\) \[\[2, 1, 15\]\]"):
            link_gains(broken, both, spreading, 1e-9)
    for bad in ([], [selector, 0.5]):
        with pytest.raises(ValueError, match="RakeSelector"):
            link_gains(block, bad, spreading, 1e-9)
    with pytest.raises(ValueError, match="sigma_sq"):
        link_gains(block, selector, spreading, -1e-9)
    with pytest.raises(ValueError):
        link_gains(block[:, :0], selector, spreading, 1e-9)
    # a ragged bank is no (K, L) array
    with pytest.raises(ValueError, match="sequence"):
        link_gains([block[0, 0], block[0, 1, :8]], selector, spreading, 1e-9)
