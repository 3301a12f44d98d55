"""Channel model: decay profile, pathloss, tap statistics, substreams."""

import numpy as np
import pytest
from scipy import stats

from rakepower import (ApdpProfile, NetworkTopology, sample_channel_bank,
                       sample_normals, sample_topology, substream)


def _draws(prof, topo, seed, trials):
    # one user's path gains over many trials, (trials, L)
    normals = sample_normals(seed, range(trials), 1, prof.path_count)[:, 0]
    return prof.path_gains(topo.user_variances[0], normals)


def test_apdp_log_linear_decay():
    prof = ApdpProfile(path_count=200, decay_ratio=10.0)
    var = prof.tap_variances(1.0)
    assert var[0] == 1.0
    assert var[-1] == pytest.approx(0.1, rel=1e-12)
    # constant ratio between consecutive taps
    ratios = var[1:] / var[:-1]
    assert np.allclose(ratios, 10.0 ** (-1.0 / 199.0), rtol=1e-12)


def test_apdp_flat_profile():
    var = ApdpProfile(50, 1.0).tap_variances(0.7)
    assert np.allclose(var, 0.7, rtol=0, atol=0)


def test_apdp_single_path():
    assert ApdpProfile(1, 1.0).tap_variances(2.0) == pytest.approx([2.0])


def test_apdp_rejects_increasing_profile():
    with pytest.raises(ValueError):
        ApdpProfile(10, 0.5)
    with pytest.raises(ValueError):
        ApdpProfile(10, float("nan"))


def test_topology_pathloss_law():
    topo = NetworkTopology(distances=np.array([3.0, 10.0, 20.0]))
    assert np.allclose(topo.user_variances, 0.3 * topo.distances ** -2.0)
    assert topo.user_count == 3


def test_sample_topology_bounds():
    topo = sample_topology(500, 3.0, 20.0, substream(99, 0))
    assert topo.user_count == 500
    assert topo.distances.min() >= 3.0
    assert topo.distances.max() <= 20.0


def test_substream_determinism_and_independence():
    a = substream(42, 3, 1).standard_normal(8)
    b = substream(42, 3, 1).standard_normal(8)
    c = substream(42, 3, 2).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_bank_determinism_and_trial_decorrelation():
    prof = ApdpProfile(32, 10.0)
    topo = NetworkTopology(distances=np.array([5.0, 12.0]))
    bank1 = sample_channel_bank(prof, topo, 7, trial=4)
    bank2 = sample_channel_bank(prof, topo, 7, trial=4)
    bank3 = sample_channel_bank(prof, topo, 7, trial=5)
    assert bank1.shape == (2, 32)
    for c1, c2, c3 in zip(bank1, bank2, bank3):
        assert np.array_equal(c1, c2)
        assert not np.array_equal(c1, c3)


def _reference_bank(prof, topo, seed, trial):
    # per user: the (trial, k) substream, real parts then imaginary parts
    bank = []
    for k, variance in enumerate(topo.user_variances):
        rng = substream(seed, trial, k)
        re = rng.standard_normal(prof.path_count)
        im = rng.standard_normal(prof.path_count)
        bank.append(np.sqrt(prof.tap_variances(variance) / 2.0) * (re + 1j * im))
    return np.array(bank)


def test_bank_draws_match_per_user_substreams():
    # user k's channel comes from the (trial, k) substream regardless of K
    prof = ApdpProfile(16, 4.0)
    topo = NetworkTopology(distances=np.array([5.0, 12.0, 8.0]))
    bank = sample_channel_bank(prof, topo, 123, trial=2)
    assert np.array_equal(bank, _reference_bank(prof, topo, 123, 2))
    first = NetworkTopology(distances=topo.distances[:1])
    assert np.array_equal(sample_channel_bank(prof, first, 123, trial=2), bank[:1])


@pytest.mark.parametrize("K, L, rho", [(1, 2, 10.0), (3, 6, 1.0), (4, 9, 2.0)])
def test_block_draws_match_the_reference_bit_for_bit(K, L, rho):
    # a (T, K, L) block, rescaled per profile, is the per-user reference draw
    topo = NetworkTopology(distances=np.linspace(4.0, 15.0, K))
    trials = range(3, 6)
    normals = sample_normals(11, trials, K, L)
    assert normals.shape == (3, K, L)
    for prof in (ApdpProfile(L, rho), ApdpProfile(L, 100.0)):
        block = prof.path_gains(np.broadcast_to(topo.user_variances, (3, K)), normals)
        for i, t in enumerate(trials):
            assert np.array_equal(block[i], _reference_bank(prof, topo, 11, t))


def test_channel_draw_order_real_then_imag():
    prof = ApdpProfile(6, 2.0)
    topo = NetworkTopology(distances=np.array([4.0]))
    gains = sample_channel_bank(prof, topo, 11, 0)[0]
    rng = substream(11, 0, 0)
    re = rng.standard_normal(6)
    im = rng.standard_normal(6)
    scale = np.sqrt(prof.tap_variances(topo.user_variances[0]) / 2.0)
    assert np.array_equal(gains, scale * (re + 1j * im))


def test_tap_moments():
    # aggregate over taps and draws; per-tap SE of the variance is var/sqrt(n)
    prof = ApdpProfile(8, 10.0)
    topo = NetworkTopology(distances=np.array([5.0]))
    var = prof.tap_variances(topo.user_variances[0])
    n = 4000
    draws = _draws(prof, topo, 5, n)
    assert np.allclose(draws.mean(axis=0), 0.0, atol=5.0 * np.sqrt(var / n))
    emp = np.mean(np.abs(draws) ** 2, axis=0)
    assert np.allclose(emp, var, rtol=0, atol=5.0 * var / np.sqrt(n))
    # circularity: E[g^2] = 0 for proper complex Gaussians
    assert np.allclose(np.mean(draws ** 2, axis=0), 0.0, atol=5.0 * var / np.sqrt(n))


def test_tap_envelope_is_rayleigh():
    prof = ApdpProfile(4, 10.0)
    topo = NetworkTopology(distances=np.array([5.0]))
    var = prof.tap_variances(topo.user_variances[0])
    draws = _draws(prof, topo, 17, 3000)
    for l in range(4):
        env = np.abs(draws[:, l])
        _, pvalue = stats.kstest(env, "rayleigh", args=(0.0, np.sqrt(var[l] / 2.0)))
        assert pvalue > 0.01


def test_variance_scale_covariance():
    # doubling the per-user variance scales every draw by sqrt(2)
    base = NetworkTopology(distances=np.array([6.0]), path_variance_scale=0.3)
    doubled = NetworkTopology(distances=np.array([6.0]), path_variance_scale=0.6)
    prof = ApdpProfile(12, 10.0)
    g1 = sample_channel_bank(prof, base, 3, 0)
    g2 = sample_channel_bank(prof, doubled, 3, 0)
    assert np.allclose(g2, np.sqrt(2.0) * g1, rtol=1e-12)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        NetworkTopology(distances=np.array([-1.0]))
    with pytest.raises(ValueError):
        sample_topology(0, 3.0, 20.0, substream(0))
    with pytest.raises(ValueError):
        sample_topology(2, 20.0, 3.0, substream(0))
