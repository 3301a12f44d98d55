"""Channel model: decay profile, pathloss, tap statistics, substreams."""

import numpy as np
import pytest
from scipy import stats

import rakepower.channel as channel
from rakepower import ApdpProfile, sample_channel_bank, sample_topology, substream


def _variances(*distances):
    # the pathloss law: a user at distance d has total variance 0.3 d^-2
    return 0.3 * np.array(distances) ** -2.0


def _normals(seed, trials, K, L):
    # the complex normals of users 0..K-1 in the given trials, (T, K, L)
    trials = np.asarray(trials)
    return channel._normals(channel._substreams(seed, trials[:, None], np.arange(K)),
                            len(trials), K, L)


def _draws(prof, variance, seed, trials):
    # one user's path gains over many trials, (trials, L)
    normals = _normals(seed, range(trials), 1, prof.path_count)[:, 0]
    return prof.path_gains(variance, normals)


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


@pytest.mark.parametrize("K, d_min, d_max, seed, trial",
                         [(500, 3.0, 20.0, 99, 0), (8, 3.0, 20.0, 12345, 0),
                          (3, 1.0, 2.0, 0, 2), (1, 5.0, 5.0, 7, 1)])
def test_sample_topology_is_pathloss_of_uniform_distances(K, d_min, d_max, seed, trial):
    v = sample_topology(K, d_min, d_max, substream(seed, trial))
    assert isinstance(v, np.ndarray) and v.dtype == float and v.shape == (K,)
    assert np.array_equal(v, 0.3 * substream(seed, trial).uniform(d_min, d_max, K) ** -2.0)
    assert np.all((0.3 * d_max ** -2.0 <= v) & (v <= 0.3 * d_min ** -2.0))


def test_substream_determinism_and_independence():
    a = substream(42, 3, 1).standard_normal(8)
    b = substream(42, 3, 1).standard_normal(8)
    c = substream(42, 3, 2).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# from 2^32 the seed is more than one entropy word; 2^96 + 7 fills the
# pool exactly (no padding, no extra word); 2^130 has five words, more
# than the pool, so the fifth is mixed in after it, and 2^160 + 3 six.
# numpy takes its own integer types as seeds too
_SEEDS = [0, 1, 12345, 2**32 - 1, 2**32, 2**64 + 5, 2**96 + 7, 2**130, 2**160 + 3,
          np.uint64(2**64 - 1)]


def _same_stream(a, b):
    return (a.bit_generator.state == b.bit_generator.state
            and np.array_equal(a.standard_normal(5), b.standard_normal(5)))


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("width", [1, 2])
def test_batched_streams_are_substream_bit_for_bit(seed, width):
    keys = np.random.default_rng(width).integers(0, 2**32, size=(40, width))
    keys[0], keys[1] = 0, 2**32 - 1
    streams = list(channel._substreams(seed, *keys.T))
    assert len(streams) == len(keys)
    for key, stream in zip(keys.tolist(), streams):
        assert _same_stream(stream, substream(seed, *key)), key


@pytest.mark.parametrize("seed", [0, 2**130])
def test_trial_streams_cross_chunk_boundaries(seed):
    # keys on both sides of each boundary between hashing chunks
    stop = 2 * channel._HASH_CHUNK + 3
    for inner, keys in (((), [(t,) for t in range(stop)]),
                        ((np.arange(3),), [(t, k) for t in range(stop) for k in range(3)])):
        streams = list(channel._trial_streams(seed, stop, *inner))
        assert len(streams) == len(keys)
        for key, stream in zip(keys, streams):
            assert _same_stream(stream, substream(seed, *key)), key


@pytest.mark.parametrize("key", [(2**32,), (0, 2**32), (2**64,), (-1,), (3, -1)])
def test_batched_streams_reject_key_words_outside_uint32(key):
    # SeedSequence splits a word of 2^32 or more into two: never wrap it
    with pytest.raises(ValueError):
        next(channel._substreams(7, *(np.array([w]) for w in key)))


@pytest.mark.parametrize("draw", [
    lambda: next(channel._substreams(-1, np.arange(3))),
    lambda: sample_channel_bank(ApdpProfile(4, 10.0), _variances(5.0), -1, 0),
    lambda: substream(-1, 0),
], ids=["batched", "bank", "substream"])
def test_negative_master_seed_is_rejected(draw):
    with pytest.raises(ValueError):
        draw()


def test_bank_determinism_and_trial_decorrelation():
    prof = ApdpProfile(32, 10.0)
    v = _variances(5.0, 12.0)
    bank1 = sample_channel_bank(prof, v, 7, trial=4)
    bank2 = sample_channel_bank(prof, v, 7, trial=4)
    bank3 = sample_channel_bank(prof, v, 7, trial=5)
    assert bank1.shape == (2, 32)
    for c1, c2, c3 in zip(bank1, bank2, bank3):
        assert np.array_equal(c1, c2)
        assert not np.array_equal(c1, c3)


def _reference_bank(prof, variances, seed, trial):
    # per user: the (trial, k) substream, real parts then imaginary parts
    bank = []
    for k, variance in enumerate(variances):
        rng = substream(seed, trial, k)
        re = rng.standard_normal(prof.path_count)
        im = rng.standard_normal(prof.path_count)
        bank.append(np.sqrt(prof.tap_variances(variance) / 2.0) * (re + 1j * im))
    return np.array(bank)


def test_bank_draws_match_per_user_substreams():
    # user k's channel comes from the (trial, k) substream regardless of K
    prof = ApdpProfile(16, 4.0)
    v = _variances(5.0, 12.0, 8.0)
    bank = sample_channel_bank(prof, v, 123, trial=2)
    assert np.array_equal(bank, _reference_bank(prof, v, 123, 2))
    assert np.array_equal(sample_channel_bank(prof, v[:1], 123, trial=2), bank[:1])


@pytest.mark.parametrize("K, L, rho", [(1, 2, 10.0), (3, 6, 1.0), (4, 9, 2.0)])
def test_block_draws_match_the_reference_bit_for_bit(K, L, rho):
    # a (T, K, L) block, rescaled per profile, is the per-user reference draw
    v = _variances(*np.linspace(4.0, 15.0, K))
    trials = range(3, 6)
    normals = _normals(11, trials, K, L)
    assert normals.shape == (3, K, L)
    for prof in (ApdpProfile(L, rho), ApdpProfile(L, 100.0)):
        block = prof.path_gains(np.broadcast_to(v, (3, K)), normals)
        for i, t in enumerate(trials):
            assert np.array_equal(block[i], _reference_bank(prof, v, 11, t))


def test_channel_draw_order_real_then_imag():
    prof = ApdpProfile(6, 2.0)
    v = _variances(4.0)
    gains = sample_channel_bank(prof, v, 11, 0)[0]
    rng = substream(11, 0, 0)
    re = rng.standard_normal(6)
    im = rng.standard_normal(6)
    scale = np.sqrt(prof.tap_variances(v[0]) / 2.0)
    assert np.array_equal(gains, scale * (re + 1j * im))


def test_tap_moments():
    # aggregate over taps and draws; per-tap SE of the variance is var/sqrt(n)
    prof = ApdpProfile(8, 10.0)
    v = _variances(5.0)[0]
    var = prof.tap_variances(v)
    n = 4000
    draws = _draws(prof, v, 5, n)
    assert np.allclose(draws.mean(axis=0), 0.0, atol=5.0 * np.sqrt(var / n))
    emp = np.mean(np.abs(draws) ** 2, axis=0)
    assert np.allclose(emp, var, rtol=0, atol=5.0 * var / np.sqrt(n))
    # circularity: E[g^2] = 0 for proper complex Gaussians
    assert np.allclose(np.mean(draws ** 2, axis=0), 0.0, atol=5.0 * var / np.sqrt(n))


def test_tap_envelope_is_rayleigh():
    prof = ApdpProfile(4, 10.0)
    v = _variances(5.0)[0]
    var = prof.tap_variances(v)
    draws = _draws(prof, v, 17, 3000)
    for l in range(4):
        env = np.abs(draws[:, l])
        _, pvalue = stats.kstest(env, "rayleigh", args=(0.0, np.sqrt(var[l] / 2.0)))
        assert pvalue > 0.01


def test_variance_scale_covariance():
    # doubling the per-user variance scales every draw by sqrt(2)
    prof = ApdpProfile(12, 10.0)
    normals = _normals(3, (0,), 2, prof.path_count)[0]
    v = _variances(6.0, 11.0)
    g1 = prof.path_gains(v, normals)
    g2 = prof.path_gains(2.0 * v, normals)
    assert np.allclose(g2, np.sqrt(2.0) * g1, rtol=1e-12)


@pytest.mark.parametrize("variances", [[-1.0], [0.0], [1e-3, -1e-3], [np.inf],
                                       [np.nan], [1e-3, np.nan], [], [[1e-3]],
                                       np.float64(1e-3)])
def test_sample_channel_bank_rejects_bad_variances(variances):
    with pytest.raises(ValueError, match="positive, finite"):
        sample_channel_bank(ApdpProfile(4, 10.0), variances, 0, 0)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        sample_topology(0, 3.0, 20.0, substream(0))
    with pytest.raises(ValueError):
        sample_topology(2, 20.0, 3.0, substream(0))
