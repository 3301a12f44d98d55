"""Channel model: decay profile, pathloss, tap statistics, substreams."""

import tracemalloc

import numpy as np
import pytest
from scipy import stats

import rakepower.channel as channel
from rakepower import ApdpProfile, sample_channel_bank, sample_topology, substream
# a bank's variances are checked against the table in test_rules.py
from test_rules import (
    check_channel_bank_variances as test_sample_channel_bank_rejects_bad_variances)


def _variances(*distances):
    # the pathloss law: a user at distance d has total variance 0.3 d^-2
    return 0.3 * np.array(distances) ** -2.0


def _normals(seed, trials, K, L, block=4):
    # the complex normals of users 0..K-1 in a range of trials, (T, K, L)
    return np.concatenate([n for _, n in channel._trial_normals(seed, trials, K, L, block)])


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


def _keys(trials, users):
    # the keys _substreams derives, trial major
    return [(t,) if users is None else (t, k)
            for t in trials for k in range(1 if users is None else users)]


def _assert_substreams(seed, trials, users=None):
    streams = list(channel._substreams(seed, trials, users))
    keys = _keys(trials, users)
    assert len(streams) == len(keys)
    for key, stream in zip(keys, streams):
        assert _same_stream(stream, substream(seed, *key)), key


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("width", [1, 2])
def test_batched_streams_are_substream_bit_for_bit(seed, width):
    # keys of one word (t,) or two (t, k): from a start offset, and at the
    # top of the key range
    users = None if width == 1 else 3
    for trials in (range(5, 12), range(2**32 - 4, 2**32)):
        _assert_substreams(seed, trials, users)


@pytest.mark.parametrize("seed", [0, 2**130])
def test_trial_streams_cross_chunk_boundaries(seed):
    # keys on both sides of each boundary between hashing chunks, from a
    # start offset that is not a multiple of the chunk
    trials = range(3, 2 * channel._HASH_CHUNK + 6)
    for users in (None, 3):
        _assert_substreams(seed, trials, users)


@pytest.mark.parametrize("key", [
    (range(2**32, 2**32 + 1), None), (range(2**32 - 1, 2**32 + 1), 3),
    (range(2**64, 2**64 + 1), None), (range(-1, 0), None), (range(-1, 2), 3),
])
def test_batched_streams_reject_key_words_outside_uint32(key):
    # trials and users as _substreams takes them. SeedSequence splits a word
    # of 2^32 or more into two: never wrap it
    with pytest.raises(ValueError):
        next(channel._substreams(7, *key))


@pytest.mark.parametrize("draw", [
    lambda: next(channel._substreams(-1, range(3))),
    lambda: sample_channel_bank(ApdpProfile(4, 10.0), _variances(5.0), -1, 0),
    lambda: substream(-1, 0),
], ids=["batched", "bank", "substream"])
def test_negative_master_seed_is_rejected(draw):
    with pytest.raises(ValueError):
        draw()


def test_streams_are_derived_once_per_call(monkeypatch):
    # the seed's own mixing runs once per call, whatever the trial count,
    # and each key's stream is derived once
    seeded = []
    seed_sequence = channel.SeedSequence
    monkeypatch.setattr(channel, "SeedSequence",
                        lambda seed: seeded.append(seed) or seed_sequence(seed))
    trials = range(2 * channel._HASH_CHUNK + 1)
    assert sum(1 for _ in channel._substreams(7, trials, 2)) == 2 * len(trials)
    assert seeded == [7]


@pytest.mark.parametrize("block", [1, 2, 5, 70])
def test_trial_normals_do_not_depend_on_blocking(block):
    # blocks of up to `block` trials, in order, across the hashing chunk's
    # edge: every trial's normals are those of its own substreams
    trials = range(channel._HASH_CHUNK - 3, channel._HASH_CHUNK + 4)
    blocks = list(channel._trial_normals(5, trials, 2, 3, block))
    assert [t for ts, _ in blocks for t in ts] == list(trials)
    assert all(len(ts) == min(block, trials.stop - ts.start) for ts, _ in blocks)
    for ts, normals in blocks:
        assert normals.shape == (len(ts), 2, 3)
        for t, trial in zip(ts, normals):
            for k, user in enumerate(trial):
                z = substream(5, t, k).standard_normal(6)
                assert np.array_equal(user, z[:3] + 1j * z[3:])


@pytest.mark.parametrize("block", [1, 3, 4])
def test_trial_blocks_draw_each_trial_from_its_own_streams(block):
    # user variances from the (t,) substream, normals from the (t, k) ones
    trials = range(2, 9)
    blocks = list(channel._trial_blocks(11, trials, 3, 5, block))
    assert [t for ts, _, _ in blocks for t in ts] == list(trials)
    for ts, variances, normals in blocks:
        assert variances.shape == (len(ts), 3) and normals.shape == (len(ts), 3, 5)
        for t, v, n in zip(ts, variances, normals):
            assert np.array_equal(v, sample_topology(3, channel._D_MIN, channel._D_MAX,
                                                     substream(11, t)))
            assert np.array_equal(n, _normals(11, range(t, t + 1), 3, 5)[0])


def test_trial_blocks_memory_is_flat_in_the_trial_count():
    # streams are derived a chunk of trials at a time, so the traced peak
    # does not grow with the trial count
    def peak(trials):
        tracemalloc.start()
        try:
            for _ in channel._trial_blocks(0, range(trials), 3, 40, 4):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak(5000) <= peak(200) + 64 * 1024


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
    normals = _normals(11, trials, K, L, block=2)
    assert normals.shape == (3, K, L)
    for prof in (ApdpProfile(L, rho), ApdpProfile(L, 100.0)):
        block = prof.path_gains(np.broadcast_to(v, (3, K)), normals)
        for i, t in enumerate(trials):
            assert np.array_equal(block[i], _reference_bank(prof, v, 11, t))


def test_bank_trial_is_one_integer_key_word():
    # a trial is a key word as in substream: an integer in [0, 2^32), numpy
    # integers included, never truncated
    prof = ApdpProfile(6, 2.0)
    v = _variances(4.0, 9.0)
    for trial in (np.int64(3), np.uint32(3), 2**32 - 1):
        assert np.array_equal(sample_channel_bank(prof, v, 7, trial),
                              _reference_bank(prof, v, 7, int(trial)))
    for trial in (2.5, 3.0, np.float64(3.0)):
        with pytest.raises(TypeError):
            sample_channel_bank(prof, v, 7, trial)
        with pytest.raises(TypeError):
            substream(7, trial)
    for trial in (2**32, -1):
        with pytest.raises(ValueError):
            sample_channel_bank(prof, v, 7, trial)


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
    normals = _normals(3, range(1), 2, prof.path_count)[0]
    v = _variances(6.0, 11.0)
    g1 = prof.path_gains(v, normals)
    g2 = prof.path_gains(2.0 * v, normals)
    assert np.allclose(g2, np.sqrt(2.0) * g1, rtol=1e-12)
