"""Network topologies and frequency-selective channel realizations.

Each user sees a tapped-delay-line channel with L resolvable paths. Path
amplitudes are independent circular complex Gaussians whose per-tap
variances follow an exponentially decaying average power delay profile
(aPDP): the first-to-last tap variance ratio is the decay ratio rho, and
rho = 1 is the flat profile. A user enters only through its total channel
variance, which sample_topology draws from a pathloss law on the user's
distance to the access point.

A bank of K users is a (K, L) array of path gains, and a block of T
trials a (T, K, L) array. This module is the one place where streams
become draws: trial t's user variances come from the (t,) substream and
user k's path gains from the (t, k) one, real parts before imaginary
parts. _trial_normals draws a block of trials' complex normals and is
the one draw entry: _trial_blocks adds each block's user variances for
the simulating studies, oracle.mc_gain_ratio reads user 0's normals, and
sample_channel_bank one trial's. ApdpProfile.path_gains scales normals
to a decay ratio, so every ratio reuses the same draw.

substream is the reference for every stream. Seeding a SeedSequence and
a PCG64 for one stream costs about twice as much as drawing one user's
2L normals at L = 200, so the draws go through _substreams: numpy's
SeedSequence mixes in the master seed once per call, and _substreams
redoes only the key words' mixing and the output hashing, for the keys
of _HASH_CHUNK trials at a time on uint32 arrays, and hands each key's
output words to PCG64's own seeding. The streams are substream's bit for
bit, and memory stays flat in the trial count.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence, default_rng
from numpy.random.bit_generator import ISeedSequence

# numpy's SeedSequence (numpy/random/bit_generator.pyx): a pool of 4
# uint32 words; each entropy word is hashed (xor a hash constant, times
# the next constant, xorshift) and mixed into every pool word
# (L * pool - R * hash, xorshift); the output words take a second
# hash-constant stream
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
# trials whose streams _substreams derives in one pass: numpy's per-call
# cost is spread over enough keys, and the pass's arrays stay a few KiB
# whatever the trial count
_HASH_CHUNK = 64
# users' distances to the access point, uniform on [_D_MIN, _D_MAX]
_D_MIN, _D_MAX = 3.0, 20.0


def _hash_constants(const: int, mult: int, n: int) -> list[int]:
    """const * mult^i modulo 2^32 for i = 0..n. Successive word hashes
    take entries i and i + 1 as their xor constant and multiplier."""
    out = [const]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    return out


# the output words: word i is hashed from pool word i mod 4
_OUTPUT_CONSTS = np.array(_hash_constants(_INIT_B, _MULT_B, 2 * _POOL_WORDS), dtype=np.uint32)


def _count(value, name: str, least: int = 1) -> int:
    """The count value as an int. NaN or a value below least raises
    ValueError naming the field, since the accepting comparison runs first;
    a non-integer (a fraction or a whole float) raises TypeError, and numpy
    integers pass."""
    if not value >= least:
        raise ValueError(f"{name} must be >= {least}")
    return operator.index(value)


# the real-valued rules, each comparing as _count does, so that NaN fails
def _fraction(value, name: str) -> None:
    if not 0 < value <= 1:
        raise ValueError(f"{name} must be in (0, 1]")


def _decay_ratio(value, name: str) -> None:
    if not value >= 1:
        raise ValueError(f"{name} must be >= 1")


def _entrywise(ok: np.ndarray, name: str, rule: str) -> None:
    # an array rule's one report: the positions where it fails
    if not ok.all():
        raise ValueError(f"{name} must be {rule}; it is not at {np.argwhere(~ok).tolist()}")


def _positive(value, name: str) -> None:
    # an array entry by entry; a scalar by one comparison
    if isinstance(value, np.ndarray) and value.ndim:
        _entrywise((0 < value) & (value < np.inf), name, "positive and finite")
    elif not 0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite")


def _nonnegative(value: np.ndarray, name: str) -> None:
    # an array of powers or interference gains, entry by entry; 0 passes
    _entrywise((0 <= value) & (value < np.inf), name, "non-negative and finite")


@dataclass(frozen=True)
class ApdpProfile:
    """Exponentially decaying average power delay profile.

    decay_ratio is the ratio of the first tap variance to the last; the
    per-tap variance of tap l (1-based) is
    user_variance * decay_ratio^(-(l-1)/(L-1)). A single-path profile is
    flat by definition.
    """

    path_count: int
    decay_ratio: float = 1.0

    def __post_init__(self):
        _count(self.path_count, "path_count")
        _decay_ratio(self.decay_ratio, "decay_ratio")

    def tap_variances(self, user_variance) -> np.ndarray:
        """Per-tap variances, (..., L), of positive, finite user variances (...)."""
        v = np.asarray(user_variance, dtype=float)
        _positive(v, "user_variances")
        exponents = -np.arange(self.path_count, dtype=float) / max(self.path_count - 1, 1)
        return np.multiply.outer(v, self.decay_ratio ** exponents)

    def path_gains(self, user_variances, normals: np.ndarray) -> np.ndarray:
        """Circular complex Gaussian path gains from _trial_normals draws.

        normals has shape (..., L), its leading axes those of
        user_variances. Tap l of a user with total variance v has
        E|gain_l|^2 equal to tap_variances(v)[l]: each real component
        carries half of it.
        """
        return np.sqrt(self.tap_variances(user_variances) / 2.0) * normals


def substream(master_seed: int, *key: int) -> Generator:
    """Independent generator for one coordinate of an experiment.

    Streams are derived from the master seed by keying the seed sequence
    with the coordinate tuple (typically (trial,) for topology draws and
    (trial, user) for channel draws), so results never depend on the order
    in which trials or users are generated.
    """
    return default_rng(SeedSequence(master_seed, spawn_key=key))


class _Seeded(ISeedSequence):
    """Seed words derived already, handed to a bit generator's seeding
    (PCG64 asks for its four uint64 words)."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _substreams(master_seed: int, trials: range,
                users: int | None = None) -> Iterator[Generator]:
    """substream(master_seed, t) for each t in trials, or, given users,
    substream(master_seed, t, k) for each k < users, trial major.

    numpy's SeedSequence(master_seed) mixes the seed's n = max(4, words)
    words into the pool, zero-padded as when a spawn key follows; their
    4 n hashes fix the hash constant the key words go on from. Each key
    word is hashed against every pool word, so that part runs on (..., 4)
    uint32 arrays for the keys of _HASH_CHUNK trials at once. The eight
    output words give each key's PCG64 seed and increment as
    little-endian uint64 pairs, which PCG64 takes through numpy's
    ISeedSequence interface.
    """
    if trials and not (0 <= trials[0] <= _MASK32 and 0 <= trials[-1] <= _MASK32):
        # SeedSequence would split a wider word into two
        raise ValueError("a key is one or more words in [0, 2^32)")
    seed_pool = SeedSequence(master_seed).pool
    n = max(_POOL_WORDS, -(-int(master_seed).bit_length() // 32))
    const = _INIT_A * pow(_MULT_A, _POOL_WORDS * n, 1 << 32) & _MASK32
    consts = np.array(_hash_constants(const, _MULT_A, 2 * _POOL_WORDS), dtype=np.uint32)
    for first in range(0, len(trials), _HASH_CHUNK):
        chunk = np.array(trials[first:first + _HASH_CHUNK], dtype=np.uint32)
        key = [chunk] if users is None else [chunk[:, None], np.arange(users, dtype=np.uint32)]
        pool = seed_pool
        for i, word in enumerate(key):
            c = consts[_POOL_WORDS * i:_POOL_WORDS * (i + 1) + 1]
            h = (word[..., None] ^ c[:-1]) * c[1:]
            h ^= h >> _XSHIFT
            pool = np.uint32(_MIX_MULT_L) * pool - np.uint32(_MIX_MULT_R) * h
            pool ^= pool >> _XSHIFT
        out = (np.concatenate((pool, pool), axis=-1) ^ _OUTPUT_CONSTS[:-1]) * _OUTPUT_CONSTS[1:]
        out ^= out >> _XSHIFT
        seeds = np.ascontiguousarray(out, dtype="<u4").view("<u8").astype(np.uint64)
        for words in seeds.reshape(-1, _POOL_WORDS):
            yield Generator(PCG64(_Seeded(words)))


def _trial_normals(master_seed: int, trials: range, users: int, paths: int,
                   block: int) -> Iterator[tuple[range, np.ndarray]]:
    """Each block of up to block trials and its (T, K, L) complex normals:
    user k of trial t takes standard_normal(2L) from the (t, k) substream,
    real parts then imaginary parts."""
    streams = _substreams(master_seed, trials, users)
    for first in range(0, len(trials), block):
        ts = trials[first:first + block]
        z = np.empty((len(ts), users, 2 * paths))
        for row, rng in zip(z.reshape(-1, 2 * paths), streams):
            rng.standard_normal(out=row)
        normals = np.empty((len(ts), users, paths), dtype=complex)
        normals.real, normals.imag = z[..., :paths], z[..., paths:]
        yield ts, normals


def sample_topology(K: int, d_min: float, d_max: float,
                    rng: Generator) -> np.ndarray:
    """K users' total channel variances, (K,): the pathloss 0.3 * d^(-2), positive
    and finite at d_min and d_max, of distances d i.i.d. uniform on [d_min, d_max]."""
    _count(K, "K")
    for name, d in (("d_min", d_min), ("d_max", d_max)):
        _positive(d, name)
        _positive(0.3 / d / d, f"the pathloss at {name}")
    if not d_min <= d_max:
        raise ValueError("need d_min <= d_max")
    return 0.3 * rng.uniform(d_min, d_max, size=K) ** -2.0


def _trial_blocks(master_seed: int, trials: range, users: int, paths: int,
                  block: int) -> Iterator[tuple[range, np.ndarray, np.ndarray]]:
    """_trial_normals' blocks, each with its (T, K) user variances from
    sample_topology on the (t,) substreams: yields (trial range,
    variances, normals). Every trial has its own streams, so the draws do
    not depend on how the trials are blocked."""
    places = _substreams(master_seed, trials)
    for ts, normals in _trial_normals(master_seed, trials, users, paths, block):
        variances = np.stack([sample_topology(users, _D_MIN, _D_MAX, rng)
                              for _, rng in zip(ts, places)])
        yield ts, variances, normals


def sample_channel_bank(profile: ApdpProfile, user_variances: np.ndarray,
                        master_seed: int, trial: int) -> np.ndarray:
    """One trial's (K, L) path gains for users of the given total variances
    (sample_topology draws them), from per-(trial, user) substreams. The
    trial is a key word, as in substream: an integer in [0, 2^32)."""
    v = np.asarray(user_variances, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("user_variances must be a non-empty 1-D array")
    (_, normals), = _trial_normals(master_seed, range(trial, trial + 1), v.size,
                                   profile.path_count, 1)
    return profile.path_gains(v, normals[0])
