"""Network topologies and frequency-selective channel realizations.

Each user sees a tapped-delay-line channel with L resolvable paths. Path
amplitudes are independent circular complex Gaussians whose per-tap
variances follow an exponentially decaying average power delay profile
(aPDP): the first-to-last tap variance ratio is the decay ratio rho, and
rho = 1 is the flat profile. The per-user variance scale comes from a
power-law pathloss on the user's distance to the access point.

A bank of K users is a (K, L) array of path gains, and a block of T
trials a (T, K, L) array. sample_normals draws a block's complex normals
once, one substream per (trial, user); ApdpProfile.path_gains scales
them to a decay ratio, so every ratio reuses the same draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.random import Generator, SeedSequence, default_rng


@dataclass(frozen=True)
class NetworkTopology:
    """User distances plus the pathloss law mapping them to variance scales."""

    distances: np.ndarray
    path_variance_scale: float = 0.3
    pathloss_exponent: float = 2.0

    def __post_init__(self):
        d = np.atleast_1d(np.asarray(self.distances, dtype=float))
        object.__setattr__(self, "distances", d)
        if d.size < 1:
            raise ValueError("need at least one user")
        if np.any(d <= 0):
            raise ValueError("distances must be positive")
        if self.path_variance_scale <= 0:
            raise ValueError("path_variance_scale must be positive")

    @property
    def user_count(self) -> int:
        return self.distances.size

    @property
    def user_variances(self) -> np.ndarray:
        """Total channel variance per user, scale * d^(-exponent)."""
        return self.path_variance_scale * self.distances ** (-self.pathloss_exponent)


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
        if self.path_count < 1:
            raise ValueError("path_count must be >= 1")
        if not self.decay_ratio >= 1:
            raise ValueError("decay_ratio must be >= 1")

    def tap_variances(self, user_variance) -> np.ndarray:
        """Per-tap variances, (..., L) for user variances of shape (...)."""
        exponents = -np.arange(self.path_count, dtype=float) / max(self.path_count - 1, 1)
        return np.multiply.outer(user_variance, self.decay_ratio ** exponents)

    def path_gains(self, user_variances, normals: np.ndarray) -> np.ndarray:
        """Circular complex Gaussian path gains from sample_normals draws.

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


def sample_topology(K: int, d_min: float, d_max: float,
                    rng: Generator) -> NetworkTopology:
    """Draw K user distances i.i.d. uniform on [d_min, d_max]."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if not 0 < d_min <= d_max:
        raise ValueError("need 0 < d_min <= d_max")
    return NetworkTopology(distances=rng.uniform(d_min, d_max, size=K))


def sample_normals(master_seed: int, trials: Sequence[int], K: int,
                   L: int) -> np.ndarray:
    """Complex normals of users 0..K-1 in the given trials, (T, K, L), with
    standard normal real and imaginary parts.

    User k of trial t takes standard_normal(2L) from substream(master_seed,
    t, k): the first L are the real parts and the last L the imaginary
    parts, the same numbers as two standard_normal(L) calls. Only the
    per-tap scale depends on the profile (ApdpProfile.path_gains), so one
    draw serves every decay ratio.
    """
    z = np.empty((len(trials), K, 2 * L))
    for i, t in enumerate(trials):
        for k in range(K):
            substream(master_seed, t, k).standard_normal(out=z[i, k])
    normals = np.empty((len(trials), K, L), dtype=complex)
    normals.real, normals.imag = z[..., :L], z[..., L:]
    return normals


def sample_channel_bank(profile: ApdpProfile, topology: NetworkTopology,
                        master_seed: int, trial: int) -> np.ndarray:
    """One trial's (K, L) path gains from per-(trial, user) substreams."""
    normals = sample_normals(master_seed, (trial,), topology.user_count,
                             profile.path_count)[0]
    return profile.path_gains(topology.user_variances, normals)
