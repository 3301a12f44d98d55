"""Network topologies and frequency-selective channel realizations.

Each user sees a tapped-delay-line channel with L resolvable paths. Path
amplitudes are independent circular complex Gaussians whose per-tap
variances follow an exponentially decaying average power delay profile
(aPDP): the first-to-last tap variance ratio is the decay ratio rho, and
rho = 1 is the flat profile. The per-user variance scale comes from a
power-law pathloss on the user's distance to the access point.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        if self.decay_ratio < 1:
            raise ValueError("decay_ratio must be >= 1")

    def tap_variances(self, user_variance: float) -> np.ndarray:
        """Vector of per-tap variances for one user."""
        L = self.path_count
        if L == 1:
            return np.array([user_variance], dtype=float)
        exponents = -(np.arange(L, dtype=float)) / (L - 1)
        return user_variance * self.decay_ratio ** exponents


def tap_variance(profile: ApdpProfile, user_variance: float, l: int) -> float:
    """Variance of tap l (1-based) under the decaying profile."""
    if not 1 <= l <= profile.path_count:
        raise IndexError(f"tap index {l} outside 1..{profile.path_count}")
    if profile.path_count == 1:
        return float(user_variance)
    exponent = -(l - 1) / (profile.path_count - 1)
    return float(user_variance * profile.decay_ratio ** exponent)


@dataclass(frozen=True)
class ChannelRealization:
    """One user's complex path-gain vector."""

    gains: np.ndarray

    def __post_init__(self):
        g = np.atleast_1d(np.asarray(self.gains, dtype=complex))
        object.__setattr__(self, "gains", g)

    @property
    def path_count(self) -> int:
        return self.gains.size

    @property
    def channel_gain(self) -> float:
        """Squared Euclidean norm of the path gains."""
        return float(np.sum(np.abs(self.gains) ** 2))


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


def sample_channel(profile: ApdpProfile, topology: NetworkTopology, k: int,
                   rng: Generator) -> ChannelRealization:
    """Draw user k's path gains: circular complex Gaussian taps.

    Tap l has E|gain_l|^2 equal to the profile's tap variance, i.e. each
    real component carries half the variance.
    """
    if not 0 <= k < topology.user_count:
        raise IndexError(f"user index {k} outside 0..{topology.user_count - 1}")
    var = profile.tap_variances(topology.user_variances[k])
    scale = np.sqrt(var / 2.0)
    L = profile.path_count
    g = rng.standard_normal(L) + 1j * rng.standard_normal(L)
    return ChannelRealization(gains=scale * g)


def sample_channel_bank(profile: ApdpProfile, topology: NetworkTopology,
                        master_seed: int, trial: int) -> list[ChannelRealization]:
    """Draw every user's channel for one trial from per-(trial, user) substreams."""
    return [
        sample_channel(profile, topology, k, substream(master_seed, trial, k))
        for k in range(topology.user_count)
    ]
