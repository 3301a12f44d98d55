"""Effective link gains for rake reception under time-hopping spreading.

For each user the rake output SINR separates into three deterministic
coefficients of the transmit powers: the combining gain on the desired
symbol (h_sp), a self-interference gain from inter-path leakage of the
user's own signal (h_si), and a cross-gain matrix from every other user's
signal (h_mai). All three are exact functions of the realized path gains,
the set of combined fingers, and the processing gain; no Gaussian or
large-system approximation is involved here.

The leakage terms are cross-correlations between the combining weights
and the path gains at lags 1..L-1; the cross gains add the zero lag. A
bank of K users is one (K, L) array. Zero-padded to the smallest
2-3-5-smooth length of at least 2L - 1 samples (400 at L = 200, 4000 at
L = 2000), its discrete Fourier transform turns every correlation into a
product of spectra (Wiener-Khinchin), and by Parseval the sum of squared
correlations over all lags is an inner product of power spectra, so all
K^2 cross gains come from one matrix product. The lag structure can also
be written as two banded L x (L-1) matrices per vector (column i holds
the last i entries shifted to the top); the dense evaluation path
materializes them as an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.fft import fft, ifft

from .channel import ChannelRealization


@dataclass(frozen=True)
class RakeSelector:
    """Which fraction of the resolvable paths the receiver combines.

    finger_fraction = 1 combines every path (all-rake); smaller fractions
    combine only the first fingers (partial rake). Combining is
    maximal-ratio: the weight on a combined finger is the path gain itself.
    """

    finger_fraction: float
    combining: str = "mrc"

    def __post_init__(self):
        if not 0 < self.finger_fraction <= 1:
            raise ValueError("finger_fraction must be in (0, 1]")
        if self.combining != "mrc":
            raise ValueError("only maximal-ratio combining is implemented")

    def finger_count(self, path_count: int) -> int:
        """Number of combined fingers for a channel with path_count paths.

        The product finger_fraction * path_count is nudged before flooring
        so that fractions with no exact binary representation (0.3 * 200)
        still select the intended finger count.
        """
        if path_count < 1:
            raise ValueError("path_count must be >= 1")
        return max(1, math.floor(self.finger_fraction * path_count + 1e-9))


@dataclass(frozen=True)
class SpreadingConfig:
    """Time-hopping frame structure: frames per symbol, chips per frame."""

    frames: int
    chips_per_frame: int

    def __post_init__(self):
        if self.frames < 1:
            raise ValueError("frames must be >= 1")
        if self.chips_per_frame < 1:
            raise ValueError("chips_per_frame must be >= 1")

    @property
    def processing_gain(self) -> int:
        return self.frames * self.chips_per_frame

    def load_factor(self, path_count: int) -> float:
        """Chips per frame relative to the channel length."""
        if path_count < 1:
            raise ValueError("path_count must be >= 1")
        return self.chips_per_frame / path_count


def rake_weights(alpha: ChannelRealization | np.ndarray,
                 selector: RakeSelector) -> np.ndarray:
    """Combining weights: the path gains on the combined fingers, zero after.

    alpha is one user's channel or a (K, L) bank of path gains.
    """
    a = alpha.gains if isinstance(alpha, ChannelRealization) else np.asarray(alpha, dtype=complex)
    c = np.zeros_like(a)
    fingers = selector.finger_count(a.shape[-1])
    c[..., :fingers] = a[..., :fingers]
    return c


def _phi_squared(chips_per_frame: int, path_count: int) -> np.ndarray:
    """Squared chip-collision weights min(L - l, N_c) / N_c, l = 1..L-1.

    Lags longer than a frame can only collide with min(L - l, N_c) chip
    positions, which discounts the corresponding leakage term.
    """
    lags = np.arange(1, path_count)
    return np.minimum(path_count - lags, chips_per_frame) / chips_per_frame


def _lag_matrix(x: np.ndarray) -> np.ndarray:
    """Banded L x (L-1) lag matrix of a complex vector.

    Entry (l, i) is x_{L+l-i} when l <= i and zero otherwise (1-based):
    column i holds the last i entries of x, shifted to the top. Only the
    dense evaluation path and the oracle use these; link_gains defaults
    to the equivalent spectral form.
    """
    L = x.size
    if L == 1:
        return np.zeros((1, 0), dtype=complex)
    l_idx = np.arange(1, L + 1)[:, None]
    i_idx = np.arange(1, L)[None, :]
    mask = l_idx <= i_idx
    src = np.clip(L + l_idx - i_idx - 1, 0, L - 1)
    return np.where(mask, x[src], 0.0 + 0.0j)


@dataclass(frozen=True)
class LinkGains:
    """Per-realization gain coefficients for a bank of K users.

    h_sp[k] scales user k's own power in the SINR numerator, h_si[k] its
    self-interference, and h_mai[k, j] the interference user k receives
    from user j (diagonal identically zero). sigma_sq is the noise power
    at the rake output. A stack of banks carries leading axes: h_sp and
    h_si of shape (..., K), h_mai of shape (..., K, K).
    """

    h_sp: np.ndarray
    h_si: np.ndarray
    h_mai: np.ndarray
    sigma_sq: float

    def __post_init__(self):
        h_sp = np.atleast_1d(np.asarray(self.h_sp, dtype=float))
        h_si = np.atleast_1d(np.asarray(self.h_si, dtype=float))
        h_mai = np.asarray(self.h_mai, dtype=float)
        object.__setattr__(self, "h_sp", h_sp)
        object.__setattr__(self, "h_si", h_si)
        object.__setattr__(self, "h_mai", h_mai)
        if h_si.shape != h_sp.shape or h_mai.shape != h_sp.shape + h_sp.shape[-1:]:
            raise ValueError("inconsistent gain shapes")
        if np.any(h_sp <= 0):
            raise ValueError("h_sp must be positive")
        if np.any(h_si < 0) or np.any(h_mai < 0):
            raise ValueError("interference gains must be non-negative")
        if np.any(np.diagonal(h_mai, axis1=-2, axis2=-1) != 0):
            raise ValueError("h_mai diagonal must be zero")
        if self.sigma_sq < 0:
            raise ValueError("sigma_sq must be non-negative")

    @property
    def user_count(self) -> int:
        return self.h_sp.shape[-1]

    @property
    def si_ratio(self) -> np.ndarray:
        """h_sp / h_si per user; infinite when there is no self-interference."""
        with np.errstate(divide="ignore"):
            return np.where(self.h_si > 0, self.h_sp / np.where(self.h_si > 0, self.h_si, 1.0), np.inf)

    @property
    def mai_ratio_inv(self) -> np.ndarray:
        """Sum over j != k of h_mai[k, j] / h_sp[j]."""
        return (self.h_mai / self.h_sp[..., None, :]).sum(axis=-1)


def _fast_len(n: int) -> int:
    """Smallest 2-3-5-smooth integer >= n, a transform length the FFT
    factors into its fastest radices."""
    if n < 1:
        raise ValueError("n must be >= 1")
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest p35 * 2^j >= n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _bank_array(alphas: Sequence[ChannelRealization | np.ndarray] | np.ndarray) -> np.ndarray:
    """The bank as one complex array: an ndarray of shape (..., K, L) as
    given, or a sequence of per-user channels stacked to (K, L)."""
    if isinstance(alphas, np.ndarray):
        if alphas.ndim < 2 or 0 in alphas.shape[-2:]:
            raise ValueError("need a (..., K, L) bank with at least one user and path")
        return alphas.astype(complex, copy=False)
    rows = [a.gains if isinstance(a, ChannelRealization) else np.asarray(a, dtype=complex)
            for a in alphas]
    if not rows:
        raise ValueError("need at least one user")
    L = rows[0].size
    if any(r.ndim != 1 or r.size != L for r in rows):
        raise ValueError("all users must share the same path count")
    return np.stack(rows)


def link_gains(alphas: Sequence[ChannelRealization | np.ndarray] | np.ndarray,
               selector: RakeSelector,
               spreading: SpreadingConfig,
               sigma_sq: float,
               method: str = "spectral") -> LinkGains:
    """Exact gain bank for K users sharing the channel.

    alphas is a sequence of per-user channels, a (K, L) array of path
    gains, or a (..., K, L) stack of banks (say a block of trials), which
    gives a LinkGains with the same leading axes. method="spectral"
    evaluates every bank from the spectra of the path gains and weights,
    zero-padded with numpy.fft to the smallest 2-3-5-smooth length of at
    least 2L - 1 samples so that no lag wraps around:
    the cross-gain numerator, the squared weight/interferer
    cross-correlation summed over every lag, is by Parseval an inner
    product of power spectra, so all K^2 numerators are one matrix
    product, and the self-interference lags come from one inverse
    transform of each user's cross-spectrum. method="dense" materializes
    the lag matrices and multiplies them out for one (K, L) bank: it is
    quadratically more expensive and exists as an independent check. Both
    agree to roundoff.
    """
    if method not in ("spectral", "dense"):
        raise ValueError(f"unknown method {method!r}")
    A = _bank_array(alphas)
    if method == "dense" and A.ndim != 2:
        raise ValueError("method='dense' takes one (K, L) bank, not a stack")
    K, L = A.shape[-2:]
    C = rake_weights(A, selector)
    N = spreading.processing_gain
    phi_sq = _phi_squared(spreading.chips_per_frame, L)

    hs = np.einsum("...l,...l->...", C.conj(), A)
    if np.any(np.abs(hs.imag) > 1e-12 * np.maximum(1.0, np.abs(hs.real))):
        raise ValueError("combining gain has a non-negligible imaginary part")
    h_sp = hs.real
    if np.any(h_sp <= 0):
        raise ValueError(f"zero combining gain at (..., user) {np.argwhere(h_sp <= 0).tolist()}")

    if method == "spectral":
        # any length >= 2L - 1 holds every lag without wrap-around; the
        # next 2-3-5-smooth one transforms fastest
        nfft = _fast_len(2 * L - 1)
        fa = fft(A, n=nfft, axis=-1)
        fc = fft(C, n=nfft, axis=-1)
        # r[k, n] = sum_m a_k[m + n] conj(c_k[m]) at lags n = -(L-1)..L-1,
        # negative lags stored from the end; the two leakage terms at lag
        # d = 1..L-1 are r[-d] and conj(r[d])
        r = ifft(fa * fc.conj(), axis=-1)
        v = r[..., nfft - 1:nfft - L:-1] + r[..., 1:L].conj()
        h_si = (np.abs(v) ** 2 @ phi_sq[::-1]) / (N * h_sp)
        cross = (np.abs(fc) ** 2 @ np.swapaxes(np.abs(fa) ** 2, -1, -2)) / nfft
        h_mai = cross / (N * h_sp[..., None])
        users = np.arange(K)
        h_mai[..., users, users] = 0.0
    else:
        h_si = np.empty(K)
        h_mai = np.zeros((K, K))
        mats = [(_lag_matrix(a), _lag_matrix(c)) for a, c in zip(A, C)]
        for k, (a, c) in enumerate(zip(A, C)):
            A_k, B_k = mats[k]
            v = B_k.conj().T @ a + A_k.conj().T @ c
            h_si[k] = float(phi_sq @ np.abs(v) ** 2) / (N * h_sp[k])
            for j, aj in enumerate(A):
                if j == k:
                    continue
                A_j = mats[j][0]
                cross = np.sum(np.abs(B_k.conj().T @ aj) ** 2) \
                    + np.sum(np.abs(A_j.conj().T @ c) ** 2) \
                    + abs(np.vdot(c, aj)) ** 2
                h_mai[k, j] = cross / (N * h_sp[k])

    return LinkGains(h_sp=h_sp, h_si=h_si, h_mai=h_mai, sigma_sq=sigma_sq)


def sinr(gains: LinkGains, powers: np.ndarray, k: int) -> float:
    """Output SINR of user k at the given power vector."""
    p = np.asarray(powers, dtype=float)
    if p.shape != (gains.user_count,):
        raise ValueError("powers must have one entry per user")
    if not 0 <= k < gains.user_count:
        raise IndexError(f"user index {k} outside 0..{gains.user_count - 1}")
    denom = gains.h_si[k] * p[k] + float(gains.h_mai[k] @ p) + gains.sigma_sq
    return gains.h_sp[k] * p[k] / denom
