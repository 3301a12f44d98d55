"""Effective link gains for rake reception under time-hopping spreading.

For each user the rake output SINR separates into three deterministic
coefficients of the transmit powers: the combining gain on the desired
symbol (h_sp), a self-interference gain from inter-path leakage of the
user's own signal (h_si), and a cross-gain matrix from every other user's
signal (h_mai). All three are exact functions of the realized path gains,
the set of combined fingers, and the processing gain; no Gaussian or
large-system approximation is involved here.

The leakage terms are cross-correlations between the combining weights
and the path gains at lags 1..L-1; the cross gains add the zero lag.
Combining is maximal-ratio, so the weights are the finger slice
C = A[..., :P] of the path gains. A bank of K users is one (K, L) array.
Zero-padded to the smallest 2-3-5-smooth length n of at least 2L - 1
samples (400 at L = 200, 4000 at L = 2000; numpy pads the P-tap slice to
the same n), its discrete Fourier transform turns every correlation into
a product of spectra (Wiener-Khinchin), and by Parseval the sum of
squared correlations over all lags is an inner product of power spectra,
so all K^2 cross gains come from one matrix product. The self-leakage at
lag d is v_d = r_-d + conj(r_d), where r = ifft(R) and R = F_a conj(F_c)
is the cross-spectrum of the path gains and the weights. Because
ifft(conj(R))_m = conj(r_-m), s = ifft(2 Re R) has s_d = conj(v_d), and
since 2 Re R is real, |v_d|^2 = 4 |rfft(Re R)_d|^2 / n^2 for
d = 1..L-1 <= n/2: one half-length real transform of real products
instead of a complex product and a full inverse transform. The path-gain
spectrum F_a is shared by every combining fraction of a call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.fft import fft, rfft

from .channel import _count, _fraction, _nonnegative, _positive


@dataclass(frozen=True)
class RakeSelector:
    """Which fraction of the resolvable paths the receiver combines.

    finger_fraction = 1 combines every path (all-rake); smaller fractions
    combine only the first fingers (partial rake). Combining is
    maximal-ratio: the weight on a combined finger is the path gain itself.
    """

    finger_fraction: float

    def __post_init__(self):
        _fraction(self.finger_fraction, "finger_fraction")

    def finger_count(self, path_count: int) -> int:
        """Number of combined fingers for a channel with path_count paths.

        The product finger_fraction * path_count is nudged before flooring
        so that fractions with no exact binary representation (0.3 * 200)
        still select the intended finger count.
        """
        _count(path_count, "path_count")
        return max(1, math.floor(self.finger_fraction * path_count + 1e-9))


@dataclass(frozen=True)
class SpreadingConfig:
    """Time-hopping frame structure: frames per symbol, chips per frame."""

    frames: int
    chips_per_frame: int

    def __post_init__(self):
        _count(self.frames, "frames")
        _count(self.chips_per_frame, "chips_per_frame")

    @property
    def processing_gain(self) -> int:
        return self.frames * self.chips_per_frame

    def load_factor(self, path_count: int) -> float:
        """Chips per frame relative to the channel length."""
        _count(path_count, "path_count")
        return self.chips_per_frame / path_count


def _phi_squared(chips_per_frame: int, path_count: int) -> np.ndarray:
    """Squared chip-collision weights min(L - l, N_c) / N_c, l = 1..L-1.

    Lags longer than a frame can only collide with min(L - l, N_c) chip
    positions, which discounts the corresponding leakage term.
    """
    lags = np.arange(1, path_count)
    return np.minimum(path_count - lags, chips_per_frame) / chips_per_frame


@dataclass(frozen=True)
class LinkGains:
    """Per-realization gain coefficients for a bank of K users.

    h_sp[k] scales user k's own power in the SINR numerator, h_si[k] its
    self-interference, and h_mai[k, j] the interference user k receives
    from user j (diagonal identically zero). h_sp and sigma_sq, the noise
    power at the rake output, are positive and finite; h_si and h_mai are
    non-negative and finite. A stack of banks carries leading axes: h_sp
    and h_si of shape (..., K), h_mai of shape (..., K, K), whose leading
    axes broadcast together (a bank's h_sp shared by every frame count of
    a stack, say); a field given fewer leading axes holds a read-only
    broadcast view of the common shape.
    """

    h_sp: np.ndarray
    h_si: np.ndarray
    h_mai: np.ndarray
    sigma_sq: float

    def __post_init__(self):
        h_sp = np.atleast_1d(np.asarray(self.h_sp, dtype=float))
        h_si = np.atleast_1d(np.asarray(self.h_si, dtype=float))
        h_mai = np.asarray(self.h_mai, dtype=float)
        K = h_sp.shape[-1:]
        if h_si.shape[-1:] != K or h_mai.shape[-2:] != K + K:
            raise ValueError("inconsistent gain shapes")
        lead = np.broadcast_shapes(h_sp.shape[:-1], h_si.shape[:-1], h_mai.shape[:-2])
        for name, x, tail in (("h_sp", h_sp, K), ("h_si", h_si, K), ("h_mai", h_mai, K + K)):
            shape = lead + tail
            object.__setattr__(self, name, x if x.shape == shape else np.broadcast_to(x, shape))
        _positive(h_sp, "h_sp")
        _nonnegative(h_si, "h_si")
        _nonnegative(h_mai, "h_mai")
        if np.any(np.diagonal(h_mai, axis1=-2, axis2=-1) != 0):
            raise ValueError("h_mai diagonal must be zero")
        _positive(self.sigma_sq, "sigma_sq")

    @property
    def user_count(self) -> int:
        return self.h_sp.shape[-1]

    @property
    def si_ratio(self) -> np.ndarray:
        """h_sp / h_si per user; infinite when there is no self-interference."""
        with np.errstate(divide="ignore"):
            return self.h_sp / self.h_si

    @property
    def mai_ratio_inv(self) -> np.ndarray:
        """Sum over j != k of h_mai[k, j] / h_sp[j]."""
        return (self.h_mai / self.h_sp[..., None, :]).sum(axis=-1)


@functools.cache
def _fast_len(n: int) -> int:
    """Smallest 2-3-5-smooth integer >= n, a transform length the FFT
    factors into its fastest radices."""
    _count(n, "n")
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


def _spectral_numerators(fa: np.ndarray, pa_t: np.ndarray, C: np.ndarray | None,
                         lag_weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One selector's self- and cross-gain numerators from the shared
    path-gain spectrum fa and its transposed power pa_t. C is the (..., K, P)
    finger slice of the path gains, None at full combining (P = L), where
    the weight spectrum is fa itself."""
    if C is None:
        # F_c = F_a, so R = |F_a|^2 is real and is the weight power too
        pc = re_r = np.swapaxes(pa_t, -1, -2)
    else:
        fc = fft(C, n=fa.shape[-1], axis=-1)
        pc = np.abs(fc) ** 2
        # Re R = Re F_a Re F_c + Im F_a Im F_c; the second product goes
        # into fc.real, which is read for the last time in the first
        re_r = fa.real * fc.real
        re_r += np.multiply(fa.imag, fc.imag, out=fc.real)
        del fc
    cross = (pc @ pa_t) / fa.shape[-1]
    del pc
    v_sq = np.abs(rfft(re_r, axis=-1)[..., 1:lag_weight.size + 1]) ** 2
    v_sq *= lag_weight
    return v_sq.sum(axis=-1), cross


def _dense_numerators(A: np.ndarray, fingers: np.ndarray,
                      phi_sq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The same numerators summed lag by lag, bank by bank over the leading
    axes of A: one full correlation r of user j's path gains with user k's
    zero-padded finger slice per pair, lag 0 at index L - 1."""
    L = A.shape[-1]
    C = np.zeros_like(A)
    C[..., :fingers.shape[-1]] = fingers
    si = np.empty(A.shape[:-1])
    cross = np.empty(A.shape[:-1] + A.shape[-2:-1])
    for bank in np.ndindex(A.shape[:-2]):
        for k, c in enumerate(C[bank]):
            for j, a in enumerate(A[bank]):
                r = np.correlate(a, c, "full")
                cross[bank + (k, j)] = np.vdot(r, r).real
                if j == k:
                    # v_d = r_-d + conj(r_d) for lags d = 1..L-1
                    v = r[:L - 1][::-1] + r[L:].conj()
                    si[bank + (k,)] = np.abs(v) ** 2 @ phi_sq[::-1]
    return si, cross


def link_gains(alphas: np.ndarray,
               selector: RakeSelector | Sequence[RakeSelector],
               spreading: SpreadingConfig,
               sigma_sq: float,
               method: str = "spectral") -> LinkGains:
    """Exact gain bank for K users sharing the channel.

    alphas is a (K, L) array of path gains or a (..., K, L) stack of
    banks (say a block of trials), which gives a LinkGains with the same
    leading axes; a non-finite path gain is refused by its position before
    any transform. selector is one RakeSelector, or a sequence of S of
    them, which puts a leading selector axis of length S in front.

    method="spectral" evaluates every bank from the spectra of the path
    gains and of each selector's finger slice, as the module docstring
    derives: the path-gain spectrum F_a and its power |F_a|^2 are taken
    once per call and shared by every selector, and full combining takes
    no weight spectrum at all (F_c = F_a). Past the transforms no complex
    arrays are multiplied: every step is elementwise on real parts and
    moduli, a row sum or one matrix product per bank, so a bank's gains
    come out the same bit for bit alone, inside any stack of banks and
    inside any selector sequence.

    method="dense" sums every correlation lag by lag instead, one direct
    correlation per user pair of each bank, for the same stacks and
    selector sequences: it is quadratically more expensive in L and exists
    as an independent check. Both agree to roundoff.
    """
    if method not in ("spectral", "dense"):
        raise ValueError(f"unknown method {method!r}")
    several = not isinstance(selector, RakeSelector)
    selectors = tuple(selector) if several else (selector,)
    if not selectors or not all(isinstance(s, RakeSelector) for s in selectors):
        raise ValueError("selector must be a RakeSelector or a non-empty sequence of them")
    A = np.asarray(alphas, dtype=complex)
    if A.ndim < 2 or 0 in A.shape[-2:]:
        raise ValueError("need a (..., K, L) bank with at least one user and path")
    if not np.isfinite(A).all():
        raise ValueError(f"non-finite path gain at (..., user, path) "
                         f"{np.argwhere(~np.isfinite(A)).tolist()}")
    K, L = A.shape[-2:]
    N = spreading.processing_gain
    phi_sq = _phi_squared(spreading.chips_per_frame, L)
    if method == "spectral":
        # any length >= 2L - 1 holds every lag without wrap-around; the
        # next 2-3-5-smooth one transforms fastest
        nfft = _fast_len(2 * L - 1)
        fa = fft(A, n=nfft, axis=-1)
        pa_t = np.swapaxes(np.abs(fa) ** 2, -1, -2)
        # lag d = 1..L-1 in order, with the 4 / n^2 of |v_d|^2 folded in
        lag_weight = phi_sq[::-1] * (4.0 / nfft ** 2)

    h_sp = np.empty((len(selectors),) + A.shape[:-1])
    h_si = np.empty_like(h_sp)
    h_mai = np.empty(h_sp.shape + (K,))
    for s, sel in enumerate(selectors):
        P = sel.finger_count(L)
        # the maximal-ratio weights: the path gains on the first P fingers
        fingers = A[..., :P]
        h_sp[s] = np.einsum("...l,...l->...", fingers.conj(), fingers).real
        if method == "dense":
            h_si[s], h_mai[s] = _dense_numerators(A, fingers, phi_sq)
        else:
            h_si[s], h_mai[s] = _spectral_numerators(fa, pa_t, None if P == L else fingers,
                                                     lag_weight)
    with np.errstate(divide="ignore", invalid="ignore"):  # LinkGains refuses an h_sp of 0
        scale = N * h_sp
        h_si /= scale
        h_mai /= scale[..., None]
    h_mai[..., range(K), range(K)] = 0.0

    if not several:
        h_sp, h_si, h_mai = h_sp[0], h_si[0], h_mai[0]
    return LinkGains(h_sp=h_sp, h_si=h_si, h_mai=h_mai, sigma_sq=sigma_sq)


def _user_powers(gains: LinkGains, powers: np.ndarray, k: int) -> np.ndarray:
    """The power vector as floats, checked against the bank with user k."""
    p = np.asarray(powers, dtype=float)
    if p.shape != (gains.user_count,):
        raise ValueError("powers must have one entry per user")
    _nonnegative(p, "powers")
    if not 0 <= k < gains.user_count:
        raise IndexError(f"user index {k} outside 0..{gains.user_count - 1}")
    return p


def sinr(gains: LinkGains, powers: np.ndarray, k: int) -> float:
    """Output SINR of user k at the given power vector."""
    p = _user_powers(gains, powers, k)
    denom = gains.h_si[k] * p[k] + float(gains.h_mai[k] @ p) + gains.sigma_sq
    return gains.h_sp[k] * p[k] / denom
