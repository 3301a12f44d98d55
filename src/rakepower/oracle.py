"""Finite-size certification of the limiting interference coefficients.

The closed forms in the lsa module are limits of deterministic profile
sums: replace every random path energy by its variance, evaluate the
same traces and double sums at finite L, and the values must approach
the closed forms as L grows. This module evaluates those sums exactly
as written (no continuum shortcut) on the tap-variance vector of a
unit-energy user, its finger count and the collision weights, takes
the self-interference double sum's lag sums by two routes that must
agree, _direct_lags in one pass over all lags and _table_lags block by
block over the overlap-count case table written once in _overlap_blocks
(each correlates by FFT above 32 paths), estimates the same ratios by
Monte Carlo over random channels, and assembles everything into an audit
report with one row per intermediate quantity (oracle_audit, one call on
one LsaParams operating point).

Three kinds of rows appear in the report: "limit" rows compare a finite-L
sum against the closed form it converges to (tolerance around 1% at
L = 4000; flat-profile lag masses carry a 1/(beta L) finite-size error, so
with fewer than about 100 combined fingers a limit row can fail on correct
code: cross_lag_mass_combined is 1.25% off at 80 fingers); "identity" rows
compare two evaluation routes of the same finite quantity (tolerance
1e-12, or 1e-10 when one side is an exact rational); "mc" rows compare a
Monte Carlo average against the prediction at a fixed 5% relative
tolerance. At L = 400 and 500 trials (seed 12345) that is 8.4 standard
errors at beta = 0.1 and 21 at beta = 0.3, and the average sits 4 to 6
standard errors above finite_mu, a bias of the per-realization ratio at
finitely many fingers. The closed forms of the intermediate quantities
(energy densities and cross lag masses) live here, and identity rows
reduce them to lsa's mu; the self-interference mass is lsa's nu times
the squared captured density. Each limit row thus sets a finite sum
against the one definition of its closed form, never against a retyped
copy of it.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.fft import irfft, rfft
from numpy.lib.stride_tricks import sliding_window_view

from .channel import ApdpProfile, _count, _trial_normals
from .gains import RakeSelector, _fast_len, _phi_squared
from .game import efficiency
from .lsa import _UTILITY, LsaParams, loss_db, mu, nu, predict_power

if TYPE_CHECKING:  # fractions imports decimal: loaded where the exact forms run
    from fractions import Fraction

# path counts up to which the self-lag routes correlate the taps without
# an FFT (see _direct_lags for why)
_DIRECT_LAG_MAX_L = 32
# taps per block of the factorization check (512 KB of buffers at L = 8000);
# 8 took 13.1 against 13.8 ms there but 0.45 MB more peak RSS in validate
_TAP_BLOCK = 4
# path counts of the lag-pattern Gram checks and of the Monte Carlo row
_GRAM_PATH_COUNT = 400
_GRAM_ROW_BLOCK = 32  # lag-matrix rows per block of the Gram checks
# relative tolerances: identity rows and the two self-lag routes, exact
# rational and moment identity rows, and limit rows
_IDENTITY_TOL = 1e-12
_EXACT_TOL = 1e-10
_LIMIT_TOL = 1e-2
_MC_PATH_COUNT = 400


# ---------------------------------------------------------------------------
# finite coefficient oracles

def _profile(path_count: int, rho: float, beta: float) -> tuple[np.ndarray, int]:
    """Tap variances of a unit-energy user and the combined finger count."""
    _count(path_count, "path_count", 2)
    return (ApdpProfile(path_count, rho).tap_variances(1.0),
            RakeSelector(beta).finger_count(path_count))


def _captured_density(v: np.ndarray, fingers: int) -> float:
    """(1/L) sum of tap powers over the combined fingers."""
    return float(v[:fingers].sum()) / v.size


def _cross_lag_masses(v: np.ndarray, fingers: int) -> tuple[float, float]:
    """The two (1/L^2) lag-mass sums entering the cross-gain limit.

    First: pairs l < m with m combined. Second: l combined, any later m.
    Both dots, like _mass's, go by einsum: BLAS threads would move the bits.
    """
    L = v.size
    cs_p = np.cumsum(v[:fingers])
    suffix_p = np.zeros(L)
    suffix_p[:fingers] = cs_p[-1] - cs_p
    cs = np.cumsum(v)
    suffix = cs[-1] - cs
    num1 = float(np.einsum("i,i", v, suffix_p)) / L ** 2
    num2 = float(np.einsum("i,i", v[:fingers], suffix[:fingers])) / L ** 2
    return num1, num2


def finite_mu(path_count: int, rho: float, beta: float) -> float:
    """Finite-L counterpart of the cross-gain coefficient mu.

    Evaluates the ratio of lag masses to the squared captured-energy
    density on the deterministic profile; converges to mu(rho, beta) as
    the path count grows.
    """
    v, fingers = _profile(path_count, rho, beta)
    num1, num2 = _cross_lag_masses(v, fingers)
    return (num1 + num2) / _captured_density(v, fingers) ** 2


def _direct_lags(v: np.ndarray, fingers: int) -> np.ndarray:
    """The self-lag sums s[d], d = 1..L-1, in one pass over all lags.

    The self-lag mass is (1/L^2) times the sum over lags of phi^2 times the
    squared overlap weights. That weight expands into three lag correlations
    (combined-by-full, full-by-combined, combined-by-combined); their sum at
    lag d is s[d] = sum_m vm[m] u[m + d] + u[m] vm[m + d], with vm the
    combined taps (v on the first fingers, zero above) and u = v + vm. Up
    to _DIRECT_LAG_MAX_L paths s is one direct correlation. Above, it is
    one inverse FFT of the combined cross spectrum, zero-padded to the
    smallest 2-3-5-smooth length of at least 2L - 1 points so that no
    positive lag wraps. The FFT's absolute error is about eps * v[0]^2
    and the mass falls like v[0]^2 rho^(-1/(L-1)), so its relative error
    grows like eps * rho^(1/(L-1)): at L = 2 and rho = 1e4 it breaks the
    1e-12 agreement _checked_mass demands, while past 32 paths it stays below
    1e-13 for any decay ratio up to 1e10.
    """
    L = v.size
    vm = np.where(np.arange(L) < fingers, v, 0.0)
    if L <= _DIRECT_LAG_MAX_L:
        # full[L - 1 + d] = sum_m u[m + d] vm[m], so full[L - 1 - d] is
        # the mirrored term
        full = np.correlate(v + vm, vm, "full")
        r = full[L - 1:] + full[L - 1::-1]
    else:
        n = _fast_len(2 * L - 1)
        V, VM = rfft(v, n), rfft(vm, n)
        r = irfft(np.conj(VM) * V + np.conj(V) * VM + 2.0 * (VM.real ** 2 + VM.imag ** 2), n)
    return r[1:L]


def _overlap_blocks(path_count: int, finger_count: int) -> list[tuple]:
    """The overlap-count case table, as blocks of lags.

    Lag i pairs tap m with n = m + L - i (0-based). A block
    (i_lo, i_hi, weight, m_end, n_lo, n_hi) gives each lag i_lo..i_hi the
    overlap count weight on the run m < m_end, n_lo <= n < n_hi; in
    1-based m that run is [1, i], [1, P], [1, b] (both taps combined,
    weight 4) or [b + 1, P] / [b + 1, i] (one tap combined), b = P - L + i.
    A block with i_hi < i_lo is empty. _table_lags sums this one table and
    _overlap_table_deviation certifies it.
    """
    L, P = path_count, finger_count
    if 2 * P <= L:
        return [(1, P, 1.0, P, 0, L),
                (P + 1, L - P, 1.0, P, 0, L),
                (L - P + 1, L - 1, 4.0, P - 1, 0, P),
                (L - P + 1, L - 1, 1.0, P, P, L)]
    i_mid = min(P, L - 1)
    return [(1, L - P, 1.0, L - P, 0, L),
            (L - P + 1, i_mid, 4.0, P - 1, 0, P),
            (L - P + 1, i_mid, 1.0, P, P, L),
            (P + 1, L - 1, 4.0, P - 1, 0, P),
            (P + 1, L - 1, 1.0, P, P, L)]


def _table_lags(v: np.ndarray, fingers: int) -> np.ndarray:
    """The same lag sums from _overlap_blocks, one correlation per block.

    All lags of a block are summed by one correlation over a zero-padded
    partner run: directly up to _DIRECT_LAG_MAX_L paths, above that by one
    inverse FFT of the cross spectrum at the smallest 2-3-5-smooth length
    that holds the run, for the error bound given in _direct_lags. Each
    block's weighted correlations are added into the lag sums in block
    order. The two routes share no lag sum: this one sums per block, the
    other once over all lags with the weights inside the spectrum.
    """
    L = v.size
    lags = np.zeros(L - 1)
    for i_lo, i_hi, weight, m_end, n_lo, n_hi in _overlap_blocks(L, fingers):
        if i_hi < i_lo:
            continue
        lo = L - i_hi  # partner of m = 0 at the first lag, i = i_hi
        window = np.zeros(i_hi - i_lo + m_end)
        s, e = max(n_lo, lo), min(n_hi, lo + window.size)
        window[s - lo:e - lo] = v[s:e]
        if L <= _DIRECT_LAG_MAX_L:
            dots = np.correlate(window, v[:m_end], "valid")
        else:
            # dots[k] = sum_j window[k + j] v[j]; k + j < window.size, so
            # no term wraps at any length of at least window.size; only the
            # block's lags are kept
            nfft = _fast_len(window.size)
            dots = irfft(rfft(window, nfft) * np.conj(rfft(v[:m_end], nfft)),
                         nfft)[:i_hi - i_lo + 1]
        # dots runs over i = i_hi down to i_lo, so over d = L - i from lo up
        lags[lo - 1:L - i_lo] += weight * dots
    return lags


def _mass(lags: np.ndarray, phi_sq: np.ndarray) -> float:
    """The (1/L^2) self-lag mass of lag sums s[d] at phi_sq (indexed by i = L - d)."""
    return float(np.einsum("i,i", phi_sq[::-1], lags)) / (lags.size + 1) ** 2


def _self_lag_masses(v: np.ndarray, fingers: int,
                     phi_sqs: list[np.ndarray]) -> list[tuple[float, float]]:
    """(direct, table) self-lag mass at each phi_sq, each route's lag sums taken once."""
    direct, table = _direct_lags(v, fingers), _table_lags(v, fingers)
    return [(_mass(direct, phi_sq), _mass(table, phi_sq)) for phi_sq in phi_sqs]


def _checked_mass(direct: float, table: float) -> float:
    """The direct self-lag mass, if the table route agrees to 1e-12 relative."""
    if abs(direct - table) > _IDENTITY_TOL * max(abs(direct), abs(table)):
        raise RuntimeError(
            f"self-interference evaluation orders disagree: {direct} vs {table}")
    return direct


def finite_nu(path_count: int, chips_per_frame: int, rho: float,
              beta: float) -> float:
    """Finite-L counterpart of the self-interference coefficient nu.

    The self-lag mass, by both routes, over the squared captured density;
    converges to nu(rho, beta, chips_per_frame / path_count).
    """
    v, fingers = _profile(path_count, rho, beta)
    _count(chips_per_frame, "chips_per_frame")
    ((direct, table),) = _self_lag_masses(v, fingers, [_phi_squared(chips_per_frame, path_count)])
    return _checked_mass(direct, table) / _captured_density(v, fingers) ** 2


def _flat_ratio(path_count: int, finger_count: int,
                chips_per_frame: int | None = None) -> tuple[int, int]:
    """The flat-profile finite mu, or finite nu at chips_per_frame, as an
    exact (numerator, denominator) of Python integers; the audit divides
    them, which rounds correctly, as float() of their Fraction does. With
    equal tap powers every overlap weight of nu is an integer count, so its
    double sum counts masked lags, weighted by the collision coefficients.
    """
    # Python integers, so that 4 L^3 below cannot wrap (TypeError if not one)
    L, P = map(operator.index, (path_count, finger_count))
    if not 1 <= P <= L:
        raise ValueError("finger_count must be in 1..path_count")
    if chips_per_frame is None:  # (L - 1) / L_P
        return L - 1, P
    Nc = _count(chips_per_frame, "chips_per_frame")
    if 4 * L ** 3 >= 2 ** 63:  # the integer total is below 4 L^3
        raise ValueError("path_count too large for an exact int64 count")
    i = np.arange(1, L, dtype=np.int64)
    both = np.maximum(0, P - L + i)
    single = np.maximum(0, np.minimum(i, P) - both)
    total = int(np.minimum(L - i, Nc) @ (4 * both + single))
    # (total / Nc) / L^2 over the squared captured density (P / L)^2
    return total, Nc * P * P


def flat_mu_exact(path_count: int, finger_count: int) -> Fraction:
    """Exact rational value of the flat-profile finite mu: (L - 1) / L_P."""
    from fractions import Fraction
    return Fraction(*_flat_ratio(path_count, finger_count))


def flat_nu_exact(path_count: int, finger_count: int,
                  chips_per_frame: int) -> Fraction:
    """Exact rational value of the flat-profile finite nu (see _flat_ratio)."""
    from fractions import Fraction
    return Fraction(*_flat_ratio(path_count, finger_count, chips_per_frame))


# ---------------------------------------------------------------------------
# Monte Carlo cross-checks

@dataclass(frozen=True)
class McEstimate:
    mean: float
    se: float


# taps per Monte Carlo draw block: 64 KiB of complex normals; 2^14 taps saved
# 0.3 ms of 8.7 at 500 trials but cost validate 0.2 MB more peak RSS
_MC_BLOCK_TAPS = 1 << 12


def mc_gain_ratio(path_count: int, rho: float, beta: float,
                  trials: int = 500, master_seed: int = 2024) -> McEstimate:
    """Monte Carlo average of total-to-combined channel energy.

    Draws independent unit-variance channel realizations (trial t from
    the (t, 0) substream, through channel._trial_normals a block of trials
    at a time), forms ||alpha||^2 over the energy captured by the combined
    fingers, and averages; the mean approaches mu(rho, beta) as L grows.
    Fewer than 3 combined fingers (an infinite variance) raise ValueError.
    """
    _count(trials, "trials", 2)
    profile = ApdpProfile(path_count=path_count, decay_ratio=rho)
    fingers = _count(RakeSelector(beta).finger_count(path_count),
                     f"combined fingers at {path_count} paths", 3)
    block = max(1, _MC_BLOCK_TAPS // path_count)
    ratios = np.empty(trials)
    for ts, normals in _trial_normals(master_seed, range(trials), 1, path_count, block):
        energy = np.abs(profile.path_gains(1.0, normals[:, 0])) ** 2
        ratios[ts.start:ts.stop] = energy.sum(axis=-1) / energy[:, :fingers].sum(axis=-1)
    return McEstimate(mean=float(ratios.mean()),
                      se=float(ratios.std(ddof=1) / math.sqrt(trials)))


# ---------------------------------------------------------------------------
# closed forms for the printed intermediates (unit user variance); each
# rho^x - 1 is an expm1, so that none cancels near flat decay

def _captured_density_closed(rho: float, beta: float) -> float:
    if rho == 1.0:
        return beta
    lr = math.log(rho)
    return math.expm1(beta * lr) / (rho ** beta * lr)


def _cross_mass_combined_closed(rho: float, beta: float) -> float:
    if rho == 1.0:
        return beta * beta / 2.0
    lr = math.log(rho)
    return rho ** (-2.0 * beta) * math.expm1(beta * lr) ** 2 / (2.0 * lr * lr)


def _cross_mass_full_closed(rho: float, beta: float) -> float:
    if rho == 1.0:
        return beta - beta * beta / 2.0
    lr = math.log(rho)
    # rho - 2 rho^beta + rho^(beta + 1) as rho^beta (rho - 1) - rho (rho^(beta - 1) - 1)
    return rho ** (-1.0 - 2.0 * beta) * math.expm1(beta * lr) \
        * (rho ** beta * math.expm1(lr) - rho * math.expm1((beta - 1.0) * lr)) / (2.0 * lr * lr)


# ---------------------------------------------------------------------------
# audit report

@dataclass(frozen=True)
class AuditRow:
    """One certified quantity: a value, its reference, and the verdict.

    kind is "limit" (finite sum vs closed form), "identity" (two routes
    to the same finite quantity), or "mc" (Monte Carlo vs prediction).
    For elementwise checks the reference is 0 and value holds the
    largest relative deviation found.
    """

    name: str
    kind: str
    value: float
    reference: float
    rel_err: float
    tol: float
    passed: bool
    note: str = ""


def _row(name: str, kind: str, value: float, reference: float, tol: float,
         note: str = "") -> AuditRow:
    if reference != 0.0:
        rel = abs(value - reference) / abs(reference)
    else:
        rel = abs(value)
    return AuditRow(name=name, kind=kind, value=float(value),
                    reference=float(reference), rel_err=float(rel),
                    tol=tol, passed=bool(rel <= tol), note=note)


def _lag_matrix(x: np.ndarray, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Rows lo..hi-1 (0-based; all by default) of the banded L x (L-1) lag matrix.

    Entry (l, i) is x_{L+l-i} when l <= i and zero otherwise (1-based):
    column i holds the last i entries of x, shifted to the top. Row l is a
    window of x zero-padded to 2L and reversed, read from L + 1 - l on and
    copied out contiguous, so each entry is a copy of x_{L+l-i} or an exact 0.
    """
    L = x.size
    hi = L if hi is None else min(hi, L)
    z = np.concatenate([x, np.zeros(L)])
    return sliding_window_view(z[::-1], L - 1)[L - lo:L - hi:-1].copy()


def _gram_diag_deviation(v: np.ndarray, fingers: int, combined: bool) -> float:
    """Sup deviation between a lag-pattern Gram diagonal and suffix sums.

    The lag pattern is the banded lag matrix of the tap amplitudes over
    sqrt(L), zeroed past the last finger when combined, built _GRAM_ROW_BLOCK
    rows at a time: each row sum is the same pairwise sum over the same
    contiguous row as with the whole matrix, so it keeps its bits.
    """
    L = v.size
    source = np.where(np.arange(L) < fingers, v, 0.0) if combined else v
    amplitudes, diag = np.sqrt(source) / math.sqrt(L), np.empty(L)
    for lo in range(0, L, _GRAM_ROW_BLOCK):
        M = _lag_matrix(amplitudes, lo, lo + _GRAM_ROW_BLOCK)
        diag[lo:lo + len(M)] = np.sum(np.square(M, out=M), axis=1)
    cs = np.cumsum(source)
    ref = (cs[-1] - cs) / L
    return float(np.max(np.abs(diag - ref))) / float(ref.max())


def _u2(path_count: int, fingers: int) -> np.ndarray:
    """u2 = [l <= P - L + i] of the factorized weights at tap l = 1: entry
    d - 1 holds the lag i = L - d, so it is [1 + d <= P]. The factorized side
    reads u2 only from here, never from the direct side's finger mask of m."""
    return (np.arange(1, path_count) < fingers).astype(np.int8)


def _theta_factorization_deviation(v: np.ndarray, fingers: int, rho: float) -> float:
    """Sup deviation of the overlap weights from their power-law form.

    Lag i pairs tap l with m = L + l - i. The direct weight is
    v[l] v[m] ([l <= P] + [m <= P])^2, the factorized one the power law
    times u1 + u2 + 2 u1 u2 with u1 = [l <= P] [m <= L] and u2 from _u2.
    Past the last finger (l > P) both u1 and u2 vanish and so does the
    direct weight (m > l > P): both sides are exactly 0 and cannot set a
    maximum, so only taps l <= P are swept, _TAP_BLOCK at a time. There
    [l <= P] = 1, so each side folds into an array over m, zero past
    m = L: v[l] w[m] with w = v (1 + [m <= P])^2, and c[m] times the power
    law with c = u1 + u2 + 2 u1 u2, u2 taken at tap 1 (it hangs on
    l + d = m alone). The folded counts are 1 or 4, and scaling by them is
    exact, so both sides keep the bits of the pairwise products. Each
    tap's row runs over the offsets d = m - l = L - i of strided windows
    built once, so each lag is a column; each block goes into two buffers
    allocated once. A lag's deviation is scaled by its largest factorized
    weight, that of tap 1: down a column c[m] (4, then 1, then 0) and the
    power law do not grow, and rounding is monotone.
    """
    L = v.size
    u1, u2 = (np.arange(2 * L) < L).astype(np.int8), np.zeros(2 * L, dtype=np.int8)
    u2[1:L] = _u2(L, fingers)
    w_rows = sliding_window_view(
        np.concatenate([v * (1 + (np.arange(L) < fingers)) ** 2, np.zeros(L)]), L - 1)
    c_rows = sliding_window_view(u1 + u2 + 2 * u1 * u2, L - 1)
    # power law of the pair (l, m): pw[l + m - 2] (1-based)
    pw_rows = sliding_window_view(rho ** (np.arange(0.0, -3 * L, -1.0) / (L - 1)), L - 1)
    dev, scale = np.zeros(L - 1), c_rows[1] * pw_rows[1]
    direct, fact = np.empty((2, min(_TAP_BLOCK, fingers), L - 1))
    for lo in range(0, fingers, _TAP_BLOCK):
        hi = min(lo + _TAP_BLOCK, fingers)
        w = L - 1 - lo  # offsets of the block's first tap
        d, f = direct[:hi - lo, :w], fact[:hi - lo, :w]
        np.multiply(v[lo:hi, None], w_rows[lo + 1:hi + 1, :w], out=d)
        np.multiply(c_rows[lo + 1:hi + 1, :w], pw_rows[2 * lo + 1:2 * hi + 1:2, :w], out=f)
        np.abs(np.subtract(d, f, out=d), out=d)
        np.maximum(dev[:w], d.max(axis=0), out=dev[:w])
    return float(np.max(dev / scale))


def _overlap_table_deviation(path_count: int, finger_count: int) -> float:
    """Largest mismatch between _overlap_blocks and the step-defined counts.

    Each block gives its lags a weighted run of l = m + 1. The step
    definition at lag i is u1 + u2 + 2 u1 u2, with u1 on the first
    p1 = min(i, P) and u2 on the first p2 = max(0, P - L + i) of l = 1..i,
    both prefixes read off one cumulative sum of the finger step. Both
    sides are step functions of l, so they agree on 1..i when they agree
    wherever either can change: at l = 1, each run's start, one past each
    run's end and one past each prefix. A block outside lags 1..L-1, or a
    run past l = i, pairs taps that do not exist: a mismatch of its weight.
    """
    L, P = path_count, finger_count
    i = np.arange(1, L, dtype=np.int32)
    c = np.concatenate(([0], np.cumsum(np.arange(L) < P)), dtype=np.int32)
    p1, p2 = c[i], c[L] - c[L - i]
    blocks = np.array(_overlap_blocks(L, P), dtype=float).reshape(-1, 6)
    weight = blocks[:, 2, None]  # floats, so that a non-integer weight shows
    i_lo, i_hi, _, m_end, n_lo, n_hi = blocks.T.astype(np.int32)[:, :, None]
    # each block's run of l at every lag, empty (1..0) off its lags
    on = (i_lo <= i) & (i <= i_hi)
    starts = np.where(on, np.maximum(1, n_lo - L + i + 1), 1)
    ends = np.where(on, np.minimum(m_end, n_hi - L + i), 0)
    past_i = ((ends > i) & (starts <= ends)).any(axis=1, keepdims=True)
    stray = (i_lo <= i_hi) & ((i_lo < 1) | (i_hi > L - 1) | past_i)
    worst = float(np.max(np.abs(weight) * stray, initial=0.0))
    for edge in (np.ones_like(i), *starts, *(ends + 1), p1 + 1, p2 + 1):
        l = np.clip(edge, 1, i)
        u1, u2 = (l <= p1).view(np.int8), (l <= p2).view(np.int8)
        table = np.zeros(L - 1)
        for w, start, end in zip(weight[:, 0], starts, ends):
            table += w * ((start <= l) & (l <= end))
        worst = max(worst, float(np.max(np.abs(table - (u1 + u2 + 2 * u1 * u2)))))
    return worst


# canonical (beta, load) points, one per self-interference region
_REGION_POINTS = {1: (0.3, 0.2), 2: (0.3, 0.5), 3: (0.7, 0.5),
                  4: (0.7, 0.8), 5: (0.7, 2.0)}


def oracle_audit(params: LsaParams, *, mc_trials: int, master_seed: int) -> list[AuditRow]:
    """Certify the closed forms at one operating point, in derivation order.

    The finite sums run over the path count of params at its chips per
    frame. First come the coefficients: convergence of mu, of nu in each of
    its five regions and at the operating point, and the flat-profile /
    full-combining limit subcases, whose finite sums admit exact rational
    or moment-identity references checked at 1e-10. Then every intermediate
    step on the way to the mu, nu and loss closed forms: densities and lag
    masses against their limits, structural identities (Gram diagonals,
    overlap factorizations, case tables, collision-weight cases)
    elementwise, the per-region self-lag masses against their closed forms,
    and the equilibrium-power and loss factorizations against the
    prediction module. Each finite sum on the decaying profile is evaluated
    once. The self-lag (fingers, chips) points are grouped by finger count;
    each group takes both routes' lag sums once, one dot product per chip
    count gives its masses, and its arrays are dropped before the next. The
    value rows raise if the two routes split, and the decomposition rows
    report them. A point the audit cannot certify (fewer than 3 paths, 2
    Monte Carlo trials or 3 fingers at their 400 paths, no finite nu, an
    infeasible point) raises ValueError before any finite sum.
    """
    L, rho, beta, load = params.path_count, params.rho, params.beta, params.load
    chips = params.spreading.chips_per_frame
    _count(L, "path_count", 3)  # so that every region point has a chip per frame
    # raises where nu has no finite value or either fraction is infeasible
    loss = loss_db(params, asymptotic_target=False)
    est = mc_gain_ratio(_MC_PATH_COUNT, rho, beta, trials=mc_trials, master_seed=master_seed)
    v, fingers = _profile(L, rho, beta)
    den_f = _captured_density(v, fingers)
    den_c = _captured_density_closed(rho, beta)
    total_f = _captured_density(v, L)
    total_c = _captured_density_closed(rho, 1.0)

    num1_f, num2_f = _cross_lag_masses(v, fingers)
    full1_f, full2_f = _cross_lag_masses(v, L) if fingers < L else (num1_f, num2_f)
    region_points = [(r, b_r, lam_r, RakeSelector(b_r).finger_count(L), round(lam_r * L))
                     for r, (b_r, lam_r) in _REGION_POINTS.items()]
    table_points = [(label, b_tab, RakeSelector(b_tab).finger_count(L))
                    for label, b_tab in (("low_fraction", 0.3), ("high_fraction", 0.7))]
    # every (fingers, chips) point of a self-lag row; each finger count takes
    # its lag sums once and drops them before the next
    points = {(f, c) for _, _, _, f, c in region_points} | {(fingers, chips), (L, chips)} \
        | {(f, chips) for _, _, f in table_points}
    routes = {}
    for fingers_ in sorted({f for f, _ in points}):
        group = sorted(p for p in points if p[0] == fingers_)
        routes.update(zip(group, _self_lag_masses(
            v, fingers_, [_phi_squared(c, L) for _, c in group])))

    def self_mass(fingers_: int, chips_: int) -> float:
        return _checked_mass(*routes[fingers_, chips_])

    rows = [_row("cross_coefficient", "limit", (num1_f + num2_f) / den_f ** 2,
                 params.mu, _LIMIT_TOL, note=f"rho={rho}, beta={beta}")]
    for r, b_r, lam_r, fingers_r, chips_r in region_points:
        rows.append(_row(f"self_coefficient_region{r}", "limit",
                         self_mass(fingers_r, chips_r) / _captured_density(v, fingers_r) ** 2,
                         nu(rho, b_r, lam_r), _LIMIT_TOL, note=f"beta={b_r}, load={lam_r}"))
    rows.append(_row("self_coefficient_operating_point", "limit",
                     self_mass(fingers, chips) / den_f ** 2, params.nu, _LIMIT_TOL,
                     note=f"rho={rho}, beta={beta}, load={load}"))

    mu_flat_fin = finite_mu(L, 1.0, beta)
    mu_full_fin = (full1_f + full2_f) / total_f ** 2
    nu_flat_fin = finite_nu(L, chips, 1.0, beta)
    rows.append(_row("cross_coefficient_flat", "limit",
                     mu_flat_fin, mu(1.0, beta), _LIMIT_TOL))
    rows.append(_row("cross_coefficient_flat_exact", "identity",
                     mu_flat_fin, operator.truediv(*_flat_ratio(L, fingers)), _EXACT_TOL,
                     note="flat finite sum equals (L - 1) / fingers exactly"))
    rows.append(_row("cross_coefficient_full", "limit", mu_full_fin, 1.0, _LIMIT_TOL))
    rows.append(_row("cross_coefficient_full_exact", "identity",
                     mu_full_fin, 1.0 - float((v * v).sum()) / float(v.sum()) ** 2,
                     _EXACT_TOL,
                     note="full combining reduces to the moment identity 1 - S2/S1^2"))
    rows.append(_row("self_coefficient_flat", "limit",
                     nu_flat_fin, nu(1.0, beta, load), _LIMIT_TOL))
    rows.append(_row("self_coefficient_flat_exact", "identity",
                     nu_flat_fin, operator.truediv(*_flat_ratio(L, fingers, chips)), _EXACT_TOL,
                     note="flat finite sum is rational; reference evaluated exactly"))
    rows.append(_row("self_coefficient_full", "limit",
                     self_mass(L, chips) / total_f ** 2, nu(rho, 1.0, load), _LIMIT_TOL))
    rows.append(_row("self_coefficient_flat_full_exact", "identity",
                     finite_nu(L, chips, 1.0, 1.0) if fingers < L else nu_flat_fin,
                     operator.truediv(*_flat_ratio(L, L, chips)), _EXACT_TOL,
                     note="flat full-combining finite sum vs exact rational"))

    # -- cross-gain chain -------------------------------------------------
    rows.append(_row("captured_energy_density", "limit", den_f, den_c, 5e-3))

    w = 0.37
    rows.append(_row("captured_energy_density_scaling", "identity",
                     _captured_density(w * v, fingers), w * den_f, _IDENTITY_TOL,
                     note="interfering-user copy: linear in the user variance"))

    v_g, fingers_g = _profile(_GRAM_PATH_COUNT, rho, beta)
    for label, combined, note in (
            ("full", False, "row energies equal per-path suffix sums"),
            ("combined", True, "finger-masked rows vanish past the last finger")):
        rows.append(_row(f"lag_gram_diagonal_{label}", "identity",
                         _gram_diag_deviation(v_g, fingers_g, combined), 0.0, _IDENTITY_TOL,
                         note=f"{note}; L={_GRAM_PATH_COUNT}"))

    num1_c = _cross_mass_combined_closed(rho, beta)
    num2_c = _cross_mass_full_closed(rho, beta)
    rows.append(_row("cross_lag_mass_combined", "limit", num1_f, num1_c, _LIMIT_TOL))
    rows.append(_row("cross_lag_mass_full", "limit", num2_f, num2_c, _LIMIT_TOL))
    rows.append(_row("cross_gain_ratio_identity", "identity",
                     (num1_c + num2_c) / (den_c * den_c), params.mu, _IDENTITY_TOL,
                     note="closed lag masses over squared density reduce to mu"))

    # -- self-interference chain -------------------------------------------
    rows.append(_row("captured_energy_density_squared", "limit",
                     den_f * den_f, den_c * den_c, _LIMIT_TOL))

    rows.append(_row("self_lag_weight_factorization", "identity",
                     _theta_factorization_deviation(v, fingers, rho), 0.0, _IDENTITY_TOL,
                     note="overlap weights factor into power law times overlap count"))

    for label, b_tab, fingers_tab in table_points:
        dev = _overlap_table_deviation(L, fingers_tab)
        rows.append(_row(f"overlap_count_table_{label}", "identity",
                         float(dev), 0.0, 0.0,
                         note=f"beta={b_tab}; tabulated counts match the step "
                              "definition with inner bound l <= i (a variant "
                              "bound l <= 1 breaks all single-overlap blocks)"))
        direct, table = routes[fingers_tab, chips]
        rows.append(_row(f"self_lag_sum_decomposition_{label}", "identity",
                         table, direct, _IDENTITY_TOL,
                         note=f"beta={b_tab}; block decomposition vs single pass"))

    phi_dev = 0.0
    lags = np.arange(1, L)
    for nc in (chips, 2 * L):
        cases = np.where((nc <= L) & (lags >= L - nc + 1) | (nc >= L),
                         (L - lags) / nc, 1.0)
        phi_dev = max(phi_dev, float(np.max(np.abs(cases - _phi_squared(nc, L)))))
    rows.append(_row("collision_weight_cases", "identity", phi_dev, 0.0, _IDENTITY_TOL,
                     note="piecewise collision weights vs direct min form, "
                          "checked for chips below and above the path count"))

    for r, b_r, lam_r, fingers_r, chips_r in region_points:
        # the (1/L^2)-normalized mass tends to nu times the squared
        # captured-energy density
        closed = nu(rho, b_r, lam_r) * _captured_density_closed(rho, b_r) ** 2
        rows.append(_row(f"self_lag_mass_region{r}", "limit",
                         self_mass(fingers_r, chips_r), closed, _LIMIT_TOL,
                         note=f"beta={b_r}, load={lam_r}"))

    # -- loss chain ---------------------------------------------------------
    rows.append(_row("total_energy_density", "limit", total_f, total_c, _LIMIT_TOL))
    rows.append(_row("energy_ratio_rewrite", "identity",
                     float(v.sum()) / float(v[:fingers].sum()),
                     total_f / den_f, _IDENTITY_TOL,
                     note="per-path normalization cancels in the ratio"))
    rows.append(_row("energy_ratio_limit", "identity",
                     total_c / den_c, params.mu, _IDENTITY_TOL,
                     note="ratio of the density limits reduces to mu"))

    rows.append(_row("energy_ratio_mc", "mc", est.mean, params.mu, 5e-2,
                     note=f"{mc_trials} trials at L={_MC_PATH_COUNT}, se={est.se:.2e}"))

    full = dataclasses.replace(params, beta=1.0)
    N, K, sigma_sq = params.gain, params.users, params.sigma_sq
    gam_a, gam_p = full.target_sinr, params.target_sinr
    budget_a = 1.0 - gam_a * (full.nu / N + (K - 1) / N)
    rows.append(_row("full_combining_power_form", "identity",
                     sigma_sq * gam_a / budget_a, predict_power(full, 1.0), _IDENTITY_TOL,
                     note="ratio form of the equilibrium power equals the "
                          "budget form at full combining"))

    M = _UTILITY.packet_bits
    skel_loss = params.mu \
        * (efficiency(gam_a, M) / efficiency(gam_p, M)) * (gam_p / gam_a) \
        * budget_a / (1.0 - gam_p * (params.nu / N + (K - 1) * params.mu / N))
    rows.append(_row("loss_factorization", "identity", skel_loss, 10.0 ** (loss / 10.0),
                     _IDENTITY_TOL,
                     note="four-factor utility-ratio skeleton under the limiting "
                          "substitutions equals the closed-form penalty"))
    return rows
