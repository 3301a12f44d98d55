"""Finite-size certification of the limiting interference coefficients.

The closed forms in the lsa module are limits of deterministic profile
sums: replace every random path energy by its variance, evaluate the
same traces and double sums at finite L, and the values must approach
the closed forms as L grows. This module evaluates those sums exactly
as written (no continuum shortcut), decomposes the self-interference
double sum through the overlap-count case tables as an independent
evaluation order, estimates the same ratios by Monte Carlo over random
channels, and assembles everything into an audit report with one row
per intermediate quantity.

Three kinds of rows appear in the report: "limit" rows compare a
finite-L sum against the closed form it converges to (tolerance around
1%% at L = 4000); "identity" rows compare two evaluation routes of the
same finite quantity (tolerance 1e-12, or 1e-10 when one side is an
exact rational); "mc" rows compare a Monte Carlo average against the
prediction (tolerance a few standard errors). The closed forms of the
intermediate quantities (energy densities and cross lag masses) live
here, and identity rows reduce them to lsa's mu; the self-interference
mass is lsa's nu times the squared captured density. Each limit row thus
sets a finite sum against the one definition of its closed form, never
against a retyped copy of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from numpy.fft import irfft, rfft
from numpy.lib.stride_tricks import sliding_window_view

from .channel import ApdpProfile, NetworkTopology, sample_channel, substream
from .gains import RakeSelector, _fast_len, _lag_matrix, _phi_squared
from .game import efficiency
from .lsa import (LsaParams, _is_flat, loss_db, mu, mu_flat, nu, nu_arake,
                  nu_flat, predict_power)

_DEFAULT_SIGMA_SQ = 5e-16
# path counts up to which _self_lag_mass_direct correlates the taps
# without an FFT (see there for why)
_DIRECT_LAG_MAX_L = 32
# lags per vectorised block of the elementwise checks: the (block, L)
# temporaries stay at a few MB for L in the thousands
_LAG_BLOCK = 16


# ---------------------------------------------------------------------------
# profile scaffolding

@dataclass(frozen=True)
class ProfileMatrices:
    """Deterministic profile quantities entering the limiting traces.

    tap_power holds the per-tap variances for a unit-energy user,
    tap_std their square roots, combined_std the finger-masked copy
    (equal on combined fingers, zero above). The banded lag patterns are
    exposed as methods because they are quadratic in size.
    """

    path_count: int
    finger_count: int
    chips_per_frame: int
    decay_ratio: float
    tap_power: np.ndarray
    tap_std: np.ndarray
    combined_std: np.ndarray
    finger_mask: np.ndarray
    phi_sq: np.ndarray

    def lag_pattern_full(self) -> np.ndarray:
        """L x (L-1) banded pattern of tap_std / sqrt(L)."""
        return _lag_matrix(self.tap_std.astype(complex)).real / math.sqrt(self.path_count)

    def lag_pattern_combined(self) -> np.ndarray:
        """Finger-masked counterpart of lag_pattern_full."""
        return _lag_matrix(self.combined_std.astype(complex)).real / math.sqrt(self.path_count)


def profile_matrices(path_count: int, chips_per_frame: int, rho: float,
                     beta: float) -> ProfileMatrices:
    if path_count < 2:
        raise ValueError("path_count must be >= 2")
    if chips_per_frame < 1:
        raise ValueError("chips_per_frame must be >= 1")
    L = path_count
    fingers = RakeSelector(beta).finger_count(L)
    v = ApdpProfile(L, rho).tap_variances(1.0)
    mask = np.zeros(L)
    mask[:fingers] = 1.0
    s = np.sqrt(v)
    return ProfileMatrices(
        path_count=L,
        finger_count=fingers,
        chips_per_frame=chips_per_frame,
        decay_ratio=rho,
        tap_power=v,
        tap_std=s,
        combined_std=s * mask,
        finger_mask=mask,
        phi_sq=_phi_squared(chips_per_frame, L),
    )


# ---------------------------------------------------------------------------
# finite coefficient oracles

def _captured_density(v: np.ndarray, fingers: int) -> float:
    """(1/L) sum of tap powers over the combined fingers."""
    return float(v[:fingers].sum()) / v.size


def _cross_lag_masses(v: np.ndarray, fingers: int) -> tuple[float, float]:
    """The two (1/L^2) lag-mass sums entering the cross-gain limit.

    First: pairs l < m with m combined. Second: l combined, any later m.
    """
    L = v.size
    cs_p = np.cumsum(v[:fingers])
    suffix_p = np.zeros(L)
    suffix_p[:fingers] = cs_p[-1] - cs_p
    cs = np.cumsum(v)
    suffix = cs[-1] - cs
    num1 = float(v @ suffix_p) / L ** 2
    num2 = float(v[:fingers] @ suffix[:fingers]) / L ** 2
    return num1, num2


def finite_mu(path_count: int, rho: float, beta: float) -> float:
    """Finite-L counterpart of the cross-gain coefficient mu.

    Evaluates the ratio of lag masses to the squared captured-energy
    density on the deterministic profile; converges to mu(rho, beta) as
    the path count grows.
    """
    pm = profile_matrices(path_count, 1, rho, beta)
    num1, num2 = _cross_lag_masses(pm.tap_power, pm.finger_count)
    den = _captured_density(pm.tap_power, pm.finger_count)
    return (num1 + num2) / den ** 2


def _self_lag_mass_direct(v: np.ndarray, mask: np.ndarray,
                          phi_sq: np.ndarray) -> float:
    """(1/L^2) sum over lags of phi^2 times the squared overlap weights.

    The overlap weight expands into three lag correlations (combined-by-
    full, full-by-combined, combined-by-combined); their sum at lag d is
    r[d] = sum_m vm[m] u[m + d] + u[m] vm[m + d], with vm the combined
    taps and u = v + vm. Up to _DIRECT_LAG_MAX_L paths that is one direct
    correlation. Above, it is one inverse FFT of the combined cross
    spectrum, zero-padded to the smallest 2-3-5-smooth length of at least
    2L - 1 points so that no positive lag wraps. The FFT's absolute error
    is about eps * v[0]^2 and the mass falls like v[0]^2 rho^(-1/(L-1)),
    so its relative error grows like eps * rho^(1/(L-1)): at L = 2 and
    rho = 1e4 it breaks the 1e-12 agreement finite_nu checks, while past
    32 paths it stays below 1e-13 for any decay ratio up to 1e10.
    """
    L = v.size
    vm = v * mask
    if L <= _DIRECT_LAG_MAX_L:
        # full[L - 1 + d] = sum_m u[m + d] vm[m], so full[L - 1 - d] is
        # the mirrored term
        full = np.correlate(v + vm, vm, "full")
        r = full[L - 1:] + full[L - 1::-1]
    else:
        n = _fast_len(2 * L - 1)
        V = rfft(v, n)
        VM = rfft(vm, n)
        r = irfft(np.conj(VM) * V + np.conj(V) * VM + 2.0 * (VM.real ** 2 + VM.imag ** 2), n)
    # r[d] = sum_m (cross weights) v[m] v[m + d]; phi_sq is indexed by i = L - d
    return float(phi_sq[::-1] @ r[1:L]) / L ** 2


def _self_lag_mass_table(v: np.ndarray, fingers: int,
                         phi_sq: np.ndarray) -> float:
    """Same sum evaluated block-by-block from the overlap-count tables.

    Lag i pairs tap m with n = m + L - i (0-based). A block is a range of
    lags over which one overlap count covers a run of m; its run in
    1-based m is [1, i], [1, P], [1, b] (both taps combined, weight 4)
    or [b + 1, P] / [b + 1, i] (one tap combined), b = P - L + i, given
    here as m < m_end and n_lo <= n < n_hi. All lags of a block are
    summed directly by one correlation over a zero-padded partner run.
    """
    L = v.size
    P = fingers

    def block(i_lo: int, i_hi: int, weight: float, m_end: int, n_lo: int,
              n_hi: int) -> float:
        if i_hi < i_lo:
            return 0.0
        lo = L - i_hi  # partner of m = 0 at the first lag, i = i_hi
        window = np.zeros(i_hi - i_lo + m_end)
        s, e = max(n_lo, lo), min(n_hi, lo + window.size)
        window[s - lo:e - lo] = v[s:e]
        dots = np.correlate(window, v[:m_end], "valid")  # i = i_hi down to i_lo
        return weight * float(phi_sq[i_lo - 1:i_hi] @ dots[::-1])

    if 2 * P <= L:
        total = (block(1, P, 1.0, P, 0, L)
                 + block(P + 1, L - P, 1.0, P, 0, L)
                 + block(L - P + 1, L - 1, 4.0, P - 1, 0, P)
                 + block(L - P + 1, L - 1, 1.0, P, P, L))
    else:
        i_mid = min(P, L - 1)
        total = (block(1, L - P, 1.0, L - P, 0, L)
                 + block(L - P + 1, i_mid, 4.0, P - 1, 0, P)
                 + block(L - P + 1, i_mid, 1.0, P, P, L)
                 + block(P + 1, L - 1, 4.0, P - 1, 0, P)
                 + block(P + 1, L - 1, 1.0, P, P, L))
    return total / L ** 2


def finite_nu(path_count: int, chips_per_frame: int, rho: float, beta: float,
              method: str = "checked") -> float:
    """Finite-L counterpart of the self-interference coefficient nu.

    method="direct" sums over lags, with the overlap weights from the
    finger masks, by FFT (by one direct correlation up to
    _DIRECT_LAG_MAX_L paths); "table" uses the case-table decomposition of
    the overlap counts; "checked" (default) runs both and raises if they
    disagree beyond 1e-12 relative.
    """
    pm = profile_matrices(path_count, chips_per_frame, rho, beta)
    den = _captured_density(pm.tap_power, pm.finger_count)
    if method == "direct":
        mass = _self_lag_mass_direct(pm.tap_power, pm.finger_mask, pm.phi_sq)
    elif method == "table":
        mass = _self_lag_mass_table(pm.tap_power, pm.finger_count, pm.phi_sq)
    elif method == "checked":
        mass = _self_lag_mass_direct(pm.tap_power, pm.finger_mask, pm.phi_sq)
        other = _self_lag_mass_table(pm.tap_power, pm.finger_count, pm.phi_sq)
        if abs(mass - other) > 1e-12 * max(abs(mass), abs(other)):
            raise ValueError(
                f"self-interference evaluation orders disagree: {mass} vs {other}")
    else:
        raise ValueError(f"unknown method {method!r}")
    return mass / den ** 2


def flat_mu_exact(path_count: int, finger_count: int) -> Fraction:
    """Exact rational value of the flat-profile finite mu: (L - 1) / L_P."""
    if not 1 <= finger_count <= path_count:
        raise ValueError("finger_count must be in 1..path_count")
    return Fraction(path_count - 1, finger_count)


def flat_nu_exact(path_count: int, finger_count: int,
                  chips_per_frame: int) -> Fraction:
    """Exact rational value of the flat-profile finite nu.

    With equal tap powers every overlap weight is an integer count, so
    the double sum reduces to counting masked lags, weighted by the
    rational collision coefficients.
    """
    L, P, Nc = path_count, finger_count, chips_per_frame
    if not 1 <= P <= L:
        raise ValueError("finger_count must be in 1..path_count")
    if 4 * L ** 3 >= 2 ** 63:  # the integer total is below 4 L^3
        raise ValueError("path_count too large for an exact int64 count")
    i = np.arange(1, L, dtype=np.int64)
    both = np.maximum(0, P - L + i)
    single = np.maximum(0, np.minimum(i, P) - both)
    total = int(np.minimum(L - i, Nc) @ (4 * both + single))
    # (total / Nc) / L^2 over the squared captured density (P / L)^2
    return Fraction(total, Nc * P * P)


def _arake_mu_identity(path_count: int, rho: float) -> float:
    """Full-combining finite mu by the moment identity 1 - S2 / S1^2."""
    v = ApdpProfile(path_count, rho).tap_variances(1.0)
    s1 = float(v.sum())
    s2 = float((v * v).sum())
    return 1.0 - s2 / s1 ** 2


# ---------------------------------------------------------------------------
# Monte Carlo cross-checks

@dataclass(frozen=True)
class McEstimate:
    mean: float
    se: float


def _unit_topology(users: int) -> NetworkTopology:
    return NetworkTopology(distances=np.ones(users), path_variance_scale=1.0)


def mc_gain_ratio(path_count: int, rho: float, beta: float,
                  trials: int = 500, master_seed: int = 2024) -> McEstimate:
    """Monte Carlo average of total-to-combined channel energy.

    Draws independent channel realizations, forms ||alpha||^2 over the
    energy captured by the combined fingers, and averages; the mean
    approaches mu(rho, beta) as the path count grows.
    """
    if trials < 2:
        raise ValueError("trials must be >= 2")
    profile = ApdpProfile(path_count=path_count, decay_ratio=rho)
    topo = _unit_topology(1)
    fingers = RakeSelector(beta).finger_count(path_count)
    ratios = np.empty(trials)
    for t in range(trials):
        a = sample_channel(profile, topo, 0, substream(master_seed, t, 0)).gains
        energy = np.abs(a) ** 2
        ratios[t] = energy.sum() / energy[:fingers].sum()
    return McEstimate(mean=float(ratios.mean()),
                      se=float(ratios.std(ddof=1) / math.sqrt(trials)))


# ---------------------------------------------------------------------------
# closed forms for the printed intermediates (unit user variance)

def _captured_density_closed(rho: float, beta: float) -> float:
    if _is_flat(rho):
        return beta
    lr = math.log(rho)
    return (rho ** beta - 1.0) / (rho ** beta * lr)


def _total_density_closed(rho: float) -> float:
    if _is_flat(rho):
        return 1.0
    lr = math.log(rho)
    return (rho - 1.0) / (rho * lr)


def _cross_mass_combined_closed(rho: float, beta: float) -> float:
    if _is_flat(rho):
        return beta * beta / 2.0
    lr = math.log(rho)
    return rho ** (-2.0 * beta) * (rho ** beta - 1.0) ** 2 / (2.0 * lr * lr)


def _cross_mass_full_closed(rho: float, beta: float) -> float:
    if _is_flat(rho):
        return beta - beta * beta / 2.0
    lr = math.log(rho)
    return rho ** (-1.0 - 2.0 * beta) * (rho ** beta - 1.0) \
        * (rho - 2.0 * rho ** beta + rho ** (beta + 1.0)) / (2.0 * lr * lr)


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


def _dev_row(name: str, kind: str, deviation: float, tol: float,
             note: str = "") -> AuditRow:
    return AuditRow(name=name, kind=kind, value=float(deviation),
                    reference=0.0, rel_err=float(deviation), tol=tol,
                    passed=bool(deviation <= tol), note=note)


def _gram_diag_deviation(pm: ProfileMatrices, combined: bool) -> float:
    """Sup deviation between a lag-pattern Gram diagonal and suffix sums."""
    L = pm.path_count
    M = pm.lag_pattern_combined() if combined else pm.lag_pattern_full()
    diag = np.sum(M * M, axis=1)
    source = pm.tap_power * (pm.finger_mask if combined else 1.0)
    cs = np.cumsum(source)
    ref = (cs[-1] - cs) / L
    scale = float(ref.max())
    return float(np.max(np.abs(diag - ref))) / scale


def _theta_factorization_deviation(pm: ProfileMatrices) -> float:
    """Sup deviation of the overlap weights from their power-law form.

    Lag i pairs tap l with m = L + l - i (l = 1..i); each lag is scaled by
    its largest factorized weight. The lags of a block are the rows of
    strided views; a row runs past l = i into zero padding (m > L).
    """
    L, P = pm.path_count, pm.finger_count
    v, rho = pm.tap_power, pm.decay_ratio
    x = np.arange(L + _LAG_BLOCK)
    v_pad = np.concatenate([v, np.zeros(_LAG_BLOCK)])
    mask = np.concatenate([pm.finger_mask, np.zeros(_LAG_BLOCK)]).astype(np.int8)
    step, inside = (x < P).astype(np.int8), (x < L).astype(np.int8)
    # power law of the pair (l, i): pw[k] at k = L + 2l - i - 2
    pw = rho ** (-(np.arange(2 * L + 2 * _LAG_BLOCK)) / (L - 1))
    dev = 0.0
    for i_lo in range(1, L, _LAG_BLOCK):
        n = min(i_lo + _LAG_BLOCK, L) - 1  # widest row of the block
        rows = slice(L - n, L - i_lo + 1)  # row r holds lag i = L - r
        direct = v[:n] * sliding_window_view(v_pad, n)[rows]
        direct *= ((mask[:n] + sliding_window_view(mask, n)[rows]) ** 2).astype(float)
        u1 = step[:n] * sliding_window_view(inside, n)[rows]  # l <= P, m <= L
        u2 = sliding_window_view(step, n)[rows]  # l <= P - L + i
        fact = (u1 + u2 + 2 * u1 * u2).astype(float)
        fact *= sliding_window_view(pw, 2 * n - 1)[rows, ::2]
        scale = np.maximum(fact.max(axis=1), 1e-300)
        direct -= fact
        dev = max(dev, float(np.max(np.abs(direct, out=direct).max(axis=1) / scale)))
    return dev


def _overlap_table_deviation(path_count: int, finger_count: int) -> int:
    """Largest mismatch between tabulated and step-defined overlap counts.

    The table gives lag i a count of 4 over l <= n4 and of 1 over
    n4 < l <= n1, case by case; the step definition is u1 + u2 + 2 u1 u2
    with u1 = [l <= P] and u2 = [l <= P - L + i]. Both are compared over
    l = 1..i, a block of lags at a time as rows of strided views.
    """
    L, P = path_count, finger_count
    x = np.arange(L + _LAG_BLOCK, dtype=np.int32)
    step, inside = (x < P).astype(np.int8), (x < L).astype(np.int8)
    i = L - x[1:L]  # lag of row r = 1..L-1
    b = P - L + i
    if 2 * P <= L:
        cases = (i <= P, i <= L - P)
        n4, n1 = np.select(cases, (0, 0), b), np.select(cases, (i, P), P)
    else:
        cases = (i <= L - P, i <= P)
        n4, n1 = np.select(cases, (0, b), b), np.select(cases, (i, i), P)
    worst = 0
    for i_lo in range(1, L, _LAG_BLOCK):
        n = min(i_lo + _LAG_BLOCK, L) - 1
        rows = slice(L - n, L - i_lo + 1)
        u1, u2 = step[:n], sliding_window_view(step, n)[rows]
        direct = u1 + u2 + 2 * u1 * u2
        l0, t4 = x[:n], n4[L - n - 1:L - i_lo, None]  # l0 = l - 1
        t1 = n1[L - n - 1:L - i_lo, None]
        table = np.int8(4) * (l0 < t4) + ((t4 <= l0) & (l0 < t1))
        mismatch = np.abs(direct - table) * sliding_window_view(inside, n)[rows]
        worst = max(worst, int(mismatch.max()))
    return worst


# canonical (beta, load) points, one per self-interference region
_REGION_POINTS = {1: (0.3, 0.2), 2: (0.3, 0.5), 3: (0.7, 0.5),
                  4: (0.7, 0.8), 5: (0.7, 2.0)}


def appendix_intermediates(path_count: int, rho: float, beta: float,
                           load: float, *, users: int = 8, frames: int = 20,
                           sigma_sq: float = _DEFAULT_SIGMA_SQ,
                           gram_path_count: int = 400,
                           mc_path_count: int = 400, mc_trials: int = 500,
                           master_seed: int = 20240) -> list[AuditRow]:
    """Audit every intermediate quantity in the coefficient derivations.

    Each printed step on the way to the mu, nu, and loss closed forms is
    evaluated once: densities and lag masses as finite profile sums
    against their limits, structural identities (Gram diagonals, overlap
    factorizations, case tables, collision-weight cases) elementwise, the
    per-region self-interference masses against their closed forms, and
    the equilibrium-power and loss factorizations against the prediction
    module. Returns the rows in derivation order.
    """
    if path_count < 2:
        raise ValueError("path_count must be >= 2")
    chips = round(load * path_count)
    if chips < 1 or abs(chips - load * path_count) > 1e-9:
        raise ValueError("load times path_count must be a positive integer")
    L = path_count
    pm = profile_matrices(L, chips, rho, beta)
    v, fingers = pm.tap_power, pm.finger_count
    rows: list[AuditRow] = []

    # -- cross-gain chain -------------------------------------------------
    den_f = _captured_density(v, fingers)
    den_c = _captured_density_closed(rho, beta)
    rows.append(_row("captured_energy_density", "limit", den_f, den_c, 5e-3))

    w = 0.37
    rows.append(_row("captured_energy_density_scaling", "identity",
                     _captured_density(w * v, fingers), w * den_f, 1e-12,
                     note="interfering-user copy: linear in the user variance"))

    pm_g = profile_matrices(gram_path_count, max(1, round(load * gram_path_count)),
                            rho, beta)
    rows.append(_dev_row("lag_gram_diagonal_full", "identity",
                         _gram_diag_deviation(pm_g, combined=False), 1e-12,
                         note=f"row energies equal per-path suffix sums; L={gram_path_count}"))
    rows.append(_dev_row("lag_gram_diagonal_combined", "identity",
                         _gram_diag_deviation(pm_g, combined=True), 1e-12,
                         note=f"finger-masked rows vanish past the last finger; L={gram_path_count}"))

    num1_f, num2_f = _cross_lag_masses(v, fingers)
    num1_c = _cross_mass_combined_closed(rho, beta)
    num2_c = _cross_mass_full_closed(rho, beta)
    rows.append(_row("cross_lag_mass_combined", "limit", num1_f, num1_c, 1e-2))
    rows.append(_row("cross_lag_mass_full", "limit", num2_f, num2_c, 1e-2))
    rows.append(_row("cross_gain_ratio_identity", "identity",
                     (num1_c + num2_c) / (den_c * den_c), mu(rho, beta), 1e-12,
                     note="closed lag masses over squared density reduce to mu"))

    # -- self-interference chain -------------------------------------------
    rows.append(_row("captured_energy_density_squared", "limit",
                     den_f * den_f, den_c * den_c, 1e-2))

    rows.append(_dev_row("self_lag_weight_factorization", "identity",
                         _theta_factorization_deviation(pm), 1e-12,
                         note="overlap weights factor into power law times overlap count"))

    for label, b_tab in (("low_fraction", 0.3), ("high_fraction", 0.7)):
        fingers_tab = RakeSelector(b_tab).finger_count(L)
        dev = _overlap_table_deviation(L, fingers_tab)
        rows.append(_dev_row(f"overlap_count_table_{label}", "identity",
                             float(dev), 0.0,
                             note=f"beta={b_tab}; tabulated counts match the step "
                                  "definition with inner bound l <= i (a variant "
                                  "bound l <= 1 breaks all single-overlap blocks)"))
        pm_tab = profile_matrices(L, chips, rho, b_tab)
        direct = _self_lag_mass_direct(pm_tab.tap_power, pm_tab.finger_mask,
                                       pm_tab.phi_sq)
        table = _self_lag_mass_table(pm_tab.tap_power, pm_tab.finger_count,
                                     pm_tab.phi_sq)
        rows.append(_row(f"self_lag_sum_decomposition_{label}", "identity",
                         table, direct, 1e-12,
                         note=f"beta={b_tab}; block decomposition vs single pass"))

    phi_dev = 0.0
    for nc in (chips, 2 * L):
        cases = np.empty(L - 1)
        for i in range(1, L):
            if (nc <= L and i >= L - nc + 1) or nc >= L:
                cases[i - 1] = (L - i) / nc
            else:
                cases[i - 1] = 1.0
        phi_dev = max(phi_dev, float(np.max(np.abs(cases - _phi_squared(nc, L)))))
    rows.append(_dev_row("collision_weight_cases", "identity", phi_dev, 1e-12,
                         note="piecewise collision weights vs direct min form, "
                              "checked for chips below and above the path count"))

    for region in range(1, 6):
        b_r, lam_r = _REGION_POINTS[region]
        chips_r = round(lam_r * L)
        pm_r = profile_matrices(L, chips_r, rho, b_r)
        mass = _self_lag_mass_direct(pm_r.tap_power, pm_r.finger_mask, pm_r.phi_sq)
        # the (1/L^2)-normalized mass tends to nu times the squared
        # captured-energy density
        closed = nu(rho, b_r, lam_r) * _captured_density_closed(rho, b_r) ** 2
        rows.append(_row(f"self_lag_mass_region{region}", "limit",
                         mass, closed, 1e-2, note=f"beta={b_r}, load={lam_r}"))

    # -- loss chain ---------------------------------------------------------
    total_f = float(v.sum()) / L
    total_c = _total_density_closed(rho)
    rows.append(_row("total_energy_density", "limit", total_f, total_c, 1e-2))
    rows.append(_row("energy_ratio_rewrite", "identity",
                     float(v.sum()) / float(v[:fingers].sum()),
                     total_f / den_f, 1e-12,
                     note="per-path normalization cancels in the ratio"))
    rows.append(_row("energy_ratio_limit", "identity",
                     total_c / den_c, mu(rho, beta), 1e-12,
                     note="ratio of the density limits reduces to mu"))

    est = mc_gain_ratio(mc_path_count, rho, beta, trials=mc_trials,
                        master_seed=master_seed)
    rows.append(_row("energy_ratio_mc", "mc", est.mean, mu(rho, beta), 5e-2,
                     note=f"{mc_trials} trials at L={mc_path_count}, se={est.se:.2e}"))

    N = frames * chips
    params_a = LsaParams(rho=rho, beta=1.0, load=load, gain=N, users=users,
                         sigma_sq=sigma_sq)
    gam_a = params_a.target_sinr
    nv_a = params_a.nu
    skeleton = sigma_sq * gam_a / (1.0 - gam_a * (nv_a / N + (users - 1) / N))
    rows.append(_row("full_combining_power_form", "identity",
                     skeleton, predict_power(params_a, 1.0), 1e-12,
                     note="ratio form of the equilibrium power equals the "
                          "budget form at full combining"))

    params_p = LsaParams(rho=rho, beta=beta, load=load, gain=N, users=users,
                         sigma_sq=sigma_sq)
    gam_p = params_p.target_sinr
    m = params_p.mu
    nv = params_p.nu
    M = params_p.utility.packet_bits
    skel_loss = m \
        * (efficiency(gam_a, M) / efficiency(gam_p, M)) * (gam_p / gam_a) \
        * (1.0 - gam_a * (nv_a / N + (users - 1) / N)) \
        / (1.0 - gam_p * (nv / N + (users - 1) * m / N))
    rows.append(_row("loss_factorization", "identity", skel_loss,
                     10.0 ** (loss_db(params_p, asymptotic_target=False) / 10.0),
                     1e-12,
                     note="four-factor utility-ratio skeleton under the limiting "
                          "substitutions equals the closed-form penalty"))
    return rows


def oracle_audit(path_count: int = 4000, rho: float = 10.0, beta: float = 0.1,
                 load: float = 0.25, **kwargs) -> list[AuditRow]:
    """Full certification: coefficients, limit subcases, and intermediates.

    Prepends to appendix_intermediates the convergence rows for mu, for
    nu in each of its five regions and at the operating point, and for
    the flat-profile / full-combining limit subcases, where the finite
    sums admit exact rational or moment-identity references checked at
    1e-10.
    """
    L = path_count
    chips = round(load * L)
    rows: list[AuditRow] = []

    rows.append(_row("cross_coefficient", "limit",
                     finite_mu(L, rho, beta), mu(rho, beta), 1e-2,
                     note=f"rho={rho}, beta={beta}"))
    for region in range(1, 6):
        b_r, lam_r = _REGION_POINTS[region]
        rows.append(_row(f"self_coefficient_region{region}", "limit",
                         finite_nu(L, round(lam_r * L), rho, b_r),
                         nu(rho, b_r, lam_r), 1e-2,
                         note=f"beta={b_r}, load={lam_r}"))
    rows.append(_row("self_coefficient_operating_point", "limit",
                     finite_nu(L, chips, rho, beta), nu(rho, beta, load), 1e-2,
                     note=f"rho={rho}, beta={beta}, load={load}"))

    fingers = RakeSelector(beta).finger_count(L)
    mu_flat_fin = finite_mu(L, 1.0, beta)
    mu_full_fin = finite_mu(L, rho, 1.0)
    nu_flat_fin = finite_nu(L, chips, 1.0, beta)
    rows.append(_row("cross_coefficient_flat", "limit", mu_flat_fin, mu_flat(beta), 1e-2))
    rows.append(_row("cross_coefficient_flat_exact", "identity",
                     mu_flat_fin, float(flat_mu_exact(L, fingers)), 1e-10,
                     note="flat finite sum equals (L - 1) / fingers exactly"))
    rows.append(_row("cross_coefficient_full", "limit", mu_full_fin, 1.0, 1e-2))
    rows.append(_row("cross_coefficient_full_exact", "identity",
                     mu_full_fin, _arake_mu_identity(L, rho), 1e-10,
                     note="full combining reduces to the moment identity 1 - S2/S1^2"))
    rows.append(_row("self_coefficient_flat", "limit",
                     nu_flat_fin, nu_flat(beta, load), 1e-2))
    rows.append(_row("self_coefficient_flat_exact", "identity",
                     nu_flat_fin, float(flat_nu_exact(L, fingers, chips)), 1e-10,
                     note="flat finite sum is rational; reference evaluated exactly"))
    rows.append(_row("self_coefficient_full", "limit",
                     finite_nu(L, chips, rho, 1.0), nu_arake(rho, load), 1e-2))
    rows.append(_row("self_coefficient_flat_full_exact", "identity",
                     finite_nu(L, chips, 1.0, 1.0),
                     float(flat_nu_exact(L, L, chips)), 1e-10,
                     note="flat full-combining finite sum vs exact rational"))

    rows.extend(appendix_intermediates(L, rho, beta, load, **kwargs))
    return rows


# ---------------------------------------------------------------------------
# convergence scans

@dataclass(frozen=True)
class ConvergenceRow:
    quantity: str
    path_count: int
    value: float
    reference: float
    rel_err: float


def convergence_table(quantity: str, path_counts: Sequence[int], rho: float,
                      beta: float, load: float = 0.25, trials: int = 300,
                      master_seed: int = 777) -> list[ConvergenceRow]:
    """Finite-size scan of one coefficient against its reference.

    Quantities: "mu" and "nu" (deterministic sums; the reference is the
    closed-form limit, or the exact finite value in the flat and
    full-combining subcases, where the error sits at roundoff for every
    size), and "gain_ratio_mc" (Monte Carlo energy ratio vs mu). The
    relative error column shrinks with the path count, up to sampling
    noise on the Monte Carlo rows.
    """
    counts = list(path_counts)
    if counts != sorted(counts) or len(set(counts)) != len(counts):
        raise ValueError("path_counts must be strictly increasing")
    rows = []
    for L in counts:
        if quantity == "mu":
            value = finite_mu(L, rho, beta)
            fingers = RakeSelector(beta).finger_count(L)
            if _is_flat(rho):
                ref = float(flat_mu_exact(L, fingers))
            elif beta == 1.0:
                ref = _arake_mu_identity(L, rho)
            else:
                ref = mu(rho, beta)
        elif quantity == "nu":
            chips = max(1, round(load * L))
            value = finite_nu(L, chips, rho, beta)
            fingers = RakeSelector(beta).finger_count(L)
            if _is_flat(rho):
                ref = float(flat_nu_exact(L, fingers, chips))
            else:
                ref = nu(rho, beta, load)
        elif quantity == "gain_ratio_mc":
            value = mc_gain_ratio(L, rho, beta, trials=trials,
                                  master_seed=master_seed).mean
            ref = mu(rho, beta)
        else:
            raise ValueError(f"unknown quantity {quantity!r}")
        rows.append(ConvergenceRow(quantity=quantity, path_count=L,
                                   value=float(value), reference=float(ref),
                                   rel_err=abs(value - ref) / abs(ref)))
    return rows
