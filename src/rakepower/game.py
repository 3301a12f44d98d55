"""Distributed power control as a non-cooperative game.

Each user picks transmit power to maximize bits delivered per joule:
u_k = (D/M) R f(gamma_k) / p_k with packet success f(gamma) =
(1 - e^(-gamma/2))^M. With rake gains fixed, the best response drives the
output SINR to the target gamma* solving
(M/2) gamma (1 - gamma / varsigma) = e^(gamma/2) - 1,
where varsigma is the user's self-interference ratio h_sp / h_si. The
capped best-response map is a standard interference function (Yates), so
its fixed point is unique; an active set over the power cap solves it.
Whether a user sits at the cap there takes no search: one linear solve
per bank decides it (_outage).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .gains import LinkGains

# relative fixed-point residual a solve must certify (roundoff is ~1e-15)
_RESIDUAL_BOUND = 1e-12


@dataclass(frozen=True)
class UtilityParams:
    """Throughput-per-energy utility: packet size, payload, rate, power cap."""

    packet_bits: int = 100
    data_bits: int = 100
    rate_bps: float = 100e3
    max_power: float = 1e-6

    def __post_init__(self):
        if not self.packet_bits >= 2:
            raise ValueError("packet_bits must be >= 2")
        if not 0 < self.data_bits <= self.packet_bits:
            raise ValueError("data_bits must be in 1..packet_bits")
        # a non-integer count raises TypeError
        operator.index(self.packet_bits)
        operator.index(self.data_bits)
        if not self.rate_bps > 0:
            raise ValueError("rate_bps must be positive")
        if not self.max_power > 0:
            raise ValueError("max_power must be positive")

    @property
    def throughput_scale(self) -> float:
        return self.data_bits / self.packet_bits * self.rate_bps


def efficiency(gamma, packet_bits: int = UtilityParams.packet_bits):
    """Packet success rate (1 - e^(-gamma/2))^M; accepts scalars or arrays."""
    g = np.asarray(gamma, dtype=float)
    out = (-np.expm1(-g / 2.0)) ** packet_bits
    return float(out) if np.isscalar(gamma) or g.ndim == 0 else out


def _newton_root(x: np.ndarray, inv: np.ndarray | float, M: int) -> np.ndarray:
    """Newton on the concave g(x) = (M/2) x (1 - x inv) - (e^(x/2) - 1) from
    points right of its positive root, onto which it falls monotonically;
    it ends once no entry falls any further."""
    while True:
        e = np.expm1(x / 2.0)
        g = 0.5 * M * x * (1.0 - x * inv) - e
        dg = 0.5 * M * (1.0 - 2.0 * x * inv) - 0.5 * (e + 1.0)
        x_next = x - g / dg
        if not np.any(x_next < x):
            return x
        x = np.minimum(x, x_next)


@functools.cache
def _free_target(packet_bits: int) -> float:
    """gamma* without self-interference (varsigma = inf), from 4 ln M,
    which lies right of it; one value per packet size."""
    return float(_newton_root(np.array(4.0 * math.log(packet_bits)), 0.0, packet_bits))


def _targets(varsigma, packet_bits: int) -> np.ndarray:
    """gamma* for an array of varsigma: the root of g with inv = 1/varsigma,
    g(0) = 0 < g'(0) for M >= 2. Since g = g_inf - (M/2) x^2 / varsigma,
    every root lies left of gamma*(inf), and below varsigma, so Newton
    falls onto it from min(gamma*(inf), varsigma).
    """
    vs = np.asarray(varsigma, dtype=float)
    M = operator.index(packet_bits)
    if not np.all(vs > 0):
        raise ValueError("varsigma must be positive")
    if M < 2:
        raise ValueError(f"no SINR target exists for M={M}")
    return _newton_root(np.minimum(_free_target(M), vs), 1.0 / vs, M)


def gamma_star(varsigma: float, packet_bits: int = UtilityParams.packet_bits) -> float:
    """Best-response SINR target for self-interference ratio varsigma; inf
    gives the interference-free one (about 12.9492 for 100-bit packets)."""
    return float(_targets(float(varsigma), packet_bits))


def _sinrs(gains: LinkGains, powers: np.ndarray) -> np.ndarray:
    """Output SINR of every user, for one bank or a stack of banks."""
    mai = (gains.h_mai @ powers[..., None])[..., 0]
    return gains.h_sp * powers / (gains.h_si * powers + mai + gains.sigma_sq)


def utilities(gains: LinkGains, powers: np.ndarray,
              params: UtilityParams) -> np.ndarray:
    """Per-user utility at a power vector; zero utility at zero power."""
    p = np.asarray(powers, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = params.throughput_scale * efficiency(_sinrs(gains, p), params.packet_bits) / p
    return np.where(p > 0, u, 0.0)


def _target_load(gains: LinkGains, packet_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """gamma*_k and gamma*_k (1/varsigma_k + zeta_k), the budget share it uses."""
    gam = _targets(gains.si_ratio, packet_bits)
    return gam, gam * (gains.h_si / gains.h_sp + gains.mai_ratio_inv)


def best_response(gains: LinkGains, powers: np.ndarray, k: int,
                  params: UtilityParams) -> float:
    """Utility-maximizing power for user k against fixed other-user powers."""
    gam = gamma_star(float(gains.si_ratio[k]), params.packet_bits)
    interference = float(gains.h_mai[k] @ np.asarray(powers, dtype=float)) + gains.sigma_sq
    return min(gam * interference / (gains.h_sp[k] - gam * gains.h_si[k]),
               params.max_power)


def feasibility(gains: LinkGains,
                packet_bits: int = UtilityParams.packet_bits) -> np.ndarray:
    """Whether each user's target is supportable with finite positive power.

    User k is feasible when gamma*(varsigma_k) (1/varsigma_k + zeta_k) < 1,
    zeta_k being the sum over j != k of h_mai[k, j] / h_sp[j].
    """
    return _target_load(gains, packet_bits)[1] < 1.0


def closed_form_equilibrium_power(gains: LinkGains,
                                  params: UtilityParams) -> np.ndarray:
    """Unclamped equilibrium powers from the gain ratios alone.

    p_k = sigma^2 gamma*_k / (h_sp[k] (1 - gamma*_k (1/varsigma_k + zeta_k))).
    Exact when every user's interference profile comes from the same gain
    bank (a common channel realization); otherwise the leading-order
    reduction of the fixed point.
    """
    gam, load = _target_load(gains, params.packet_bits)
    denom = gains.h_sp * (1.0 - load)
    if np.any(denom <= 0):
        raise ValueError(f"users {np.argwhere(denom <= 0).tolist()} are infeasible: "
                         "no positive equilibrium power")
    return gains.sigma_sq * gam / denom


@dataclass(frozen=True)
class EquilibriumOutcome:
    """Fixed point of the capped best-response map.

    Per-user arrays have the shape of gains.h_sp, (..., K) for a stack.
    iterations counts the linear-solve rounds (at most K); converged
    certifies the fixed point: one more best response moves no power by
    more than 1e-12 of itself. Both cover the whole stack.
    """

    powers: np.ndarray
    utilities: np.ndarray
    converged: bool
    iterations: int
    clamped: np.ndarray

    @property
    def any_clamped(self) -> bool:
        return bool(np.any(self.clamped))


def _response_map(gains: LinkGains, packet_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """N = s[:, None] h_mai and b = s sigma^2 of the uncapped best response
    p -> N p + b, s_k = gamma*_k / (h_sp[k] - gamma*_k h_si[k]), for one
    bank or a stack."""
    gam = _targets(gains.si_ratio, packet_bits)
    s = gam / (gains.h_sp - gam * gains.h_si)
    return s[..., None] * gains.h_mai, s * gains.sigma_sq


def _certified(N: np.ndarray, floor: np.ndarray, p: np.ndarray, p_max: float) -> bool:
    """Whether one more capped best response p -> min(N p + floor, p_max)
    moves no power of p by more than 1e-12 of itself."""
    residual = np.abs(np.minimum((N @ p[..., None])[..., 0] + floor, p_max) - p)
    return bool(np.all(residual <= _RESIDUAL_BOUND * p))


def solve_equilibrium(gains: LinkGains, params: UtilityParams) -> EquilibriumOutcome:
    """Exact equilibrium for one bank or a stack of banks on leading axes.

    Users start at max_power; each round releases every capped user whose
    best response is below the cap and solves (I - free N) p =
    where(free, s sigma^2, max_power), N = s[:, None] h_mai, s_k =
    gamma*_k / (h_sp[k] (1 - gamma*_k / varsigma_k)). Powers stay at or
    above the fixed point and only fall, so released users are free there
    and I - N_FF is a nonsingular M-matrix: at most K rounds.
    """
    p_max = params.max_power
    N, floor = _response_map(gains, params.packet_bits)
    p, free, rounds = np.full(floor.shape, p_max), np.zeros(floor.shape, dtype=bool), 0
    while (release := ~free & ((N @ p[..., None])[..., 0] + floor < p_max)).any():
        rounds += 1
        banks = release.any(axis=-1)
        free |= release
        f = free[banks]
        p[banks] = np.linalg.solve(np.eye(floor.shape[-1]) - f[..., None] * N[banks],
                                   np.where(f, floor[banks], p_max)[..., None])[..., 0]
    return EquilibriumOutcome(
        powers=p, utilities=utilities(gains, p, params),
        converged=_certified(N, floor, p, p_max), iterations=rounds, clamped=~free)


def _outage(gains: LinkGains, params: UtilityParams) -> tuple[np.ndarray, bool]:
    """Whether each system of a stack has a user at the power cap at its
    equilibrium, found with no equilibrium search; and whether every
    system served without one passes solve_equilibrium's certificate.

    With N and b of the best response, a solution p > 0 of (I - N) p = b
    gives N p < p, so the spectral radius of N is below 1
    (Collatz-Wielandt) and p is the uncapped fixed point. The capped map's
    fixed point is unique (Yates), so it is p exactly when p < max_power;
    every other system, a singular I - N included, has a user at the cap.
    That is one linear solve per system.
    """
    p_max = params.max_power
    N, floor = _response_map(gains, params.packet_bits)
    A = np.eye(floor.shape[-1]) - N
    try:
        p = np.linalg.solve(A, floor[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # one exactly singular system fails the whole stacked solve: solve
        # one by one and leave the singular ones at 0, in outage
        p = np.zeros(floor.shape)
        for i in np.ndindex(floor.shape[:-1]):
            try:
                p[i] = np.linalg.solve(A[i], floor[i])
            except np.linalg.LinAlgError:
                pass
    served = np.all((p > 0) & (p < p_max), axis=-1)
    return ~served, _certified(N[served], floor[served], p[served], p_max)
