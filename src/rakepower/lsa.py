"""Large-system closed forms for rake power control.

As the number of paths, chips, and users grow with fixed ratios, the
per-realization interference coefficients concentrate: the cross-user
coefficient tends to mu / N per interferer and the self-interference
coefficient to nu / N, where mu depends only on the profile decay ratio
and the combined-finger fraction, and nu additionally on the load (chips
per frame relative to channel length). Everything downstream of the
simulation layer - equilibrium power and utility predictions, the
partial-versus-full combining utility loss, and the minimum frame count
that keeps the network feasible - is a closed-form function of (mu, nu).

mu and nu have removable singularities at a flat profile (decay ratio 1)
and at full combining (finger fraction 1), where the generic expressions
cancel catastrophically; evaluation dispatches to dedicated limit forms
near those points. nu is piecewise in the load with five analytic
branches that agree at the region boundaries.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
import math

import numpy as np

from .game import UtilityParams, efficiency, gamma_star
from .gains import SpreadingConfig

logger = logging.getLogger(__name__)

_FLAT_RHO_TOL = 1e-6
_ARAKE_BETA_TOL = 1e-9
# the utility of every prediction, and of every study's equilibrium solve
_UTILITY = UtilityParams()


def _is_flat(rho: float) -> bool:
    """Whether rho is close enough to 1 for the flat-profile limit forms."""
    return abs(rho - 1.0) < _FLAT_RHO_TOL


def _is_full(beta: float) -> bool:
    """Whether beta is close enough to 1 for the full-combining limit forms."""
    return 1.0 - beta < _ARAKE_BETA_TOL


def _check_rho(rho: float):
    if not rho >= 1:
        raise ValueError("decay ratio must be >= 1")


def _check_beta(beta: float):
    if not 0 < beta <= 1:
        raise ValueError("finger fraction must be in (0, 1]")


def _check_load(load: float):
    if not load > 0:
        raise ValueError("load must be positive")


def mu_flat(beta: float) -> float:
    """Cross-gain coefficient for a flat profile: 1 / beta."""
    _check_beta(beta)
    return 1.0 / beta


def mu(rho: float, beta: float) -> float:
    """Limiting ratio of total channel energy to combined energy, times beta recip.

    mu(rho, beta) = (rho - 1) rho^(beta - 1) / (rho^beta - 1), with the
    removable limits mu -> 1/beta as rho -> 1 and mu = 1 at beta = 1.
    Scales the per-interferer cross gain: h_mai -> mu / N.
    """
    _check_rho(rho)
    _check_beta(beta)
    if _is_full(beta):
        return 1.0
    if _is_flat(rho):
        return mu_flat(beta)
    lr = math.log(rho)
    return (rho - 1.0) * rho ** (beta - 1.0) / math.expm1(beta * lr)


def _region(beta: float, load: float) -> int:
    lo, hi = min(beta, 1.0 - beta), max(beta, 1.0 - beta)
    if load < lo:
        return 1
    if load <= hi:
        return 2 if beta <= 0.5 else 3
    if load <= 1.0:
        return 4
    return 5


def nu_flat_arake(load: float) -> float:
    """Self-interference coefficient, flat profile and full combining."""
    _check_load(load)
    if load <= 1.0:
        return (2.0 / 3.0) * (load * load - 3.0 * load + 3.0)
    return 2.0 / (3.0 * load)


def nu_arake(rho: float, load: float) -> float:
    """Self-interference coefficient under full combining."""
    _check_rho(rho)
    _check_load(load)
    if _is_flat(rho):
        return nu_flat_arake(load)
    r, lam = rho, load
    lr = math.log(r)
    if lam <= 1.0:
        num = 2.0 * (r * r - 1.0 + r ** lam - r ** (2.0 - lam) - 2.0 * r * lam * lr)
    else:
        num = 2.0 * (r * r - 1.0 - 2.0 * r * lr)
    return num / ((r - 1.0) ** 2 * lam * lr)


def nu_flat(beta: float, load: float) -> float:
    """Self-interference coefficient for a flat profile."""
    _check_beta(beta)
    _check_load(load)
    if _is_full(beta):
        return nu_flat_arake(load)
    b, lam = beta, load
    region = _region(b, lam)
    if region == 1:
        return (2.0 * b * b + 2.0 * b - 4.0 * lam * b + lam * lam) / (2.0 * b * b)
    if region == 2:
        return ((2.0 - lam) / b + b / lam - 1.0) / 2.0
    if region == 3:
        return (b ** 3 + b * b * (9.0 * lam - 3.0) + b * (3.0 - 9.0 * lam * lam)
                + 4.0 * lam ** 3 - 3.0 * lam * lam + 3.0 * lam - 1.0) / (6.0 * lam * b * b)
    if region == 4:
        return (4.0 * b ** 3 - 3.0 * b * b + 3.0 * b + (lam - 1.0) ** 3) / (6.0 * lam * b * b)
    return (4.0 * b * b - 3.0 * b + 3.0) / (6.0 * lam * b)


def nu(rho: float, beta: float, load: float) -> float:
    """Limiting self-interference coefficient: h_si -> nu / N.

    Piecewise-analytic in the load with breakpoints at min(beta, 1 - beta),
    max(beta, 1 - beta), and 1; continuous across all of them. Near the
    removable singularities at rho = 1 and beta = 1 the generic branches
    cancel catastrophically, so evaluation switches to the flat-profile and
    full-combining limit forms there.
    """
    _check_rho(rho)
    _check_beta(beta)
    _check_load(load)
    if _is_full(beta):
        return nu_arake(rho, load)
    if _is_flat(rho):
        return nu_flat(beta, load)
    return _nu_branch(rho, beta, load, _region(beta, load))


def _nu_branch(rho: float, beta: float, load: float, region: int) -> float:
    """One analytic branch of nu, evaluated without the region dispatch.

    Branches stay finite slightly outside their own region, which lets the
    continuity of the piecewise definition be checked at the breakpoints.
    """
    r, b, lam = rho, beta, load
    lr = math.log(r)
    if region == 1:
        num = r * (r ** lam - 1.0) * (4.0 * r ** (2.0 * b) + 3.0 * r ** lam - 1.0) \
            - 2.0 * r ** (b + lam) * (r ** b + 3.0 * r - 1.0) * lam * lr
        den = 2.0 * (r ** b - 1.0) ** 2 * lam * r ** (1.0 + lam) * lr
    elif region == 2:
        num = r * (4.0 * r ** lam - 1.0) * (r ** (2.0 * b) - 1.0) \
            - 2.0 * r ** (b + lam) * (3.0 * r * b - lam + r ** b * lam) * lr
        den = 2.0 * (r ** b - 1.0) ** 2 * lam * r ** (1.0 + lam) * lr
    elif region == 3:
        num = -4.0 * r ** (2.0 + 2.0 * b) - 4.0 * r ** (2.0 + lam) \
            + r ** (2.0 * (b + lam)) + 4.0 * r ** (2.0 + 2.0 * b + lam) \
            + 3.0 * r ** (2.0 + 2.0 * lam) \
            - 2.0 * r ** (1.0 + b + lam) * (b + 3.0 * r * lam + r ** b * lam - 1.0) * lr
        den = 2.0 * (r ** b - 1.0) ** 2 * lam * r ** (2.0 + lam) * lr
    elif region == 4:
        num = -(r ** (2.0 + 2.0 * b)) - 4.0 * r ** (2.0 + lam) \
            + r ** (2.0 * (b + lam)) + 4.0 * r ** (2.0 + 2.0 * b + lam) \
            - 2.0 * r ** (1.0 + b + lam) * (b + 3.0 * r * b + r ** b * lam - 1.0) * lr
        den = 2.0 * (r ** b - 1.0) ** 2 * lam * r ** (2.0 + lam) * lr
    else:
        num = 2.0 * r * (r ** (2.0 * b) - 1.0) \
            - (r ** b + b + 3.0 * r * b - 1.0) * r ** b * lr
        den = (r ** b - 1.0) ** 2 * lam * r * lr
    return num / den


@dataclasses.dataclass(frozen=True)
class LsaParams:
    """Operating point for the large-system predictions.

    load is chips per frame over path count; gain is the total processing
    gain (frames times chips per frame). chips_per_frame is only needed by
    the frame-count design rule and may be omitted otherwise.
    """

    rho: float
    beta: float
    load: float
    gain: int
    users: int
    sigma_sq: float
    chips_per_frame: int | None = None

    def __post_init__(self):
        _check_rho(self.rho)
        _check_beta(self.beta)
        _check_load(self.load)
        if self.gain < 1:
            raise ValueError("processing gain must be >= 1")
        if self.users < 1:
            raise ValueError("users must be >= 1")
        if self.sigma_sq <= 0:
            raise ValueError("sigma_sq must be positive")

    @classmethod
    def from_spreading(cls, spreading: SpreadingConfig, path_count: int,
                       rho: float, beta: float, users: int,
                       sigma_sq: float) -> "LsaParams":
        return cls(rho=rho, beta=beta, load=spreading.load_factor(path_count),
                   gain=spreading.processing_gain, users=users,
                   sigma_sq=sigma_sq, chips_per_frame=spreading.chips_per_frame)

    @property
    def mu(self) -> float:
        return mu(self.rho, self.beta)

    @property
    def nu(self) -> float:
        return nu(self.rho, self.beta, self.load)

    @functools.cached_property
    def target_sinr(self) -> float:
        """Equilibrium SINR target at this finite processing gain.

        Cached per instance: the fields are frozen, so the target never changes.
        """
        return gamma_star(self.gain / self.nu, _UTILITY.packet_bits)


def _interference_budget(params: LsaParams, gam: float) -> float:
    """N minus the SINR-weighted interference mass; raises unless positive."""
    budget = params.gain - gam * ((params.users - 1) * params.mu + params.nu)
    if budget <= 0:
        raise ValueError("infeasible operating point: interference mass exceeds gain")
    return budget


def predict_power(params: LsaParams, h_sp) -> float | np.ndarray:
    """Predicted equilibrium transmit power for combined gain h_sp."""
    gam = params.target_sinr
    h = np.asarray(h_sp, dtype=float)
    out = params.gain * params.sigma_sq * gam / (h * _interference_budget(params, gam))
    return float(out) if out.ndim == 0 else out


def predict_utility(params: LsaParams, h_sp) -> float | np.ndarray:
    """Predicted equilibrium utility for combined gain h_sp."""
    gam = params.target_sinr
    budget = _interference_budget(params, gam)
    h = np.asarray(h_sp, dtype=float)
    scale = _UTILITY.throughput_scale * efficiency(gam, _UTILITY.packet_bits)
    out = scale * h * budget / (params.gain * params.sigma_sq * gam)
    return float(out) if out.ndim == 0 else out


def min_frames(params: LsaParams) -> int:
    """Fewest frames per symbol keeping every user's target supportable.

    Feasibility requires the processing gain to exceed the interference
    mass gamma ((K - 1) mu + nu) at the interference-free target, which
    the frame count controls linearly; the rule is the ceiling of that
    ratio over chips per frame. Counts below 5 are allowed but flagged,
    since the limiting coefficients are least accurate for very short
    spreading.
    """
    if params.chips_per_frame is None:
        raise ValueError("min_frames needs chips_per_frame")
    gam = gamma_star(math.inf, _UTILITY.packet_bits)
    mass = gam * ((params.users - 1) * params.mu + params.nu)
    raw = mass / params.chips_per_frame
    frames = max(1, math.ceil(raw))
    if frames == raw:
        frames += 1
    if frames < 5:
        logger.warning(
            "minimum frame count %d is below 5; the limiting coefficients "
            "are rough at such short spreading", frames)
    return frames


def loss_db(params: LsaParams, asymptotic_target: bool = True) -> float:
    """Utility penalty of partial combining relative to full, in dB.

    The ratio of full-combining to partial-combining equilibrium utility
    for the same total channel energy is
    mu (f(g_A)/f(g_P)) (g_P/g_A) (N - g_A[(K-1) + nu_A]) / (N - g_P[(K-1) mu + nu]).
    With asymptotic_target=True both targets are evaluated in the
    infinite-gain limit, where the efficiency and SINR ratios drop out;
    otherwise each receiver uses its own finite-gain target. Full
    combining gives exactly 0 dB either way.
    """
    full = dataclasses.replace(params, beta=1.0)
    M = _UTILITY.packet_bits
    if asymptotic_target:
        g_p = g_a = gamma_star(math.inf, M)
        eff_ratio = 1.0
        sinr_ratio = 1.0
    else:
        g_p, g_a = params.target_sinr, full.target_sinr
        eff_ratio = efficiency(g_a, M) / efficiency(g_p, M)
        sinr_ratio = g_p / g_a
    ratio = params.mu * eff_ratio * sinr_ratio \
        * _interference_budget(full, g_a) / _interference_budget(params, g_p)
    return 10.0 * math.log10(ratio)
