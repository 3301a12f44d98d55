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

nu is piecewise in the load with five analytic branches that agree at
the region boundaries. Flat decay (rho = 1) is its only removable
singularity: there each region has its own flat-profile form, and close
to it the generic branches cancel catastrophically in floats, so they are
evaluated on 60-digit decimals. Full combining needs no form of its own:
at beta = 1 every load lies in region 3 (load <= 1) or region 5. mu keeps
an exact 1 at beta = 1, so the full-combining penalty is exactly 0 dB.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .channel import _count, _decay_ratio, _fraction, _positive
from .game import UtilityParams, efficiency, gamma_star
from .gains import SpreadingConfig

# below min(beta, load) ln(rho) = _NEAR_FLAT the generic nu branches cancel
# in floats and run on decimals; below _NEAR_FLAT_MIN they are not
# evaluated: nu takes its flat form where max(1, load) ln(rho) is below it
# too (within 0.67 max(1, load) ln(rho) relative) and raises otherwise
_NEAR_FLAT = 0.03
_NEAR_FLAT_MIN = 1e-12
_NEAR_FLAT_DIGITS = 60
# the utility of every prediction, and of every study's equilibrium solve
_UTILITY = UtilityParams()


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{what} has no finite double value")
    return value


def mu(rho: float, beta: float) -> float:
    """Limiting ratio of total channel energy to combined energy, times beta recip.

    mu(rho, beta) = (rho - 1) rho^(beta - 1) / (rho^beta - 1), with the
    removable limit mu -> 1/beta as rho -> 1 and exactly 1 at beta = 1.
    Scales the per-interferer cross gain: h_mai -> mu / N.
    """
    _decay_ratio(rho, "rho")
    _fraction(beta, "beta")
    if beta == 1.0:
        return 1.0
    try:
        value = 1.0 / beta if rho == 1.0 else \
            (rho - 1.0) * rho ** (beta - 1.0) / math.expm1(beta * math.log(rho))
    except ArithmeticError:  # beta ln(rho) underflows to 0
        value = math.nan
    return _finite(value, f"mu({rho!r}, {beta!r})")


def _region(beta: float, load: float) -> int:
    lo, hi = min(beta, 1.0 - beta), max(beta, 1.0 - beta)
    if load < lo:
        return 1
    if load <= hi:
        return 2 if beta <= 0.5 else 3
    if load <= 1.0:
        return 4
    return 5


def nu(rho: float, beta: float, load: float) -> float:
    """Limiting self-interference coefficient: h_si -> nu / N.

    Piecewise-analytic in the load with breakpoints at min(beta, 1 - beta),
    max(beta, 1 - beta), and 1; continuous across all of them. Full
    combining is regions 3 and 5 at beta = 1. Flat decay is the only
    removable singularity: at rho = 1 each region takes its flat-profile
    form, and so does every rho with max(1, load) ln(rho) < 1e-12, where
    that form is within 0.67 max(1, load) ln(rho) of the branch, relative.
    Near flat decay the branch is evaluated on 60-digit decimals wherever
    min(beta, load) ln(rho) < 0.03; below 1e-12 it is not evaluated. A
    rho there that the flat form does not cover, and a value past the
    double range, raise ValueError.
    """
    _decay_ratio(rho, "rho")
    _fraction(beta, "beta")
    _positive(load, "load")
    region = _region(beta, load)
    lr = math.log(rho)
    flat = max(1.0, load) * lr < _NEAR_FLAT_MIN
    depth = min(beta, load) * lr
    if not flat and depth < _NEAR_FLAT_MIN:
        raise ValueError(f"nu is not evaluated at min(beta, load) ln(rho) = {depth:.3g} "
                         f"< {_NEAR_FLAT_MIN:g}, where its branches cancel")
    try:
        if flat:
            value = _nu_flat(beta, load, region)
        elif depth >= _NEAR_FLAT:
            value = _nu_branch(rho, beta, load, region)
        else:
            from decimal import Decimal, localcontext
            with localcontext() as ctx:
                ctx.prec = _NEAR_FLAT_DIGITS
                value = float(_nu_branch(Decimal(rho), Decimal(beta), Decimal(load), region))
    except ArithmeticError:
        value = math.nan
    return _finite(value, f"nu({rho!r}, {beta!r}, {load!r})")


def _nu_flat(beta: float, load: float, region: int) -> float:
    """The flat-profile (rho = 1) form of one region of nu."""
    b, lam = beta, load
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


def _nu_branch(rho, beta, load, region: int):
    """One analytic branch of nu, evaluated without the region dispatch.

    The literals are integers, so the same expression evaluates on floats
    or on decimal.Decimal, whose logarithm is its own ln method. Branches
    stay finite slightly outside their own region, which lets the
    continuity of the piecewise definition be checked at the breakpoints.
    """
    r, b, lam = rho, beta, load
    lr = r.ln() if hasattr(r, "ln") else math.log(r)
    if region == 1:
        num = r * (r ** lam - 1) * (4 * r ** (2 * b) + 3 * r ** lam - 1) \
            - 2 * r ** (b + lam) * (r ** b + 3 * r - 1) * lam * lr
        den = 2 * (r ** b - 1) ** 2 * lam * r ** (1 + lam) * lr
    elif region == 2:
        num = r * (4 * r ** lam - 1) * (r ** (2 * b) - 1) \
            - 2 * r ** (b + lam) * (3 * r * b - lam + r ** b * lam) * lr
        den = 2 * (r ** b - 1) ** 2 * lam * r ** (1 + lam) * lr
    elif region == 3:
        num = -4 * r ** (2 + 2 * b) - 4 * r ** (2 + lam) \
            + r ** (2 * (b + lam)) + 4 * r ** (2 + 2 * b + lam) \
            + 3 * r ** (2 + 2 * lam) \
            - 2 * r ** (1 + b + lam) * (b + 3 * r * lam + r ** b * lam - 1) * lr
        den = 2 * (r ** b - 1) ** 2 * lam * r ** (2 + lam) * lr
    elif region == 4:
        num = -(r ** (2 + 2 * b)) - 4 * r ** (2 + lam) \
            + r ** (2 * (b + lam)) + 4 * r ** (2 + 2 * b + lam) \
            - 2 * r ** (1 + b + lam) * (b + 3 * r * b + r ** b * lam - 1) * lr
        den = 2 * (r ** b - 1) ** 2 * lam * r ** (2 + lam) * lr
    else:
        num = 2 * r * (r ** (2 * b) - 1) \
            - (r ** b + b + 3 * r * b - 1) * r ** b * lr
        den = (r ** b - 1) ** 2 * lam * r * lr
    return num / den


@dataclasses.dataclass(frozen=True)
class LsaParams:
    """Operating point for the large-system predictions.

    load (chips per frame over path count) and gain (frames times chips per
    frame) derive from spreading and path_count, as in link_gains.
    """

    rho: float
    beta: float
    users: int
    sigma_sq: float
    spreading: SpreadingConfig
    path_count: int

    def __post_init__(self):
        _decay_ratio(self.rho, "rho")
        _fraction(self.beta, "beta")
        _count(self.path_count, "path_count")
        _count(self.users, "users")
        _positive(self.sigma_sq, "sigma_sq")

    # the constructor under the keyword name perfbench/checks.py calls
    from_spreading = classmethod(lambda cls, **fields: cls(**fields))

    @property
    def load(self) -> float:
        return self.spreading.load_factor(self.path_count)

    @property
    def gain(self) -> int:
        return self.spreading.processing_gain

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


def _interference_mass(params: LsaParams, gam: float) -> float:
    """The SINR-weighted interference mass gamma ((K - 1) mu + nu)."""
    return gam * ((params.users - 1) * params.mu + params.nu)


def _interference_budget(params: LsaParams, gam: float) -> float:
    """N minus the SINR-weighted interference mass; raises unless positive."""
    budget = params.gain - _interference_mass(params, gam)
    if budget <= 0:
        raise ValueError("infeasible operating point: interference mass exceeds gain")
    return budget


def predict_power(params: LsaParams, h_sp) -> float | np.ndarray:
    """Predicted equilibrium transmit power for combined gain h_sp."""
    gam = params.target_sinr
    h = np.asarray(h_sp, dtype=float)
    _positive(h, "h_sp")
    out = params.gain * params.sigma_sq * gam / (h * _interference_budget(params, gam))
    return float(out) if out.ndim == 0 else out


def predict_utility(params: LsaParams, h_sp) -> float | np.ndarray:
    """Predicted equilibrium utility for combined gain h_sp."""
    gam = params.target_sinr
    h = np.asarray(h_sp, dtype=float)
    _positive(h, "h_sp")
    budget = _interference_budget(params, gam)
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
    gam = gamma_star(math.inf, _UTILITY.packet_bits)
    raw = _interference_mass(params, gam) / params.spreading.chips_per_frame
    frames = max(1, math.ceil(raw))
    if frames == raw:
        frames += 1
    if frames < 5:
        import logging
        logging.getLogger(__name__).warning(
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
    else:
        g_p, g_a = params.target_sinr, full.target_sinr
    # the budgets first: an infeasible point raises before its efficiency,
    # which can underflow to 0 there, is divided by
    budget_a, budget_p = _interference_budget(full, g_a), _interference_budget(params, g_p)
    eff_ratio = 1.0 if asymptotic_target else efficiency(g_a, M) / efficiency(g_p, M)
    return 10.0 * math.log10(params.mu * eff_ratio * (g_p / g_a) * budget_a / budget_p)
