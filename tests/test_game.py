"""Power-control game: target solver, best responses, equilibrium.

The exact solver is checked against the simultaneous best-response
(Jacobi) iteration from zero power, run to a 1e-15 step, as an oracle.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from rakepower import (ApdpProfile, LinkGains, LsaParams, RakeSelector,
                       SpreadingConfig, UtilityParams, best_response,
                       closed_form_equilibrium_power, efficiency, feasibility,
                       gamma_star, link_gains, mu, nu, predict_power,
                       predict_utility, sample_channel_bank, sample_topology, sinr,
                       solve_equilibrium, substream, utilities)
import rakepower.game as game
from rakepower.cli import ExperimentConfig
from rakepower.game import _outage, _response_map, _sinrs, _targets
from rakepower.oracle import finite_mu, finite_nu, flat_nu_exact, mc_gain_ratio

GAMMA_INF = 12.949200759178689  # solves (M/2) g = e^(g/2) - 1 at M = 100


def _bisect_target(varsigma, M=100):
    """Independent root of (M/2) g (1 - g/varsigma) = e^(g/2) - 1."""
    def f(g):
        return 0.5 * M * g * (1.0 - g / varsigma) - math.expm1(g / 2.0)
    lo, hi = 1e-12, min(varsigma * (1.0 - 1e-13), 400.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _jacobi(gains, params, tol=1e-15, max_iter=10**6):
    """Simultaneous best responses from zero power until a step is below tol.

    The capped map is monotone and zero lies below its fixed point, so the
    iterates never fall; that is asserted on every step. Returns the powers,
    the users at the cap, and whether the step criterion was met.
    """
    gam = np.array([gamma_star(float(v), params.packet_bits) for v in gains.si_ratio])
    scale = gam / (gains.h_sp * (1.0 - gam / gains.si_ratio))
    p = np.zeros(gains.user_count)
    converged = False
    for _ in range(max_iter):
        p_next = np.minimum(scale * (gains.h_mai @ p + gains.sigma_sq), params.max_power)
        assert np.all(p_next >= p - 1e-30)
        converged = bool(np.all(np.abs(p_next - p) <= tol * p_next))
        p = p_next
        if converged:
            break
    return p, p >= params.max_power, converged


def _frame_stack(users, paths, chips, rho_db, trial, seed, beta=0.1, frames_max=25):
    """One trial's bank at frames 1..frames_max, stacked the way po-frames does."""
    variances = sample_topology(users, 3.0, 20.0, substream(seed, trial))
    bank = sample_channel_bank(ApdpProfile(paths, 10.0 ** (rho_db / 10.0)), variances,
                               seed, trial)
    base = link_gains(bank, RakeSelector(beta), SpreadingConfig(1, chips), 5e-16)
    nf = np.arange(1, frames_max + 1)
    return LinkGains(base.h_sp, base.h_si / nf[:, None], base.h_mai / nf[:, None, None], 5e-16)


def _slice(stack, f):
    return LinkGains(stack.h_sp[f], stack.h_si[f], stack.h_mai[f], stack.sigma_sq)


def _assert_matches_jacobi(gains, params=UtilityParams()):
    out = solve_equilibrium(gains, params)
    p, clamped, converged = _jacobi(gains, params)
    assert converged and out.converged
    assert out.iterations <= gains.user_count
    np.testing.assert_array_equal(out.clamped, clamped)
    np.testing.assert_allclose(out.powers, p, rtol=1e-12, atol=0)
    return out


def _gains(K=3, L=40, rho=10.0, beta=0.5, frames=20, chips=25, seed=55,
           sigma_sq=5e-16, distances=None, shared=False):
    prof = ApdpProfile(L, rho)
    if distances is None:
        variances = sample_topology(K, 3.0, 20.0, substream(seed, 0))
    else:
        variances = 0.3 * np.asarray(distances, dtype=float) ** -2.0
    bank = sample_channel_bank(prof, variances, seed, 0)
    if shared:
        bank = np.repeat(bank[:1], K, axis=0)
    return link_gains(bank, RakeSelector(beta), SpreadingConfig(frames, chips),
                      sigma_sq)


def test_efficiency_shape():
    assert efficiency(0.0) == 0.0
    assert efficiency(1e9) == pytest.approx(1.0)
    g = np.linspace(0.1, 40.0, 200)
    f = efficiency(g)
    assert np.all(np.diff(f) > 0)
    assert np.all((f > 0) & (f < 1))
    # scalar in, scalar out; array in, array out
    assert isinstance(efficiency(3.0), float)
    assert efficiency(np.array([3.0])).shape == (1,)


def test_efficiency_packet_length():
    # longer packets demand higher SINR for the same success rate
    assert efficiency(10.0, packet_bits=1000) < efficiency(10.0, packet_bits=100)


def test_efficiency_refuses_packets_under_two_bits():
    # a packet is at least two bits, as in UtilityParams and gamma_star
    for bits in (1, 0, -3):
        with pytest.raises(ValueError, match="packet_bits must be >= 2"):
            efficiency(10.0, bits)


def test_gamma_star_interference_free_limit():
    assert gamma_star(math.inf) == pytest.approx(GAMMA_INF, abs=1e-10)
    assert gamma_star(1e12) == pytest.approx(GAMMA_INF, rel=1e-9)


def test_gamma_star_against_bisection():
    for vs in (1.0, 2.0, 5.0, 10.0, 100.0, 1000.0, 10000.0, 330.04):
        assert gamma_star(vs) == pytest.approx(_bisect_target(vs), rel=1e-9)


def test_gamma_star_monotone_and_bounded():
    grid = [1.0, 2.0, 5.0, 10.0, 1e2, 1e3, 1e4]
    vals = [gamma_star(v) for v in grid]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    for v, g in zip(grid, vals):
        assert 0.0 < g < v
        assert g < GAMMA_INF


def test_gamma_star_rejects_bad_input():
    with pytest.raises(ValueError):
        gamma_star(0.0)
    with pytest.raises(ValueError):
        gamma_star(-2.0)
    with pytest.raises(ValueError):
        gamma_star(math.nan)
    with pytest.raises(ValueError):
        gamma_star(5.0, packet_bits=1)
    with pytest.raises(ValueError):
        _targets(np.array([5.0, 0.0, math.inf]), 100)


def _with_nan(field):
    """A valid two-user LinkGains with one NaN entry in field."""
    gains = dict(h_sp=np.array([1.0, 2.0]), h_si=np.array([0.1, 0.2]),
                 h_mai=np.array([[0.0, 0.5], [0.3, 0.0]]), sigma_sq=1e-9)
    if field == "sigma_sq":
        gains[field] = math.nan
    else:
        gains[field].flat[1] = math.nan
    return LinkGains(**gains)


def _bank_with_nan(path, selectors=RakeSelector(0.5)):
    """link_gains on a two-user bank of ones with one NaN path gain."""
    bank = np.ones((2, 16), dtype=complex)
    bank[1, path] = math.nan
    return link_gains(bank, selectors, SpreadingConfig(2, 8), 1e-9)


_LSA_POINT = LsaParams(rho=10.0, beta=0.1, users=4, sigma_sq=1e-9,
                       spreading=SpreadingConfig(1, 100), path_count=400)


@pytest.mark.parametrize("build, message", [
    (lambda: UtilityParams(max_power=math.nan), "max_power must be positive"),
    (lambda: UtilityParams(rate_bps=math.nan), "rate_bps must be positive"),
    (lambda: _with_nan("h_sp"), r"h_sp must be positive and finite; it is not at \[\[1\]\]"),
    (lambda: _with_nan("h_si"), r"h_si must be non-negative and finite; it is not at \[\[1\]\]"),
    (lambda: _with_nan("h_mai"),
     r"h_mai must be non-negative and finite; it is not at \[\[0, 1\]\]"),
    (lambda: _with_nan("sigma_sq"), "sigma_sq must be positive and finite"),
    (lambda: dataclasses.replace(_LSA_POINT, path_count=math.nan), "path_count must be >= 1"),
    (lambda: dataclasses.replace(_LSA_POINT, sigma_sq=math.nan), "sigma_sq must be positive"),
    (lambda: dataclasses.replace(_LSA_POINT, users=math.nan), "users must be >= 1"),
    (lambda: SpreadingConfig(math.nan, 8), "frames must be >= 1"),
    (lambda: SpreadingConfig(2, math.nan), "chips_per_frame must be >= 1"),
    (lambda: ApdpProfile(math.nan, 10.0), "path_count must be >= 1"),
    # link_gains names a NaN path gain's position before any transform, on
    # a finger or past the fingers, for one selector or several
    (lambda: _bank_with_nan(0), r"non-finite path gain at \(\.\.\., user, path\) \[\[1, 0\]\]"),
    (lambda: _bank_with_nan(0, [RakeSelector(1.0), RakeSelector(0.5)]),
     r"non-finite path gain at \(\.\.\., user, path\) \[\[1, 0\]\]"),
    (lambda: _bank_with_nan(15), r"non-finite path gain at \(\.\.\., user, path\) \[\[1, 15\]\]"),
    (lambda: UtilityParams(packet_bits=math.nan), "packet_bits must be >= 2"),
    (lambda: UtilityParams(data_bits=math.nan), r"data_bits must be in 1\.\.packet_bits"),
    (lambda: SpreadingConfig(20, 50).load_factor(math.nan), "path_count must be >= 1"),
    (lambda: RakeSelector(0.5).finger_count(math.nan), "path_count must be >= 1"),
    *((lambda field=field: ExperimentConfig(**{field: math.nan}), f"{field} must be >= ")
      for field in ("users", "paths", "chips", "frames", "trials", "seed")),
    (lambda: mc_gain_ratio(40, 10.0, 0.5, trials=math.nan), "trials must be >= 2"),
    (lambda: sample_topology(math.nan, 3.0, 20.0, substream(1, 0)), "K must be >= 1"),
], ids=["max_power", "rate_bps", "h_sp", "h_si", "h_mai", "gains_sigma_sq",
        "lsa_path_count", "lsa_sigma_sq", "lsa_users", "frames", "chips_per_frame",
        "apdp_path_count", "finger_path", "finger_path_selectors", "later_path",
        "packet_bits", "data_bits", "load_factor", "finger_count", "config_users", "config_paths",
        "config_chips", "config_frames", "config_trials", "config_seed", "mc_trials",
        "topology_users"])
def test_public_inputs_reject_nan(build, message):
    # each check is the negated accepting comparison, which a NaN fails
    with pytest.raises(ValueError, match=message):
        build()


# an operating point whose interference budget is open, for the predictions
_FEASIBLE = dataclasses.replace(_LSA_POINT, spreading=SpreadingConfig(20, 100))
_GAINS = dict(h_sp=np.array([1.0, 2.0]), h_si=np.array([0.1, 0.2]),
              h_mai=np.array([[0.0, 0.5], [0.3, 0.0]]), sigma_sq=1e-9)
# each real-valued rule: its message, the values it refuses, the bounds it
# accepts, and its entry points as (entry, field, build from a value); every
# entry point goes through the rule's one helper, so all of them refuse the
# same values with the same message
_REAL_RULES = {
    "must be in (0, 1]": ((math.nan, 0.0, -0.5, 1.0 + 1e-12, 2.0, math.inf), (1.0,), [
        ("RakeSelector", "finger_fraction", lambda x: RakeSelector(x)),
        ("mu", "beta", lambda x: mu(10.0, x)),
        ("nu", "beta", lambda x: nu(10.0, x, 0.5)),
        ("LsaParams", "beta", lambda x: dataclasses.replace(_LSA_POINT, beta=x)),
        ("ExperimentConfig", "beta", lambda x: ExperimentConfig(betas=(0.5, x))),
    ]),
    "must be >= 1": ((math.nan, 1.0 - 1e-12, 0.0, -math.inf), (1.0,), [
        ("ApdpProfile", "decay_ratio", lambda x: ApdpProfile(8, x)),
        ("mu", "rho", lambda x: mu(x, 0.5)),
        ("nu", "rho", lambda x: nu(x, 0.5, 0.5)),
        ("LsaParams", "rho", lambda x: dataclasses.replace(_LSA_POINT, rho=x)),
    ]),
    "must be positive and finite": ((math.nan, 0.0, -1e-9, math.inf), (), [
        ("LinkGains", "sigma_sq", lambda x: LinkGains(**{**_GAINS, "sigma_sq": x})),
        ("LsaParams", "sigma_sq", lambda x: dataclasses.replace(_LSA_POINT, sigma_sq=x)),
        ("ExperimentConfig", "sigma_sq", lambda x: ExperimentConfig(sigma_sq=x)),
        ("UtilityParams", "rate_bps", lambda x: UtilityParams(rate_bps=x)),
        ("UtilityParams", "max_power", lambda x: UtilityParams(max_power=x)),
        ("nu", "load", lambda x: nu(10.0, 0.5, x)),
        # the array entries of _POSITIVE_ARRAYS, given a scalar
        ("tap_variances", "user_variances", lambda x: ApdpProfile(4, 10.0).tap_variances(x)),
        ("path_gains", "user_variances",
         lambda x: ApdpProfile(4, 10.0).path_gains(x, np.ones(4, dtype=complex))),
        ("predict_power", "h_sp", lambda x: predict_power(_FEASIBLE, x)),
        ("predict_utility", "h_sp", lambda x: predict_utility(_FEASIBLE, x)),
        ("sample_topology", "d_min", lambda x: sample_topology(3, x, 20.0, substream(1, 0))),
        ("sample_topology", "d_max", lambda x: sample_topology(3, 3.0, x, substream(1, 0))),
    ]),
}


@pytest.mark.parametrize("rule, field, build", [
    pytest.param(rule, field, build, id=f"{entry}-{field}")
    for rule, (*_, entries) in _REAL_RULES.items() for entry, field, build in entries])
def test_each_real_valued_rule_has_one_message(rule, field, build):
    refused, accepted, _ = _REAL_RULES[rule]
    for value in refused:
        with pytest.raises(ValueError) as exc:
            build(value)
        assert str(exc.value) == f"{field} {rule}", value
    for value in accepted:
        build(value)


# every entry that takes an array of positive, finite gains or variances,
# as (entry, field, build from an array, the array's shape); each checks
# it entry by entry in channel._positive, whose error names the failing
# positions (_REAL_RULES gives these entries scalars)
_POSITIVE_ARRAYS = [
    ("LinkGains", "h_sp", lambda x: LinkGains(
        x, np.zeros_like(x), np.zeros(x.shape + x.shape[-1:]), 1e-9), (2, 3)),
    ("tap_variances", "user_variances", lambda x: ApdpProfile(4, 10.0).tap_variances(x), (2, 3)),
    ("path_gains", "user_variances", lambda x: ApdpProfile(4, 10.0).path_gains(
        x, np.ones(x.shape + (4,), dtype=complex)), (2, 3)),
    ("sample_channel_bank", "user_variances",
     lambda x: sample_channel_bank(ApdpProfile(4, 10.0), x, 0, 0), (3,)),
    ("predict_power", "h_sp", lambda x: predict_power(_FEASIBLE, x), (2, 3)),
    ("predict_utility", "h_sp", lambda x: predict_utility(_FEASIBLE, x), (2, 3)),
]


@pytest.mark.parametrize("field, build, shape", [
    pytest.param(field, build, shape, id=f"{entry}-{field}")
    for entry, field, build, shape in _POSITIVE_ARRAYS])
def test_each_positive_array_is_checked_entry_by_entry(field, build, shape):
    # the bad entry sits last, at a position naming every axis
    where = tuple(n - 1 for n in shape)
    for bad in (0.0, -1.0, math.nan, math.inf):
        value = np.ones(shape)
        value[where] = bad
        with pytest.raises(ValueError) as exc:
            build(value)
        assert str(exc.value) == (f"{field} must be positive and finite; "
                                  f"it is not at {[list(where)]}"), bad
    build(np.ones(shape))


def test_an_infinite_combining_gain_never_reaches_the_solve():
    # at h_sp = inf the best response is power 0, which the solve would
    # certify as a converged equilibrium with utility 0; the bank is refused
    bank = link_gains(np.ones((2, 16), dtype=complex), RakeSelector(0.5),
                      SpreadingConfig(2, 8), 1e-9)
    h_sp = np.array([bank.h_sp[0], math.inf])
    for build in (lambda: dataclasses.replace(bank, h_sp=h_sp),
                  lambda: LinkGains(h_sp, bank.h_si, bank.h_mai, bank.sigma_sq)):
        with pytest.raises(ValueError, match=r"^h_sp must be positive and finite; "
                           r"it is not at \[\[1\]\]$"):
            solve_equilibrium(build(), UtilityParams())


# the bank whose power vectors and interference gains the non-negative
# rule checks
_BANK = dict(h_sp=np.array([1.0, 1.0]), h_si=np.array([0.01, 0.01]),
             h_mai=np.array([[0.0, 0.1], [0.1, 0.0]]), sigma_sq=1e-9)
# every entry that takes powers or interference gains, as (entry, field,
# build from an array, a valid array); each checks it entry by entry in
# channel._nonnegative
_POWERS = np.full(2, 1e-7)
_NONNEGATIVE_ARRAYS = [
    ("sinr", "powers", lambda x: sinr(LinkGains(**_BANK), x, 1), _POWERS),
    ("best_response", "powers",
     lambda x: best_response(LinkGains(**_BANK), x, 1, UtilityParams()), _POWERS),
    ("utilities", "powers", lambda x: utilities(LinkGains(**_BANK), x, UtilityParams()), _POWERS),
    ("utilities-stack", "powers", lambda x: utilities(LinkGains(**_BANK), x, UtilityParams()),
     np.stack([_POWERS, _POWERS])),
    ("LinkGains", "h_si", lambda x: LinkGains(**{**_BANK, "h_si": x}), _BANK["h_si"]),
    ("LinkGains", "h_mai", lambda x: LinkGains(**{**_BANK, "h_mai": x}), _BANK["h_mai"]),
]


@pytest.mark.parametrize("field, build, valid", [
    pytest.param(field, build, valid, id=f"{entry}-{field}")
    for entry, field, build, valid in _NONNEGATIVE_ARRAYS])
def test_each_nonnegative_array_is_checked_entry_by_entry(field, build, valid):
    # a negative, NaN or infinite entry gave a negative power, a SINR of
    # -12.5, a utility of 2e283 or a hidden NaN; each is now refused by
    # position (user 1, or user 0 of the second bank or row, off h_mai's
    # zero diagonal)
    where = (1, 0)[:valid.ndim]
    for bad in (-1e-7, math.nan, math.inf):
        value = valid.copy()
        value[where] = bad
        with pytest.raises(ValueError) as exc:
            build(value)
        assert str(exc.value) == (f"{field} must be non-negative and finite; "
                                  f"it is not at {[list(where)]}"), bad
    build(valid)


def test_zero_power_keeps_zero_utility():
    bank = LinkGains(**_BANK)
    u = utilities(bank, np.array([0.0, 1e-7]), UtilityParams())
    assert u[0] == 0.0 and u[1] > 0.0
    assert sinr(bank, np.zeros(2), 0) == 0.0
    assert np.array_equal(utilities(bank, np.zeros((2, 2)), UtilityParams()), np.zeros((2, 2)))


def test_an_infinite_cross_gain_never_reaches_the_solve():
    # at h_mai = inf the solve returned converged=True with both users
    # clamped at utility 0; the bank is refused wherever it is built
    h_mai = np.array([[0.0, math.inf], [0.1, 0.0]])
    for build in (lambda: dataclasses.replace(LinkGains(**_BANK), h_mai=h_mai),
                  lambda: LinkGains(**{**_BANK, "h_mai": h_mai})):
        with pytest.raises(ValueError, match=r"^h_mai must be non-negative and finite; "
                           r"it is not at \[\[0, 1\]\]$"):
            solve_equilibrium(build(), UtilityParams())


def test_a_noiseless_bank_never_reaches_the_solve():
    # at sigma_sq = 0 the best response drives every power to 0 and there
    # is no equilibrium; the bank is refused wherever it is built
    bank = link_gains(np.ones((2, 16), dtype=complex), RakeSelector(0.5),
                      SpreadingConfig(2, 8), 1e-9)
    for build in (lambda: link_gains(np.ones((2, 16), dtype=complex), RakeSelector(0.5),
                                     SpreadingConfig(2, 8), 0.0),
                  lambda: dataclasses.replace(bank, sigma_sq=0.0),
                  lambda: LinkGains(bank.h_sp, bank.h_si, bank.h_mai, 0.0)):
        with pytest.raises(ValueError, match="sigma_sq must be positive and finite"):
            solve_equilibrium(build(), UtilityParams())


@pytest.mark.parametrize("build, count", [
    (lambda n: ApdpProfile(n, 10.0).tap_variances(1.0), 200),
    (lambda n: SpreadingConfig(n, 50), 2),
    (lambda n: SpreadingConfig(2, n), 50),
    (lambda n: SpreadingConfig(20, 50).load_factor(n), 200),
    (lambda n: RakeSelector(0.5).finger_count(n), 200),
    (lambda n: UtilityParams(packet_bits=n), 100),
    (lambda n: UtilityParams(data_bits=n), 50),
    (lambda n: gamma_star(10.0, n), 100),
    (lambda n: dataclasses.replace(_LSA_POINT, users=n), 4),
    (lambda n: dataclasses.replace(_LSA_POINT, path_count=n), 400),
    (lambda n: finite_nu(n, 50, 10.0, 0.5), 200),
    (lambda n: finite_nu(200, n, 10.0, 0.5), 50),
    (lambda n: flat_nu_exact(n, 50, 10), 200),
    (lambda n: efficiency(10.0, n), 100),
    *((lambda n, field=field: ExperimentConfig(**{field: n}), count)
      for field, count in (("users", 8), ("paths", 200), ("chips", 50), ("frames", 20),
                           ("trials", 1000), ("seed", 12345))),
    (lambda n: sample_topology(n, 3.0, 20.0, substream(1, 0)), 8),
    (lambda n: finite_mu(n, 10.0, 0.5), 200),
    (lambda n: mc_gain_ratio(40, 10.0, 0.5, trials=n), 10),
], ids=["apdp_path_count", "frames", "chips_per_frame", "load_factor", "finger_count",
        "packet_bits", "data_bits", "gamma_star", "lsa_users", "lsa_path_count",
        "finite_nu", "finite_nu_chips", "flat_nu_exact", "efficiency", "config_users",
        "config_paths", "config_chips", "config_frames", "config_trials", "config_seed",
        "topology_users", "finite_mu", "mc_trials"])
def test_counts_refuse_non_integers(build, count):
    # a count is an integer, numpy's included; a fraction of one, and a
    # whole float, raise TypeError rather than being floored, rounded up or
    # carried into a power
    build(count)
    build(np.int64(count))
    for bad in (count + 0.5, float(count), np.float64(count)):
        with pytest.raises(TypeError):
            build(bad)


def test_array_targets_against_bisection():
    # Newton starts at min(gamma*(inf), varsigma): varsigma on both sides of
    # gamma*(inf), down to one ulp, starts it on either branch of the min
    for M in (2, 20, 100, 1000):
        g_inf = _bisect_target(math.inf, M)
        near = g_inf * np.array([0.5, 0.9, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.1, 2.0])
        vs = np.concatenate([np.logspace(-0.3, 12.0, 61), near,
                             np.nextafter(g_inf, [0.0, math.inf]), [math.inf]])
        got = _targets(vs, M)
        want = np.array([_bisect_target(v, M) for v in vs])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert np.all(got < vs)
    # the scalar wrapper is the same computation
    assert gamma_star(330.04) == _targets(np.array([330.04]), 100)[0]


def test_gamma_star_depends_on_packet_bits():
    g100 = gamma_star(50.0, packet_bits=100)
    g20 = gamma_star(50.0, packet_bits=20)
    assert g20 < g100
    assert gamma_star(50.0, packet_bits=100) == g100


def test_best_response_refuses_a_user_outside_the_bank():
    # as sinr does: -1 does not wrap round to the last user
    gains = _gains()
    for k in (-1, 3):
        with pytest.raises(IndexError, match=rf"user index {k} outside 0\.\.2"):
            best_response(gains, np.full(3, 2e-8), k, UtilityParams())


def test_best_response_refuses_a_power_vector_off_the_bank():
    # as sinr does: one entry per user, not numpy's matmul message
    gains = _gains()
    for powers in (np.full(2, 2e-8), np.full(4, 2e-8), 2e-8):
        with pytest.raises(ValueError, match="powers must have one entry per user"):
            best_response(gains, powers, 0, UtilityParams())


def test_best_response_maximizes_utility():
    gains = _gains()
    params = UtilityParams()
    p = np.full(3, 2e-8)
    for k in range(3):
        br = best_response(gains, p, k, params)
        trial = p.copy()

        def neg_u(x, k=k, trial=trial):
            trial[k] = x
            return -utilities(gains, trial, params)[k]

        base = -neg_u(br)
        for factor in (0.9, 0.99, 1.01, 1.1):
            assert -neg_u(br * factor) <= base * (1.0 + 1e-12)


def test_best_response_clamps_at_cap():
    gains = _gains(sigma_sq=1.0)  # absurd noise forces the cap
    params = UtilityParams(max_power=1e-6)
    br = best_response(gains, np.zeros(3), 0, params)
    assert br == params.max_power


def test_single_user_equilibrium_closed_form():
    gains = _gains(K=1)
    params = UtilityParams()
    out = solve_equilibrium(gains, params)
    vs = float(gains.si_ratio[0])
    gam = gamma_star(vs)
    expected = gains.sigma_sq * gam / (gains.h_sp[0] * (1.0 - gam / vs))
    assert out.converged and not out.any_clamped
    assert out.powers[0] == pytest.approx(expected, rel=1e-10)
    assert sinr(gains, out.powers, 0) == pytest.approx(gam, rel=1e-10)


def test_single_user_single_path():
    # no multipath: no self-interference, target is the free-space one
    bank = [np.array([0.02 + 0.01j])]
    gains = link_gains(bank, RakeSelector(1.0), SpreadingConfig(5, 10), 5e-16)
    assert gains.h_si[0] == 0.0
    out = solve_equilibrium(gains, UtilityParams())
    expected = 5e-16 * GAMMA_INF / gains.h_sp[0]
    assert out.powers[0] == pytest.approx(expected, rel=1e-9)
    p = np.array([3e-10])
    assert sinr(gains, p, 0) == pytest.approx(gains.h_sp[0] * 3e-10 / 5e-16, rel=1e-12)


def test_equilibrium_against_scan_oracle():
    # derivative-free per-user maximization must land on the same point
    gains = _gains(K=2, L=30, seed=97)
    params = UtilityParams()
    out = solve_equilibrium(gains, params)
    assert out.converged and not out.any_clamped

    # scan over log-power: bounded Brent works in absolute units of its
    # variable, which near a 1e-14 W bound is too coarse for 1e-14 W powers
    logp = np.log(np.array([1e-10, 1e-10]))
    for _ in range(60):
        for k in range(2):
            res = minimize_scalar(
                lambda x, k=k: -utilities(
                    gains, np.where(np.arange(2) == k, np.exp(x), np.exp(logp)),
                    params)[k],
                bounds=(math.log(1e-14), math.log(params.max_power)),
                method="bounded", options={"xatol": 1e-10})
            logp[k] = res.x
    assert np.allclose(out.powers, np.exp(logp), rtol=1e-6, atol=0)


def test_equilibrium_iteration_monotone_from_zero():
    gains = _gains(K=4, L=50, seed=14)
    params = UtilityParams()
    # 200 synchronous iterations, each asserted not to lower any power
    p, _, _ = _jacobi(gains, params, tol=0.0, max_iter=200)
    out = solve_equilibrium(gains, params)
    assert np.allclose(out.powers, p, rtol=1e-8, atol=0)


def test_equilibrium_fixed_point_reapplication():
    gains = _gains(K=6, L=60, seed=2)
    params = UtilityParams()
    out = solve_equilibrium(gains, params)
    assert out.converged
    for k in range(6):
        br = best_response(gains, out.powers, k, params)
        assert br == pytest.approx(out.powers[k], rel=1e-9)


def test_equilibrium_sinrs_hit_targets():
    gains = _gains(K=5, L=80, seed=8)
    out = solve_equilibrium(gains, UtilityParams())
    assert out.converged and not out.any_clamped
    for k in range(5):
        assert sinr(gains, out.powers, k) == pytest.approx(
            gamma_star(float(gains.si_ratio[k])), rel=1e-9)


def test_closed_form_exact_for_shared_realization():
    gains = _gains(K=5, L=60, seed=41, shared=True,
                   distances=np.full(5, 9.0))
    params = UtilityParams()
    out = solve_equilibrium(gains, params)
    closed = closed_form_equilibrium_power(gains, params)
    assert out.converged and not out.any_clamped
    assert np.allclose(out.powers, closed, rtol=1e-10, atol=0)


def test_closed_form_gap_for_heterogeneous_bank():
    # with per-user channels the ratio form is only the leading-order
    # reduction; the iterate settles elsewhere by a visible margin
    gains = _gains(K=8, L=200, beta=0.3, chips=50, frames=20, seed=303)
    params = UtilityParams()
    out = solve_equilibrium(gains, params)
    closed = closed_form_equilibrium_power(gains, params)
    assert out.converged and not out.any_clamped
    gap = np.max(np.abs(closed - out.powers) / out.powers)
    assert 1e-4 < gap < 0.2


def test_infeasible_system_pins_users_at_cap():
    # one chip per frame, single frame: the interference budget cannot close
    prof = ApdpProfile(8, 10.0)
    bank = sample_channel_bank(prof, 0.3 * np.full(6, 10.0) ** -2.0, 5, 0)
    gains = link_gains(bank, RakeSelector(1.0), SpreadingConfig(1, 1), 5e-16)
    assert not np.all(feasibility(gains))
    out = solve_equilibrium(gains, UtilityParams())
    assert out.any_clamped
    with pytest.raises(ValueError):
        closed_form_equilibrium_power(gains, UtilityParams())


def test_feasibility_margins():
    gains = _gains(K=4, L=60, seed=6)
    assert np.all(feasibility(gains))
    # reported per user as a boolean vector
    assert feasibility(gains).shape == (4,)


def test_utilities_zero_power():
    gains = _gains(K=2, L=20, seed=3)
    u = utilities(gains, np.array([0.0, 1e-9]), UtilityParams())
    assert u[0] == 0.0
    assert u[1] > 0.0


def test_solver_matches_jacobi_on_feasible_banks():
    for kwargs in ({"K": 1}, {"K": 3}, {"K": 5, "L": 80, "seed": 8},
                   {"K": 6, "L": 60, "seed": 2},
                   {"K": 8, "L": 200, "beta": 0.3, "chips": 50, "seed": 303}):
        out = _assert_matches_jacobi(_gains(**kwargs))
        assert not out.any_clamped


def test_solver_matches_jacobi_on_partly_clamped_frame_stacks():
    # the po-frames reference configuration (K=8, L=200, N_c=50, beta=0.1):
    # at few frames users sit at the cap, near the threshold Jacobi crawls
    seen_clamped = seen_free = 0
    for rho_db in (0.0, 10.0, 20.0):
        for trial in (0, 1):
            stack = _frame_stack(8, 200, 50, rho_db, trial, seed=12345)
            for f in range(25):
                out = _assert_matches_jacobi(_slice(stack, f))
                seen_clamped += out.any_clamped
                seen_free += not out.any_clamped
    assert seen_clamped > 20 and seen_free > 20


def test_solver_matches_jacobi_on_infeasible_bank():
    prof = ApdpProfile(8, 10.0)
    bank = sample_channel_bank(prof, 0.3 * np.full(6, 10.0) ** -2.0, 5, 0)
    gains = link_gains(bank, RakeSelector(1.0), SpreadingConfig(1, 1), 5e-16)
    out = _assert_matches_jacobi(gains)
    assert out.any_clamped


def test_slow_jacobi_instance_is_served():
    # golden po-frames case, 0 dB, trial 3, 21 frames: Jacobi's 1e-10 step
    # is not reached in 10000 iterations, yet the fixed point is far below
    # the cap
    gains = _slice(_frame_stack(4, 80, 20, 0.0, 3, seed=7), 20)
    params = UtilityParams()
    _, _, converged = _jacobi(gains, params, tol=1e-10, max_iter=10000)
    assert not converged
    out = _assert_matches_jacobi(gains, params)
    assert not out.any_clamped
    assert np.max(out.powers) < 1e-3 * params.max_power


def test_stacked_solve_equals_per_bank_solves():
    params = UtilityParams()
    stack = _frame_stack(8, 200, 50, 0.0, 1, seed=12345)
    out = solve_equilibrium(stack, params)
    assert out.powers.shape == _sinrs(stack, out.powers).shape == out.clamped.shape == (25, 8)
    assert out.converged
    assert 0 < out.iterations <= 8
    rounds = []
    for f in range(25):
        one = solve_equilibrium(_slice(stack, f), params)
        np.testing.assert_allclose(out.powers[f], one.powers, rtol=1e-14, atol=0)
        np.testing.assert_allclose(out.utilities[f], one.utilities, rtol=1e-14, atol=0)
        np.testing.assert_array_equal(out.clamped[f], one.clamped)
        rounds.append(one.iterations)
    assert out.iterations == max(rounds)
    assert out.any_clamped and not out.clamped.all()


def test_vector_helpers_on_stacks():
    stack = _frame_stack(4, 80, 20, 10.0, 0, seed=7)
    feasible = feasibility(stack)
    p = np.full((25, 4), 1e-9)
    u = utilities(stack, p, UtilityParams())
    for f in (0, 12, 24):
        one = _slice(stack, f)
        np.testing.assert_array_equal(feasible[f], feasibility(one))
        np.testing.assert_allclose(u[f], utilities(one, p[f], UtilityParams()),
                                   rtol=1e-14, atol=0)
        assert u[f][0] == pytest.approx(UtilityParams().throughput_scale
                                        * efficiency(sinr(one, p[f], 0)) / 1e-9,
                                        rel=1e-14)


def _scaled(h_sp, h_si, h_mai, c):
    # scaling a system's gains by c keeps its targets and N and divides its
    # powers by c
    return h_sp * c[:, None], h_si * c[:, None], h_mai * c[:, None, None]


def _edge_stack(K, n, seed):
    """n random systems whose largest uncapped power spreads over a decade
    around the cap, then the same systems built within 1e-9 of the cap
    and (K > 1) of spectral radius 1, on either side; the ones just below
    radius 1 are scaled to half the cap. Returns the stack and the outage
    each built system must have (-1 for the random ones)."""
    params = UtilityParams()
    rng = np.random.default_rng(seed)
    h_sp = rng.uniform(0.5, 2.0, (n, K))
    h_si = rng.uniform(0.0, 0.01, (n, K))
    # varsigma >= 50 gives s < 33, so every row of N sums below 0.98: each
    # system has a positive uncapped fixed point
    h_mai = rng.uniform(0.0, 0.03 / K, (n, K, K)) * (1 - np.eye(K))
    sigma_sq = 5e-16

    def powers(h_mai):
        N, floor = _response_map(LinkGains(h_sp, h_si, h_mai, sigma_sq), params.packet_bits)
        p = np.linalg.solve(np.eye(K) - N, floor[..., None])[..., 0]
        return N, np.max(p, axis=-1)

    N, p = powers(h_mai)
    assert np.all(p > 0)
    systems = [_scaled(h_sp, h_si, h_mai, p / (params.max_power * 10 ** rng.uniform(-0.5, 0.5, n)))]
    expected = [np.full(n, -1)]
    for gap in (-1e-9, 1e-9):
        # the largest uncapped power at (1 + gap) times the cap
        systems.append(_scaled(h_sp, h_si, h_mai, p / (params.max_power * (1 + gap))))
        expected.append(np.full(n, gap > 0))
        if K > 1:
            mai = h_mai * ((1 + gap) / np.max(np.abs(np.linalg.eigvals(N)), axis=-1))[:, None, None]
            c = powers(mai)[1] / (0.5 * params.max_power) if gap < 0 else np.ones(n)
            systems.append(_scaled(h_sp, h_si, mai, c))
            expected.append(np.full(n, gap > 0))
    stack = LinkGains(*(np.concatenate(h) for h in zip(*systems)), sigma_sq)
    return stack, np.concatenate(expected)


@pytest.mark.parametrize("K, seed", [(1, 0), (2, 1), (3, 2), (8, 3)])
def test_outage_rule_equals_the_equilibrium_search(K, seed):
    stack, expected = _edge_stack(K, 60, seed)
    out = solve_equilibrium(stack, UtilityParams())
    outage, certified = _outage(stack, UtilityParams())
    assert out.converged and certified
    np.testing.assert_array_equal(outage, out.clamped.any(axis=-1))
    built = expected >= 0
    np.testing.assert_array_equal(outage[built], expected[built] == 1)
    assert 0 < outage[~built].sum() < (~built).sum()


def test_outage_rule_on_a_singular_system():
    # h_si = 0 gives s = gamma* / h_sp, exactly 1 at h_sp = gamma*, so
    # N = h_mai = [[0, 1], [1, 0]] and I - N is exactly singular: the
    # stacked solve raises, and the system is in outage
    g = gamma_star(math.inf)
    h_mai = np.array([[[0.0, 1.0], [1.0, 0.0]], [[0.0, 0.1], [0.1, 0.0]]])
    stack = LinkGains(np.full((2, 2), g), np.zeros((2, 2)), h_mai, 5e-16)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(np.eye(2) - h_mai, np.ones((2, 2, 1)))
    outage, certified = _outage(stack, UtilityParams())
    np.testing.assert_array_equal(outage, [True, False])
    assert certified
    np.testing.assert_array_equal(outage, solve_equilibrium(stack, UtilityParams()).clamped.any(-1))


def test_outage_certificate(monkeypatch):
    # a served system is certified by one more best response; a negative
    # bound fails every served one, and a stack with none served passes
    stack = _frame_stack(4, 80, 20, 10.0, 0, seed=7)
    outage, certified = _outage(stack, UtilityParams())
    assert certified and outage.any() and not outage.all()
    monkeypatch.setattr(game, "_RESIDUAL_BOUND", -1.0)
    assert not _outage(stack, UtilityParams())[1]
    # the one certificate holds both routes
    assert not solve_equilibrium(stack, UtilityParams()).converged
    assert _outage(_slice(stack, slice(0, 1)), UtilityParams())[1]
