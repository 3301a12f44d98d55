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
                       gamma_star, link_gains, sample_channel_bank,
                       sample_topology, sinr, solve_equilibrium, substream,
                       utilities)
import rakepower.game as game
from rakepower.cli import ExperimentConfig
from rakepower.game import _outage, _response_map, _sinrs, _targets
from rakepower.oracle import finite_nu, flat_nu_exact

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
    (lambda: _with_nan("h_sp"), "h_sp must be positive"),
    (lambda: _with_nan("h_si"), "interference gains must be non-negative"),
    (lambda: _with_nan("h_mai"), "interference gains must be non-negative"),
    (lambda: _with_nan("sigma_sq"), "sigma_sq must be non-negative"),
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
], ids=["max_power", "rate_bps", "h_sp", "h_si", "h_mai", "gains_sigma_sq",
        "lsa_path_count", "lsa_sigma_sq", "lsa_users", "frames", "chips_per_frame",
        "apdp_path_count", "finger_path", "finger_path_selectors", "later_path",
        "packet_bits", "data_bits", "load_factor", "finger_count", "config_users", "config_paths",
        "config_chips", "config_frames", "config_trials", "config_seed"])
def test_public_inputs_reject_nan(build, message):
    # each check is the negated accepting comparison, which a NaN fails
    with pytest.raises(ValueError, match=message):
        build()


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
], ids=["apdp_path_count", "frames", "chips_per_frame", "load_factor", "finger_count",
        "packet_bits", "data_bits", "gamma_star", "lsa_users", "lsa_path_count",
        "finite_nu", "finite_nu_chips", "flat_nu_exact"])
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
