"""Acceptance suite: the eight headline checks, one test per criterion.

Each test prints a single PASS line once its assertions hold, so a
`pytest -v -s tests/test_acceptance.py` run reads as a checklist. The
heavyweight criteria assert their own wall-clock budgets.
"""

import math
import time

import numpy as np
import pytest

from rakepower import (ApdpProfile, LsaParams, NetworkTopology, RakeSelector,
                       SpreadingConfig, UtilityParams, best_response,
                       closed_form_equilibrium_power, feasibility, link_gains,
                       loss_db, min_frames, mu, nu, nu_arake, oracle_audit,
                       sample_channel_bank, solve_equilibrium, substream)
from rakepower.cli import (_EVERY_FIELD, ExperimentConfig, run_po_vs_frames,
                           run_utility_vs_gain, write_csv)
from rakepower.lsa import _nu_branch

_REFERENCE = dict(rho=10.0, load=0.25, gain=1000, users=8, sigma_sq=5e-16,
                  chips_per_frame=50)


def test_c1_partial_combining_penalty():
    t0 = time.perf_counter()
    targets = {0.5: 1.34, 0.3: 2.94, 0.1: 8.40}
    got = {}
    for beta, want in targets.items():
        value = loss_db(LsaParams(beta=beta, **_REFERENCE))
        got[beta] = value
        assert value == pytest.approx(want, abs=0.02)
    assert time.perf_counter() - t0 < 5.0
    print(f"\nACCEPTANCE 1: PASS penalty dB {({b: round(v, 4) for b, v in got.items()})} "
          "within 0.02 of {0.5: 1.34, 0.3: 2.94, 0.1: 8.40}")


def test_c2_minimum_frame_counts():
    t0 = time.perf_counter()
    got = {}
    for rho_db, want in ((0.0, 21), (10.0, 9), (20.0, 6)):
        params = LsaParams(beta=0.1, **{**_REFERENCE, "rho": 10.0 ** (rho_db / 10.0)})
        value = min_frames(params)
        got[rho_db] = value
        assert isinstance(value, int)
        assert value == want
    assert time.perf_counter() - t0 < 5.0
    print(f"\nACCEPTANCE 2: PASS minimum frames {got} == {{0: 21, 10: 9, 20: 6}}")


def test_c3_prediction_error_against_simulation():
    t0 = time.perf_counter()
    config = ExperimentConfig(users=8, paths=200, chips=50, frames=20,
                              rho_db=10.0, trials=1000, seed=12345,
                              betas=(0.5, 0.3, 0.1))
    _, rows = run_utility_vs_gain(config)
    nmse = {r["beta"]: r["nmse"] for r in rows}
    targets = {0.5: 1.4e-3, 0.3: 5.9e-3, 0.1: 6.3e-2}
    for beta, want in targets.items():
        assert want / 3.0 <= nmse[beta] <= want * 3.0, (beta, nmse[beta], want)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(f"\nACCEPTANCE 3: PASS nmse {({b: float(f'{v:.3g}') for b, v in nmse.items()})} "
          f"within 3x of {targets} over 1000 seeded draws ({elapsed:.0f} s)")


def test_c4_oracle_audit_at_reference_size():
    t0 = time.perf_counter()
    rows = oracle_audit(4000)
    failures = [r.name for r in rows if not r.passed]
    assert failures == []
    names = {r.name for r in rows}
    for i in (1, 2, 3, 4, 5):
        assert f"self_coefficient_region{i}" in names
    for exact in ("cross_coefficient_flat_exact", "cross_coefficient_full_exact",
                  "self_coefficient_flat_exact", "self_coefficient_flat_full_exact"):
        assert exact in names
        row = next(r for r in rows if r.name == exact)
        assert row.tol <= 1e-10 and row.rel_err <= row.tol
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 4: PASS audit at L=4000, {len(rows)} rows all within "
          f"tolerance ({elapsed:.1f} s)")


def test_c5_branch_continuity_at_region_boundaries():
    worst = 0.0
    betas = np.round(np.arange(0.05, 1.0 - 1e-9, 0.05), 6)
    assert betas.size >= 19
    for rho in (2.0, 10.0, 100.0):
        for beta in betas:
            lo, hi = min(beta, 1.0 - beta), max(beta, 1.0 - beta)
            mid = 2 if beta <= 0.5 else 3
            pairs = [(lo, 1, mid), (hi, mid, 4), (1.0, 4, 5)]
            for lam, ra, rb in pairs:
                va = _nu_branch(rho, float(beta), float(lam), ra)
                vb = _nu_branch(rho, float(beta), float(lam), rb)
                rel = abs(va - vb) / abs(vb)
                worst = max(worst, rel)
                assert rel < 1e-9, (rho, beta, lam, ra, rb, rel)
    print(f"\nACCEPTANCE 5: PASS adjacent self-coefficient branches agree at "
          f"every region boundary (worst rel diff {worst:.2e} < 1e-9)")


def test_c6_closed_form_equilibrium_on_seeded_instances():
    # shared-realization banks, where the ratio closed form is exact
    params = UtilityParams()
    rho_grid = (1.0, 10.0, 100.0)
    beta_grid = (0.1, 0.3, 0.5, 1.0)
    accepted = 0
    seed = 0
    worst_cf, worst_br = 0.0, 0.0
    while accepted < 100:
        seed += 1
        K = (seed % 8) + 1
        rho = rho_grid[seed % 3]
        beta = beta_grid[seed % 4]
        rng = substream(4242, seed)
        topo = NetworkTopology(distances=np.full(K, float(rng.uniform(3.0, 20.0))))
        bank = sample_channel_bank(ApdpProfile(200, rho), topo, 4242, seed)
        bank = np.repeat(bank[:1], K, axis=0)
        gains = link_gains(bank, RakeSelector(beta), SpreadingConfig(20, 50), 5e-16)
        if not np.all(feasibility(gains)):
            continue
        out = solve_equilibrium(gains, params)
        if not out.converged or out.any_clamped:
            continue
        accepted += 1
        closed = closed_form_equilibrium_power(gains, params)
        worst_cf = max(worst_cf, float(np.max(np.abs(closed - out.powers) / out.powers)))
        for k in range(K):
            br = best_response(gains, out.powers, k, params)
            worst_br = max(worst_br, abs(br - out.powers[k]) / out.powers[k])
    assert worst_cf < 1e-6
    assert worst_br < 1e-9
    print(f"\nACCEPTANCE 6: PASS 100 seeded instances: closed form within "
          f"{worst_cf:.2e} (< 1e-6) of the iterated equilibrium, best-response "
          f"re-application within {worst_br:.2e} (< 1e-9)")


def test_c7_monotonicity_suite():
    rho_grid = [1.0, 2.0, 5.0, 10.0, 31.622776601683793, 100.0]
    beta_grid = [round(0.05 * i, 6) for i in range(1, 21)]
    load_grid = [0.1, 0.25, 0.5, 1.0, 2.0, 4.0]

    # cross coefficient falls with decay and with combining fraction
    for beta in (0.1, 0.3, 0.5, 0.9):
        vals = [mu(r, beta) for r in rho_grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))
    for rho in (1.0, 10.0, 100.0):
        vals = [mu(rho, b) for b in beta_grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    # self coefficient falls with decay and with load
    for beta, lam in ((0.1, 0.25), (0.5, 0.5), (0.7, 0.8), (1.0, 0.25)):
        vals = [nu(r, beta, lam) for r in rho_grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))
    for rho in (1.0, 10.0, 100.0):
        for beta in (0.1, 0.5, 1.0):
            vals = [nu(rho, beta, l) for l in load_grid]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    # but is not monotone in the fraction under strong decay
    vals = np.array([nu(100.0, b, 0.25) for b in beta_grid])
    k = int(np.argmin(vals))
    assert 0 < k < len(beta_grid) - 1
    assert vals[k] < nu_arake(100.0, 0.25)

    # outage probability never rises with the frame count (common randomness)
    config = ExperimentConfig(users=4, paths=80, chips=20, trials=8,
                              seed=2026, betas=(0.1,))
    _, rows = run_po_vs_frames(config)
    for rho_db in (0.0, 10.0, 20.0):
        block = [float(r["outage_fraction"]) for r in rows
                 if r["rho_db"] == rho_db]
        assert all(a >= b for a, b in zip(block, block[1:]))

    # the combining penalty falls with fraction, decay, and load
    def pen(beta=0.1, rho=10.0, load=0.25):
        return loss_db(LsaParams(beta=beta, **{**_REFERENCE, "rho": rho,
                                               "load": load}))

    vals = [pen(beta=b) for b in beta_grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    # rho sweep at beta=0.3: beta=0.1 is infeasible under flat decay
    vals = [pen(beta=0.3, rho=r) for r in rho_grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    vals = [pen(load=l) for l in load_grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))

    print("\nACCEPTANCE 7: PASS monotonicity suite (coefficients, outage vs "
          "frames, penalty surfaces) on the fixed grids")


def test_c8_runner_determinism(tmp_path):
    config = ExperimentConfig(users=3, paths=60, chips=15, trials=4,
                              seed=909, betas=(0.3,))
    paths = []
    for name in ("a.csv", "b.csv"):
        fields, rows = run_utility_vs_gain(config)
        out = tmp_path / name
        write_csv(str(out), config, fields, rows, _EVERY_FIELD)
        paths.append(out)
    a_lines = paths[0].read_text().splitlines()
    b_lines = paths[1].read_text().splitlines()
    assert a_lines[0].startswith("#") and b_lines[0].startswith("#")
    assert a_lines[1:] == b_lines[1:]
    assert not any(l.startswith("#") for l in a_lines[1:])  # no comment lines in data
    print("\nACCEPTANCE 8: PASS repeated runs with one seed emit byte-identical "
          "rows (comment line excluded)")
