"""Output checks for the benchmark's studies.

For the recorded seed (12345) each CSV is compared with the reference CSVs
in ``reference/``, which ``make_reference.py`` wrote from the code the
benchmark was defined on. For every other seed the checks are properties
that hold whatever the draw. Each function returns a list of problems;
an empty list means the output is correct.

Tolerances and why they are what they are:

* ``SOLVE_RTOL`` (1e-6) holds values that come out of the equilibrium
  solve (powers, simulated utilities, nmse). Jacobi stops once a step is
  below 1e-10 of the power, which leaves the iterate up to
  step * r / (1 - r) from the fixed point for contraction factor r, and
  another exact solver may land anywhere in that band. 1e-6 leaves a wide
  margin over both while any modelling error shows at 1e-3 or more.
* ``CLOSED_RTOL`` (1e-9) holds closed forms and finite sums (predicted
  utilities, audit values). Only summation order may move them, which is
  roundoff, far below 1e-9.
* ``DRAW_RTOL`` (1e-12) holds the channel energy of the trial-0 draw: the
  draws themselves must stay bit-identical; only the order of the sum of
  squared taps may change.
* Audit rows whose reference is 0 carry a roundoff-size deviation whose
  relative change means nothing; they are held to a thousandth of the
  row's own tolerance in absolute terms, so a zero-tolerance row must stay
  exactly 0.
* Counts (users, frame counts, minimum frames, audit verdicts, row names)
  must match exactly.
* ``po-frames`` outage counts may fall below the reference by at most the
  number of trials, per row, that the reference code returned neither
  converged nor clamped (``reference/po-frames-nonconverged.json``). Those
  trials hit the Jacobi iteration cap, so they count as outage there
  whether or not they are feasible; a solver whose verdict does not depend
  on an iteration budget may count them as served. Clamped trials stay in
  outage under any correct solver: the iteration from zero power is
  monotone, so a user that reaches the cap on the way has a fixed point at
  the cap. Every other count must match exactly.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REFERENCE_SEED = 12345
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

SOLVE_RTOL = 1e-6
CLOSED_RTOL = 1e-9
DRAW_RTOL = 1e-12
ZERO_REF_SHARE_OF_TOL = 1e-3

# The reference configuration the workloads run (the CLI defaults).
USERS, PATHS, CHIPS, FRAMES, RHO_DB, SIGMA_SQ = 8, 200, 50, 20, 10.0, 5e-16
D_MIN, D_MAX = 3.0, 20.0          # the distances the CLI draws users from
PO_BETA = 0.1


def read_csv(path: Path) -> tuple[list[str], list[dict]]:
    """Header and rows of a study CSV, after its '#' comment line."""
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith("#"):
        raise ValueError(f"{path.name}: missing the '#' comment line")
    reader = csv.DictReader(lines[1:])
    return list(reader.fieldnames or []), list(reader)


def data_bytes(path: Path) -> bytes:
    """Everything after the comment line; equal for equal seeds."""
    text = path.read_bytes()
    return text.split(b"\n", 1)[1] if b"\n" in text else b""


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def check_output(workload: str, seed: int, trials: int, path: Path) -> list[str]:
    """Every check that applies to one study CSV."""
    try:
        fields, rows = read_csv(path)
    except (OSError, ValueError) as exc:
        return [str(exc)]
    if not rows:
        return [f"{workload}: no data rows"]
    problems = _SEED_AGNOSTIC[workload](rows, trials, seed)
    if seed == REFERENCE_SEED:
        problems += _REFERENCE[workload](fields, rows, trials)
    return problems


# ---------------------------------------------------------------------------
# seed-agnostic checks

def _utility_gain(rows, trials, seed):
    from rakepower import (ApdpProfile, RakeSelector, SpreadingConfig,
                           UtilityParams, link_gains, sample_channel_bank,
                           sample_topology, solve_equilibrium, substream)
    problems = [f"utility-gain: nmse {r['nmse']} for beta {r['beta']} is not finite"
                for r in rows if not math.isfinite(float(r["nmse"]))]
    topo = sample_topology(USERS, D_MIN, D_MAX, substream(seed, 0))
    bank = sample_channel_bank(ApdpProfile(PATHS, 10.0 ** (RHO_DB / 10.0)),
                               topo, seed, 0)
    spreading = SpreadingConfig(FRAMES, CHIPS)
    for beta in sorted({float(r["beta"]) for r in rows}):
        gains = link_gains(bank, RakeSelector(beta), spreading, SIGMA_SQ,
                           method="dense")
        expect = solve_equilibrium(gains, UtilityParams()).utilities
        got = [float(r["utility_sim"]) for r in rows if float(r["beta"]) == beta]
        if len(got) != len(expect) or not all(
                _close(g, e, SOLVE_RTOL) for g, e in zip(got, expect)):
            problems.append(f"utility-gain: trial-0 utilities at beta {beta} "
                            "differ from the dense-gain recompute")
    return problems


def _po_frames(rows, trials, seed):
    from rakepower import LsaParams, SpreadingConfig, min_frames
    problems = []
    for rho_db in sorted({r["rho_db"] for r in rows}, key=float):
        group = sorted((r for r in rows if r["rho_db"] == rho_db),
                       key=lambda r: int(r["frames"]))
        outage = [float(r["outage_fraction"]) for r in group]
        if any(b > a for a, b in zip(outage, outage[1:])):
            problems.append(f"po-frames: outage rises with frames at {rho_db} dB")
        if any(abs(o * trials - round(o * trials)) > 1e-9 for o in outage):
            problems.append(f"po-frames: outage at {rho_db} dB is not a "
                            f"multiple of 1/{trials}")
        params = LsaParams.from_spreading(
            rho=10.0 ** (float(rho_db) / 10.0), beta=PO_BETA, users=USERS,
            spreading=SpreadingConfig(FRAMES, CHIPS), path_count=PATHS,
            sigma_sq=SIGMA_SQ)
        analytic = min_frames(params)
        if any(int(r["min_frames"]) != analytic for r in group):
            problems.append(f"po-frames: min_frames at {rho_db} dB is not "
                            f"lsa.min_frames = {analytic}")
    return problems


def _validate(rows, trials, seed):
    return [f"validate: audit row {r['name']} failed"
            for r in rows if r["passed"] != "True"]


_SEED_AGNOSTIC = {"utility-gain": _utility_gain, "po-frames": _po_frames,
                  "validate": _validate}


# ---------------------------------------------------------------------------
# recorded-seed checks against the reference CSVs

def _reference(workload):
    return read_csv(REFERENCE_DIR / f"{workload}.csv")


def _columns(workload, fields, ref_fields):
    missing = [f for f in ref_fields if f not in fields]
    return [f"{workload}: columns {missing} missing"] if missing else []


def _ref_utility_gain(fields, rows, trials):
    ref_fields, ref = _reference("utility-gain")
    problems = _columns("utility-gain", fields, ref_fields)
    if problems or len(rows) != len(ref):
        return problems or [f"utility-gain: {len(rows)} rows, reference {len(ref)}"]
    rtol = {"channel_gain": DRAW_RTOL, "power_w": SOLVE_RTOL,
            "utility_sim": SOLVE_RTOL, "utility_pred": CLOSED_RTOL,
            "nmse": SOLVE_RTOL}
    for r, e in zip(rows, ref):
        if (r["beta"], r["user"]) != (e["beta"], e["user"]):
            return [f"utility-gain: row order differs at beta {e['beta']}"]
        for col, tol in rtol.items():
            if not _close(float(r[col]), float(e[col]), tol):
                problems.append(f"utility-gain: {col} at beta {e['beta']} user "
                                f"{e['user']} is {r[col]}, reference {e[col]}")
    return problems


def _ref_po_frames(fields, rows, trials):
    ref_fields, ref = _reference("po-frames")
    problems = _columns("po-frames", fields, ref_fields)
    if problems or len(rows) != len(ref):
        return problems or [f"po-frames: {len(rows)} rows, reference {len(ref)}"]
    slack = json.loads((REFERENCE_DIR / "po-frames-nonconverged.json").read_text())
    for r, e in zip(rows, ref):
        key = f"{e['rho_db']}/{e['frames']}"
        if (r["rho_db"], r["frames"], r["min_frames"]) != \
                (e["rho_db"], e["frames"], e["min_frames"]):
            problems.append(f"po-frames: row {key} differs in its keys")
            continue
        got = round(float(r["outage_fraction"]) * trials)
        want = round(float(e["outage_fraction"]) * trials)
        if not want - slack.get(key, 0) <= got <= want:
            problems.append(f"po-frames: {got} outages at {key}, reference "
                            f"{want} with {slack.get(key, 0)} non-converged")
    return problems


def _ref_validate(fields, rows, trials):
    ref_fields, ref = _reference("validate")
    problems = _columns("validate", fields, ref_fields)
    if problems:
        return problems
    got = {r["name"]: r for r in rows}
    if list(got) != [e["name"] for e in ref]:
        return ["validate: audit row names differ from the reference"]
    for e in ref:
        r = got[e["name"]]
        if (r["kind"], r["tol"], r["passed"]) != (e["kind"], e["tol"], e["passed"]):
            problems.append(f"validate: {e['name']} kind, tol or verdict differs")
            continue
        atol = ZERO_REF_SHARE_OF_TOL * float(e["tol"])
        for col in ("value", "reference"):
            if not _close(float(r[col]), float(e[col]), CLOSED_RTOL, atol):
                problems.append(f"validate: {e['name']} {col} is {r[col]}, "
                                f"reference {e[col]}")
    return problems


_REFERENCE = {"utility-gain": _ref_utility_gain, "po-frames": _ref_po_frames,
              "validate": _ref_validate}


# ---------------------------------------------------------------------------
# exact counts

def exact_counts(summary: dict) -> dict:
    """The counts a traced run must repeat exactly, by name."""
    counts = summary["counts"]
    return {
        "span_calls": {k: v["calls"] for k, v in sorted(summary["spans"].items())},
        "iterations": counts["iterations"],
        "nonconverged": counts["nonconverged"],
        "clamped": counts["clamped"],
        "gamma_star_distinct": counts["gamma_star_distinct"],
        "taps": counts["taps"],
        "banks": counts["banks"],
        "audit_verdicts": [row[0] for row in counts["audit"]],
        "rows_written": counts["rows_written"],
    }


def check_counts_repeat(summaries: list[dict]) -> list[str]:
    """Names of the counts that differ between traced runs of one seed."""
    first = exact_counts(summaries[0])
    problems = []
    for other in summaries[1:]:
        again = exact_counts(other)
        problems += [f"count {name} differs between traced runs"
                     for name in first if first[name] != again[name]]
    return problems
