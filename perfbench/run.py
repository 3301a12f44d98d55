"""Study-level benchmark for the rakepower CLI.

Usage:
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each workload is one CSV study run the way a user runs it:
``rakepower.cli.main([...])`` with an explicit ``--out`` file and ``--seed``
set to the benchmark's seed. Every study runs in a fresh interpreter
(``child.py``), so module-level caches start cold as they do for a user,
and the seed reaches the program only as a CLI argument. Children run one
after another (a closed loop with one client) until ``--seconds`` have
passed; study times are the fastest of them, set-up and memory the median.

With ``--trace 0`` the output carries the end-to-end metrics. With
``--trace 1`` traced and untraced children alternate; the per-layer metrics
come from the traced ones (spans recorded around each layer's public
functions, see ``tracing.py``) and the untraced ones give the tracing
overhead.

Every child's CSV is checked (``checks.py``), and traced children must
repeat their counts exactly. The last line of standard output is the JSON
result; the lines before it print every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import collections
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Why each workload (shares are of traced study time on the code the
# benchmark was defined on; see README.md):
WORKLOADS = {
    # gains-heavy: link_gains is about 77% (804 calls); equilibria are easy.
    "utility-gain": ["utility-gain", "--trials", "200"],
    # game-heavy: 2250 Jacobi solves and 18003 gamma_star calls are about 87%;
    # each bank is reused for 25 frame counts, so gains is only about 10%.
    "po-frames": ["po-frames", "--beta", "0.1", "--trials", "30"],
    # oracle-only: no link_gains call and no equilibrium solve, the bypass
    # case for gains and game changes.
    "validate": ["validate", "--paths", "8000"],
}

MIN_CHILDREN = 3        # a median needs three; trace mode needs two traced
DEADLINE_S = 150.0      # start no child past this, so a run ends within 180 s
CHILD_TIMEOUT_S = 170.0

# Where each per-layer metric comes from: a span, or a whole layer. A metric
# whose source never fired is printed as untraced when the coverage guard
# expects the source on this workload, and as bypassed otherwise.
SOURCES = {
    "channel": "channel", "gains": "gains.link_gains",
    "game.gamma_star": "game.gamma_star", "game": "game.solve_equilibrium",
    "lsa": "lsa", "oracle.intermediates": "oracle.appendix_intermediates",
    "oracle.finite_nu": "oracle.finite_nu", "oracle.finite_mu": "oracle.finite_mu",
    "oracle.mc": "oracle.mc_gain_ratio", "oracle": "oracle.oracle_audit",
    "cli.write": "cli.write_csv", "cli.rows": "cli.write_csv",
}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# machine

def nproc() -> int:
    return len(os.sched_getaffinity(0))


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "click"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": nproc(), "cpu_model": cpu,
            "python": platform.python_version(), **versions,
            "blas_threads": nproc()}


def child_env() -> dict:
    """Environment for a child: BLAS and OpenMP pools sized to nproc."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc())
    return env


# ---------------------------------------------------------------------------
# running children

def run_child(trace: bool, cli_args: list[str], timeout: float) -> dict:
    """One fresh-interpreter study; returns its record or an error."""
    cmd = [sys.executable, str(HERE / "child.py"), "1" if trace else "0", *cli_args]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout, env=child_env(), cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {proc.returncode}: {tail[0]}"}
    return record


def measure(workload: str, seed: int, seconds: float, trace: bool,
            workdir: Path) -> list[dict]:
    """Run children back to back until `seconds` have passed."""
    children: list[dict] = []
    start = time.monotonic()
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        enough = len(children) >= MIN_CHILDREN
        if (elapsed >= seconds and enough) or \
                (children and elapsed + longest > DEADLINE_S):
            break
        traced = trace and len(children) % 2 == 0
        out = workdir / f"out-{len(children)}.csv"
        args = [*WORKLOADS[workload], "--seed", str(seed), "--out", str(out)]
        t0 = time.monotonic()
        record = run_child(traced, args, CHILD_TIMEOUT_S - elapsed)
        longest = max(longest, time.monotonic() - t0)
        record.update(traced=traced, out=out)
        children.append(record)
    return children


# ---------------------------------------------------------------------------
# checking

def check_children(workload: str, seed: int, children: list[dict]) -> None:
    """Mark each child failed or not; equal outputs share one full check."""
    import checks
    trials = _trials(workload)
    verdicts: dict[bytes, list[str]] = {}
    for child in children:
        if "error" in child:
            child["problems"] = [child["error"]]
            continue
        if child["exit_code"] != 0:
            child["problems"] = [f"exit code {child['exit_code']}"]
            continue
        try:
            data = checks.data_bytes(child["out"])
        except OSError as exc:
            child["problems"] = [str(exc)]
            continue
        if data not in verdicts:
            verdicts[data] = checks.check_output(workload, seed, trials, child["out"])
        child["problems"] = list(verdicts[data])
    if len(verdicts) > 1:
        for child in children:
            child["problems"].append("CSV data differs between runs of one seed")
    traced = [c["trace"] for c in children if c.get("trace") and not c["problems"]]
    if len(traced) > 1:
        mismatch = checks.check_counts_repeat(traced)
        for child in children:
            if child.get("trace"):
                child["problems"] += mismatch


def _trials(workload: str) -> int:
    args = WORKLOADS[workload]
    return int(args[args.index("--trials") + 1]) if "--trials" in args else 0


# ---------------------------------------------------------------------------
# metrics

def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, as numpy's default computes it."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


# Other tenants of a shared machine only ever add time: identical studies
# in one run spread by about +-20% on a shared 2-core Xeon VM, and the
# fastest of them varied about three times less between runs than their
# median. So study times are the minimum over the run; set-up and memory
# are the median. The report prints every study's value next to each.
STATISTIC = {"wall_s": min, "cpu_s": min,
             "setup_s": statistics.median, "peak_rss_mb": statistics.median}


def end_to_end(children: list[dict]) -> dict:
    return {name: stat(c[name] for c in children)
            for name, stat in STATISTIC.items()}


def layer_metrics(summary: dict, workload: str) -> dict:
    """Per-layer values from one traced child's span summary."""
    from tracing import SPANS
    spans, counts = summary["spans"], summary["counts"]
    empty = {"calls": 0, "entries": 0, "total_s": 0.0, "self_s": 0.0}

    def span(name):
        return spans.get(name, empty)

    def layer(prefix, key):
        return sum(v[key] for k, v in spans.items() if k.startswith(prefix + "."))

    gains, solve = span("gains.link_gains"), span("game.solve_equilibrium")
    gamma = span("game.gamma_star")
    iters = counts["iterations"]
    audit = counts["audit"]
    fired = {k for k, v in spans.items() if v["calls"]}
    untraced = [s.name for s in SPANS if workload in s.expect and s.name not in fired]
    return {
        "channel.calls": layer("channel", "entries"),
        "channel.self_s": layer("channel", "self_s"),
        "gains.calls": gains["calls"],
        "gains.self_s": layer("gains", "self_s"),
        "gains.ms_per_bank": 1e3 * gains["total_s"] / counts["banks"]
        if counts["banks"] else 0.0,
        "gains.taps": counts["taps"],
        "game.solves": solve["calls"],
        "game.solve_self_s": solve["self_s"],
        "game.iter_p50": percentile(iters, 50) if iters else 0,
        "game.iter_p99": percentile(iters, 99) if iters else 0,
        "game.iter_max": max(iters, default=0),
        "game.nonconverged": counts["nonconverged"],
        "game.clamped": counts["clamped"],
        "game.converged_frac": 1.0 - counts["nonconverged"] / len(iters)
        if iters else 0.0,
        "game.gamma_star_calls": gamma["calls"],
        "game.gamma_star_self_s": gamma["self_s"],
        "game.gamma_star_distinct_frac": counts["gamma_star_distinct"] / gamma["calls"]
        if gamma["calls"] else 0.0,
        "lsa.calls": layer("lsa", "entries"),
        "lsa.self_s": layer("lsa", "self_s"),
        "oracle.audit_self_s": span("oracle.oracle_audit")["self_s"],
        "oracle.intermediates_self_s": span("oracle.appendix_intermediates")["self_s"],
        "oracle.finite_nu_self_s": span("oracle.finite_nu")["self_s"],
        "oracle.finite_mu_self_s": span("oracle.finite_mu")["self_s"],
        "oracle.mc_self_s": span("oracle.mc_gain_ratio")["self_s"],
        "oracle.rows": len(audit),
        "oracle.rows_failed": sum(not passed for passed, _, _ in audit),
        "oracle.worst_err_over_tol": max((err / tol for _, err, tol in audit
                                          if tol > 0), default=0.0),
        "cli.self_s": summary["study_wall_s"] - summary["root_s"],
        "cli.write_s": span("cli.write_csv")["total_s"],
        "cli.rows": counts["rows_written"],
        "trace.untraced_spans": len(untraced) + len(summary["hook_errors"]),
    }


def per_layer(children: list[dict], workload: str) -> tuple[dict, dict]:
    """Medians of the traced children's layer values, and the first summary."""
    traced = [c for c in children if c.get("trace")]
    values = [layer_metrics(c["trace"], workload) for c in traced]
    # counts repeat exactly (checked), so only times take a median
    metrics = {k: values[0][k] if all(v[k] == values[0][k] for v in values)
               else statistics.median(v[k] for v in values) for k in values[0]}
    untraced_walls = [c["wall_s"] for c in children if not c["traced"]]
    metrics["trace_overhead_frac"] = min(
        c["wall_s"] for c in traced) / min(untraced_walls) - 1.0
    return metrics, traced[0]["trace"]


def shares(summary: dict) -> dict:
    """Each layer's self time as a share of the traced study wall time."""
    wall = summary["study_wall_s"]
    out = {}
    for name, rec in summary["spans"].items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + rec["self_s"] / wall
    out["cli"] = out.get("cli", 0.0) + (wall - summary["root_s"]) / wall
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


# ---------------------------------------------------------------------------
# report

def _status(metric: str, summary: dict, workload: str) -> str:
    """'untraced' or 'bypassed' when the metric's source never fired."""
    from tracing import SPANS
    key = max((k for k in SOURCES if metric.startswith(k)),
              key=len, default=None)
    if key is None:
        return ""
    source = SOURCES[key]
    members = [s for s in SPANS if s.name == source or s.layer == source]
    if any(summary["spans"].get(s.name, {}).get("calls") for s in members):
        return ""
    expected = any(workload in s.expect for s in members)
    return "  UNTRACED" if expected else "  (bypassed on this workload)"


def report(workload: str, trace: bool, children: list[dict], metrics: dict,
           units: dict, summary: dict | None) -> None:
    ok = [c for c in children if not c["problems"]]
    print(f"workload {workload}: {len(children)} fresh-interpreter runs, "
          f"{len(children) - len(ok)} failed, fail_frac "
          f"{(len(children) - len(ok)) / len(children):.3f}")
    problems = collections.Counter(p for c in children
                                   for p in dict.fromkeys(c["problems"]))
    for problem, count in problems.items():
        print(f"  FAIL ({count} of {len(children)} runs): {problem}")
    timed = [c for c in children if "error" not in c]
    if not trace:
        print(f"  end-to-end over {len(timed)} studies (wall_s, cpu_s: minimum; "
              "setup_s, peak_rss_mb: median):")
        for name, value in metrics.items():
            runs = " ".join(f"{c[name]:.4g}" for c in timed)
            print(f"    {name} = {value:.6g} {units[name]}  (runs: {runs})")
        return
    n_traced = sum(c["traced"] for c in timed)
    print(f"  per-layer, median of {n_traced} traced runs "
          f"(overhead against {len(timed) - n_traced} untraced runs):")
    iters = summary["counts"]["iterations"]
    for name, value in metrics.items():
        note = _status(name, summary, workload)
        if name in ("game.iter_p50", "game.iter_p99", "game.iter_max") and not note:
            note = f"  (n={len(iters)} solves)"
        print(f"    {name} = {value:.6g} {units[name]}{note}")
    print("  share of traced study time by layer (self time):")
    for layer, share in shares(summary).items():
        print(f"    {layer}: {100 * share:.1f}%")
    for name, error in summary["hook_errors"].items():
        print(f"  UNTRACED counts of {name}: {error}")
    for name in summary["missing"]:
        print(f"  UNTRACED {name}: not found in the program")


# ---------------------------------------------------------------------------
# entry point

def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure, check and print one workload; returns the JSON result."""
    spec = load_spec()
    section = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench_work-", dir=ROOT))
    try:
        children = measure(workload, seed, seconds, trace, workdir)
        check_children(workload, seed, children)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    timed = [c for c in children if "error" not in c]
    kinds = {c["traced"] for c in timed}
    if not timed or (trace and kinds != {True, False}):
        for child in children:
            print(f"FAIL: {child.get('error')}", file=sys.stderr)
        raise RuntimeError("no run produced measurements")
    summary = None
    if trace:
        metrics, summary = per_layer(timed, workload)
    else:
        metrics = end_to_end(timed)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "disagree with BENCHMARK.json")
    metrics = {name: metrics[name] for name in units}
    report(workload, trace, children, metrics, units, summary)
    failed = sum(bool(c["problems"]) for c in children)
    result = {"correct": failed == 0, "attempted": len(children), "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    return result


def prepare() -> bool:
    """Find the program's source tree and print the machine record."""
    if not (SRC / "rakepower" / "cli.py").is_file():
        print(f"no rakepower source tree under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    print("machine " + json.dumps(machine()))
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not prepare():
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
