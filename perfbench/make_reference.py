"""Write the reference CSVs the recorded-seed checks compare against.

Usage: python3 perfbench/make_reference.py

Runs each workload once at the recorded seed through ``rakepower.cli.main``
and stores the CSVs under ``perfbench/reference/``. For ``po-frames`` it also
counts, per (decay ratio, frame count) row, the trials whose equilibrium
solve returned neither converged nor clamped, the only trials whose outage
verdict the checks let a later solver change. The committed files were made
from the code the benchmark was defined on; rerunning this on changed code
would make the checks compare the code with itself.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import rakepower.cli as cli  # noqa: E402
from checks import REFERENCE_DIR, REFERENCE_SEED, read_csv  # noqa: E402
from run import WORKLOADS  # noqa: E402


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    outcomes = []
    solve = cli.solve_equilibrium

    def recording_solve(gains, params, *args, **kwargs):
        outcome = solve(gains, params, *args, **kwargs)
        outcomes.append(not outcome.converged and not outcome.any_clamped)
        return outcome

    for name, args in WORKLOADS.items():
        out = REFERENCE_DIR / f"{name}.csv"
        outcomes.clear()
        cli.solve_equilibrium = recording_solve
        try:
            code = cli.main([*args, "--seed", str(REFERENCE_SEED), "--out", str(out)])
        finally:
            cli.solve_equilibrium = solve
        if code != 0:
            print(f"{name} exited {code}", file=sys.stderr)
            return 1
        if name == "po-frames":
            _, rows = read_csv(out)
            frames_max = max(int(r["frames"]) for r in rows)
            trials = int(args[args.index("--trials") + 1])
            grid = list(dict.fromkeys(r["rho_db"] for r in rows))
            if len(outcomes) != len(grid) * trials * frames_max:
                print("po-frames solve count does not match its loops",
                      file=sys.stderr)
                return 1
            # run_po_vs_frames loops decay ratio, then trial, then frame count
            slack: dict[str, int] = {}
            for i, unresolved in enumerate(outcomes):
                rho_db = grid[i // (trials * frames_max)]
                key = f"{rho_db}/{i % frames_max + 1}"
                slack[key] = slack.get(key, 0) + unresolved
            (REFERENCE_DIR / "po-frames-nonconverged.json").write_text(
                json.dumps({k: v for k, v in slack.items() if v}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
