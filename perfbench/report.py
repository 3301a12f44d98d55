"""Print every end-to-end and per-layer metric of every workload.

Usage: python3 perfbench/report.py [--seed N] [--seconds S]

For each workload this makes one untraced run (end-to-end metrics, with
the value of every fresh-interpreter study behind each median) and one
traced run (per-layer metrics, the sample count behind each percentile,
each layer's share of traced study time, and the tracing overhead).
"""

import argparse
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()
    if not run.prepare():
        return 2
    for workload in run.WORKLOADS:
        for trace in (False, True):
            try:
                run.run(workload, args.seed, args.seconds, trace)
            except RuntimeError as exc:
                print(f"workload {workload}: {exc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
