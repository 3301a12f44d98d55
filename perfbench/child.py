"""One study in a fresh interpreter, the way a CLI user runs it.

Usage: python3 perfbench/child.py <trace 0|1> <cli argument>...

Times the import of rakepower and the building of its config (set-up),
then runs ``rakepower.cli.main`` on the given arguments and times it until
the CSV is written. With trace 1 the layer spans are installed between the
two, so set-up is never traced. The last line of standard output is one
JSON object with the measurements.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv: list[str]) -> int:
    trace, cli_args = argv[0] == "1", argv[1:]
    sys.path.insert(0, str(SRC))
    import rakepower.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"rakepower imported from {cli.__file__}, not from {SRC}",
              file=sys.stderr)
        return 3
    cli.build_config(None, seed=int(cli_args[cli_args.index("--seed") + 1]))
    setup_s = time.perf_counter() - _T0

    tracer = None
    if trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    cpu0, t1 = _cpu_s(), time.perf_counter()
    code = cli.main(cli_args)
    wall_s = time.perf_counter() - t1
    cpu_s = _cpu_s() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {"exit_code": code, "setup_s": setup_s, "wall_s": wall_s,
              "cpu_s": cpu_s, "peak_rss_mb": peak_rss_mb,
              "trace": tracer.summary(wall_s) if tracer else None}
    sys.stdout.flush()
    print("\n" + json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
