"""Outside-in layer tracing for one study run.

The program has no spans of its own, so this module wraps the public
functions of each layer from the outside: every ``rakepower.*`` namespace
that holds a declared function (the defining module, the package root and
every module that imported it by name) gets the same wrapper. Calls made
through module globals, such as ``solve_equilibrium`` calling
``gamma_star`` or the oracle calling ``lsa.mu``, are therefore caught.

Spans live in memory as (name, layer, parent index, start, end) and are
reduced to per-span call counts, total time and self time (span time minus
the time its child spans cover) once the study has returned. A few spans
also record counts from their arguments or results; those hooks read
attributes defensively, so an API change marks the count as missing
instead of breaking the run.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

# Which workloads each span must fire on (the coverage guard). A layer that a
# workload bypasses is not listed there; zero calls on it is the prediction.
ALL = ("utility-gain", "po-frames", "validate")
SIMULATING = ("utility-gain", "po-frames")


@dataclass(frozen=True)
class Span:
    layer: str            # also the rakepower module that defines the function
    function: str
    expect: tuple[str, ...]

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.function}"


SPANS = (
    Span("channel", "substream", ALL),
    Span("channel", "sample_topology", SIMULATING),
    Span("channel", "sample_channel_bank", SIMULATING),
    Span("channel", "sample_channel", ALL),
    Span("gains", "link_gains", SIMULATING),
    Span("game", "solve_equilibrium", SIMULATING),
    Span("game", "gamma_star", ALL),
    Span("lsa", "mu", ("validate",)),
    Span("lsa", "nu", ("validate",)),
    Span("lsa", "mu_flat", ("validate",)),
    Span("lsa", "nu_flat", ("validate",)),
    Span("lsa", "nu_arake", ("validate",)),
    Span("lsa", "loss_db", ("utility-gain", "validate")),
    Span("lsa", "min_frames", ("po-frames",)),
    Span("lsa", "predict_power", ("validate",)),
    Span("lsa", "predict_utility", ("utility-gain",)),
    Span("oracle", "oracle_audit", ("validate",)),
    Span("oracle", "appendix_intermediates", ("validate",)),
    Span("oracle", "finite_mu", ("validate",)),
    Span("oracle", "finite_nu", ("validate",)),
    Span("oracle", "mc_gain_ratio", ("validate",)),
    Span("cli", "write_csv", ALL),
)


class Tracer:
    """Span recorder plus the counters the hooks fill in."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.missing: list[str] = []      # declared spans absent from the program
        self.hook_errors: dict[str, str] = {}
        self.taps = 0
        self.banks = 0
        self.iterations: list[int] = []
        self.nonconverged = 0
        self.clamped = 0
        self.gamma_args: set = set()
        self.audit: list[tuple] = []
        self.rows_written = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Replace every declared function in every loaded rakepower namespace."""
        namespaces = [m for name, m in sys.modules.items()
                      if m is not None and (name == "rakepower"
                                            or name.startswith("rakepower."))]
        hooks = {"link_gains": self._on_link_gains,
                 "solve_equilibrium": self._on_solve,
                 "gamma_star": self._on_gamma_star,
                 "oracle_audit": self._on_audit,
                 "write_csv": self._on_write}
        for span in SPANS:
            home = sys.modules.get(f"rakepower.{span.layer}")
            original = getattr(home, span.function, None)
            if not callable(original):
                self.missing.append(span.name)
                continue
            wrapper = self._wrap(span, original, hooks.get(span.function))
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)

    def _wrap(self, span: Span, fn, hook):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        name, layer = span.name, span.layer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, layer, parent, start, end)
            if hook is not None:
                try:
                    hook(args, kwargs, result)
                except (AttributeError, LookupError, TypeError, ValueError) as exc:
                    self.hook_errors.setdefault(name, repr(exc))
            return result

        return traced

    # -- hooks: counts recorded at the layer boundary ----------------------------

    def _on_link_gains(self, args, kwargs, result):
        alphas = args[0] if args else kwargs["alphas"]
        shape = getattr(alphas, "shape", None)
        if shape is not None and len(shape) == 3:      # a (T, K, L) block
            self.banks += shape[0]
            self.taps += shape[0] * shape[1] * shape[2]
        else:
            self.banks += 1
            self.taps += sum(getattr(a, "gains", a).size for a in alphas)

    def _on_solve(self, args, kwargs, result):
        self.iterations.append(int(result.iterations))
        self.nonconverged += not result.converged
        self.clamped += bool(result.any_clamped)

    def _on_gamma_star(self, args, kwargs, result):
        varsigma = args[0] if args else kwargs["varsigma"]
        bits = args[1] if len(args) > 1 else kwargs.get("packet_bits", 100)
        self.gamma_args.add((float(varsigma), int(bits)))

    def _on_audit(self, args, kwargs, result):
        self.audit = [(bool(r.passed), float(r.rel_err), float(r.tol))
                      for r in result]

    def _on_write(self, args, kwargs, result):
        rows = args[3] if len(args) > 3 else kwargs["rows"]
        self.rows_written += len(rows)

    # -- reduction ----------------------------------------------------------------

    def summary(self, study_wall_s: float) -> dict:
        """Per-span calls, layer entries, total and self time, plus counts."""
        child_time = [0.0] * len(self.spans)
        for name, layer, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        per_span: dict[str, dict] = {}
        root_time = 0.0
        for i, (name, layer, parent, start, end) in enumerate(self.spans):
            rec = per_span.setdefault(name, {"calls": 0, "entries": 0,
                                             "total_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += end - start - child_time[i]
            if parent < 0 or self.spans[parent][1] != layer:
                rec["entries"] += 1
            if parent < 0:
                root_time += end - start
        return {
            "spans": per_span,
            "root_s": root_time,
            "study_wall_s": study_wall_s,
            "missing": self.missing,
            "hook_errors": self.hook_errors,
            "counts": {
                "taps": self.taps,
                "banks": self.banks,
                "iterations": self.iterations,
                "nonconverged": self.nonconverged,
                "clamped": self.clamped,
                "gamma_star_distinct": len(self.gamma_args),
                "audit": self.audit,
                "rows_written": self.rows_written,
            },
        }
