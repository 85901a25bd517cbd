"""Outside-in tracing of the program's public functions.

``Tracer.install`` rebinds each function listed in TRACED on its own module
and on every ``oamcv`` module that holds the same object under the same
name (for example ``oamcv.cli.classify`` and ``oamcv.channels.validate``),
so calls between layers pass through the wrapper too.  Each call records a
span [name, start_ns, end_ns, parent span, op id] in memory; ``write``
saves them when the run ends.  A function's self time is its span minus
the spans of its direct children.  The program itself is not modified.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

TRACED = {
    "gaussian": ("make_tmss", "validate", "symplectic_eigenvalues"),
    "channels": ("apply_channel",),
    "criteria": ("classify", "ppt_nu", "ppt_nu_closed_form", "ppt_nu_eigen", "steering",
                 "entanglement_death_eta", "steering_death_eta"),
    "tomography": ("simulate_measurements", "variances_from_batches", "reconstruct_cm",
                   "expected_variances"),
    "modes": ("lg_field", "tilted_lens_pattern", "count_dark_stripes", "write_pgm"),
    "cli": ("run_sweep", "run_thresholds", "run_tomo", "run_modes"),
}
TRACED_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)
OP = "bench.op"
SOLVERS = ("criteria.entanglement_death_eta", "criteria.steering_death_eta")
NAME, START, END, PARENT = range(4)  # then the op id


class Tracer:
    """Span store plus the few return values the per-layer ratios need."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.max_route_gap = 0.0
        self._stack = []
        self._op = None
        self._routes = {}
        self._last_charge = None
        self._restore = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "oamcv" or name.startswith("oamcv.")]
        for name in TRACED_NAMES:
            layer, fn = name.split(".")
            original = getattr(sys.modules[f"oamcv.{layer}"], fn)
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def run_op(self, op_id: int, call):
        """Call an op inside a root span of its own; inner spans carry op_id."""
        self._op = op_id
        try:
            return self._traced(OP, call, (), {})
        finally:
            self._op = None

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._traced(name, fn, args, kwargs)
        return wrapper

    def _traced(self, name, fn, args, kwargs):
        sid = len(self.spans)
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, self._op]
        self.spans.append(span)
        self._stack.append(sid)
        span[START] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter_ns()
            self._stack.pop()
        observe = _OBSERVERS.get(name)
        if observe is not None:
            observe(self, sid, args, result)
        return result

    def _parent_name(self, sid: int):
        parent = self.spans[sid][PARENT]
        return self.spans[parent][NAME] if parent >= 0 else None

    def self_times(self) -> tuple:
        """(calls, self_ns) per span name."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_ns[span[PARENT]] += span[END] - span[START]
        calls, self_ns = Counter(), Counter()
        for span, inner in zip(self.spans, child_ns):
            calls[span[NAME]] += 1
            self_ns[span[NAME]] += span[END] - span[START] - inner
        return calls, self_ns

    def solver_evals(self) -> int:
        """apply_channel calls made under a threshold solver's span."""
        evals = 0
        for span in self.spans:
            if span[NAME] != "channels.apply_channel":
                continue
            parent = span[PARENT]
            while parent >= 0 and self.spans[parent][NAME] not in SOLVERS:
                parent = self.spans[parent][PARENT]
            evals += parent >= 0
        return evals

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span,parent,op,name,start_ns,end_ns\n")
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{sid},{parent},{'' if op is None else op},{name},{start},{end}\n")


def _route_value(tracer, sid, args, result):
    if tracer._parent_name(sid) == "criteria.ppt_nu":
        tracer._routes.setdefault(tracer.spans[sid][PARENT], []).append(result)


def _route_gap(tracer, sid, args, result):
    routes = tracer._routes.pop(sid, ())
    if len(routes) == 2:
        tracer.max_route_gap = max(tracer.max_route_gap, abs(routes[0] - routes[1]))


def _reconstruction_validity(tracer, sid, args, result):
    if tracer._parent_name(sid) == "tomography.reconstruct_cm":
        tracer.counts["reconstructions"] += 1
        tracer.counts["unphysical"] += not result.ok


def _samples(tracer, sid, args, result):
    tracer.counts["samples"] += sum(batch.samples.size for batch in result)


def _pixels(tracer, sid, args, result):
    tracer.counts["pixels"] += result.width * result.height


def _charge(tracer, sid, args, result):
    tracer._last_charge = abs(getattr(args[0], "l", args[0]))


def _stripes(tracer, sid, args, result):
    tracer.counts["stripe_charges"] += 1
    tracer.counts["stripe_ok"] += (not result.indeterminate
                                   and result.count == tracer._last_charge)


_OBSERVERS = {
    "criteria.ppt_nu_closed_form": _route_value,
    "criteria.ppt_nu_eigen": _route_value,
    "criteria.ppt_nu": _route_gap,
    "gaussian.validate": _reconstruction_validity,
    "tomography.simulate_measurements": _samples,
    "modes.tilted_lens_pattern": _pixels,
    "modes.lg_field": _charge,
    "modes.count_dark_stripes": _stripes,
}
