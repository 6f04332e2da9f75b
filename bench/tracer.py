"""Per-layer spans around the public functions of ctmc_bounds.

The tracer wraps each function named in LAYER_FUNCTIONS, at every place
that binds it: the defining module and every module that took it with a
``from`` import (``odesolve.build_reduced``, ``cli.perron_weights``, ...),
so calls made inside the package are traced too. RateFunction.__call__ is
wrapped on the class. Nothing in ``src/`` changes; uninstall() puts the
original functions back.

A span records its name, the case it ran in, its start and end, and its
parent, so that self time (duration minus the time covered by child
spans) can be computed per layer. Private helpers such as ``_rk4_stream``
and ``_propagator_divergence`` have no span of their own: their time is
self time of the public verifier that called them.

At the same boundaries the tracer counts work: rate calls, time points at
which Q(t) is assembled, power iterations, and RK4 column-steps. With
``peaks=True`` it also records the tracemalloc peak reached inside each
function of PEAK_FUNCTIONS, above the traced memory at its entry; that
pass is slow and is kept apart from the timed spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import threading
import time
import tracemalloc

import numpy as np

# span name -> (module, attribute); "Class.method" names a method
LAYER_FUNCTIONS = {
    "rates.call": ("rates", "RateFunction.__call__"),
    "chain.eval_generator": ("chain", "eval_generator"),
    "chain.check_regularity": ("chain", "check_regularity"),
    "transform.build_reduced": ("transform", "build_reduced"),
    "transform.to_bstar": ("transform", "to_bstar"),
    "transform.apply_weights": ("transform", "apply_weights"),
    "spectral.perron_weights": ("spectral", "perron_weights"),
    "bounds.compute_bounds": ("bounds", "compute_bounds"),
    "bounds.cumulative_simpson": ("bounds", "cumulative_simpson"),
    "bounds.sharp_report": ("bounds", "sharp_report"),
    "bounds.csv_write": ("bounds", "bound_report_to_csv"),
    "odesolve.verify_bounds": ("odesolve", "verify_bounds"),
    "odesolve.verify_convergence_coupling": ("odesolve", "verify_convergence_coupling"),
    "modelfile.load_model": ("modelfile", "load_model"),
    "cli.rate": ("cli", "cmd_rate"),
    "cli.bounds": ("cli", "cmd_bounds"),
    "cli.verify": ("cli", "cmd_verify"),
}
INCLUSIVE = ("cli.rate", "cli.bounds", "cli.verify")
PEAK_FUNCTIONS = ("bounds.compute_bounds", "odesolve.verify_bounds",
                  "odesolve.verify_convergence_coupling")
COUNTS = ("rates.calls", "chain.generator_points", "spectral.perron_iterations",
          "odesolve.trajectory_steps")


class Span:
    """One call of a traced function; `child` is the time its direct children cover."""

    __slots__ = ("sid", "parent", "name", "case", "start", "end", "child")

    def __init__(self, sid, parent, name, case, start):
        self.sid, self.parent, self.name, self.case = sid, parent, name, case
        self.start, self.end, self.child = start, start, 0.0

    @property
    def self_time(self):
        return self.end - self.start - self.child


class Tracer:
    """Collects spans and work counts while installed; one instance per pass."""

    def __init__(self, package, peaks: bool = False):
        self.package = package
        self.peaks = peaks
        self.case = ""
        self.spans = []
        self.peak_mb = {}          # (span name, case) -> MB above the entry level
        self.work = []             # (case, counter, amount)
        self._generator_calls = []  # (case, cli call index, spec, times)
        self._cli_calls = 0
        self._local = threading.local()
        self._next_id = 0
        self._patched = []         # (owner, attribute, original)

    # installation -----------------------------------------------------
    def install(self):
        modules = [self.package] + [
            importlib.import_module(f"{self.package.__name__}.{m.name}")
            for m in pkgutil.iter_modules(self.package.__path__)]
        for name, (module, attr) in LAYER_FUNCTIONS.items():
            owner = importlib.import_module(f"{self.package.__name__}.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(name, getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # spans --------------------------------------------------------------
    def _wrap(self, name, fn):
        signature = inspect.signature(fn)
        on_exit = {"chain.eval_generator": self._count_generator,
                   "spectral.perron_weights": self._count_perron,
                   "odesolve.verify_bounds": self._count_rk4,
                   "odesolve.verify_convergence_coupling": self._count_rk4}.get(name)
        is_cli = name.startswith("cli.")
        track_peak = self.peaks and name in PEAK_FUNCTIONS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if is_cli:
                self._cli_calls += 1
            if track_peak:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            span = Span(self._next_id, stack[-1].sid if stack else -1, name, self.case,
                        time.perf_counter())
            self._next_id += 1
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1].child += span.end - span.start
                self.spans.append(span)
                if track_peak:
                    key = (name, self.case)
                    mb = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                    self.peak_mb[key] = max(self.peak_mb.get(key, 0.0), mb)
            if on_exit is not None:
                on_exit(signature.bind(*args, **kwargs), result)
            return result

        return traced

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # counts ----------------------------------------------------------------
    def _count_generator(self, bound, result):
        spec, t = bound.arguments["spec"], bound.arguments["t"]
        self._generator_calls.append((self.case, self._cli_calls, spec, t))
        self.work.append((self.case, "chain.generator_points", int(np.size(t))))

    def _count_perron(self, bound, result):
        self.work.append((self.case, "spectral.perron_iterations", int(result.iterations)))

    def _count_rk4(self, bound, result):
        """RK4 column-steps: trial batches plus the step-halving identity batches."""
        bound.apply_defaults()
        args = bound.arguments
        n, S = int(args["n_steps"]), args["spec"].S
        if "n_trials" in args:      # signed + nonnegative batches; system of dimension S
            columns, dim = 2 * int(args["n_trials"]), S
        else:                       # both halves of each pair; forward system of dimension S+1
            columns, dim = 2 * int(args["n_pairs"]), S + 1
        # margin: identity batch over n steps at h and over 2n steps at h/2
        self.work.append((self.case, "odesolve.trajectory_steps", n * columns + 3 * n * dim))

    # summaries -------------------------------------------------------------
    def layer_times(self):
        """Seconds per span name: self time, except inclusive time for the CLI commands."""
        out = {name: 0.0 for name in LAYER_FUNCTIONS}
        for span in self.spans:
            out[span.name] += (span.end - span.start) if span.name in INCLUSIVE \
                else span.self_time
        return out

    def counts(self, case=None):
        """Work counters and the two useful-work fractions, for one case or all."""
        total = {name: 0 for name in COUNTS}
        total["rates.calls"] = sum(1 for s in self.spans
                                   if s.name == "rates.call" and case in (None, s.case))
        for c, counter, amount in self.work:
            if case in (None, c):
                total[counter] += amount
        evals, useful_calls, distinct_times = 0, 0, {}
        for c, cli_call, spec, t in self._generator_calls:
            if case not in (None, c):
                continue
            evals += 1
            useful_calls += len(_distinct_rates(spec))
            distinct_times.setdefault(cli_call, set()).update(np.ravel(t).tolist())
        useful_points = sum(len(v) for v in distinct_times.values())
        total["rates.useful_call_frac"] = useful_calls / max(1, total["rates.calls"])
        total["chain.useful_point_frac"] = useful_points / max(1, total["chain.generator_points"])
        total["distinct_rates_per_eval"] = useful_calls / max(1, evals)
        total["distinct_times"] = useful_points
        return total

    def write_spans(self, path):
        """All spans as CSV: id, parent, name, case, start and end in seconds, self time."""
        t0 = min((s.start for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            fh.write("id,parent,name,case,start_s,end_s,self_s\n")
            for s in self.spans:
                fh.write(f"{s.sid},{s.parent},{s.name},{s.case},{s.start - t0:.9f},"
                         f"{s.end - t0:.9f},{s.self_time:.9f}\n")


def _distinct_rates(spec):
    fns = [*spec.birth, *spec.death, *spec.batch_birth, *spec.batch_death]
    fns += [fn for _, _, fn in spec.transitions]
    return set(fns)
