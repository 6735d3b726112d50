"""Span tracer that wraps steinflow's public functions from the outside.

Every wrapped call opens a span on a per-thread stack, so the worker threads
of a sweep never mix their spans.  Spans are aggregated by name into a call
count, total seconds and self seconds (total minus the time covered by child
spans).  ``uninstall`` restores every replaced attribute.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from contextlib import contextmanager

MARK = "__perfbench_traced__"


class _View:
    """Attribute view of a module whose attributes can be replaced locally.

    Used to trace ``scipy.linalg`` calls made from ``steinflow.samplers`` only,
    without touching the ``scipy.linalg`` module every other caller sees.
    """

    def __init__(self, real):
        self._real = real

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Aggregating span recorder with one span stack per thread."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans = {}      # name -> [calls, seconds, self seconds]
        self.counters = {}   # name -> summed value
        self.missing = []    # hooks whose target does not exist in this version
        self._undo = []

    @contextmanager
    def span(self, name, count=True):
        stack = self._local.__dict__.setdefault("stack", [])
        frame = [self._clock(), 0.0]  # start, seconds covered by children
        stack.append(frame)
        try:
            yield
        finally:
            stack.pop()
            total = self._clock() - frame[0]
            if stack:
                stack[-1][1] += total
            with self._lock:
                agg = self.spans.setdefault(name, [0, 0.0, 0.0])
                agg[0] += 1 if count else 0
                agg[1] += total
                agg[2] += total - frame[1]

    def add(self, name, value):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(self, owner, attr, name, count=True, observe=None):
        """Replace ``owner.attr`` by a traced version recorded as span ``name``.

        ``observe(tracer, args, result)`` runs after each call, outside the span.
        """
        if not hasattr(owner, attr):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name, count):
                result = original(*args, **kwargs)
            if observe is not None:
                observe(self, args, result)
            return result

        setattr(traced, MARK, True)
        self.patch(owner, attr, traced)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def total(self, name):
        return self.spans.get(name, [0, 0.0, 0.0])[1]

    def calls(self, name):
        return self.spans.get(name, [0, 0.0, 0.0])[0]


def _gram_bytes(tracer, args, result):
    n, d = args[1].shape
    tracer.add("kernels.gram.bytes", n * n * 8 + n * n * d * 8)


def _reset_share(tracer, args, result):
    tracer.add("samplers.asvgd_step.reset_sum", float((result.restart_count == 1).mean()))


def _count_thread_cpu(tracer, fn, counter):
    """``fn`` adding the CPU seconds of its calling thread to ``counter``.

    A thread waiting for the interpreter lock uses no CPU, so this shows how
    much of a sweep's wall time its workers really ran in parallel.
    """

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        start = time.thread_time()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.add(counter, time.thread_time() - start)

    return counted


def instrument(tracer):
    """Wrap the public steinflow functions named in the benchmark notes."""
    from steinflow import config, experiment, kernels, samplers, targets

    tracer.patch(experiment, "run_experiment",
                 _count_thread_cpu(tracer, experiment.run_experiment, "experiment.run_experiment.cpu_s"))
    tracer.wrap(experiment, "run_experiment", "experiment.run_experiment")
    tracer.wrap(experiment, "run_sweep", "experiment.run_sweep")
    tracer.wrap(config, "parse_config", "config.parse_config")
    tracer.wrap(experiment, "parse_config", "config.parse_config")
    tracer.wrap(experiment, "kl_estimate", "diagnostics.kl_estimate")
    tracer.wrap(experiment, "gaussian_fit_kl", "diagnostics.gaussian_fit_kl")
    tracer.wrap(experiment, "render_trajectory_svg", "svg.render_trajectory_svg")
    tracer.wrap(samplers, "asvgd_step", "samplers.asvgd_step", observe=_reset_share)
    tracer.wrap(samplers, "mala_step", "samplers.mala_step")
    tracer.wrap(samplers, "gradient_restart_stat", "samplers.gradient_restart_stat")
    tracer.wrap(kernels, "gram", "kernels.gram", observe=_gram_bytes)
    tracer.wrap(kernels, "woodbury_inverse_apply", "kernels.woodbury_inverse_apply")
    tracer.wrap(kernels, "median_bandwidth", "kernels.median_bandwidth")
    if hasattr(samplers, "scipy"):
        linalg = _View(samplers.scipy.linalg)
        scipy_view = _View(samplers.scipy)
        scipy_view.linalg = linalg
        tracer.wrap(linalg, "cho_factor", "samplers.solve")
        tracer.wrap(linalg, "cho_solve", "samplers.solve", count=False)
        tracer.patch(samplers, "scipy", scipy_view)
    else:
        tracer.missing.append("samplers.scipy")
    for cls in vars(targets).values():
        if isinstance(cls, type) and cls.__module__ == targets.__name__:
            for method in ("grad_all", "potential"):
                if method in cls.__dict__:
                    tracer.wrap(cls, method, f"targets.{method}")


def installed_wrappers():
    """Names of steinflow attributes that are currently tracing wrappers."""
    found = []
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("steinflow") or module is None:
            continue
        for attr, value in vars(module).items():
            if getattr(value, MARK, False) or isinstance(value, _View):
                found.append(f"{modname}.{attr}")
            if isinstance(value, type) and value.__module__ == modname:
                found += [f"{modname}.{attr}.{m}" for m, f in vars(value).items() if getattr(f, MARK, False)]
    return found
