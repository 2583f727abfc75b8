"""In-memory span recorder wrapped around the program's public functions.

The program has no instrumentation of its own, so the benchmark records
spans from outside: :func:`install` replaces a fixed list of public
functions and methods with wrappers that time each call.  A span is
``[name, start, end, parent, job]``; ``parent`` is the index of the
enclosing span on the same thread (or ``None``) and ``job`` ties every
span of one job together.  Spans stay in memory until :meth:`Tracer.dump`
writes them out.

Only the benchmark's own child processes (``child.py``) import this module; the untraced
runs never load it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
import time

#: (module, attribute path, span name) of every wrapped callable.  The
#: attribute is replaced where callers look it up: package attributes for
#: ``from repro.api import run``-style call-time imports, module globals
#: for same-module calls, class attributes for methods.
TARGETS = (
    ("repro.api", "run", "api.run"),
    ("repro.api", "load_spec", "api.spec"),
    ("repro.api", "spec_from_dict", "api.spec"),
    ("repro.api.spec", "SimulationSpec.content_hash", "api.spec"),
    ("repro.api.result", "Result.to_dict", "api.result_save"),
    ("repro.api.result", "Result.save_json", "api.result_save"),
    ("repro.api.result", "Result.save_npz", "api.result_save"),
    ("repro.api.engines", "resolve_models", "macromodel.resolve"),
    ("repro.api.engines", "build_sweep", "sweep.build"),
    ("repro.sweep.engine", "CircuitSweep.run", "sweep.run"),
    ("repro.sweep.montecarlo", "generate_scenarios", "sweep.mc_generate"),
    ("repro.sweep.montecarlo", "merge_sweep_results", "sweep.merge"),
    ("repro.sweep.montecarlo", "metric_distribution", "sweep.report"),
    ("repro.sweep.montecarlo", "bathtub_curve", "sweep.report"),
    ("repro.sweep.result", "eye_diagram", "waveforms.eye"),
    ("repro.waveforms.eye", "EyeDiagram.metrics", "waveforms.eye"),
    ("repro.sweep.shard", "run_sharded", "shard.run"),
    ("repro.sweep.shard", "merge_shard_results", "shard.merge"),
    ("repro.service.store", "ResultStore.get", "store.io"),
    ("repro.service.store", "ResultStore.put", "store.io"),
)


class Tracer:
    """Span and counter recorder shared by every thread of one process.

    ``job`` is the job id given to spans that open outside any other span;
    nested spans inherit their parent's job.  ``job_of`` may map the
    arguments of a top-level call to a job id instead (the daemon keys its
    spans by spec hash).  ``enabled`` switches recording off without
    unwrapping: a disabled wrapper costs one attribute load.
    """

    def __init__(self, job=None):
        self.job = job
        self.enabled = True
        self.spans: list = []
        self.counters: list = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, job=None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            if parent is not None:
                job = self.spans[parent][4]
            elif job is None:
                job = self.job
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, job])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str, job=None):
        """Context manager form of :meth:`begin`/:meth:`end`."""
        index = self.begin(name, job)
        try:
            yield
        finally:
            self.end(index)

    def count(self, job, name: str, value) -> None:
        """Record a counter read at a layer boundary (e.g. from perf_stats)."""
        with self._lock:
            self.counters.append([name, job, value])

    def wrap(self, func, name: str, job_of=None):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            job = job_of(args, kwargs) if job_of is not None and not tracer._stack() else None
            index = tracer.begin(name, job)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end(index)
            if name == "api.run":
                tracer._record_run(result, tracer.spans[index][4], args, kwargs)
            return result

        return wrapper

    def _record_run(self, result, job, args, kwargs) -> None:
        """Counters of one ``repro.api.run`` call, read from its result."""
        spec = args[0] if args else kwargs.get("spec")
        self.count(job, "kind", getattr(spec, "kind", "?"))
        stats = dict(getattr(result, "perf_stats", {}) or {})
        meta = getattr(result, "meta", {}) or {}
        for key in ("factorizations", "dense_solves", "sparse_factorizations",
                    "symbolic_factorizations", "accept_calls", "block_solves",
                    "shared_factorizations", "static_groups"):
            if isinstance(stats.get(key), (int, float)):
                self.count(job, key, stats[key])
        newton = meta.get("mean_newton_iterations", meta.get("newton_mean_iterations"))
        if isinstance(newton, (int, float)):
            self.count(job, "newton_iters_mean", newton)
        health = stats.get("health") or {}
        if health:
            self.count(job, "retries", int(health.get("retries", 0)))
            self.count(job, "failures", int(sum((health.get("failure_counts") or {}).values())))

    def dump(self, path: str) -> None:
        with self._lock:
            payload = {"spans": list(self.spans), "counters": list(self.counters)}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def install(tracer: Tracer, key_by_spec_hash: bool = False) -> None:
    """Wrap every callable in :data:`TARGETS` with spans of ``tracer``.

    ``key_by_spec_hash`` gives a top-level ``repro.api.run`` span the spec
    hash of its job as job id, for a process that runs many jobs at once
    (the daemon); its run counters are then keyed by spec hash too.
    """
    from repro.api.spec import SimulationSpec

    original_hash = SimulationSpec.content_hash

    def spec_hash(args, kwargs):
        return original_hash(args[0] if args else kwargs["spec"])

    for module_name, path, name in TARGETS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        job_of = spec_hash if key_by_spec_hash and name == "api.run" else None
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, job_of))
