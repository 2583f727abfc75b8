"""Benchmark-owned child processes that run the program.

``run.py`` starts every program process it measures; the untraced CLI
jobs and the untraced daemon are plain ``python -m repro`` processes.
This module covers the rest, each in a fresh interpreter::

    python perfbench/child.py probe SPECS.json
        machine envelope plus the content hash of every spec in the file
    python perfbench/child.py trace JOB OUT ARGS...
        ``repro.api.cli.main(ARGS)`` with spans recorded and written to
        OUT at exit; JOB is the job id of the spans, or ``-`` to key them
        by spec hash (the daemon, ``ARGS = serve ...``)
    python perfbench/child.py mc PLAN.json
        the ``mc_sweep`` worker: set-up, then in-process ``repro.api.run``
        jobs for the plan's window, one JSON line per event on stdout

It needs ``src`` on ``PYTHONPATH``, as the repository's CLI does.
"""

from __future__ import annotations

import ctypes
import dataclasses
import hashlib
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import check_document  # noqa: E402

#: (thread-count, config) symbol pairs of the OpenBLAS builds numpy and
#: scipy bundle, and of a plain system OpenBLAS
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_config64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_get_config"),
    ("openblas_get_num_threads", "openblas_get_config"),
)


def _openblas() -> list:
    """Version and thread count of every OpenBLAS loaded in this process."""
    with open("/proc/self/maps", encoding="utf-8") as handle:
        paths = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for threads_name, config_name in _OPENBLAS_SYMBOLS:
            if hasattr(lib, threads_name) and hasattr(lib, config_name):
                threads, config = getattr(lib, threads_name), getattr(lib, config_name)
                threads.argtypes, threads.restype = [], ctypes.c_int
                config.argtypes, config.restype = [], ctypes.c_char_p
                entry.update(threads=threads(), config=config().decode())
                break
        found.append(entry)
    return found


def probe(specs_path: str) -> None:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)

    from repro.api import spec_from_dict

    with open(specs_path, encoding="utf-8") as handle:
        specs = json.load(handle)
    print(json.dumps({
        "envelope": {
            "cores": os.cpu_count(),
            "cores_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "openblas": _openblas(),
        },
        "hashes": [spec_from_dict(spec).content_hash() for spec in specs],
    }))


def trace(job: str, out: str, argv: list) -> int:
    from tracing import Tracer, install

    tracer = Tracer(job=None if job == "-" else job)
    with tracer.span("api.import"):
        import repro.api.cli
    install(tracer, key_by_spec_hash=job == "-")
    try:
        return repro.api.cli.main(argv)
    finally:
        tracer.dump(out)


def _emit(**event) -> None:
    sys.stdout.write(json.dumps(event) + "\n")
    sys.stdout.flush()


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _mc_job(api, models, spec, spec_hash: str) -> dict:
    """One timed ``repro.api.run`` of a Monte Carlo spec, then its checks."""
    wall0, cpu0 = time.perf_counter(), _cpu()
    result = api.run(spec, models=models)
    wall, cpu = time.perf_counter() - wall0, _cpu() - cpu0
    summary = result.meta["montecarlo"]
    scenarios = result.meta.get("scenario_names") or []
    doc = {
        "meta": result.meta,
        "perf_stats": result.perf_stats,
        "times": result.times,
        "waveforms": {name: result.waveform(name) for name in result.names()},
    }
    nodes = ("far", "near")
    problems = check_document(
        doc, spec_hash, [f"{sc}/{node}" for sc in scenarios for node in nodes],
        int(round(spec.duration / result.dt)) + 1,
    )
    if summary["generated"] != len(scenarios) or summary["completed"] != len(scenarios):
        problems.append(f"{summary['completed']}/{summary['generated']} scenarios completed")
    waves = hashlib.sha256(result.times.tobytes())
    for name in result.names():
        waves.update(name.encode())
        waves.update(result.waveform(name).tobytes())
    return {
        "wall": wall, "cpu": cpu, "problems": problems,
        "scenarios": summary["generated"],
        "summary": hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest(),
        "waves": waves.hexdigest(),
        "reference": {
            "eye_height_p50": summary["eye_height"]["percentiles"]["p50"],
            "eye_width_p50": summary["eye_width"]["percentiles"]["p50"],
            "worst_scenario": summary["worst"]["scenario"],
            "worst_eye_width": summary["worst"]["eye_width"],
        },
    }


def mc_worker(plan_path: str) -> None:
    """Set up, then run the plan's Monte Carlo jobs for its window."""
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    tracer = None
    if plan["trace"]:
        from tracing import Tracer, install

        tracer = Tracer(job="setup")
        with tracer.span("api.import"):
            import repro.api as api
        install(tracer)
    else:
        import repro.api as api
    warmup = plan["warmup"]
    spec = api.spec_from_dict(warmup["spec"])
    models = api.resolve_models(spec)
    _emit(event="ready", warmup=_mc_job(api, models, spec, warmup["hash"]))

    start, last = time.perf_counter(), 0.0
    for number, job in enumerate(plan["jobs"]):
        # at least two cold jobs and two repeats; then another job starts
        # only if it should end within the window
        if number >= 4 and time.perf_counter() - start + last > plan["window"]:
            break
        job_start = time.perf_counter()
        spec = api.spec_from_dict(job["spec"])
        traced = tracer is not None and number % 2 == 0
        if tracer is not None:
            tracer.enabled, tracer.job = traced, f"{plan['round']}:{number}"
        record = _mc_job(api, models, spec, job["hash"])
        if tracer is not None:
            tracer.enabled = False
        last = time.perf_counter() - job_start
        _emit(event="job", number=number, cold=job["cold"], repeat=job["repeat"],
              traced=traced, **record)
    window = time.perf_counter() - start

    if plan.get("shard_diagnostic"):
        spec = api.spec_from_dict(warmup["spec"])
        tracer.enabled, tracer.job = True, "shard"
        walls = {}
        for workers in (1, 2):
            sized = dataclasses.replace(
                spec, engine=dataclasses.replace(spec.engine, workers=workers)
            )
            wall0 = time.perf_counter()
            api.run(sized, models=models)
            walls[workers] = time.perf_counter() - wall0
        _emit(event="shard", walls=walls)
    if tracer is not None:
        tracer.dump(plan["trace_out"])
    _emit(event="done", window=window,
          maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def main(argv: list) -> int:
    mode, *rest = argv
    if mode == "probe":
        probe(rest[0])
        return 0
    if mode == "trace":
        return trace(rest[0], rest[1], rest[2:])
    if mode == "mc":
        mc_worker(rest[0])
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
