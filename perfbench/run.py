"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Workloads (closed loop, one client, one
program process at a time):

``cli_jobs``
    one fresh ``python -m repro run JOB --output OUT`` process per job;
    a pass runs seed-drawn variants of the four golden single-run jobs
    plus two repeats of its ``rbf_link`` job.
``mc_sweep``
    in-process ``repro.api.run`` of the golden Monte Carlo spec (smaller
    sample counts, ``workers=1``) with seed-drawn ``stats.seed``; cold
    specs alternate with repeats of specs already run.
``service_mix``
    a ``python -m repro serve`` daemon on a fresh result store; seed-drawn
    ``rbf_link`` variants (cold: solve and store) each followed by twenty
    resubmissions of specs already done (hits: store read only).

A run is a few rounds (``ROUNDS``); each round sets the workload up once
(timed as ``setup_s``) and measures for its share of ``--seconds``.  Every output is
checked (see ``checks.py``).  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics from spans the benchmark
records around the program's public functions (see ``tracing.py``).
The last line of standard output is one JSON object.  The program runs
in the default environment, except that ``REPRO_CACHE_DIR`` points at a
fresh directory under ``.perfbench_work/`` for every run.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import specs  # noqa: E402
from checks import (  # noqa: E402
    DEFAULT_SEED,
    check_document,
    compare_reference,
    extremes,
    load_reference,
)

#: rounds (set-ups) per run; fewer where a pass or a set-up is long
ROUNDS = {"cli_jobs": 2, "mc_sweep": 2, "service_mix": 3}
POLL_S = 0.02
JOB_TIMEOUT_S = 90.0
CHILD = os.path.join(HERE, "child.py")

#: environment variables that change how the program runs
ENV_PREFIXES = ("REPRO_", "OPENBLAS_", "OMP_", "MKL_", "BLIS_", "GOTO_", "VECLIB_")

#: end-to-end metrics: name -> unit (printed for every workload)
END_TO_END = {
    "setup_s": "s",
    "job_s_p50": "s",
    "hit_s_p50": "s",
    "hit_s_p90": "s",
    "jobs_per_s": "1/s",
    "scenarios_per_s": "1/s",
    "cpu_s_per_job": "s",
    "peak_rss_mb": "MB",
    "success_frac": "ratio",
}

#: per-layer metrics of the traced run: name -> unit.  Times are self
#: seconds per traced job (``api.import_s``: seconds per interpreter
#: start); counters are means per solved job; a layer a workload does not
#: reach reads 0.
PER_LAYER = {
    "api.import_s": "s",
    "api.spec_s": "s/job",
    "api.result_save_s": "s/job",
    "api.result_bytes": "B",
    "macromodel.resolve_s": "s/job",
    "macromodel.resolve_calls": "count",
    "circuits.solve_s": "s/job",
    "circuits.newton_iters_mean": "count",
    "perf.factorizations": "count",
    "perf.dense_solves": "count",
    "perf.sparse_factorizations": "count",
    "perf.symbolic_factorizations": "count",
    "perf.accept_calls": "count",
    "fdtd.solve1d_s": "s/job",
    "fdtd.solve3d_s": "s/job",
    "sweep.build_s": "s/job",
    "sweep.run_s": "s/job",
    "sweep.mc_generate_s": "s/job",
    "sweep.merge_s": "s/job",
    "sweep.report_s": "s/job",
    "sweep.block_solves": "count",
    "sweep.shared_factorizations": "count",
    "sweep.static_groups": "count",
    "waveforms.eye_s": "s/job",
    "shard.wall_ratio": "ratio",
    "shard.parallel_efficiency": "ratio",
    "shard.merge_s": "s/job",
    "service.submit_s": "s/job",
    "service.queue_wait_s": "s/job",
    "service.run_s": "s/job",
    "service.fetch_s": "s/job",
    "service.polls_per_job": "count",
    "store.io_s": "s/job",
    "store.hits": "count",
    "store.misses": "count",
    "store.puts": "count",
    "store.lookups": "count",
    "store.hit_ratio": "ratio",
    "resilience.retries": "count",
    "resilience.failures": "count",
    "trace.unattributed_s": "s/job",
    "trace.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.jobs": "count",
    "trace.spans": "count",
}

#: span name -> per-layer time metric (``api.run`` self time goes to the
#: solver layer of the job's kind, see ``RUN_LAYER``)
SPAN_LAYER = {
    "api.spec": "api.spec_s",
    "api.result_save": "api.result_save_s",
    "macromodel.resolve": "macromodel.resolve_s",
    "sweep.build": "sweep.build_s",
    "sweep.run": "sweep.run_s",
    "sweep.mc_generate": "sweep.mc_generate_s",
    "sweep.merge": "sweep.merge_s",
    "sweep.report": "sweep.report_s",
    "waveforms.eye": "waveforms.eye_s",
    "shard.merge": "shard.merge_s",
    "store.io": "store.io_s",
}

#: kind -> layer of the ``api.run`` self time.  The sweep adapter's own
#: code (Monte Carlo bookkeeping, result wrapping) belongs to no named
#: layer and counts as unattributed.
RUN_LAYER = {"circuit": "circuits.solve_s", "fdtd1d": "fdtd.solve1d_s",
             "fdtd3d": "fdtd.solve3d_s"}

#: perf_stats counter -> per-layer metric
COUNTERS = {
    "newton_iters_mean": "circuits.newton_iters_mean",
    "factorizations": "perf.factorizations",
    "dense_solves": "perf.dense_solves",
    "sparse_factorizations": "perf.sparse_factorizations",
    "symbolic_factorizations": "perf.symbolic_factorizations",
    "accept_calls": "perf.accept_calls",
    "block_solves": "sweep.block_solves",
    "shared_factorizations": "sweep.shared_factorizations",
    "static_groups": "sweep.static_groups",
}


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


class Bench:
    """One benchmark run: its scratch directory, child processes and tally."""

    def __init__(self, root: str, args):
        self.root = root
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.trace = bool(args.trace)
        self.work = os.path.join(root, ".perfbench_work")
        self.tmp = os.path.join(self.work, f"run-{os.getpid()}")
        #: span files of a traced run, kept after the run
        self.traces = os.path.join(
            self.work, f"trace-{args.workload}-seed{args.seed}-{os.getpid()}"
        )
        shutil.rmtree(self.tmp, ignore_errors=True)
        os.makedirs(self.tmp)
        self.env = dict(os.environ)
        # BLAS and REPRO_* variables found set (the benchmark sets none but
        # REPRO_CACHE_DIR); part of the machine envelope.
        self.env_found = {k: v for k, v in sorted(os.environ.items())
                          if k.startswith(ENV_PREFIXES)}
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.env["REPRO_CACHE_DIR"] = os.path.join(self.tmp, "cache")
        self.procs: list = []
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.warnings: list = []
        self.envelope: dict = {}
        self.reference = load_reference(HERE)
        self.recorded: dict = {}

    # -- processes ----------------------------------------------------------
    def popen(self, argv, **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(argv, cwd=self.root, env=self.env, **kwargs)
        self.procs.append(proc)
        return proc

    def wait(self, proc: subprocess.Popen, timeout: float):
        """Reap ``proc`` (killed after ``timeout`` s): exit code and rusage."""
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage

    def close(self) -> None:
        for proc in self.procs:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            for stream in (proc.stdout, proc.stderr):
                if stream is not None:
                    stream.close()
        shutil.rmtree(self.tmp, ignore_errors=True)

    def path(self, *parts) -> str:
        path = os.path.join(self.tmp, *parts)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return path

    def trace_path(self, name: str) -> str:
        os.makedirs(self.traces, exist_ok=True)
        return os.path.join(self.traces, name)

    def write_json(self, payload, *parts) -> str:
        path = self.path(*parts)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        return path

    # -- bookkeeping --------------------------------------------------------
    def outcome(self, what: str, problems: list) -> bool:
        """Count one attempted operation; it fails if it has problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {'; '.join(problems)}")
        return not problems

    def probe(self, spec_list: list) -> list:
        """Machine envelope (kept) and the content hashes of ``spec_list``."""
        path = self.write_json(spec_list, "specs.json")
        proc = self.popen([sys.executable, CHILD, "probe", path], stdout=subprocess.PIPE)
        out = proc.stdout.read()
        code, _ = self.wait(proc, 120.0)
        if code != 0:
            raise RuntimeError(f"child.py probe exited with {code}")
        payload = json.loads(out)
        self.envelope = {**payload["envelope"], "env": self.env_found}
        return payload["hashes"]

    def check_reference(self, workload: str, observed) -> None:
        """Default seed only: compare with ``reference.json``."""
        self.recorded[workload] = observed
        if self.seed != DEFAULT_SEED:
            return
        expected = self.reference.get(workload)
        problems = (compare_reference(expected, observed, workload)
                    if expected is not None else [f"{workload}: no reference values"])
        self.outcome(f"{workload} reference values (seed {self.seed})", problems)


# ---------------------------------------------------------------------------
# per-layer attribution
# ---------------------------------------------------------------------------

def load_trace(path: str) -> dict:
    """A child process's trace file, each span extended by its self time."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    spans = payload["spans"]
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[2] is None:  # still open when the process was stopped
            span[2] = span[1]
        if span[3] is not None:
            child_time[span[3]] += span[2] - span[1]
    for index, span in enumerate(spans):
        span.append(span[2] - span[1] - child_time[index])
    return payload


def counters_by_job(payload: dict) -> dict:
    out: dict = {}
    for name, job, value in payload["counters"]:
        out.setdefault(job, {})[name] = value
    return out


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(jobs: list, import_spans: list) -> dict:
    """Per-layer metrics from traced jobs.

    Each job is ``{"latency", "spans", "counters"}`` plus optional
    ``"intervals"`` and ``"result_bytes"``.  ``spans`` are the job's spans
    with their self time; ``intervals`` are further ``(start, end)``
    stretches of its path that a named layer covers without a span (the
    service client's requests).  The unattributed remainder is the part
    of the latency no named layer covers; ``api.import`` counts as a
    layer there, but ``api.import_s`` is reported per interpreter start,
    from ``import_spans``.
    """
    totals = {name: 0.0 for name in PER_LAYER}
    unattributed = 0.0
    latency = 0.0
    solved = []
    for job in jobs:
        kind = job["counters"].get("kind")
        covered = list(job.get("intervals", ()))
        for span in job["spans"]:
            name, self_s = span[0], span[5]
            if name == "api.run":
                layer = RUN_LAYER.get(kind)
            else:
                layer = SPAN_LAYER.get(name)
            if layer is not None:
                totals[layer] += self_s
            if name == "macromodel.resolve":
                totals["macromodel.resolve_calls"] += 1
            if name != "api.run" or kind in RUN_LAYER:
                covered.append((span[1], span[2]))
        unattributed += job["latency"] - _covered(covered)
        latency += job["latency"]
        if kind is not None:
            solved.append(job["counters"])
        totals["api.result_bytes"] += job.get("result_bytes", 0)
    n = max(len(jobs), 1)
    metrics = {name: totals[name] / n for name in PER_LAYER}
    for counter, name in COUNTERS.items():
        metrics[name] = _mean(c[counter] for c in solved if counter in c)
    metrics["resilience.retries"] = sum(c.get("retries", 0) for c in solved)
    metrics["resilience.failures"] = sum(c.get("failures", 0) for c in solved)
    metrics["api.import_s"] = _mean(s[2] - s[1] for s in import_spans)
    metrics["trace.unattributed_s"] = unattributed / n
    metrics["trace.unattributed_frac"] = unattributed / latency if latency else 0.0
    metrics["trace.jobs"] = len(jobs)
    metrics["trace.spans"] = sum(len(job["spans"]) for job in jobs) + len(import_spans)
    return metrics


# ---------------------------------------------------------------------------
# cli_jobs
# ---------------------------------------------------------------------------

#: fresh-interpreter imports timed per ``cli_jobs`` round (its set-up)
CLI_IMPORTS = 2


def _import_seconds(b: Bench) -> float:
    """Spawn-to-exit of a fresh interpreter importing ``repro.api``."""
    start = time.perf_counter()
    proc = b.popen([sys.executable, "-c", "import repro.api"])
    code, _ = b.wait(proc, 60.0)
    if code != 0:
        raise RuntimeError(f"'import repro.api' exited with {code}")
    return time.perf_counter() - start


def _cli_job(b: Bench, spec_path: str, job_id: str, traced: bool):
    """One ``python -m repro run`` process (or its traced twin), timed.

    Returns ``(exit code, wall seconds, rusage, artifact path, trace path)``.
    """
    out = b.path("out", f"{job_id}.json")
    trace_out = b.trace_path(f"{job_id}.json") if traced else None
    argv = ([sys.executable, CHILD, "trace", job_id, trace_out] if traced
            else [sys.executable, "-m", "repro"])
    argv += ["run", spec_path, "--output", out]
    start = time.perf_counter()
    proc = b.popen(argv, stdout=subprocess.DEVNULL)
    code, usage = b.wait(proc, JOB_TIMEOUT_S)
    return code, time.perf_counter() - start, usage, out, trace_out


def cli_jobs(b: Bench):
    goldens = {name: specs.golden(b.root, name) for name in specs.CLI_JOBS}
    shapes = b.reference["shapes"]
    rounds = ROUNDS["cli_jobs"]
    max_passes = 4 * rounds
    passes = [specs.cli_pass(goldens, b.seed, p) for p in range(max_passes)]
    hashes = iter(b.probe([spec for jobs in passes for _, spec in jobs]))
    share = b.seconds / rounds
    setups, colds, hits, cpu, rss = [], [], [], [], []
    traced_jobs, import_spans, pairs = [], [], []
    window = 0.0
    reference = {}
    pass_index = 0

    for _ in range(rounds):
        setups += [_import_seconds(b) for _ in range(CLI_IMPORTS)]
        start, last = time.perf_counter(), 0.0
        # whole passes only: another pass starts if it should end in time
        while pass_index < max_passes and (
                last == 0.0 or time.perf_counter() - start + last <= share):
            pass_start = time.perf_counter()
            first_docs = {}
            for number, (name, spec) in enumerate(passes[pass_index]):
                job, repeat = name.split(":")[0], name.endswith(":repeat")
                spec_hash = next(hashes)
                spec_path = b.write_json(spec, "jobs", f"p{pass_index}-{job}.json")
                # traced runs pair every job with an untraced twin, in
                # alternating order, for the tracing overhead
                modes = [False, True] if b.trace else [False]
                if (pass_index + number) % 2:
                    modes.reverse()
                walls = {}
                for traced in modes:
                    job_id = f"p{pass_index}-{number}-{job}" + ("-t" if traced else "")
                    code, wall, usage, out, trace_out = _cli_job(b, spec_path, job_id, traced)
                    problems = [f"exit code {code}"] if code != 0 else []
                    if not problems:
                        with open(out, encoding="utf-8") as handle:
                            doc = json.load(handle)
                        shape = shapes[job]
                        problems = check_document(doc, spec_hash, shape["names"],
                                                  shape["n_samples"])
                    if not problems and repeat:
                        first = first_docs.get(job)
                        if first is None or (doc["times"], doc["waveforms"]) != (
                                first["times"], first["waveforms"]):
                            problems.append("repeat differs from the first run of the spec")
                    if not b.outcome(f"cli job {job_id}", problems):
                        continue
                    walls[traced] = wall
                    first_docs.setdefault(job, doc)
                    if pass_index == 0 and not traced and not repeat:
                        reference[job] = {"spec_hash": spec_hash, "far_end": extremes(doc)}
                    if traced:
                        payload = load_trace(trace_out)
                        import_spans += [s for s in payload["spans"] if s[0] == "api.import"]
                        traced_jobs.append({
                            "latency": wall,
                            "spans": payload["spans"],
                            "counters": counters_by_job(payload).get(job_id, {}),
                            "result_bytes": os.path.getsize(out),
                        })
                    else:
                        (hits if repeat else colds).append(wall)
                        cpu.append(usage.ru_utime + usage.ru_stime)
                        rss.append(usage.ru_maxrss / 1024.0)
                if len(walls) == 2:
                    pairs.append((walls[True], walls[False]))
            pass_index += 1
            last = time.perf_counter() - pass_start
        window += time.perf_counter() - start
    b.check_reference("cli_jobs", reference)

    if b.trace:
        metrics = layer_metrics(traced_jobs, import_spans)
        metrics["trace.overhead_frac"] = (
            sum(t for t, _ in pairs) / sum(u for _, u in pairs) - 1.0 if pairs else 0.0
        )
        return metrics
    done = len(colds) + len(hits)
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "job_s_p50": (statistics.median(colds), len(colds)),
        "hit_s_p50": (statistics.median(hits), len(hits)),
        "hit_s_p90": (percentile(hits, 90), len(hits)),
        "jobs_per_s": (done / window, done),
        "scenarios_per_s": (done / window, done),
        "cpu_s_per_job": (sum(cpu) / len(cpu), len(cpu)),
        "peak_rss_mb": (max(rss), len(rss)),
    }


# ---------------------------------------------------------------------------
# mc_sweep
# ---------------------------------------------------------------------------

#: cold Monte Carlo specs planned per round (far more than a round runs)
MC_COLDS = 20


def mc_sweep(b: Bench):
    base = specs.golden(b.root, "montecarlo_sweep")
    warmup = specs.mc_spec(base, b.seed, "warmup")
    rounds = ROUNDS["mc_sweep"]
    colds = [[specs.mc_spec(base, b.seed, f"{r}-{k}") for k in range(MC_COLDS)]
             for r in range(rounds)]
    hashes = b.probe([warmup] + [spec for batch in colds for spec in batch])
    share = b.seconds / rounds
    setups, cold_walls, hit_walls, cpu, rss = [], [], [], [], []
    scenarios, window = 0, 0.0
    walls_by_mode = {True: [], False: []}
    traced_jobs, import_spans = [], []
    warmup_digest, shard = None, None

    for r in range(rounds):
        plan = {
            "round": r,
            "trace": b.trace,
            "trace_out": b.trace_path(f"mc-{r}.json") if b.trace else None,
            "window": share,
            "warmup": {"spec": warmup, "hash": hashes[0]},
            "jobs": [{"spec": colds[r][k], "hash": hashes[1 + r * MC_COLDS + k],
                      "cold": k, "repeat": repeat}
                     for repeat, k in specs.plan_order(b.seed, f"mc{r}", MC_COLDS, 1)],
            "shard_diagnostic": b.trace and r == rounds - 1,
        }
        start = time.perf_counter()
        proc = b.popen([sys.executable, CHILD, "mc", b.write_json(plan, f"mc-plan-{r}.json")],
                       stdout=subprocess.PIPE, text=True)
        guard = threading.Timer(150.0, proc.kill)
        guard.start()
        first, traced_keys = {}, {}
        try:
            for line in proc.stdout:
                event = json.loads(line)
                kind = event.pop("event")
                if kind == "ready":
                    setups.append(time.perf_counter() - start)
                    record = event["warmup"]
                    problems = list(record["problems"])
                    digest = (record["summary"], record["waves"])
                    if warmup_digest is not None and digest != warmup_digest:
                        problems.append("warm-up result differs from round 0 (same spec)")
                    warmup_digest = warmup_digest or digest
                    b.outcome(f"mc warm-up round {r}", problems)
                    if r == 0:
                        b.check_reference("mc_sweep",
                                          {"spec_hash": hashes[0], **record["reference"]})
                elif kind == "job":
                    problems = list(event["problems"])
                    digest = (event["summary"], event["waves"])
                    if event["repeat"] and digest != first.get(event["cold"]):
                        problems.append("repeat differs from the first run of the spec")
                    first.setdefault(event["cold"], digest)
                    if not b.outcome(f"mc round {r} job {event['number']}", problems):
                        continue
                    walls_by_mode[event["traced"]].append(event["wall"])
                    (hit_walls if event["repeat"] else cold_walls).append(event["wall"])
                    cpu.append(event["cpu"])
                    scenarios += event["scenarios"]
                    if event["traced"]:
                        traced_keys[f"{r}:{event['number']}"] = event["wall"]
                elif kind == "shard":
                    shard = event
                elif kind == "done":
                    window += event["window"]
                    rss.append(event["maxrss_kb"] / 1024.0)
        finally:
            guard.cancel()
        code, _ = b.wait(proc, 30.0)
        if code != 0:
            raise RuntimeError(f"mc worker round {r} exited with {code}")
        if b.trace:
            payload = load_trace(plan["trace_out"])
            by_job: dict = {}
            for span in payload["spans"]:
                by_job.setdefault(span[4], []).append(span)
            counters = counters_by_job(payload)
            import_spans += [s for s in by_job.get("setup", []) if s[0] == "api.import"]
            traced_jobs += [{"latency": wall, "spans": by_job.get(key, []),
                             "counters": counters.get(key, {})}
                            for key, wall in traced_keys.items()]
            if shard is not None and r == rounds - 1:
                shard["merge_s"] = sum(s[5] for s in by_job.get("shard", [])
                                       if s[0] == "shard.merge")

    if b.trace:
        metrics = layer_metrics(traced_jobs, import_spans)
        metrics["trace.overhead_frac"] = (
            statistics.median(walls_by_mode[True]) / statistics.median(walls_by_mode[False])
            - 1.0
        )
        one, two = shard["walls"]["1"], shard["walls"]["2"]
        metrics["shard.wall_ratio"] = two / one
        metrics["shard.parallel_efficiency"] = one / (two * min(2, b.envelope["cores_usable"]))
        metrics["shard.merge_s"] = shard["merge_s"]
        return metrics
    done = len(cold_walls) + len(hit_walls)
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "job_s_p50": (statistics.median(cold_walls), len(cold_walls)),
        "hit_s_p50": (statistics.median(hit_walls), len(hit_walls)),
        "hit_s_p90": (percentile(hit_walls, 90), len(hit_walls)),
        "jobs_per_s": (done / window, done),
        "scenarios_per_s": (scenarios / window, scenarios),
        "cpu_s_per_job": (sum(cpu) / len(cpu), len(cpu)),
        "peak_rss_mb": (max(rss), len(rss)),
    }


# ---------------------------------------------------------------------------
# service_mix
# ---------------------------------------------------------------------------

#: cold specs planned per round, and resubmissions after each cold job
#: (enough for at least ten hits beyond each round's 90th percentile)
SERVICE_COLDS = 60
SERVICE_HITS_PER_COLD = 20
#: seconds the daemon gets to exit after SIGINT
DAEMON_STOP_S = 15.0


def _http(port: int, method: str, path: str, body: bytes = None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=JOB_TIMEOUT_S)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _daemon_cpu(pid: int) -> float:
    """User+sys CPU seconds of a live process and its reaped children."""
    with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return sum(int(v) for v in fields[11:15]) / os.sysconf("SC_CLK_TCK")


def _start_daemon(b: Bench, traced: bool, trace_out: str):
    """Launch the daemon; returns ``(proc, port, seconds until /healthz answers)``."""
    argv = ([sys.executable, CHILD, "trace", "-", trace_out] if traced
            else [sys.executable, "-m", "repro"])
    argv += ["serve", "--port", "0", "--quiet"]
    start = time.perf_counter()
    proc = b.popen(argv, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    match = re.search(r"listening on http://[^:]+:(\d+)", line)
    if match is None:
        raise RuntimeError(f"daemon did not start: {line!r}")
    port = int(match.group(1))
    while True:
        try:
            if _http(port, "GET", "/healthz")[0] == 200:
                return proc, port, time.perf_counter() - start
        except OSError:
            pass
        if time.perf_counter() - start > 60.0:
            raise RuntimeError("daemon /healthz did not answer within 60 s")
        time.sleep(0.005)


def _service_job(b: Bench, port: int, spec: dict, spec_hash: str, cold: bool, bodies: dict,
                 key) -> dict:
    """Submit one spec and receive its result; the job's timings and checks."""
    problems = []
    t0 = time.perf_counter()
    status, data = _http(port, "POST", "/jobs", json.dumps(spec).encode())
    t1 = time.perf_counter()
    submitted = json.loads(data)
    if status not in (200, 202):
        return {"problems": [f"POST /jobs answered {status}: {submitted}"]}
    if submitted.get("spec_hash") != spec_hash:
        problems.append(f"daemon spec_hash {submitted.get('spec_hash')!r} != {spec_hash!r}")
    job_status, polls = submitted, 0
    if not cold and submitted.get("state") != "done":
        problems.append("resubmitted spec was not served from the result store")
    while job_status.get("state") not in ("done", "failed"):
        time.sleep(POLL_S)
        polls += 1
        status, data = _http(port, "GET", f"/jobs/{submitted['job_id']}")
        job_status = json.loads(data)
    t2 = time.perf_counter()
    status, body = _http(port, "GET", f"/jobs/{submitted['job_id']}/result")
    t3 = time.perf_counter()
    if job_status["state"] != "done" or status != 200:
        problems.append(f"job {job_status['state']}, result answered {status}")
    elif cold:
        shape = b.reference["shapes"]["rbf_link"]
        problems += check_document(json.loads(body), spec_hash, shape["names"],
                                   shape["n_samples"])
        bodies[key] = body
    elif body != bodies.get(key):
        problems.append("cache-hit body differs from the cold body of the same spec")
    record = {"problems": problems, "t0": t0, "t1": t1, "t2": t2, "t3": t3,
              "polls": polls, "bytes": len(body), "hash": spec_hash, "cold": cold}
    if cold and job_status.get("started_at") is not None:
        record["queue_wait"] = job_status["started_at"] - job_status["submitted_at"]
        record["run"] = job_status["finished_at"] - job_status["started_at"]
    return record


def service_mix(b: Bench):
    base = specs.golden(b.root, "rbf_link")
    rounds = ROUNDS["service_mix"]
    colds = [[specs.service_cold(base, b.seed, f"{r}-{k}") for k in range(SERVICE_COLDS)]
             for r in range(rounds)]
    hashes = b.probe([spec for batch in colds for spec in batch])
    share = b.seconds / rounds
    setups, cold_lat, hit_lat, round_p90, rss = [], [], [], [], []
    cpu_total, done, window = 0.0, 0, 0.0
    reference = {}
    traced_records, untraced_cold, traced_cold, import_spans = [], [], [], []
    traced_jobs, store = [], {"hits": 0, "misses": 0, "puts": 0}

    for r in range(rounds):
        traced = b.trace and r != 1  # traced, untraced, traced: overhead baseline
        trace_out = b.trace_path(f"daemon-{r}.json") if traced else None
        proc, port, setup = _start_daemon(b, traced, trace_out)
        setups.append(setup)
        bodies, records, hits = {}, [], []
        cpu0, start = _daemon_cpu(proc.pid), time.perf_counter()
        for repeat, k in specs.plan_order(b.seed, f"svc{r}", SERVICE_COLDS,
                                          SERVICE_HITS_PER_COLD):
            if not repeat and time.perf_counter() - start >= share:
                break
            record = _service_job(b, port, colds[r][k], hashes[r * SERVICE_COLDS + k],
                                  not repeat, bodies, k)
            if not b.outcome(f"service round {r} {'hit' if repeat else 'cold'} {k}",
                             record["problems"]):
                continue
            records.append(record)
            latency = record["t3"] - record["t0"]
            done += 1
            if repeat:
                hits.append(latency)
                continue
            cold_lat.append(latency)
            (traced_cold if traced else untraced_cold).append(latency)
            if r == 0 and not reference:
                reference = {"spec_hash": record["hash"],
                             "far_end": extremes(json.loads(bodies[k]))}
        window += time.perf_counter() - start
        cpu_total += _daemon_cpu(proc.pid) - cpu0
        hit_lat += hits
        round_p90.append(percentile(hits, 90))
        if traced:
            counts = json.loads(_http(port, "GET", "/stats")[1])["result_store"]
            for name in store:
                store[name] += counts[name]
        # stopped with Ctrl-C, as from a terminal; stopping is not one of
        # the measured operations, so a daemon that overstays is killed
        # and reported, not counted as a failure
        proc.send_signal(signal.SIGINT)
        code, usage = b.wait(proc, DAEMON_STOP_S)
        rss.append(usage.ru_maxrss / 1024.0)
        if code != 0:
            b.warnings.append(f"daemon round {r} did not stop cleanly within "
                              f"{DAEMON_STOP_S:g} s of SIGINT (exit {code})")
        if traced and os.path.exists(trace_out):
            traced_jobs += _service_jobs(load_trace(trace_out), records, import_spans)
            traced_records += records
    b.check_reference("service_mix", reference)

    if b.trace:
        metrics = layer_metrics(traced_jobs, import_spans)
        colds_t = [rec for rec in traced_records if rec["cold"]]
        metrics.update({
            "service.submit_s": _mean(rec["t1"] - rec["t0"] for rec in traced_records),
            "service.fetch_s": _mean(rec["t3"] - rec["t2"] for rec in traced_records),
            "service.queue_wait_s": _mean(rec.get("queue_wait", 0.0) for rec in colds_t),
            "service.run_s": _mean(rec.get("run", 0.0) for rec in colds_t),
            "service.polls_per_job": _mean(rec["polls"] for rec in colds_t),
            "store.hits": store["hits"],
            "store.misses": store["misses"],
            "store.puts": store["puts"],
            "store.lookups": store["hits"] + store["misses"],
            "store.hit_ratio": store["hits"] / max(store["hits"] + store["misses"], 1),
            "trace.overhead_frac": (statistics.median(traced_cold)
                                    / statistics.median(untraced_cold) - 1.0),
        })
        return metrics
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "job_s_p50": (statistics.median(cold_lat), len(cold_lat)),
        "hit_s_p50": (statistics.median(hit_lat), len(hit_lat)),
        # the tail of 15 ms requests moves with host scheduling noise: the
        # median over rounds keeps one noisy round from setting it
        "hit_s_p90": (statistics.median(round_p90), len(hit_lat)),
        "jobs_per_s": (done / window, done),
        "scenarios_per_s": (len(cold_lat) / window, len(cold_lat)),
        "cpu_s_per_job": (cpu_total / done, done),
        "peak_rss_mb": (max(rss), len(rss)),
    }


def _service_jobs(payload: dict, records: list, import_spans: list) -> list:
    """Traced jobs of one daemon: spans matched to client jobs by time.

    The client and the daemon read the same monotonic clock, so a daemon
    span belongs to the client job whose interval contains its start.
    The client's POST and GET count as the service layer on the job's
    path; what is left is queue wait, poll lag and daemon code outside
    the wrapped functions.
    """
    spans = sorted(payload["spans"], key=lambda s: s[1])
    counters = counters_by_job(payload)
    import_spans += [s for s in spans if s[0] == "api.import"]
    jobs = []
    for rec in records:
        own = [s for s in spans if rec["t0"] <= s[1] <= rec["t3"]]
        jobs.append({
            "latency": rec["t3"] - rec["t0"],
            "spans": own,
            "intervals": [(rec["t0"], rec["t1"]), (rec["t2"], rec["t3"])],
            "counters": counters.get(rec["hash"], {}) if rec["cold"] else {},
            "result_bytes": rec["bytes"],
        })
    return jobs


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

WORKLOADS = {"cli_jobs": cli_jobs, "mc_sweep": mc_sweep, "service_mix": service_mix}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="write this run's default-seed values into reference.json")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "api", "cli.py")):
        print(f"error: no program sources under {root}/src (run from the repository root)",
              file=sys.stderr)
        return 2
    # a stopped benchmark still stops the processes it started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # Children inherit an ignored SIGINT (as in a shell's background job),
    # and a daemon that ignores it cannot be stopped with Ctrl-C; a
    # handled SIGINT is reset to the default in every child.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    bench = Bench(root, args)
    try:
        wall = time.perf_counter()
        measured = WORKLOADS[args.workload](bench)
        wall = time.perf_counter() - wall
    finally:
        bench.close()

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  run wall {wall:.1f} s")
    print("envelope " + json.dumps(bench.envelope, sort_keys=True))
    for problem in bench.problems:
        print(f"FAILED {problem}")
    for warning in bench.warnings:
        print(f"WARNING {warning}")
    if args.record_reference:
        reference = load_reference(HERE)
        reference.update(bench.recorded)
        with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as handle:
            json.dump(reference, handle, indent=2, sort_keys=True)
            handle.write("\n")
    ok = bench.attempted - bench.failed
    metrics = {}
    if args.trace:
        for name, unit in PER_LAYER.items():
            metrics[name] = {"value": measured.get(name, 0.0), "unit": unit}
            print(f"  {name:32s} {metrics[name]['value']:14.6g} {unit}")
    else:
        measured["success_frac"] = (ok / bench.attempted, bench.attempted)
        for name, unit in END_TO_END.items():
            value, samples = measured[name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:16s} {value:12.6g} {unit:6s} (n={samples})")
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
