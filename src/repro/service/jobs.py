"""Job lifecycle of the simulation service: queue, workers, dedup, cache.

A *job* is one submitted :class:`~repro.api.spec.SimulationSpec` moving
through ``queued → running → done`` (or ``failed``).  The
:class:`JobManager` owns that lifecycle for an entire daemon process:

* a bounded pool of worker threads drains one in-process FIFO queue —
  submissions never block on solver work;
* every job is content-addressed by ``spec.content_hash()``: a hash whose
  clean result is already known (in the :class:`~repro.service.store.ResultStore`
  on disk, or in this process's memory when the disk store is disabled)
  completes instantly with ``cache_hit=True`` and *exactly zero* solver
  work;
* concurrent duplicates are single-flighted: while one worker solves a
  hash, workers holding the same hash wait for it and then serve the
  stored result instead of re-solving;
* failures surface the PR 6 taxonomy — a typed
  :class:`~repro.resilience.SolverError` (or a partial sweep with failed
  scenarios) marks the job ``failed`` and attaches the structured
  :class:`~repro.resilience.SolveFailure` records; failed and partial
  results are **never** cached, so a retry after a transient fault gets a
  fresh solve.
"""

from __future__ import annotations

import dataclasses
import queue
import threading
import time
import uuid
from typing import Any, Dict, List, Optional

from repro.service.store import ResultStore

__all__ = ["Job", "JobManager", "JOB_STATES"]

#: the lifecycle states a job moves through
JOB_STATES = ("queued", "running", "done", "failed")


@dataclasses.dataclass
class Job:
    """One submitted spec and everything the daemon knows about it.

    Attributes
    ----------
    job_id:
        Opaque id handed back by ``POST /jobs`` (unique per daemon).
    spec:
        The validated :class:`~repro.api.spec.SimulationSpec` to run.
    spec_hash:
        ``spec.content_hash()`` — the cache key of the result.
    state:
        One of :data:`JOB_STATES`.
    cache_hit:
        The result was served from the content-addressed store instead of
        being solved.
    result_doc:
        The ``Result.to_dict()`` document (present when ``done``, and for
        partial sweeps that ``failed`` with some scenarios completed).
    failures:
        Structured :meth:`~repro.resilience.SolveFailure.to_dict` records
        of a ``failed`` job.
    error:
        Human-readable failure summary (``failed`` only).
    """

    job_id: str
    spec: Any
    spec_hash: str
    state: str = "queued"
    cache_hit: bool = False
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    result_doc: Optional[dict] = None
    result_obj: Any = None
    failures: List[dict] = dataclasses.field(default_factory=list)
    error: Optional[str] = None

    def status_dict(self) -> dict:
        """The JSON document of ``GET /jobs/<id>`` (no waveforms)."""
        doc = {
            "job_id": self.job_id,
            "state": self.state,
            "kind": self.spec.kind,
            "label": self.spec.label,
            "spec_hash": self.spec_hash,
            "cache_hit": self.cache_hit,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if self.result_doc is not None:
            doc["engine"] = self.result_doc.get("engine")
            doc["n_samples"] = self.result_doc.get("n_samples")
            perf = self.result_doc.get("perf_stats") or {}
            health = perf.get("health")
            if health is not None:
                doc["health"] = health
            # A sharded sweep (engine.workers > 1) carries its fan-out
            # telemetry; surface the headline numbers in the status.
            if "shards" in perf:
                doc["shards"] = perf["shards"]
                doc["parallel_efficiency"] = perf.get("parallel_efficiency")
            # A Monte Carlo sweep (stats block) carries its statistical
            # summary in meta; surface the headline numbers.
            mc = (self.result_doc.get("meta") or {}).get("montecarlo")
            if mc is not None:
                doc["montecarlo"] = {
                    "samples": mc.get("samples"),
                    "seed": mc.get("seed"),
                    "generated": mc.get("generated"),
                    "completed": mc.get("completed"),
                    "worst": mc.get("worst"),
                }
        if self.state == "failed":
            doc["error"] = self.error
            doc["failures"] = list(self.failures)
            doc["partial_result"] = self.result_doc is not None
        return doc


class JobManager:
    """Bounded worker pool + content-addressed dedup over the job queue.

    Parameters
    ----------
    store:
        The :class:`~repro.service.store.ResultStore` results persist to
        (``None`` builds the default store).
    workers:
        Worker-thread count (at least 1); the queue itself is unbounded.
    """

    def __init__(self, store: Optional[ResultStore] = None, workers: int = 2):
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers!r}")
        self.store = store if store is not None else ResultStore()
        self._queue: "queue.Queue[Optional[Job]]" = queue.Queue()
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._lock = threading.Lock()
        #: clean results solved by *this* process: every duplicate of such
        #: a hash is served this one document, disk store enabled or not
        self._memory: Dict[str, dict] = {}
        self._inflight: Dict[str, threading.Event] = {}
        self._stats = {
            "submitted": 0, "solves": 0, "cache_hits": 0,
            "completed": 0, "failed": 0,
        }
        self._closed = False
        self._workers = [
            threading.Thread(target=self._worker_loop, name=f"repro-worker-{k}", daemon=True)
            for k in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # -- public API --------------------------------------------------------
    def submit(self, spec) -> Job:
        """Queue a spec (or complete it instantly from the result cache)."""
        if self._closed:
            raise RuntimeError("the job manager is shut down")
        job = Job(
            job_id=uuid.uuid4().hex[:12],
            spec=spec,
            spec_hash=spec.content_hash(),
            submitted_at=time.time(),
        )
        cached = self._lookup_cached(job.spec_hash)
        with self._lock:
            self._jobs[job.job_id] = job
            self._order.append(job.job_id)
            self._stats["submitted"] += 1
            if cached is not None:
                self._complete_from_cache(job, cached)
                return job
        self._queue.put(job)
        return job

    def get(self, job_id: str) -> Optional[Job]:
        """The job of an id, or ``None``."""
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        """Every known job, in submission order."""
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def stats(self) -> dict:
        """Daemon-lifetime counters (submitted/solves/cache_hits/...)."""
        with self._lock:
            stats = dict(self._stats)
        stats["queued"] = self._queue.qsize()
        stats["workers"] = len(self._workers)
        return stats

    def wait(self, job_id: str, timeout: float = 60.0, poll: float = 0.02) -> Job:
        """Block until a job leaves the queued/running states (test helper)."""
        deadline = time.monotonic() + timeout
        while True:
            job = self.get(job_id)
            if job is None:
                raise KeyError(f"no job {job_id!r}")
            if job.state in ("done", "failed"):
                return job
            if time.monotonic() >= deadline:
                raise TimeoutError(f"job {job_id} still {job.state} after {timeout}s")
            time.sleep(poll)

    def close(self, timeout: float = 10.0) -> None:
        """Stop the workers (queued jobs still waiting are abandoned)."""
        if self._closed:
            return
        self._closed = True
        for _ in self._workers:
            self._queue.put(None)
        for thread in self._workers:
            thread.join(timeout=timeout)

    # -- cache handling ----------------------------------------------------
    def _lookup_cached(self, spec_hash: str) -> Optional[dict]:
        # The store is read (and counts the hit) either way; a hash solved
        # here is then served the one document every job of it shares,
        # since a copy per hit would grow the daemon with each resubmission.
        document = self.store.get(spec_hash)
        with self._lock:
            solved = self._memory.get(spec_hash)
        return solved if solved is not None else document

    def _complete_from_cache(self, job: Job, document: dict) -> None:
        # caller holds self._lock
        job.result_doc = document
        job.cache_hit = True
        job.state = "done"
        job.started_at = job.finished_at = time.time()
        self._stats["cache_hits"] += 1
        self._stats["completed"] += 1

    # -- worker side -------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            try:
                self._process(job)
            except BaseException as exc:  # never kill a worker thread
                with self._lock:
                    if job.state not in ("done", "failed"):
                        job.state = "failed"
                        job.error = f"internal worker error: {exc!r}"
                        job.finished_at = time.time()
                        self._stats["failed"] += 1

    def _process(self, job: Job) -> None:
        # single-flight: if another worker is already solving this hash,
        # wait for it and serve its stored result.
        while True:
            cached = self._lookup_cached(job.spec_hash)
            with self._lock:
                if cached is not None:
                    job.state = "running"
                    self._complete_from_cache(job, cached)
                    return
                event = self._inflight.get(job.spec_hash)
                if event is None:
                    self._inflight[job.spec_hash] = threading.Event()
                    break
            # re-check the cache the owner just populated; a failed owner
            # stores nothing, and then this worker takes over the solve
            event.wait()
        try:
            self._solve(job)
        finally:
            with self._lock:
                event = self._inflight.pop(job.spec_hash, None)
            if event is not None:
                event.set()

    def _solve(self, job: Job) -> None:
        from repro.api import run as api_run
        from repro.resilience import SolverError

        with self._lock:
            job.state = "running"
            job.started_at = time.time()
            self._stats["solves"] += 1
        try:
            result = api_run(job.spec)
        except SolverError as exc:
            self._fail(job, [exc.failure.to_dict()], exc.failure.describe())
            return
        except Exception as exc:
            self._fail(job, [], f"{type(exc).__name__}: {exc}")
            return
        document = result.to_dict()
        failures = self._scenario_failures(document)
        if failures:
            # A partial sweep: the result is retrievable but the job is
            # failed (mirrors the CLI's exit-code-3 contract) — and it is
            # never cached, so a resubmission re-attempts the solve.
            with self._lock:
                job.result_obj = result
                job.result_doc = document
            self._fail(
                job, failures,
                f"{len(failures)} scenario(s) failed: "
                + ", ".join(sorted(f.get("scenario") or "?" for f in failures)),
            )
            return
        stored = self.store.put(job.spec_hash, result)
        document = stored if stored is not None else document
        with self._lock:
            self._memory[job.spec_hash] = document
            job.result_obj = result
            job.result_doc = document
            job.state = "done"
            job.finished_at = time.time()
            self._stats["completed"] += 1

    def _fail(self, job: Job, failures: List[dict], error: str) -> None:
        with self._lock:
            job.failures = failures
            job.error = error
            job.state = "failed"
            job.finished_at = time.time()
            self._stats["failed"] += 1

    @staticmethod
    def _scenario_failures(document: dict) -> List[dict]:
        """Failure records of a partial sweep's failed scenarios."""
        meta = document.get("meta") or {}
        status = meta.get("scenario_status") or {}
        failed = sorted(name for name, st in status.items() if st == "failed")
        if not failed:
            return []
        records = meta.get("failures") or {}
        out = []
        for name in failed:
            record = dict(records.get(name) or {})
            record.setdefault("scenario", name)
            record.setdefault("kind", "unknown")
            out.append(record)
        return out
