"""End-to-end tests of the simulation service daemon (:mod:`repro.service`).

Every test talks real HTTP to a live :class:`~repro.service.JobServer`
bound to an ephemeral port — the same transport a remote client uses.
The acceptance contract of the content-addressed cache is pinned here:
submitting the same spec twice returns *byte-identical* results with
exactly zero additional solver work (the engine adapter is counted, not
trusted), and the duplicate is served from cache even after the daemon
restarts.
"""

from __future__ import annotations

import dataclasses
import io
import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.api import engines as engines_mod
from repro.resilience import faults
from repro.service import JobServer, ResultStore


# ---------------------------------------------------------------------------
# HTTP helpers
# ---------------------------------------------------------------------------

def _get(server: JobServer, path: str):
    with urllib.request.urlopen(server.url.rstrip("/") + path, timeout=30) as response:
        return response.status, json.loads(response.read())


def _get_bytes(server: JobServer, path: str) -> bytes:
    with urllib.request.urlopen(server.url.rstrip("/") + path, timeout=30) as response:
        return response.read()


def _post(server: JobServer, path: str, document: dict):
    request = urllib.request.Request(
        server.url.rstrip("/") + path,
        data=json.dumps(document).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def _wait(server: JobServer, job_id: str, timeout: float = 120.0) -> dict:
    """Poll ``GET /jobs/<id>`` over HTTP until the job finishes."""
    job = server.manager.wait(job_id, timeout=timeout)
    assert job.state in ("done", "failed")
    status, doc = _get(server, f"/jobs/{job_id}")
    assert status == 200
    return doc


# ---------------------------------------------------------------------------
# small, fast job specs
# ---------------------------------------------------------------------------

def _sweep_spec(label: str = "service sweep") -> dict:
    """A two-scenario linear-family sweep: no macromodels, ~100 steps."""
    return {
        "format_version": 1,
        "kind": "sweep",
        "label": label,
        "duration": 1.0e-9,
        "scenarios": [
            {"name": "010/nominal", "bit_pattern": "010"},
            {"name": "010/weak", "bit_pattern": "010", "corner": {"load_resistance": 350.0}},
        ],
        "engine": {"dt": 1e-11, "sweep_family": "linear"},
    }


def _circuit_spec(label: str = "service circuit") -> dict:
    """A short RBF-macromodel circuit transient (~100 steps)."""
    return {
        "format_version": 1,
        "kind": "circuit",
        "label": label,
        "duration": 1.0e-9,
        "engine": {"dt": 1e-11, "variant": "rbf"},
    }


@pytest.fixture()
def server(tmp_path):
    """A live daemon on an ephemeral port with a test-local result store."""
    srv = JobServer(port=0, workers=2, store=ResultStore(root=str(tmp_path / "results")))
    srv.start()
    yield srv
    srv.close()


# ---------------------------------------------------------------------------
# plumbing endpoints
# ---------------------------------------------------------------------------

def test_healthz_and_engines(server):
    status, health = _get(server, "/healthz")
    assert status == 200
    assert health["status"] == "ok"
    assert health["jobs"]["workers"] == 2
    assert health["result_store"]["enabled"] is True

    status, engines = _get(server, "/engines")
    assert status == 200
    kinds = {entry["kind"] for entry in engines["engines"]}
    assert kinds == {"circuit", "fdtd1d", "fdtd3d", "sweep"}
    assert "sparse_mna" in engines["engine_options"]
    assert "batch_prepare" in engines["engine_options"]


def test_engines_lists_every_engine_option_with_its_default(server):
    from repro.api import EngineOptions

    status, engines = _get(server, "/engines")
    assert status == 200
    assert engines["engine_options"] == EngineOptions().to_dict()
    assert list(engines["engine_options"]) == [
        field.name for field in dataclasses.fields(EngineOptions)
    ]


def test_invalid_requests(server):
    # malformed spec -> 400 with the validation message, no job created
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(server, "/jobs", {"format_version": 1, "kind": "warp-drive"})
    assert err.value.code == 400
    assert "invalid spec" in json.loads(err.value.read())["error"]

    # a non-finite number (json accepts the `Infinity` literal) -> 400, not a failed job
    request = urllib.request.Request(
        server.url.rstrip("/") + "/jobs",
        data=b'{"format_version": 1, "kind": "fdtd1d", "duration": Infinity}',
        method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(request, timeout=30)
    assert err.value.code == 400
    assert "duration" in json.loads(err.value.read())["error"]

    # non-JSON body -> 400
    request = urllib.request.Request(
        server.url.rstrip("/") + "/jobs", data=b"not json", method="POST"
    )
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(request, timeout=30)
    assert err.value.code == 400

    # unknown job / route -> 404
    for path in ("/jobs/deadbeef", "/jobs/deadbeef/result", "/nope"):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server, path)
        assert err.value.code == 404

    status, health = _get(server, "/healthz")
    assert health["jobs"]["submitted"] == 0


# ---------------------------------------------------------------------------
# end-to-end submit -> poll -> fetch
# ---------------------------------------------------------------------------

def test_circuit_job_end_to_end(server):
    status, submitted = _post(server, "/jobs", _circuit_spec())
    assert status == 202
    assert submitted["state"] in ("queued", "running")
    assert submitted["cache_hit"] is False

    doc = _wait(server, submitted["job_id"])
    assert doc["state"] == "done"
    assert doc["kind"] == "circuit"
    assert doc["spec_hash"] == submitted["spec_hash"]
    assert doc["health"]["ok"] is True

    status, result = _get(server, f"/jobs/{submitted['job_id']}/result")
    assert status == 200
    assert result["engine"] == "spice-rbf"
    assert set(result["waveforms"]) >= {"near_end", "far_end"}
    assert len(result["times"]) == result["n_samples"] > 50

    raw = _get_bytes(server, f"/jobs/{submitted['job_id']}/waveforms")
    npz = np.load(io.BytesIO(raw))
    assert "times" in npz.files
    assert "w:far_end" in npz.files
    assert npz["times"].shape == npz["w:far_end"].shape


def test_sweep_job_end_to_end(server):
    status, submitted = _post(server, "/jobs", _sweep_spec())
    assert status == 202
    doc = _wait(server, submitted["job_id"])
    assert doc["state"] == "done"
    assert doc["engine"] == "sweep-linear"

    status, result = _get(server, f"/jobs/{submitted['job_id']}/result")
    assert status == 200
    assert "010/nominal/far" in result["waveforms"]
    assert "010/weak/far" in result["waveforms"]
    assert result["perf_stats"]["shared_factorizations"] >= 1

    status, listing = _get(server, "/jobs")
    assert [j["job_id"] for j in listing["jobs"]] == [submitted["job_id"]]


def test_job_listing_fields_and_state_filter(server):
    """``GET /jobs``: submission order, operator fields, ``?state=`` filter."""
    ids = []
    for label in ("listing-a", "listing-b"):
        status, submitted = _post(server, "/jobs", _sweep_spec(label))
        assert status in (200, 202)
        ids.append(submitted["job_id"])
        _wait(server, submitted["job_id"])

    status, listing = _get(server, "/jobs")
    assert status == 200
    assert [j["job_id"] for j in listing["jobs"]] == ids
    for entry in listing["jobs"]:
        # the operator's view: id, state, hash and timestamps on every row
        assert entry["state"] == "done"
        assert len(entry["spec_hash"]) == 64
        assert entry["submitted_at"] <= entry["finished_at"]

    status, done = _get(server, "/jobs?state=done")
    assert status == 200
    assert [j["job_id"] for j in done["jobs"]] == ids
    status, queued = _get(server, "/jobs?state=queued")
    assert status == 200
    assert queued["jobs"] == []
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(server, "/jobs?state=bogus")
    assert excinfo.value.code == 400
    assert "bogus" in json.loads(excinfo.value.read())["error"]


def test_sharded_sweep_job_surfaces_shard_telemetry(server):
    """A sweep with engine.workers=2 fans out in the daemon and reports it."""
    spec = _sweep_spec("sharded service sweep")
    spec["engine"]["workers"] = 2
    status, submitted = _post(server, "/jobs", spec)
    assert status in (200, 202)
    doc = _wait(server, submitted["job_id"], timeout=240.0)
    assert doc["state"] == "done"
    # the two scenarios sit in different corner groups -> two shards
    assert doc["shards"] == 2
    assert doc["parallel_efficiency"] is None or 0.0 < doc["parallel_efficiency"] <= 1.0

    status, result = _get(server, f"/jobs/{submitted['job_id']}/result")
    assert status == 200
    assert result["perf_stats"]["shards"] == 2
    assert "010/nominal/far" in result["waveforms"]


# ---------------------------------------------------------------------------
# the content-addressed cache contract
# ---------------------------------------------------------------------------

@pytest.fixture()
def counted_sweep_engine():
    """Wrap the sweep adapter so every *actual* solve is counted."""
    info = engines_mod.get_engine("sweep")
    calls: list[str] = []

    def counting_runner(spec, models=None):
        calls.append(spec.content_hash())
        return info.runner(spec, models=models)

    engines_mod.register_engine(info.kind, summary=info.summary)(counting_runner)
    try:
        yield calls
    finally:
        engines_mod.register_engine(info.kind, summary=info.summary)(info.runner)


def test_jobs_share_one_model_fit(server, tmp_path, monkeypatch):
    """Two rbf jobs with one devices block fit their models once."""
    from repro.api import models as model_cache

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(model_cache, "_MEMO", {})
    monkeypatch.setattr(model_cache, "STATS", dict.fromkeys(model_cache.STATS, 0))
    for label in ("first rbf job", "second rbf job"):
        status, submitted = _post(server, "/jobs", _circuit_spec(label))
        assert _wait(server, submitted["job_id"])["state"] == "done"
    status, stats = _get(server, "/stats")
    assert status == 200
    assert stats["models"] == {"memo_hits": 1, "disk_hits": 0, "fits": 1}


def test_duplicate_submission_is_served_from_cache(server, counted_sweep_engine):
    spec = _sweep_spec("cache-hit contract")

    status1, first = _post(server, "/jobs", spec)
    _wait(server, first["job_id"])
    status, doc1 = _get(server, f"/jobs/{first['job_id']}")
    assert doc1["cache_hit"] is False

    # identical spec, second submission: done on arrival, zero solver work
    status2, second = _post(server, "/jobs", spec)
    assert status2 == 200
    assert second["state"] == "done"
    assert second["cache_hit"] is True
    assert second["spec_hash"] == first["spec_hash"]
    assert second["job_id"] != first["job_id"]

    status, doc2 = _get(server, f"/jobs/{second['job_id']}")
    assert doc2["cache_hit"] is True

    # the engine adapter ran exactly once: the factorization/accept
    # counters of the second result *cannot* have advanced because no
    # engine call produced them
    assert len(counted_sweep_engine) == 1
    stats = server.manager.stats()
    assert stats["solves"] == 1
    assert stats["cache_hits"] == 1

    body1 = _get_bytes(server, f"/jobs/{first['job_id']}/result")
    body2 = _get_bytes(server, f"/jobs/{second['job_id']}/result")
    assert body1 == body2  # byte-identical, perf_stats included
    # ...and held once: a hit keeps no copy of its own in the daemon
    first_job = server.manager.get(first["job_id"])
    assert server.manager.get(second["job_id"]).result_doc is first_job.result_doc

    result = json.loads(body1)
    assert json.loads(body2)["perf_stats"] == result["perf_stats"]

    npz1 = _get_bytes(server, f"/jobs/{first['job_id']}/waveforms")
    npz2 = _get_bytes(server, f"/jobs/{second['job_id']}/waveforms")
    assert npz1 == npz2


def test_cache_survives_daemon_restart(tmp_path, counted_sweep_engine):
    root = str(tmp_path / "results")
    spec = _sweep_spec("restart contract")

    first_daemon = JobServer(port=0, workers=1, store=ResultStore(root=root)).start()
    try:
        _, first = _post(first_daemon, "/jobs", spec)
        _wait(first_daemon, first["job_id"])
        body1 = _get_bytes(first_daemon, f"/jobs/{first['job_id']}/result")
    finally:
        first_daemon.close()

    # a fresh daemon process-equivalent: new manager, same store directory
    second_daemon = JobServer(port=0, workers=1, store=ResultStore(root=root)).start()
    try:
        status, second = _post(second_daemon, "/jobs", spec)
        assert status == 200
        assert second["state"] == "done"
        assert second["cache_hit"] is True
        body2 = _get_bytes(second_daemon, f"/jobs/{second['job_id']}/result")
        assert second_daemon.manager.stats()["solves"] == 0
    finally:
        second_daemon.close()

    assert body1 == body2
    assert len(counted_sweep_engine) == 1  # one solve across both daemons


def test_failed_jobs_are_not_cached(server, counted_sweep_engine):
    spec = _sweep_spec("failure is not cached")
    with faults.injected(faults.Fault("nan", count=None)):
        _, failed = _post(server, "/jobs", spec)
        doc = _wait(server, failed["job_id"])
        assert doc["state"] == "failed"
    # after the fault clears, the same spec solves fresh (no poisoned cache)
    _, retry = _post(server, "/jobs", spec)
    doc = _wait(server, retry["job_id"])
    assert doc["state"] == "done"
    assert doc["cache_hit"] is False
    assert len(counted_sweep_engine) == 2


# ---------------------------------------------------------------------------
# failure taxonomy over HTTP
# ---------------------------------------------------------------------------

def test_fault_plan_job_reports_taxonomy(server):
    spec = _sweep_spec("fault plan over http")
    with faults.injected(faults.Fault("nan", count=None)):
        status, submitted = _post(server, "/jobs", spec)
        assert status == 202
        doc = _wait(server, submitted["job_id"])

    # a solver failure is a job state, not a transport error
    assert doc["state"] == "failed"
    assert doc["failures"], doc
    assert {f["kind"] for f in doc["failures"]} == {"nan_inf"}
    assert doc["error"]

    stats = server.manager.stats()
    assert stats["failed"] == 1
    assert stats["completed"] == 0
