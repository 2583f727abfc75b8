"""The content-keyed macromodel cache of :mod:`repro.api.models`.

Every ``devices.source`` resolves through one cache: an in-process memo,
a checksummed disk entry under ``$REPRO_CACHE_DIR/models/`` and a
per-key lock around the fit.  A hit must give the same waveforms, to the
bit, as a fresh fit.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time

import pytest

from repro import cache
from repro.api import DeviceSpec, SimulationSpec, run
from repro.api import models as model_cache
from repro.experiments import devices as experiment_devices
from repro.experiments.devices import ReferenceMacromodels
from repro.macromodel import identification as fitting
from repro.macromodel import library
from repro.macromodel.serialization import macromodel_to_dict

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """An empty memo, zeroed counters and an empty cache directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
    monkeypatch.setattr(model_cache, "_MEMO", {})
    monkeypatch.setattr(model_cache, "STATS", dict.fromkeys(model_cache.STATS, 0))
    return tmp_path


def _entries(root) -> list[str]:
    return [
        os.path.join(dirpath, name)
        for dirpath, _, names in os.walk(os.path.join(root, "models"))
        for name in names
    ]


def _short_link(devices: DeviceSpec) -> SimulationSpec:
    return SimulationSpec(
        kind="circuit",
        duration=1.5e-9,
        stimulus={"bit_pattern": "01", "bit_time": 0.5e-9},
        devices=devices,
    )


def test_model_cache_memo_hit_does_no_fitting(fresh_cache, monkeypatch):
    calls = []
    original = fitting.fit_rbf_submodel

    def counting_fit(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    # library.py imports the name; patch it where the fit looks it up
    monkeypatch.setattr(library, "fit_rbf_submodel", counting_fit)
    devices = DeviceSpec(source="library", n_centers=30)
    first = model_cache.cached_models(devices)
    fitted = len(calls)
    assert fitted > 0
    second = model_cache.cached_models(DeviceSpec.from_dict(devices.to_dict()))
    assert len(calls) == fitted
    assert second is first
    assert model_cache.STATS == {"memo_hits": 1, "disk_hits": 0, "fits": 1}


def _inline_without_receiver() -> DeviceSpec:
    driver = library.make_reference_driver_macromodel(n_centers=30, seed=3)
    return DeviceSpec(source="inline", driver=macromodel_to_dict(driver))


@pytest.mark.parametrize(
    "make_devices",
    [
        lambda: DeviceSpec(source="library"),
        lambda: DeviceSpec(source="library", n_centers=40),
        _inline_without_receiver,
        lambda: DeviceSpec(source="identified", n_centers=10),
    ],
    ids=["library", "library-n40", "inline-no-receiver", "identified"],
)
def test_model_cache_disk_hit_waveforms_equal_fresh_fit(
    fresh_cache, monkeypatch, make_devices
):
    devices = make_devices()
    spec = _short_link(devices)
    driver, receiver = model_cache._fit(devices)
    fresh = run(spec, models=ReferenceMacromodels(
        driver=driver, receiver=receiver, params=model_cache._params(devices),
    ))

    # the entry is written from this very fit
    monkeypatch.setattr(model_cache, "_fit", lambda _devices: (driver, receiver))
    model_cache.cached_models(devices)
    assert len(_entries(fresh_cache)) == 1
    monkeypatch.setattr(model_cache, "_MEMO", {})  # a fresh process
    hit = run(spec)
    assert model_cache.STATS == {"memo_hits": 0, "disk_hits": 1, "fits": 1}
    assert hit.names() == fresh.names()
    for name in fresh.names():
        assert hit.waveform(name).tobytes() == fresh.waveform(name).tobytes(), name


def _cold_entry(devices: DeviceSpec) -> tuple[str, str]:
    key = model_cache.model_cache_key(devices)
    return key, model_cache.model_cache_path(key)


@pytest.mark.parametrize("entry", ["corrupt", "foreign", "wrong-schema"])
def test_model_cache_bad_entry_is_unlinked_and_refitted(fresh_cache, entry):
    devices = DeviceSpec(source="library", n_centers=30)
    key, path = _cold_entry(devices)
    if entry == "corrupt":
        os.makedirs(os.path.dirname(path))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"cache_format": 1, "checksum": "0", "payl')
    else:
        donor = model_cache.cached_models(DeviceSpec(source="library", n_centers=31))
        payload = {
            "key": "0" * 64 if entry == "foreign" else key,
            "driver": macromodel_to_dict(donor.driver),
            "receiver": {"kind": "no such model"} if entry == "wrong-schema"
            else macromodel_to_dict(donor.receiver),
        }
        assert cache.atomic_write_json(path, payload)
    before = dict(model_cache.STATS)

    models = model_cache.cached_models(devices)
    assert model_cache.STATS["fits"] == before["fits"] + 1
    assert model_cache.STATS["disk_hits"] == 0
    assert cache.read_json(path)["key"] == key  # replaced by the refit
    assert model_cache.cached_models(devices) is models


def test_model_cache_disk_disabled_writes_no_file(fresh_cache, monkeypatch):
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    devices = DeviceSpec(source="library", n_centers=30)
    first = model_cache.cached_models(devices)
    assert _entries(fresh_cache) == []
    # the memo still serves the second call
    assert model_cache.cached_models(devices) is first
    assert model_cache.STATS == {"memo_hits": 1, "disk_hits": 0, "fits": 1}


def test_model_cache_threads_fit_a_cold_key_once(fresh_cache, monkeypatch):
    fits = []
    original = model_cache._fit

    def slow_fit(devices):
        fits.append(threading.get_ident())
        time.sleep(0.2)  # every other thread arrives while this one fits
        return original(devices)

    monkeypatch.setattr(model_cache, "_fit", slow_fit)
    devices = DeviceSpec(source="library", n_centers=30)
    barrier = threading.Barrier(4)
    results = [None] * 4

    def worker(slot):
        barrier.wait()
        results[slot] = model_cache.cached_models(devices)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(fits) == 1
    assert all(models is results[0] for models in results)
    assert model_cache.STATS == {"memo_hits": 3, "disk_hits": 0, "fits": 1}
    assert len(_entries(fresh_cache)) == 1


def test_model_cache_identified_wrapper_shares_the_job_entry(fresh_cache, monkeypatch):
    # use_identification=False asks for the library models of a job whose
    # devices block is the default one: both resolve to one entry.
    wrapped = experiment_devices.identified_reference_macromodels(use_identification=False)
    job = model_cache.cached_models(DeviceSpec())
    assert job is wrapped
    assert model_cache.STATS["fits"] == 1


def test_model_cache_import_repro_api_skips_kmeans():
    code = (
        "import sys, repro.api; "
        "assert 'scipy.cluster.vq' not in sys.modules, 'scipy.cluster.vq imported'"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
