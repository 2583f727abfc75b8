"""One content-keyed cache of the macromodels a ``devices`` block asks for.

The paper identifies its port macromodels "only once" and reuses them for
every later simulation.  This module is that reuse for every
``devices.source`` (``library``, ``identified`` and ``inline``): a job
fits its driver/receiver pair at most once per machine, and every later
job, shard worker or daemon thread with the same ``devices`` block reuses
it.  Three tiers, checked in order:

1. an in-process memo (``_MEMO``);
2. a ``repro.cache``-checksummed JSON entry at
   ``$REPRO_CACHE_DIR/models/<key[:2]>/<key>.json`` holding the
   :func:`~repro.macromodel.serialization.macromodel_to_dict` payloads of
   the driver and the receiver (skipped when ``REPRO_DISK_CACHE=0``);
3. the fit itself, run under a per-key lock so concurrent threads fit a
   cold key once.

The key is a SHA-256 over ``devices.to_dict()`` and
:data:`MODEL_CACHE_FORMAT`.  Every tier hands out the models decoded from
the entry's payload, so a memo hit, a disk hit and a fresh fit give
bit-identical waveforms.  Models are immutable once built (a driver's
``bound()`` returns a copy), so one instance is shared by every caller.
A corrupt or foreign entry is unlinked and refitted.

``STATS`` counts memo hits, disk hits and fits since process start; the
daemon serves it under ``models`` in ``GET /stats``.
"""

from __future__ import annotations

import dataclasses
import os
import threading

from repro import cache
from repro.api.spec import DeviceSpec

__all__ = [
    "MODEL_CACHE_FORMAT",
    "STATS",
    "cached_models",
    "model_cache_key",
    "model_cache_path",
    "model_cache_stats",
]

#: bump whenever a fitting procedure changes the models it produces
MODEL_CACHE_FORMAT = 1

#: process-wide counters since start
STATS = {"memo_hits": 0, "disk_hits": 0, "fits": 0}

_MEMO: dict = {}
_LOCKS: dict[str, threading.Lock] = {}
_STATS_LOCK = threading.Lock()


def _count(name: str) -> None:
    # threads holding different keys' locks may count at the same time
    with _STATS_LOCK:
        STATS[name] += 1


def model_cache_key(devices: DeviceSpec) -> str:
    """The content key of a ``devices`` block (hex SHA-256)."""
    return cache.checksum({"format": MODEL_CACHE_FORMAT, "devices": devices.to_dict()})


def model_cache_path(key: str) -> str | None:
    """The disk entry of a key, or ``None`` while ``REPRO_DISK_CACHE=0``."""
    if not cache.disk_enabled():
        return None
    root = os.environ.get("REPRO_CACHE_DIR", ".cache")
    return os.path.join(root, "models", key[:2], f"{key}.json")


def cached_models(devices: DeviceSpec):
    """The :class:`~repro.experiments.devices.ReferenceMacromodels` of a
    ``devices`` block: from the memo, else the disk entry, else a fit."""
    key = model_cache_key(devices)
    # dict.setdefault is atomic, so racing threads share one lock per key
    with _LOCKS.setdefault(key, threading.Lock()):
        models = _MEMO.get(key)
        if models is not None:
            _count("memo_hits")
            return models
        models = _MEMO[key] = _load_or_fit(key, devices)
    return models


def _load_or_fit(key: str, devices: DeviceSpec):
    path = model_cache_path(key)
    if path is not None:
        payload = cache.read_json(path)
        if payload is not None:
            models = _decode(payload, key, devices)
            if models is not None:
                _count("disk_hits")
                return models
            cache.invalidate(path)  # foreign or structurally wrong entry
    from repro.macromodel.serialization import macromodel_to_dict

    driver, receiver = _fit(devices)
    _count("fits")
    payload = {
        "key": key,
        "driver": macromodel_to_dict(driver),
        "receiver": macromodel_to_dict(receiver),
    }
    if path is not None:
        cache.atomic_write_json(path, payload)
    return _decode(payload, key, devices)


def _decode(payload, key: str, devices: DeviceSpec):
    """Rebuild the models of an entry; ``None`` unless it is this key's."""
    from repro.experiments.devices import ReferenceMacromodels
    from repro.macromodel.serialization import macromodel_from_dict

    if not isinstance(payload, dict) or payload.get("key") != key:
        return None
    try:
        driver = macromodel_from_dict(payload["driver"])
        receiver = macromodel_from_dict(payload["receiver"])
    except (KeyError, TypeError, ValueError, AttributeError):
        return None
    return ReferenceMacromodels(
        driver=driver, receiver=receiver, params=_params(devices), source=devices.source
    )


def _params(devices: DeviceSpec):
    from repro.macromodel.library import ReferenceDeviceParameters

    return dataclasses.replace(ReferenceDeviceParameters(), **dict(devices.params))


def _fit(devices: DeviceSpec):
    """Build the ``(driver, receiver)`` pair a ``devices`` block describes."""
    from repro.experiments import devices as identification
    from repro.macromodel.library import (
        make_reference_driver_macromodel,
        make_reference_receiver_macromodel,
    )
    from repro.macromodel.serialization import macromodel_from_dict

    params = _params(devices)
    if devices.source == "identified":
        n_centers = devices.n_centers if devices.n_centers is not None else 150
        return (
            identification._identify_driver(params, n_centers, devices.seed),
            identification._identify_receiver(
                params, max(n_centers // 2, 30), devices.seed
            ),
        )
    if devices.source == "inline":
        driver = macromodel_from_dict(dict(devices.driver)) if devices.driver else None
        receiver = macromodel_from_dict(dict(devices.receiver)) if devices.receiver else None
        if driver is None:
            driver = make_reference_driver_macromodel(params, seed=devices.seed)
        if receiver is None:
            receiver = make_reference_receiver_macromodel(params, seed=devices.seed + 10)
        return driver, receiver
    # library source: the analytic reference models.  With n_centers unset,
    # each constructor keeps its own default (150 driver / 80 receiver); an
    # explicit count pins the driver and gives the receiver half (min 30),
    # mirroring the identified workflow's convention.
    kwargs_d = {} if devices.n_centers is None else {"n_centers": devices.n_centers}
    kwargs_r = (
        {} if devices.n_centers is None
        else {"n_centers": max(devices.n_centers // 2, 30)}
    )
    return (
        make_reference_driver_macromodel(params, seed=devices.seed, **kwargs_d),
        make_reference_receiver_macromodel(params, seed=devices.seed + 10, **kwargs_r),
    )


def model_cache_stats() -> dict:
    """Snapshot of :data:`STATS` (``GET /stats``)."""
    return dict(STATS)
