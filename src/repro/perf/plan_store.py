"""Topology-keyed persistence of assembly plans, shared across the fleet.

The :class:`PlanStore` is the cross-process half of warm starts
(:mod:`repro.perf.plan`): a directory of captured
:class:`~repro.perf.plan.AssemblyPlan` documents keyed by
:meth:`repro.api.spec.SimulationSpec.topology_hash`, written through the
hardened atomic helpers of :mod:`repro.cache` (atomic replace, checksum
validation, unlink-and-recover reads) — the same discipline as the
service's :class:`~repro.service.store.ResultStore`, and the same layout::

    plans/
      <hash[:2]>/<hash>.json   checksum-wrapped AssemblyPlan.to_payload()

Every shard worker of a sweep (:mod:`repro.sweep.shard`), every service
daemon worker and every CLI rerun of the same system resolves to the same
entry, so the symbolic setup is derived once per *topology* instead of
once per process.  Like every cache in the package the store is an
optimisation only: corrupt or foreign entries (including bare documents
missing the checksum wrapper entirely) are unlinked and missed, failed
writes are dropped, and a disabled disk (``REPRO_DISK_CACHE=0``) leaves
the in-process memory cache — which still deduplicates the symbolic work
across the corner groups of one sweep.

Toggles
-------
``REPRO_PLAN_CACHE=1`` turns warm starts on for jobs that leave
``engine.warm_start`` null (the CLI's ``--warm-start/--no-warm-start``
and the spec option override it); ``REPRO_DISK_CACHE=0`` additionally
keeps plans off the disk.  ``REPRO_CACHE_DIR`` (default ``.cache``)
places the store.
"""

from __future__ import annotations

import os
from typing import Optional

from repro import cache
from repro.perf.plan import AssemblyPlan

__all__ = [
    "PlanStore",
    "default_plan_root",
    "default_plan_store",
    "plan_cache_default",
    "resolve_warm_start",
    "plan_store_stats",
    "reset_plan_store_stats",
]

#: process-wide counters across every PlanStore instance — what the
#: service daemon's ``GET /stats`` endpoint reports (hits/misses since
#: daemon start, this process only: shard children count in their own
#: process and surface through the merged ``shard_stats`` instead)
STATS = {"hits": 0, "misses": 0, "puts": 0}


def plan_cache_default() -> bool:
    """Whether warm starts are on when ``engine.warm_start`` is null.

    ``REPRO_PLAN_CACHE=1`` (or ``true``/``on``/``yes``) opts the process
    in; unset or anything else leaves warm starts off — an explicit
    ``engine.warm_start`` in the spec always wins.
    """
    raw = os.environ.get("REPRO_PLAN_CACHE", "").strip().lower()
    return raw in ("1", "true", "on", "yes")


def resolve_warm_start(flag: Optional[bool]) -> bool:
    """Resolve ``engine.warm_start`` against the environment default."""
    return plan_cache_default() if flag is None else bool(flag)


def default_plan_root() -> str:
    """``$REPRO_CACHE_DIR/plans`` — next to the service's ``results/``."""
    return os.path.join(os.environ.get("REPRO_CACHE_DIR", ".cache"), "plans")


class PlanStore:
    """Disk + in-process store of assembly plans, keyed by topology hash.

    Parameters
    ----------
    root:
        Store directory (created lazily); ``None`` selects
        :func:`default_plan_root`.
    enabled:
        Force the *disk* half on/off; ``None`` (default) follows
        ``REPRO_DISK_CACHE`` like every other disk cache in the package.
        The in-process memory cache always works — it is what lets the
        corner groups of one sweep share a single symbolic setup even
        with the disk off.

    A plan returned by :meth:`get` has passed the checksum wrapper *and*
    :meth:`AssemblyPlan.from_payload` validation; adoption-time shape
    checks against the live system remain the consumer's job.
    """

    def __init__(self, root: Optional[str] = None, enabled: Optional[bool] = None):
        self.root = root if root is not None else default_plan_root()
        self._enabled = enabled
        self._memory: dict[str, AssemblyPlan] = {}
        self.stats = {"hits": 0, "misses": 0, "puts": 0}

    @property
    def enabled(self) -> bool:
        """Whether reads/writes touch the disk (re-checks the env default)."""
        if self._enabled is not None:
            return self._enabled
        return cache.disk_enabled()

    def path(self, key: str) -> str:
        """Where the plan of a topology hash lives (whether or not it exists)."""
        return os.path.join(self.root, key[:2], f"{key}.json")

    # -- read/write -------------------------------------------------------
    def get(self, key: str) -> Optional[AssemblyPlan]:
        """The validated plan of a topology hash, or ``None`` on any miss.

        Corrupt, foreign or stale-format entries — including legacy/bare
        documents that lack the checksum wrapper — are unlinked so the
        next cold run rewrites them (the warm path always has the cold
        fallback, so this can never fail a job).
        """
        plan = self._memory.get(key)
        if plan is not None:
            self._count("hits")
            return plan
        if not self.enabled:
            self._count("misses")
            return None
        path = self.path(key)
        payload = cache.read_json(path)
        if payload is None:
            self._count("misses")
            return None
        try:
            plan = AssemblyPlan.from_payload(payload)
        except (ValueError, TypeError, KeyError):
            # Structurally unusable: a foreign file, a bare pre-wrapper
            # document, or a stale plan_format.  Unlink so the rebuild
            # replaces it instead of tripping on every run.
            cache.invalidate(path)
            self._count("misses")
            return None
        self._memory[key] = plan
        self._count("hits")
        return plan

    def put(self, key: str, plan: AssemblyPlan) -> bool:
        """Persist a freshly captured plan (best effort, atomic, re-read).

        The memory cache is updated unconditionally; the disk write goes
        through :func:`repro.cache.atomic_write_json` and is verified by
        re-reading the entry (the put-re-read discipline of the result
        store), so a torn or unserialisable write reports ``False``
        without ever failing the run that captured the plan.
        """
        self._memory[key] = plan
        self._count("puts")
        if not self.enabled:
            return False
        if not cache.atomic_write_json(self.path(key), plan.to_payload()):
            return False
        payload = cache.read_json(self.path(key))
        try:
            AssemblyPlan.from_payload(payload)
        except (ValueError, TypeError, KeyError):
            cache.invalidate(self.path(key))
            return False
        return True

    def _count(self, key: str) -> None:
        self.stats[key] += 1
        STATS[key] += 1


#: default stores by resolved root, so every assembler in the process
#: shares one memory cache per cache directory
_DEFAULT_STORES: dict[str, PlanStore] = {}


def default_plan_store() -> PlanStore:
    """The process-wide store for the current ``REPRO_CACHE_DIR``."""
    root = default_plan_root()
    store = _DEFAULT_STORES.get(root)
    if store is None:
        store = _DEFAULT_STORES[root] = PlanStore(root)
    return store


def plan_store_stats() -> dict:
    """Snapshot of the process-wide plan-store counters (``GET /stats``)."""
    return dict(STATS)


def reset_plan_store_stats() -> None:
    """Zero the process-wide counters (tests and daemon restarts)."""
    for key in STATS:
        STATS[key] = 0
    _DEFAULT_STORES.clear()
