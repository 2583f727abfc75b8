"""Cross-job warm starts (PR 9): topology keys, the plan store, bit identity.

The contract pinned here, in order of importance:

1. **Bit identity** — a warm run (adopting a cached
   :class:`~repro.perf.plan.AssemblyPlan`) produces waveforms
   *bit-identical* to a cold run, across the whole matrix: linear and
   RBF devices, dense and sparse backends, banked and scalar elements,
   single-process and sharded sweeps;
2. **warm means warm** — after one cold run of a topology, reruns pay
   zero symbolic factorizations (``plan_cache_hits``/``misses`` count
   the adoption per component);
3. **the cache can never fail a job** — corrupt entries, foreign files
   missing the checksum wrapper, and stale plans of a different system
   shape are unlinked/ignored and the run falls back cold;
4. **keying** — :meth:`~repro.api.spec.SimulationSpec.topology_hash` is
   invariant under stimulus/scenario/label/schedule changes and
   sensitive to anything that changes the assembled system's shape;
5. the atomic cache helpers survive same-key writes racing from
   multiple processes (what shard workers sharing one plan do).
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import urllib.request

import numpy as np
import pytest

import repro.perf.plan_store as plan_store_mod
from repro import cache
from repro.api import (
    EngineOptions,
    LinkSpec,
    ScenarioSpec,
    SimulationSpec,
    load_spec,
    run,
)
from repro.perf.plan import PLAN_FORMAT, AssemblyPlan
from repro.perf.plan_store import PlanStore, resolve_warm_start

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JOBS_DIR = os.path.join(REPO_ROOT, "examples", "jobs")


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """A private cache directory with warm starts in their default (off) state."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
    monkeypatch.delenv("REPRO_PLAN_CACHE", raising=False)
    plan_store_mod._DEFAULT_STORES.clear()
    yield tmp_path
    plan_store_mod._DEFAULT_STORES.clear()


@pytest.fixture
def library_models(params, driver_model, receiver_model):
    """Session-fitted library models injected to skip per-run fitting."""
    from repro.experiments.devices import ReferenceMacromodels

    return ReferenceMacromodels(
        driver=driver_model, receiver=receiver_model, params=params,
        source="library",
    )


def _ladder_spec(warm_start=True, **overrides) -> SimulationSpec:
    """The sparse-ladder golden job, shortened and warm-start enabled."""
    spec = load_spec(os.path.join(JOBS_DIR, "sparse_ladder.json"))
    engine_kw = {"warm_start": warm_start}
    link_kw = {}
    for key, value in overrides.items():
        (link_kw if key in ("segments",) else engine_kw)[key] = value
    return dataclasses.replace(
        spec,
        duration=1.5e-9,
        link=dataclasses.replace(spec.link, **link_kw),
        engine=dataclasses.replace(spec.engine, **engine_kw),
    )


def _corner_sweep(n_groups=3, per_group=2, segments=0, **engine_kw) -> SimulationSpec:
    scenarios = []
    for g in range(n_groups):
        for k in range(per_group):
            scenarios.append(ScenarioSpec(
                name=f"g{g}s{k}",
                bit_pattern="0110" if k % 2 else "0101",
                corner={"load_resistance": 300.0 + 50.0 * g},
            ))
    return SimulationSpec(
        kind="sweep",
        duration=1.0e-9,
        scenarios=tuple(scenarios),
        link=LinkSpec(segments=segments),
        engine=EngineOptions(dt=1e-11, sweep_family="linear",
                             warm_start=True, **engine_kw),
    )


def _assert_identical(base, other):
    assert base.names() == other.names()
    assert base.times.tobytes() == other.times.tobytes()
    for name in base.names():
        assert base.waveform(name).tobytes() == other.waveform(name).tobytes(), name


def _cold_then_warm(spec, models=None):
    """Run twice with the in-process memory cache dropped in between.

    The warm run is therefore forced through the on-disk store — the
    cross-process path shard and daemon workers take.
    """
    cold = run(spec, models=models)
    plan_store_mod._DEFAULT_STORES.clear()
    warm = run(spec, models=models)
    return cold, warm


# ---------------------------------------------------------------------------
# the topology key
# ---------------------------------------------------------------------------

class TestTopologyHash:
    def test_stable_and_distinct_from_content_hash(self):
        spec = _ladder_spec()
        assert spec.topology_hash() == spec.topology_hash()
        assert spec.topology_hash() != spec.content_hash()

    def test_stimulus_scenarios_label_neutral(self):
        spec = _corner_sweep()
        key = spec.topology_hash()
        restimulated = dataclasses.replace(
            spec, stimulus=dataclasses.replace(spec.stimulus, bit_pattern="111000")
        )
        relabelled = dataclasses.replace(spec, label="other label")
        fewer = dataclasses.replace(spec, scenarios=spec.scenarios[:2])
        for variant in (restimulated, relabelled, fewer):
            assert variant.topology_hash() == key
            assert variant.content_hash() != spec.content_hash()

    def test_schedule_and_fleet_knobs_neutral(self):
        spec = _corner_sweep()
        key = spec.topology_hash()
        for engine_kw in (
            {"dt": 2e-11},
            {"workers": 4, "shards": 2},
            {"warm_start": False},
            {"max_retries": 2, "on_nonconvergence": "warn"},
            {"fast": True},
            {"batch_prepare": True},
        ):
            variant = dataclasses.replace(
                spec, engine=dataclasses.replace(spec.engine, **engine_kw)
            )
            assert variant.topology_hash() == key, engine_kw

    def test_system_shape_sensitive(self):
        spec = _corner_sweep()
        key = spec.topology_hash()
        resized = dataclasses.replace(
            spec, link=dataclasses.replace(spec.link, segments=40)
        )
        resparsed = dataclasses.replace(
            spec, engine=dataclasses.replace(spec.engine, sparse_mna=True)
        )
        reseeded = dataclasses.replace(
            spec, devices=dataclasses.replace(spec.devices, seed=7)
        )
        assert len({key, resized.topology_hash(), resparsed.topology_hash(),
                    reseeded.topology_hash()}) == 4

    def test_shard_sub_specs_share_the_parent_key(self):
        from repro.sweep.shard import _sub_spec

        spec = _corner_sweep(workers=4)
        sub = _sub_spec(spec, (0, 1))
        assert sub.topology_hash() == spec.topology_hash()
        assert sub.content_hash() != spec.content_hash()


# ---------------------------------------------------------------------------
# the engine option
# ---------------------------------------------------------------------------

class TestWarmStartOption:
    def test_round_trip_and_default(self):
        assert EngineOptions().warm_start is None
        for value in (True, False, None):
            options = EngineOptions(warm_start=value)
            assert options.to_dict()["warm_start"] is value
            assert EngineOptions.from_dict(options.to_dict()).warm_start is value

    def test_rejects_non_boolean(self):
        with pytest.raises(ValueError, match="warm_start"):
            EngineOptions(warm_start="yes")

    def test_resolution_against_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_PLAN_CACHE", raising=False)
        assert resolve_warm_start(None) is False
        assert resolve_warm_start(True) is True
        monkeypatch.setenv("REPRO_PLAN_CACHE", "1")
        assert resolve_warm_start(None) is True
        assert resolve_warm_start(False) is False  # the spec always wins

    def test_cli_flags(self):
        from repro.api.cli import _build_parser

        parser = _build_parser()
        assert parser.parse_args(["run", "j.json"]).warm_start is None
        assert parser.parse_args(["run", "j.json", "--warm-start"]).warm_start is True
        assert parser.parse_args(["run", "j.json", "--no-warm-start"]).warm_start is False


# ---------------------------------------------------------------------------
# plan payload round-trip
# ---------------------------------------------------------------------------

class TestPlanPayload:
    def _captured_plan(self, n_sections=40) -> AssemblyPlan:
        from repro.circuits.ladder import rc_ladder_circuit
        from repro.perf.mna import FastPathAssembler

        circuit, _ = rc_ladder_circuit(n_sections)
        compiled = circuit.compile()
        assembler = FastPathAssembler(
            circuit, compiled, 1e-12, "trapezoidal", 1e-12, backend="sparse"
        )
        assembler.begin_run()
        plan = AssemblyPlan.capture(assembler)
        assert plan is not None
        return plan

    def test_payload_round_trip_is_exact(self):
        plan = self._captured_plan()
        payload = json.loads(json.dumps(plan.to_payload()))  # via real JSON
        restored = AssemblyPlan.from_payload(payload)
        assert restored.n_unknowns == plan.n_unknowns
        assert restored.backend == plan.backend
        assert restored.linear_only == plan.linear_only
        assert restored.compaction == plan.compaction
        for attr in ("static_rows", "static_cols", "static_indices",
                     "static_indptr", "static_positions"):
            a, b = getattr(plan, attr), getattr(restored, attr)
            assert np.array_equal(a, b) and a.dtype == b.dtype, attr

    def test_from_payload_rejects_garbage(self):
        plan = self._captured_plan()
        good = plan.to_payload()
        for bad in (
            None,
            [],
            "text",
            {"plan_format": PLAN_FORMAT + 1},
            {**good, "backend": "cuda"},
            {**good, "n_unknowns": -1},
            {**good, "static_cols": good["static_cols"][:-1]},  # rows/cols torn
            {**good, "static_indptr": good["static_indptr"][:-1]},
        ):
            with pytest.raises((ValueError, TypeError, KeyError)):
                AssemblyPlan.from_payload(bad)

    def test_adoption_guards_require_exact_equality(self):
        plan = self._captured_plan()
        assert plan.matches_static(plan.static_rows, plan.static_cols)
        perturbed = plan.static_rows.copy()
        perturbed[0] += 1
        assert not plan.matches_static(perturbed, plan.static_cols)
        assert not plan.matches_static(plan.static_rows[:-1], plan.static_cols[:-1])


# ---------------------------------------------------------------------------
# warm == cold, across the matrix
# ---------------------------------------------------------------------------

class TestWarmEqualsCold:
    def _assert_warm(self, cold, warm, sparse=True):
        _assert_identical(cold, warm)
        stats = warm.perf_stats
        assert stats["plan_cache_hits"] >= 1
        assert stats["plan_cache_misses"] == 0
        if sparse:
            assert stats["symbolic_factorizations"] == 0
            assert cold.perf_stats["symbolic_factorizations"] >= 1

    def test_sparse_rbf_banked(self, fresh_cache, library_models):
        spec = _ladder_spec()
        cold, warm = _cold_then_warm(spec, models=library_models)
        self._assert_warm(cold, warm)
        store = PlanStore()
        assert os.path.exists(store.path(spec.topology_hash()))

    def test_sparse_rbf_scalar_elements(self, fresh_cache, monkeypatch,
                                        library_models):
        monkeypatch.setenv("REPRO_BANK_COMPACTION", "0")
        cold, warm = _cold_then_warm(_ladder_spec(), models=library_models)
        self._assert_warm(cold, warm)

    def test_dense_rbf(self, fresh_cache, library_models):
        spec = _ladder_spec(segments=12, sparse_mna=False)
        cold, warm = _cold_then_warm(spec, models=library_models)
        self._assert_warm(cold, warm, sparse=False)
        assert warm.perf_stats["backend"] == "dense"

    def test_sparse_linear_sweep_shares_one_setup(self, fresh_cache):
        spec = _corner_sweep(segments=120, sparse_mna=True)
        cold, warm = _cold_then_warm(spec)
        _assert_identical(cold, warm)
        # Cold: the first corner group compresses the pattern once; every
        # other group adopts it through the in-process memory store.
        assert cold.perf_stats["symbolic_factorizations"] == 1
        assert cold.perf_stats["plan_cache_hits"] >= 1
        # Warm (memory dropped): every group adopts from disk.
        assert warm.perf_stats["symbolic_factorizations"] == 0
        assert warm.perf_stats["plan_cache_misses"] == 0

    def test_sharded_sweep_warms_from_shared_store(self, fresh_cache):
        spec = _corner_sweep(segments=60, sparse_mna=True, workers=2)
        single = run(dataclasses.replace(
            spec, engine=dataclasses.replace(spec.engine, workers=1,
                                             warm_start=False)
        ))
        cold = run(spec)   # worker processes populate the shared store
        warm = run(spec)   # fresh workers adopt from it
        _assert_identical(single, cold)
        _assert_identical(single, warm)
        perf = warm.perf_stats
        assert perf["symbolic_factorizations"] == 0
        assert perf["plan_cache_misses"] == 0
        for entry in perf["shard_stats"]:
            assert entry["symbolic_factorizations"] == 0
            assert entry["plan_cache_hits"] >= 1

    def test_env_toggle_enables_null_specs(self, fresh_cache, monkeypatch):
        monkeypatch.setenv("REPRO_PLAN_CACHE", "1")
        spec = _corner_sweep(segments=60, sparse_mna=True)
        spec = dataclasses.replace(
            spec, engine=dataclasses.replace(spec.engine, warm_start=None)
        )
        cold, warm = _cold_then_warm(spec)
        _assert_identical(cold, warm)
        assert warm.perf_stats["symbolic_factorizations"] == 0

    def test_disk_disabled_still_dedups_in_process(self, fresh_cache, monkeypatch):
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        spec = _corner_sweep(segments=60, sparse_mna=True)
        result = run(spec)
        # groups 2..G adopted group 1's setup through the memory cache...
        assert result.perf_stats["symbolic_factorizations"] == 1
        assert result.perf_stats["plan_cache_hits"] >= 1
        # ...but nothing reached the disk.
        assert not os.path.exists(os.path.join(str(fresh_cache), "plans"))


# ---------------------------------------------------------------------------
# fallback paths: the cache can never fail a job
# ---------------------------------------------------------------------------

class TestColdFallbacks:
    def test_corrupt_plan_is_unlinked_and_rebuilt(self, fresh_cache):
        spec = _corner_sweep(segments=60, sparse_mna=True)
        reference = run(spec)
        path = PlanStore().path(spec.topology_hash())
        with open(path, "w") as handle:
            handle.write('{"torn":')
        plan_store_mod._DEFAULT_STORES.clear()
        rerun = run(spec)
        _assert_identical(reference, rerun)
        # The corrupt entry was unlinked and the cold rebuild re-persisted it.
        plan_store_mod._DEFAULT_STORES.clear()
        assert PlanStore().get(spec.topology_hash()) is not None

    def test_foreign_wrapperless_file_is_unlinked(self, fresh_cache):
        store = PlanStore()
        key = "ab" + "0" * 62
        path = store.path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        bare = {"n_unknowns": 5, "note": "no checksum wrapper at all"}
        with open(path, "w") as handle:
            json.dump(bare, handle)
        # read_json passes legacy bare documents through as-is...
        assert cache.read_json(path) == bare
        # ...so the store must reject and unlink them itself.
        assert store.get(key) is None
        assert not os.path.exists(path)
        assert store.stats["misses"] == 1

    def test_stale_plan_of_another_shape_falls_back_cold(self, fresh_cache):
        from repro.circuits.ladder import rc_ladder_circuit
        from repro.perf.mna import FastPathAssembler

        spec = _corner_sweep(segments=60, sparse_mna=True)
        reference = run(dataclasses.replace(
            spec, engine=dataclasses.replace(spec.engine, warm_start=False)
        ))
        # Poison the topology key with a plan captured from a different
        # system (hash collisions must be harmless).
        circuit, _ = rc_ladder_circuit(8)
        assembler = FastPathAssembler(
            circuit, circuit.compile(), 1e-12, "trapezoidal", 1e-12,
            backend="sparse",
        )
        assembler.begin_run()
        stale = AssemblyPlan.capture(assembler)
        PlanStore().put(spec.topology_hash(), stale)
        plan_store_mod._DEFAULT_STORES.clear()
        poisoned = run(spec)
        _assert_identical(reference, poisoned)
        assert poisoned.perf_stats["plan_cache_misses"] >= 1


# ---------------------------------------------------------------------------
# atomic cache helpers under contention (satellite of PR 9)
# ---------------------------------------------------------------------------

def _hammer_same_path(args):
    path, document, rounds = args
    from repro import cache as worker_cache

    return [worker_cache.atomic_write_json(path, document) for _ in range(rounds)]


class TestCacheContention:
    def test_concurrent_same_key_writes_stay_valid(self, tmp_path):
        """N processes x M same-key writes: the entry stays checksum-valid."""
        path = str(tmp_path / "plans" / "ab" / "abcdef.json")
        document = {"plan_format": 1, "static_rows": list(range(500))}
        reference_path = str(tmp_path / "reference.json")
        assert cache.atomic_write_json(reference_path, document)

        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        with ctx.Pool(4) as pool:
            outcomes = pool.map(
                _hammer_same_path, [(path, document, 10)] * 4
            )
        assert all(all(flags) for flags in outcomes)
        assert cache.read_json(path) == document
        # byte-identical to an uncontended write (atomic replace, no tears)
        with open(path, "rb") as contended, open(reference_path, "rb") as clean:
            assert contended.read() == clean.read()

    def test_put_reread_discipline_reports_failure(self, tmp_path, monkeypatch):
        """A put whose payload cannot round-trip is invalidated, not served."""
        store = PlanStore(root=str(tmp_path), enabled=True)
        plan = AssemblyPlan(n_unknowns=3, backend="dense", linear_only=True)
        monkeypatch.setattr(
            AssemblyPlan, "to_payload",
            lambda self: {"plan_format": "not-an-int"},
        )
        key = "cd" + "0" * 62
        assert store.put(key, plan) is False
        assert not os.path.exists(store.path(key))


# ---------------------------------------------------------------------------
# the service surface
# ---------------------------------------------------------------------------

class TestServiceStats:
    def test_stats_endpoint_reports_both_stores(self, tmp_path, monkeypatch):
        from repro.service import JobServer, ResultStore

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        plan_store_mod._DEFAULT_STORES.clear()
        server = JobServer(
            port=0, workers=1, store=ResultStore(root=str(tmp_path / "results"))
        ).start()
        try:
            with urllib.request.urlopen(
                server.url.rstrip("/") + "/stats", timeout=30
            ) as response:
                payload = json.loads(response.read().decode("utf-8"))
        finally:
            server.close()
        assert set(payload) == {"jobs", "result_store", "plan_store", "models"}
        assert set(payload["models"]) == {"memo_hits", "disk_hits", "fits"}
        assert all(isinstance(n, int) for n in payload["models"].values())
        for block in ("result_store", "plan_store"):
            assert payload[block]["root"]
            assert isinstance(payload[block]["enabled"], bool)
            for counter in ("hits", "misses", "puts"):
                assert isinstance(payload[block][counter], int)

    def test_result_store_counters(self, tmp_path):
        from repro.service import ResultStore

        class _FakeResult:
            def to_dict(self):
                return {"waveforms": {"a": [1.0]}, "times": [0.0], "engine": "x"}

            def save_npz(self, handle):
                raise OSError("no artifact in this test")

        store = ResultStore(root=str(tmp_path))
        assert store.get("aa" + "0" * 62) is None
        assert store.stats == {"hits": 0, "misses": 1, "puts": 0}
        document = store.put("aa" + "0" * 62, _FakeResult())
        assert document is not None
        # the put's verification re-read is not counted as a hit
        assert store.stats == {"hits": 0, "misses": 1, "puts": 1}
        assert store.get("aa" + "0" * 62) is not None
        assert store.stats == {"hits": 1, "misses": 1, "puts": 1}
