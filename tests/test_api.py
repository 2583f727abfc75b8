"""Unified job API: spec round-trips, hashing, engines, Result, CLI."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.api import (
    DeviceSpec,
    EngineOptions,
    LinkSpec,
    Result,
    ScenarioSpec,
    SimulationSpec,
    StimulusSpec,
    StructureSpec,
    get_engine,
    list_engines,
    load_spec,
    register_engine,
    run,
    spec_from_dict,
)
from repro.api.engines import EngineInfo, _REGISTRY
from repro.experiments.devices import ReferenceMacromodels
from repro.macromodel.serialization import macromodel_to_dict

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JOBS_DIR = os.path.join(REPO_ROOT, "examples", "jobs")


def _subprocess_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _make_spec(kind: str, driver_model=None) -> SimulationSpec:
    """A representative non-default spec of each kind."""
    common = dict(
        duration=3e-9,
        stimulus=StimulusSpec(bit_pattern="0110", bit_time=1.5e-9, edge_time=2e-10),
        link=LinkSpec(z0=120.0, delay=0.3e-9, load="rc",
                      load_resistance=350.0, load_capacitance=2e-12),
        label=f"round-trip fixture ({kind})",
    )
    if kind == "circuit":
        return SimulationSpec(
            kind="circuit",
            devices=DeviceSpec(source="library", seed=3, params={"vdd": 2.5}),
            engine=EngineOptions(dt=1e-11, variant="rbf"),
            **common,
        )
    if kind == "fdtd1d":
        devices = DeviceSpec(source="library")
        if driver_model is not None:
            devices = DeviceSpec(
                source="inline", driver=macromodel_to_dict(driver_model)
            )
        return SimulationSpec(
            kind="fdtd1d", devices=devices, engine=EngineOptions(n_cells=64), **common
        )
    if kind == "fdtd3d":
        return SimulationSpec(
            kind="fdtd3d", structure=StructureSpec(scale=0.25), **common
        )
    if kind == "sweep":
        return SimulationSpec(
            kind="sweep",
            scenarios=(
                ScenarioSpec(name="a", bit_pattern="010", drive_strength=1.1),
                ScenarioSpec(name="b", bit_pattern="011",
                             corner={"z0": 100.0, "load_resistance": 400.0}),
                ScenarioSpec(name="c", static_group="g1"),
            ),
            engine=EngineOptions(dt=1e-11, sweep_family="linear"),
            **common,
        )
    raise AssertionError(kind)


class TestSpecRoundTrip:
    @pytest.mark.parametrize("kind", ["circuit", "fdtd1d", "fdtd3d", "sweep"])
    def test_dict_round_trip_is_identity(self, kind):
        spec = _make_spec(kind)
        assert spec_from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("kind", ["circuit", "fdtd1d", "fdtd3d", "sweep"])
    def test_json_round_trip_is_identity(self, kind):
        spec = _make_spec(kind)
        rebuilt = spec_from_dict(json.loads(spec.to_json()))
        assert rebuilt == spec
        assert rebuilt.content_hash() == spec.content_hash()

    def test_inline_device_round_trip(self, driver_model):
        spec = _make_spec("fdtd1d", driver_model=driver_model)
        rebuilt = spec_from_dict(json.loads(spec.to_json()))
        assert rebuilt == spec
        assert rebuilt.devices.driver["kind"] == "driver"

    def test_unknown_top_level_key_rejected(self):
        data = _make_spec("circuit").to_dict()
        data["surprise"] = 1
        with pytest.raises(ValueError, match="surprise"):
            spec_from_dict(data)

    def test_unknown_block_key_rejected(self):
        data = _make_spec("circuit").to_dict()
        data["link"]["impedance"] = 50.0
        with pytest.raises(ValueError, match="impedance"):
            spec_from_dict(data)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            SimulationSpec(kind="spectre")

    def test_wrong_format_version_rejected(self):
        data = _make_spec("circuit").to_dict()
        data["format_version"] = 99
        with pytest.raises(ValueError, match="format_version"):
            spec_from_dict(data)

    def test_sweep_requires_scenarios(self):
        with pytest.raises(ValueError, match="scenario"):
            SimulationSpec(kind="sweep")

    def test_scenarios_only_for_sweep(self):
        with pytest.raises(ValueError, match="sweep"):
            SimulationSpec(kind="circuit", scenarios=(ScenarioSpec(name="a"),))

    def test_duplicate_scenario_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            SimulationSpec(
                kind="sweep",
                scenarios=(ScenarioSpec(name="a"), ScenarioSpec(name="a")),
            )

    def test_linear_sweep_rejects_receiver_load(self):
        with pytest.raises(ValueError, match="linear sweep family"):
            SimulationSpec(
                kind="sweep",
                link=LinkSpec(load="receiver"),
                scenarios=(ScenarioSpec(name="a"),),
                engine=EngineOptions(sweep_family="linear"),
            )

    def test_nonpositive_link_values_rejected(self):
        with pytest.raises(ValueError, match="load_resistance"):
            LinkSpec(load_resistance=0.0)
        with pytest.raises(ValueError, match="load_capacitance"):
            LinkSpec(load_capacitance=-1e-12)

    def test_rbf_sweep_rejects_drive_strength(self):
        with pytest.raises(ValueError, match="drive_strength"):
            SimulationSpec(
                kind="sweep",
                scenarios=(ScenarioSpec(name="a", drive_strength=1.2),),
                engine=EngineOptions(sweep_family="rbf"),
            )

    def test_unknown_device_param_rejected(self):
        with pytest.raises(ValueError, match="unknown device parameter"):
            DeviceSpec(params={"not_a_param": 1.0})

    def test_bad_stimulus_pattern_rejected(self):
        with pytest.raises(ValueError, match="bit_pattern"):
            StimulusSpec(bit_pattern="01x")

    @pytest.mark.parametrize(
        "mutation",
        [
            {"stimulus": {"bit_pattern": 5}},
            {"stimulus": {"bit_time": "fast"}},
            {"duration": None},
            {"link": {"z0": [131.0]}},
            {"engine": {"n_cells": 50.5}},
            {"devices": {"seed": "zero"}},
            # json.loads accepts NaN/Infinity; no spec quantity may be non-finite
            {"duration": float("inf")},
            {"link": {"z0": float("nan")}},
            {"engine": {"dt": float("-inf")}},
            {"stimulus": {"bit_time": 10**400}},
            # a valid linear sweep but for its NaN scenario corner
            {
                "kind": "sweep",
                "scenarios": [{"name": "a", "corner": {"z0": float("nan")}}],
                "engine": {"sweep_family": "linear"},
            },
        ],
    )
    def test_malformed_values_raise_value_error_not_type_error(self, mutation):
        # the CLI's error handler catches ValueError; a TypeError would crash
        data = _make_spec("circuit").to_dict()
        for key, value in mutation.items():
            if isinstance(value, dict):
                data[key] = {**data[key], **value}
            else:
                data[key] = value
        with pytest.raises(ValueError):
            spec_from_dict(data)

    def test_malformed_scenario_corner_raises_value_error(self):
        data = _make_spec("sweep").to_dict()
        data["scenarios"][0]["corner"] = {"z0": "high"}
        with pytest.raises(ValueError, match="corner"):
            spec_from_dict(data)

    @pytest.mark.parametrize("field", ["device", "static_group"])
    def test_scenario_string_fields_checked_on_construction_and_decoding(self, field):
        # the constructor and the decoder apply the same type check
        with pytest.raises(ValueError, match=f"scenario.{field}: expected a string"):
            ScenarioSpec(name="a", **{field: 3})
        data = _make_spec("sweep").to_dict()
        data["scenarios"][0][field] = 7
        with pytest.raises(ValueError, match=rf"scenarios\[0\]\.{field}: expected a string"):
            spec_from_dict(data)

    def test_int_corner_values_normalised_to_float(self):
        a = ScenarioSpec(name="a", corner={"z0": 100})
        b = ScenarioSpec(name="a", corner={"z0": 100.0})
        assert a == b


class TestContentHash:
    def test_hash_ignores_dict_ordering(self):
        spec = _make_spec("sweep")
        data = spec.to_dict()
        reordered = json.loads(
            json.dumps({k: data[k] for k in reversed(list(data))})
        )
        assert spec_from_dict(reordered).content_hash() == spec.content_hash()

    def test_hash_differs_on_content(self):
        a = _make_spec("circuit")
        b = spec_from_dict({**a.to_dict(), "duration": 4e-9})
        assert a.content_hash() != b.content_hash()

    def test_hash_stable_across_processes(self, tmp_path):
        spec = _make_spec("sweep")
        path = tmp_path / "job.json"
        spec.save(str(path))
        script = (
            "from repro.api import load_spec; "
            f"print(load_spec({str(path)!r}).content_hash())"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=_subprocess_env(), cwd=REPO_ROOT,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == spec.content_hash()


class TestRegistry:
    def test_all_four_kinds_registered(self):
        kinds = [info.kind for info in list_engines()]
        assert kinds == ["circuit", "fdtd1d", "fdtd3d", "sweep"]

    def test_unknown_kind_lookup(self):
        with pytest.raises(KeyError, match="available"):
            get_engine("warp-drive")

    def test_register_and_restore(self):
        calls = []

        @register_engine("circuit", summary="test shadow")
        def shadow(spec, models=None):
            calls.append(spec.kind)
            return Result(times=np.zeros(1), waveforms={}, engine="shadow")

        try:
            info = get_engine("circuit")
            assert isinstance(info, EngineInfo) and info.summary == "test shadow"
            result = run(_make_spec("circuit"))
            assert result.engine == "shadow" and calls == ["circuit"]
        finally:
            # restore the stock adapter
            import importlib

            import repro.api.engines as engines_mod

            _REGISTRY.pop("circuit", None)
            importlib.reload(engines_mod)
        assert get_engine("circuit").summary != "test shadow"


class TestResultContainer:
    def _result(self):
        times = np.linspace(0.0, 1e-9, 11)
        return Result(
            times=times,
            waveforms={"near": np.sin(times * 1e9), "far": np.cos(times * 1e9)},
            engine="unit-test",
            perf_stats={"solves": 3},
            meta={"kind": "circuit", "numpy_scalar": np.float64(1.5)},
        )

    def test_names_and_waveform(self):
        result = self._result()
        assert result.names() == ["far", "near"]
        assert result.waveform("near").shape == result.times.shape
        with pytest.raises(KeyError, match="available"):
            result.waveform("nope")

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            Result(times=np.zeros(3), waveforms={"w": np.zeros(4)})

    def test_json_export_round_trip(self, tmp_path):
        result = self._result()
        path = tmp_path / "result.json"
        result.save_json(str(path))
        with open(path) as handle:
            data = json.load(handle)
        assert set(data["waveforms"]) == {"near", "far"}
        np.testing.assert_allclose(data["waveforms"]["near"], result.waveform("near"))
        assert data["meta"]["numpy_scalar"] == 1.5

    def test_npz_export(self, tmp_path):
        result = self._result()
        path = tmp_path / "result.npz"
        result.save_npz(str(path))
        with np.load(path) as archive:
            np.testing.assert_array_equal(archive["times"], result.times)
            np.testing.assert_array_equal(archive["w:far"], result.waveform("far"))
            meta = json.loads(str(archive["meta_json"]))
        assert meta["engine"] == "unit-test"


class TestUniformInterfaceOnNativeContainers:
    def test_simulation_result_names_and_waveform(self):
        from repro.core.cosim import SimulationResult

        times = np.linspace(0.0, 1e-9, 5)
        result = SimulationResult(
            times=times,
            voltages={"near_end": np.ones(5)},
            currents={"near_end": np.zeros(5)},
        )
        assert result.names() == ["i:near_end", "near_end"]  # sorted, like api.Result
        np.testing.assert_array_equal(result.waveform("near_end"), np.ones(5))
        np.testing.assert_array_equal(result.waveform("i:near_end"), np.zeros(5))
        with pytest.raises(KeyError, match="available"):
            result.waveform("i:far_end")


def _models(params, driver_model, receiver_model) -> ReferenceMacromodels:
    return ReferenceMacromodels(
        driver=driver_model, receiver=receiver_model, params=params, source="library"
    )


def _rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(np.max(np.abs(a)), 1e-30)
    return float(np.max(np.abs(a - b)) / scale)


class TestEngineEquivalence:
    """spec -> run() must reproduce the direct engine calls bit-for-bit."""

    def test_circuit_matches_run_link_rbf(self, params, driver_model, receiver_model):
        from repro.circuits.testbenches import run_link_rbf
        from repro.core.cosim import LinkDescription

        spec = SimulationSpec(
            kind="circuit", duration=2e-9,
            stimulus=StimulusSpec(bit_pattern="010", bit_time=1e-9),
            link=LinkSpec(z0=110.0, delay=0.2e-9, load="receiver"),
            engine=EngineOptions(dt=1e-11),
        )
        models = _models(params, driver_model, receiver_model)
        via_api = run(spec, models=models)
        direct = run_link_rbf(
            LinkDescription(z0=110.0, delay=0.2e-9, bit_pattern="010", bit_time=1e-9,
                            duration=2e-9, load="receiver"),
            driver_model, receiver_model, dt=1e-11, params=params,
        )
        assert via_api.engine == "spice-rbf"
        for probe in ("near_end", "far_end"):
            assert _rel_diff(direct.voltage(probe), via_api.waveform(probe)) <= 1e-12

    def test_fdtd1d_matches_run_fdtd1d_link(self, params, driver_model, receiver_model):
        from repro.core.cosim import LinkDescription
        from repro.experiments.fig4_rc_load import run_fdtd1d_link

        spec = SimulationSpec(
            kind="fdtd1d", duration=2e-9,
            stimulus=StimulusSpec(bit_pattern="010", bit_time=1e-9),
            link=LinkSpec(z0=131.0, delay=0.4e-9),
            engine=EngineOptions(n_cells=50),
        )
        models = _models(params, driver_model, receiver_model)
        via_api = run(spec, models=models)
        direct = run_fdtd1d_link(
            models,
            LinkDescription(bit_pattern="010", bit_time=1e-9, duration=2e-9, load="rc"),
            z_c=131.0, t_d=0.4e-9, n_cells=50,
        )
        for probe in ("near_end", "far_end"):
            assert _rel_diff(direct.voltage(probe), via_api.waveform(probe)) <= 1e-12

    def test_sweep_linear_matches_direct_sweep(self):
        from repro.sweep import Scenario, linear_link_sweep

        scenarios_spec = (
            ScenarioSpec(name="nom", bit_pattern="010"),
            ScenarioSpec(name="z100", bit_pattern="011", corner={"z0": 100.0}),
        )
        spec = SimulationSpec(
            kind="sweep", duration=3e-9, scenarios=scenarios_spec,
            engine=EngineOptions(dt=1e-11, sweep_family="linear"),
        )
        via_api = run(spec)
        direct = linear_link_sweep(
            [Scenario(name="nom", bit_pattern="010"),
             Scenario(name="z100", bit_pattern="011", corner={"z0": 100.0})],
            dt=1e-11, duration=3e-9,
        ).run()
        assert via_api.meta["n_scenarios"] == 2
        for name in ("nom", "z100"):
            for node in ("near", "far"):
                assert _rel_diff(
                    direct.voltage(name, node), via_api.waveform(f"{name}/{node}")
                ) <= 1e-12

    def test_sweep_rbf_matches_direct_sweep(self, params, driver_model, receiver_model):
        from repro.sweep import Scenario, rbf_link_sweep

        spec = SimulationSpec(
            kind="sweep", duration=2e-9,
            stimulus=StimulusSpec(bit_pattern="010", bit_time=1e-9),
            scenarios=(
                ScenarioSpec(name="nom", bit_pattern="010"),
                ScenarioSpec(name="z100", bit_pattern="010", corner={"z0": 100.0}),
            ),
            engine=EngineOptions(dt=2e-11, sweep_family="rbf"),
        )
        models = _models(params, driver_model, receiver_model)
        via_api = run(spec, models=models)
        from repro.sweep.links import RBFLinkSpec

        direct = rbf_link_sweep(
            [Scenario(name="nom", bit_pattern="010"),
             Scenario(name="z100", bit_pattern="010", corner={"z0": 100.0})],
            {None: (driver_model, receiver_model)},
            dt=2e-11, duration=2e-9,
            spec=RBFLinkSpec(bit_time=1e-9),
        ).run()
        for name in ("nom", "z100"):
            for node in ("near", "far"):
                assert _rel_diff(
                    direct.voltage(name, node), via_api.waveform(f"{name}/{node}")
                ) <= 1e-12

    def test_sweep_scenarios_inherit_stimulus_bit_pattern(self):
        # a scenario with a null bit_pattern runs the spec's stimulus
        # pattern, not a hard-coded fallback
        base = dict(
            kind="sweep", duration=3e-9,
            engine=EngineOptions(dt=1e-11, sweep_family="linear"),
        )
        inherited = run(SimulationSpec(
            stimulus=StimulusSpec(bit_pattern="0110", bit_time=1e-9),
            scenarios=(ScenarioSpec(name="s"),), **base,
        ))
        explicit = run(SimulationSpec(
            stimulus=StimulusSpec(bit_pattern="010", bit_time=1e-9),
            scenarios=(ScenarioSpec(name="s", bit_pattern="0110"),), **base,
        ))
        np.testing.assert_array_equal(
            inherited.waveform("s/far"), explicit.waveform("s/far")
        )

    @pytest.mark.slow
    def test_fdtd3d_matches_run_fdtd3d_link(self, params, driver_model, receiver_model):
        from repro.core.cosim import LinkDescription
        from repro.experiments.fig4_rc_load import run_fdtd3d_link
        from repro.structures.validation_line import ValidationLineStructure

        # bit_time well inside the window so the driver actually switches
        spec = SimulationSpec(
            kind="fdtd3d", duration=0.5e-9,
            stimulus=StimulusSpec(bit_pattern="010", bit_time=0.2e-9),
            structure=StructureSpec(scale=0.1),
        )
        models = _models(params, driver_model, receiver_model)
        via_api = run(spec, models=models)
        direct = run_fdtd3d_link(
            ValidationLineStructure.scaled(0.1),
            models,
            LinkDescription(bit_pattern="010", bit_time=0.2e-9, duration=0.5e-9, load="rc"),
        )
        assert via_api.engine == "fdtd3d-rbf"
        assert np.max(np.abs(via_api.waveform("near_end"))) > 0.1  # real switching
        for probe in ("near_end", "far_end"):
            assert _rel_diff(direct.voltage(probe), via_api.waveform(probe)) <= 1e-12


#: the (content_hash, topology_hash) of every golden job file.  These key
#: the result store and the plan cache, so any drift in the spec codec
#: silently orphans every cached result: the literals must never change.
GOLDEN_JOB_HASHES = {
    "fdtd1d_link": (
        "d8bc51f85aaeb282df47dc9b04da1a42ecdf89479338185af5df8bf2ebfd3e83",
        "4d8681a0e6dfd46ad94ecf3a426ecb5bce345819d39f1c9e7a32af13aad9a224",
    ),
    "linear_link": (
        "3473f6aaf818c390d14b098f8534126db0821c66f78e4fe6ba4b5a66b0d376a4",
        "ef964417d59a8f1e673c6fc695266925966ff0bd6ad9db4c510ebfc6a4343ed8",
    ),
    "montecarlo_sweep": (
        "44c31ed3caef161a7770ce23d8e37459bf60a53843913797adb16228d4e75744",
        "ef964417d59a8f1e673c6fc695266925966ff0bd6ad9db4c510ebfc6a4343ed8",
    ),
    "pattern_corner_sweep": (
        "7cd5e1c8ab9de4953099f3c3b506049d1fef2e3b5cc8cb9f56a3e520a30e3927",
        "4d8681a0e6dfd46ad94ecf3a426ecb5bce345819d39f1c9e7a32af13aad9a224",
    ),
    "pattern_corner_sweep_batched": (
        "77ffa76ce7a9046f2f13285da313923af1acc90d9ae4f42e9cfb23153e47ef4c",
        "4d8681a0e6dfd46ad94ecf3a426ecb5bce345819d39f1c9e7a32af13aad9a224",
    ),
    "rbf_link": (
        "a9618f0e7d6a7390f4e3319f42ec06fc935c7dcb1fa0bca73c90184d47216e5a",
        "ce580d556f150321b09d7c661620911de384759b049dc9bd993acdd66ac073f1",
    ),
    "sparse_ladder": (
        "e0dc9b2380729de7880b3873c6badeb2246c0ec1c1273ac7c5ec9c2857c859c7",
        "21423373307a9260afbdc30f49186acd3304dc6c7c51bc5b208f8f44a9da4431",
    ),
    "validation_line_3d": (
        "186be89cdc54eb0da867bce55f106ea5ca87731e9a97ec09f6caed3ab5f8627e",
        "d757a8231a0b21e310216b28c5e7de68ba8b142d0d36ec9b2841d2bf4d312148",
    ),
}


class TestHighStartPatterns:
    """rbf links whose pattern starts with ``1`` start in their high state."""

    @pytest.mark.parametrize("segments", [0, 4])
    @pytest.mark.parametrize("pattern", ["101", "110", "1"])
    @pytest.mark.parametrize("load, tolerance", [("receiver", 0.01), ("rc", 0.5)])
    def test_circuit_link_starts_high(self, pattern, segments, load, tolerance):
        spec = SimulationSpec(
            kind="circuit",
            duration=1.5e-9,
            stimulus=StimulusSpec(bit_pattern=pattern, bit_time=1e-9),
            link=LinkSpec(load=load, segments=segments),
        )
        result = run(spec)  # used to raise NonConvergenceError at step 1
        # a receiver load holds the high steady state; the rc load's DC
        # current reflects off a line that starts without current
        before_edge = result.times < 0.9e-9
        for name in ("near_end", "far_end"):
            wave = result.waveform(name)
            assert wave[0] == 1.8
            assert np.max(np.abs(wave[before_edge] - 1.8)) < tolerance, name

    def test_sweep_scenarios_start_high(self):
        spec = SimulationSpec(
            kind="sweep",
            duration=1.5e-9,
            stimulus=StimulusSpec(bit_pattern="010", bit_time=1e-9),
            scenarios=(
                ScenarioSpec(name="101", bit_pattern="101"),
                ScenarioSpec(name="110/z100", bit_pattern="110", corner={"z0": 100.0}),
                ScenarioSpec(name="1/rc", bit_pattern="1",
                             corner={"load_resistance": 500.0}),
                ScenarioSpec(name="010", bit_pattern="010"),
            ),
            engine=EngineOptions(sweep_family="rbf"),
        )
        result = run(spec)
        assert "failures" not in result.meta
        assert set(result.meta["scenario_status"].values()) == {"ok"}
        # the sweep's high-start scenario matches its single-run circuit job
        single = run(SimulationSpec(
            kind="circuit",
            duration=1.5e-9,
            stimulus=StimulusSpec(bit_pattern="101", bit_time=1e-9),
            link=LinkSpec(load="receiver"),
        ))
        assert _rel_diff(
            single.waveform("far_end"), result.waveform("101/far")
        ) <= 1e-12


class TestGoldenJobs:
    def test_all_job_files_validate(self):
        names = sorted(
            name[: -len(".json")] for name in os.listdir(JOBS_DIR) if name.endswith(".json")
        )
        assert names == sorted(GOLDEN_JOB_HASHES)
        kinds = set()
        for name in names:
            path = os.path.join(JOBS_DIR, f"{name}.json")
            spec = load_spec(path)
            kinds.add(spec.kind)
            with open(path) as handle:
                text = handle.read()
            # every stored job is in normalised form already, byte for byte
            assert spec.to_dict() == json.loads(text), name
            assert spec.to_json() + "\n" == text, name
            assert (spec.content_hash(), spec.topology_hash()) == GOLDEN_JOB_HASHES[name], name
        assert kinds == {"circuit", "fdtd1d", "fdtd3d", "sweep"}

    def test_linear_link_job_end_to_end(self):
        from repro.sweep import linear_link_sweep

        spec = load_spec(os.path.join(JOBS_DIR, "linear_link.json"))
        result = run(spec)
        direct = linear_link_sweep(
            [sc.to_scenario() for sc in spec.scenarios],
            dt=spec.engine.dt, duration=spec.duration,
        ).run()
        name = spec.scenarios[0].name
        assert _rel_diff(
            direct.voltage(name, "far"), result.waveform(f"{name}/far")
        ) <= 1e-12
        # the job is cache-addressable: the hash is stable across loads
        assert spec.content_hash() == load_spec(
            os.path.join(JOBS_DIR, "linear_link.json")
        ).content_hash()


class TestCLI:
    def _invoke(self, *args: str):
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True, text=True, env=_subprocess_env(), cwd=REPO_ROOT,
        )

    def test_list_engines(self):
        out = self._invoke("list-engines")
        assert out.returncode == 0, out.stderr
        for kind in ("circuit", "fdtd1d", "fdtd3d", "sweep"):
            assert kind in out.stdout

    def test_version_flag(self):
        import repro

        out = self._invoke("--version")
        assert out.returncode == 0
        assert repro.__version__ in out.stdout

    def test_describe(self):
        out = self._invoke("describe", os.path.join("examples", "jobs", "linear_link.json"))
        assert out.returncode == 0, out.stderr
        assert "content hash:" in out.stdout
        assert '"kind": "sweep"' in out.stdout

    def test_run_quick_writes_artifact(self, tmp_path):
        artifact = tmp_path / "out.json"
        out = self._invoke(
            "run", os.path.join("examples", "jobs", "linear_link.json"),
            "--quick", "--output", str(artifact),
        )
        assert out.returncode == 0, out.stderr
        with open(artifact) as handle:
            data = json.load(handle)
        assert data["waveforms"]
        assert all(len(wave) > 0 for wave in data["waveforms"].values())
        assert data["meta"]["spec_hash"]

    def test_invalid_job_exits_nonzero(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format_version": 1, "kind": "warp"}')
        out = self._invoke("run", str(bad))
        assert out.returncode == 2
        assert "error:" in out.stderr


class TestVersionSingleSourcing:
    def test_package_version_matches_pyproject(self):
        import repro

        tomllib = pytest.importorskip("tomllib")
        with open(os.path.join(REPO_ROOT, "pyproject.toml"), "rb") as handle:
            pyproject = tomllib.load(handle)
        assert repro.__version__ == pyproject["project"]["version"]

    def test_lazy_api_attribute(self):
        import repro

        assert repro.api.SimulationSpec is SimulationSpec
        with pytest.raises(AttributeError):
            repro.nonexistent_attribute


class TestPydocSurface:
    """``help()`` output is part of the public API surface (docs satellite)."""

    def test_pydoc_renders_top_level_package(self):
        out = subprocess.run(
            [sys.executable, "-m", "pydoc", "repro"],
            capture_output=True, text=True, env=_subprocess_env(), cwd=REPO_ROOT,
        )
        assert out.returncode == 0, out.stderr
        # the package docstring's subsystem map must survive into help()
        for subsystem in ("repro.api", "repro.sweep", "repro.resilience",
                          "repro.service", "docs/"):
            assert subsystem in out.stdout, f"{subsystem!r} missing from pydoc output"

    @pytest.mark.parametrize("module", ["repro.api", "repro.service"])
    def test_pydoc_renders_subpackages(self, module):
        out = subprocess.run(
            [sys.executable, "-m", "pydoc", module],
            capture_output=True, text=True, env=_subprocess_env(), cwd=REPO_ROOT,
        )
        assert out.returncode == 0, out.stderr
        assert "SimulationSpec" in out.stdout or "JobServer" in out.stdout
