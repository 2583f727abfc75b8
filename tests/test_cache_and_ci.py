"""Disk-cache robustness under concurrent CI runs, and CI pipeline validity."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro import cache
from repro.api import DeviceSpec
from repro.api import models as model_cache
from repro.experiments import devices as dev

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKFLOW = os.path.join(REPO_ROOT, ".github", "workflows", "ci.yml")
LINEAR_JOB = os.path.join("examples", "jobs", "linear_link.json")


def _invoke_cli(*args: str, fault_plan: str | None = None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    if fault_plan is not None:
        env["REPRO_FAULT_PLAN"] = fault_plan
    else:
        env.pop("REPRO_FAULT_PLAN", None)
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
    )


class TestResilienceCLI:
    def test_clean_run_prints_health_and_exits_zero(self):
        out = _invoke_cli("run", LINEAR_JOB, "--quick")
        assert out.returncode == 0, out.stderr
        assert "health:" in out.stdout
        assert "ok=True" in out.stdout

    def test_resilience_flags_are_accepted(self):
        out = _invoke_cli(
            "run", LINEAR_JOB, "--quick",
            "--max-retries", "2", "--on-nonconvergence", "warn",
        )
        assert out.returncode == 0, out.stderr
        assert "health:" in out.stdout

    def test_poisoned_scenario_exits_nonzero_with_taxonomy_line(self):
        out = _invoke_cli(
            "run", LINEAR_JOB, "--quick",
            fault_plan="nan@*x*:scenario=010/weak-load",
        )
        assert out.returncode == 3, out.stdout + out.stderr
        assert "FAILED scenario 010/weak-load" in out.stderr
        assert "nan_inf" in out.stderr
        # The other scenarios still completed and were summarised.
        assert "health:" in out.stdout

    def test_transient_fault_recovers_to_exit_zero(self):
        out = _invoke_cli(
            "run", LINEAR_JOB, "--quick",
            fault_plan="nan@5:scenario=010/nominal",
        )
        assert out.returncode == 0, out.stdout + out.stderr
        assert "health:" in out.stdout
        assert "nan_inf=1" in out.stdout

    def test_nonconvergence_warn_override_commits(self):
        out = _invoke_cli(
            "run", LINEAR_JOB, "--quick", "--on-nonconvergence", "warn",
            fault_plan="nonconvergence@5:scenario=010/nominal",
        )
        assert out.returncode == 0, out.stdout + out.stderr
        assert "nonconverged_commits=1" in out.stdout


class TestIdentificationCacheRobustness:
    @pytest.fixture
    def stub_identification(self, tmp_path, monkeypatch, driver_model, receiver_model):
        """Identification stubbed with counters, over an empty cache."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
        monkeypatch.setattr(model_cache, "_MEMO", {})
        calls = {"driver": 0, "receiver": 0}

        def fake_driver(p, n_centers, seed):
            calls["driver"] += 1
            return driver_model

        def fake_receiver(p, n_centers, seed):
            calls["receiver"] += 1
            return receiver_model

        monkeypatch.setattr(dev, "_identify_driver", fake_driver)
        monkeypatch.setattr(dev, "_identify_receiver", fake_receiver)
        devices = DeviceSpec(source="identified", n_centers=10, seed=0)
        key = model_cache.model_cache_key(devices)
        path = model_cache.model_cache_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return calls, key, path

    def test_corrupt_entry_is_removed_and_reidentified(
        self, monkeypatch, params, stub_identification
    ):
        calls, key, path = stub_identification
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"driver": {"truncated by a concurr')

        models = dev.identified_reference_macromodels(params, n_centers=10, seed=0)
        # Corrupt entry fell back to (stubbed) re-identification, did not raise.
        assert calls == {"driver": 1, "receiver": 1}
        assert models.source == "identified"
        # The entry was rewritten as a checksum-wrapped cache document.
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        assert set(document) == {"cache_format", "checksum", "payload"}
        assert set(document["payload"]) == {"key", "driver", "receiver"}

        # A fresh process (cleared memory cache) now loads it from disk.
        monkeypatch.setattr(model_cache, "_MEMO", {})
        again = dev.identified_reference_macromodels(params, n_centers=10, seed=0)
        assert again.source == "identified"
        assert calls == {"driver": 1, "receiver": 1}

    def test_corrupt_entry_is_unlinked_on_load_failure(
        self, monkeypatch, params, stub_identification
    ):
        calls, key, path = stub_identification
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("not json at all")
        # With identification failing, the corrupt entry is gone all the same.
        monkeypatch.setattr(dev, "_identify_driver", _raise_runtime_error)
        with pytest.raises(RuntimeError):
            dev.identified_reference_macromodels(params, n_centers=10, seed=0)
        assert not os.path.exists(path)

    def test_structurally_wrong_entry_also_recovers(
        self, monkeypatch, params, stub_identification
    ):
        calls, key, path = stub_identification
        cache.atomic_write_json(
            path, {"key": key, "driver": {"wrong": "schema"}, "receiver": {}}
        )
        monkeypatch.setattr(dev, "_identify_driver", _raise_runtime_error)
        with pytest.raises(RuntimeError):
            dev.identified_reference_macromodels(params, n_centers=10, seed=0)
        assert not os.path.exists(path)


def _raise_runtime_error(*args):
    raise RuntimeError("refit stopped: the entry must already be gone")


class TestCIPipeline:
    @pytest.fixture(scope="class")
    def workflow(self):
        yaml = pytest.importorskip("yaml")
        with open(WORKFLOW, "r", encoding="utf-8") as handle:
            parsed = yaml.safe_load(handle)
        assert isinstance(parsed, dict)
        return parsed

    def test_workflow_parses_and_has_expected_jobs(self, workflow):
        assert {"test", "lint", "nightly-full"} <= set(workflow["jobs"])

    def test_quick_tier_excludes_slow_and_spans_two_pythons(self, workflow):
        test_job = workflow["jobs"]["test"]
        versions = test_job["strategy"]["matrix"]["python-version"]
        assert len(versions) == 2
        commands = " ".join(
            step.get("run", "") for step in test_job["steps"] if isinstance(step, dict)
        )
        assert 'not slow' in commands
        assert "pip install -e" in commands
        # pip caching is enabled on the setup-python step
        setup = next(
            step for step in test_job["steps"]
            if "setup-python" in str(step.get("uses", ""))
        )
        assert setup["with"]["cache"] == "pip"

    def test_quick_tier_runs_cli_smoke(self, workflow):
        test_job = workflow["jobs"]["test"]
        commands = " ".join(
            step.get("run", "") for step in test_job["steps"] if isinstance(step, dict)
        )
        assert "python -m repro run examples/jobs/linear_link.json --quick" in commands
        assert "python -m repro run examples/jobs/sparse_ladder.json --quick" in commands
        assert "python -m repro list-engines" in commands
        # the smoke steps must actually assert on the artifacts: a waveform
        # in the linear result, the sparse backend + its single symbolic
        # factorization in the sparse one
        assert "waveforms" in commands
        assert "symbolic_factorizations" in commands
        uploads = [
            step for step in test_job["steps"]
            if "upload-artifact" in str(step.get("uses", ""))
        ]
        assert uploads and "linear_link.result.json" in uploads[0]["with"]["path"]
        assert "sparse_ladder.result.json" in uploads[0]["with"]["path"]

    def test_quick_tier_runs_backend_smoke(self, workflow):
        # The backend-equivalence suite runs as its own named step on both
        # python versions (the matrix covers them).
        test_job = workflow["jobs"]["test"]
        commands = [
            step.get("run", "") for step in test_job["steps"] if isinstance(step, dict)
        ]
        assert any(
            "-k backend" in command and 'not slow' in command for command in commands
        )

    def test_quick_tier_runs_banks_smoke(self, workflow):
        # The element-bank differential suite (banked vs scalar stamping)
        # runs as its own named quick-tier step.
        test_job = workflow["jobs"]["test"]
        commands = [
            step.get("run", "") for step in test_job["steps"] if isinstance(step, dict)
        ]
        assert any(
            '-k "banks"' in command and 'not slow' in command for command in commands
        )

    def test_quick_tier_runs_resilience_smoke(self, workflow):
        # The fault-injection/retry/quarantine suite runs as its own named
        # quick-tier step.
        test_job = workflow["jobs"]["test"]
        commands = [
            step.get("run", "") for step in test_job["steps"] if isinstance(step, dict)
        ]
        assert any(
            "-k resilience" in command and 'not slow' in command
            for command in commands
        )

    def test_quick_tier_runs_model_cache_smoke(self, workflow):
        # The model-cache suite plus a cold/warm rbf_link CLI pair on a
        # fresh cache directory: one models/ entry, identical waveforms.
        test_job = workflow["jobs"]["test"]
        step = next(
            step for step in test_job["steps"]
            if isinstance(step, dict) and "-k model_cache" in step.get("run", "")
        )
        assert 'not slow' in step["run"]
        assert "REPRO_CACHE_DIR" in step.get("env", {})
        assert step["run"].count("python -m repro run examples/jobs/rbf_link.json --quick") == 2
        assert "'models'" in step["run"] and "len(entries) == 1" in step["run"]
        assert "warm['waveforms'] == cold['waveforms']" in step["run"]

    def test_nightly_runs_resilience_fault_matrix(self, workflow):
        # The nightly tier drives the full resilience suite plus CLI-level
        # fault plans: a transient fault that must recover (exit 0) and a
        # poisoned scenario that must exit 3.
        nightly = workflow["jobs"]["nightly-full"]
        commands = " ".join(
            step.get("run", "") for step in nightly["steps"] if isinstance(step, dict)
        )
        assert "tests/test_resilience.py" in commands
        assert "REPRO_FAULT_PLAN=" in commands
        assert "-eq 3" in commands

    def test_coverage_job_gates_and_uploads(self, workflow):
        # The coverage job measures the quick tier over the installed
        # package, fails below the pinned floor and uploads the XML report.
        coverage = workflow["jobs"]["coverage"]
        commands = " ".join(
            step.get("run", "") for step in coverage["steps"] if isinstance(step, dict)
        )
        assert "--cov=repro" in commands
        assert "--cov-report=xml" in commands
        floor = int(commands.split("--cov-fail-under=")[1].split()[0])
        assert floor >= 70  # pinned below the measured seed value, not token
        uploads = [
            step for step in coverage["steps"]
            if "upload-artifact" in str(step.get("uses", ""))
        ]
        assert uploads and "coverage.xml" in uploads[0]["with"]["path"]
        # the tool backing the flag is a declared dev dependency
        try:
            import tomllib
        except ImportError:  # pragma: no cover - py310
            pytest.skip("tomllib unavailable")
        with open(os.path.join(REPO_ROOT, "pyproject.toml"), "rb") as handle:
            pyproject = tomllib.load(handle)
        dev = pyproject["project"]["optional-dependencies"]["dev"]
        assert any(dep.startswith("pytest-cov") for dep in dev)

    def test_nightly_runs_slow_tier_and_perf_smoke(self, workflow):
        nightly = workflow["jobs"]["nightly-full"]
        commands = " ".join(
            step.get("run", "") for step in nightly["steps"] if isinstance(step, dict)
        )
        assert "bench_perf_report.py" in commands and "--min-speedup 1.0" in commands
        assert "bench_sweep.py" in commands
        assert "bench_sparse.py --quick" in commands
        uploads = [step for step in nightly["steps"] if "upload-artifact" in str(step.get("uses", ""))]
        assert uploads and "BENCH_perf.json" in uploads[0]["with"]["path"]
        assert "BENCH_sparse.json" in uploads[0]["with"]["path"]

    def test_triggers_include_pushes_prs_and_schedule(self, workflow):
        # pyyaml parses the bare `on:` key as boolean True (YAML 1.1).
        triggers = workflow.get("on", workflow.get(True))
        assert "pull_request" in triggers
        assert "push" in triggers
        assert "schedule" in triggers

    def test_slow_marker_is_registered(self):
        # The quick tier depends on `-m "not slow"` deselecting, not erroring.
        try:
            import tomllib
        except ImportError:  # pragma: no cover - py310
            pytest.skip("tomllib unavailable")
        with open(os.path.join(REPO_ROOT, "pyproject.toml"), "rb") as handle:
            pyproject = tomllib.load(handle)
        markers = pyproject["tool"]["pytest"]["ini_options"]["markers"]
        assert any(m.startswith("slow") for m in markers)
