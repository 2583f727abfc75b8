"""Output checks every benchmark job must pass (stdlib only).

A job counts as successful only when its result is complete and sane:
the expected waveform names and lengths, finite samples, a clean health
record and the content hash of the spec that was submitted.  Repeated
requests must reproduce the first answer exactly, and the default seed's
answers must match the reference values kept in ``reference.json``.
"""

from __future__ import annotations

import json
import math
import os

#: relative tolerance of waveform extremes against the reference values
#: (exact spec hashes; float results may differ in the last digits across
#: BLAS builds and thread counts)
REFERENCE_RTOL = 1e-6

DEFAULT_SEED = 1


def check_document(doc: dict, spec_hash: str, names, n_samples: int) -> list:
    """Problems with one result document (``Result.to_dict`` layout).

    ``waveforms`` maps names to sequences (lists from JSON or numpy
    arrays); an empty list means the result is good.
    """
    problems = []
    meta = doc.get("meta") or {}
    if meta.get("spec_hash") != spec_hash:
        problems.append(f"spec_hash {meta.get('spec_hash')!r} != submitted {spec_hash!r}")
    waves = doc.get("waveforms") or {}
    if sorted(waves) != sorted(names):
        problems.append(f"waveform names {sorted(waves)[:4]}... != expected {sorted(names)[:4]}...")
    if len(doc.get("times", ())) != n_samples:
        problems.append(f"{len(doc.get('times', ()))} time samples != expected {n_samples}")
    for name, wave in waves.items():
        if len(wave) != n_samples:
            problems.append(f"waveform {name!r} has {len(wave)} samples, expected {n_samples}")
        elif not all(map(math.isfinite, wave)):
            problems.append(f"waveform {name!r} has non-finite samples")
    health = (doc.get("perf_stats") or {}).get("health")
    if health is not None and not health.get("ok", False):
        problems.append(f"health not ok: {health.get('failure_counts')}")
    return problems


def extremes(doc: dict, name: str = "far_end") -> list:
    wave = doc["waveforms"][name]
    return [float(min(wave)), float(max(wave))]


def load_reference(here: str) -> dict:
    with open(os.path.join(here, "reference.json"), encoding="utf-8") as handle:
        return json.load(handle)


def compare_reference(expected, observed, path: str = "") -> list:
    """Differences between a reference record and an observed one.

    Strings and integers compare exactly, floats to :data:`REFERENCE_RTOL`;
    dicts and lists recurse.
    """
    if isinstance(expected, dict):
        if not isinstance(observed, dict):
            return [f"{path}: expected a mapping"]
        out = []
        for key, value in expected.items():
            out += compare_reference(value, observed.get(key), f"{path}.{key}")
        return out
    if isinstance(expected, list):
        if not isinstance(observed, list) or len(observed) != len(expected):
            return [f"{path}: expected {len(expected)} entries, got {observed!r}"]
        out = []
        for k, (a, b) in enumerate(zip(expected, observed)):
            out += compare_reference(a, b, f"{path}[{k}]")
        return out
    if isinstance(expected, float):
        if not isinstance(observed, (int, float)) or not math.isclose(
            expected, observed, rel_tol=REFERENCE_RTOL, abs_tol=1e-12
        ):
            return [f"{path}: {observed!r} != reference {expected!r}"]
        return []
    if expected != observed:
        return [f"{path}: {observed!r} != reference {expected!r}"]
    return []
