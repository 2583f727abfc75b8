"""Shared fixtures: reference device parameters and library macromodels.

The library macromodels take a second or two to fit, so they are built once
per test session.
"""

from __future__ import annotations

import os

import pytest

from repro.macromodel.library import (
    ReferenceDeviceParameters,
    make_reference_driver_macromodel,
    make_reference_receiver_macromodel,
)


@pytest.fixture(scope="session", autouse=True)
def session_cache_dir(tmp_path_factory):
    """Every disk cache of the session (and of its CLI subprocesses) lives
    in a fresh directory, so no test reads an entry an earlier run left."""
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("repro-cache"))
    yield os.environ["REPRO_CACHE_DIR"]
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


@pytest.fixture(scope="session")
def params() -> ReferenceDeviceParameters:
    """Default synthetic 1.8 V CMOS technology parameters."""
    return ReferenceDeviceParameters()


@pytest.fixture(scope="session")
def driver_model(params):
    """Session-wide analytic reference driver macromodel."""
    return make_reference_driver_macromodel(params)


@pytest.fixture(scope="session")
def receiver_model(params):
    """Session-wide analytic reference receiver macromodel."""
    return make_reference_receiver_macromodel(params)
