"""Identification of the reference macromodels from transistor-level devices.

The paper's macromodels are identified once, upstream of every simulation,
from transient responses of the transistor-level devices ("the parameters
are computed only once through a rigorous identification procedure and are
used for all subsequent simulations").  This module reproduces that
workflow end-to-end with the substitute devices of
:mod:`repro.circuits.devices`:

1. fixed-state port records (input held HIGH or LOW, output swept by a
   multilevel source) → the two driver submodels ``i_u`` and ``i_d``;
2. switching records under two different resistive loads → the weight
   templates ``w_u^m``, ``w_d^m`` for both transition directions;
3. receiver records inside the rails → the linear submodel, and records
   beyond the rails → the two protection submodels (fitted to the residual
   left by the linear part).

Identification costs a few seconds of circuit simulation, so its result
goes through the one model cache of :mod:`repro.api.models` (in-process
memo and disk entry), like every other ``devices.source``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.circuits.testbenches import (
    multilevel_excitation,
    record_fixed_state,
    record_receiver_port,
    record_switching,
)
from repro.macromodel.driver import DriverMacromodel, SwitchingWeights
from repro.macromodel.identification import (
    SwitchingRecord,
    extract_switching_weights,
    fit_linear_submodel,
    fit_rbf_submodel,
)
from repro.macromodel.library import ReferenceDeviceParameters
from repro.macromodel.receiver import ReceiverMacromodel

__all__ = [
    "ReferenceMacromodels",
    "identified_reference_macromodels",
]


@dataclasses.dataclass
class ReferenceMacromodels:
    """The pair of macromodels used by every RBF-based engine."""

    driver: DriverMacromodel
    receiver: ReceiverMacromodel
    params: ReferenceDeviceParameters
    source: str = "identified"


def _identify_driver(params: ReferenceDeviceParameters, n_centers: int, seed: int) -> DriverMacromodel:
    ts = params.sampling_time
    # Fixed-state records: 50 ns multilevel sweep exploring slightly beyond
    # the rails (where the clamp diodes act).
    duration = 50e-9
    excitation = multilevel_excitation(-0.5, params.vdd + 0.5, duration, n_levels=60, seed=seed)
    v_hi, i_hi = record_fixed_state(params, "high", excitation, duration, dt=ts)
    v_lo, i_lo = record_fixed_state(params, "low", excitation, duration, dt=ts)
    fit_up = fit_rbf_submodel(
        v_hi, i_hi, params.dynamic_order, n_centers=n_centers, beta=0.5,
        v_scale=params.vdd, seed=seed,
    )
    fit_down = fit_rbf_submodel(
        v_lo, i_lo, params.dynamic_order, n_centers=n_centers, beta=0.5,
        v_scale=params.vdd, seed=seed + 1,
    )

    # Switching records under two loads (to ground and to the supply).
    sw_duration = 4e-9
    records_up = [
        SwitchingRecord(*record_switching(params, 100.0, False, "up", duration=sw_duration, dt=ts)),
        SwitchingRecord(*record_switching(params, 100.0, True, "up", duration=sw_duration, dt=ts)),
    ]
    records_down = [
        SwitchingRecord(*record_switching(params, 100.0, False, "down", duration=sw_duration, dt=ts)),
        SwitchingRecord(*record_switching(params, 100.0, True, "down", duration=sw_duration, dt=ts)),
    ]
    up_wu, up_wd = extract_switching_weights(
        fit_up.submodel, fit_down.submodel, records_up, ts, "up"
    )
    down_wu, down_wd = extract_switching_weights(
        fit_up.submodel, fit_down.submodel, records_down, ts, "down"
    )
    weights = SwitchingWeights(
        template_dt=ts, up_wu=up_wu, up_wd=up_wd, down_wu=down_wu, down_wd=down_wd
    )
    return DriverMacromodel(
        submodel_up=fit_up.submodel,
        submodel_down=fit_down.submodel,
        weights=weights,
        sampling_time=ts,
        name="cmos18_driver_identified",
    )


def _identify_receiver(params: ReferenceDeviceParameters, n_centers: int, seed: int) -> ReceiverMacromodel:
    ts = params.sampling_time
    duration = 30e-9
    # In-rail record for the linear submodel.
    exc_lin = multilevel_excitation(0.1, params.vdd - 0.1, duration, n_levels=40, seed=seed + 20)
    v_lin, i_lin = record_receiver_port(params, exc_lin, duration, dt=ts)
    linear_fit = fit_linear_submodel(v_lin, i_lin, params.dynamic_order)
    linear = linear_fit.submodel

    # Over/undershoot records for the protection submodels, fitted to the
    # residual current left by the linear part.  The records span the whole
    # operating range so the fitted Gaussians stay quiet inside the rails.
    exc_up = multilevel_excitation(0.0, params.vdd + 1.0, duration, n_levels=40, seed=seed + 21)
    v_up, i_up = record_receiver_port(params, exc_up, duration, dt=ts)
    exc_dn = multilevel_excitation(-1.0, params.vdd, duration, n_levels=40, seed=seed + 22)
    v_dn, i_dn = record_receiver_port(params, exc_dn, duration, dt=ts)

    def residual(v: np.ndarray, i: np.ndarray) -> np.ndarray:
        r = params.dynamic_order
        out = np.zeros_like(i)
        from repro.macromodel.regressor import build_regression_data

        v_now, x_v, x_i, _ = build_regression_data(v, i, r)
        out[r:] = i[r:] - linear.current_batch(v_now, x_v, x_i)
        return out

    fit_up = fit_rbf_submodel(
        v_up, i_up, params.dynamic_order, n_centers=n_centers, beta=0.25,
        v_scale=params.vdd, i_scale=1.0, seed=seed + 2, target=residual(v_up, i_up),
    )
    fit_dn = fit_rbf_submodel(
        v_dn, i_dn, params.dynamic_order, n_centers=n_centers, beta=0.25,
        v_scale=params.vdd, i_scale=1.0, seed=seed + 3, target=residual(v_dn, i_dn),
    )
    return ReceiverMacromodel(
        linear=linear,
        protection_up=fit_up.submodel,
        protection_down=fit_dn.submodel,
        sampling_time=ts,
        name="cmos18_receiver_identified",
    )


def identified_reference_macromodels(
    params: ReferenceDeviceParameters | None = None,
    n_centers: int = 150,
    seed: int = 0,
    use_identification: bool = True,
) -> ReferenceMacromodels:
    """The driver/receiver macromodel pair used by the experiments.

    With ``use_identification=True`` (default) the models are identified
    from the transistor-level circuits exactly as in the paper's workflow;
    with ``False`` the fast analytic library models are returned instead
    (useful for unit tests; ``n_centers`` is then ignored).  Both are
    served by :func:`repro.api.models.cached_models` under the equivalent
    ``devices`` block, so a job naming the same devices shares the entry.
    """
    from repro.api.models import cached_models
    from repro.api.spec import DeviceSpec

    params = params or ReferenceDeviceParameters()
    default = ReferenceDeviceParameters()
    overrides = {
        field.name: getattr(params, field.name)
        for field in dataclasses.fields(params)
        if getattr(params, field.name) != getattr(default, field.name)
    }
    if use_identification:
        devices = DeviceSpec(
            source="identified", n_centers=n_centers, seed=seed, params=overrides
        )
    else:
        devices = DeviceSpec(source="library", seed=seed, params=overrides)
    return cached_models(devices)
