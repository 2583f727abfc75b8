"""Figure 4 — validation with a linear RC load, four engines.

"The line is excited at the near end by the lumped RBF macromodel of a
commercial device ... The driver forces a bit pattern '010' at its output
port, with a bit time of 2 ns. ... we consider a linear capacitive load
(shunt connection of a 1 pF capacitor and a 500 ohm resistor) ... All the
different curves are very consistent, although they have been computed
using very different simulation engines.  Namely: (i) SPICE with ideal TL
and transistor-level models of the devices; (ii) SPICE with ideal TL and
RBF models of the devices; (iii) 1D-FDTD for the TL and RBF models of the
devices; (iv) 3D-FDTD for the TL and RBF models of the devices."

This module runs all four engines on the same link and reports the
near-end and far-end voltage waveforms plus cross-engine agreement
metrics.  The ideal-TL engines use the *effective* line constants measured
from the discretised 3-D structure (just as the paper quotes effective
values), so that all engines model the same physical line.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from repro.circuits.testbenches import run_link_rbf, run_link_transistor
from repro.core.cosim import LinkDescription, SimulationResult
from repro.core.ports import (
    MacromodelTermination,
    ParallelRCTermination,
)
from repro.experiments.devices import ReferenceMacromodels, identified_reference_macromodels
from repro.experiments.reporting import engine_agreement
from repro.fdtd.courant import courant_time_step
from repro.fdtd.solver1d import FDTD1DLine
from repro.macromodel.driver import LogicStimulus
from repro.structures.validation_line import ValidationLineStructure, estimate_line_parameters

__all__ = ["Figure4Result", "run_figure4", "run_fdtd3d_link", "run_fdtd1d_link"]


@dataclasses.dataclass
class Figure4Result:
    """Outcome of the Figure 4 reproduction.

    Attributes
    ----------
    results:
        Mapping engine label -> :class:`SimulationResult` with ``near_end``
        and ``far_end`` probes.
    z_c, t_d:
        Effective line constants used by the ideal-TL engines.
    agreement:
        Mapping engine label -> per-probe relative RMS deviation from the
        transistor-level SPICE reference (the paper's claim is that these
        are all small, with the 3-D FDTD marginally worse because of
        numerical dispersion).
    link:
        The link description (pattern, bit time, load).
    """

    results: Dict[str, SimulationResult]
    z_c: float
    t_d: float
    agreement: Dict[str, Dict[str, float]]
    link: LinkDescription

    @property
    def engines(self) -> list[str]:
        """Engine labels present in the result."""
        return list(self.results)


def run_fdtd3d_link(
    structure: ValidationLineStructure,
    models: ReferenceMacromodels,
    link: LinkDescription,
) -> SimulationResult:
    """The 3-D FDTD engine for the Figure 4 / Figure 5 link."""
    dt = courant_time_step(structure.mesh_size)
    stimulus = LogicStimulus.from_pattern(link.bit_pattern, link.bit_time)
    driver = MacromodelTermination.from_model(models.driver.bound(stimulus), dt)
    if link.load == "rc":
        load = ParallelRCTermination(link.load_resistance, link.load_capacitance, dt)
    else:
        load = MacromodelTermination.from_model(models.receiver, dt)
    solver, near_site, far_site = structure.build_solver(driver, load, dt=dt)
    times = solver.run(duration=link.duration)
    return SimulationResult(
        times=times,
        voltages={"near_end": near_site.voltages, "far_end": far_site.voltages},
        currents={"near_end": near_site.currents, "far_end": far_site.currents},
        engine="fdtd3d-rbf",
        newton_stats=solver.newton_stats,
        metadata={"dt": dt, "cells": structure.nx * structure.ny * structure.nz,
                  "wall_time": solver.wall_time},
    )


def run_fdtd1d_link(
    models: ReferenceMacromodels,
    link: LinkDescription,
    z_c: float,
    t_d: float,
    n_cells: int = 100,
) -> SimulationResult:
    """The 1-D FDTD engine for the Figure 4 / Figure 5 link.

    A high-start pattern starts the line, both port histories and the load
    capacitor at ``vdd``, like the circuit engine's
    :func:`~repro.circuits.testbenches.run_link_rbf`.
    """
    stimulus = LogicStimulus.from_pattern(link.bit_pattern, link.bit_time)
    v0 = models.params.vdd if stimulus.initial_state == 1 else 0.0
    dt = t_d / n_cells
    driver = MacromodelTermination.from_model(models.driver.bound(stimulus), dt, v0=v0)
    if link.load == "rc":
        load = ParallelRCTermination(
            link.load_resistance, link.load_capacitance, dt, v0=v0
        )
    else:
        load = MacromodelTermination.from_model(models.receiver, dt, v0=v0)
    line = FDTD1DLine(z_c, t_d, driver, load, n_cells=n_cells, v_initial=v0)
    return line.run(link.duration)


def run_figure4(
    scale: float = 1.0,
    use_identification: bool = True,
    circuit_dt: float = 5e-12,
    models: Optional[ReferenceMacromodels] = None,
    measure_line: bool = True,
) -> Figure4Result:
    """Run the four engines of Figure 4 and collect the comparison.

    Parameters
    ----------
    scale:
        Length scale of the 3-D structure (1.0 = the paper's 160-cell
        strips; smaller values shorten the line and the run time, and the
        ideal-TL engines automatically follow the measured delay).
    use_identification:
        Identify the macromodels from the transistor-level devices (the
        paper's workflow); ``False`` uses the fast analytic library models.
    circuit_dt:
        Time step of the two SPICE-class engines.
    models:
        Pre-built macromodels (overrides ``use_identification``).
    measure_line:
        Measure the effective ``(Z_c, T_D)`` from the discretised structure
        (default); otherwise use the paper's nominal 131 ohm / 0.4 ns.
    """
    structure = ValidationLineStructure.paper() if scale >= 1.0 else ValidationLineStructure.scaled(scale)
    if measure_line:
        z_c, t_d = estimate_line_parameters(structure)
    else:
        z_c, t_d = 131.0, 0.4e-9 * scale
    link = LinkDescription(load="rc", z0=z_c, delay=t_d)

    if models is None:
        models = identified_reference_macromodels(use_identification=use_identification)

    results: Dict[str, SimulationResult] = {}
    results["spice-transistor"] = run_link_transistor(link, models.params, dt=circuit_dt)
    results["spice-rbf"] = run_link_rbf(
        link, models.driver, models.receiver, dt=circuit_dt, params=models.params
    )
    results["fdtd1d-rbf"] = run_fdtd1d_link(models, link, z_c, t_d)
    results["fdtd3d-rbf"] = run_fdtd3d_link(structure, models, link)

    reference = results["spice-transistor"]
    agreement = {
        name: engine_agreement(reference, result)
        for name, result in results.items()
        if name != "spice-transistor"
    }
    return Figure4Result(results=results, z_c=z_c, t_d=t_d, agreement=agreement, link=link)
