"""One-dimensional transmission-line FDTD solver (the "1D-FDTD" engine).

The paper's third validation engine solves the ideal transmission line with
a 1-D FDTD scheme while the terminations are the RBF macromodels.  This
module implements the classic staggered leapfrog discretisation of the
telegrapher's equations,

    dV/dx = -L' dI/dt ,      dI/dx = -C' dV/dt ,

with the line described by its characteristic impedance ``Z0`` and one-way
delay ``Td`` (``L' = Z0 Td / len``, ``C' = Td / (Z0 len)``), and with both
end nodes terminated by arbitrary :class:`~repro.core.ports.LumpedTermination`
objects.  The termination update has exactly the shape of the hybrid cell
equation (see :mod:`repro.core.lumped_rbf`), so linear loads and Newton-
iterated macromodel ports are handled uniformly — this is the 1-D
counterpart of the paper's Eq. (8).
"""

from __future__ import annotations

import numpy as np

from repro import perf
from repro.core.cosim import SimulationResult
from repro.core.lumped_rbf import HybridCellUpdate
from repro.core.newton import NewtonOptions, NewtonStats
from repro.core.ports import LumpedTermination

__all__ = ["FDTD1DLine"]


class FDTD1DLine:
    """A terminated transmission line solved with 1-D FDTD.

    Parameters
    ----------
    z0:
        Characteristic impedance (ohms).
    delay:
        One-way propagation delay (seconds).
    near_termination, far_termination:
        Lumped terminations at the two ends (current positive *into* the
        termination).
    n_cells:
        Number of spatial cells along the line.
    courant:
        Fraction of the 1-D Courant limit used for the time step (the limit
        is ``delay / n_cells``).
    v_initial:
        Initial line voltage (0 V for the paper's '010' stimulus).
    newton_options:
        Settings for the termination Newton solves.

    On the fast path (:func:`repro.perf.fastpath_default` at construction)
    the interior leapfrog runs through preallocated scratch buffers
    (allocation-free stepping; numerically identical).
    """

    def __init__(
        self,
        z0: float,
        delay: float,
        near_termination: LumpedTermination,
        far_termination: LumpedTermination,
        n_cells: int = 100,
        courant: float = 1.0,
        v_initial: float = 0.0,
        newton_options: NewtonOptions | None = None,
    ):
        if z0 <= 0 or delay <= 0:
            raise ValueError("z0 and delay must be positive")
        if n_cells < 4:
            raise ValueError("n_cells must be at least 4")
        if not 0 < courant <= 1:
            raise ValueError("courant must lie in (0, 1]")
        self.z0 = float(z0)
        self.delay = float(delay)
        self.n_cells = int(n_cells)
        # Normalised line length of 1 m; only the products matter.
        self.length = 1.0
        self.dx = self.length / self.n_cells
        self.l_per_m = self.z0 * self.delay / self.length
        self.c_per_m = self.delay / (self.z0 * self.length)
        self.dt = courant * self.delay / self.n_cells
        self.v_initial = float(v_initial)
        self.near = near_termination
        self.far = far_termination
        self.newton_options = newton_options or NewtonOptions()
        self.newton_stats = NewtonStats()
        self.fast = perf.fastpath_default()

    def run(self, duration: float) -> SimulationResult:
        """Run a transient of the given duration and return the port waveforms."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        n_steps = int(round(duration / self.dt))
        n = self.n_cells

        v = np.full(n + 1, self.v_initial)
        i = np.zeros(n)

        near_update = HybridCellUpdate(self.near, self.newton_options, self.newton_stats)
        far_update = HybridCellUpdate(self.far, self.newton_options, self.newton_stats)

        # Interior update coefficients.
        ci = self.dt / (self.l_per_m * self.dx)
        cv = self.dt / (self.c_per_m * self.dx)
        # Termination coefficients: half a cell of capacitance at each end.
        a_end = self.c_per_m * self.dx / (2.0 * self.dt)
        c_end = -0.5

        times = self.dt * np.arange(1, n_steps + 1)
        v_near = np.empty(n_steps)
        v_far = np.empty(n_steps)
        i_near = np.empty(n_steps)
        i_far = np.empty(n_steps)

        # Scratch buffers for allocation-free stepping (fast path); the
        # arithmetic is identical to the naive slice expressions.
        fast = self.fast
        if fast:
            dv_buf = np.empty(n)
            di_buf = np.empty(n - 1)

        for step in range(n_steps):
            t_new = times[step]
            if fast:
                # current update (half step)
                np.subtract(v[1:], v[:-1], out=dv_buf)
                dv_buf *= ci
                i -= dv_buf
                # interior voltage update
                np.subtract(i[1:], i[:-1], out=di_buf)
                di_buf *= cv
                v[1:-1] -= di_buf
            else:
                # current update (half step)
                i -= ci * (v[1:] - v[:-1])
                # interior voltage update
                v[1:-1] -= cv * (i[1:] - i[:-1])
            # near-end termination (node 0): a v - b - c (i_new + i_old) = 0
            b_near = a_end * v[0] - i[0]
            v0_new, i0_new = near_update.solve(a_end, b_near, c_end, v[0], t_new)
            v[0] = v0_new
            # far-end termination (node n)
            b_far = a_end * v[n] + i[n - 1]
            vn_new, in_new = far_update.solve(a_end, b_far, c_end, v[n], t_new)
            v[n] = vn_new

            v_near[step] = v0_new
            v_far[step] = vn_new
            i_near[step] = i0_new
            i_far[step] = in_new

        return SimulationResult(
            times=times,
            voltages={"near_end": v_near, "far_end": v_far},
            currents={"near_end": i_near, "far_end": i_far},
            engine="fdtd1d-rbf",
            newton_stats=self.newton_stats,
            metadata={
                "dt": self.dt,
                "n_cells": self.n_cells,
                "z0": self.z0,
                "delay": self.delay,
            },
        )
