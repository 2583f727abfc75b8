"""Lumped port terminations shared by every solver backend.

The paper inserts lumped elements — ordinary R/C loads as well as the RBF
macromodels — inside the FDTD mesh.  All solver backends in this repository
(1-D FDTD, 3-D FDTD and the terminated-line circuit wrapper) interact with
a termination through the same small interface:

* ``current(v, t)`` — the element current for a *candidate* port voltage at
  the current time step, using whatever internal state the element carries;
* ``dcurrent_dv(v, t)`` — its analytic derivative (for Newton-Raphson);
* ``commit(v, t)`` — accept the solver's converged voltage for this step
  and advance the internal state to the next step, returning the committed
  current.

The sign convention is that the current flows *into* the termination (out
of the interconnect).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.resampling import ResampledPortModel

__all__ = [
    "LumpedTermination",
    "OpenTermination",
    "ResistorTermination",
    "ResistiveSourceTermination",
    "ParallelRCTermination",
    "MacromodelTermination",
]


class LumpedTermination:
    """Base class of all lumped terminations (see module docstring)."""

    #: True when ``current`` is a nonlinear function of ``v`` and the host
    #: solver must iterate; linear terminations can be folded analytically.
    nonlinear: bool = False

    #: True when ``dcurrent_dv`` never changes over a run (all the provided
    #: linear terminations); lets host solvers cache the conductance.
    constant_conductance: bool = False

    def current(self, v: float, t: float) -> float:
        """Element current for candidate voltage ``v`` at time ``t``."""
        raise NotImplementedError

    def dcurrent_dv(self, v: float, t: float) -> float:
        """Analytic derivative of :meth:`current` with respect to ``v``."""
        raise NotImplementedError

    def current_and_dcurrent(self, v: float, t: float) -> tuple[float, float]:
        """Fused ``(current, dcurrent_dv)`` evaluation.

        The default calls the two methods separately; macromodel
        terminations override it to share one basis evaluation between the
        value and the derivative (see :mod:`repro.perf.rbf_fast`).
        """
        return self.current(v, t), self.dcurrent_dv(v, t)

    def commit(self, v: float, t: float) -> float:
        """Accept ``v`` for this step, advance state, return the current."""
        i = self.current(v, t)
        self.last_current = i
        self.last_voltage = v
        return i

    def reset(self, v0: float = 0.0, i0: float = 0.0, t0: float = 0.0) -> None:
        """Reset any internal state before a new transient run."""
        self.last_current = float(i0)
        self.last_voltage = float(v0)

    #: Current committed at the previous step (used by trapezoidal couplings).
    last_current: float = 0.0
    last_voltage: float = 0.0


class OpenTermination(LumpedTermination):
    """An open circuit (zero current for any voltage)."""

    constant_conductance = True

    def current(self, v: float, t: float) -> float:
        return 0.0

    def dcurrent_dv(self, v: float, t: float) -> float:
        return 0.0


class ResistorTermination(LumpedTermination):
    """A linear resistor to the reference conductor."""

    constant_conductance = True

    def __init__(self, resistance: float):
        if resistance <= 0:
            raise ValueError("resistance must be positive")
        self.resistance = float(resistance)
        self.reset()

    def current(self, v: float, t: float) -> float:
        return v / self.resistance

    def dcurrent_dv(self, v: float, t: float) -> float:
        return 1.0 / self.resistance


class ResistiveSourceTermination(LumpedTermination):
    """A Thevenin source: ideal voltage waveform behind a series resistance.

    Used for the matched 50 ohm terminations of the PCB example and as a
    simple linear stand-in for a driver.
    """

    constant_conductance = True

    def __init__(self, resistance: float, source: Optional[Callable[[float], float]] = None):
        if resistance <= 0:
            raise ValueError("resistance must be positive")
        self.resistance = float(resistance)
        self.source = source
        self.reset()

    def _vs(self, t: float) -> float:
        return float(self.source(t)) if self.source is not None else 0.0

    def current(self, v: float, t: float) -> float:
        return (v - self._vs(t)) / self.resistance

    def dcurrent_dv(self, v: float, t: float) -> float:
        return 1.0 / self.resistance


class ParallelRCTermination(LumpedTermination):
    """The paper's Figure 4 load: a capacitor in parallel with a resistor.

    The capacitor current is discretised with a backward difference at the
    host solver's time step, ``i_C^{n+1} = C (v^{n+1} - v^n) / dt``, so the
    element must be constructed with the solver ``dt`` and committed once
    per step.
    """

    constant_conductance = True

    def __init__(self, resistance: float, capacitance: float, dt: float, v0: float = 0.0):
        if resistance <= 0 or capacitance < 0 or dt <= 0:
            raise ValueError("resistance and dt must be positive, capacitance >= 0")
        self.resistance = float(resistance)
        self.capacitance = float(capacitance)
        self.dt = float(dt)
        self.reset(v0=v0)

    def reset(self, v0: float = 0.0, i0: float = 0.0, t0: float = 0.0) -> None:
        super().reset(v0=v0, i0=i0, t0=t0)
        self._v_prev = float(v0)

    def current(self, v: float, t: float) -> float:
        return v / self.resistance + self.capacitance * (v - self._v_prev) / self.dt

    def dcurrent_dv(self, v: float, t: float) -> float:
        return 1.0 / self.resistance + self.capacitance / self.dt

    def commit(self, v: float, t: float) -> float:
        i = self.current(v, t)
        self._v_prev = float(v)
        self.last_current = i
        self.last_voltage = float(v)
        return i


class MacromodelTermination(LumpedTermination):
    """A resampled RBF macromodel used as a lumped termination.

    This is the element the paper inserts into the FDTD mesh: it wraps a
    :class:`~repro.core.resampling.ResampledPortModel` and is therefore
    valid for any solver time step ``dt <= Ts``.
    """

    nonlinear = True

    def __init__(self, port: ResampledPortModel):
        self.port = port
        # Bind-through: these instance attributes shadow the class methods,
        # removing one frame per Newton evaluation.  ``port`` is mutated in
        # place by reset/commit, so the bound methods stay valid.
        self.current = port.current
        self.dcurrent_dv = port.dcurrent_dv
        self.current_and_dcurrent = port.current_and_dcurrent
        self.reset(v0=port.last_voltage, i0=port.last_current, t0=port.time)

    @classmethod
    def from_model(
        cls,
        model,
        dt: float,
        v0: float = 0.0,
        i0: float = 0.0,
        t0: float = 0.0,
        allow_unstable: bool = False,
    ) -> "MacromodelTermination":
        """Build the termination directly from a driver/receiver macromodel."""
        port = ResampledPortModel(
            model, dt, allow_unstable=allow_unstable, v0=v0, i0=i0, t0=t0
        )
        return cls(port)

    def reset(self, v0: float = 0.0, i0: float = 0.0, t0: float = 0.0) -> None:
        super().reset(v0=v0, i0=i0, t0=t0)
        if hasattr(self, "port"):
            self.port.reset(v0=v0, i0=i0, t0=t0)

    def current(self, v: float, t: float) -> float:
        return self.port.current(v, t)

    def dcurrent_dv(self, v: float, t: float) -> float:
        return self.port.dcurrent_dv(v, t)

    def current_and_dcurrent(self, v: float, t: float) -> tuple[float, float]:
        return self.port.current_and_dcurrent(v, t)

    def commit(self, v: float, t: float) -> float:
        i = self.port.commit(v, t)
        self.last_current = i
        self.last_voltage = float(v)
        return i
