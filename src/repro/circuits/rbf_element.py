"""RBF macromodels as circuit elements (the "SPICE (RBF model)" engine).

The paper's second reference curve replaces the transistor-level devices
with their RBF macromodels inside the circuit simulator.  This element
wraps a :class:`~repro.core.resampling.ResampledPortModel` — the same
resampled form used inside the FDTD mesh — so the circuit engine and the
field engines share one macromodel implementation, exactly as advocated in
the paper ("the same computational code can be used for very different
devices simply feeding it with the proper model parameters").

The element is a one-port between a node and a reference node: during every
Newton iteration the model is linearised around the candidate port voltage
(a Norton companion with the analytic RBF Jacobian), and the regressor
state is advanced once per accepted time step.
"""

from __future__ import annotations

from repro.circuits.elements import Element, StampContext
from repro.core.resampling import ResampledPortModel

__all__ = ["MacromodelElement"]


class MacromodelElement(Element):
    """A driver or receiver macromodel connected between ``node`` and ``ref``.

    The regressor state advances once per accepted step (``needs_accept``).

    Parameters
    ----------
    model:
        A :class:`~repro.macromodel.driver.DriverMacromodel` (with a logic
        stimulus bound) or :class:`~repro.macromodel.receiver.ReceiverMacromodel`.
    dt:
        The transient solver time step (must not exceed the model sampling
        time, per the paper's Eq. 17).
    v0, i0:
        Initial port voltage and current used to fill the regressor history.

    The port model reads the fast-path switch once, when the element is
    built (see :class:`~repro.core.resampling.ResampledPortModel`).
    """

    needs_accept = True
    # The regressor taps are identified at a fixed sample interval bound at
    # construction; the retry ladder must not advance this element with a
    # locally halved dt (it re-runs the step at full dt instead).
    supports_local_dt = False

    def __init__(
        self,
        name: str,
        node: str,
        ref: str,
        model,
        dt: float,
        v0: float = 0.0,
        i0: float = 0.0,
        allow_unstable: bool = False,
    ):
        super().__init__(name, (node, ref))
        self._v0 = float(v0)
        self._i0 = float(i0)
        self.port = ResampledPortModel(
            model, dt, allow_unstable=allow_unstable, v0=self._v0, i0=self._i0, t0=0.0
        )

    def reset(self) -> None:
        self.port.reset(v0=self._v0, i0=self._i0, t0=0.0)

    def stamp(self, A, rhs, x, ctx: StampContext) -> None:
        node, ref = self.nodes
        v = ctx.node_voltage(x, node) - ctx.node_voltage(x, ref)
        i = self.port.current(v, ctx.t)
        g = self.port.dcurrent_dv(v, ctx.t)
        i_eq = i - g * v
        self._stamp_conductance(A, ctx, node, ref, g)
        self._stamp_current(rhs, ctx, node, ref, i_eq)

    # -- fast path ---------------------------------------------------------
    def prepare_fast(self, compiled) -> None:
        node, ref = self.nodes
        self._fast_idx = (compiled.index_of(node), compiled.index_of(ref))

    def stamp_fast(self, A, rhs, x, ctx: StampContext) -> None:
        """Index-cached :meth:`stamp` used by the fast MNA assembler."""
        i_node, i_ref = self._fast_idx
        vn = x.item(i_node) if i_node is not None else 0.0
        vr = x.item(i_ref) if i_ref is not None else 0.0
        v = vn - vr
        i, g = self.port.current_and_dcurrent(v, ctx.t)
        i_eq = i - g * v
        if i_node is not None:
            A[i_node, i_node] += g
            rhs[i_node] -= i_eq
        if i_ref is not None:
            A[i_ref, i_ref] += g
            rhs[i_ref] += i_eq
        if i_node is not None and i_ref is not None:
            A[i_node, i_ref] -= g
            A[i_ref, i_node] -= g

    def accept(self, x, ctx: StampContext) -> None:
        node, ref = self.nodes
        v = ctx.node_voltage(x, node) - ctx.node_voltage(x, ref)
        self.port.commit(v, ctx.t)

    @property
    def last_current(self) -> float:
        """Port current committed at the last accepted step."""
        return self.port.last_current
