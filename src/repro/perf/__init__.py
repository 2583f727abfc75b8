"""Fast-path kernel layer shared by the three simulation engines.

The reproduction's physics is cheap — a handful of Gaussian evaluations per
Newton iteration, a few stencil sweeps per FDTD step — but the seed
implementation paid for it with Python/NumPy overhead: per-iteration matrix
allocation and full re-stamping in the MNA solver, ``(N, L, D)`` broadcasts
in the RBF basis, and temporary-allocating field updates in the FDTD
steppers.  This package concentrates the optimised kernels:

* :mod:`repro.perf.mna` — split static/dynamic MNA assembly with
  preallocated work arrays and a cached LU factorisation (purely linear
  circuits factor exactly once per transient).
* :mod:`repro.perf.backends` — pluggable linear-solver backends behind
  the assembler: the dense LAPACK path and a sparse-CSC path (COO-recorded
  stamps, cached sparsity pattern, ``splu``) selected automatically above
  ``REPRO_SPARSE_THRESHOLD`` unknowns or pinned via
  ``TransientOptions(backend=...)`` / the ``engine.sparse_mna`` job option.
* :mod:`repro.perf.rbf_fast` — separable evaluation of the Gaussian RBF
  macromodels (paper Eqs. 3-4): within one time step's Newton solve only
  the present port voltage changes while the regressor states are frozen,
  so the state-dependent Gaussian factor is computed once per step and only
  a one-dimensional Gaussian in ``v`` remains per iteration.
* :mod:`repro.perf.fdtd_fast` — allocation-free Yee updates with the
  ``1/dx`` divisions folded into precomputed coefficients, plus flat-index
  PEC/dielectric application with precomputed plane-wave retardation.

Every fast path is numerically equivalent to the naive reference
implementation (bit-compatible or well below 1e-12 relative, enforced by
``tests/test_perf_fastpath.py``); the reference paths survive as oracles
and are selected with the switch below.

A handful of numerically-neutral cleanups are shared by both paths rather
than gated: the Gram-form ``basis()`` with cached centre norms, the scalar
waveform fast paths, the transmission-line history buffers and the snapping
of numerically-zero plane-wave direction components.  These change results
by at most ~1 ulp per evaluation (the snap removes a physically meaningless
1e-17-scale field), so the reference oracle remains equivalent to the
seed within the same tolerance the equivalence suite enforces.

The switch
----------
There is one fast/reference choice, with two settable forms:

* ``REPRO_FASTPATH`` — the process default (on unless ``0`` / ``false`` /
  ``off`` / ``no``; re-read on every call, so it may be set at any time);
* :func:`use_fastpath` — a context manager that overrides it for the
  calling thread only (a :class:`contextvars.ContextVar`), so concurrent
  daemon jobs each keep their own ``engine.fast``.  ``None`` follows the
  environment; blocks nest and restore on exit.

Every solver and port model reads :func:`fastpath_default` once, when it
is built, and keeps that decision; parts a solver wires up itself (Mur
boundaries, lumped-site incident fields) take the solver's decision.
"""

from __future__ import annotations

import contextlib
import contextvars
import os

__all__ = ["fastpath_default", "use_fastpath"]


def _env_default() -> bool:
    return os.environ.get("REPRO_FASTPATH", "1").strip().lower() not in (
        "0",
        "false",
        "off",
        "no",
    )


#: override of the calling thread/context; ``None`` follows the environment
_OVERRIDE: contextvars.ContextVar[bool | None] = contextvars.ContextVar(
    "repro_fastpath", default=None
)


def fastpath_default() -> bool:
    """Whether a solver or port model built now runs its fast path."""
    override = _OVERRIDE.get()
    return _env_default() if override is None else override


@contextlib.contextmanager
def use_fastpath(enabled: bool | None):
    """Force the fast path on/off in this thread (``None``: follow the env)."""
    token = _OVERRIDE.set(None if enabled is None else bool(enabled))
    try:
        yield
    finally:
        _OVERRIDE.reset(token)
