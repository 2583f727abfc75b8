"""First-order Mur absorbing boundary conditions.

The paper's validation domain is "terminated by absorbing boundary
conditions".  This module implements the first-order Mur condition on all
six faces of the domain: for every tangential electric-field component on a
boundary face,

    E_0^{n+1} = E_1^n + (c dt - d) / (c dt + d) * (E_1^{n+1} - E_0^n),

where ``E_1`` is the same component one cell inside the domain and ``d``
the spacing along the face normal.  First order absorption is adequate for
the paper's structures, where the strips run parallel to the boundaries and
the dominant incidence is close to normal; the residual reflections show up
only as the small late-time ripple also visible in the paper's curves.

On the fast path (the default, see :mod:`repro.perf`; read once, when the
boundary is built) all per-step storage — the saved previous-level planes
and the update scratch — is preallocated once, so
:meth:`MurBoundary.save_previous` and :meth:`MurBoundary.apply` allocate
nothing in the time loop; the arithmetic is unchanged from the naive
implementation, so the results are bit-identical.  On the reference path
the original allocate-per-step implementation runs instead and serves as
the oracle.
"""

from __future__ import annotations

import numpy as np

from repro import perf
from repro.fdtd.constants import C0
from repro.fdtd.grid import YeeGrid

__all__ = ["MurBoundary"]


class MurBoundary:
    """First-order Mur ABC on the six faces of a :class:`YeeGrid`."""

    def __init__(self, grid: YeeGrid, dt: float, c: float = C0):
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.grid = grid
        self.dt = float(dt)
        self.fast = perf.fastpath_default()
        self.coef_x = (c * dt - grid.dx) / (c * dt + grid.dx)
        self.coef_y = (c * dt - grid.dy) / (c * dt + grid.dy)
        self.coef_z = (c * dt - grid.dz) / (c * dt + grid.dz)
        if not self.fast:
            self._saved = {}
            self._have_saved = False
            return

        ex_shape = grid.e_shape("x")
        ey_shape = grid.e_shape("y")
        ez_shape = grid.e_shape("z")
        # Saved two-plane slabs of the previous time level, keyed as
        # "<component>_<face>"; preallocated once, refilled per step.
        self._saved: dict[str, np.ndarray] = {
            # x faces: tangential Ey, Ez at i = 0, 1, nx-1, nx
            "ey_x0": np.zeros((2,) + ey_shape[1:]),
            "ey_x1": np.zeros((2,) + ey_shape[1:]),
            "ez_x0": np.zeros((2,) + ez_shape[1:]),
            "ez_x1": np.zeros((2,) + ez_shape[1:]),
            # y faces: tangential Ex, Ez at j = 0, 1, ny-1, ny
            "ex_y0": np.zeros((ex_shape[0], 2, ex_shape[2])),
            "ex_y1": np.zeros((ex_shape[0], 2, ex_shape[2])),
            "ez_y0": np.zeros((ez_shape[0], 2, ez_shape[2])),
            "ez_y1": np.zeros((ez_shape[0], 2, ez_shape[2])),
            # z faces: tangential Ex, Ey at k = 0, 1, nz-1, nz
            "ex_z0": np.zeros(ex_shape[:2] + (2,)),
            "ex_z1": np.zeros(ex_shape[:2] + (2,)),
            "ey_z0": np.zeros(ey_shape[:2] + (2,)),
            "ey_z1": np.zeros(ey_shape[:2] + (2,)),
        }
        # Per-face scratch, one buffer per distinct face shape.
        face_shapes = (
            ey_shape[1:], ez_shape[1:],                      # x faces
            (ex_shape[0], ex_shape[2]), (ez_shape[0], ez_shape[2]),  # y faces
            ex_shape[:2], ey_shape[:2],                      # z faces
        )
        self._scratch: dict[tuple[int, ...], np.ndarray] = {}
        for shape in face_shapes:
            self._scratch.setdefault(shape, np.zeros(shape))
        self._skip: frozenset[str] = frozenset()
        self._have_saved = False

    def set_skip_faces(self, keys) -> None:
        """Faces (by saved-plane key, e.g. ``"ex_z0"``) to leave untouched.

        Used by the fast solver path for faces that are entirely PEC: the
        PEC application rewrites them immediately after :meth:`apply`, so
        both their boundary update and the saving of their previous planes
        are dead work.  Only honoured on the fast path.
        """
        self._skip = frozenset(keys)

    def save_previous(self, ex: np.ndarray, ey: np.ndarray, ez: np.ndarray) -> None:
        """Store the boundary-adjacent planes of the *previous* time level.

        Must be called immediately before the electric-field update.
        """
        if not self.fast:
            self._save_previous_reference(ex, ey, ez)
            return
        s = self._saved
        sk = self._skip
        if "ey_x0" not in sk:
            np.copyto(s["ey_x0"], ey[0:2, :, :])
        if "ey_x1" not in sk:
            np.copyto(s["ey_x1"], ey[-2:, :, :])
        if "ez_x0" not in sk:
            np.copyto(s["ez_x0"], ez[0:2, :, :])
        if "ez_x1" not in sk:
            np.copyto(s["ez_x1"], ez[-2:, :, :])
        if "ex_y0" not in sk:
            np.copyto(s["ex_y0"], ex[:, 0:2, :])
        if "ex_y1" not in sk:
            np.copyto(s["ex_y1"], ex[:, -2:, :])
        if "ez_y0" not in sk:
            np.copyto(s["ez_y0"], ez[:, 0:2, :])
        if "ez_y1" not in sk:
            np.copyto(s["ez_y1"], ez[:, -2:, :])
        if "ex_z0" not in sk:
            np.copyto(s["ex_z0"], ex[:, :, 0:2])
        if "ex_z1" not in sk:
            np.copyto(s["ex_z1"], ex[:, :, -2:])
        if "ey_z0" not in sk:
            np.copyto(s["ey_z0"], ey[:, :, 0:2])
        if "ey_z1" not in sk:
            np.copyto(s["ey_z1"], ey[:, :, -2:])
        self._have_saved = True

    def _face(self, edge, inner, prev_inner, prev_edge, coef: float) -> None:
        """``edge = prev_inner + coef * (inner - prev_edge)`` without temporaries."""
        buf = self._scratch[edge.shape]
        np.subtract(inner, prev_edge, out=buf)
        buf *= coef
        buf += prev_inner
        np.copyto(edge, buf)

    def apply(self, ex: np.ndarray, ey: np.ndarray, ez: np.ndarray) -> None:
        """Update the boundary tangential fields after the interior E update."""
        if not self._have_saved:
            raise RuntimeError("save_previous must be called before apply")
        if not self.fast:
            self._apply_reference(ex, ey, ez)
            return
        s = self._saved
        sk = self._skip
        cx, cy, cz = self.coef_x, self.coef_y, self.coef_z

        # x = 0 and x = nx faces (normal spacing dx)
        if "ey_x0" not in sk:
            self._face(ey[0, :, :], ey[1, :, :], s["ey_x0"][1], s["ey_x0"][0], cx)
        if "ez_x0" not in sk:
            self._face(ez[0, :, :], ez[1, :, :], s["ez_x0"][1], s["ez_x0"][0], cx)
        if "ey_x1" not in sk:
            self._face(ey[-1, :, :], ey[-2, :, :], s["ey_x1"][0], s["ey_x1"][1], cx)
        if "ez_x1" not in sk:
            self._face(ez[-1, :, :], ez[-2, :, :], s["ez_x1"][0], s["ez_x1"][1], cx)

        # y = 0 and y = ny faces (normal spacing dy)
        if "ex_y0" not in sk:
            self._face(ex[:, 0, :], ex[:, 1, :], s["ex_y0"][:, 1, :], s["ex_y0"][:, 0, :], cy)
        if "ez_y0" not in sk:
            self._face(ez[:, 0, :], ez[:, 1, :], s["ez_y0"][:, 1, :], s["ez_y0"][:, 0, :], cy)
        if "ex_y1" not in sk:
            self._face(ex[:, -1, :], ex[:, -2, :], s["ex_y1"][:, 0, :], s["ex_y1"][:, 1, :], cy)
        if "ez_y1" not in sk:
            self._face(ez[:, -1, :], ez[:, -2, :], s["ez_y1"][:, 0, :], s["ez_y1"][:, 1, :], cy)

        # z = 0 and z = nz faces (normal spacing dz)
        if "ex_z0" not in sk:
            self._face(ex[:, :, 0], ex[:, :, 1], s["ex_z0"][:, :, 1], s["ex_z0"][:, :, 0], cz)
        if "ey_z0" not in sk:
            self._face(ey[:, :, 0], ey[:, :, 1], s["ey_z0"][:, :, 1], s["ey_z0"][:, :, 0], cz)
        if "ex_z1" not in sk:
            self._face(ex[:, :, -1], ex[:, :, -2], s["ex_z1"][:, :, 0], s["ex_z1"][:, :, 1], cz)
        if "ey_z1" not in sk:
            self._face(ey[:, :, -1], ey[:, :, -2], s["ey_z1"][:, :, 0], s["ey_z1"][:, :, 1], cz)

    # -- reference (allocate-per-step) implementation -----------------------
    def _save_previous_reference(self, ex, ey, ez) -> None:
        s = self._saved
        s["ey_x0"] = ey[0:2, :, :].copy()
        s["ey_x1"] = ey[-2:, :, :].copy()
        s["ez_x0"] = ez[0:2, :, :].copy()
        s["ez_x1"] = ez[-2:, :, :].copy()
        s["ex_y0"] = ex[:, 0:2, :].copy()
        s["ex_y1"] = ex[:, -2:, :].copy()
        s["ez_y0"] = ez[:, 0:2, :].copy()
        s["ez_y1"] = ez[:, -2:, :].copy()
        s["ex_z0"] = ex[:, :, 0:2].copy()
        s["ex_z1"] = ex[:, :, -2:].copy()
        s["ey_z0"] = ey[:, :, 0:2].copy()
        s["ey_z1"] = ey[:, :, -2:].copy()
        self._have_saved = True

    def _apply_reference(self, ex, ey, ez) -> None:
        s = self._saved
        cx, cy, cz = self.coef_x, self.coef_y, self.coef_z

        ey[0, :, :] = s["ey_x0"][1] + cx * (ey[1, :, :] - s["ey_x0"][0])
        ez[0, :, :] = s["ez_x0"][1] + cx * (ez[1, :, :] - s["ez_x0"][0])
        ey[-1, :, :] = s["ey_x1"][0] + cx * (ey[-2, :, :] - s["ey_x1"][1])
        ez[-1, :, :] = s["ez_x1"][0] + cx * (ez[-2, :, :] - s["ez_x1"][1])

        ex[:, 0, :] = s["ex_y0"][:, 1, :] + cy * (ex[:, 1, :] - s["ex_y0"][:, 0, :])
        ez[:, 0, :] = s["ez_y0"][:, 1, :] + cy * (ez[:, 1, :] - s["ez_y0"][:, 0, :])
        ex[:, -1, :] = s["ex_y1"][:, 0, :] + cy * (ex[:, -2, :] - s["ex_y1"][:, 1, :])
        ez[:, -1, :] = s["ez_y1"][:, 0, :] + cy * (ez[:, -2, :] - s["ez_y1"][:, 1, :])

        ex[:, :, 0] = s["ex_z0"][:, :, 1] + cz * (ex[:, :, 1] - s["ex_z0"][:, :, 0])
        ey[:, :, 0] = s["ey_z0"][:, :, 1] + cz * (ey[:, :, 1] - s["ey_z0"][:, :, 0])
        ex[:, :, -1] = s["ex_z1"][:, :, 0] + cz * (ex[:, :, -2] - s["ex_z1"][:, :, 1])
        ey[:, :, -1] = s["ey_z1"][:, :, 0] + cz * (ey[:, :, -2] - s["ey_z1"][:, :, 1])