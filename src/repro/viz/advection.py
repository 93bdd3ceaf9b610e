"""Particle advection: RK4 streamlines through a steady vector field.

Per the paper: massless particles are seeded throughout the dataset and
advected a fixed number of steps through a single time step's velocity
field, outputting streamlines.  Seed count, step length, and step count
are held constant regardless of dataset size (the study does the same,
which is why particles fall out of small grids early and why advection's
IPC is flat across sizes — Fig. 6).

RK4 is the fourth-order Runge–Kutta integrator the paper names: four
velocity evaluations per step, FP-dense, the most compute-intensive and
power-hungry algorithm in the set.
"""

from __future__ import annotations

import numpy as np

from ..data.fields import DataSet
from ..data.grid import UniformGrid
from ..data.mesh import PolyLines
from ..workload import WorkSegment
from .base import Filter, OpCounts, segment_from_cost
from .costs import COSTS
from .interp import trilinear

__all__ = ["ParticleAdvection", "seed_grid"]


def seed_grid(bounds: np.ndarray, n_seeds: int, *, margin: float = 0.15) -> np.ndarray:
    """Deterministic lattice of ~``n_seeds`` seeds inside the bounds."""
    bounds = np.asarray(bounds, dtype=np.float64)
    per_axis = max(1, int(round(n_seeds ** (1.0 / 3.0))))
    pad = margin * (bounds[:, 1] - bounds[:, 0])
    axes = np.linspace(bounds[:, 0] + pad, bounds[:, 1] - pad, per_axis, axis=1)
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)


class ParticleAdvection(Filter):
    """Advect seeded particles with RK4; outputs streamlines.

    Defaults follow the study's constant-across-sizes policy: the step
    length and step count are fixed in *world* units (sized for the
    128³ reference grid), not per-cell units.

    ``keep_output=False`` is the counting path the study registry uses:
    it advances only the live particles, keeps no trajectory history and
    returns empty polylines, recording the same ledger as the trajectory
    path (``keep_output=True``).
    """

    name = "advection"
    n_worklets = 2.0  # seed + advect

    def __init__(
        self,
        field: str = "velocity",
        *,
        n_seeds: int = 4096,
        n_steps: int = 1500,
        step_length: float | None = None,
        keep_output: bool = True,
    ):
        if n_seeds < 1 or n_steps < 1:
            raise ValueError("n_seeds and n_steps must be positive")
        self.field = field
        self.n_seeds = int(n_seeds)
        self.n_steps = int(n_steps)
        self.step_length = step_length
        self.keep_output = keep_output

    def describe(self) -> dict:
        return {
            "name": self.name,
            "field": self.field,
            "n_seeds": self.n_seeds,
            "n_steps": self.n_steps,
        }

    def _apply(self, dataset: DataSet, counts: OpCounts) -> PolyLines:
        grid = dataset.grid
        vel = dataset.point_field(self.field).values
        if vel.ndim != 2:
            raise ValueError("advection requires a vector field")
        # Fixed step in world units: 1/256 of the diagonal (≈ half a cell
        # on the 128³ reference), matching the study's constant policy.
        h = self.step_length if self.step_length is not None else grid.diagonal / 256.0

        pos = seed_grid(grid.bounds, self.n_seeds)
        if not self.keep_output:
            # Row for row, ``p`` is the trajectory path's ``pos[alive]``.
            p = pos
            for _ in range(self.n_steps):
                if not p.shape[0]:
                    break
                new_p, still = _rk4_step(grid, vel, p, h, counts)
                p = new_p[still]
            return PolyLines(np.empty((0, 3)), np.zeros(1, dtype=np.int64))

        n = pos.shape[0]
        alive = np.ones(n, dtype=bool)
        # Each step rebinds ``pos`` and ``alive`` to fresh arrays before
        # writing them, so the history can hold the arrays themselves.
        history = [pos]
        alive_history = [alive]
        for _ in range(self.n_steps):
            if not alive.any():
                break
            new_p, still = _rk4_step(grid, vel, pos[alive], h, counts)
            pos = pos.copy()
            pos[alive] = new_p
            idx = np.nonzero(alive)[0]
            alive = alive.copy()
            alive[idx[~still]] = False
            history.append(pos)
            alive_history.append(alive)

        return _build_polylines(history, alive_history)

    def _segments(self, dataset: DataSet, counts: OpCounts) -> list[WorkSegment]:
        grid = dataset.grid
        step = COSTS[("advection", "step")]
        steps = counts["steps"]
        # Footprint: cells visited along trajectories (bounded by the
        # whole velocity field).  Each step touches ~2 cache lines per
        # velocity component.
        vel_bytes = float(grid.n_points * 8 * 3)
        touched = min(vel_bytes, steps * 64.0)
        return [
            segment_from_cost(
                "advect",
                steps,
                step,
                # ~1 *new* cache line per half-cell step (the four RK4
                # evaluations hit the same corners, which stay in L1).
                bytes_read=steps * 64.0,
                bytes_written=steps * 24.0,       # appended positions
                working_set_bytes=touched,
            )
        ]


def _rk4_step(
    grid: UniformGrid, vel: np.ndarray, p: np.ndarray, h: float, counts: OpCounts
) -> tuple[np.ndarray, np.ndarray]:
    """One RK4 step of the live particles ``p``: their new positions and
    which of them are still inside the grid.  Normalizing the velocity
    lets the step length control displacement (streamline geometry, not
    particle speed, is the output)."""
    k1, in1 = trilinear(grid, vel, p)
    k2, _ = trilinear(grid, vel, p + 0.5 * h * _unit(k1))
    k3, _ = trilinear(grid, vel, p + 0.5 * h * _unit(k2))
    k4, _ = trilinear(grid, vel, p + h * _unit(k3))
    counts.add("interp_evals", 4 * p.shape[0])
    counts.add("steps", p.shape[0])
    step = (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    new_p = p + h * _unit(step)
    return new_p, in1 & grid.contains(new_p)


def _unit(v: np.ndarray) -> np.ndarray:
    # The row sum np.linalg.norm computes, without its dispatch overhead.
    norm = np.sqrt(np.add.reduce(v * v, axis=1, keepdims=True))
    return np.divide(v, norm, out=np.zeros_like(v), where=norm > 1e-300)


def _build_polylines(history: list[np.ndarray], alive_history: list[np.ndarray]) -> PolyLines:
    """Assemble per-particle trajectories into a PolyLines bundle.

    A particle's line covers every recorded position up to (and
    including) the step at which it died: its length is the number of
    steps it was alive for (seed included), at least 1.  Assembly is a
    single boolean compress over the particle-major history.
    """
    hist = np.stack(history)            # (steps+1, n, 3)
    alive = np.stack(alive_history)     # (steps+1, n)
    lengths = np.maximum(alive.sum(axis=0), 1)             # (n,)
    keep = np.arange(hist.shape[0])[None, :] < lengths[:, None]   # (n, steps+1)
    pts = hist.transpose(1, 0, 2)[keep]                    # particle-major compress
    offsets = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(lengths)])
    return PolyLines(pts, offsets)
