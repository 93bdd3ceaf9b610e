"""Dataset and geometry I/O (dependency-free).

* :func:`save_obj` / :func:`load_obj` — Wavefront OBJ for triangle
  meshes, so contour/slice/gallery output opens in any mesh viewer.
* :func:`save_dataset` / :func:`load_dataset` — NumPy ``.npz`` archives
  for whole datasets (grid metadata + every field), the hand-off format
  between a long CloverLeaf run and later post-hoc visualization — the
  paper's first use case ("post hoc visualization and data analysis on
  a shared cluster").
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..obs.durable import atomic_write_text
from .fields import Association, DataSet
from .grid import UniformGrid
from .mesh import TriangleMesh

__all__ = ["save_obj", "load_obj", "save_dataset", "load_dataset"]


def save_obj(mesh: TriangleMesh, path: str | Path) -> Path:
    """Write a triangle mesh as Wavefront OBJ (1-based indices).

    Written atomically so a killed export never leaves a half-mesh that
    a viewer would silently open.
    """
    path = Path(path)
    lines: list[str] = ["# written by repro (IPDPS'19 reproduction)"]
    for p in mesh.points:
        lines.append(f"v {p[0]:.9g} {p[1]:.9g} {p[2]:.9g}")
    for t in mesh.triangles:
        lines.append(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}")
    atomic_write_text(path, "\n".join(lines) + "\n")
    return path


def load_obj(path: str | Path) -> TriangleMesh:
    """Read a Wavefront OBJ containing triangles (v/f records only).

    Faces with more than three vertices are fan-triangulated; texture
    and normal indices (``f a/b/c``) are accepted and ignored.
    """
    points: list[list[float]] = []
    tris: list[list[int]] = []
    for raw in Path(path).read_text().splitlines():
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "v":
            points.append([float(x) for x in parts[1:4]])
        elif parts[0] == "f":
            ids = [int(tok.split("/")[0]) - 1 for tok in parts[1:]]
            for k in range(1, len(ids) - 1):
                tris.append([ids[0], ids[k], ids[k + 1]])
    return TriangleMesh(
        np.asarray(points, dtype=np.float64).reshape(-1, 3),
        np.asarray(tris, dtype=np.int64).reshape(-1, 3),
    )


def save_dataset(dataset: DataSet, path: str | Path) -> Path:
    """Serialize a dataset (grid + all fields) to a ``.npz`` archive."""
    path = Path(path)
    grid = dataset.grid
    arrays: dict[str, np.ndarray] = {
        "__cell_dims": np.asarray(grid.cell_dims, dtype=np.int64),
        "__origin": np.asarray(grid.origin, dtype=np.float64),
        "__spacing": np.asarray(grid.spacing, dtype=np.float64),
    }
    for name, f in dataset.fields.items():
        arrays[f"field_{f.association.value}_{name}"] = f.values
    np.savez_compressed(path, **arrays)
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_dataset(path: str | Path) -> DataSet:
    """Inverse of :func:`save_dataset`."""
    with np.load(Path(path)) as archive:
        grid = UniformGrid(
            cell_dims=tuple(int(d) for d in archive["__cell_dims"]),
            origin=tuple(float(x) for x in archive["__origin"]),
            spacing=tuple(float(x) for x in archive["__spacing"]),
        )
        ds = DataSet(grid)
        for key in archive.files:
            if not key.startswith("field_"):
                continue
            _, assoc, name = key.split("_", 2)
            ds.add_field(name, archive[key], Association(assoc))
    return ds
