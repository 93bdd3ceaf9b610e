"""Rendering support: cameras, color maps, and images.

Both rendering algorithms in the study (ray tracing and volume
rendering) build an "image database" of views orbiting the dataset —
:func:`orbit_cameras` reproduces that camera path.  Images are plain
float RGB arrays writable as PPM so the examples can dump real pictures
without any imaging dependency.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..obs.durable import atomic_write_bytes

__all__ = ["Camera", "orbit_cameras", "ColorMap", "Image"]


@dataclass(frozen=True)
class Camera:
    """A pinhole camera."""

    eye: np.ndarray
    look_at: np.ndarray
    up: np.ndarray
    fov_deg: float = 45.0

    def rays(self, width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
        """Generate primary rays; returns (origins, directions).

        Directions are unit length; arrays have shape ``(w*h, 3)`` in
        row-major pixel order.
        """
        eye = np.asarray(self.eye, dtype=np.float64)
        look = np.asarray(self.look_at, dtype=np.float64)
        up = np.asarray(self.up, dtype=np.float64)

        forward = look - eye
        forward = forward / np.linalg.norm(forward)
        right = np.cross(forward, up)
        right = right / np.linalg.norm(right)
        true_up = np.cross(right, forward)

        tan_half = np.tan(np.radians(self.fov_deg) / 2.0)
        aspect = width / height
        # Pixel centers in NDC [-1, 1].
        xs = (np.arange(width) + 0.5) / width * 2.0 - 1.0
        ys = 1.0 - (np.arange(height) + 0.5) / height * 2.0
        px, py = np.meshgrid(xs, ys)
        dirs = (
            forward[None, :]
            + (px.ravel() * tan_half * aspect)[:, None] * right[None, :]
            + (py.ravel() * tan_half)[:, None] * true_up[None, :]
        )
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        origins = np.broadcast_to(eye, dirs.shape).copy()
        return origins, dirs


def orbit_cameras(
    bounds: np.ndarray, n: int, *, elevation_deg: float = 20.0, fov_deg: float = 45.0
) -> list[Camera]:
    """``n`` cameras orbiting the bounds at a fixed elevation.

    This is the study's "different camera positions around the data
    set" used to build the 50-image database each cycle.
    """
    if n < 1:
        raise ValueError("need at least one camera")
    bounds = np.asarray(bounds, dtype=np.float64)
    center = bounds.mean(axis=1)
    radius = 1.2 * float(np.linalg.norm(bounds[:, 1] - bounds[:, 0]))
    elev = np.radians(elevation_deg)
    cams = []
    for i in range(n):
        theta = 2.0 * np.pi * i / n
        eye = center + radius * np.array(
            [np.cos(theta) * np.cos(elev), np.sin(theta) * np.cos(elev), np.sin(elev)]
        )
        cams.append(Camera(eye=eye, look_at=center, up=np.array([0.0, 0.0, 1.0]), fov_deg=fov_deg))
    return cams


class ColorMap:
    """A piecewise-linear RGB color map over [0, 1]."""

    #: A compact cool-to-warm map (the default in the study's renderer).
    COOL_WARM = np.array(
        [
            [0.23, 0.30, 0.75],
            [0.55, 0.69, 1.00],
            [0.87, 0.87, 0.87],
            [0.96, 0.60, 0.49],
            [0.71, 0.02, 0.15],
        ]
    )

    def __init__(self, control_points: np.ndarray | None = None):
        self.table = np.asarray(
            control_points if control_points is not None else self.COOL_WARM, dtype=np.float64
        )
        if self.table.ndim != 2 or self.table.shape[1] != 3 or self.table.shape[0] < 2:
            raise ValueError("control points must be (k>=2, 3)")

    def __call__(self, t: np.ndarray) -> np.ndarray:
        """Map normalized scalars (clipped to [0,1]) to RGB (n, 3)."""
        t = np.clip(np.asarray(t, dtype=np.float64), 0.0, 1.0)
        k = self.table.shape[0] - 1
        x = t * k
        i = np.minimum(x.astype(np.int64), k - 1)
        frac = (x - i)[..., None]
        return self.table[i] * (1.0 - frac) + self.table[i + 1] * frac


@dataclass
class Image:
    """A float RGB framebuffer."""

    rgb: np.ndarray  # (h, w, 3) in [0, 1]

    @classmethod
    def blank(cls, width: int, height: int, color: tuple[float, float, float] = (0, 0, 0)) -> "Image":
        buf = np.empty((height, width, 3))
        buf[:] = color
        return cls(buf)

    @property
    def width(self) -> int:
        return self.rgb.shape[1]

    @property
    def height(self) -> int:
        return self.rgb.shape[0]

    def save_ppm(self, path: str | Path) -> Path:
        """Write a binary PPM (no imaging library needed).

        Written atomically: a gallery build killed mid-frame must not
        leave a torn image that a viewer (or a diff against a golden
        render) would half-read.
        """
        path = Path(path)
        data = (np.clip(self.rgb, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
        header = f"P6\n{self.width} {self.height}\n255\n".encode()
        atomic_write_bytes(path, header + data.tobytes())
        return path
