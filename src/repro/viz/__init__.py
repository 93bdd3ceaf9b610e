"""The eight visualization algorithms of the study (VTK-m substitute).

:data:`ALGORITHMS` maps study names to factories configured with the
paper's defaults (10 isovalues for contour, 3 planes for slice, a
50-image orbit database for the renderers, fixed seeds/steps for
advection) — the registry every sweep iterates over.
"""

from __future__ import annotations

from typing import Callable

from .advection import ParticleAdvection, seed_grid
from .base import Filter, FilterResult, OpCounts, framework_segment, mix_per
from .bvh import Bvh, TraversalStats
from .clip import ClipOutput, SphericalClip
from .contour import Contour, default_isovalues
from .histogram import Histogram
from .costs import COSTS, PhaseCost
from .interp import trilinear
from .isovolume import Isovolume, IsovolumeOutput
from .raytrace import RayTracer, external_surface
from .render import Camera, ColorMap, Image, orbit_cameras
from .slicer import Slice
from .tetclip import clip_tet_soup, tet_cut_recipes
from .threshold import Threshold
from .volume import VolumeRenderer

#: Study algorithm registry, in the paper's presentation order (Fig. 1).
ALGORITHMS: dict[str, Callable[[], Filter]] = {
    "contour": lambda: Contour(keep_output=False),
    "threshold": lambda: Threshold(),
    "clip": lambda: SphericalClip(keep_output=False),
    "isovolume": lambda: Isovolume(keep_output=False),
    "slice": lambda: Slice(keep_output=False),
    "advection": lambda: ParticleAdvection(),
    "raytrace": lambda: RayTracer(),
    "volume": lambda: VolumeRenderer(),
}

#: The paper's cell-centered subset (Fig. 3's elements/second plot).
CELL_CENTERED = ("contour", "isovolume", "slice", "clip", "threshold")

__all__ = [
    "ALGORITHMS",
    "CELL_CENTERED",
    "Filter",
    "FilterResult",
    "OpCounts",
    "framework_segment",
    "mix_per",
    "Contour",
    "default_isovalues",
    "Histogram",
    "Threshold",
    "SphericalClip",
    "ClipOutput",
    "Isovolume",
    "IsovolumeOutput",
    "Slice",
    "ParticleAdvection",
    "seed_grid",
    "RayTracer",
    "external_surface",
    "VolumeRenderer",
    "Bvh",
    "TraversalStats",
    "Camera",
    "ColorMap",
    "Image",
    "orbit_cameras",
    "trilinear",
    "clip_tet_soup",
    "tet_cut_recipes",
    "COSTS",
    "PhaseCost",
]
