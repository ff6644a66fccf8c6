"""Geometric primitives: points, rectangles, Hausdorff distance, interpolation."""

from .point import Point, centroid, points_to_array
from .mbr import MBR, mbr_of_points, min_distance_rects, side_distance
from .hausdorff import hausdorff, hausdorff_naive, hausdorff_within
from .interpolation import interpolate_position

__all__ = [
    "Point",
    "centroid",
    "points_to_array",
    "MBR",
    "mbr_of_points",
    "min_distance_rects",
    "side_distance",
    "hausdorff",
    "hausdorff_naive",
    "hausdorff_within",
    "interpolate_position",
]
