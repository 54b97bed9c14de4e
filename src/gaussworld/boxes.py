"""Oriented box geometry shared by the scenario generator, metrics, and losses."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import finite_number, finite_numbers, whole_number
from .flow import Waypoint, rotate2d


@dataclass(frozen=True)
class Box:
    """Upright oriented box: 3D center, 3D size (length, width, height), planar yaw."""

    center: tuple
    size: tuple
    yaw: float
    class_id: int

    def __post_init__(self):
        s = finite_numbers(self.size, "box size", 3)
        if min(s) <= 0:
            raise ValueError("box sizes must be positive")
        object.__setattr__(self, "center", finite_numbers(self.center, "box center", 3))
        object.__setattr__(self, "size", s)
        object.__setattr__(self, "yaw", finite_number(self.yaw, "box yaw"))
        object.__setattr__(self, "class_id", whole_number(self.class_id, "box class_id"))

    def transformed(self, pose: Waypoint):
        """Box as seen from the frame at planar pose `pose`."""
        x, y = pose.to_local(self.center[0], self.center[1])
        return replace(self, center=(x, y, self.center[2]), yaw=self.yaw - pose.psi)


def points_in_rect(points, x, y, yaw, half_length, half_width):
    """Boolean mask of points whose planar (x, y) lies in the oriented rectangle, edges included."""
    p = np.asarray(points, dtype=np.float64)
    lx, ly = rotate2d(p[:, 0] - x, p[:, 1] - y, -yaw)
    return (np.abs(lx) <= half_length) & (np.abs(ly) <= half_width)


def points_in_box(points, box: Box, margin=0.0):
    """Boolean mask of 3D points inside the oriented box (optionally inflated)."""
    p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    hx, hy, hz = (v / 2.0 + margin for v in box.size)
    inside = points_in_rect(p, box.center[0], box.center[1], box.yaw, hx, hy)
    return inside & (np.abs(p[:, 2] - box.center[2]) <= hz)


def rect_corners(cx, cy, yaw, length, width):
    """Corner x and y arrays of the oriented rectangle centred at (cx, cy)."""
    hx, hy = length / 2.0, width / 2.0
    x, y = rotate2d(np.array([hx, hx, -hx, -hx]), np.array([hy, -hy, -hy, hy]), yaw)
    return x + cx, y + cy


def rects_overlap(a, b):
    """Separating-axis test for two oriented 2D rectangles (cx, cy, yaw, length, width)."""
    ca = rect_corners(*a)
    cb = rect_corners(*b)
    for yaw in (a[2], b[2]):
        # each rectangle's corners in this yaw's frame: rows are projections onto its two edge axes
        pa, pb = np.array(rotate2d(*ca, -yaw)), np.array(rotate2d(*cb, -yaw))
        if np.any((pa.max(axis=1) < pb.min(axis=1)) | (pb.max(axis=1) < pa.min(axis=1))):
            return False
    return True
