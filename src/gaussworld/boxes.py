"""Oriented box geometry shared by the scenario generator, metrics, and losses."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class Box:
    """Upright oriented box: 3D center, 3D size (length, width, height), planar yaw."""

    center: tuple
    size: tuple
    yaw: float
    class_id: int

    def __post_init__(self):
        c = tuple(float(v) for v in self.center)
        s = tuple(float(v) for v in self.size)
        if len(c) != 3 or len(s) != 3:
            raise ValueError("center and size must have 3 components")
        if any(v <= 0 for v in s):
            raise ValueError("box sizes must be positive")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "size", s)
        object.__setattr__(self, "yaw", float(self.yaw))
        object.__setattr__(self, "class_id", int(self.class_id))

    def transformed(self, x, y, psi):
        """Box as seen from the frame at planar pose (x, y, psi)."""
        c, s = math.cos(-psi), math.sin(-psi)
        cx = self.center[0] - x
        cy = self.center[1] - y
        return replace(
            self,
            center=(c * cx - s * cy, s * cx + c * cy, self.center[2]),
            yaw=self.yaw - psi,
        )


def points_in_rect(points, x, y, yaw, half_length, half_width):
    """Boolean mask of points whose planar (x, y) lies in the oriented rectangle, edges included."""
    p = np.asarray(points, dtype=np.float64)
    dx, dy = p[:, 0] - x, p[:, 1] - y
    c, s = math.cos(yaw), math.sin(yaw)
    return (np.abs(c * dx + s * dy) <= half_length) & (np.abs(-s * dx + c * dy) <= half_width)


def points_in_box(points, box: Box, margin=0.0):
    """Boolean mask of 3D points inside the oriented box (optionally inflated)."""
    p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    hx, hy, hz = (v / 2.0 + margin for v in box.size)
    inside = points_in_rect(p, box.center[0], box.center[1], box.yaw, hx, hy)
    return inside & (np.abs(p[:, 2] - box.center[2]) <= hz)


def _rect_corners(cx, cy, yaw, length, width):
    c, s = math.cos(yaw), math.sin(yaw)
    hx, hy = length / 2.0, width / 2.0
    local = np.array([[hx, hy], [hx, -hy], [-hx, -hy], [-hx, hy]])
    R = np.array([[c, -s], [s, c]])
    return local @ R.T + np.array([cx, cy])


def rects_overlap(a, b):
    """Separating-axis test for two oriented 2D rectangles (cx, cy, yaw, length, width)."""
    ca = _rect_corners(*a)
    cb = _rect_corners(*b)
    for yaw in (a[2], b[2]):
        for phi in (yaw, yaw + math.pi / 2.0):
            axis = np.array([math.cos(phi), math.sin(phi)])
            pa = ca @ axis
            pb = cb @ axis
            if pa.max() < pb.min() or pb.max() < pa.min():
                return False
    return True
