"""Voxel grid specification, voxel centers, and dense occupancy label grids.

Voxels are cubes laid out x-fastest: flat index i + nx·(j + ny·k). Labels are
one byte per voxel, with EMPTY marking unoccupied space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EMPTY


@dataclass(frozen=True)
class GridSpec:
    """Cubic-voxel grid: origin is the min corner of voxel (0,0,0)."""

    origin: tuple
    dims: tuple  # (nx, ny, nz)
    voxel_size: float

    def __post_init__(self):
        o = tuple(float(v) for v in self.origin)
        raw = tuple(self.dims)
        d = tuple(int(v) for v in raw)
        if d != raw:
            raise ValueError(f"dims must be whole numbers, not {raw}")
        if len(o) != 3 or len(d) != 3:
            raise ValueError("origin and dims must have 3 components")
        if any(n <= 0 for n in d):
            raise ValueError("dims must be positive")
        if d[0] * d[1] * d[2] > 2**31:
            raise ValueError("grid too large")
        if not np.all(np.isfinite(o)):
            raise ValueError(f"origin must be finite, not {o}")
        if not 0 < self.voxel_size < np.inf:  # NaN fails both comparisons
            raise ValueError(f"voxel_size must be positive and finite, not {self.voxel_size}")
        object.__setattr__(self, "origin", o)
        object.__setattr__(self, "dims", d)
        object.__setattr__(self, "voxel_size", float(self.voxel_size))

    @property
    def num_voxels(self):
        nx, ny, nz = self.dims
        return nx * ny * nz

    def flat_index(self, i, j, k):
        """x-fastest flat ordering: i + nx·(j + ny·k)."""
        nx, ny, _ = self.dims
        return i + nx * (j + ny * k)

    def extent(self):
        """Physical side lengths (meters) per axis."""
        return tuple(n * self.voxel_size for n in self.dims)


def box_indices(lo, hi):
    """Index rows (K, 3) of the voxel box lo..hi (inclusive per axis), x-fastest, so their flat indices ascend.

    K is 0 when hi < lo on some axis.
    """
    (i0, j0, k0), (i1, j1, k1) = lo, hi
    out = np.empty((max(k1 - k0 + 1, 0), max(j1 - j0 + 1, 0), max(i1 - i0 + 1, 0), 3), dtype=int)
    out[..., 0] = np.arange(i0, i1 + 1)
    out[..., 1] = np.arange(j0, j1 + 1)[:, None]
    out[..., 2] = np.arange(k0, k1 + 1)[:, None, None]
    return out.reshape(-1, 3)


def index_box(spec: GridSpec, lo, hi):
    """Inclusive voxel index bounds (lo, hi) of the world-space box [lo, hi], padded by one voxel, clipped to the grid.

    Every voxel whose centre lies in the box is inside the bounds; the padding
    absorbs rounding in the caller's box. hi < lo on an axis where the box misses
    the grid.
    """
    o, vs, dims = spec.origin, spec.voxel_size, spec.dims
    # clipped before flooring, so that a far-away box stays a small integer
    cell = lambda v, a: math.floor(min(max((v - o[a]) / vs, -2.0), dims[a] + 1.0))
    return (
        tuple(max(cell(lo[a], a) - 1, 0) for a in range(3)),
        tuple(min(cell(hi[a], a) + 1, dims[a] - 1) for a in range(3)),
    )


def voxel_centers(spec: GridSpec, ijk=None):
    """Centres origin + (ijk + 0.5)·voxel_size of the integer index rows ijk (K, 3).

    ijk None means every voxel, shape (num_voxels, 3), in x-fastest flat order.
    A centre has the same bits whichever rows it is built with.
    """
    if ijk is None:
        ijk = box_indices((0, 0, 0), tuple(n - 1 for n in spec.dims))
    return np.array(spec.origin) + (ijk + 0.5) * spec.voxel_size


@dataclass(frozen=True)
class OccupancyGrid:
    """Dense voxel label grid; one byte per voxel, EMPTY = 255, x-fastest order.

    num_classes 0 means "unknown"; it is then inferred as max semantic label + 1
    where a class count is needed.
    """

    spec: GridSpec
    labels: np.ndarray
    num_classes: int = 0

    def __post_init__(self):
        lab = np.asarray(self.labels)
        if lab.dtype != np.uint8:
            if not np.all((lab >= 0) & (lab <= EMPTY)):  # NaN fails too
                raise ValueError(f"labels must lie in 0..{EMPTY}")
            if lab.dtype.kind == "f" and not np.all(lab == np.floor(lab)):
                raise ValueError("labels must be whole numbers")
        lab = lab.astype(np.uint8, copy=False).reshape(self.spec.num_voxels)
        lab.setflags(write=False)
        object.__setattr__(self, "labels", lab)
        object.__setattr__(self, "num_classes", int(self.num_classes))

    @classmethod
    def empty(cls, spec: GridSpec, num_classes=0):
        return cls(spec, np.full(spec.num_voxels, EMPTY, dtype=np.uint8), num_classes)

    def inferred_num_classes(self):
        if self.num_classes:
            return self.num_classes
        sem = self.labels[self.labels != EMPTY]
        return int(sem.max()) + 1 if sem.size else 1
