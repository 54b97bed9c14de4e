"""Voxel grid specification, voxel centers, and dense occupancy label grids.

Voxels are cubes laid out x-fastest: flat index i + nx·(j + ny·k). Labels are
one byte per voxel, with EMPTY marking unoccupied space.
"""

from __future__ import annotations

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


def voxel_centers(spec: GridSpec):
    """All voxel centers, shape (num_voxels, 3), x-fastest flat order."""
    nx, ny, nz = spec.dims
    k, j, i = np.indices((nz, ny, nx)).reshape(3, -1)
    return np.array(spec.origin) + (np.stack([i, j, k], axis=1) + 0.5) * spec.voxel_size


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
        if lab.dtype != np.uint8 and not np.all((lab >= 0) & (lab <= EMPTY)):  # NaN fails too
            raise ValueError(f"labels must lie in 0..{EMPTY}")
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
