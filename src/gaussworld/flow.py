"""Scene flow application, SE(2) ego-frame transforms, forecasting, and the static baseline.

Flows are cumulative per-Gaussian displacements from the observation frame;
ego waypoints are planar poses (x, y, yaw) relative to that same frame. A
forecast step moves the Gaussians by their displacement and then re-expresses
the scene in the frame of the planned waypoint.

The package's one planar frame convention lives here: angles turn
counter-clockwise about +z, and other modules rotate, change frames and roll
unicycles out through `rotate2d`, `Waypoint.to_parent`/`to_local` and `Waypoint.arc`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EMPTY, ClassConfig, GaussianScene, dynamic_mask, quat_multiply
from .grid import OccupancyGrid, voxel_centers


def wrap_angle(psi):
    """Wrap an angle to (-pi, pi]; values already in range pass through untouched."""
    if -math.pi < psi <= math.pi:
        return psi
    r = psi % (2.0 * math.pi)
    if r > math.pi:
        r -= 2.0 * math.pi
    return r


def rotate2d(x, y, psi):
    """Planar coordinates (scalars or arrays) rotated counter-clockwise by psi, elementwise."""
    c, s = math.cos(psi), math.sin(psi)
    return c * x - s * y, s * x + c * y


def yaw_matrix(psi):
    """3×3 rotation by psi about the z axis."""
    c, s = math.cos(psi), math.sin(psi)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@dataclass(frozen=True)
class Waypoint:
    """Planar ego pose (x, y, yaw) in the current ego frame."""

    x: float
    y: float
    psi: float

    def __post_init__(self):
        for name in ("x", "y", "psi"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"waypoint {name} must be finite, not {v!r}")
            object.__setattr__(self, name, wrap_angle(v) if name == "psi" else v)

    @classmethod
    def identity(cls):
        return cls(0.0, 0.0, 0.0)

    @classmethod
    def arc(cls, speed, turn_rate, t):
        """Pose after time t from the identity at constant speed and turn rate (rad/s)."""
        if turn_rate == 0.0:
            return cls(speed * t, 0.0, 0.0)
        psi = turn_rate * t
        r = speed / turn_rate
        return cls(r * math.sin(psi), r * (1.0 - math.cos(psi)), psi)

    def to_parent(self, x, y):
        """Coordinates given in this pose's frame, re-expressed in the frame the pose lives in."""
        px, py = rotate2d(x, y, self.psi)
        return self.x + px, self.y + py

    def to_local(self, x, y):
        """Coordinates given in the frame the pose lives in, re-expressed in this pose's frame."""
        return rotate2d(x - self.x, y - self.y, -self.psi)

    def inverse(self):
        return Waypoint(*self.to_local(0.0, 0.0), -self.psi)


@dataclass(frozen=True)
class Trajectory:
    """Waypoint sequence at fixed timestep; waypoint k is the pose at step k+1,
    expressed cumulatively in the frame of the current time."""

    waypoints: tuple
    dt: float = 0.5

    def __post_init__(self):
        wps = tuple(self.waypoints)
        if len(wps) < 1:
            raise ValueError("trajectory needs at least one waypoint")
        dt = float(self.dt)
        if not 0 < dt < math.inf:  # NaN fails both comparisons
            raise ValueError(f"trajectory dt must be finite and positive, not {dt!r}")
        object.__setattr__(self, "waypoints", wps)
        object.__setattr__(self, "dt", dt)

    def __len__(self):
        return len(self.waypoints)

    def xy(self):
        return np.array([[w.x, w.y] for w in self.waypoints])


@dataclass(frozen=True)
class FlowField:
    """Cumulative displacements, shape (F, N, 3), in the observation frame."""

    steps: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.steps, dtype=np.float64)
        if s.ndim != 3 or s.shape[2] != 3:
            raise ValueError("flow steps must have shape (F, N, 3)")
        if not np.all(np.isfinite(s)):
            raise ValueError("flow displacements must be finite")
        s.setflags(write=False)
        object.__setattr__(self, "steps", s)

    @property
    def num_steps(self):
        return self.steps.shape[0]

    @property
    def num_gaussians(self):
        return self.steps.shape[1]

    @classmethod
    def zero(cls, num_steps, num_gaussians):
        return cls(np.zeros((num_steps, num_gaussians, 3)))


def compose(w1: Waypoint, w2: Waypoint):
    """SE(2) composition: the pose of w2 expressed through w1."""
    return Waypoint(*w1.to_parent(w2.x, w2.y), w1.psi + w2.psi)


def apply_flow(scene: GaussianScene, flow_step, cfg: ClassConfig = None):
    """Translate Gaussian means by per-Gaussian displacements.

    When a config with dynamic classes is given, only Gaussians whose argmax
    class is dynamic move; everything else stays put.
    """
    disp = np.asarray(flow_step, dtype=np.float64)
    if disp.shape != (len(scene), 3):
        raise ValueError(f"flow step shape {disp.shape} != ({len(scene)}, 3)")
    if cfg is not None and cfg.dynamic_class_ids:
        disp = np.where(dynamic_mask(scene, cfg)[:, None], disp, 0.0)
    return scene.with_arrays(means=scene.means + disp)


def ego_transform(scene: GaussianScene, w: Waypoint):
    """Re-express the scene in the ego frame located at waypoint w (SE(2) lifted to 3D)."""
    means = (scene.means - np.array([w.x, w.y, 0.0])) @ yaw_matrix(-w.psi).T
    half = -0.5 * w.psi
    q_yaw = np.array([math.cos(half), 0.0, 0.0, math.sin(half)])
    return scene.with_arrays(means=means, rotations=quat_multiply(q_yaw[None, :], scene.rotations))


def forecast(scene: GaussianScene, flows: FlowField, plan: Trajectory, cfg: ClassConfig = None):
    """Scenes as observed from each planned pose: flow then ego transform, per step."""
    if flows.num_steps != len(plan):
        raise ValueError("flow field and plan must cover the same number of steps")
    if flows.num_gaussians != len(scene):
        raise ValueError("flow field does not match the scene size")
    return [ego_transform(apply_flow(scene, step, cfg), w) for step, w in zip(flows.steps, plan.waypoints)]


def copy_paste_forecast(current: OccupancyGrid, w: Waypoint):
    """Static-world baseline: rigidly transport the current labels to the pose w.

    Nearest-neighbor resampling; voxels whose source falls outside the grid
    become EMPTY (newly observed areas are not completed).
    """
    spec = current.spec
    centers = voxel_centers(spec)
    src = centers @ yaw_matrix(w.psi).T + np.array([w.x, w.y, 0.0])
    ijk = np.floor((src - np.array(spec.origin)) / spec.voxel_size).astype(np.int64)
    ok = np.all((ijk >= 0) & (ijk < spec.dims), axis=1)
    labels = np.full(spec.num_voxels, EMPTY, dtype=np.uint8)
    labels[ok] = current.labels[spec.flat_index(*ijk[ok].T)]
    return OccupancyGrid(spec, labels)
