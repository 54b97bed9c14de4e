"""Scene flow application, SE(2) ego-frame transforms, forecasting, and the static baseline.

Flows are cumulative per-Gaussian displacements from the observation frame;
ego waypoints are planar poses (x, y, yaw) relative to that same frame. A
forecast step moves the Gaussians by their displacement and then re-expresses
the scene in the frame of the planned waypoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "psi", wrap_angle(float(self.psi)))

    @classmethod
    def identity(cls):
        return cls(0.0, 0.0, 0.0)

    def rotation2d(self):
        c, s = math.cos(self.psi), math.sin(self.psi)
        return np.array([[c, -s], [s, c]])

    def inverse(self):
        t = -self.rotation2d().T @ np.array([self.x, self.y])
        return Waypoint(t[0], t[1], -self.psi)


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
        object.__setattr__(self, "waypoints", wps)
        object.__setattr__(self, "dt", float(self.dt))

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
    t = np.array([w1.x, w1.y]) + w1.rotation2d() @ np.array([w2.x, w2.y])
    return Waypoint(t[0], t[1], w1.psi + w2.psi)


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
    rotations = (
        quat_multiply(q_yaw[None, :], scene.rotations) if len(scene) else scene.rotations
    )
    pose = compose(Waypoint(*scene.frame_pose), w)
    return replace(
        scene,
        means=means,
        rotations=rotations,
        frame_pose=(pose.x, pose.y, pose.psi),
    )


def forecast(scene: GaussianScene, flows: FlowField, plan: Trajectory, cfg: ClassConfig = None):
    """Scenes as observed from each planned pose: flow then ego transform, per step."""
    if flows.num_steps != len(plan):
        raise ValueError("flow field and plan must cover the same number of steps")
    if flows.num_gaussians != len(scene):
        raise ValueError("flow field does not match the scene size")
    out = []
    for k in range(flows.num_steps):
        moved = apply_flow(scene, flows.steps[k], cfg)
        shifted = ego_transform(moved, plan.waypoints[k])
        out.append(replace(shifted, timestamp_index=scene.timestamp_index + k + 1))
    return out


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
