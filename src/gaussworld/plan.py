"""Sampling trajectory planner scored against forecasted occupancy.

Candidates are constant-speed, constant-curvature unicycle rollouts; each is
scored by forecasting the scene along it, splatting the forecasts, and
counting obstacle voxels under the ego footprint, plus comfort and
reference-deviation penalties. The argmin candidate wins, ties toward the
lower index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import EMPTY, GaussianScene
from .flow import FlowField, Trajectory, Waypoint, forecast
from .grid import GridSpec
from .metrics import EGO_FOOTPRINT, Z_SLAB, footprint_voxels, l2_errors
from .splat import SplatParams, splat


@dataclass(frozen=True)
class PlannerConfig:
    num_steps: int = 6
    dt: float = 0.5
    speeds: tuple = (2.0, 4.0, 6.0)
    curvatures: tuple = (-0.2, -0.1, 0.0, 0.1, 0.2)
    footprint_length: float = EGO_FOOTPRINT[0]
    footprint_width: float = EGO_FOOTPRINT[1]
    collision_weight: float = 1.0
    comfort_weight: float = 0.1
    reference_weight: float = 0.1
    drivable_class_ids: frozenset = field(default_factory=frozenset)
    z_slab: tuple = Z_SLAB

    def __post_init__(self):
        if self.num_steps < 1:
            raise ValueError("num_steps must be >= 1")
        if self.footprint_length <= 0 or self.footprint_width <= 0:
            raise ValueError("footprint must be positive")
        for w in (self.collision_weight, self.comfort_weight, self.reference_weight):
            if w < 0:
                raise ValueError("weights must be >= 0")
        object.__setattr__(self, "speeds", tuple(float(v) for v in self.speeds))
        object.__setattr__(self, "curvatures", tuple(float(v) for v in self.curvatures))
        object.__setattr__(self, "drivable_class_ids", frozenset(int(v) for v in self.drivable_class_ids))
        object.__setattr__(self, "z_slab", tuple(float(v) for v in self.z_slab))


def unicycle_rollout(speed, curvature, num_steps, dt):
    """Closed-form constant-speed, constant-curvature rollout from the origin pose."""
    wps = (Waypoint.arc(speed, speed * curvature, k * dt) for k in range(1, num_steps + 1))
    return Trajectory(tuple(wps), dt)


def sample_candidates(cfg: PlannerConfig, reference: Trajectory = None):
    """Candidate lattice over the speed × curvature sets; the reference, if given, leads."""
    out = []
    if reference is not None:
        out.append(reference)
    for speed in cfg.speeds:
        for curv in cfg.curvatures:
            out.append(unicycle_rollout(speed, curv, cfg.num_steps, cfg.dt))
    return out


def _collision_count(labels, cfg: PlannerConfig):
    """Obstacle voxels among the labels under the footprint."""
    occupied = labels != EMPTY
    if cfg.drivable_class_ids:
        occupied &= ~np.isin(labels, sorted(cfg.drivable_class_ids))
    return int(np.count_nonzero(occupied))


def _comfort(plan: Trajectory):
    xy = np.vstack([[0.0, 0.0], plan.xy()])
    dists = np.linalg.norm(np.diff(xy, axis=0), axis=1)
    speeds = dists / plan.dt
    psis = np.array([0.0] + [w.psi for w in plan.waypoints])
    dpsi = np.abs(np.diff(psis))
    curv = np.divide(dpsi, dists, out=np.zeros_like(dpsi), where=dists > 1e-9)
    return float(np.sum(np.abs(np.diff(speeds)))) + float(np.sum(np.abs(curv)))


def score(plan: Trajectory, forecast_grids, cfg: PlannerConfig, reference: Trajectory = None):
    """Cost breakdown for one candidate against its ego-frame forecast grids."""
    if len(forecast_grids) != len(plan):
        raise ValueError("one forecast grid per plan step is required")
    spec = forecast_grids[0].spec
    for k, g in enumerate(forecast_grids):
        if g.spec != spec:
            raise ValueError(f"forecast grid of step {k + 1} has spec {g.spec}, but step 1 has {spec}")
    # forecast grids are already in the planned ego frame: footprint sits at the origin
    voxels = footprint_voxels(spec, Waypoint.identity(), (cfg.footprint_length, cfg.footprint_width), cfg.z_slab)
    collision = sum(_collision_count(g.labels[voxels], cfg) for g in forecast_grids)
    comfort = _comfort(plan)
    deviation = 0.0
    if reference is not None:
        deviation = l2_errors(plan, reference, (min(len(plan), len(reference)),), "averaged")[0]
    total = (
        cfg.collision_weight * collision
        + cfg.comfort_weight * comfort
        + cfg.reference_weight * deviation
    )
    return {
        "collision": float(collision),
        "comfort": comfort,
        "deviation": deviation,
        "total": float(total),
    }


def plan(
    scene: GaussianScene,
    flows: FlowField,
    spec: GridSpec,
    cfg: PlannerConfig,
    splat_params: SplatParams,
    reference: Trajectory = None,
):
    """Pick the cheapest candidate: forecast along it, splat, and score.

    Returns (best trajectory, cost table); the table holds one score dict per
    candidate in sampling order.
    """
    cands = sample_candidates(cfg, reference)
    # score reads labels only under the footprint at each ego frame's origin, so only those voxels are splatted
    voxels = footprint_voxels(spec, Waypoint.identity(), (cfg.footprint_length, cfg.footprint_width), cfg.z_slab)
    table = []
    for cand in cands:
        scenes = forecast(scene, flows, cand, splat_params.cfg)
        grids = [splat(s, spec, splat_params, voxels)[0] for s in scenes]
        table.append(score(cand, grids, cfg, reference))
    best = min(range(len(cands)), key=lambda i: (table[i]["total"], i))
    return cands[best], table
