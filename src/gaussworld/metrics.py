"""Evaluation metrics: occupancy mIoU/IoU, trajectory L2 error, collision rate, forecast scores."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .boxes import points_in_rect, rect_corners, rects_overlap
from .core import EMPTY
from .flow import Trajectory, Waypoint, compose
from .grid import GridSpec, OccupancyGrid, box_indices, index_box, voxel_centers

# the ego box every plan is scored with: (length, width) in metres, and the z range of the voxels it covers
EGO_FOOTPRINT = (4.6, 1.9)
Z_SLAB = (0.2, 2.0)


def miou_iou(pred: OccupancyGrid, gt: OccupancyGrid):
    """Semantic mIoU, binary occupied IoU, and per-class IoUs.

    mIoU averages only classes present in the ground truth; per_class maps
    every class present in either grid to its intersection-over-union.
    """
    if pred.spec != gt.spec:
        raise ValueError("grids must share the same spec")
    p, g = pred.labels, gt.labels
    classes = sorted(set(np.unique(g[g != EMPTY])) | set(np.unique(p[p != EMPTY])))
    per_class = {}
    present_in_gt = []
    for c in classes:
        inter = int(np.sum((p == c) & (g == c)))
        union = int(np.sum((p == c) | (g == c)))
        iou = inter / union if union else 0.0
        per_class[int(c)] = iou
        if np.any(g == c):
            present_in_gt.append(iou)
    miou = float(np.mean(present_in_gt)) if present_in_gt else 1.0
    p_occ, g_occ = p != EMPTY, g != EMPTY
    union_occ = int(np.sum(p_occ | g_occ))
    iou = float(np.sum(p_occ & g_occ) / union_occ) if union_occ else 1.0
    return miou, iou, per_class


def l2_errors(plan: Trajectory, gt: Trajectory, horizons=(2, 4, 6), mode="at-step"):
    """Planar displacement errors at the given horizon steps (1-indexed).

    'at-step' evaluates the error at the horizon waypoint; 'averaged' means the
    per-step errors over all steps up to and including the horizon.
    """
    if mode not in ("at-step", "averaged"):
        raise ValueError("mode must be 'at-step' or 'averaged'")
    n = min(len(plan), len(gt))
    errs = np.linalg.norm(plan.xy()[:n] - gt.xy()[:n], axis=1)
    out = []
    for h in horizons:
        if not 1 <= h <= n:
            raise ValueError(f"horizon {h} outside trajectory length {n}")
        if mode == "at-step":
            out.append(float(errs[h - 1]))
        else:
            out.append(float(np.mean(errs[:h])))
    return out


@dataclass(frozen=True)
class CollisionScenario:
    """Ground truth for collision checking, all in the observation frame at time T.

    boxes_per_step[k] holds other agents' boxes at future step k+1; grids, when
    given, are ego-frame occupancy forecasts aligned to gt_ego waypoints.
    """

    boxes_per_step: tuple = ()
    grids: tuple = ()
    gt_ego: Trajectory = None
    obstacle_class_ids: frozenset = field(default_factory=frozenset)


def footprint_voxels(spec: GridSpec, pose: Waypoint, footprint, z_slab):
    """Ascending flat indices of the voxels centred in the z slab and under the (length, width) footprint at pose.

    Centres are built only for the index box of the footprint's bounding box.
    """
    xs, ys = rect_corners(pose.x, pose.y, pose.psi, footprint[0], footprint[1])
    ijk = box_indices(*index_box(spec, (xs.min(), ys.min(), z_slab[0]), (xs.max(), ys.max(), z_slab[1])))
    centers = voxel_centers(spec, ijk)
    inside = (centers[:, 2] >= z_slab[0]) & (centers[:, 2] <= z_slab[1])
    inside &= points_in_rect(centers, pose.x, pose.y, pose.psi, footprint[0] / 2.0, footprint[1] / 2.0)
    return spec.flat_index(*ijk.T)[inside]


def _collides_at_step(plan: Trajectory, scenario: CollisionScenario, step):
    w = plan.waypoints[step - 1]
    ego_rect = (w.x, w.y, w.psi, *EGO_FOOTPRINT)
    if scenario.boxes_per_step and step <= len(scenario.boxes_per_step):
        for box in scenario.boxes_per_step[step - 1]:
            b = (box.center[0], box.center[1], box.yaw, box.size[0], box.size[1])
            if rects_overlap(ego_rect, b):
                return True
    if scenario.grids and step <= len(scenario.grids):
        grid = scenario.grids[step - 1]
        ego_frame = (
            scenario.gt_ego.waypoints[step - 1] if scenario.gt_ego is not None else Waypoint.identity()
        )
        rel = compose(ego_frame.inverse(), w)
        labels = grid.labels[footprint_voxels(grid.spec, rel, EGO_FOOTPRINT, Z_SLAB)]
        occupied = labels != EMPTY
        if scenario.obstacle_class_ids:
            occupied &= np.isin(labels, sorted(scenario.obstacle_class_ids))
        if np.any(occupied):
            return True
    return False


def collision_rate(plans, scenarios, horizons=(2, 4, 6)):
    """Percentage of (plan, scenario) samples colliding at or before each horizon.

    A sample collides at horizon h if, at any step <= h, the EGO_FOOTPRINT box at
    the planned waypoint pose intersects a ground-truth agent box or an
    obstacle-class occupied voxel.
    """
    if len(plans) != len(scenarios):
        raise ValueError("one scenario per plan is required")
    n = len(plans)
    first = []  # each sample's first colliding step, inf when none up to the last horizon
    for plan, scenario in zip(plans, scenarios):
        steps = range(1, min(max(horizons, default=0), len(plan)) + 1)
        first.append(next((k for k in steps if _collides_at_step(plan, scenario, k)), math.inf))
    return [100.0 * sum(f <= h for f in first) / n if n else 0.0 for h in horizons]


def forecast_eval(pred_grids, gt_grids, horizons=(2, 4, 6)):
    """Per-horizon (mIoU, IoU) for aligned grid sequences, plus their averages.

    Index 0 of each sequence is the current frame; horizons index future steps.
    The averages cover exactly the listed horizons.
    """
    if len(pred_grids) != len(gt_grids):
        raise ValueError("prediction and ground-truth sequences must align")
    per_horizon = {}
    for h in horizons:
        if not 0 <= h < len(pred_grids):
            raise ValueError(f"horizon {h} outside sequence length {len(pred_grids)}")
        m, i, _ = miou_iou(pred_grids[h], gt_grids[h])
        per_horizon[int(h)] = (m, i)
    avg_miou = float(np.mean([v[0] for v in per_horizon.values()]))
    avg_iou = float(np.mean([v[1] for v in per_horizon.values()]))
    return {"per_horizon": per_horizon, "avg": (avg_miou, avg_iou)}
