"""The training objective ledger: perception, prediction, and planning losses.

Every term is a geometric discrepancy computed on explicit scene data; weights
gate terms so that absent supervision contributes exactly zero. The composite
losses mirror the pipeline: perception scores descriptions of the current
scene, prediction scores forecasted scenes against future ground truth, and
planning adds the trajectory term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GaussianScene
from .flow import Trajectory, wrap_angle
from .grid import OccupancyGrid
from .splat import SplatParams, splat

DEFAULT_FAR_COST = 10.0  # unmatched-Gaussian penalty, squared-meter equivalent
DEFAULT_BOX_PENALTY = 5.0  # unmatched-box penalty


@dataclass(frozen=True)
class LossWeights:
    """Balance factors; a zero weight disables its term and its ground-truth requirement."""

    occ: float = 1.0
    det: float = 1.0
    map: float = 1.0
    motion: float = 1.0
    re: float = 1.0
    perc: float = 1.0
    tra: float = 1.0
    pred: float = 1.0

    def __post_init__(self):
        for name in ("occ", "det", "map", "motion", "re", "perc", "tra", "pred"):
            v = float(getattr(self, name))
            if not (v >= 0.0 and math.isfinite(v)):
                raise ValueError(f"weight {name} must be finite and >= 0")
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class SceneDescription:
    """Explicit scene description: agent boxes, map polylines, motions, occupancy."""

    boxes: tuple = ()  # Box instances
    map_polylines: tuple = ()  # (category, (P,2) float array) pairs
    agent_motions: tuple = ()  # per-box (F,2) future waypoint arrays
    occupancy: OccupancyGrid = None


def occupancy_discrepancy(scene: GaussianScene, gt: OccupancyGrid, splat_params: SplatParams):
    """Fraction of voxels whose splatted label disagrees with the ground truth.

    Zero exactly when the scene rasterizes to the target grid, unlike the
    cross-entropy used to drive fitting, which has an irreducible floor.
    """
    grid, _ = splat(scene, gt.spec, splat_params)
    return float(np.mean(grid.labels != gt.labels))


def representation_discrepancy(a: GaussianScene, b: GaussianScene, lambda_sem=1.0, far_cost=DEFAULT_FAR_COST):
    """Symmetric Chamfer between Gaussian sets.

    Pair cost is squared mean distance plus lambda_sem times the squared
    distance between class-probability vectors; one side empty scores the
    configured far cost per Gaussian.
    """
    if a.class_names != b.class_names:
        raise ValueError("scenes must share the class table")
    na, nb = len(a), len(b)
    if na == 0 and nb == 0:
        return 0.0
    if na == 0 or nb == 0:
        return float(far_cost)
    d2 = np.sum((a.means[:, None, :] - b.means[None, :, :]) ** 2, axis=2)
    ps = np.sum((a.class_probs()[:, None, :] - b.class_probs()[None, :, :]) ** 2, axis=2)
    cost = d2 + lambda_sem * ps
    return float(0.5 * (np.mean(cost.min(axis=1)) + np.mean(cost.min(axis=0))))


def _box_pair_cost(p, g):
    c = sum(abs(a - b) for a, b in zip(p.center, g.center))
    s = sum(abs(a - b) for a, b in zip(p.size, g.size))
    return c + s + abs(wrap_angle(p.yaw - g.yaw))


def detection_discrepancy(pred_boxes, gt_boxes, unmatched_penalty=DEFAULT_BOX_PENALTY):
    """Hungarian-matched L1 discrepancy on box center/size/yaw.

    Assignment minimizes center distance; unmatched boxes on either side cost
    a fixed penalty. Result is averaged over max(len(pred), len(gt)).
    """
    np_, ng = len(pred_boxes), len(gt_boxes)
    if np_ == 0 and ng == 0:
        return 0.0
    denom = max(np_, ng)
    if np_ == 0 or ng == 0:
        return float(unmatched_penalty)
    centers_p = np.array([b.center[:2] for b in pred_boxes])
    centers_g = np.array([b.center[:2] for b in gt_boxes])
    cost = np.linalg.norm(centers_p[:, None, :] - centers_g[None, :, :], axis=2)
    from scipy.optimize import linear_sum_assignment  # deferred: importing it costs every process ~40 MB

    rows, cols = linear_sum_assignment(cost)
    total = sum(_box_pair_cost(pred_boxes[r], gt_boxes[c]) for r, c in zip(rows, cols))
    total += unmatched_penalty * (denom - len(rows))
    return float(total / denom)


def resample_polyline(points, spacing=0.5):
    """Points resampled at fixed arclength spacing, endpoints included."""
    p = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    if p.shape[0] < 2:
        raise ValueError("polylines need at least 2 points")
    seg = np.linalg.norm(np.diff(p, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    total = s[-1]
    if total == 0.0:
        return p[:1]
    t = np.arange(0.0, total, spacing)
    t = np.append(t, total)
    return np.stack([np.interp(t, s, p[:, 0]), np.interp(t, s, p[:, 1])], axis=1)


def _chamfer_points(a, b):
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return 0.5 * (float(np.mean(d.min(axis=1))) + float(np.mean(d.min(axis=0))))


def map_discrepancy(pred_polylines, gt_polylines, spacing=0.5, far_cost=DEFAULT_FAR_COST):
    """Per-category symmetric Chamfer on arclength-resampled polyline points."""
    cats = sorted(
        {c for c, _ in pred_polylines} | {c for c, _ in gt_polylines}
    )
    if not cats:
        return 0.0
    vals = []
    for cat in cats:
        pa = [resample_polyline(pts, spacing) for c, pts in pred_polylines if c == cat]
        pb = [resample_polyline(pts, spacing) for c, pts in gt_polylines if c == cat]
        if not pa or not pb:
            vals.append(float(far_cost))
            continue
        vals.append(_chamfer_points(np.vstack(pa), np.vstack(pb)))
    return float(np.mean(vals))


def motion_discrepancy(pred_motions, gt_motions, matching=None, unmatched_penalty=DEFAULT_BOX_PENALTY):
    """Average displacement error over matched agents' future waypoints.

    matching is a list of (pred index, gt index) pairs; when omitted, agents
    are Hungarian-matched on their ADE cost.
    """
    np_, ng = len(pred_motions), len(gt_motions)
    if np_ == 0 and ng == 0:
        return 0.0
    denom = max(np_, ng)
    if np_ == 0 or ng == 0:
        return float(unmatched_penalty)

    def ade(a, b):
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        n = min(len(a), len(b))
        return float(np.mean(np.linalg.norm(a[:n] - b[:n], axis=1)))

    if matching is None:
        from scipy.optimize import linear_sum_assignment  # deferred, as in detection_discrepancy

        cost = np.array([[ade(p, g) for g in gt_motions] for p in pred_motions])
        rows, cols = linear_sum_assignment(cost)
        matching = list(zip(rows, cols))
    total = sum(ade(pred_motions[r], gt_motions[c]) for r, c in matching)
    total += unmatched_penalty * (denom - len(matching))
    return float(total / denom)


def perception_loss(
    pred: SceneDescription,
    gt: SceneDescription,
    weights: LossWeights,
    scene: GaussianScene = None,
    splat_params: SplatParams = None,
):
    """Weighted sum of occupancy, detection, map, and motion discrepancies.

    The occupancy term is the voxel label disagreement between the splatted
    scene and the ground-truth grid. Zero-weight terms are skipped entirely
    and tolerate missing ground truth.
    """
    total = 0.0
    if weights.occ > 0.0:
        if scene is None or gt.occupancy is None or splat_params is None:
            raise ValueError("occupancy term requires a scene, gt occupancy, and splat params")
        total += weights.occ * occupancy_discrepancy(scene, gt.occupancy, splat_params)
    if weights.det > 0.0:
        total += weights.det * detection_discrepancy(pred.boxes, gt.boxes)
    if weights.map > 0.0:
        total += weights.map * map_discrepancy(pred.map_polylines, gt.map_polylines)
    if weights.motion > 0.0:
        total += weights.motion * motion_discrepancy(pred.agent_motions, gt.agent_motions)
    return float(total)


def prediction_loss(
    forecast_scenes,
    gt_scenes,
    weights: LossWeights,
    gt_descs=None,
    splat_params: SplatParams = None,
    pred_descs=None,
    lambda_sem=1.0,
):
    """Sum over future steps of the representation Chamfer plus perception terms.

    The perception term scores descriptions extracted from each forecasted
    scene (its splatted occupancy; boxes/map/motions only when a predicted
    description is supplied) against the future ground-truth description.
    """
    if len(forecast_scenes) != len(gt_scenes):
        raise ValueError("forecast and ground-truth scene lists must align")
    total = 0.0
    for k, (f, g) in enumerate(zip(forecast_scenes, gt_scenes)):
        if weights.re > 0.0:
            total += weights.re * representation_discrepancy(f, g, lambda_sem)
        if weights.perc > 0.0:
            if gt_descs is None:
                raise ValueError("perception term requires ground-truth descriptions")
            pred_d = pred_descs[k] if pred_descs is not None else SceneDescription()
            total += weights.perc * perception_loss(
                pred_d, gt_descs[k], weights, scene=f, splat_params=splat_params
            )
    return float(total)


def trajectory_loss(plan: Trajectory, gt: Trajectory):
    """Mean per-step L1 distance between planned and ground-truth (x, y)."""
    n = min(len(plan), len(gt))
    return float(np.mean(np.sum(np.abs(plan.xy()[:n] - gt.xy()[:n]), axis=1)))


def planning_loss(plan: Trajectory, gt_plan: Trajectory, weights: LossWeights, pred_loss_value=None):
    """Weighted trajectory loss plus the (precomputed) prediction loss."""
    total = 0.0
    if weights.tra > 0.0:
        total += weights.tra * trajectory_loss(plan, gt_plan)
    if weights.pred > 0.0:
        if pred_loss_value is None:
            raise ValueError("prediction term requires its precomputed value")
        total += weights.pred * float(pred_loss_value)
    return float(total)
