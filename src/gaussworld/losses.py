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

FAR_COST = 10.0  # a side with nothing to match, in squared-meter (scenes) or meter (map) equivalents
UNMATCHED_PENALTY = 5.0  # per unmatched box or agent motion
POLYLINE_SPACING = 0.5  # arclength between resampled map points, meters


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


def _matched_mean(match_cost, pair_cost):
    """Hungarian-match two (P, G) cost arrays on match_cost; sum matched pair_cost.

    Each unmatched item adds UNMATCHED_PENALTY and the sum is divided by
    max(P, G). Both sides empty score 0, one side empty the penalty.
    """
    P, G = match_cost.shape
    if P == 0 and G == 0:
        return 0.0
    if P == 0 or G == 0:
        return UNMATCHED_PENALTY
    from scipy.optimize import linear_sum_assignment  # deferred: importing it costs every process ~40 MB

    rows, cols = linear_sum_assignment(match_cost)
    total = sum(pair_cost[r, c] for r, c in zip(rows, cols))
    total += UNMATCHED_PENALTY * (max(P, G) - len(rows))
    return float(total / max(P, G))


def _chamfer(cost):
    """0.5·(mean row minimum + mean column minimum) of a (P, G) cost; an empty side costs FAR_COST, both 0."""
    if cost.size == 0:
        return 0.0 if cost.shape == (0, 0) else FAR_COST
    return float(0.5 * (np.mean(cost.min(axis=1)) + np.mean(cost.min(axis=0))))


def _pairwise(f, a, b):
    """(len(a), len(b)) array of f(x, y), also when a side is empty."""
    return np.array([[f(x, y) for y in b] for x in a]).reshape(len(a), len(b))


def occupancy_discrepancy(scene: GaussianScene, gt: OccupancyGrid, splat_params: SplatParams):
    """Fraction of voxels whose splatted label disagrees with the ground truth.

    Zero exactly when the scene rasterizes to the target grid, unlike the
    cross-entropy used to drive fitting, which has an irreducible floor.
    """
    grid, _ = splat(scene, gt.spec, splat_params)
    return float(np.mean(grid.labels != gt.labels))


def representation_discrepancy(a: GaussianScene, b: GaussianScene):
    """Symmetric Chamfer between Gaussian sets.

    Pair cost is squared mean distance plus the squared distance between
    class-probability vectors; one side empty scores the flat FAR_COST,
    whatever the other side's size.
    """
    if a.class_names != b.class_names:
        raise ValueError("scenes must share the class table")
    d2 = np.sum((a.means[:, None, :] - b.means[None, :, :]) ** 2, axis=2)
    ps = np.sum((a.class_probs()[:, None, :] - b.class_probs()[None, :, :]) ** 2, axis=2)
    return _chamfer(d2 + ps)


def _box_pair_cost(p, g):
    c = sum(abs(a - b) for a, b in zip(p.center, g.center))
    s = sum(abs(a - b) for a, b in zip(p.size, g.size))
    return c + s + abs(wrap_angle(p.yaw - g.yaw))


def detection_discrepancy(pred_boxes, gt_boxes):
    """Hungarian-matched L1 discrepancy on box center/size/yaw.

    Assignment minimizes center distance; unmatched boxes on either side cost
    UNMATCHED_PENALTY. Result is averaged over max(len(pred), len(gt)).
    """
    centers_p = np.array([b.center[:2] for b in pred_boxes]).reshape(-1, 2)
    centers_g = np.array([b.center[:2] for b in gt_boxes]).reshape(-1, 2)
    dist = np.linalg.norm(centers_p[:, None, :] - centers_g[None, :, :], axis=2)
    return _matched_mean(dist, _pairwise(_box_pair_cost, pred_boxes, gt_boxes))


def resample_polyline(points):
    """Points resampled every POLYLINE_SPACING of arclength, endpoints included."""
    p = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    if p.shape[0] < 2:
        raise ValueError("polylines need at least 2 points")
    seg = np.linalg.norm(np.diff(p, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    total = s[-1]
    if total == 0.0:
        return p[:1]
    t = np.arange(0.0, total, POLYLINE_SPACING)
    t = np.append(t, total)
    return np.stack([np.interp(t, s, p[:, 0]), np.interp(t, s, p[:, 1])], axis=1)


def map_discrepancy(pred_polylines, gt_polylines):
    """Per-category symmetric Chamfer on arclength-resampled polyline points, averaged over categories."""
    cats = sorted({c for c, _ in pred_polylines} | {c for c, _ in gt_polylines})
    if not cats:
        return 0.0

    def points(polylines, cat):
        return np.vstack([np.empty((0, 2))] + [resample_polyline(pts) for c, pts in polylines if c == cat])

    vals = []
    for cat in cats:
        a, b = points(pred_polylines, cat), points(gt_polylines, cat)
        vals.append(_chamfer(np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)))
    return float(np.mean(vals))


def _ade(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = min(len(a), len(b))
    return float(np.mean(np.linalg.norm(a[:n] - b[:n], axis=1)))


def motion_discrepancy(pred_motions, gt_motions):
    """Average displacement error over agents Hungarian-matched on that same error."""
    for side, motions in (("pred", pred_motions), ("gt", gt_motions)):
        for i, m in enumerate(motions):
            if len(m) == 0:
                raise ValueError(f"{side} motion {i} has no waypoints")
    ade = _pairwise(_ade, pred_motions, gt_motions)
    return _matched_mean(ade, ade)


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


def prediction_loss(forecast_scenes, gt_scenes, weights: LossWeights, gt_descs=None, splat_params: SplatParams = None):
    """Sum over future steps of the representation Chamfer plus perception terms.

    The perception term scores an empty description, with the forecasted
    scene splatted for occupancy, so its box, map and motion terms charge the
    full penalty or far cost wherever the future ground truth has items.
    """
    if len(forecast_scenes) != len(gt_scenes):
        raise ValueError("forecast and ground-truth scene lists must align")
    total = 0.0
    for k, (f, g) in enumerate(zip(forecast_scenes, gt_scenes)):
        if weights.re > 0.0:
            total += weights.re * representation_discrepancy(f, g)
        if weights.perc > 0.0:
            if gt_descs is None:
                raise ValueError("perception term requires ground-truth descriptions")
            total += weights.perc * perception_loss(
                SceneDescription(), gt_descs[k], weights, scene=f, splat_params=splat_params
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
