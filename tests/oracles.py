"""Reference evaluators that the program is tested against.

The pointwise evaluators take one query point at a time over every Gaussian,
with no voxel blocks, so they share no code path with `gaussworld.splat`. The
whole-grid footprint and box tests are frozen copies of the versions that
built every voxel centre; the index-box versions must match them bit for bit.
The flat-bincount backward pass is a frozen copy of the loss and gradients
before each per-Gaussian sum got its own `bincount`; they must match it bit for
bit too. The four discrepancy functions are frozen copies of the loss ledger
from before its shared matcher and Chamfer helpers, each writing out its own
Hungarian mean or Chamfer; every ledger value must equal theirs.
"""

import numpy as np
from scipy.optimize import linear_sum_assignment

from gaussworld.boxes import points_in_box, points_in_rect
from gaussworld.core import EMPTY, ClassConfig, GaussianScene, quat_normalize, quat_to_rot
from gaussworld.flow import wrap_angle
from gaussworld.grid import GridSpec, OccupancyGrid, voxel_centers
from gaussworld.splat import _cross_entropy, _dR_dquat, evidence_field


def covariance(log_scale, rotation):
    """Covariance Σ = R·diag(exp(2·log_scale))·Rᵀ. Always SPD for clamped scales."""
    ls = np.asarray(log_scale, dtype=np.float64)
    q = np.asarray(rotation, dtype=np.float64)
    if not (np.all(np.isfinite(ls)) and np.all(np.isfinite(q))):
        raise ValueError("non-finite covariance parameters")
    R = quat_to_rot(quat_normalize(q))
    return (R * np.exp(2.0 * ls)) @ R.T


def class_field_at(scene: GaussianScene, x, cfg: ClassConfig):
    """Per-class evidence F_c(x) = Σ_i softmax(logits_i)_c · density_i(x), with κ cutoff."""
    if len(scene) == 0:
        return np.zeros(cfg.num_classes)
    x = np.asarray(x, dtype=np.float64)
    d = x[None, :] - scene.means  # (N,3)
    R = quat_to_rot(scene.rotations)  # (N,3,3)
    u = np.einsum("nij,ni->nj", R, d)  # Rᵀd per Gaussian
    q2 = np.sum(u * u * np.exp(-2.0 * scene.log_scales), axis=1)
    rho = np.where(q2 <= cfg.mahalanobis_cutoff**2, np.exp(-0.5 * q2), 0.0)
    return rho @ scene.class_probs()


def label_at(scene: GaussianScene, x, cfg: ClassConfig):
    """Class label at x, or EMPTY when total evidence falls below the threshold.

    Ties in the per-class field break toward the lowest class index.
    """
    F = class_field_at(scene, x, cfg)
    if float(np.sum(F)) < cfg.empty_evidence:
        return EMPTY
    return int(np.argmax(F))


def footprint_mask_full_grid(grid: OccupancyGrid, occupied, pose, footprint, z_slab):
    """`metrics.footprint_mask` as it was: tests every voxel centre of the grid."""
    centers = voxel_centers(grid.spec)
    mask = occupied & (centers[:, 2] >= z_slab[0]) & (centers[:, 2] <= z_slab[1])
    idx = np.flatnonzero(mask)
    mask[idx] = points_in_rect(centers[idx], pose.x, pose.y, pose.psi, footprint[0] / 2.0, footprint[1] / 2.0)
    return mask


def rasterize_boxes_full_grid(boxes, spec: GridSpec):
    """`synth.rasterize_boxes` as it was: tests every voxel centre against every box; later boxes win."""
    labels = np.full(spec.num_voxels, EMPTY, dtype=np.uint8)
    centers = voxel_centers(spec)
    for box in boxes:
        labels[points_in_box(centers, box)] = box.class_id
    return OccupancyGrid(spec, labels)


def loss_and_grads_flat_bincount(scene: GaussianScene, target: OccupancyGrid, params, base=None):
    """`splat.occupancy_loss_and_grads` as it was: each chunk's (pairs × (15+C)) terms in one flat bincount.

    Returns the loss and the d_means, d_log_scales, d_logits and d_rotations arrays.
    """
    cfg = params.cfg
    C = cfg.num_classes
    N = len(scene)
    F, pairs = evidence_field(scene, target.spec, params, base)
    loss, dLdF = _cross_entropy(F, target, cfg, with_grad=True)
    probs = scene.class_probs()
    s2inv = np.exp(-2.0 * scene.log_scales)
    centers = voxel_centers(target.spec)
    sums = np.zeros((N, 15 + C))
    for g, gi, flat, u, q in pairs:
        d, gdF = centers[flat] - scene.means[gi], dLdF[flat]
        rho = np.exp(-0.5 * q)
        w = np.einsum("pc,pc->p", gdF, probs[gi]) * rho
        wa = w[:, None] * (u * s2inv[gi])
        dwa = (d[:, :, None] * wa[:, None, :]).reshape(-1, 9)
        terms = np.concatenate([wa, w[:, None] * u * u, rho[:, None] * gdF, dwa], axis=1)
        K = terms.shape[1]
        b = np.searchsorted(g, gi)
        sums[g] = np.bincount((b[:, None] * K + np.arange(K)).ravel(), terms.ravel(), g.size * K).reshape(-1, K)
    sum_wa, sum_wuu, dLdp = sums[:, :3], sums[:, 3:6], sums[:, 6 : 6 + C]
    dLdR = -sums[:, 6 + C :].reshape(N, 3, 3)
    qv = scene.rotations
    dq_hat = np.einsum("nmij,nij->nm", _dR_dquat(qv), dLdR)
    return (
        loss,
        np.einsum("nij,nj->ni", quat_to_rot(qv), sum_wa),
        s2inv * sum_wuu,
        probs * (dLdp - np.sum(dLdp * probs, axis=1, keepdims=True)),
        dq_hat - qv * np.sum(qv * dq_hat, axis=1, keepdims=True),
    )


def representation_discrepancy_own_chamfer(a: GaussianScene, b: GaussianScene, lambda_sem=1.0, far_cost=10.0):
    """`losses.representation_discrepancy` as it was, with its own Chamfer."""
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


def detection_discrepancy_own_matcher(pred_boxes, gt_boxes, unmatched_penalty=5.0):
    """`losses.detection_discrepancy` as it was, with its own Hungarian mean."""
    np_, ng = len(pred_boxes), len(gt_boxes)
    if np_ == 0 and ng == 0:
        return 0.0
    denom = max(np_, ng)
    if np_ == 0 or ng == 0:
        return float(unmatched_penalty)
    centers_p = np.array([b.center[:2] for b in pred_boxes])
    centers_g = np.array([b.center[:2] for b in gt_boxes])
    cost = np.linalg.norm(centers_p[:, None, :] - centers_g[None, :, :], axis=2)
    rows, cols = linear_sum_assignment(cost)
    total = sum(_box_pair_cost(pred_boxes[r], gt_boxes[c]) for r, c in zip(rows, cols))
    total += unmatched_penalty * (denom - len(rows))
    return float(total / denom)


def _resample_polyline(points, spacing=0.5):
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


def map_discrepancy_own_chamfer(pred_polylines, gt_polylines, spacing=0.5, far_cost=10.0):
    """`losses.map_discrepancy` as it was, with its own Chamfer and resampling."""
    cats = sorted({c for c, _ in pred_polylines} | {c for c, _ in gt_polylines})
    if not cats:
        return 0.0
    vals = []
    for cat in cats:
        pa = [_resample_polyline(pts, spacing) for c, pts in pred_polylines if c == cat]
        pb = [_resample_polyline(pts, spacing) for c, pts in gt_polylines if c == cat]
        if not pa or not pb:
            vals.append(float(far_cost))
            continue
        vals.append(_chamfer_points(np.vstack(pa), np.vstack(pb)))
    return float(np.mean(vals))


def motion_discrepancy_own_matcher(pred_motions, gt_motions, unmatched_penalty=5.0):
    """`losses.motion_discrepancy` as it was, Hungarian-matched on ADE, with its own matched mean."""
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

    cost = np.array([[ade(p, g) for g in gt_motions] for p in pred_motions])
    rows, cols = linear_sum_assignment(cost)
    matching = list(zip(rows, cols))
    total = sum(ade(pred_motions[r], gt_motions[c]) for r, c in matching)
    total += unmatched_penalty * (denom - len(matching))
    return float(total / denom)
