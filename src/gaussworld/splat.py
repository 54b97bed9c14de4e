"""Gaussian-to-voxel splatting and the occupancy cross-entropy loss with analytic gradients.

Splatting evaluates the class-weighted kernel sum at every voxel center to
produce a dense semantic label grid. The loss interprets the per-class
evidence, together with a fixed empty-evidence mass, as a (C+1)-way
distribution per voxel and scores it against a target label grid; gradients
with respect to every Gaussian parameter are exact derivatives of that scalar.

One block kernel groups Gaussians by voxel-block shape and evaluates a chunk at
a time with batched matmuls, once per loss evaluation: the backward pass reduces
over the pairs inside the κ cutoff that the forward pass found. Voxels sum their
terms in ascending Gaussian order, bit-identical to a per-Gaussian loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EMPTY, ClassConfig, GaussianScene, quat_to_rot
from .grid import GridSpec, OccupancyGrid, voxel_centers

PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class SplatParams:
    cfg: ClassConfig
    use_index: bool = True  # restrict each Gaussian to its cutoff bounding box


@dataclass(frozen=True)
class GaussianGrads:
    """Exact gradients of the occupancy loss per Gaussian, plus the loss itself."""

    d_means: np.ndarray  # (N,3)
    d_log_scales: np.ndarray  # (N,3)
    d_logits: np.ndarray  # (N,C)
    d_rotations: np.ndarray  # (N,4), ambient tangent (projected to the unit sphere)
    loss_value: float


_CHUNK_PAIRS = 1 << 14  # Gaussian-voxel pairs per kernel chunk; bounds the transient arrays


def _block_chunks(scene: GaussianScene, spec: GridSpec, kappa, use_index):
    """Yield (g, flat, u, q) for chunks of Gaussians that share one block shape.

    Each Gaussian's block is the voxel box within κ·max(scale) of its mean,
    clipped to the grid (the whole grid when use_index is off). g (B,) holds
    ascending Gaussian indices, flat (B, n) their block voxels in i-slowest
    order, u = Rᵀ(center − mean) (B, n, 3), and q (B, n) the squared
    Mahalanobis distances. Batched matmul runs the same BLAS call per Gaussian
    as a per-Gaussian loop would, so every value is bit-identical to one.
    """
    dims = np.array(spec.dims)
    if use_index:
        r = kappa * np.exp(np.max(scene.log_scales, axis=1))[:, None]  # κ·max(scale) bounds any rotation
        o, vs = np.array(spec.origin), spec.voxel_size
        lo = np.maximum(np.ceil((scene.means - r - o) / vs - 0.5).astype(int), 0)
        hi = np.minimum(np.floor((scene.means + r - o) / vs - 0.5).astype(int), dims - 1)
    else:
        lo = np.zeros(scene.means.shape, int)
        hi = lo + dims - 1
    shape = hi - lo + 1
    live = np.flatnonzero(np.all(shape > 0, axis=1))
    if live.size == 0:
        return
    nx, ny, _ = spec.dims
    key = shape[live] @ np.array([1, nx + 1, (nx + 1) * (ny + 1)])
    order = np.argsort(key, kind="stable")  # keeps each group's Gaussians ascending
    groups = np.split(live[order], np.flatnonzero(np.diff(key[order])) + 1)
    base = lo @ np.array([1, nx, nx * ny])
    centers = voxel_centers(spec)
    rots = quat_to_rot(scene.rotations)
    s2inv = np.exp(-2.0 * scene.log_scales)
    for members in groups:
        bx, by, bz = shape[members[0]]
        offs = (np.arange(bx)[:, None, None] + nx * (np.arange(by)[:, None] + ny * np.arange(bz))).ravel()
        step = max(1, _CHUNK_PAIRS // offs.size)
        for c0 in range(0, members.size, step):
            g = members[c0 : c0 + step]
            flat = base[g][:, None] + offs
            d = np.take(centers, flat, axis=0)
            d -= scene.means[g][:, None, :]
            u = d @ rots[g]
            q = ((u * u) @ s2inv[g][:, :, None])[..., 0]
            yield g, flat, u, q


def evidence_field(scene: GaussianScene, spec: GridSpec, params: SplatParams):
    """Dense per-class evidence F (num_voxels, C) and the pairs inside the κ cutoff.

    pairs holds one (g, gi, flat, u, q) per kernel chunk: its ascending Gaussians g
    and, per inside pair, the Gaussian, the voxel, u and q. Each voxel sums its terms
    in ascending Gaussian order, exactly as a per-Gaussian scatter-add would.
    """
    cfg = params.cfg
    M = spec.num_voxels
    F = np.zeros((M, cfg.num_classes))
    k2 = cfg.mahalanobis_cutoff**2
    pairs = []
    for g, flat, u, q in _block_chunks(scene, spec, cfg.mahalanobis_cutoff, params.use_index):
        i = np.flatnonzero(q <= k2)  # 1-D takes: cheaper than gathering with a 2-D mask
        pairs.append((g, g[i // q.shape[1]], flat.take(i), u.reshape(-1, 3).take(i, axis=0), q.take(i)))
    if not pairs:
        return F, pairs
    gi = np.concatenate([p[1] for p in pairs])
    order = np.argsort(gi, kind="stable")
    gi, flat = gi[order], np.concatenate([p[2] for p in pairs])[order]
    rho = np.exp(-0.5 * np.concatenate([p[4] for p in pairs])[order])
    probs = scene.class_probs()
    for c in range(cfg.num_classes):
        F[:, c] = np.bincount(flat, weights=rho * probs[gi, c], minlength=M)
    return F, pairs


def labels_from_field(F, empty_evidence):
    """Per-voxel argmax label, EMPTY where total evidence is below threshold."""
    total = F.sum(axis=1)
    lab = np.argmax(F, axis=1).astype(np.uint8)
    lab[total < empty_evidence] = EMPTY
    return lab


def splat(scene: GaussianScene, spec: GridSpec, params: SplatParams):
    """Rasterize the scene to an occupancy label grid.

    Returns (OccupancyGrid, F) where F is the dense per-class evidence.
    """
    if len(scene) and scene.num_classes != params.cfg.num_classes:
        raise ValueError("scene class count does not match splat config")
    F = evidence_field(scene, spec, params)[0]
    grid = OccupancyGrid(spec, labels_from_field(F, params.cfg.empty_evidence))
    return grid, F


def _cross_entropy(F, target: OccupancyGrid, cfg: ClassConfig, with_grad=False):
    """Mean per-voxel (C+1)-way cross-entropy of evidence F against target labels.

    Returns the loss, and with_grad also dL/dF (M, C) with the 1/M averaging
    folded in (zero where the target probability is clamped at PROB_FLOOR).
    """
    M = target.spec.num_voxels
    eps = cfg.empty_evidence
    t = target.labels
    denom = F.sum(axis=1) + eps
    is_empty = t == EMPTY
    sem_idx = np.nonzero(~is_empty)[0]
    sem_t = t[sem_idx].astype(np.int64)
    if np.any(sem_t >= cfg.num_classes):
        raise ValueError("target contains labels outside the class range")
    loss = np.sum(np.log(denom[is_empty])) - np.count_nonzero(is_empty) * np.log(eps)
    Pt = F[sem_idx, sem_t] / denom[sem_idx]
    loss += -np.sum(np.log(np.maximum(Pt, PROB_FLOOR)))
    loss = float(loss / M)
    if not with_grad:
        return loss
    dLdF = np.zeros_like(F)
    dLdF[is_empty] = (1.0 / denom[is_empty])[:, None]
    active = Pt >= PROB_FLOOR
    active_idx, active_t = sem_idx[active], sem_t[active]
    dLdF[active_idx] = (1.0 / denom[active_idx])[:, None]
    dLdF[active_idx, active_t] -= 1.0 / F[active_idx, active_t]
    dLdF /= M
    return loss, dLdF


def occupancy_loss(scene: GaussianScene, target: OccupancyGrid, params: SplatParams):
    """Loss value only; same objective as occupancy_loss_and_grads."""
    return _cross_entropy(evidence_field(scene, target.spec, params)[0], target, params.cfg)


# quaternion -> rotation-matrix Jacobians for unit quaternions (w,x,y,z): (N,4) -> (N,4,3,3)
def _dR_dquat(q):
    w, x, y, z = q.T
    o = np.zeros_like(w)
    J = [
        [[o, -z, y], [z, o, -x], [-y, x, o]],
        [[o, y, z], [y, -2 * x, -w], [z, w, -2 * x]],
        [[-2 * y, x, w], [x, o, z], [-w, z, -2 * y]],
        [[-2 * z, -w, x], [w, -2 * z, y], [x, y, o]],
    ]
    return 2.0 * np.moveaxis(np.array(J), -1, 0)


def occupancy_loss_and_grads(scene: GaussianScene, target: OccupancyGrid, params: SplatParams):
    """Mean per-voxel (C+1)-way cross-entropy vs the target labels, with exact gradients.

    Per voxel, class probabilities are P_c = F_c/(S+ε) and P_EMPTY = ε/(S+ε)
    with S = ΣF and ε the empty-evidence mass; the loss is -log of the target's
    probability (floored at PROB_FLOOR), averaged over voxels. Voxels beyond a
    Gaussian's κ cutoff contribute zero gradient to that Gaussian.
    """
    cfg = params.cfg
    C = cfg.num_classes
    N = len(scene)
    F, pairs = evidence_field(scene, target.spec, params)
    loss, dLdF = _cross_entropy(F, target, cfg, with_grad=True)

    probs = scene.class_probs()
    s2inv = np.exp(-2.0 * scene.log_scales)
    centers = voxel_centers(target.spec)  # d = center − mean repeats the kernel's bits
    # per Gaussian: Σw·a | Σw·u² | Σρ·dL/dF | Σw·d⊗a, with w = dL/dρ·ρ and a = S⁻²·Rᵀd
    sums = np.zeros((N, 15 + C))
    for g, gi, flat, u, q in pairs:
        d, gdF = centers[flat] - scene.means[gi], dLdF[flat]
        rho = np.exp(-0.5 * q)
        w = np.einsum("pc,pc->p", gdF, probs[gi]) * rho
        wa = w[:, None] * (u * s2inv[gi])
        dwa = (d[:, :, None] * wa[:, None, :]).reshape(-1, 9)
        terms = np.concatenate([wa, w[:, None] * u * u, rho[:, None] * gdF, dwa], axis=1)
        K = terms.shape[1]
        b = np.searchsorted(g, gi)  # each pair's row in g
        sums[g] = np.bincount((b[:, None] * K + np.arange(K)).ravel(), terms.ravel(), g.size * K).reshape(-1, K)
    sum_wa, sum_wuu, dLdp = sums[:, :3], sums[:, 3:6], sums[:, 6 : 6 + C]
    dLdR = -sums[:, 6 + C :].reshape(N, 3, 3)  # dρ/dR = -ρ·d·aᵀ

    qv = scene.rotations
    dq_hat = np.einsum("nmij,nij->nm", _dR_dquat(qv), dLdR)
    return GaussianGrads(
        d_means=np.einsum("nij,nj->ni", quat_to_rot(qv), sum_wa),  # dρ/dμ = ρ·Σ⁻¹d = ρ·R·a
        d_log_scales=s2inv * sum_wuu,  # dρ/d(ls_k) = ρ·u_k²·s2inv_k
        d_logits=probs * (dLdp - np.sum(dLdp * probs, axis=1, keepdims=True)),
        d_rotations=dq_hat - qv * np.sum(qv * dq_hat, axis=1, keepdims=True),  # unit-sphere tangent
        loss_value=loss,
    )
