"""Gaussian-to-voxel splatting and the occupancy cross-entropy loss with analytic gradients.

Splatting evaluates the class-weighted kernel sum at every voxel center to
produce a dense semantic label grid. The loss interprets the per-class
evidence, together with a fixed empty-evidence mass, as a (C+1)-way
distribution per voxel and scores it against a target label grid; gradients
with respect to every Gaussian parameter are exact derivatives of that scalar.

One block kernel groups Gaussians by voxel-block shape and evaluates a chunk at
a time with batched matmuls, once per loss evaluation: the backward pass reduces
over the pairs inside the κ cutoff that the forward pass found, with one
`bincount` per sum column. Voxels sum their terms in ascending Gaussian order,
bit-identical to a per-Gaussian loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EMPTY, ClassConfig, GaussianScene, quat_to_rot
from .grid import GridSpec, OccupancyGrid, box_indices, voxel_centers

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


def _block_chunks(scene: GaussianScene, spec: GridSpec, kappa, use_index, voxels=None):
    """Yield (g, flat, u, q) for chunks of Gaussians that share one block shape.

    Each Gaussian's block is the voxel box of its κ ellipsoid: half-width
    κ·√Σₖₖ = κ·√(Σⱼ Rₖⱼ² sⱼ²) on axis k, capped at the κ·max(scale) box, padded
    by a relative 1e-9 so that q's rounding cannot leave an inside pair out, and
    clipped to the grid (the whole grid when use_index is off). voxels, when
    given, is a non-empty array of flat voxel indices: every block is then also
    clipped to their index bounding box, and centres are built for that box
    only. g (B,) holds ascending Gaussian indices, flat (B, n) their block voxels
    in i-slowest order, u = Rᵀ(center − mean) (B, n, 3), and q (B, n) the
    squared Mahalanobis distances. Batched matmul runs the same BLAS call per
    Gaussian as a per-Gaussian loop would, so every value is bit-identical to one.
    """
    dims = np.array(spec.dims)
    nx, ny, _ = spec.dims
    if voxels is None:
        box_lo, box_hi = np.zeros(3, int), dims - 1
    else:
        ijk = np.stack([voxels % nx, voxels // nx % ny, voxels // (nx * ny)], axis=1)
        box_lo, box_hi = ijk.min(axis=0), ijk.max(axis=0)
    rots = quat_to_rot(scene.rotations)
    if use_index:
        ls = scene.log_scales
        r = kappa * np.sqrt(np.einsum("nkj,nj->nk", rots * rots, np.exp(2.0 * ls)))
        # κ·max(scale) from elementwise maxima: np.max over a length-3 axis costs more than the whole box
        cap = kappa * np.exp(np.maximum(np.maximum(ls[:, 0], ls[:, 1]), ls[:, 2]))
        r = np.minimum(r, cap[:, None]) * (1 + 1e-9)
        o, vs = np.array(spec.origin), spec.voxel_size
        lo = np.maximum(np.ceil((scene.means - r - o) / vs - 0.5).astype(int), box_lo)
        hi = np.minimum(np.floor((scene.means + r - o) / vs - 0.5).astype(int), box_hi)
    else:
        lo, hi = np.broadcast_to(box_lo, scene.means.shape), np.broadcast_to(box_hi, scene.means.shape)
    shape = hi - lo + 1
    live = np.flatnonzero(np.all(shape > 0, axis=1))
    if live.size == 0:
        return
    key = shape[live] @ np.array([1, nx + 1, (nx + 1) * (ny + 1)])
    order = np.argsort(key, kind="stable")  # keeps each group's Gaussians ascending
    groups = np.split(live[order], np.flatnonzero(np.diff(key[order])) + 1)
    # the centre table covers the box x-fastest; a block voxel's row in it is its cell
    if voxels is None:
        centers, to_flat = voxel_centers(spec), None
    else:
        box = box_indices(box_lo, box_hi)
        centers, to_flat = voxel_centers(spec, box), spec.flat_index(*box.T)
    tx, ty, _ = box_hi - box_lo + 1
    base = (lo - box_lo) @ np.array([1, tx, tx * ty])
    s2inv = np.exp(-2.0 * scene.log_scales)
    for members in groups:
        bx, by, bz = shape[members[0]]
        offs = (np.arange(bx)[:, None, None] + tx * (np.arange(by)[:, None] + ty * np.arange(bz))).ravel()
        step = max(1, _CHUNK_PAIRS // offs.size)
        for c0 in range(0, members.size, step):
            g = members[c0 : c0 + step]
            cell = base[g][:, None] + offs
            d = np.take(centers, cell, axis=0)
            d -= scene.means[g][:, None, :]
            u = d @ rots[g]
            q = ((u * u) @ s2inv[g][:, :, None])[..., 0]
            yield g, cell if to_flat is None else to_flat[cell], u, q


def _inside_pairs(scene: GaussianScene, spec: GridSpec, params: SplatParams, voxels=None):
    """One (g, gi, flat, u, q) per kernel chunk: its ascending Gaussians g and, per pair inside the κ cutoff,
    the Gaussian, the voxel, u and q. voxels restricts the walk as in evidence_field."""
    kappa = params.cfg.mahalanobis_cutoff
    pairs = []
    if voxels is not None and voxels.size == 0:
        return pairs
    for g, flat, u, q in _block_chunks(scene, spec, kappa, params.use_index, voxels):
        i = np.flatnonzero(q <= kappa**2)  # 1-D takes: cheaper than gathering with a 2-D mask
        pairs.append((g, g[i // q.shape[1]], flat.take(i), u.reshape(-1, 3).take(i, axis=0), q.take(i)))
    return pairs


def evidence_field(scene: GaussianScene, spec: GridSpec, params: SplatParams, base=None, voxels=None):
    """Dense per-class evidence F (num_voxels, C) and the pairs inside the κ cutoff.

    pairs is _inside_pairs' list; a caller that needs only the pairs calls that.
    Each voxel sums its terms in ascending Gaussian order, exactly as a
    per-Gaussian scatter-add would. base, when given, is the (num_voxels, C)
    evidence of Gaussians held fixed: F starts from a copy of it instead of
    zeros, and the scene's sums are added to it. voxels, when given, is an array
    of flat voxel indices: only pairs in their index bounding box are walked, so
    F is exact in that box and 0 (or base) outside it.
    """
    cfg = params.cfg
    M = spec.num_voxels
    F = np.zeros((M, cfg.num_classes)) if base is None else base.copy()
    pairs = _inside_pairs(scene, spec, params, voxels)
    if not pairs:
        return F, pairs
    gi = np.concatenate([p[1] for p in pairs])
    order = np.argsort(gi, kind="stable")
    gi, flat = gi[order], np.concatenate([p[2] for p in pairs])[order]
    rho = np.exp(-0.5 * np.concatenate([p[4] for p in pairs])[order])
    probs = scene.class_probs()
    for c in range(cfg.num_classes):
        F[:, c] += np.bincount(flat, weights=rho * probs[gi, c], minlength=M)
    return F, pairs


def labels_from_field(F, eps):
    """Per-voxel argmax label, EMPTY where total evidence is below eps."""
    total = F.sum(axis=1)
    lab = np.argmax(F, axis=1).astype(np.uint8)
    lab[total < eps] = EMPTY
    return lab


def splat(scene: GaussianScene, spec: GridSpec, params: SplatParams, voxels=None):
    """Rasterize the scene to an occupancy label grid.

    Returns (OccupancyGrid, F) where F is the dense per-class evidence. voxels,
    when given, is an integer array of flat voxel indices: labels are computed
    there only and every other voxel is EMPTY. The labels and F rows at voxels
    are bit-identical to the full-grid splat's.
    """
    if len(scene) and scene.num_classes != params.cfg.num_classes:
        raise ValueError("scene class count does not match splat config")
    M, eps = spec.num_voxels, params.cfg.empty_evidence
    if voxels is not None:
        voxels = np.asarray(voxels)
        if voxels.ndim != 1 or voxels.dtype.kind not in "iu":
            raise ValueError("voxels must be a 1-D array of integer flat indices")
        if voxels.size and not (0 <= voxels.min() and voxels.max() < M):
            raise ValueError(f"voxels must lie in 0..{M - 1}")
        voxels = voxels.astype(np.int64, copy=False)  # box strides must not wrap in a narrow dtype
    F = evidence_field(scene, spec, params, voxels=voxels)[0]
    if voxels is None:
        labels = labels_from_field(F, eps)
    else:
        labels = np.full(M, EMPTY, dtype=np.uint8)
        labels[voxels] = labels_from_field(F[voxels], eps)
    return OccupancyGrid(spec, labels), F


def _voxel_terms(F, t, cfg: ClassConfig):
    """Per-voxel cross-entropy terms of evidence rows F (K, C) against labels t (K,).

    nll is log(S+ε) at EMPTY targets (the constant −log ε left out) and
    −log max(P_t, PROB_FLOOR) elsewhere. Also returns S+ε, the EMPTY mask, the
    labelled rows with their labels, and P_t there.
    """
    denom = F.sum(axis=1) + cfg.empty_evidence
    is_empty = t == EMPTY
    sem_idx = np.nonzero(~is_empty)[0]
    sem_t = t[sem_idx].astype(np.int64)
    if np.any(sem_t >= cfg.num_classes):
        raise ValueError("target contains labels outside the class range")
    Pt = F[sem_idx, sem_t] / denom[sem_idx]
    nll = np.empty(len(t))
    nll[is_empty] = np.log(denom[is_empty])
    nll[sem_idx] = -np.log(np.maximum(Pt, PROB_FLOOR))
    return nll, denom, is_empty, sem_idx, sem_t, Pt


def _cross_entropy(F, target: OccupancyGrid, cfg: ClassConfig, with_grad=False):
    """Mean per-voxel (C+1)-way cross-entropy of evidence F against target labels.

    Returns the loss, and with_grad also dL/dF (M, C) with the 1/M averaging
    folded in (zero where the target probability is clamped at PROB_FLOOR).
    """
    M = target.spec.num_voxels
    nll, denom, is_empty, sem_idx, sem_t, Pt = _voxel_terms(F, target.labels, cfg)
    loss = np.sum(nll[is_empty]) - np.count_nonzero(is_empty) * np.log(cfg.empty_evidence)
    loss += np.sum(nll[sem_idx])
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


def occupancy_loss_and_grads(scene: GaussianScene, target: OccupancyGrid, params: SplatParams, base=None):
    """Mean per-voxel (C+1)-way cross-entropy vs the target labels, with exact gradients.

    Per voxel, class probabilities are P_c = F_c/(S+ε) and P_EMPTY = ε/(S+ε)
    with S = ΣF and ε the empty-evidence mass; the loss is -log of the target's
    probability (floored at PROB_FLOOR), averaged over voxels. Voxels beyond a
    Gaussian's κ cutoff contribute zero gradient to that Gaussian. base, when
    given, is the evidence of Gaussians held fixed (see evidence_field): it is
    part of F, and the gradients are for scene's Gaussians alone.
    """
    cfg = params.cfg
    C = cfg.num_classes
    N = len(scene)
    F, pairs = evidence_field(scene, target.spec, params, base)
    loss, dLdF = _cross_entropy(F, target, cfg, with_grad=True)

    probs = scene.class_probs()
    s2inv = np.exp(-2.0 * scene.log_scales)
    centers = voxel_centers(target.spec)  # d = center − mean repeats the kernel's bits
    # per Gaussian, one bincount per column: Σw·a | Σw·u² | Σρ·dL/dF | Σw·d⊗a, w = dL/dρ·ρ, a = S⁻²·Rᵀd
    sums = np.zeros((N, 15 + C))
    for g, gi, flat, u, q in pairs:
        d, gdF = centers[flat] - scene.means[gi], dLdF[flat]
        rho = np.exp(-0.5 * q)
        w = np.einsum("pc,pc->p", gdF, probs[gi]) * rho
        wa = w[:, None] * (u * s2inv[gi])
        b = np.searchsorted(g, gi)  # each pair's row in g
        cols = [wa[:, k] for k in range(3)] + [w * u[:, k] * u[:, k] for k in range(3)]
        cols += [rho * gdF[:, c] for c in range(C)] + [d[:, i] * wa[:, j] for i in range(3) for j in range(3)]
        sums[g] = np.stack([np.bincount(b, col, g.size) for col in cols], axis=1)
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
