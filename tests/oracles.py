"""Pointwise reference evaluators that the splat kernel is tested against.

They evaluate one query point at a time over every Gaussian, with no voxel
blocks, so they share no code path with `gaussworld.splat`.
"""

import numpy as np

from gaussworld.core import EMPTY, ClassConfig, GaussianScene, quat_normalize, quat_to_rot


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
