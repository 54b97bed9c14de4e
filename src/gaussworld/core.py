"""Semantic 3D Gaussians: covariance math, density kernels, scene labeling, pruning.

A scene is a sparse set of anisotropic Gaussian kernels, each carrying a vector
of class logits. Dense semantics are recovered by evaluating the class-weighted
kernel sum at query points; empty space is represented by low total evidence
rather than by a dedicated class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

EMPTY = 255
MAX_CLASSES = EMPTY  # labels are uint8 and 255 marks empty, so classes are 0..254

LOG_SCALE_MIN = math.log(1e-4)
LOG_SCALE_MAX = math.log(1e3)


def _as_float_array(x, n, name):
    try:
        a = np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError) as e:
        raise ValueError(f"{name} must be numeric: {e}") from e
    if a.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    return a


def quat_normalize(q):
    """Normalize a quaternion (w,x,y,z) to unit length.

    Idempotent: rows already unit to machine precision pass through bit-exactly,
    so repeated normalization (and save/load round-trips) cannot drift.
    """
    q = np.asarray(q, dtype=np.float64)
    n = np.linalg.norm(q, axis=-1, keepdims=True)
    if np.any(n == 0):
        raise ValueError("zero-norm quaternion")
    return np.where(np.abs(n - 1.0) < 1e-12, q, q / n)


def quat_to_rot(q):
    """Rotation matrices from unit quaternions (w,x,y,z). Shape (...,4) -> (...,3,3)."""
    q = np.asarray(q, dtype=np.float64)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    R = np.empty(q.shape[:-1] + (3, 3))
    R[..., 0, 0] = 1 - 2 * (y * y + z * z)
    R[..., 0, 1] = 2 * (x * y - w * z)
    R[..., 0, 2] = 2 * (x * z + w * y)
    R[..., 1, 0] = 2 * (x * y + w * z)
    R[..., 1, 1] = 1 - 2 * (x * x + z * z)
    R[..., 1, 2] = 2 * (y * z - w * x)
    R[..., 2, 0] = 2 * (x * z - w * y)
    R[..., 2, 1] = 2 * (y * z + w * x)
    R[..., 2, 2] = 1 - 2 * (x * x + y * y)
    return R


def quat_multiply(a, b):
    """Hamilton product a ⊗ b for quaternions (w,x,y,z)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def softmax(logits, axis=-1):
    z = np.asarray(logits, dtype=np.float64)
    z = z - np.max(z, axis=axis, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=axis, keepdims=True)


@dataclass(frozen=True)
class SemanticGaussian:
    """One scene primitive: position, axis scales (log meters), orientation, class logits."""

    mean: np.ndarray
    log_scale: np.ndarray
    rotation: np.ndarray  # unit quaternion (w,x,y,z)
    logits: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", _as_float_array(self.mean, 3, "mean"))
        ls = _as_float_array(self.log_scale, 3, "log_scale")
        object.__setattr__(self, "log_scale", np.clip(ls, LOG_SCALE_MIN, LOG_SCALE_MAX))
        q = _as_float_array(self.rotation, 4, "rotation")
        object.__setattr__(self, "rotation", quat_normalize(q))
        lg = np.asarray(self.logits, dtype=np.float64)
        if lg.ndim != 1 or lg.size < 1:
            raise ValueError("logits must be a nonempty 1-D vector")
        if not np.all(np.isfinite(lg)):
            raise ValueError("logits must be finite")
        object.__setattr__(self, "logits", lg)
        for a in (self.mean, self.log_scale, self.rotation, self.logits):
            a.setflags(write=False)

    @property
    def num_classes(self):
        return self.logits.size


@dataclass(frozen=True)
class GaussianScene:
    """Ordered Gaussian collection with a class table and an SE(2) frame tag.

    Stored struct-of-arrays: means (N,3), log_scales (N,3), rotations (N,4),
    logits (N,C). Order is stable; per-Gaussian side data (flows, confidences)
    index into this order.
    """

    means: np.ndarray
    log_scales: np.ndarray
    rotations: np.ndarray
    logits: np.ndarray
    class_names: tuple
    frame_pose: tuple = (0.0, 0.0, 0.0)  # (x, y, psi) relative to a world anchor
    timestamp_index: int = 0

    def __post_init__(self):
        m = np.asarray(self.means, dtype=np.float64).reshape(-1, 3)
        ls = np.clip(
            np.asarray(self.log_scales, dtype=np.float64).reshape(-1, 3),
            LOG_SCALE_MIN,
            LOG_SCALE_MAX,
        )
        q = np.asarray(self.rotations, dtype=np.float64).reshape(-1, 4)
        lg = np.asarray(self.logits, dtype=np.float64)
        lg = lg.reshape(m.shape[0], -1) if lg.size else lg.reshape(0, len(self.class_names))
        if not (m.shape[0] == ls.shape[0] == q.shape[0] == lg.shape[0]):
            raise ValueError("per-Gaussian arrays must share leading dimension")
        if len(self.class_names) > MAX_CLASSES:
            raise ValueError(f"{len(self.class_names)} classes exceed the maximum of {MAX_CLASSES}")
        if lg.shape[1] != len(self.class_names):
            raise ValueError(
                f"logits width {lg.shape[1]} != number of classes {len(self.class_names)}"
            )
        for a in (m, ls, lg):
            if not np.all(np.isfinite(a)):
                raise ValueError("scene arrays must be finite")
        q = quat_normalize(q) if q.shape[0] else q
        for a in (m, ls, q, lg):
            a.setflags(write=False)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "log_scales", ls)
        object.__setattr__(self, "rotations", q)
        object.__setattr__(self, "logits", lg)
        object.__setattr__(self, "class_names", tuple(self.class_names))
        pose = _as_float_array(self.frame_pose, 3, "frame_pose")
        object.__setattr__(self, "frame_pose", tuple(float(v) for v in pose))

    @classmethod
    def from_gaussians(cls, gaussians, class_names, frame_pose=(0.0, 0.0, 0.0), timestamp_index=0):
        C = len(class_names)
        if gaussians:
            if any(g.num_classes != C for g in gaussians):
                raise ValueError("all Gaussians must share the scene class count")
            means = np.stack([g.mean for g in gaussians])
            log_scales = np.stack([g.log_scale for g in gaussians])
            rotations = np.stack([g.rotation for g in gaussians])
            logits = np.stack([g.logits for g in gaussians])
        else:
            means = np.zeros((0, 3))
            log_scales = np.zeros((0, 3))
            rotations = np.zeros((0, 4))
            logits = np.zeros((0, C))
        return cls(means, log_scales, rotations, logits, class_names, frame_pose, timestamp_index)

    def __len__(self):
        return self.means.shape[0]

    def __getitem__(self, i) -> SemanticGaussian:
        return SemanticGaussian(self.means[i], self.log_scales[i], self.rotations[i], self.logits[i])

    @property
    def num_classes(self):
        return len(self.class_names)

    def take(self, indices):
        """Sub-scene keeping the given Gaussian indices, order preserved."""
        idx = np.asarray(indices, dtype=np.int64)
        return replace(
            self,
            means=self.means[idx],
            log_scales=self.log_scales[idx],
            rotations=self.rotations[idx],
            logits=self.logits[idx],
        )

    def with_arrays(self, means=None, log_scales=None, rotations=None, logits=None):
        return replace(
            self,
            means=self.means if means is None else means,
            log_scales=self.log_scales if log_scales is None else log_scales,
            rotations=self.rotations if rotations is None else rotations,
            logits=self.logits if logits is None else logits,
        )

    def class_probs(self):
        """Softmax class probabilities, shape (N, C)."""
        return softmax(self.logits, axis=1)


@dataclass(frozen=True)
class ClassConfig:
    """Semantic configuration shared by field evaluation and splatting."""

    num_classes: int
    dynamic_class_ids: frozenset = field(default_factory=frozenset)
    empty_evidence: float = 0.1  # total evidence below this labels a point EMPTY
    mahalanobis_cutoff: float = 3.0

    def __post_init__(self):
        if not 1 <= self.num_classes <= MAX_CLASSES:
            raise ValueError(f"num_classes must be in [1, {MAX_CLASSES}]")
        if self.empty_evidence <= 0:
            raise ValueError("empty_evidence must be positive")
        if self.mahalanobis_cutoff <= 0:
            raise ValueError("mahalanobis_cutoff must be positive")
        ids = frozenset(int(i) for i in self.dynamic_class_ids)
        if any(i < 0 or i >= self.num_classes for i in ids):
            raise ValueError("dynamic_class_ids must lie in [0, num_classes)")
        object.__setattr__(self, "dynamic_class_ids", ids)


def covariance(log_scale, rotation):
    """Covariance Σ = R·diag(exp(2·log_scale))·Rᵀ. Always SPD for clamped scales."""
    ls = np.asarray(log_scale, dtype=np.float64)
    q = np.asarray(rotation, dtype=np.float64)
    if not (np.all(np.isfinite(ls)) and np.all(np.isfinite(q))):
        raise ValueError("non-finite covariance parameters")
    R = quat_to_rot(quat_normalize(q))
    return (R * np.exp(2.0 * ls)) @ R.T


def mahalanobis_sq(g: SemanticGaussian, x):
    """Squared Mahalanobis distance from the Gaussian mean to x."""
    d = np.asarray(x, dtype=np.float64) - g.mean
    u = quat_to_rot(g.rotation).T @ d
    return float(np.sum(u * u * np.exp(-2.0 * g.log_scale)))


def density_at(g: SemanticGaussian, x, cutoff=None):
    """Unnormalized kernel exp(-½·mahalanobis²); 0 beyond the cutoff if one is given."""
    m2 = mahalanobis_sq(g, x)
    if cutoff is not None and m2 > cutoff * cutoff:
        return 0.0
    return math.exp(-0.5 * m2)


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


def confidence(g: SemanticGaussian):
    """Semantic confidence: the largest softmax probability of the logits."""
    return float(np.max(softmax(g.logits)))


def scene_confidences(scene: GaussianScene):
    """Vector of semantic confidences, one per Gaussian."""
    if len(scene) == 0:
        return np.zeros(0)
    return np.max(scene.class_probs(), axis=1)


def prune(scene: GaussianScene, fraction):
    """Drop the lowest-confidence fraction of Gaussians.

    Retains ceil((1-fraction)·N) Gaussians with the highest confidence, ties
    broken toward the lower original index, relative order preserved. Returns
    (pruned scene, survivor index array) so callers can filter per-Gaussian
    side data (e.g. flow rows) consistently.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    n = len(scene)
    keep = math.ceil((1.0 - fraction) * n)
    conf = scene_confidences(scene)
    # stable sort on -confidence keeps lower indices first among ties
    order = np.argsort(-conf, kind="stable")[:keep]
    survivors = np.sort(order)
    return scene.take(survivors), survivors
