"""Semantic 3D Gaussians: the scene type, quaternion math, class config, pruning, field checks.

A scene is a sparse set of anisotropic Gaussian kernels, each carrying a vector
of class logits. Dense semantics are recovered by evaluating the class-weighted
kernel sum at query points; empty space is represented by low total evidence
rather than by a dedicated class.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

EMPTY = 255
MAX_CLASSES = EMPTY  # labels are uint8 and 255 marks empty, so classes are 0..254

LOG_SCALE_MIN = math.log(1e-4)
LOG_SCALE_MAX = math.log(1e3)
NORM_UNDERFLOW = 2.0**-511  # below this norm the sum of squares leaves float64's normal range


def whole_number(value, name):
    """int(value); a ValueError naming the field unless value equals it."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value:
        raise ValueError(f"{name} must be a whole number, not {value!r}")
    return n


def finite_number(value, name):
    """float(value); a ValueError naming the field unless that is finite."""
    try:
        v = float(value)
    except (TypeError, ValueError, OverflowError):
        v = math.nan
    if not math.isfinite(v):
        raise ValueError(f"{name} must be finite, not {value!r}")
    return v


def finite_numbers(values, name, size=None):
    """A tuple of finite floats from a list (of size items, when given); a ValueError naming the field otherwise."""
    try:
        items = tuple(values) if not isinstance(values, (str, dict)) else None
    except TypeError:
        items = None
    if items is None or size not in (None, len(items)):
        count = "" if size is None else f"{size} "
        raise ValueError(f"{name} must be a list of {count}numbers, not {values!r}")
    return tuple(finite_number(v, name) for v in items)


def quat_normalize(q):
    """Normalize a quaternion (w,x,y,z) to unit length.

    Idempotent: rows already unit to machine precision pass through bit-exactly,
    so repeated normalization (and save/load round-trips) cannot drift. A row
    whose sum of squares underflows is first divided by its largest |component|.
    """
    q = np.asarray(q, dtype=np.float64)
    with np.errstate(over="ignore"):
        n = np.linalg.norm(q, axis=-1, keepdims=True)
        if np.any(n < NORM_UNDERFLOW):
            peak = np.max(np.abs(q), axis=-1, keepdims=True)
            if np.any(peak == 0):
                raise ValueError("zero-norm quaternion")
            q = q / np.where(n < NORM_UNDERFLOW, peak, 1.0)  # other rows divide by 1 and keep their bits
            n = np.linalg.norm(q, axis=-1, keepdims=True)
    if not np.all(np.isfinite(n)):
        raise ValueError("quaternion norm overflows float64")
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
class GaussianScene:
    """Ordered Gaussian collection with a class table.

    Stored struct-of-arrays: means (N,3), log_scales (N,3), rotations (N,4),
    logits (N,C). Order is stable; per-Gaussian side data (flows, confidences)
    index into this order. Every array is validated once, when it enters a
    scene through the constructor or `with_arrays`, and is read-only after.
    """

    means: np.ndarray
    log_scales: np.ndarray
    rotations: np.ndarray
    logits: np.ndarray
    class_names: tuple

    def __post_init__(self):
        names = tuple(self.class_names)
        if not all(isinstance(n, str) for n in names) or len(set(names)) < len(names):
            raise ValueError(f"class_names must be distinct strings, not {list(names)!r}")
        if len(names) > MAX_CLASSES:
            raise ValueError(f"{len(names)} classes exceed the maximum of {MAX_CLASSES}")
        object.__setattr__(self, "class_names", names)
        self._store(means=self.means, log_scales=self.log_scales, rotations=self.rotations, logits=self.logits)

    def _store(self, **arrays):
        """Convert, check and freeze each given array as the scene's own, then check that the shapes agree."""
        for name, a in arrays.items():
            a = np.array(a, dtype=np.float64)  # a copy: no caller keeps a writable view of a stored array
            if name != "logits":
                a = a.reshape(-1, 4 if name == "rotations" else 3)
            elif a.ndim != 2:  # split over the Gaussians, whose means are stored first
                a = a.reshape(len(self.means), -1) if a.size else a.reshape(0, self.num_classes)
            if not np.all(np.isfinite(a)):
                raise ValueError(f"scene {name} must be finite")
            if name == "log_scales":  # after the check: an infinite log-scale is an error, not the clamp
                a = np.clip(a, LOG_SCALE_MIN, LOG_SCALE_MAX)
            elif name == "rotations":
                a = quat_normalize(a)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        if not (len(self.means) == len(self.log_scales) == len(self.rotations) == len(self.logits)):
            raise ValueError("per-Gaussian arrays must share leading dimension")
        if self.logits.shape[1] != self.num_classes:
            raise ValueError(f"logits width {self.logits.shape[1]} != number of classes {self.num_classes}")

    def __len__(self):
        return self.means.shape[0]

    @property
    def num_classes(self):
        return len(self.class_names)

    def take(self, indices):
        """Sub-scene keeping the given Gaussian indices, order preserved."""
        idx = np.asarray(indices, dtype=np.int64)
        return self.with_arrays(self.means[idx], self.log_scales[idx], self.rotations[idx], self.logits[idx])

    def with_arrays(self, means=None, log_scales=None, rotations=None, logits=None):
        """This scene with the given arrays in place of its own; only those are validated, the rest were when stored."""
        given = {"means": means, "log_scales": log_scales, "rotations": rotations, "logits": logits}
        scene = copy.copy(self)
        scene._store(**{k: a for k, a in given.items() if a is not None})
        return scene

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


def dynamic_mask(scene: GaussianScene, cfg: ClassConfig):
    """True where a Gaussian's argmax class is one of cfg's dynamic classes."""
    if len(scene) == 0:
        return np.zeros(0, dtype=bool)
    return np.isin(np.argmax(scene.logits, axis=1), sorted(cfg.dynamic_class_ids))


def scene_confidences(scene: GaussianScene):
    """Semantic confidences, one per Gaussian: the largest softmax probability of its logits."""
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
