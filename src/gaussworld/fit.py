"""Gradient-descent fitting of Gaussian scenes to occupancy, flow fitting, and a gradient checker.

Plain fixed-step descent with per-parameter-group learning rates; the loss and
its gradients come from the splat module. Flow fitting optimizes per-step
displacements through the ego transform, with non-dynamic Gaussians pinned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ClassConfig, GaussianScene, dynamic_mask, quat_normalize
from .flow import FlowField, Trajectory, apply_flow, ego_transform, yaw_matrix
from .grid import GridSpec, OccupancyGrid
from .splat import SplatParams, occupancy_loss, occupancy_loss_and_grads


class OptimizationError(RuntimeError):
    """Raised when the loss turns non-finite; carries the failing iteration."""

    def __init__(self, iteration, message="loss diverged"):
        super().__init__(f"{message} at iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class FitConfig:
    num_gaussians: int = 512
    max_iters: int = 300
    lr_mean: float = 2.0
    lr_log_scale: float = 5.0
    lr_logits: float = 20.0
    lr_rotation: float = 0.5
    freeze_rotation: bool = True
    seed: int = 0
    tol: float = 0.0  # stop when |loss delta| drops below this
    num_classes: int = None  # inferred from the target when None
    dynamic_class_ids: frozenset = field(default_factory=frozenset)
    empty_evidence: float = 0.1
    mahalanobis_cutoff: float = 3.0

    def __post_init__(self):
        if self.num_gaussians < 1:
            raise ValueError("num_gaussians must be >= 1")
        for lr in (self.lr_mean, self.lr_log_scale, self.lr_logits, self.lr_rotation):
            if lr <= 0:
                raise ValueError("learning rates must be positive")

    def class_config(self, num_classes):
        return ClassConfig(
            num_classes=num_classes,
            dynamic_class_ids=self.dynamic_class_ids,
            empty_evidence=self.empty_evidence,
            mahalanobis_cutoff=self.mahalanobis_cutoff,
        )


def _infer_num_classes(target: OccupancyGrid, cfg: FitConfig):
    if cfg.num_classes is not None:
        return int(cfg.num_classes)
    return target.inferred_num_classes()


def init_uniform(spec: GridSpec, cfg: FitConfig, num_classes=None):
    """Regular lattice of isotropic Gaussians covering the grid volume.

    The largest m×m×m lattice with m³ ≤ N fills first (row-major, x fastest);
    the remainder is placed by seeded uniform jitter inside the bounds. Scales
    start at half the lattice pitch, rotations at identity, logits at zero.
    """
    N = cfg.num_gaussians
    C = int(num_classes) if num_classes is not None else (cfg.num_classes or 1)
    ext = np.array(spec.extent())
    o = np.array(spec.origin)
    m = max(1, int(math.floor(N ** (1.0 / 3.0) + 1e-9)))
    pitch = ext / m
    idx = np.arange(m)
    I, J, K = np.meshgrid(idx, idx, idx, indexing="ij")
    ijk = np.stack([I.ravel(order="F"), J.ravel(order="F"), K.ravel(order="F")], axis=1)
    lattice = o + (ijk + 0.5) * pitch
    rng = np.random.default_rng(cfg.seed)
    extra = N - lattice.shape[0]
    if extra > 0:
        jitter = o + rng.uniform(size=(extra, 3)) * ext
        means = np.vstack([lattice, jitter])
    else:
        means = lattice[:N]
    log_scales = np.tile(np.log(pitch / 2.0), (N, 1))
    rotations = np.tile([1.0, 0.0, 0.0, 0.0], (N, 1))
    logits = np.zeros((N, C))
    return GaussianScene(means, log_scales, rotations, logits, tuple(f"class_{c}" for c in range(C)))


def _descent_step(scene, grads, cfg):
    means = scene.means - cfg.lr_mean * grads.d_means
    log_scales = scene.log_scales - cfg.lr_log_scale * grads.d_log_scales
    logits = scene.logits - cfg.lr_logits * grads.d_logits
    if cfg.freeze_rotation:
        rotations = scene.rotations
    else:
        rotations = quat_normalize(scene.rotations - cfg.lr_rotation * grads.d_rotations)
    return scene.with_arrays(means=means, log_scales=log_scales, rotations=rotations, logits=logits)


def fit_gaussians(target: OccupancyGrid, cfg: FitConfig, init_scene=None, class_names=None):
    """Fit a Gaussian scene to a target label grid by gradient descent.

    Returns (scene, loss_history); loss_history[i] is the loss before step i,
    with the final loss appended.
    """
    C = _infer_num_classes(target, cfg)
    scene = init_scene if init_scene is not None else init_uniform(target.spec, cfg, C)
    if class_names is not None:
        scene = GaussianScene(
            scene.means, scene.log_scales, scene.rotations, scene.logits, tuple(class_names)
        )
    params = SplatParams(cfg.class_config(C))
    history = []
    prev = None
    for it in range(cfg.max_iters):
        grads = occupancy_loss_and_grads(scene, target, params)
        if not math.isfinite(grads.loss_value):
            raise OptimizationError(it)
        history.append(grads.loss_value)
        scene = _descent_step(scene, grads, cfg)
        if prev is not None and abs(prev - grads.loss_value) < cfg.tol:
            break
        prev = grads.loss_value
    final = occupancy_loss_and_grads(scene, target, params).loss_value
    if not math.isfinite(final):
        raise OptimizationError(cfg.max_iters)
    history.append(final)
    return scene, history


def fit_flows(scene: GaussianScene, future_targets, plan: Trajectory, cfg: FitConfig):
    """Fit per-step cumulative displacements to future ego-frame occupancy targets.

    Each step warm-starts from the previous step's solution (flows are
    cumulative, so consecutive displacements are close); rows of
    non-dynamic Gaussians stay exactly zero. Gradients pass analytically
    through the ego transform (a rigid map, so the mean gradient rotates back).
    """
    if len(future_targets) != len(plan):
        raise ValueError("one future target per planned waypoint is required")
    C = scene.num_classes
    ccfg = cfg.class_config(C)
    params = SplatParams(ccfg)
    # no dynamic set configured: let every Gaussian move
    if ccfg.dynamic_class_ids:
        mask = dynamic_mask(scene, ccfg)[:, None]
    else:
        mask = np.ones((len(scene), 1), dtype=bool)
    steps = np.zeros((len(plan), len(scene), 3))
    delta = np.zeros((len(scene), 3))
    for k, (target, w) in enumerate(zip(future_targets, plan.waypoints)):
        # flows are cumulative, so the previous step's solution is the natural
        # warm start: each step then only needs to absorb one step of motion
        delta = delta.copy()
        Rz = yaw_matrix(-w.psi)
        prev = None
        for it in range(cfg.max_iters):
            moved = ego_transform(apply_flow(scene, delta), w)
            grads = occupancy_loss_and_grads(moved, target, params)
            if not math.isfinite(grads.loss_value):
                raise OptimizationError(it)
            # means' = Rz(-psi)·(mean + delta - t)  =>  dL/ddelta = Rz(-psi)ᵀ·dL/dmeans'
            d_delta = grads.d_means @ Rz
            delta = delta - cfg.lr_mean * np.where(mask, d_delta, 0.0)
            if prev is not None and abs(prev - grads.loss_value) < cfg.tol:
                break
            prev = grads.loss_value
        steps[k] = delta
    return FlowField(steps)


def check_gradients(scene: GaussianScene, target: OccupancyGrid, params: SplatParams, step=1e-4, groups=None):
    """Compare analytic gradients against central finite differences per parameter group.

    `groups` limits the check to a subset of {"mean", "log_scale", "logits",
    "rotation"} (all four when None), e.g. to skip rotations when they are
    frozen during fitting. Components where the loss is non-smooth at the
    evaluation point (the κ cutoff boundary) are detected by comparing
    differences at step and step/2 and excluded; their count is reported under
    'excluded'.
    """
    ana = occupancy_loss_and_grads(scene, target, params)
    fields = {"mean": "means", "log_scale": "log_scales", "logits": "logits", "rotation": "rotations"}
    all_groups = {name: (getattr(scene, f), getattr(ana, "d_" + f)) for name, f in fields.items()}
    if groups is None:
        selected = all_groups
    else:
        unknown = set(groups) - set(all_groups)
        if unknown:
            raise ValueError(f"unknown gradient groups {sorted(unknown)}")
        selected = {name: all_groups[name] for name in all_groups if name in groups}

    def loss_with(name, flat_idx, value):
        a = getattr(scene, fields[name]).copy()
        a.flat[flat_idx] = value
        return occupancy_loss(scene.with_arrays(**{fields[name]: a}), target, params)

    report = {}
    for name, (base, analytic) in selected.items():
        max_err = 0.0
        errs = []
        excluded = 0
        for fi in range(base.size):
            x0 = base.flat[fi]
            fd_full = (loss_with(name, fi, x0 + step) - loss_with(name, fi, x0 - step)) / (2 * step)
            half = step / 2
            fd_half = (loss_with(name, fi, x0 + half) - loss_with(name, fi, x0 - half)) / (2 * half)
            scale = max(abs(fd_full), abs(fd_half), 1e-6)
            if abs(fd_full - fd_half) > 1e-3 * scale:
                excluded += 1  # cutoff-boundary discontinuity within the stencil
                continue
            # Richardson extrapolation of the two stencils cancels the O(step²)
            # truncation term, so the comparison measures the gradient itself
            fd = (4.0 * fd_half - fd_full) / 3.0
            a = analytic.flat[fi]
            denom = max(abs(a), abs(fd))
            err = 0.0 if denom < 1e-10 else abs(a - fd) / denom
            errs.append(err)
            max_err = max(max_err, err)
        report[name] = {
            "max_rel_err": max_err,
            "mean_rel_err": float(np.mean(errs)) if errs else 0.0,
            "excluded": excluded,
        }
    return report
