"""Gradient-descent fitting of Gaussian scenes to occupancy, flow fitting, and a gradient checker.

Plain fixed-step descent with per-parameter-group learning rates; the loss and
its gradients come from the splat module. Flow fitting optimizes per-step
displacements through the ego transform, with non-dynamic Gaussians pinned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ClassConfig, GaussianScene, dynamic_mask
from .flow import FlowField, Trajectory, apply_flow, ego_transform, yaw_matrix
from .grid import GridSpec, OccupancyGrid
from .splat import SplatParams, _inside_pairs, _voxel_terms, evidence_field, occupancy_loss, occupancy_loss_and_grads


# fixed descent step sizes, one per parameter group
LR_MEAN = 2.0
LR_LOG_SCALE = 5.0
LR_LOGITS = 20.0
LR_ROTATION = 0.5


class OptimizationError(RuntimeError):
    """Raised when the loss turns non-finite; carries the failing iteration."""

    def __init__(self, iteration):
        super().__init__(f"loss diverged at iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class FitConfig:
    num_gaussians: int = 512
    max_iters: int = 300
    freeze_rotation: bool = True
    seed: int = 0
    tol: float = 0.0  # stop when |loss delta| drops below this
    num_classes: int = None  # inferred from the target when None
    dynamic_class_ids: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.num_gaussians < 1:
            raise ValueError("num_gaussians must be >= 1")

    def class_config(self, num_classes):
        return ClassConfig(num_classes, self.dynamic_class_ids)


def init_uniform(spec: GridSpec, cfg: FitConfig, num_classes):
    """Regular lattice of isotropic Gaussians covering the grid volume.

    The largest m×m×m lattice with m³ ≤ N fills first (row-major, x fastest);
    the remainder is placed by seeded uniform jitter inside the bounds. Scales
    start at half the lattice pitch, rotations at identity, logits at zero.
    """
    N = cfg.num_gaussians
    C = int(num_classes)
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
    means = scene.means - LR_MEAN * grads.d_means
    log_scales = scene.log_scales - LR_LOG_SCALE * grads.d_log_scales
    logits = scene.logits - LR_LOGITS * grads.d_logits
    rotations = None if cfg.freeze_rotation else scene.rotations - LR_ROTATION * grads.d_rotations
    return scene.with_arrays(means=means, log_scales=log_scales, rotations=rotations, logits=logits)


def _descend(x, loss_and_grads, step, cfg):
    """x ← step(x, loss_and_grads(x)) at most cfg.max_iters times; returns x and the loss before each step.
    Stops after the first step whose loss differs from the previous one by less than cfg.tol."""
    history = []
    for it in range(cfg.max_iters):
        grads = loss_and_grads(x)
        if not math.isfinite(grads.loss_value):
            raise OptimizationError(it)
        history.append(grads.loss_value)
        x = step(x, grads)
        if it and abs(history[-2] - history[-1]) < cfg.tol:
            break
    return x, history


def fit_gaussians(target: OccupancyGrid, cfg: FitConfig):
    """Fit a Gaussian scene to a target label grid by gradient descent.

    Returns (scene, loss_history); loss_history[i] is the loss before step i,
    with the final loss, from the loss-only path, appended.
    """
    C = int(cfg.num_classes) if cfg.num_classes is not None else target.inferred_num_classes()
    scene = init_uniform(target.spec, cfg, C)
    params = SplatParams(cfg.class_config(C))
    grads_at = lambda s: occupancy_loss_and_grads(s, target, params)
    scene, history = _descend(scene, grads_at, lambda s, g: _descent_step(s, g, cfg), cfg)
    return scene, history + [occupancy_loss(scene, target, params)]


def fit_flows(scene: GaussianScene, future_targets, plan: Trajectory, cfg: FitConfig):
    """Fit per-step cumulative displacements to future ego-frame occupancy targets.

    Each step warm-starts from the previous step's solution (flows are
    cumulative, so consecutive displacements are close); rows of
    non-dynamic Gaussians stay exactly zero. Static Gaussians do not move within
    a step, so their evidence is splatted once per step as a base field, and
    each iteration splats and differentiates only the dynamic Gaussians on top
    of it. Gradients pass analytically through the ego transform (a rigid map,
    so the mean gradient rotates back).
    """
    if len(future_targets) != len(plan):
        raise ValueError("one future target per planned waypoint is required")
    C = scene.num_classes
    ccfg = cfg.class_config(C)
    params = SplatParams(ccfg)
    # no dynamic set configured: let every Gaussian move
    moves = dynamic_mask(scene, ccfg) if ccfg.dynamic_class_ids else np.ones(len(scene), dtype=bool)
    dynamic = np.flatnonzero(moves)
    static, moving = scene.take(np.flatnonzero(~moves)), scene.take(dynamic)
    steps = np.zeros((len(plan), len(scene), 3))
    delta = np.zeros((dynamic.size, 3))
    for k, (target, w) in enumerate(zip(future_targets, plan.waypoints)):
        # flows are cumulative, so the previous step's solution is the natural
        # warm start: each step then only needs to absorb one step of motion
        Rz = yaw_matrix(-w.psi)
        base = evidence_field(ego_transform(static, w), target.spec, params)[0]
        grads_at = lambda d: occupancy_loss_and_grads(ego_transform(apply_flow(moving, d), w), target, params, base)
        # means' = Rz(-psi)·(mean + delta - t)  =>  dL/ddelta = Rz(-psi)ᵀ·dL/dmeans'
        delta = _descend(delta, grads_at, lambda d, g: d - LR_MEAN * (g.d_means @ Rz), cfg)[0]
        steps[k][dynamic] = delta
    return FlowField(steps)


_FIELDS = {"mean": "means", "log_scale": "log_scales", "logits": "logits", "rotation": "rotations"}


def _pair_evidence(scene: GaussianScene, pairs):
    """Per pair inside the κ cutoff: its Gaussian, voxel and evidence ρ·p (P, C)."""
    gi, flat, q = (np.concatenate([np.zeros(0, int)] + [p[k] for p in pairs]) for k in (1, 2, 5))
    return gi, flat, np.exp(-0.5 * q)[:, None] * scene.class_probs()[gi]


def _stencil_differences(scene: GaussianScene, target: OccupancyGrid, params: SplatParams, step, names):
    """Central differences at step and step/2 of every component of the named groups,
    group after group, each row-major; see check_gradients."""
    half, owner, edits = step / 2, [np.zeros(0, int)], []  # owner: each copy's Gaussian
    for name in names:
        a = getattr(scene, _FIELDS[name])
        n, w = np.divmod(np.repeat(np.arange(a.size), 4), a.shape[1])  # each component once per stencil point
        x0 = a.ravel()
        values = np.stack([x0 + step, x0 - step, x0 + half, x0 - half], axis=1).ravel()
        edits.append((_FIELDS[name], sum(map(len, owner)) + np.arange(n.size), w, values))
        owner.append(n)
    owner = np.concatenate(owner)
    copies = {f: getattr(scene, f)[owner] for f in _FIELDS.values()}
    for f, rows, w, values in edits:
        copies[f][rows, w] = values
    spec, M = target.spec, target.spec.num_voxels
    F, pairs = evidence_field(scene, spec, params)
    g0, v0, c0 = _pair_evidence(scene, pairs)
    copied = GaussianScene(**copies, class_names=scene.class_names)
    g1, v1, c1 = _pair_evidence(copied, _inside_pairs(copied, spec, params))  # pairs only: no F of the copies is read
    n0 = np.bincount(g0, minlength=len(scene))
    reps = n0[owner]
    first = np.repeat(np.cumsum(n0)[owner] - np.cumsum(reps), reps)  # each copy's offset into the sorted pairs
    take = np.argsort(g0, kind="stable")[first + np.arange(reps.sum())]  # its Gaussian's pairs, to be negated
    copy = np.concatenate([np.repeat(np.arange(owner.size), reps), g1])
    keys, inv = np.unique(copy * M + np.concatenate([v0[take], v1]), return_inverse=True)
    delta = np.zeros((keys.size, F.shape[1]))
    np.add.at(delta, inv, np.concatenate([-c0[take], c1]))
    v, cfg, t = keys % M, params.cfg, target.labels
    dnll = _voxel_terms(F[v] + delta, t[v], cfg)[0] - _voxel_terms(F, t, cfg)[0][v]
    dL = (np.bincount(keys // M, dnll, owner.size) / M).reshape(-1, 4)
    return (dL[:, 0] - dL[:, 1]) / (2 * step), (dL[:, 2] - dL[:, 3]) / (2 * half)


def check_gradients(scene: GaussianScene, target: OccupancyGrid, params: SplatParams, step=1e-4, groups=None):
    """Compare analytic gradients against central finite differences per parameter group.

    `groups` limits the check to a subset of {"mean", "log_scale", "logits",
    "rotation"} (all four when None), e.g. to skip rotations when they are
    frozen during fitting. The copies of every component at x0 ± step and
    x0 ± step/2 form one scene, walked by the kernel once. A copy of Gaussian g
    changes F only on its own pairs and g's, so its loss change is the sum there
    of ℓ(F_v − c_g,v + c_copy,v) − ℓ(F_v), c being one Gaussian's evidence: a
    local sum, free of the rounding error of two nearly equal global losses.
    Components where the loss is non-smooth at the evaluation point (the κ
    cutoff boundary) are detected by comparing differences at step and step/2
    and excluded; their count is reported under 'excluded'.
    """
    unknown = set(_FIELDS if groups is None else groups) - set(_FIELDS)
    if unknown:
        raise ValueError(f"unknown gradient groups {sorted(unknown)}")
    names = [name for name in _FIELDS if groups is None or name in groups]
    ana = occupancy_loss_and_grads(scene, target, params)
    # the differences below are of the loss-only path, which must be the loss the gradients differentiate
    if occupancy_loss(scene, target, params) != ana.loss_value:
        raise RuntimeError("occupancy_loss disagrees with occupancy_loss_and_grads")
    fd_full, fd_half = _stencil_differences(scene, target, params, step, names)
    bad = np.abs(fd_full - fd_half) > 1e-3 * np.maximum(np.maximum(np.abs(fd_full), np.abs(fd_half)), 1e-6)
    # Richardson extrapolation of the two stencils cancels the O(step²) truncation
    # term, so the comparison measures the gradient itself
    fd = (4.0 * fd_half - fd_full) / 3.0
    a = np.concatenate([np.zeros(0)] + [getattr(ana, "d_" + _FIELDS[name]).ravel() for name in names])
    denom = np.maximum(np.abs(a), np.abs(fd))
    err = np.divide(np.abs(a - fd), denom, out=np.zeros_like(denom), where=denom >= 1e-10)
    ends = np.cumsum([getattr(scene, _FIELDS[name]).size for name in names])
    report = {}
    for name, b, e in zip(names, np.split(bad, ends), np.split(err, ends)):
        e = e[~b]  # excluded: a cutoff-boundary discontinuity within the stencil
        report[name] = {
            "max_rel_err": float(e.max(initial=0.0)),
            "mean_rel_err": float(np.mean(e)) if e.size else 0.0,
            "excluded": int(np.count_nonzero(b)),
        }
    return report
