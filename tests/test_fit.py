import importlib
import math

import numpy as np
import pytest

from gaussworld.core import EMPTY, LOG_SCALE_MAX, ClassConfig, GaussianScene
from gaussworld.fit import (
    LR_MEAN,
    FitConfig,
    OptimizationError,
    _stencil_differences,
    check_gradients,
    dynamic_mask,
    fit_flows,
    fit_gaussians,
    init_uniform,
)
from gaussworld.flow import Trajectory, Waypoint, apply_flow, ego_transform, yaw_matrix
from gaussworld.grid import GridSpec, OccupancyGrid
from gaussworld.metrics import miou_iou
from gaussworld.splat import SplatParams, evidence_field, occupancy_loss, occupancy_loss_and_grads, splat
from tests.conftest import random_scene


class TestInitUniform:
    def test_count_and_bounds(self):
        spec = GridSpec((0, 0, 0), (8, 8, 4), 0.5)
        scene = init_uniform(spec, FitConfig(num_gaussians=100, seed=3), num_classes=2)
        assert len(scene) == 100
        lo = np.array(spec.origin)
        hi = lo + np.array(spec.extent())
        assert np.all(scene.means >= lo) and np.all(scene.means <= hi)
        assert scene.num_classes == 2
        assert np.all(scene.logits == 0.0)

    def test_perfect_cube_has_no_jitter(self):
        spec = GridSpec((0, 0, 0), (4, 4, 4), 1.0)
        a = init_uniform(spec, FitConfig(num_gaussians=27, seed=0), 1)
        b = init_uniform(spec, FitConfig(num_gaussians=27, seed=99), 1)
        assert np.array_equal(a.means, b.means)
        # 3x3x3 lattice at pitch 4/3, first mean at origin + pitch/2
        assert np.allclose(a.means[0], (2 / 3, 2 / 3, 2 / 3))
        assert np.allclose(np.exp(a.log_scales), 2 / 3)

    def test_jitter_deterministic_per_seed(self):
        spec = GridSpec((0, 0, 0), (4, 4, 4), 1.0)
        a = init_uniform(spec, FitConfig(num_gaussians=30, seed=5), 1)
        b = init_uniform(spec, FitConfig(num_gaussians=30, seed=5), 1)
        c = init_uniform(spec, FitConfig(num_gaussians=30, seed=6), 1)
        assert np.array_equal(a.means, b.means)
        assert not np.array_equal(a.means, c.means)


def box_target(spec, lo_ijk, hi_ijk, class_id, num_classes):
    labels = np.full(spec.num_voxels, EMPTY, dtype=np.uint8)
    for i in range(lo_ijk[0], hi_ijk[0]):
        for j in range(lo_ijk[1], hi_ijk[1]):
            for k in range(lo_ijk[2], hi_ijk[2]):
                labels[spec.flat_index(i, j, k)] = class_id
    return OccupancyGrid(spec, labels, num_classes)


class TestFitGaussians:
    def test_single_box_recovers_shape(self):
        spec = GridSpec((0, 0, 0), (8, 8, 4), 0.5)
        target = box_target(spec, (2, 2, 1), (6, 6, 3), 1, 2)
        cfg = FitConfig(num_gaussians=64, max_iters=150, seed=0)
        scene, history = fit_gaussians(target, cfg)
        assert history[-1] < history[0]
        grid, _ = splat(scene, spec, SplatParams(cfg.class_config(2)))
        miou, iou, _ = miou_iou(grid, target)
        assert miou >= 0.8
        assert iou >= 0.8

    def test_empty_target_clears_scene(self):
        spec = GridSpec((0, 0, 0), (6, 6, 3), 0.5)
        target = OccupancyGrid.empty(spec)
        cfg = FitConfig(num_gaussians=27, max_iters=200, seed=0, num_classes=2)
        scene, _ = fit_gaussians(target, cfg)
        grid, _ = splat(scene, spec, SplatParams(cfg.class_config(2)))
        assert np.mean(grid.labels != EMPTY) <= 0.02

    def test_tol_early_stop(self):
        spec = GridSpec((0, 0, 0), (4, 4, 2), 0.5)
        target = box_target(spec, (1, 1, 0), (3, 3, 2), 0, 1)
        cfg = FitConfig(num_gaussians=8, max_iters=100, tol=float("inf"), num_classes=1)
        _, history = fit_gaussians(target, cfg)
        # initial loss, loss after one more evaluation, then the final appended loss
        assert len(history) == 3

    def test_deterministic(self):
        spec = GridSpec((0, 0, 0), (6, 6, 3), 0.5)
        target = box_target(spec, (1, 1, 0), (5, 5, 2), 1, 2)
        cfg = FitConfig(num_gaussians=27, max_iters=40, seed=7)
        a, ha = fit_gaussians(target, cfg)
        b, hb = fit_gaussians(target, cfg)
        assert np.array_equal(a.means, b.means)
        assert ha == hb

    def test_unfrozen_rotations_move_and_stay_unit(self):
        spec = GridSpec((0, 0, 0), (8, 8, 4), 0.5)
        target = box_target(spec, (1, 3, 0), (7, 5, 2), 1, 2)  # an elongated box: rotations have a gradient
        frozen, _ = fit_gaussians(target, FitConfig(num_gaussians=27, max_iters=30))
        scene, history = fit_gaussians(target, FitConfig(num_gaussians=27, max_iters=30, freeze_rotation=False))
        identity = np.array([1.0, 0.0, 0.0, 0.0])
        assert np.all(frozen.rotations == identity)
        assert np.max(np.abs(scene.rotations - identity)) > 0.01
        assert np.allclose(np.linalg.norm(scene.rotations, axis=1), 1.0, rtol=0.0, atol=1e-12)
        assert len(history) == 31 and np.all(np.isfinite(history))
        assert history[-1] < 0.1 * history[0]

    def test_final_loss_comes_from_the_loss_only_path(self, monkeypatch):
        spec = GridSpec((0, 0, 0), (6, 6, 3), 0.5)
        target = box_target(spec, (1, 1, 0), (5, 5, 2), 1, 2)
        cfg = FitConfig(num_gaussians=27, max_iters=5, seed=7)
        fit_module, calls = importlib.import_module("gaussworld.fit"), []

        def counted(*args):
            calls.append(args)
            return occupancy_loss_and_grads(*args)

        monkeypatch.setattr(fit_module, "occupancy_loss_and_grads", counted)
        scene, history = fit_gaussians(target, cfg)
        # one backward pass per step, none for the final loss
        assert len(calls) == cfg.max_iters == len(history) - 1
        assert history[-1] == occupancy_loss(scene, target, SplatParams(cfg.class_config(2)))

    def test_optimization_error_carries_iteration(self):
        err = OptimizationError(17)
        assert err.iteration == 17
        assert "17" in str(err)


class TestDynamicMask:
    def test_argmax_selects(self, rng):
        scene = random_scene(rng, 6)
        cfg = ClassConfig(3, dynamic_class_ids={2})
        mask = dynamic_mask(scene, cfg)
        assert np.array_equal(mask, np.argmax(scene.logits, axis=1) == 2)

    def test_empty_scene(self):
        scene = GaussianScene([], [], [], [], ("a",))
        assert dynamic_mask(scene, ClassConfig(1)).shape == (0,)


def blob_scene(x, class_id=1, num_classes=2, n=4):
    """A tight cluster of gaussians at (x, 1.0, 0.5) all voting for class_id."""
    offs = np.array([[-0.25, 0, 0], [0.25, 0, 0], [0, -0.25, 0], [0, 0.25, 0]])[:n]
    means = np.array([x, 1.0, 0.5]) + offs
    logits = np.zeros((n, num_classes))
    logits[:, class_id] = 4.0
    return GaussianScene(
        means,
        np.full((n, 3), math.log(0.3)),
        np.tile([1.0, 0, 0, 0], (n, 1)),
        logits,
        tuple(f"c{i}" for i in range(num_classes)),
    )


class TestFitFlows:
    def test_recovers_translation(self):
        # displacement within the κ·scale basin of attraction of the kernels
        spec = GridSpec((0, 0, 0), (12, 4, 2), 0.5)
        scene = blob_scene(1.5)
        moved = blob_scene(2.25)
        params = SplatParams(ClassConfig(2))
        target, _ = splat(moved, spec, params)
        cfg = FitConfig(max_iters=200, num_classes=2)
        flows = fit_flows(scene, [target], Trajectory((Waypoint.identity(),)), cfg)
        assert flows.steps.shape == (1, 4, 3)
        # individual gaussians also spread a little to tile voxels; the blob
        # centroid is what the rigid translation determines
        centroid = flows.steps[0].mean(axis=0)
        assert centroid[0] == pytest.approx(0.75, abs=0.15)
        assert np.allclose(centroid[1:], 0.0, atol=0.15)

    def test_static_rows_stay_zero(self):
        spec = GridSpec((0, 0, 0), (12, 4, 2), 0.5)
        scene = blob_scene(1.5, class_id=0)  # class 0 is static below
        moved = blob_scene(3.5, class_id=0)
        params = SplatParams(ClassConfig(2))
        target, _ = splat(moved, spec, params)
        cfg = FitConfig(max_iters=50, num_classes=2, dynamic_class_ids=frozenset({1}))
        flows = fit_flows(scene, [target], Trajectory((Waypoint.identity(),)), cfg)
        assert np.all(flows.steps == 0.0)

    def test_ego_motion_compensated(self):
        # static world, moving ego: the fitted flow should be ~zero because the
        # ego transform alone already explains the future grid
        spec = GridSpec((0, 0, 0), (12, 4, 2), 0.5)
        scene = blob_scene(3.5)
        w = Waypoint(1.0, 0.0, 0.0)
        from gaussworld.flow import ego_transform

        params = SplatParams(ClassConfig(2))
        target, _ = splat(ego_transform(scene, w), spec, params)
        cfg = FitConfig(max_iters=100, num_classes=2)
        flows = fit_flows(scene, [target], Trajectory((w,)), cfg)
        assert np.max(np.abs(flows.steps[0].mean(axis=0))) < 0.05

    def test_target_count_mismatch(self):
        scene = blob_scene(1.0)
        cfg = FitConfig(num_classes=2)
        with pytest.raises(ValueError):
            fit_flows(scene, [], Trajectory((Waypoint.identity(),)), cfg)


# Frozen copy of the full-scene fit_flows loop that the static base field replaced: every
# iteration splats and differentiates all Gaussians, and a mask zeroes the static rows.
def _oracle_fit_flows(scene, future_targets, plan, cfg):
    ccfg = cfg.class_config(scene.num_classes)
    params = SplatParams(ccfg)
    if ccfg.dynamic_class_ids:
        mask = dynamic_mask(scene, ccfg)[:, None]
    else:
        mask = np.ones((len(scene), 1), dtype=bool)
    steps = np.zeros((len(plan), len(scene), 3))
    delta = np.zeros((len(scene), 3))
    for k, (target, w) in enumerate(zip(future_targets, plan.waypoints)):
        delta = delta.copy()
        Rz = yaw_matrix(-w.psi)
        prev = None
        for it in range(cfg.max_iters):
            moved = ego_transform(apply_flow(scene, delta), w)
            grads = occupancy_loss_and_grads(moved, target, params)
            d_delta = grads.d_means @ Rz
            delta = delta - LR_MEAN * np.where(mask, d_delta, 0.0)
            if prev is not None and abs(prev - grads.loss_value) < cfg.tol:
                break
            prev = grads.loss_value
        steps[k] = delta
    return steps


FLOW_SPEC = GridSpec((0, 0, 0), (12, 8, 4), 0.5)
FLOW_PLAN = Trajectory((Waypoint(0.3, 0.1, 0.05), Waypoint(0.6, 0.15, 0.1), Waypoint(0.9, 0.25, 0.2)))


def _flow_problem(dynamic_class_ids, with_dynamic_gaussians=True):
    """A 30-Gaussian scene with classes 0..2, and targets splatted from its class-2 Gaussians moving +x."""
    rng = np.random.default_rng(11)
    scene = random_scene(rng, 30, lo=0.5, hi=5.5, scale_range=(0.25, 0.7))
    if not with_dynamic_gaussians:
        scene = scene.with_arrays(logits=np.where(np.arange(3) == 2, -10.0, scene.logits))
    cfg = FitConfig(max_iters=4, tol=0.0, num_classes=3, dynamic_class_ids=frozenset(dynamic_class_ids))
    truth = SplatParams(ClassConfig(3, dynamic_class_ids=frozenset({2})))
    targets = [
        splat(ego_transform(apply_flow(scene, np.tile([0.4 * (k + 1), 0.0, 0.0], (30, 1)), truth.cfg), w), FLOW_SPEC, truth)[0]
        for k, w in enumerate(FLOW_PLAN.waypoints)
    ]
    return scene, targets, cfg


class TestFitFlowsStaticBase:
    @pytest.mark.parametrize(
        "dynamic_ids, with_dynamic", [({2}, True), (set(), True), ({2}, False)], ids=["mixed", "no_dynamic_classes", "no_dynamic_gaussians"]
    )
    def test_matches_full_scene_loop(self, dynamic_ids, with_dynamic):
        scene, targets, cfg = _flow_problem(dynamic_ids, with_dynamic)
        want = _oracle_fit_flows(scene, targets, FLOW_PLAN, cfg)
        got = fit_flows(scene, targets, FLOW_PLAN, cfg).steps
        assert np.max(np.abs(got - want)) <= 1e-12
        moves = dynamic_mask(scene, cfg.class_config(3)) if dynamic_ids else np.ones(len(scene), dtype=bool)
        assert np.all(got[:, ~moves] == 0.0)
        if not dynamic_ids:  # no static set: the same sums in the same order
            assert np.array_equal(got, want)
        if not with_dynamic:
            assert np.all(got == 0.0)
        else:
            assert np.any(got[:, moves] != 0.0)

    def test_base_field_matches_full_scene_loss_and_dynamic_grads(self):
        scene, targets, cfg = _flow_problem({2})
        params = SplatParams(cfg.class_config(3))
        moves = dynamic_mask(scene, params.cfg)
        assert 0 < np.count_nonzero(moves) < len(scene)
        base = evidence_field(scene.take(np.flatnonzero(~moves)), FLOW_SPEC, params)[0]
        got = occupancy_loss_and_grads(scene.take(np.flatnonzero(moves)), targets[0], params, base)
        want = occupancy_loss_and_grads(scene, targets[0], params)
        assert abs(got.loss_value - want.loss_value) <= 1e-12
        for group in ("d_means", "d_log_scales", "d_logits", "d_rotations"):
            assert np.max(np.abs(getattr(got, group) - getattr(want, group)[moves])) <= 1e-12, group

    def test_static_gaussians_walked_once_per_step(self, monkeypatch):
        scene, targets, cfg = _flow_problem({2})
        n_dynamic = int(np.count_nonzero(dynamic_mask(scene, cfg.class_config(3))))
        n_static = len(scene) - n_dynamic
        assert n_static != n_dynamic
        splat_module = importlib.import_module("gaussworld.splat")  # the package exports a function splat
        block_chunks, walks = splat_module._block_chunks, []

        def counting(scene, *args):
            walks.append(len(scene))
            return block_chunks(scene, *args)

        monkeypatch.setattr(splat_module, "_block_chunks", counting)
        fit_flows(scene, targets, FLOW_PLAN, cfg)
        assert walks.count(n_static) == len(FLOW_PLAN)
        assert walks.count(n_dynamic) == len(FLOW_PLAN) * cfg.max_iters
        assert len(walks) == len(FLOW_PLAN) * (1 + cfg.max_iters)

    def test_early_stop_walks_two_iterations_per_step(self, monkeypatch):
        scene, targets, _ = _flow_problem({2})
        cfg = FitConfig(max_iters=4, tol=math.inf, num_classes=3, dynamic_class_ids=frozenset({2}))
        want = _oracle_fit_flows(scene, targets, FLOW_PLAN, cfg)
        splat_module = importlib.import_module("gaussworld.splat")
        block_chunks, walks = splat_module._block_chunks, []

        def counting(*args):
            walks.append(args)
            return block_chunks(*args)

        monkeypatch.setattr(splat_module, "_block_chunks", counting)
        got = fit_flows(scene, targets, FLOW_PLAN, cfg).steps
        # per step: the static base field, then two iterations, the second of which stops
        assert len(walks) == len(FLOW_PLAN) * (1 + 2)
        assert np.max(np.abs(got - want)) <= 1e-12


class TestFitConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FitConfig(num_gaussians=0)

    def test_class_config_passthrough(self):
        cfg = FitConfig(dynamic_class_ids=frozenset({1}))
        ccfg = cfg.class_config(3)
        assert ccfg.num_classes == 3
        assert ccfg.dynamic_class_ids == frozenset({1})
        assert ccfg.empty_evidence == 0.1
        assert ccfg.mahalanobis_cutoff == 3.0


# Frozen copy of the per-component loop that check_gradients ran before it batched
# its finite differences: four full loss evaluations per component. It also returns
# the two stencils' differences, group after group, each row-major.
def _oracle_check_gradients(scene, target, params, step=1e-4, groups=None):
    ana = occupancy_loss_and_grads(scene, target, params)
    fields = {"mean": "means", "log_scale": "log_scales", "logits": "logits", "rotation": "rotations"}
    all_groups = {name: (getattr(scene, f), getattr(ana, "d_" + f)) for name, f in fields.items()}
    selected = all_groups if groups is None else {n: all_groups[n] for n in all_groups if n in groups}

    def loss_with(name, flat_idx, value):
        a = getattr(scene, fields[name]).copy()
        a.flat[flat_idx] = value
        return occupancy_loss(scene.with_arrays(**{fields[name]: a}), target, params)

    report, fds = {}, []
    for name, (base, analytic) in selected.items():
        max_err = 0.0
        errs = []
        excluded = 0
        for fi in range(base.size):
            x0 = base.flat[fi]
            fd_full = (loss_with(name, fi, x0 + step) - loss_with(name, fi, x0 - step)) / (2 * step)
            half = step / 2
            fd_half = (loss_with(name, fi, x0 + half) - loss_with(name, fi, x0 - half)) / (2 * half)
            fds.append((fd_full, fd_half))
            scale = max(abs(fd_full), abs(fd_half), 1e-6)
            if abs(fd_full - fd_half) > 1e-3 * scale:
                excluded += 1
                continue
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
    return report, np.array(fds).reshape(-1, 2).T


GRADCHECK_SPEC = GridSpec((0, 0, 0), (8, 8, 8), 0.5)
KAPPA = ClassConfig(3).mahalanobis_cutoff


def _scene(means, log_scales, rng, rotations=None):
    n = len(means)
    rotations = np.tile([1.0, 0, 0, 0], (n, 1)) if rotations is None else rotations
    return GaussianScene(means, log_scales, rotations, rng.normal(size=(n, 3)), ("c0", "c1", "c2"))


def _kappa_boundary_scene(rng):
    # the voxel centred at (1.25, 1.25, 1.25) lies 1.2e-10 m inside Gaussian 0's κ cutoff
    s = 0.4
    means = np.vstack([[1.25 + KAPPA * s * (1 - 1e-10), 1.25, 1.25], rng.uniform(0.5, 3.5, (3, 3))])
    log_scales = np.vstack([np.full((1, 3), math.log(s)), rng.uniform(math.log(0.2), math.log(0.8), (3, 3))])
    return _scene(means, log_scales, rng)


GRADCHECK_SCENES = {
    "empty": lambda rng: random_scene(rng, 0),
    "one": lambda rng: random_scene(rng, 1, lo=0.5, hi=3.5),
    "random": lambda rng: random_scene(rng, 6, lo=0.5, hi=3.5),
    # means beyond the grid's faces: the blocks are clipped at the grid edge
    "grid_edge": lambda rng: random_scene(rng, 4, lo=-0.4, hi=4.4),
    "kappa_boundary": _kappa_boundary_scene,
    # one axis 5e-5 below the log-scale clip, so x0 + step and x0 + step/2 clip
    "log_scale_clip": lambda rng: _scene(
        rng.uniform(1.0, 3.0, (2, 3)),
        [[math.log(0.3), math.log(0.5), LOG_SCALE_MAX - 5e-5], [math.log(0.4)] * 3],
        rng,
        rng.normal(size=(2, 4)),
    ),
}


class TestCheckGradients:
    @pytest.mark.parametrize("case", list(GRADCHECK_SCENES))
    def test_batched_differences_match_per_component_loop(self, rng, case):
        scene = GRADCHECK_SCENES[case](rng)
        labels = rng.choice([0, 1, 2, EMPTY], GRADCHECK_SPEC.num_voxels).astype(np.uint8)
        target, params = OccupancyGrid(GRADCHECK_SPEC, labels), SplatParams(ClassConfig(3))
        names = ["mean", "log_scale", "logits", "rotation"]
        oracle_report, (oracle_full, oracle_half) = _oracle_check_gradients(scene, target, params)
        fd_full, fd_half = _stencil_differences(scene, target, params, 1e-4, names)
        assert fd_full.shape == fd_half.shape == (len(scene) * 13,)
        assert np.max(np.abs(fd_full - oracle_full), initial=0.0) <= 1e-9
        assert np.max(np.abs(fd_half - oracle_half), initial=0.0) <= 1e-9
        report = check_gradients(scene, target, params)
        assert list(report) == names
        assert [v["excluded"] for v in report.values()] == [v["excluded"] for v in oracle_report.values()]
        assert all(v["max_rel_err"] < 1e-4 for v in report.values())

    def test_kernel_walks_do_not_grow_with_scene_size(self, rng, monkeypatch):
        walks = []
        splat_module = importlib.import_module("gaussworld.splat")  # the package exports a function splat
        block_chunks = splat_module._block_chunks

        def counting(*args):
            walks.append(args)
            return block_chunks(*args)

        monkeypatch.setattr(splat_module, "_block_chunks", counting)
        counts = []
        for n in (2, 12):
            labels = rng.choice([0, 1, 2, EMPTY], GRADCHECK_SPEC.num_voxels).astype(np.uint8)
            walks.clear()
            check_gradients(random_scene(rng, n, lo=0.5, hi=3.5), OccupancyGrid(GRADCHECK_SPEC, labels),
                            SplatParams(ClassConfig(3)), groups=("mean", "log_scale", "logits"))
            counts.append(len(walks))
        assert counts[0] == counts[1]

    def test_scene_of_copies_builds_no_dense_field(self, rng, monkeypatch):
        """The copies are walked for their pairs only: every dense F is of the checked scene itself."""
        splat_module = importlib.import_module("gaussworld.splat")  # the package exports a function splat
        fit_module = importlib.import_module("gaussworld.fit")
        fields, walks = [], []
        dense, pairs_only = splat_module.evidence_field, splat_module._inside_pairs

        def counted_field(scene, *args, **kw):
            fields.append(len(scene))
            return dense(scene, *args, **kw)

        def counted_pairs(scene, *args, **kw):
            walks.append(len(scene))
            return pairs_only(scene, *args, **kw)

        for module in (splat_module, fit_module):
            monkeypatch.setattr(module, "evidence_field", counted_field)
            monkeypatch.setattr(module, "_inside_pairs", counted_pairs)
        scene = random_scene(rng, 5, lo=0.5, hi=3.5)
        labels = rng.choice([0, 1, 2, EMPTY], GRADCHECK_SPEC.num_voxels).astype(np.uint8)
        check_gradients(scene, OccupancyGrid(GRADCHECK_SPEC, labels), SplatParams(ClassConfig(3)))
        assert fields == [5, 5, 5]  # occupancy_loss_and_grads, occupancy_loss and the differences' base F
        assert 5 * 13 * 4 in walks  # 13 components of each Gaussian at four stencil points

    def test_unknown_group_rejected(self, rng):
        target = OccupancyGrid.empty(GRADCHECK_SPEC)
        with pytest.raises(ValueError, match="rotations"):
            check_gradients(random_scene(rng, 1), target, SplatParams(ClassConfig(3)), groups=("rotations",))
