import importlib
import math

import numpy as np
import pytest

from gaussworld.core import EMPTY, ClassConfig, GaussianScene, SemanticGaussian, label_at, quat_to_rot
from gaussworld.fit import check_gradients
from gaussworld.grid import GridSpec, OccupancyGrid, voxel_center, voxel_centers
from gaussworld.splat import (
    SplatParams,
    _block_chunks,
    evidence_field,
    occupancy_loss,
    occupancy_loss_and_grads,
    splat,
)
from tests.conftest import random_scene


def make_params(num_classes=3, **kw):
    return SplatParams(ClassConfig(num_classes, **kw))


class TestSplat:
    def test_empty_scene_all_empty(self):
        spec = GridSpec((0, 0, 0), (4, 4, 4), 0.5)
        scene = GaussianScene.from_gaussians([], ("a", "b", "c"))
        grid, _ = splat(scene, spec, make_params())
        assert np.all(grid.labels == EMPTY)

    def test_tight_gaussian_labels_only_its_voxel(self):
        spec = GridSpec((0, 0, 0), (8, 8, 8), 0.5)
        center = voxel_center(spec, (4, 4, 4))
        g = SemanticGaussian(center, (math.log(0.1),) * 3, (1, 0, 0, 0), (0.0, 0.0, 5.0))
        scene = GaussianScene.from_gaussians([g], ("a", "b", "c"))
        grid, _ = splat(scene, spec, make_params())
        assert grid.label(4, 4, 4) == 2
        for d in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)):
            assert grid.label(4 + d[0], 4 + d[1], 4 + d[2]) == EMPTY

    def test_matches_pointwise_oracle(self, rng):
        spec = GridSpec((0, 0, 0), (16, 16, 16), 0.25)
        scene = random_scene(rng, 64, lo=0.0, hi=4.0)
        params = make_params()
        grid, _ = splat(scene, spec, params)
        for v in range(0, spec.num_voxels, 97):
            ijk = spec.unflatten(v)
            assert grid.labels[v] == label_at(scene, voxel_center(spec, ijk), params.cfg)

    def test_sparse_equals_brute_force(self, rng):
        spec = GridSpec((0, 0, 0), (12, 12, 12), 0.4)
        scene = random_scene(rng, 48, lo=0.0, hi=4.5)
        sparse = SplatParams(ClassConfig(3), use_index=True)
        brute = SplatParams(ClassConfig(3), use_index=False)
        gs, fs = splat(scene, spec, sparse)
        gb, fb = splat(scene, spec, brute)
        assert np.array_equal(gs.labels, gb.labels)
        assert np.max(np.abs(fs - fb)) < 1e-9

    def test_translation_equivariance(self, rng):
        scene = random_scene(rng, 16, lo=0.0, hi=4.0)
        shift = np.array([3.7, -1.2, 0.9])
        moved = scene.with_arrays(means=scene.means + shift)
        spec_a = GridSpec((0, 0, 0), (10, 10, 10), 0.4)
        spec_b = GridSpec(tuple(np.array(spec_a.origin) + shift), (10, 10, 10), 0.4)
        ga, _ = splat(scene, spec_a, make_params())
        gb, _ = splat(moved, spec_b, make_params())
        assert np.array_equal(ga.labels, gb.labels)

    def test_class_count_mismatch(self, rng):
        scene = random_scene(rng, 2, num_classes=2)
        with pytest.raises(ValueError):
            splat(scene, GridSpec((0, 0, 0), (2, 2, 2), 1.0), make_params(3))


class TestOccupancyLoss:
    def test_empty_scene_vs_empty_target_is_zero(self):
        spec = GridSpec((0, 0, 0), (4, 4, 4), 0.5)
        scene = GaussianScene.from_gaussians([], ("a", "b", "c"))
        grads = occupancy_loss_and_grads(scene, OccupancyGrid.empty(spec), make_params())
        assert grads.loss_value == 0.0

    def test_floor_guards_impossible_target(self):
        spec = GridSpec((0, 0, 0), (4, 4, 4), 0.5)
        labels = np.full(spec.num_voxels, EMPTY, np.uint8)
        labels[13] = 1
        scene = GaussianScene.from_gaussians([], ("a", "b", "c"))
        grads = occupancy_loss_and_grads(scene, OccupancyGrid(spec, labels), make_params())
        expected = -math.log(1e-12) / spec.num_voxels
        assert grads.loss_value == pytest.approx(expected)
        assert math.isfinite(grads.loss_value)

    def test_loss_nonnegative(self, rng):
        spec = GridSpec((0, 0, 0), (6, 6, 6), 0.5)
        for seed in range(5):
            r = np.random.default_rng(seed)
            scene = random_scene(r, 8, lo=0.0, hi=3.0)
            labels = r.choice([0, 1, 2, EMPTY], spec.num_voxels).astype(np.uint8)
            loss = occupancy_loss(scene, OccupancyGrid(spec, labels), make_params())
            assert loss >= 0.0

    def test_loss_only_matches_grad_path(self, rng):
        spec = GridSpec((0, 0, 0), (6, 6, 6), 0.5)
        scene = random_scene(rng, 12, lo=0.0, hi=3.0)
        labels = rng.choice([0, 1, 2, EMPTY], spec.num_voxels).astype(np.uint8)
        target = OccupancyGrid(spec, labels)
        params = make_params()
        assert occupancy_loss(scene, target, params) == pytest.approx(
            occupancy_loss_and_grads(scene, target, params).loss_value, rel=1e-12
        )

    def test_rejects_out_of_range_labels(self, rng):
        spec = GridSpec((0, 0, 0), (2, 2, 2), 1.0)
        scene = random_scene(rng, 2)
        labels = np.full(spec.num_voxels, 7, np.uint8)
        with pytest.raises(ValueError):
            occupancy_loss_and_grads(scene, OccupancyGrid(spec, labels), make_params())


class TestGradients:
    def test_all_groups_match_finite_differences(self, rng):
        spec = GridSpec((0, 0, 0), (8, 8, 8), 0.5)
        scene = random_scene(rng, 8, lo=0.5, hi=3.5)
        labels = rng.choice([0, 1, 2, EMPTY], spec.num_voxels).astype(np.uint8)
        report = check_gradients(scene, OccupancyGrid(spec, labels), make_params())
        for group, stats in report.items():
            assert stats["max_rel_err"] < 1e-4, (group, stats)

    def test_logits_only_high_precision(self, rng):
        spec = GridSpec((0, 0, 0), (6, 6, 6), 0.5)
        scene = random_scene(rng, 6, lo=0.5, hi=2.5)
        labels = rng.choice([0, 1, 2, EMPTY], spec.num_voxels).astype(np.uint8)
        target = OccupancyGrid(spec, labels)
        params = make_params()
        ana = occupancy_loss_and_grads(scene, target, params).d_logits
        step = 1e-5
        fd = np.zeros_like(ana)
        for gi in range(len(scene)):
            for c in range(3):
                for s, delta in ((0, step), (1, -step)):
                    logits = scene.logits.copy()
                    logits[gi, c] += delta
                    val = occupancy_loss(scene.with_arrays(logits=logits), target, params)
                    fd[gi, c] += val if s == 0 else -val
        fd /= 2 * step
        err = np.abs(fd - ana) / np.maximum(np.maximum(np.abs(fd), np.abs(ana)), 1e-8)
        assert err.max() < 1e-6

    def test_cutoff_voxels_contribute_zero_gradient(self):
        # one distant labeled voxel beyond κ: gradient identically zero
        spec = GridSpec((0, 0, 0), (8, 1, 1), 0.5)
        g = SemanticGaussian((0.25, 0.25, 0.25), (math.log(0.1),) * 3, (1, 0, 0, 0), (2.0, 0.0))
        scene = GaussianScene.from_gaussians([g], ("a", "b"))
        labels = np.full(spec.num_voxels, EMPTY, np.uint8)
        labels[7] = 1  # 3.5 m away, far beyond κ·0.1
        grads = occupancy_loss_and_grads(scene, OccupancyGrid(spec, labels), make_params(2))
        # only the local empty-target voxels produce gradient; the far voxel none:
        # moving the far target to EMPTY must not change d_means at all
        labels2 = labels.copy()
        labels2[7] = EMPTY
        grads2 = occupancy_loss_and_grads(scene, OccupancyGrid(spec, labels2), make_params(2))
        assert np.array_equal(grads.d_means, grads2.d_means)


# Frozen copy of the per-Gaussian splat loops that the batched block kernel replaced.
# The kernel must reproduce its evidence bit-for-bit and its gradients to 1e-12.
def _oracle_blocks(scene, spec, kappa, use_index):
    nx, ny, nz = spec.dims
    o = np.array(spec.origin)
    radii = kappa * np.exp(np.max(scene.log_scales, axis=1)) if len(scene) else None
    for gi in range(len(scene)):
        if not use_index:
            yield gi, np.arange(spec.num_voxels)
            continue
        mean = scene.means[gi]
        lo = np.ceil((mean - radii[gi] - o) / spec.voxel_size - 0.5).astype(int)
        hi = np.floor((mean + radii[gi] - o) / spec.voxel_size - 0.5).astype(int)
        lo = np.maximum(lo, 0)
        hi = np.minimum(hi, np.array([nx - 1, ny - 1, nz - 1]))
        if np.any(hi < lo):
            continue
        I, J, K = np.meshgrid(*(np.arange(lo[a], hi[a] + 1) for a in range(3)), indexing="ij")
        yield gi, (I + nx * (J + ny * K)).ravel()


def _oracle_pairs(scene, spec, params):
    centers = voxel_centers(spec)
    rots = quat_to_rot(scene.rotations)
    s2inv = np.exp(-2.0 * scene.log_scales)
    k2 = params.cfg.mahalanobis_cutoff**2
    for gi, flat in _oracle_blocks(scene, spec, params.cfg.mahalanobis_cutoff, params.use_index):
        d = centers[flat] - scene.means[gi]
        u = d @ rots[gi]
        q = (u * u) @ s2inv[gi]
        inside = q <= k2
        if np.any(inside):
            yield gi, flat[inside], d[inside], u[inside], np.exp(-0.5 * q[inside]), rots[gi], s2inv[gi]


def _oracle_evidence(scene, spec, params):
    F = np.zeros((spec.num_voxels, params.cfg.num_classes))
    probs = scene.class_probs() if len(scene) else None
    for gi, flat, _, _, rho, _, _ in _oracle_pairs(scene, spec, params):
        F[flat] += rho[:, None] * probs[gi]
    return F


def _oracle_dR_dquat(q):
    w, x, y, z = q
    dRw = 2.0 * np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    dRx = 2.0 * np.array([[0.0, y, z], [y, -2 * x, -w], [z, w, -2 * x]])
    dRy = 2.0 * np.array([[-2 * y, x, w], [x, 0.0, z], [-w, z, -2 * y]])
    dRz = 2.0 * np.array([[-2 * z, -w, x], [w, -2 * z, y], [x, y, 0.0]])
    return np.stack([dRw, dRx, dRy, dRz])


def _oracle_loss_and_grads(scene, target, params):
    cfg, spec, t = params.cfg, target.spec, target.labels
    C, N, M, eps = cfg.num_classes, len(scene), spec.num_voxels, cfg.empty_evidence
    F = _oracle_evidence(scene, spec, params)
    denom = F.sum(axis=1) + eps
    is_empty = t == EMPTY
    sem_idx = np.nonzero(~is_empty)[0]
    sem_t = t[sem_idx].astype(np.int64)
    loss = np.sum(np.log(denom[is_empty])) - np.count_nonzero(is_empty) * np.log(eps)
    Pt = F[sem_idx, sem_t] / denom[sem_idx]
    clamped = Pt < 1e-12
    loss += -np.sum(np.log(np.maximum(Pt, 1e-12)))
    loss /= M
    dLdF = np.zeros((M, C))
    dLdF[is_empty] = (1.0 / denom[is_empty])[:, None]
    active, active_t = sem_idx[~clamped], sem_t[~clamped]
    dLdF[active] = (1.0 / denom[active])[:, None]
    dLdF[active, active_t] -= 1.0 / F[active, active_t]
    dLdF /= M
    d_means, d_log_scales, d_rotations = np.zeros((N, 3)), np.zeros((N, 3)), np.zeros((N, 4))
    dLdp = np.zeros((N, C))
    probs = scene.class_probs() if N else np.zeros((0, C))
    for gi, flat, d, u, rho, R, s2inv in _oracle_pairs(scene, spec, params):
        w = (dLdF[flat] @ probs[gi]) * rho
        a = u * s2inv
        d_means[gi] = w @ (a @ R.T)
        d_log_scales[gi] = s2inv * (w @ (u * u))
        dLdp[gi] = rho @ dLdF[flat]
        dq_hat = np.einsum("mij,ij->m", _oracle_dR_dquat(scene.rotations[gi]), -np.einsum("v,vi,vj->ij", w, d, a))
        qv = scene.rotations[gi]
        d_rotations[gi] = dq_hat - qv * (qv @ dq_hat)
    d_logits = probs * (dLdp - np.sum(dLdp * probs, axis=1, keepdims=True))
    return F, float(loss), {"d_means": d_means, "d_log_scales": d_log_scales, "d_logits": d_logits,
                            "d_rotations": d_rotations}


def _kernel_cases():
    rng = np.random.default_rng(7)
    spec = GridSpec((0, 0, 0), (10, 9, 7), 0.4)
    yield "empty", spec, random_scene(rng, 0)
    yield "single", spec, random_scene(rng, 1, lo=1.0, hi=2.5)
    yield "outside_grid", spec, random_scene(rng, 5, lo=20.0, hi=30.0)
    part = random_scene(rng, 7, lo=1.0, hi=2.5)
    odd_out = 25.0 * (np.arange(7) % 2)[:, None]  # every other Gaussian moves far outside the grid
    yield "partly_outside", spec, part.with_arrays(means=part.means + odd_out)
    yield "clipped_at_edge", spec, random_scene(rng, 12, lo=-0.6, hi=4.6)  # blocks cut at every face
    yield "mixed_shapes", spec, random_scene(rng, 40, lo=0.0, hi=4.0, scale_range=(0.05, 0.9))
    big = GridSpec((0, 0, 0), (24, 24, 12), 0.25)
    yield "many_pairs", big, random_scene(rng, 120, lo=0.0, hi=6.0, scale_range=(0.3, 0.5))
    # one 5³ block shape for all 400 Gaussians, so the group spans several chunks
    ijk = rng.integers(3, [21, 21, 9], size=(400, 3))
    same = random_scene(rng, 400).with_arrays(means=(ijk + 0.5) * 0.25, log_scales=np.full((400, 3), np.log(0.2)))
    yield "multi_chunk_group", big, same


KERNEL_CASES = {name: (spec, scene) for name, spec, scene in _kernel_cases()}


@pytest.mark.parametrize("use_index", [True, False])
@pytest.mark.parametrize("case", list(KERNEL_CASES))
def test_kernel_matches_per_gaussian_oracle(case, use_index, monkeypatch):
    spec, scene = KERNEL_CASES[case]
    if case == "multi_chunk_group":
        assert sum(1 for _ in _block_chunks(scene, spec, 3.0, use_index)) >= 3
    if case == "many_pairs":
        assert sum(flat.size for _, flat, _, _ in _block_chunks(scene, spec, 3.0, use_index)) > 2**14
    params = SplatParams(ClassConfig(3), use_index=use_index)
    labels = np.random.default_rng(3).choice([0, 1, 2, EMPTY], spec.num_voxels).astype(np.uint8)
    target = OccupancyGrid(spec, labels)
    F_ref, loss_ref, grads_ref = _oracle_loss_and_grads(scene, target, params)
    F, pairs = evidence_field(scene, spec, params)
    assert np.array_equal(F, F_ref)
    # the inside (g, flat) pairs are the oracle's, sorted by Gaussian and then voxel on both sides
    none = [np.zeros((0, 2), int)]
    got = np.concatenate(none + [np.stack([gi, flat], axis=1) for _, gi, flat, _, _ in pairs])
    want = np.concatenate(
        none + [np.stack([np.full(flat.size, gi), flat], axis=1) for gi, flat, *_ in _oracle_pairs(scene, spec, params)]
    )
    assert np.array_equal(got[np.lexsort(got.T[::-1])], want[np.lexsort(want.T[::-1])])
    # one block walk per loss evaluation: the backward pass reduces over the forward pass's pairs
    walks = []

    def counted_chunks(*args):
        walks.append(args)
        return _block_chunks(*args)

    monkeypatch.setattr(importlib.import_module("gaussworld.splat"), "_block_chunks", counted_chunks)
    grads = occupancy_loss_and_grads(scene, target, params)
    assert len(walks) == 1
    assert grads.loss_value == loss_ref
    assert occupancy_loss(scene, target, params) == loss_ref
    # relative to the largest gradient entry: isotropic Gaussians have rotation gradients of pure rounding noise
    scale = max(max(np.max(np.abs(ref), initial=0.0) for ref in grads_ref.values()), 1e-300)
    for group, ref in grads_ref.items():
        got = getattr(grads, group)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref), initial=0.0) <= 1e-12 * scale, group
