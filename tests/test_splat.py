import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussworld.core import EMPTY, ClassConfig, GaussianScene, quat_normalize, quat_to_rot
from gaussworld.fit import check_gradients
from gaussworld.grid import GridSpec, OccupancyGrid, voxel_centers
from gaussworld.splat import (
    SplatParams,
    _block_chunks,
    evidence_field,
    occupancy_loss,
    occupancy_loss_and_grads,
    splat,
)
from tests.conftest import random_scene
from tests.oracles import class_field_at, label_at, loss_and_grads_flat_bincount


def make_params(num_classes=3, **kw):
    return SplatParams(ClassConfig(num_classes, **kw))


class TestSplat:
    def test_empty_scene_all_empty(self):
        spec = GridSpec((0, 0, 0), (4, 4, 4), 0.5)
        scene = GaussianScene([], [], [], [], ("a", "b", "c"))
        grid, _ = splat(scene, spec, make_params())
        assert np.all(grid.labels == EMPTY)

    def test_tight_gaussian_labels_only_its_voxel(self):
        spec = GridSpec((0, 0, 0), (8, 8, 8), 0.5)
        center = voxel_centers(spec)[spec.flat_index(4, 4, 4)]
        scene = GaussianScene(center, (math.log(0.1),) * 3, (1, 0, 0, 0), (0.0, 0.0, 5.0), ("a", "b", "c"))
        grid, _ = splat(scene, spec, make_params())
        assert grid.labels[spec.flat_index(4, 4, 4)] == 2
        for d in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)):
            assert grid.labels[spec.flat_index(4 + d[0], 4 + d[1], 4 + d[2])] == EMPTY

    def test_matches_pointwise_oracle(self, rng):
        spec = GridSpec((0, 0, 0), (16, 16, 16), 0.25)
        scene = random_scene(rng, 64, lo=0.0, hi=4.0)
        params = make_params()
        grid, _ = splat(scene, spec, params)
        centers = voxel_centers(spec)
        for v in range(0, spec.num_voxels, 97):
            assert grid.labels[v] == label_at(scene, centers[v], params.cfg)

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
        scene = GaussianScene([], [], [], [], ("a", "b", "c"))
        grads = occupancy_loss_and_grads(scene, OccupancyGrid.empty(spec), make_params())
        assert grads.loss_value == 0.0

    def test_floor_guards_impossible_target(self):
        spec = GridSpec((0, 0, 0), (4, 4, 4), 0.5)
        labels = np.full(spec.num_voxels, EMPTY, np.uint8)
        labels[13] = 1
        scene = GaussianScene([], [], [], [], ("a", "b", "c"))
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
        scene = GaussianScene((0.25, 0.25, 0.25), (math.log(0.1),) * 3, (1, 0, 0, 0), (2.0, 0.0), ("a", "b"))
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
    # long thin Gaussians in random orientations: their exact boxes are far smaller than the κ·max(scale) cube
    needles = random_scene(rng, 24, lo=0.5, hi=3.5)
    yield "rotated_needles", spec, needles.with_arrays(log_scales=np.tile(np.log([0.05, 0.05, 0.9]), (24, 1)))
    yield "kappa_on_scale_axis", spec, _kappa_on_scale_axis_scene(spec)


def _kappa_on_scale_axis_scene(spec):
    # axis-aligned Gaussians, each with the centre of voxel (5, 4, 3) at exactly κ·s_k from its mean along axis k,
    # and 1.0 on the other axes; for s_k = 0.7 on z, below the voxel, that pair rounds inside κ but outside an
    # unpadded κ·√Σₖₖ box
    center = voxel_centers(spec)[spec.flat_index(5, 4, 3)]
    means, log_scales = [], []
    for scale in (0.15, 0.4, 0.7, 0.9):
        for k in range(3):
            for sign in (1.0, -1.0):
                ls = np.zeros(3)
                ls[k] = np.log(scale)
                off = np.zeros(3)
                off[k] = sign * 3.0 * np.exp(ls[k])
                means.append(center - off)
                log_scales.append(ls)
    n = len(means)
    return GaussianScene(means, log_scales, np.tile([1.0, 0, 0, 0], (n, 1)), np.zeros((n, 3)), ("c0", "c1", "c2"))


KERNEL_CASES = {name: (spec, scene) for name, spec, scene in _kernel_cases()}


@pytest.mark.parametrize("use_index", [True, False])
@pytest.mark.parametrize("case", list(KERNEL_CASES))
def test_kernel_matches_per_gaussian_oracle(case, use_index, monkeypatch):
    spec, scene = KERNEL_CASES[case]
    if case == "multi_chunk_group":
        assert sum(1 for _ in _block_chunks(scene, spec, 3.0, use_index)) >= 3
    if case == "many_pairs":
        assert sum(flat.size for _, flat, _, _ in _block_chunks(scene, spec, 3.0, use_index)) > 2**14
    if case == "kappa_on_scale_axis":  # some voxel centre at κ rounds to inside the cutoff
        assert any(np.any((q <= 9.0) & (q > 9.0 * (1 - 1e-12))) for *_, q in _block_chunks(scene, spec, 3.0, use_index))
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


@pytest.mark.parametrize("num_classes", [1, 4])
@pytest.mark.parametrize("case", list(KERNEL_CASES))
def test_backward_sums_equal_frozen_flat_bincount(case, num_classes):
    """Per-column bincounts add the same terms to each Gaussian in the same order as one flat bincount did."""
    spec, scene = KERNEL_CASES[case]
    rng = np.random.default_rng(11)
    names = tuple(f"c{c}" for c in range(num_classes))
    logits = rng.normal(size=(len(scene), num_classes))
    scene = GaussianScene(scene.means, scene.log_scales, scene.rotations, logits, names)
    params = SplatParams(ClassConfig(num_classes))
    target = OccupancyGrid(spec, rng.choice([*range(num_classes), EMPTY], spec.num_voxels).astype(np.uint8))
    base = evidence_field(random_scene(rng, 8, num_classes, lo=0.0, hi=3.0), spec, params)[0]
    assert np.any(base > 0)
    for fixed in (None, base):
        got = occupancy_loss_and_grads(scene, target, params, fixed)
        loss, *want = loss_and_grads_flat_bincount(scene, target, params, fixed)
        assert got.loss_value == loss
        for group, ref in zip(("d_means", "d_log_scales", "d_logits", "d_rotations"), want):
            assert np.array_equal(getattr(got, group), ref), group


@pytest.mark.parametrize("case", list(KERNEL_CASES))
def test_blocks_within_max_scale_box(case):
    """No kernel block is larger than the κ·max(scale) box that the frozen oracle walks."""
    spec, scene = KERNEL_CASES[case]
    oracle = {gi: set(flat.tolist()) for gi, flat in _oracle_blocks(scene, spec, 3.0, True)}
    for g, flat, _, _ in _block_chunks(scene, spec, 3.0, True):
        for gi, row in zip(g, flat):
            assert set(row.tolist()) <= oracle[gi]


def test_block_reaches_voxel_at_kappa_max_scale():
    """A voxel centre at exactly κ·max(scale) from the mean rounds inside the cutoff; the capped block keeps it."""
    spec = GridSpec((0, 0, 0), (10, 9, 7), 0.4)
    mean = voxel_centers(spec)[spec.flat_index(5, 4, 3)] - np.array([0.0, 0.0, 2.1])  # κ·0.7 below the centre
    scene = GaussianScene(mean, np.log([0.1, 0.1, 0.7]), (1, 0, 0, 0), (0.0, 0.0, 0.0), ("a", "b", "c"))
    F_sparse, _ = evidence_field(scene, spec, SplatParams(ClassConfig(3), use_index=True))
    F_full, _ = evidence_field(scene, spec, SplatParams(ClassConfig(3), use_index=False))
    assert F_full[spec.flat_index(5, 4, 3)].min() > 0
    assert np.array_equal(F_sparse, F_full)


def test_axis_aligned_block_is_exact_per_axis():
    """An axis-aligned Gaussian centred on a voxel gets 2⌊κ·s_k/vs⌋+1 voxels on axis k."""
    spec = GridSpec((0, 0, 0), (32, 12, 12), 0.25)
    scales = np.array([1.0, 0.1, 0.1])
    mean = voxel_centers(spec)[spec.flat_index(15, 6, 6)]
    scene = GaussianScene(mean, np.log(scales), (1, 0, 0, 0), (0.0, 0.0, 0.0), ("a", "b", "c"))
    ((_, flat, _, _),) = _block_chunks(scene, spec, 3.0, True)
    nx, ny, nz = spec.dims
    widths = [np.ptp(a) + 1 for a in np.unravel_index(flat[0], (nz, ny, nx))[::-1]]
    assert widths == [2 * math.floor(3.0 * s / spec.voxel_size) + 1 for s in scales] == [25, 3, 3]
    assert flat.size == 25 * 3 * 3


DIFF_SPEC = GridSpec((0.0, 0.0, 0.0), (6, 5, 4), 0.5)


@st.composite
def differential_scenes(draw):
    """Rotated, anisotropic Gaussians on DIFF_SPEC: up to four anywhere in the grid, one whose mean lies near a
    grid face (inside or out), so its block is clipped there, and one with a voxel centre on its κ surface or a
    relative 1e-8 inside or outside it."""
    lo = np.array(DIFF_SPEC.origin)
    hi = lo + DIFF_SPEC.extent()
    unit = st.floats(0.0, 1.0)
    log_scale = st.floats(math.log(0.05), math.log(0.9))
    quat = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda q: np.linalg.norm(q) > 0.1)
    logits = st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3, unique=True)
    n = draw(st.integers(0, 4)) + 2
    means = [lo + np.array(draw(st.tuples(unit, unit, unit))) * (hi - lo) for _ in range(n)]
    log_scales = [np.array(draw(st.tuples(log_scale, log_scale, log_scale))) for _ in range(n)]
    rotations = [quat_normalize(draw(quat)) for _ in range(n)]
    axis = draw(st.integers(0, 2))
    means[0][axis] = draw(st.sampled_from([lo[axis], hi[axis]])) + draw(st.floats(-0.5, 0.5))
    # the centre of voxel ijk sits κ·s_k·(1 + t) from the mean along the Gaussian's own axis k
    ijk = draw(st.tuples(*(st.integers(0, d - 1) for d in DIFF_SPEC.dims)))
    k, sign = draw(st.integers(0, 2)), draw(st.sampled_from([1.0, -1.0]))
    reach = 3.0 * np.exp(log_scales[1][k]) * (1.0 + draw(st.sampled_from([0.0, -1e-8, 1e-8])))
    means[1] = voxel_centers(DIFF_SPEC)[DIFF_SPEC.flat_index(*ijk)] - sign * reach * quat_to_rot(rotations[1])[:, k]
    rows = [draw(logits) for _ in range(n)]
    return GaussianScene(means, log_scales, rotations, rows, ("c0", "c1", "c2"))


@given(differential_scenes(), st.booleans())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_splat_matches_pointwise_oracle_on_random_scenes(scene, use_index):
    """splat's F and labels against class_field_at and label_at at every voxel centre.

    Two kinds of voxel may differ by rounding, and only they get a tolerance:
    - κ surface: a pair whose q lies within 1e-9 of κ² may fall on either side of the cutoff, so F lies between
      the oracle with cutoff² κ² - 1e-9 and with κ² + 1e-9, and the label is one of those two oracles' labels;
    - near tie: where the oracle's top two classes, or its total and ε, lie within 1e-9, the label is not compared.
    Elsewhere F agrees to 1e-12 (the kernel sums in another order) and the labels are equal.
    """
    params = SplatParams(ClassConfig(3), use_index=use_index)
    narrow = ClassConfig(3, mahalanobis_cutoff=math.sqrt(9.0 - 1e-9))
    wide = ClassConfig(3, mahalanobis_cutoff=math.sqrt(9.0 + 1e-9))
    grid, F = splat(scene, DIFF_SPEC, params)
    centers = voxel_centers(DIFF_SPEC)
    F_narrow = np.array([class_field_at(scene, x, narrow) for x in centers])
    F_wide = np.array([class_field_at(scene, x, wide) for x in centers])
    assert np.all(F >= F_narrow - 1e-12) and np.all(F <= F_wide + 1e-12)
    eps = params.cfg.empty_evidence
    for v, x in enumerate(centers):
        near_tie = any(
            abs(f.sum() - eps) <= 1e-9 or (f.sum() > eps and np.diff(np.sort(f)[-2:])[0] <= 1e-9)
            for f in (F_narrow[v], F_wide[v])
        )
        if not near_tie:
            at_kappa = not np.array_equal(F_narrow[v], F_wide[v])
            assert grid.labels[v] in {label_at(scene, x, narrow), label_at(scene, x, wide if at_kappa else narrow)}


SUBSET_SPEC = GridSpec((-0.3, 0.2, -0.1), (9, 7, 5), 0.4)


@st.composite
def voxel_subsets(draw):
    """Flat indices of SUBSET_SPEC: a random sample plus some of the grid's corners and face voxels."""
    nx, ny, nz = SUBSET_SPEC.dims
    corners = [SUBSET_SPEC.flat_index(i, j, k) for i in (0, nx - 1) for j in (0, ny - 1) for k in (0, nz - 1)]
    edges = st.tuples(st.sampled_from([0, nx - 1]), st.integers(0, ny - 1), st.integers(0, nz - 1))
    picked = draw(st.lists(st.sampled_from(corners), max_size=4))
    picked += [SUBSET_SPEC.flat_index(*ijk) for ijk in draw(st.lists(edges, max_size=3))]
    picked += draw(st.lists(st.integers(0, SUBSET_SPEC.num_voxels - 1), max_size=40))
    return np.array(picked, dtype=draw(st.sampled_from([np.int64, np.int32, np.uint16])))


@given(st.integers(0, 14), st.integers(0, 2**32 - 1), voxel_subsets(), st.booleans())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_splat_at_voxels_equals_full_splat_there(n, seed, voxels, use_index):
    """Labels and F rows at the given voxels are bit-identical to the full splat's; every other label is EMPTY."""
    rng = np.random.default_rng(seed)
    scene = random_scene(rng, n, lo=-1.0, hi=4.5, scale_range=(0.05, 1.2))
    params = SplatParams(ClassConfig(3), use_index=use_index)
    full, F = splat(scene, SUBSET_SPEC, params)
    grid, F_sub = splat(scene, SUBSET_SPEC, params, voxels)
    assert np.array_equal(grid.labels[voxels], full.labels[voxels])
    assert np.array_equal(F_sub[voxels], F[voxels])
    rest = np.ones(SUBSET_SPEC.num_voxels, bool)
    rest[voxels] = False
    assert np.all(grid.labels[rest] == EMPTY)


@pytest.mark.parametrize(
    "voxels, match",
    [([0.5, 2.0], "integer"), ([[0, 1]], "1-D"), ([-1, 3], "0..314"), ([315], "0..314")],
)
def test_splat_voxels_are_validated(voxels, match):
    scene = random_scene(np.random.default_rng(0), 3)
    with pytest.raises(ValueError, match=match):
        splat(scene, SUBSET_SPEC, make_params(), np.array(voxels))
