import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussworld.core import EMPTY, ClassConfig, GaussianScene, prune, quat_to_rot, scene_confidences
from gaussworld.grid import GridSpec, voxel_centers
from gaussworld.splat import SplatParams, evidence_field
from tests.conftest import random_scene
from tests.oracles import class_field_at, covariance, label_at

QUAT_90Z = (math.cos(math.pi / 4), 0.0, 0.0, math.sin(math.pi / 4))


# with one class the field is the bare kernel value exp(-½·q)
CFG1 = ClassConfig(1)
UNCUT = ClassConfig(1, mahalanobis_cutoff=1e3)


def unit_gaussian(mean=(0, 0, 0), logits=(0.0,)):
    """A one-Gaussian scene with unit scales and no rotation."""
    return GaussianScene(mean, (0, 0, 0), (1, 0, 0, 0), logits, tuple(f"c{i}" for i in range(len(logits))))


class TestCovariance:
    def test_identity_case(self):
        assert np.allclose(covariance((0, 0, 0), (1, 0, 0, 0)), np.eye(3))

    def test_axis_aligned_scaling(self):
        got = covariance((math.log(2), 0, 0), (1, 0, 0, 0))
        assert np.allclose(got, np.diag([4.0, 1.0, 1.0]))

    def test_rotated_matches_explicit_product(self):
        # oracle: explicit R·S·Sᵀ·Rᵀ with the 90°-about-z rotation matrix
        R = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        S = np.diag([2.0, 1.0, 1.0])
        expected = R @ S @ S.T @ R.T
        got = covariance((math.log(2), 0, 0), QUAT_90Z)
        assert np.allclose(got, expected)
        assert np.allclose(got, np.diag([1.0, 4.0, 1.0]))

    def test_spd_and_eigenvalues(self, rng):
        for _ in range(20):
            ls = rng.uniform(-2, 2, 3)
            q = rng.normal(size=4)
            cov = covariance(ls, q)
            assert np.allclose(cov, cov.T)
            eig = np.sort(np.linalg.eigvalsh(cov))
            assert np.allclose(eig, np.sort(np.exp(2 * ls)), rtol=1e-9, atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            covariance((np.nan, 0, 0), (1, 0, 0, 0))


class TestDensity:
    def test_peak_at_mean(self):
        assert class_field_at(unit_gaussian(), (0, 0, 0), CFG1)[0] == 1.0

    def test_unit_offset(self):
        assert class_field_at(unit_gaussian(), (1, 0, 0), CFG1)[0] == pytest.approx(math.exp(-0.5))

    def test_matches_dense_inverse_oracle(self, rng):
        for _ in range(20):
            mean, ls, q = rng.normal(size=3), rng.uniform(-1, 1, 3), rng.normal(size=4)
            scene = GaussianScene(mean, ls, q, (0.0,), ("c0",))
            x = rng.normal(size=3)
            d = x - mean
            m2 = d @ np.linalg.inv(covariance(ls, q)) @ d
            assert class_field_at(scene, x, UNCUT)[0] == pytest.approx(math.exp(-0.5 * m2), rel=1e-9)

    def test_kernel_matches_dense_inverse_oracle(self, rng):
        spec = GridSpec((-2, -2, -2), (8, 8, 8), 0.5)
        centers = voxel_centers(spec)
        for _ in range(10):
            mean, ls, q = rng.normal(size=3), rng.uniform(-1, 1, 3), rng.normal(size=4)
            scene = GaussianScene(mean, ls, q, (0.0,), ("c0",))
            F, _ = evidence_field(scene, spec, SplatParams(CFG1))
            d = centers - mean
            m2 = np.einsum("vi,ij,vj->v", d, np.linalg.inv(covariance(ls, q)), d)
            # a voxel whose m2 lies within rounding of κ² = 9 may fall on either side of the cutoff
            sure = np.abs(m2 - 9.0) > 1e-9
            want = np.where(m2 <= 9.0, np.exp(-0.5 * m2), 0.0)
            assert np.allclose(F[sure, 0], want[sure], rtol=1e-9, atol=0.0)

    def test_cutoff(self):
        g = unit_gaussian()
        assert class_field_at(g, (5, 0, 0), CFG1)[0] == 0.0
        assert class_field_at(g, (2, 0, 0), CFG1)[0] > 0.0

    def test_rotation_consistency(self, rng):
        # rotating both the gaussian and the query leaves the value unchanged
        from gaussworld.core import quat_multiply, quat_normalize

        for _ in range(10):
            mean, ls = rng.normal(size=3), rng.uniform(-1, 1, 3)
            scene = GaussianScene(mean, ls, rng.normal(size=4), (0.0,), ("c0",))
            x = rng.normal(size=3)
            q = quat_normalize(rng.normal(size=4))
            R = quat_to_rot(q)
            turned = GaussianScene(R @ mean, ls, quat_multiply(q, scene.rotations[0]), (0.0,), ("c0",))
            want = class_field_at(scene, x, UNCUT)[0]
            assert class_field_at(turned, R @ x, UNCUT)[0] == pytest.approx(want, abs=1e-12)


class TestClassField:
    def test_empty_scene(self, cfg3):
        scene = GaussianScene([], [], [], [], ("a", "b", "c"))
        assert np.array_equal(class_field_at(scene, (0, 0, 0), cfg3), np.zeros(3))

    def test_softmax_weights_at_mean(self, cfg3):
        # independent softmax: exp(2)=7.38905609893065, p = (e0,e0,e2)/(2+e2)
        e2 = 7.38905609893065
        p = np.array([1.0, 1.0, e2]) / (2.0 + e2)
        scene = GaussianScene((1, 1, 1), (0, 0, 0), (1, 0, 0, 0), (0.0, 0.0, 2.0), ("a", "b", "c"))
        F = class_field_at(scene, (1, 1, 1), cfg3)
        assert np.allclose(F, p, atol=1e-12)
        assert F[2] == pytest.approx(0.7870, abs=1e-4)

    def test_additive_over_union(self, rng, cfg3):
        a = random_scene(rng, 5)
        b = random_scene(rng, 7)
        both = GaussianScene(
            np.vstack([a.means, b.means]),
            np.vstack([a.log_scales, b.log_scales]),
            np.vstack([a.rotations, b.rotations]),
            np.vstack([a.logits, b.logits]),
            a.class_names,
        )
        x = rng.uniform(0.5, 3.5, 3)
        assert np.allclose(
            class_field_at(both, x, cfg3),
            class_field_at(a, x, cfg3) + class_field_at(b, x, cfg3),
            rtol=1e-12,
        )

    def test_two_identical_gaussians_double(self, cfg3):
        one = GaussianScene((0, 0, 0), (0, 0, 0), (1, 0, 0, 0), (0.0, 0.0, 2.0), ("a", "b", "c"))
        two = one.take([0, 0])
        assert np.allclose(
            class_field_at(two, (0.3, 0, 0), cfg3), 2 * class_field_at(one, (0.3, 0, 0), cfg3)
        )


class TestLabel:
    def test_empty_scene_is_empty(self, cfg3):
        scene = GaussianScene([], [], [], [], ("a", "b", "c"))
        assert label_at(scene, (0, 0, 0), cfg3) == EMPTY

    def test_dominant_class_at_mean(self, cfg3):
        scene = GaussianScene((0, 0, 0), (-2, -2, -2), (1, 0, 0, 0), (0.0, 0.0, 4.0), ("a", "b", "c"))
        assert label_at(scene, (0, 0, 0), cfg3) == 2

    def test_far_point_is_empty(self, cfg3):
        scene = GaussianScene((0, 0, 0), (0, 0, 0), (1, 0, 0, 0), (0.0, 0.0, 4.0), ("a", "b", "c"))
        assert label_at(scene, (5.0, 0, 0), cfg3) == EMPTY

    def test_tie_breaks_low_index(self, cfg3):
        scene = GaussianScene((0, 0, 0), (0, 0, 0), (1, 0, 0, 0), (1.0, 1.0, 0.0), ("a", "b", "c"))
        assert label_at(scene, (0, 0, 0), cfg3) == 0

    def test_deterministic(self, rng, cfg3):
        scene = random_scene(rng, 16)
        x = rng.uniform(0, 4, 3)
        labels = {label_at(scene, x, cfg3) for _ in range(5)}
        assert len(labels) == 1


class TestConfidence:
    def test_uniform(self):
        assert scene_confidences(unit_gaussian(logits=(0, 0, 0, 0)))[0] == pytest.approx(0.25)

    def test_peaked(self):
        # softmax by hand: 1/(1 + 2·e^-10)
        expected = 1.0 / (1.0 + 2.0 * math.exp(-10.0))
        assert scene_confidences(unit_gaussian(logits=(10.0, 0.0, 0.0)))[0] == pytest.approx(expected)
        assert scene_confidences(unit_gaussian(logits=(10.0, 0.0, 0.0)))[0] == pytest.approx(0.99991, abs=1e-5)

    def test_single_class(self):
        assert scene_confidences(unit_gaussian(logits=(3.7,)))[0] == 1.0


def scene_with_confidence_pattern():
    # confidences ~ (high, low, mid, low, mid-high); indices 1 and 3 tie exactly
    logit_rows = [(6.0, 0, 0, 0), (0, 0, 0, 0), (1.5, 0, 0, 0), (0, 0, 0, 0), (3.0, 0, 0, 0)]
    means = [(i, 0, 0) for i in range(5)]
    return GaussianScene(means, np.zeros((5, 3)), np.tile([1.0, 0, 0, 0], (5, 1)), logit_rows, ("a", "b", "c", "d"))


class TestPrune:
    def test_noop(self, rng):
        scene = random_scene(rng, 9)
        pruned, survivors = prune(scene, 0.0)
        assert np.array_equal(pruned.means, scene.means)
        assert np.array_equal(survivors, np.arange(9))

    def test_table5_count(self):
        n = 25600
        kept = math.ceil((1 - 0.40) * n)
        assert kept == 15360
        rng = np.random.default_rng(0)
        scene = random_scene(rng, 256)
        pruned, _ = prune(scene, 0.40)
        assert len(pruned) == math.ceil(0.6 * 256)

    def test_hand_ordering(self):
        # sort by (confidence desc, index asc) keeps {0, 2, 4} at fraction 0.4
        scene = scene_with_confidence_pattern()
        pruned, survivors = prune(scene, 0.4)
        assert survivors.tolist() == [0, 2, 4]
        assert np.array_equal(pruned.means, scene.means[[0, 2, 4]])

    def test_tie_retains_lower_index(self):
        scene = scene_with_confidence_pattern()
        # keep 4 of 5: the tie between indices 1 and 3 resolves to 1
        _, survivors = prune(scene, 0.2)
        assert survivors.tolist() == [0, 1, 2, 4]

    @given(st.integers(0, 40), st.floats(0, 1))
    @settings(max_examples=40, deadline=None)
    def test_count_formula_and_idempotence(self, n, fraction):
        rng = np.random.default_rng(n)
        scene = random_scene(rng, n) if n else GaussianScene([], [], [], [], ("c0", "c1", "c2"))
        pruned, survivors = prune(scene, fraction)
        assert len(pruned) == math.ceil((1 - fraction) * n)
        again, again_idx = prune(pruned, 0.0)
        assert np.array_equal(again.means, pruned.means)
        assert np.all(np.diff(survivors) > 0) or len(survivors) <= 1


class TestInvariants:
    def test_scene_confidences_order(self, rng):
        scene = random_scene(rng, 12)
        # one softmax per row, by hand
        e = np.exp(scene.logits)
        assert np.allclose(scene_confidences(scene), [np.max(row) / np.sum(row) for row in e])

    def test_log_scale_clamp(self):
        scene = GaussianScene((0, 0, 0), (-100, 0, 100), (1, 0, 0, 0), (0.0,), ("a",))
        assert np.all(np.exp(scene.log_scales) >= 1e-4)
        assert np.all(np.exp(scene.log_scales) <= 1e3)

    def test_rotation_normalized(self):
        scene = GaussianScene((0, 0, 0), (0, 0, 0), (2, 0, 0, 0), (0.0,), ("a",))
        assert np.linalg.norm(scene.rotations[0]) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("component", range(4))
    def test_rotation_must_be_finite(self, bad, component):
        q = [1.0, 0.0, 0.0, 0.0]
        q[component] = bad
        with pytest.raises(ValueError, match="rotations must be finite"):
            GaussianScene(np.zeros((2, 3)), np.zeros((2, 3)), [(1, 0, 0, 0), q], np.zeros((2, 1)), ("a",))

    def test_class_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GaussianScene((0, 0, 0), (0, 0, 0), (1, 0, 0, 0), (0.0, 0.0), ("a", "b", "c"))

    def test_dynamic_ids_validated(self):
        with pytest.raises(ValueError):
            ClassConfig(3, dynamic_class_ids={5})

    def test_class_count_capped_below_empty_label(self):
        ClassConfig(255)
        with pytest.raises(ValueError, match="255"):
            ClassConfig(256)
        names = tuple(f"c{i}" for i in range(256))
        GaussianScene(np.zeros((1, 3)), np.zeros((1, 3)), [(1, 0, 0, 0)], np.zeros((1, 255)), names[:255])
        with pytest.raises(ValueError, match="255"):
            GaussianScene(np.zeros((1, 3)), np.zeros((1, 3)), [(1, 0, 0, 0)], np.zeros((1, 256)), names)

    @pytest.mark.parametrize("pose", [(1.0,), (0.0, 0.0), (0.0, 0.0, 0.0, 0.0), (0.0, math.nan, 0.0), 5, "abc", [0, {}, 0]])
    def test_frame_pose_needs_three_finite_values(self, pose):
        with pytest.raises(ValueError, match="frame_pose"):
            GaussianScene(np.zeros((1, 3)), np.zeros((1, 3)), [(1, 0, 0, 0)], np.zeros((1, 1)), ("a",), pose)
