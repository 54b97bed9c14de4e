import math

import numpy as np
import pytest

from gaussworld.boxes import Box
from gaussworld.core import ClassConfig, GaussianScene
from gaussworld.flow import Trajectory, Waypoint
from gaussworld.grid import GridSpec, OccupancyGrid
from gaussworld.losses import (
    LossWeights,
    SceneDescription,
    detection_discrepancy,
    map_discrepancy,
    motion_discrepancy,
    perception_loss,
    planning_loss,
    prediction_loss,
    representation_discrepancy,
    resample_polyline,
    trajectory_loss,
)
from gaussworld.splat import SplatParams
from tests.conftest import random_scene


class TestLossWeights:
    def test_defaults_are_one(self):
        w = LossWeights()
        assert (w.occ, w.det, w.map, w.motion, w.re, w.perc, w.tra, w.pred) == (1.0,) * 8

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            LossWeights(det=-0.1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            LossWeights(occ=float("nan"))


class TestRepresentationDiscrepancy:
    def test_identical_scenes_zero(self, rng):
        scene = random_scene(rng, 8)
        assert representation_discrepancy(scene, scene) == 0.0

    def test_single_gaussian_hand_value(self):
        # same probs, means 1 apart: cost = 1² on both sides -> 1.0
        def one(x):
            return GaussianScene(
                np.array([[x, 0.0, 0.0]]), np.zeros((1, 3)), np.array([[1.0, 0, 0, 0]]),
                np.zeros((1, 2)), ("a", "b"),
            )

        assert representation_discrepancy(one(0.0), one(1.0)) == pytest.approx(1.0)

    def test_semantic_term_scales_with_lambda(self):
        def one(logits):
            return GaussianScene(
                np.zeros((1, 3)), np.zeros((1, 3)), np.array([[1.0, 0, 0, 0]]),
                np.array([logits]), ("a", "b"),
            )

        a, b = one([10.0, 0.0]), one([0.0, 10.0])
        # probability vectors are (~1,~0) vs (~0,~1): squared distance ~2
        base = representation_discrepancy(a, b, lambda_sem=1.0)
        double = representation_discrepancy(a, b, lambda_sem=2.0)
        assert base == pytest.approx(2.0, abs=1e-3)
        assert double == pytest.approx(2 * base, rel=1e-9)

    def test_symmetric(self, rng):
        a = random_scene(rng, 5)
        b = random_scene(rng, 9)
        assert representation_discrepancy(a, b) == pytest.approx(representation_discrepancy(b, a))

    def test_empty_side_far_cost(self, rng):
        a = random_scene(rng, 4)
        empty = GaussianScene([], [], [], [], ("c0", "c1", "c2"))
        assert representation_discrepancy(a, empty) == 10.0
        assert representation_discrepancy(empty, empty) == 0.0

    def test_class_table_mismatch(self, rng):
        a = random_scene(rng, 2, num_classes=2)
        b = random_scene(rng, 2, num_classes=3)
        with pytest.raises(ValueError):
            representation_discrepancy(a, b)


def box(x, y, yaw=0.0, size=(4.0, 2.0, 1.5), cid=0):
    return Box((x, y, 0.75), size, yaw, cid)


class TestDetectionDiscrepancy:
    def test_both_empty(self):
        assert detection_discrepancy([], []) == 0.0

    def test_exact_match_zero(self):
        boxes = [box(1, 2), box(5, -1, 0.3)]
        assert detection_discrepancy(boxes, boxes) == 0.0

    def test_hand_value_single_pair(self):
        # L1: |1| center + |0.5|+|0.25| size + |0.1| yaw = 1.85
        p = box(1.0, 0.0, 0.1, size=(4.5, 2.25, 1.5))
        g = box(0.0, 0.0, 0.0, size=(4.0, 2.0, 1.5))
        assert detection_discrepancy([p], [g]) == pytest.approx(1.85)

    def test_unmatched_penalty(self):
        # 1 pred vs 2 gt: one exact match plus one penalty, averaged over 2
        g2 = [box(0, 0), box(30, 30)]
        assert detection_discrepancy([box(0, 0)], g2) == pytest.approx(5.0 / 2)
        assert detection_discrepancy([], g2) == 5.0

    def test_assignment_minimizes_center_distance(self):
        preds = [box(10, 0), box(0, 0)]
        gts = [box(0.5, 0), box(10.5, 0)]
        # crossed assignment would cost 2·10; correct one costs 2·0.5
        assert detection_discrepancy(preds, gts) == pytest.approx(0.5)


class TestResamplePolyline:
    def test_spacing_and_endpoints(self):
        pts = resample_polyline([[0, 0], [2, 0]], spacing=0.5)
        assert np.allclose(pts, [[0, 0], [0.5, 0], [1, 0], [1.5, 0], [2, 0]])

    def test_corner_preserves_arclength(self):
        pts = resample_polyline([[0, 0], [1, 0], [1, 1]], spacing=0.5)
        assert np.allclose(pts[0], [0, 0]) and np.allclose(pts[-1], [1, 1])
        seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        assert np.all(seg <= 0.5 + 1e-12)

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            resample_polyline([[0, 0]])


class TestMapDiscrepancy:
    def test_no_polylines(self):
        assert map_discrepancy([], []) == 0.0

    def test_identical_zero(self):
        lines = [("boundary", np.array([[0, 0], [10, 0]]))]
        assert map_discrepancy(lines, lines) == 0.0

    def test_parallel_offset_hand_value(self):
        a = [("boundary", np.array([[0.0, 0.0], [10.0, 0.0]]))]
        b = [("boundary", np.array([[0.0, 1.0], [10.0, 1.0]]))]
        assert map_discrepancy(a, b) == pytest.approx(1.0)

    def test_missing_category_far_cost(self):
        a = [("boundary", np.array([[0, 0], [10, 0]]))]
        b = [("divider", np.array([[0, 0], [10, 0]]))]
        assert map_discrepancy(a, b) == 10.0


class TestMotionDiscrepancy:
    def test_both_empty(self):
        assert motion_discrepancy([], []) == 0.0

    def test_hand_ade(self):
        p = [np.array([[1.0, 0.0], [2.0, 0.0]])]
        g = [np.array([[1.0, 1.0], [2.0, 3.0]])]
        assert motion_discrepancy(p, g) == pytest.approx((1.0 + 3.0) / 2)

    def test_given_matching_overrides(self):
        p = [np.zeros((2, 2)), np.ones((2, 2))]
        g = [np.zeros((2, 2)), np.ones((2, 2))]
        crossed = motion_discrepancy(p, g, matching=[(0, 1), (1, 0)])
        assert crossed == pytest.approx(math.sqrt(2))
        assert motion_discrepancy(p, g) == 0.0

    def test_count_mismatch_penalty(self):
        p = [np.zeros((2, 2))]
        g = [np.zeros((2, 2)), np.ones((2, 2))]
        assert motion_discrepancy(p, g) == pytest.approx(5.0 / 2)


class TestPerceptionLoss:
    def _setup(self, rng):
        spec = GridSpec((0, 0, 0), (4, 4, 2), 0.5)
        scene = random_scene(rng, 4, lo=0.2, hi=1.8)
        gt = SceneDescription(
            boxes=(box(1, 1),),
            map_polylines=(("boundary", np.array([[0, 0], [2, 0]])),),
            agent_motions=(np.array([[1.0, 1.0]]),),
            occupancy=OccupancyGrid.empty(spec),
        )
        return scene, gt, SplatParams(ClassConfig(3))

    def test_zero_weights_give_zero(self, rng):
        scene, gt, params = self._setup(rng)
        w = LossWeights(occ=0, det=0, map=0, motion=0)
        assert perception_loss(SceneDescription(), gt, w) == 0.0

    def test_gating_skips_missing_gt(self, rng):
        # det weight zero: no boxes required anywhere
        _, gt, _ = self._setup(rng)
        w = LossWeights(occ=0, det=0, map=1, motion=0)
        val = perception_loss(SceneDescription(map_polylines=gt.map_polylines), gt, w)
        assert val == 0.0

    def test_occ_requires_scene(self, rng):
        _, gt, _ = self._setup(rng)
        with pytest.raises(ValueError):
            perception_loss(SceneDescription(), gt, LossWeights(det=0, map=0, motion=0))

    def test_linear_in_weights(self, rng):
        scene, gt, params = self._setup(rng)
        pred = SceneDescription(boxes=(box(0, 0),))
        kw = dict(scene=scene, splat_params=params)
        w1 = perception_loss(pred, gt, LossWeights(occ=1, det=1, map=0, motion=0), **kw)
        w2 = perception_loss(pred, gt, LossWeights(occ=2, det=2, map=0, motion=0), **kw)
        assert w2 == pytest.approx(2 * w1, rel=1e-12)

    def test_matches_term_sum(self, rng):
        from gaussworld.losses import occupancy_discrepancy

        scene, gt, params = self._setup(rng)
        pred = SceneDescription(boxes=(box(0, 0),), agent_motions=(np.array([[0.0, 0.0]]),))
        got = perception_loss(pred, gt, LossWeights(map=0), scene=scene, splat_params=params)
        expected = (
            occupancy_discrepancy(scene, gt.occupancy, params)
            + detection_discrepancy(pred.boxes, gt.boxes)
            + motion_discrepancy(pred.agent_motions, gt.agent_motions)
        )
        assert got == pytest.approx(expected, rel=1e-12)

    def test_occupancy_term_zero_on_perfect_splat(self):
        # empty scene splats to an all-EMPTY grid: occ-only loss is exactly 0
        from gaussworld.core import GaussianScene

        spec = GridSpec((0, 0, 0), (4, 4, 2), 0.5)
        scene = GaussianScene([], [], [], [], ("a", "b", "c"))
        gt = SceneDescription(occupancy=OccupancyGrid.empty(spec))
        w = LossWeights(det=0, map=0, motion=0)
        got = perception_loss(SceneDescription(), gt, w, scene=scene, splat_params=SplatParams(ClassConfig(3)))
        assert got == 0.0


class TestPredictionLoss:
    def test_identity_forecast_zero(self, rng):
        scenes = [random_scene(rng, 4), random_scene(rng, 6)]
        w = LossWeights(perc=0)
        assert prediction_loss(scenes, scenes, w) == 0.0

    def test_sums_over_steps(self, rng):
        a = [random_scene(rng, 4)]
        b = [random_scene(rng, 4)]
        w = LossWeights(perc=0, re=1.0)
        single = prediction_loss(a, b, w)
        double = prediction_loss(a + a, b + b, w)
        assert double == pytest.approx(2 * single, rel=1e-12)

    def test_perc_requires_descriptions(self, rng):
        scenes = [random_scene(rng, 3)]
        with pytest.raises(ValueError):
            prediction_loss(scenes, scenes, LossWeights())

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            prediction_loss([random_scene(rng, 2)], [], LossWeights())


class TestTrajectoryAndPlanning:
    def test_trajectory_hand_value(self):
        plan = Trajectory((Waypoint(1, 0, 0), Waypoint(2, 1, 0)))
        gt = Trajectory((Waypoint(1, 1, 0), Waypoint(2, 0, 0)))
        # per-step L1: 1 and 1 -> mean 1
        assert trajectory_loss(plan, gt) == pytest.approx(1.0)

    def test_identical_zero(self):
        t = Trajectory((Waypoint(1, 2, 0.3),))
        assert trajectory_loss(t, t) == 0.0

    def test_planning_combines(self):
        plan = Trajectory((Waypoint(1, 0, 0),))
        gt = Trajectory((Waypoint(0, 0, 0),))
        w = LossWeights(tra=2.0, pred=3.0)
        assert planning_loss(plan, gt, w, pred_loss_value=0.5) == pytest.approx(2 * 1.0 + 3 * 0.5)

    def test_planning_requires_pred_value(self):
        t = Trajectory((Waypoint(0, 0, 0),))
        with pytest.raises(ValueError):
            planning_loss(t, t, LossWeights())
        assert planning_loss(t, t, LossWeights(pred=0)) == 0.0
