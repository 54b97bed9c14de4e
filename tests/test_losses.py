import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from tests.oracles import (
    detection_discrepancy_own_matcher,
    map_discrepancy_own_chamfer,
    motion_discrepancy_own_matcher,
    representation_discrepancy_own_chamfer,
)
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

    def test_semantic_term_hand_value(self):
        def one(logits):
            return GaussianScene(
                np.zeros((1, 3)), np.zeros((1, 3)), np.array([[1.0, 0, 0, 0]]),
                np.array([logits]), ("a", "b"),
            )

        a, b = one([10.0, 0.0]), one([0.0, 10.0])
        # probability vectors are (~1,~0) vs (~0,~1): squared distance ~2
        assert representation_discrepancy(a, b) == pytest.approx(2.0, abs=1e-3)

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
        pts = resample_polyline([[0, 0], [2, 0]])
        assert np.allclose(pts, [[0, 0], [0.5, 0], [1, 0], [1.5, 0], [2, 0]])

    def test_corner_preserves_arclength(self):
        pts = resample_polyline([[0, 0], [1, 0], [1, 1]])
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

    def test_matching_pairs_equal_motions(self):
        # listed in crossed order: the Hungarian matching still pairs equal motions
        p = [np.zeros((2, 2)), np.ones((2, 2))]
        g = [np.ones((2, 2)), np.zeros((2, 2))]
        assert motion_discrepancy(p, g) == 0.0

    def test_count_mismatch_penalty(self):
        p = [np.zeros((2, 2))]
        g = [np.zeros((2, 2)), np.ones((2, 2))]
        assert motion_discrepancy(p, g) == pytest.approx(5.0 / 2)

    @pytest.mark.parametrize("side", ["pred", "gt"])
    def test_motion_without_waypoints_names_side_and_agent(self, side):
        full, empty = [np.zeros((2, 2)), np.ones((2, 2))], [np.ones((2, 2)), np.zeros((0, 2))]
        p, g = (empty, full) if side == "pred" else (full, empty)
        with pytest.raises(ValueError, match=f"{side} motion 1 has no waypoints"):
            motion_discrepancy(p, g)


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


COORD = st.floats(-20.0, 20.0) | st.sampled_from([0.0, 1.0])  # repeated values make ties
SIDE = st.floats(0.5, 5.0)
BOXES = st.lists(st.builds(box, COORD, COORD, st.floats(-7.0, 7.0), st.tuples(SIDE, SIDE, st.just(1.5))), max_size=6)
MOTIONS = st.lists(st.lists(st.tuples(COORD, COORD), min_size=1, max_size=4).map(np.array), max_size=6)
LINE_POINT = st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))  # short lines keep the resampled point sets small
POLYLINES = st.lists(
    st.tuples(st.sampled_from(["boundary", "divider"]), st.lists(LINE_POINT, min_size=2, max_size=4).map(np.array)),
    max_size=4,
)


class TestFrozenLedger:
    """Every discrepancy equals the frozen copy from before the shared matcher and Chamfer, bit for bit."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(pred=BOXES, gt=BOXES)
    def test_detection(self, pred, gt):
        assert detection_discrepancy(pred, gt) == detection_discrepancy_own_matcher(pred, gt)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(pred=MOTIONS, gt=MOTIONS)
    def test_motion(self, pred, gt):
        assert motion_discrepancy(pred, gt) == motion_discrepancy_own_matcher(pred, gt)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(pred=POLYLINES, gt=POLYLINES)
    def test_map(self, pred, gt):
        assert map_discrepancy(pred, gt) == map_discrepancy_own_chamfer(pred, gt)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(na=st.integers(0, 6), nb=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
    def test_representation(self, na, nb, seed):
        rng = np.random.default_rng(seed)
        a, b = random_scene(rng, na), random_scene(rng, nb)
        assert representation_discrepancy(a, b) == representation_discrepancy_own_chamfer(a, b)


def _scipy_optimize_importers(path):
    """`module.function` (or `module.<module>`) for each import of scipy.optimize in a source file."""
    tree = ast.parse(path.read_text())
    owner = {}
    for fn in ast.walk(tree):  # breadth first: an inner function overwrites its outer one
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((node, fn.name) for node in ast.walk(fn) if node is not fn)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        if any(n == "scipy.optimize" or n.startswith("scipy.optimize.") for n in names):
            yield f"{path.stem}.{owner.get(node, '<module>')}"


def test_only_the_matched_mean_imports_scipy_optimize():
    """One deferred import of the Hungarian solver, inside losses._matched_mean."""
    src = Path(__file__).resolve().parents[1] / "src" / "gaussworld"
    importers = [i for path in sorted(src.glob("*.py")) for i in _scipy_optimize_importers(path)]
    assert importers == ["losses._matched_mean"]


def test_package_import_leaves_scipy_optimize_unloaded():
    """Only the Hungarian matcher uses scipy.optimize; importing the package and the CLI must not load it."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, gaussworld, gaussworld.cli; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "False"
