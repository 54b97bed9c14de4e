import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussworld.boxes import Box
from gaussworld.core import EMPTY
from gaussworld.flow import Trajectory, Waypoint
from gaussworld.grid import GridSpec, OccupancyGrid
from gaussworld.metrics import (
    CollisionScenario,
    collision_rate,
    footprint_voxels,
    forecast_eval,
    l2_errors,
    miou_iou,
)
from tests.oracles import footprint_mask_full_grid


def grid(spec, labels):
    return OccupancyGrid(spec, np.asarray(labels, dtype=np.uint8))


SPEC12 = GridSpec((0, 0, 0), (12, 1, 1), 0.5)


class TestMiou:
    def test_identical(self):
        g = grid(SPEC12, [0, 0, 1, 1, 2, 2, EMPTY, EMPTY, 0, 1, 2, EMPTY])
        miou, iou, per_class = miou_iou(g, g)
        assert miou == 1.0 and iou == 1.0
        assert per_class == {0: 1.0, 1: 1.0, 2: 1.0}

    def test_hand_case_five_twelfths(self):
        # class 0: inter 1, union 3 -> 1/3; class 1: inter 1, union 2 -> 1/2
        # mIoU = (1/3 + 1/2)/2 = 5/12
        gt = grid(SPEC12, [0, 0, 1, 1] + [EMPTY] * 8)
        pr = grid(SPEC12, [0, EMPTY, 1, EMPTY, 0] + [EMPTY] * 7)
        miou, iou, per_class = miou_iou(pr, gt)
        assert miou == pytest.approx(5 / 12)
        assert per_class[0] == pytest.approx(1 / 3)
        assert per_class[1] == pytest.approx(1 / 2)
        # binary: inter 2, union 5
        assert iou == pytest.approx(2 / 5)

    def test_miou_ignores_classes_absent_from_gt(self):
        gt = grid(SPEC12, [0, 0] + [EMPTY] * 10)
        pr = grid(SPEC12, [0, 2] + [EMPTY] * 10)
        miou, _, per_class = miou_iou(pr, gt)
        # class 2 appears only in the prediction: reported but not averaged
        assert miou == pytest.approx(1 / 2)
        assert per_class[2] == 0.0

    def test_both_empty(self):
        g = OccupancyGrid.empty(SPEC12)
        miou, iou, per_class = miou_iou(g, g)
        assert miou == 1.0 and iou == 1.0 and per_class == {}

    def test_spec_mismatch(self):
        a = OccupancyGrid.empty(SPEC12)
        b = OccupancyGrid.empty(GridSpec((0, 0, 0), (6, 2, 1), 0.5))
        with pytest.raises(ValueError):
            miou_iou(a, b)


def traj(*xy):
    return Trajectory(tuple(Waypoint(x, y, 0.0) for x, y in xy))


class TestL2Errors:
    def test_hand_values_at_step(self):
        plan = traj((1, 0), (2, 0), (3, 0))
        gt = traj((1, 0.3), (2, 0.5), (3, 0.7))
        assert l2_errors(plan, gt, (1, 2, 3), "at-step") == pytest.approx([0.3, 0.5, 0.7])

    def test_hand_values_averaged(self):
        plan = traj((1, 0), (2, 0), (3, 0))
        gt = traj((1, 0.3), (2, 0.5), (3, 0.7))
        got = l2_errors(plan, gt, (1, 2, 3), "averaged")
        assert got == pytest.approx([0.3, 0.4, 0.5])

    def test_identical_zero(self):
        t = traj((1, 0), (2, 1))
        assert l2_errors(t, t, (1, 2)) == [0.0, 0.0]

    def test_bad_horizon(self):
        t = traj((1, 0))
        with pytest.raises(ValueError):
            l2_errors(t, t, (2,))

    def test_bad_mode(self):
        t = traj((1, 0))
        with pytest.raises(ValueError):
            l2_errors(t, t, (1,), mode="rms")


def agent_box(x, y):
    return Box((x, y, 0.8), (4.0, 2.0, 1.6), 0.0, 2)


class TestCollisionRate:
    def test_box_hit_counting(self):
        # 2 samples: one plan drives into the box at step 2, the other stays clear
        scenario = CollisionScenario(
            boxes_per_step=(
                (agent_box(20.0, 0.0),),
                (agent_box(6.0, 0.0),),
                (agent_box(6.0, 0.0),),
            )
        )
        hit = traj((2, 0), (5, 0), (5, 0))
        miss = traj((2, 0), (2, 6), (2, 6))
        rates = collision_rate([hit, miss], [scenario, scenario], horizons=(1, 2, 3))
        assert rates == [0.0, 50.0, 50.0]

    def test_collision_sticks_across_horizons(self):
        # a hit at step 1 counts for every later horizon too
        scenario = CollisionScenario(boxes_per_step=((agent_box(2.0, 0.0),), (), ()))
        plan = traj((2, 0), (20, 0), (20, 0))
        assert collision_rate([plan], [scenario], horizons=(1, 2, 3)) == [100.0, 100.0, 100.0]

    def test_grid_mode_respects_gt_ego_frame(self):
        # grid occupied right of the gt ego pose; a plan matching gt stays at
        # the grid origin and the obstacle sits 6 m ahead -> clear; a plan 6 m
        # past the gt pose lands on it -> hit
        spec = GridSpec((-8, -4, 0), (32, 16, 4), 0.5)
        labels = np.full(spec.num_voxels, EMPTY, dtype=np.uint8)
        from gaussworld.grid import voxel_centers

        centers = voxel_centers(spec)
        block = (
            (np.abs(centers[:, 0] - 6.0) <= 0.5)
            & (np.abs(centers[:, 1]) <= 0.5)
            & (centers[:, 2] >= 0.25)
            & (centers[:, 2] <= 1.0)
        )
        labels[block] = 1
        g = OccupancyGrid(spec, labels)
        gt_ego = traj((2, 0))
        scenario = CollisionScenario(grids=(g,), gt_ego=gt_ego)
        clear_plan = traj((2, 0))
        hit_plan = traj((8, 0))
        assert collision_rate([clear_plan], [scenario], horizons=(1,)) == [0.0]
        assert collision_rate([hit_plan], [scenario], horizons=(1,)) == [100.0]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            collision_rate([traj((0, 0))], [])


class TestForecastEval:
    def test_perfect_forecast(self):
        g = grid(SPEC12, [0, 1, 2] + [EMPTY] * 9)
        seq = [g, g, g]
        out = forecast_eval(seq, seq, horizons=(1, 2))
        assert out["per_horizon"] == {1: (1.0, 1.0), 2: (1.0, 1.0)}
        assert out["avg"] == (1.0, 1.0)

    def test_mixed_horizons_average(self):
        gt1 = grid(SPEC12, [0, 0, 1, 1] + [EMPTY] * 8)
        pr1 = grid(SPEC12, [0, EMPTY, 1, EMPTY, 0] + [EMPTY] * 7)  # mIoU 5/12
        perfect = grid(SPEC12, [0] + [EMPTY] * 11)
        out = forecast_eval([perfect, pr1, perfect], [perfect, gt1, perfect], horizons=(1, 2))
        assert out["per_horizon"][1][0] == pytest.approx(5 / 12)
        assert out["per_horizon"][2][0] == 1.0
        assert out["avg"][0] == pytest.approx((5 / 12 + 1.0) / 2)

    def test_horizon_out_of_range(self):
        g = OccupancyGrid.empty(SPEC12)
        with pytest.raises(ValueError):
            forecast_eval([g], [g], horizons=(1,))


FOOTPRINT_SPEC = GridSpec((-6.0, -4.0, -0.5), (24, 16, 6), 0.5)


@given(
    st.floats(-12.0, 12.0),
    st.floats(-9.0, 9.0),
    st.one_of(st.just(0.0), st.floats(-math.pi, math.pi)),
    st.tuples(st.floats(0.1, 9.0), st.floats(0.1, 5.0)),
    st.tuples(st.floats(-2.0, 3.5), st.floats(-2.0, 3.5)),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None, derandomize=True)
def test_footprint_labels_match_full_grid_oracle(x, y, psi, footprint, z_slab, density, seed):
    """Poses on and off the grid, any heading, and z slabs that are inverted or miss the grid."""
    rng, M = np.random.default_rng(seed), FOOTPRINT_SPEC.num_voxels
    g = grid(FOOTPRINT_SPEC, np.where(rng.uniform(size=M) < density, rng.integers(0, 3, M), EMPTY))
    pose = Waypoint(x, y, psi)
    want = g.labels[footprint_mask_full_grid(g, g.labels != EMPTY, pose, footprint, z_slab)]
    got = g.labels[footprint_voxels(FOOTPRINT_SPEC, pose, footprint, z_slab)]
    assert np.array_equal(got[got != EMPTY], want)
    everything = footprint_mask_full_grid(g, np.ones(FOOTPRINT_SPEC.num_voxels, bool), pose, footprint, z_slab)
    assert np.array_equal(footprint_voxels(FOOTPRINT_SPEC, pose, footprint, z_slab), np.flatnonzero(everything))


def test_footprint_voxels_of_empty_slabs_and_far_poses():
    fp = (4.6, 1.9)
    assert footprint_voxels(FOOTPRINT_SPEC, Waypoint(0.0, 0.0, 0.3), fp, (2.0, 0.2)).size == 0
    assert footprint_voxels(FOOTPRINT_SPEC, Waypoint(0.0, 0.0, 0.0), fp, (5.0, 9.0)).size == 0
    assert footprint_voxels(FOOTPRINT_SPEC, Waypoint(40.0, -30.0, 1.0), fp, (0.2, 2.0)).size == 0
    assert footprint_voxels(FOOTPRINT_SPEC, Waypoint(0.0, 0.0, 0.0), fp, (0.2, 2.0)).size == 10 * 4 * 4
