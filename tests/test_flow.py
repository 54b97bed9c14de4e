import math

import numpy as np
import pytest

from gaussworld.core import EMPTY, ClassConfig, GaussianScene
from gaussworld.flow import (
    FlowField,
    Trajectory,
    Waypoint,
    apply_flow,
    compose,
    copy_paste_forecast,
    ego_transform,
    forecast,
    wrap_angle,
)
from gaussworld.grid import GridSpec, OccupancyGrid
from tests.conftest import random_scene


def rand_waypoint(rng):
    return Waypoint(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-math.pi, math.pi))


class TestWaypoint:
    def test_wrap(self):
        assert wrap_angle(math.pi) == math.pi
        assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert Waypoint(0, 0, 2 * math.pi).psi == pytest.approx(0.0)

    def test_inverse(self, rng):
        for _ in range(50):
            w = rand_waypoint(rng)
            ident = compose(w, w.inverse())
            assert abs(ident.x) < 1e-9 and abs(ident.y) < 1e-9 and abs(ident.psi) < 1e-9


class TestCompose:
    def test_identity(self, rng):
        w = rand_waypoint(rng)
        out = compose(Waypoint.identity(), w)
        assert (out.x, out.y, out.psi) == pytest.approx((w.x, w.y, w.psi))

    def test_pure_translation(self):
        out = compose(Waypoint(1, 0, 0), Waypoint(1, 0, 0))
        assert (out.x, out.y, out.psi) == pytest.approx((2.0, 0.0, 0.0))

    def test_rotation_then_translation(self):
        # hand matrix product: translate (1,0), yaw 90°, then advance (1,0) -> (1,1)
        out = compose(Waypoint(1, 0, math.pi / 2), Waypoint(1, 0, 0))
        assert (out.x, out.y, out.psi) == pytest.approx((1.0, 1.0, math.pi / 2))

    def test_associativity(self, rng):
        for _ in range(50):
            a, b, c = (rand_waypoint(rng) for _ in range(3))
            lhs = compose(compose(a, b), c)
            rhs = compose(a, compose(b, c))
            assert (lhs.x, lhs.y) == pytest.approx((rhs.x, rhs.y), abs=1e-9)
            assert wrap_angle(lhs.psi - rhs.psi) == pytest.approx(0.0, abs=1e-9)


class TestApplyFlow:
    def test_zero_flow_identity(self, rng):
        scene = random_scene(rng, 6)
        out = apply_flow(scene, np.zeros((6, 3)))
        assert np.array_equal(out.means, scene.means)

    def test_uniform_shift(self, rng):
        scene = random_scene(rng, 6)
        flow = np.tile([1.0, 0.0, 0.0], (6, 1))
        out = apply_flow(scene, flow)
        assert np.allclose(out.means, scene.means + [1, 0, 0])
        assert np.array_equal(out.log_scales, scene.log_scales)
        assert np.array_equal(out.rotations, scene.rotations)
        assert np.array_equal(out.logits, scene.logits)

    def test_dynamic_mask(self):
        # classes: 0 static, 1 = car (dynamic); only the car gaussian moves
        means = [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
        logits = [(2.0, 0.0), (0.0, 2.0), (2.0, 0.0)]
        scene = GaussianScene(means, np.zeros((3, 3)), np.tile([1.0, 0, 0, 0], (3, 1)), logits, ("ground", "car"))
        cfg = ClassConfig(2, dynamic_class_ids={1})
        flow = np.tile([0.5, 0.5, 0.0], (3, 1))
        out = apply_flow(scene, flow, cfg)
        assert np.allclose(out.means[0], scene.means[0])
        assert np.allclose(out.means[1], scene.means[1] + [0.5, 0.5, 0.0])
        assert np.allclose(out.means[2], scene.means[2])

    def test_empty_dynamic_set_moves_every_gaussian(self, rng):
        scene = random_scene(rng, 4)
        flow = rng.normal(size=(4, 3))
        out = apply_flow(scene, flow, ClassConfig(3))
        assert np.array_equal(out.means, scene.means + flow)

    def test_length_mismatch(self, rng):
        scene = random_scene(rng, 4)
        with pytest.raises(ValueError):
            apply_flow(scene, np.zeros((5, 3)))


class TestEgoTransform:
    def test_identity(self, rng):
        scene = random_scene(rng, 5)
        out = ego_transform(scene, Waypoint.identity())
        assert np.array_equal(out.means, scene.means)
        assert np.allclose(out.rotations, scene.rotations, atol=1e-15)

    def test_forward_translation(self, rng):
        scene = random_scene(rng, 1).with_arrays(means=np.array([[2.0, 0.0, 0.0]]))
        out = ego_transform(scene, Waypoint(1, 0, 0))
        assert np.allclose(out.means[0], [1.0, 0.0, 0.0])

    def test_quarter_turn(self, rng):
        # R_z(-pi/2): (1,0,0) -> (0,-1,0)
        scene = random_scene(rng, 1).with_arrays(means=np.array([[1.0, 0.0, 0.0]]))
        out = ego_transform(scene, Waypoint(0, 0, math.pi / 2))
        assert np.allclose(out.means[0], [0.0, -1.0, 0.0], atol=1e-12)

    def test_composition_invariant(self, rng):
        scene = random_scene(rng, 8)
        for _ in range(20):
            w1, w2 = rand_waypoint(rng), rand_waypoint(rng)
            a = ego_transform(ego_transform(scene, w1), w2)
            b = ego_transform(scene, compose(w1, w2))
            assert np.allclose(a.means, b.means, atol=1e-9)
            # quaternions match up to sign
            dots = np.abs(np.sum(a.rotations * b.rotations, axis=1))
            assert np.allclose(dots, 1.0, atol=1e-9)

    def test_flow_transform_commutation(self, rng):
        # t(flow(s, Δ), w) == flow(t(s, w), R_z(-psi)·Δ)
        scene = random_scene(rng, 8)
        for _ in range(20):
            w = rand_waypoint(rng)
            delta = rng.normal(size=(8, 3))
            lhs = ego_transform(apply_flow(scene, delta), w)
            c, s = math.cos(-w.psi), math.sin(-w.psi)
            Rz = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
            rhs = apply_flow(ego_transform(scene, w), delta @ Rz.T)
            assert np.allclose(lhs.means, rhs.means, atol=1e-9)

    def test_z_untouched(self, rng):
        scene = random_scene(rng, 4)
        out = ego_transform(scene, Waypoint(3, -2, 1.1))
        assert np.allclose(out.means[:, 2], scene.means[:, 2])


class TestForecast:
    def test_zero_flows_identity_plan(self, rng):
        scene = random_scene(rng, 5)
        plan = Trajectory((Waypoint.identity(),) * 3)
        scenes = forecast(scene, FlowField.zero(3, 5), plan)
        assert len(scenes) == 3
        for k, s in enumerate(scenes):
            assert np.array_equal(s.means, scene.means)
            assert s.timestamp_index == scene.timestamp_index + k + 1

    def test_pure_translation_plan(self, rng):
        scene = random_scene(rng, 5)
        plan = Trajectory((Waypoint(1, 0, 0), Waypoint(2, 0, 0)))
        scenes = forecast(scene, FlowField.zero(2, 5), plan)
        assert np.allclose(scenes[0].means, scene.means - [1, 0, 0])
        assert np.allclose(scenes[1].means, scene.means - [2, 0, 0])

    def test_moving_agent_with_static_ego(self, rng):
        scene = random_scene(rng, 4)
        steps = np.zeros((3, 4, 3))
        for k in range(3):
            steps[k, :, 0] = 2.0 * (k + 1)
        plan = Trajectory((Waypoint.identity(),) * 3)
        scenes = forecast(scene, FlowField(steps), plan)
        for k, s in enumerate(scenes):
            assert np.allclose(s.means[:, 0], scene.means[:, 0] + 2.0 * (k + 1))

    def test_length_mismatch(self, rng):
        scene = random_scene(rng, 4)
        with pytest.raises(ValueError):
            forecast(scene, FlowField.zero(2, 4), Trajectory((Waypoint.identity(),) * 3))


class TestCopyPaste:
    def test_identity(self, rng):
        spec = GridSpec((0, 0, 0), (4, 4, 2), 0.5)
        labels = rng.choice([0, 1, EMPTY], spec.num_voxels).astype(np.uint8)
        grid = OccupancyGrid(spec, labels)
        out = copy_paste_forecast(grid, Waypoint.identity())
        assert np.array_equal(out.labels, grid.labels)

    def test_one_voxel_shift(self):
        # 4x1x1 grid, move one voxel forward: labels shift -x, vacated slab EMPTY
        spec = GridSpec((0, 0, 0), (4, 1, 1), 0.5)
        grid = OccupancyGrid(spec, np.array([0, 1, 2, 3], dtype=np.uint8))
        out = copy_paste_forecast(grid, Waypoint(0.5, 0, 0))
        assert out.labels.tolist() == [1, 2, 3, EMPTY]

    def test_rotation_matches_label_lookup(self, rng):
        spec = GridSpec((-2, -2, 0), (8, 8, 2), 0.5)
        labels = rng.choice([0, 1, EMPTY], spec.num_voxels).astype(np.uint8)
        grid = OccupancyGrid(spec, labels)
        w = Waypoint(0.5, -0.25, 0.6)
        out = copy_paste_forecast(grid, w)
        # oracle: per-voxel inverse transform + nearest lookup
        c, s = math.cos(w.psi), math.sin(w.psi)
        for v in range(0, spec.num_voxels, 11):
            k, j, i = np.unravel_index(v, spec.dims[::-1])
            ctr = np.array(spec.origin) + (np.array([i, j, k]) + 0.5) * spec.voxel_size
            src = np.array([c * ctr[0] - s * ctr[1] + w.x, s * ctr[0] + c * ctr[1] + w.y, ctr[2]])
            ijk = np.floor((src - np.array(spec.origin)) / spec.voxel_size).astype(int)
            if np.all(ijk >= 0) and np.all(ijk < spec.dims):
                assert out.labels[v] == grid.labels[spec.flat_index(*ijk)]
            else:
                assert out.labels[v] == EMPTY
