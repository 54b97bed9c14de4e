import math

import numpy as np
import pytest

from gaussworld.core import ClassConfig, EMPTY, GaussianScene
from gaussworld.flow import FlowField, Trajectory, Waypoint, forecast
from gaussworld.grid import GridSpec, OccupancyGrid, voxel_centers
from gaussworld.io import from_dict
from gaussworld.metrics import CollisionScenario, collision_rate
from gaussworld.plan import (
    PlannerConfig,
    plan,
    sample_candidates,
    score,
    unicycle_rollout,
)
from gaussworld.splat import SplatParams, splat
from gaussworld.synth import gt_flows
from tests.test_acceptance import corridor_with_oncoming_agent, voxel_perfect_scene


class TestUnicycleRollout:
    def test_straight_line(self):
        traj = unicycle_rollout(4.0, 0.0, 3, 0.5)
        assert np.allclose(traj.xy(), [[2, 0], [4, 0], [6, 0]])
        assert all(w.psi == 0.0 for w in traj.waypoints)

    def test_quarter_circle(self):
        # curvature 1, speed pi/2: after 1s the pose is (1, 1, pi/2)
        traj = unicycle_rollout(math.pi / 2, 1.0, 1, 1.0)
        w = traj.waypoints[0]
        assert (w.x, w.y, w.psi) == pytest.approx((1.0, 1.0, math.pi / 2))

    def test_curvature_sign_mirrors_y(self):
        left = unicycle_rollout(3.0, 0.2, 4, 0.5)
        right = unicycle_rollout(3.0, -0.2, 4, 0.5)
        assert np.allclose(left.xy()[:, 0], right.xy()[:, 0])
        assert np.allclose(left.xy()[:, 1], -right.xy()[:, 1])

    def test_constant_arc_length(self):
        traj = unicycle_rollout(5.0, 0.15, 6, 0.5)
        xy = np.vstack([[0, 0], traj.xy()])
        chords = np.linalg.norm(np.diff(xy, axis=0), axis=1)
        # chord of a constant arc: identical every step
        assert np.allclose(chords, chords[0])


class TestSampleCandidates:
    def test_lattice_size(self):
        cfg = PlannerConfig(speeds=(1.0, 2.0), curvatures=(0.0, 0.1, -0.1))
        cands = sample_candidates(cfg)
        assert len(cands) == 6
        assert all(len(c) == cfg.num_steps for c in cands)

    def test_reference_leads(self):
        cfg = PlannerConfig(speeds=(1.0,), curvatures=(0.0,))
        ref = unicycle_rollout(9.0, 0.0, cfg.num_steps, cfg.dt)
        cands = sample_candidates(cfg, ref)
        assert len(cands) == 2
        assert cands[0] is ref

    @pytest.mark.parametrize("dt", [0, -0.5])
    def test_planner_config_dt_must_be_positive(self, dt):
        # "dt": 0 used to give every candidate a NaN comfort cost, and -0.5 rolled every candidate out backwards
        cfg = from_dict(PlannerConfig, {"num_steps": 2, "dt": dt}, "planner config")
        with pytest.raises(ValueError, match="trajectory dt must be finite and positive"):
            sample_candidates(cfg)


def empty_grids(spec, n):
    return [OccupancyGrid.empty(spec) for _ in range(n)]


def grid_with_block(spec, lo, hi, class_id=1):
    labels = np.full(spec.num_voxels, EMPTY, dtype=np.uint8)
    from gaussworld.grid import voxel_centers

    centers = voxel_centers(spec)
    inside = np.all((centers >= lo) & (centers <= hi), axis=1)
    labels[inside] = class_id
    return OccupancyGrid(spec, labels)


class TestScore:
    def setup_method(self):
        self.spec = GridSpec((-8, -4, 0), (32, 16, 4), 0.5)
        self.cfg = PlannerConfig(num_steps=2, speeds=(2.0,), curvatures=(0.0,))

    def test_free_space_costs_comfort_only(self):
        traj = unicycle_rollout(2.0, 0.0, 2, 0.5)
        s = score(traj, empty_grids(self.spec, 2), self.cfg)
        assert s["collision"] == 0.0
        assert s["deviation"] == 0.0
        assert s["total"] == pytest.approx(self.cfg.comfort_weight * s["comfort"])

    def test_block_under_footprint_counts(self):
        # obstacle block at the ego origin of the forecast frame, inside the z slab
        grid = grid_with_block(self.spec, (-0.6, -0.6, 0.2), (0.6, 0.6, 1.0))
        traj = unicycle_rollout(2.0, 0.0, 2, 0.5)
        s = score(traj, [grid, grid], self.cfg)
        assert s["collision"] > 0

    def test_drivable_class_ignored(self):
        grid = grid_with_block(self.spec, (-0.6, -0.6, 0.2), (0.6, 0.6, 1.0), class_id=0)
        cfg = PlannerConfig(num_steps=1, drivable_class_ids=frozenset({0}))
        traj = unicycle_rollout(2.0, 0.0, 1, 0.5)
        assert score(traj, [grid], cfg)["collision"] == 0.0

    def test_z_slab_excludes_ground(self):
        # occupied voxels below the slab (z < 0.2) never count
        grid = grid_with_block(self.spec, (-2, -2, 0.0), (2, 2, 0.15))
        traj = unicycle_rollout(2.0, 0.0, 1, 0.5)
        cfg = PlannerConfig(num_steps=1)
        assert score(traj, [grid], cfg)["collision"] == 0.0

    def test_deviation_measures_reference_distance(self):
        traj = unicycle_rollout(2.0, 0.0, 2, 0.5)
        ref = unicycle_rollout(4.0, 0.0, 2, 0.5)
        s = score(traj, empty_grids(self.spec, 2), self.cfg, reference=ref)
        # offsets 1 and 2 along x -> mean 1.5
        assert s["deviation"] == pytest.approx(1.5)

    def test_grid_count_mismatch(self):
        traj = unicycle_rollout(2.0, 0.0, 2, 0.5)
        with pytest.raises(ValueError):
            score(traj, empty_grids(self.spec, 1), self.cfg)

    def test_grids_of_mixed_specs_name_the_step(self):
        other = GridSpec((-8, -4, 0), (32, 16, 4), 0.25)
        traj = unicycle_rollout(2.0, 0.0, 3, 0.5)
        grids = empty_grids(self.spec, 2) + empty_grids(other, 1)
        with pytest.raises(ValueError, match="step 3"):
            score(traj, grids, PlannerConfig(num_steps=3))


def wall_scene(x, num_classes=2):
    """A dense wall of obstacle gaussians across the corridor at position x."""
    ys = np.arange(-3.0, 3.01, 0.5)
    means = np.stack([np.full_like(ys, x), ys, np.full_like(ys, 0.75)], axis=1)
    logits = np.zeros((len(ys), num_classes))
    logits[:, 1] = 5.0
    return GaussianScene(
        means,
        np.full((len(ys), 3), math.log(0.4)),
        np.tile([1.0, 0, 0, 0], (len(ys), 1)),
        logits,
        tuple(f"c{i}" for i in range(num_classes)),
    )


class TestPlan:
    def test_avoids_wall_ahead(self):
        # wall at x = 5: the fast straight candidate drives into it, slow stays clear
        scene = wall_scene(5.0)
        spec = GridSpec((-4, -4, 0), (32, 16, 4), 0.5)
        cfg = PlannerConfig(num_steps=2, dt=0.5, speeds=(1.0, 6.0), curvatures=(0.0,))
        params = SplatParams(ClassConfig(2))
        flows = FlowField.zero(2, len(scene))
        best, table = plan(scene, flows, spec, cfg, params)
        assert len(table) == 2
        assert table[1]["collision"] > 0  # fast candidate hits the wall
        assert table[0]["collision"] == 0.0
        assert np.allclose(best.xy(), unicycle_rollout(1.0, 0.0, 2, 0.5).xy())

    def test_tie_prefers_first_candidate(self):
        scene = GaussianScene([], [], [], [], ("a", "b"))
        spec = GridSpec((-4, -4, 0), (16, 16, 2), 0.5)
        cfg = PlannerConfig(
            num_steps=1, speeds=(2.0, 2.0), curvatures=(0.0,), comfort_weight=0.0
        )
        flows = FlowField.zero(1, 0)
        best, table = plan(scene, flows, spec, cfg, SplatParams(ClassConfig(2)))
        assert table[0]["total"] == table[1]["total"]
        assert np.allclose(best.xy(), unicycle_rollout(2.0, 0.0, 1, 0.5).xy())

    def test_reference_changes_choice(self):
        # empty world: with a reference, deviation steers the argmin to it
        scene = GaussianScene([], [], [], [], ("a", "b"))
        spec = GridSpec((-4, -4, 0), (16, 16, 2), 0.5)
        cfg = PlannerConfig(
            num_steps=2, speeds=(2.0,), curvatures=(0.0,), comfort_weight=0.0, reference_weight=1.0
        )
        ref = unicycle_rollout(3.0, 0.1, 2, 0.5)
        flows = FlowField.zero(2, 0)
        best, _ = plan(scene, flows, spec, cfg, SplatParams(ClassConfig(2)), reference=ref)
        assert best is ref


class TestPlannerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PlannerConfig(num_steps=0)
        with pytest.raises(ValueError):
            PlannerConfig(footprint_width=0.0)
        with pytest.raises(ValueError):
            PlannerConfig(collision_weight=-1.0)


class TestFromDict:
    def test_json_lists_become_config_values(self):
        doc = {"speeds": [1, 2], "drivable_class_ids": [0], "z_slab": [0.5, 1]}
        cfg = from_dict(PlannerConfig, doc, "planner config")
        assert cfg == PlannerConfig(speeds=(1.0, 2.0), drivable_class_ids=frozenset({0}), z_slab=(0.5, 1.0))
        assert from_dict(PlannerConfig, {}, "planner config") == PlannerConfig()

    def test_unknown_keys_are_named(self):
        with pytest.raises(ValueError, match="'curvature', 'speed'"):
            from_dict(PlannerConfig, {"speed": [1.0], "curvature": [0.0], "dt": 0.5}, "planner config")


@pytest.mark.parametrize("seed, density", enumerate([0.0, 0.002, 0.01, 0.05, 0.2, 0.5]))
def test_planner_and_metric_agree_at_identity_pose(seed, density):
    # plan.score counts non-drivable voxels under the footprint; collision_rate's grid
    # branch asks whether any obstacle voxel is under it. With class 0 drivable and
    # classes 1-2 obstacles, both test the same voxels at the identity pose.
    rng = np.random.default_rng(seed)
    spec = GridSpec((-4.0, -3.0, -0.5), (16, 12, 6), 0.5)
    labels = np.where(rng.uniform(size=spec.num_voxels) < density, rng.integers(0, 3, spec.num_voxels), EMPTY)
    grid = OccupancyGrid(spec, labels.astype(np.uint8))
    cfg = PlannerConfig(num_steps=1, drivable_class_ids=frozenset({0}))
    here = Trajectory((Waypoint.identity(),))
    count = score(here, [grid], cfg)["collision"]
    scenario = CollisionScenario(grids=(grid,), obstacle_class_ids=frozenset({1, 2}))
    rate = collision_rate([here], [scenario], horizons=(1,))
    c = voxel_centers(spec)
    expected = np.count_nonzero(
        np.isin(grid.labels, [1, 2])
        & (np.abs(c[:, 0]) <= 2.3) & (np.abs(c[:, 1]) <= 0.95)
        & (c[:, 2] >= 0.2) & (c[:, 2] <= 2.0)
    )
    assert count == expected
    assert rate == [100.0 if expected else 0.0]


def frozen_plan_table(scene, flows, spec, cfg, params, reference=None):
    """plan()'s cost table as the full-grid loop computed it: forecast, full splat, score."""
    table = []
    for cand in sample_candidates(cfg, reference):
        grids = [splat(s, spec, params)[0] for s in forecast(scene, flows, cand, params.cfg)]
        table.append(score(cand, grids, cfg, reference))
    return table


def _random_planning_problem(seed):
    rng = np.random.default_rng(seed)
    n = 80
    means = np.column_stack([rng.uniform(-2.0, 9.0, n), rng.uniform(-2.5, 2.5, n), rng.uniform(-0.3, 2.3, n)])
    scene = GaussianScene(
        means,
        rng.uniform(np.log(0.1), np.log(0.9), (n, 3)),
        rng.normal(size=(n, 4)),
        rng.normal(size=(n, 3)) * 2.0,
        ("c0", "c1", "c2"),
    )
    steps = np.cumsum(rng.normal(scale=0.4, size=(4, n, 3)) * [1.0, 1.0, 0.1], axis=0)
    spec = GridSpec((-4.0, -3.0, -0.5), (28, 12, 6), 0.5)
    cfg = PlannerConfig(num_steps=4, speeds=(1.0, 3.0), curvatures=(-0.3, 0.0, 0.2), drivable_class_ids=frozenset({0}))
    params = SplatParams(ClassConfig(3, dynamic_class_ids=frozenset({2})))
    return scene, FlowField(steps), spec, cfg, params, unicycle_rollout(2.0, 0.1, 4, 0.5)


@pytest.mark.parametrize("seed", [3, 11])
def test_cost_table_equals_full_grid_loop_on_random_scenes(seed):
    args = _random_planning_problem(seed)
    best, table = plan(*args)
    want = frozen_plan_table(*args)
    assert table == want
    assert any(row["collision"] > 0 for row in want)
    assert best == sample_candidates(args[3], args[5])[min(range(len(want)), key=lambda i: (want[i]["total"], i))]


def test_cost_table_equals_full_grid_loop_on_criterion_7():
    sc = corridor_with_oncoming_agent()
    scene = voxel_perfect_scene(sc.gt_grids[0], sc.num_classes)
    params = SplatParams(ClassConfig(sc.num_classes, dynamic_class_ids=frozenset({2})))
    cfg = PlannerConfig(
        num_steps=6, dt=0.5, speeds=(1.0, 2.0, 4.0), curvatures=(-0.15, 0.0, 0.15), drivable_class_ids=frozenset({0})
    )
    args = (scene, gt_flows(sc, scene), sc.cfg.spec, cfg, params, unicycle_rollout(4.0, 0.0, 6, 0.5))
    _, table = plan(*args)
    want = frozen_plan_table(*args)
    assert table == want
    assert want[0]["collision"] > 0  # the straight reference drives into the oncoming agent
