import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussworld.boxes import Box, points_in_box
from gaussworld.core import EMPTY, GaussianScene
from gaussworld.flow import Waypoint
from gaussworld.grid import GridSpec, voxel_centers
from gaussworld.synth import (
    AgentSpec,
    LayoutConfig,
    ScenarioConfig,
    config_from_dict,
    generate,
    gt_flows,
    layout_boxes,
    load_scenario,
    map_polylines,
    rasterize_boxes,
    save_scenario,
)
from tests.oracles import rasterize_boxes_full_grid


SPEC = GridSpec((-8.0, -6.0, -0.5), (48, 24, 6), 0.5)


def corridor_cfg(**kw):
    defaults = dict(
        spec=SPEC,
        num_steps=3,
        dt=0.5,
        layout=LayoutConfig(corridor_width=8.0, length=40.0),
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


class TestAgentSpec:
    def test_straight_motion(self):
        a = AgentSpec(class_id=2, x=1.0, y=0.5, speed=2.0)
        assert a.pose_at(0.0) == (1.0, 0.5, 0.0)
        assert a.pose_at(1.5) == pytest.approx((4.0, 0.5, 0.0))

    def test_quarter_turn(self):
        # speed pi/2, turn rate pi/2: after 1s the agent is at (1, 1) facing +y
        a = AgentSpec(class_id=2, x=0.0, y=0.0, speed=math.pi / 2, turn_rate=math.pi / 2)
        x, y, yaw = a.pose_at(1.0)
        assert (x, y, yaw) == pytest.approx((1.0, 1.0, math.pi / 2))

    def test_box_center_height(self):
        a = AgentSpec(class_id=2, x=3.0, y=0.0, size=(4.0, 2.0, 1.6))
        b = a.box_at(0.0)
        assert b.center == pytest.approx((3.0, 0.0, 0.8))
        assert b.class_id == 2


class TestLayout:
    def test_corridor_boxes(self):
        layout = LayoutConfig(corridor_width=8.0, wall_thickness=0.5, length=40.0)
        ground, left, right = layout_boxes(layout)
        assert ground.class_id == layout.drivable_class_id
        assert left.class_id == right.class_id == layout.wall_class_id
        assert left.center[1] == pytest.approx(4.25)
        assert right.center[1] == pytest.approx(-4.25)
        assert layout_boxes(None) == []

    def test_map_polylines_categories(self):
        lines = map_polylines(LayoutConfig(corridor_width=8.0, length=40.0))
        cats = [c for c, _ in lines]
        assert cats == ["boundary", "boundary", "divider"]
        ys = sorted(pts[0, 1] for _, pts in lines)
        assert ys == pytest.approx([-4.0, 0.0, 4.0])
        assert map_polylines(None) == ()


class TestRasterize:
    def test_single_box_labels_inside_only(self):
        box = Box((0.25, 0.25, 0.25), (1.0, 1.0, 1.0), 0.0, 3)
        spec = GridSpec((-2, -2, -2), (8, 8, 8), 0.5)
        grid = rasterize_boxes([box], spec)
        centers = voxel_centers(spec)
        inside = points_in_box(centers, box)
        assert np.array_equal(grid.labels != EMPTY, inside)
        assert np.all(grid.labels[inside] == 3)

    def test_later_box_wins(self):
        spec = GridSpec((0, 0, 0), (2, 2, 2), 1.0)
        big = Box((1.0, 1.0, 1.0), (2.0, 2.0, 2.0), 0.0, 0)
        small = Box((0.5, 0.5, 0.5), (1.0, 1.0, 1.0), 0.0, 1)
        grid = rasterize_boxes([big, small], spec)
        assert grid.labels[spec.flat_index(0, 0, 0)] == 1
        assert grid.labels[spec.flat_index(1, 1, 1)] == 0

    def test_rotated_box(self):
        # 45°-rotated long box: its tip reaches voxels an axis-aligned one would not
        spec = GridSpec((-2, -2, 0), (8, 8, 1), 0.5)
        box = Box((0.0, 0.0, 0.25), (4.0, 0.6, 0.5), math.pi / 4, 1)
        grid = rasterize_boxes([box], spec)
        tip = voxel_centers(spec)[spec.flat_index(6, 6, 0)]  # ~ (1.25, 1.25): on the diagonal
        assert points_in_box(tip[None, :], box)[0]
        assert grid.labels[spec.flat_index(6, 6, 0)] == 1
        assert grid.labels[spec.flat_index(6, 1, 0)] == EMPTY  # off-diagonal at the same radius


class TestGenerate:
    def test_shapes_and_classes(self):
        agent = AgentSpec(class_id=2, x=6.0, y=0.0, speed=2.0)
        sc = generate(corridor_cfg(agents=(agent,), ego_speed=2.0))
        assert len(sc.gt_grids) == 4
        assert len(sc.gt_boxes) == 4
        assert sc.num_classes == 3
        assert all(g.num_classes == 3 for g in sc.gt_grids)
        assert len(sc.gt_ego) == 3

    def test_static_world_stationary_ego_grids_identical(self):
        sc = generate(corridor_cfg())
        for g in sc.gt_grids[1:]:
            assert np.array_equal(g.labels, sc.gt_grids[0].labels)

    def test_agent_advances_in_observation_frame(self):
        agent = AgentSpec(class_id=2, x=4.0, y=0.0, speed=2.0)
        sc = generate(corridor_cfg(agents=(agent,)))
        xs = [boxes[0].center[0] for boxes in sc.gt_boxes]
        assert xs == pytest.approx([4.0, 5.0, 6.0, 7.0])

    def test_moving_ego_shifts_grid(self):
        # ego advances 1 m/step; in the ego frame the wall ahead comes closer,
        # equivalently the whole grid content shifts by -x each step
        sc_static = generate(corridor_cfg())
        sc_moving = generate(corridor_cfg(ego_speed=2.0))
        g0 = sc_static.gt_grids[0]
        g1 = sc_moving.gt_grids[1]
        # compare a probe voxel against the static grid one metre ahead
        ijk = (20, 12, 2)
        probe = voxel_centers(SPEC)[SPEC.flat_index(*ijk)]
        shifted = probe + np.array([1.0, 0.0, 0.0])
        src = np.floor((shifted - np.array(SPEC.origin)) / SPEC.voxel_size).astype(int)
        assert g1.labels[SPEC.flat_index(*ijk)] == g0.labels[SPEC.flat_index(*src)]

    def test_deterministic(self):
        cfg = corridor_cfg(agents=(AgentSpec(class_id=2, x=6.0, y=1.0, speed=1.0),))
        a, b = generate(cfg), generate(cfg)
        for ga, gb in zip(a.gt_grids, b.gt_grids):
            assert np.array_equal(ga.labels, gb.labels)

    def test_agent_motions_align_with_boxes(self):
        agent = AgentSpec(class_id=2, x=4.0, y=0.0, speed=2.0)
        sc = generate(corridor_cfg(agents=(agent,)))
        motions = sc.agent_motions()
        assert len(motions) == 1
        assert motions[0] == pytest.approx(
            np.array([[5.0, 0.0], [6.0, 0.0], [7.0, 0.0]])
        )


class TestConfigRoundTrip:
    def test_dict_round_trip(self):
        cfg = corridor_cfg(
            agents=(AgentSpec(class_id=2, x=6.0, y=-1.0, yaw=0.2, speed=1.5, turn_rate=0.1),),
            ego_speed=3.0,
            ego_curvature=0.05,
            seed=11,
        )
        back = config_from_dict(asdict(cfg))
        assert back == cfg

    def test_missing_key_raises(self):
        with pytest.raises(ValueError):
            config_from_dict({"num_steps": 3})

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda d: [d], "JSON object"),
            (lambda d: {**d, "spec": 5}, "grid spec"),
            (lambda d: {**d, "agents": [5]}, "agent"),
            (lambda d: {**d, "agents": 5}, "agents"),
            (lambda d: {**d, "agent": []}, "unknown scenario config keys"),
            (lambda d: {**d, "layout": {**d["layout"], "width": 8.0}}, "unknown layout keys"),
            (lambda d: {**d, "agents": [{**d["agents"][0], "heading": 0.0}]}, "unknown agent keys"),
            (lambda d: {k: v for k, v in d.items() if k != "spec"}, "spec"),
            (lambda d: {**d, "spec": {**d["spec"], "dims": [48, 24.5, 6]}}, "dims"),
            # class ids become uint8 labels: 255 is EMPTY, and 300 or -1 do not fit
            (lambda d: {**d, "agents": [{**d["agents"][0], "class_id": 255}]}, r"agents\[0\]\.class_id"),
            (lambda d: {**d, "agents": [{**d["agents"][0], "class_id": 300}]}, r"agents\[0\]\.class_id"),
            (lambda d: {**d, "agents": [{**d["agents"][0], "class_id": -1}]}, r"agents\[0\]\.class_id"),
            (lambda d: {**d, "layout": {**d["layout"], "drivable_class_id": 255}}, "layout.drivable_class_id"),
            (lambda d: {**d, "layout": {**d["layout"], "wall_class_id": -1}}, "layout.wall_class_id"),
            (lambda d: {**d, "num_classes": 256}, "num_classes"),
            (lambda d: {**d, "num_classes": -1}, "num_classes"),
        ],
    )
    def test_malformed_configs_raise_value_error(self, edit, match):
        cfg = corridor_cfg(agents=(AgentSpec(class_id=2, x=6.0, y=-1.0),))
        doc = json.loads(json.dumps(asdict(cfg)))
        with pytest.raises(ValueError, match=match):
            config_from_dict(edit(doc))


class TestScenarioIO:
    def test_save_load_round_trip(self, tmp_path):
        cfg = corridor_cfg(agents=(AgentSpec(class_id=2, x=6.0, y=0.5, speed=2.0),), ego_speed=2.0)
        sc = generate(cfg)
        save_scenario(tmp_path / "bundle", sc)
        back = load_scenario(tmp_path / "bundle")
        assert back.cfg == cfg
        assert back.num_classes == sc.num_classes
        for ga, gb in zip(sc.gt_grids, back.gt_grids):
            assert np.array_equal(ga.labels, gb.labels)
        assert back.gt_boxes == sc.gt_boxes
        assert [w.x for w in back.gt_ego.waypoints] == [w.x for w in sc.gt_ego.waypoints]
        for (ca, pa), (cb, pb) in zip(sc.gt_map, back.gt_map):
            assert ca == cb and np.array_equal(pa, pb)

    # a key alone is deleted from the bundle; a (key, value) pair replaces the key's value
    @pytest.mark.parametrize(
        "key",
        [None, "config", "boxes", "map", "ego", ("ego", [[1]]), ("ego", 5), ("map", [5]), ("boxes", [5])],
        ids=lambda k: f"{k[0]}={json.dumps(k[1])}" if isinstance(k, tuple) else None,
    )
    def test_malformed_bundle_raises_value_error(self, tmp_path, key):
        save_scenario(tmp_path / "bundle", generate(corridor_cfg()))
        path = tmp_path / "bundle" / "scenario.json"
        doc = json.loads(path.read_text())
        if key is None:
            doc, match = [1], "JSON object"
        elif isinstance(key, tuple):
            doc[key[0]] = key[1]
            match = f"malformed {key[0]!r}"
        else:
            del doc[key]
            match = repr(key)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=match):
            load_scenario(tmp_path / "bundle")

    def test_non_finite_box_center_is_refused(self, tmp_path):
        # a NaN centre fails every separating-axis test, so collision_rate counted every plan as colliding
        save_scenario(tmp_path / "bundle", generate(corridor_cfg(agents=(AgentSpec(class_id=2, x=6.0, y=0.5),))))
        path = tmp_path / "bundle" / "scenario.json"
        doc = json.loads(path.read_text())
        doc["boxes"][0][0]["center"] = [math.nan, 0.0, 0.5]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="malformed 'boxes'.*box center must be finite"):
            load_scenario(tmp_path / "bundle")

    def test_infinite_ego_yaw_is_refused(self, tmp_path):
        # it used to load as psi=nan
        save_scenario(tmp_path / "bundle", generate(corridor_cfg()))
        path = tmp_path / "bundle" / "scenario.json"
        doc = json.loads(path.read_text())
        doc["ego"][0][2] = math.inf
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="malformed 'ego'.*waypoint psi must be finite"):
            load_scenario(tmp_path / "bundle")


class TestGtFlows:
    def make_scene(self, means, class_ids, num_classes=3):
        n = len(means)
        logits = np.zeros((n, num_classes))
        for i, c in enumerate(class_ids):
            logits[i, c] = 5.0
        return GaussianScene(
            np.asarray(means, dtype=float),
            np.full((n, 3), math.log(0.3)),
            np.tile([1.0, 0, 0, 0], (n, 1)),
            logits,
            tuple(f"c{i}" for i in range(num_classes)),
        )

    def test_rigid_translation(self):
        agent = AgentSpec(class_id=2, x=4.0, y=0.0, speed=2.0)
        sc = generate(corridor_cfg(agents=(agent,)))
        scene = self.make_scene([[4.0, 0.0, 0.8], [4.5, 0.5, 0.8], [0.0, 0.0, -0.2]], [2, 2, 0])
        flows = gt_flows(sc, scene)
        assert flows.steps.shape == (3, 3, 3)
        for k in range(3):
            assert np.allclose(flows.steps[k, 0], [(k + 1) * 1.0, 0.0, 0.0])
            assert np.allclose(flows.steps[k, 1], [(k + 1) * 1.0, 0.0, 0.0])
            assert np.allclose(flows.steps[k, 2], 0.0)  # static ground gaussian

    def test_class_must_match(self):
        # a gaussian inside the agent box but voting another class stays static
        agent = AgentSpec(class_id=2, x=4.0, y=0.0, speed=2.0)
        sc = generate(corridor_cfg(agents=(agent,)))
        scene = self.make_scene([[4.0, 0.0, 0.8]], [1])
        assert np.all(gt_flows(sc, scene).steps == 0.0)

    def test_turning_agent_rotates_offsets(self):
        # quarter-turn agent: a gaussian at the front of the box sweeps with it
        w = math.pi / 2  # rad/s; over 3 steps of 0.5 s -> 3/4 of a quarter turn... per-step 45°
        agent = AgentSpec(class_id=2, x=0.0, y=0.0, speed=math.pi / 2, turn_rate=w)
        sc = generate(corridor_cfg(agents=(agent,)))
        scene = self.make_scene([[1.0, 0.0, 0.8]], [2])
        flows = gt_flows(sc, scene)
        # oracle from the closed-form pose: local offset (1, 0) in the agent frame
        for k in range(3):
            t = (k + 1) * 0.5
            x, y, yaw = agent.pose_at(t)
            px = x + math.cos(yaw) * 1.0
            py = y + math.sin(yaw) * 1.0
            assert np.allclose(flows.steps[k, 0], [px - 1.0, py - 0.0, 0.0], atol=1e-12)

    def test_empty_scene(self):
        sc = generate(corridor_cfg())
        scene = GaussianScene([], [], [], [], ("a", "b", "c"))
        assert gt_flows(sc, scene).steps.shape == (3, 0, 3)


BOXES = st.builds(
    Box,
    st.tuples(st.floats(-20.0, 20.0), st.floats(-12.0, 12.0), st.floats(-2.0, 3.0)),
    st.tuples(st.floats(0.05, 30.0), st.floats(0.05, 10.0), st.floats(0.05, 4.0)),
    st.one_of(st.just(0.0), st.floats(-4.0, 4.0)),
    st.integers(0, 4),
)


@given(st.lists(BOXES, max_size=6))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_rasterize_boxes_matches_full_grid_oracle(boxes):
    """Overlapping, rotated, thin and off-grid boxes label the same voxels as the all-centres test; later boxes win."""
    assert np.array_equal(rasterize_boxes(boxes, SPEC).labels, rasterize_boxes_full_grid(boxes, SPEC).labels)


def test_generated_grids_match_full_grid_oracle():
    cfg = corridor_cfg(
        agents=(AgentSpec(2, 3.0, 1.0, yaw=0.4, speed=2.0, turn_rate=0.3), AgentSpec(3, -2.0, -1.5, yaw=2.5, speed=1.0)),
        ego_speed=3.0,
        ego_curvature=0.2,
    )
    sc = generate(cfg)
    for k, grid in enumerate(sc.gt_grids):
        ego = Waypoint.identity() if k == 0 else sc.gt_ego.waypoints[k - 1]
        boxes = [b.transformed(ego) for b in layout_boxes(cfg.layout) + list(sc.gt_boxes[k])]
        assert np.array_equal(grid.labels, rasterize_boxes_full_grid(boxes, cfg.spec).labels)
