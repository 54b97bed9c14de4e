"""The planar-pose helpers in gaussworld.flow against frozen copies of the formulas they replaced.

unicycle_rollout, AgentSpec.pose_at, Box.transformed and the agent-frame loop
of gt_flows each used to do their own trigonometry. The oracles below are
those implementations, frozen: the shared helpers must agree with them to
rounding (positions), modulo 2π (yaw) or bit for bit (box transforms).
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaussworld.boxes import Box
from gaussworld.core import GaussianScene
from gaussworld.flow import Waypoint, wrap_angle
from gaussworld.grid import GridSpec
from gaussworld.plan import unicycle_rollout
from gaussworld.synth import AgentSpec, Scenario, ScenarioConfig, gt_flows

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)
speeds = st.floats(0.0, 8.0)
# exactly straight, or a turn of at least 0.01 rad/s either way
turn_rates = st.one_of(st.just(0.0), st.floats(0.01, 1.0), st.floats(-1.0, -0.01))
yaws = st.floats(-7.0, 7.0)
times = st.floats(0.0, 3.0)
coords = st.floats(-50.0, 50.0)


def _oracle_unicycle_rollout(speed, curvature, num_steps, dt):
    poses = []
    for k in range(1, num_steps + 1):
        t = k * dt
        if curvature == 0.0:
            poses.append((speed * t, 0.0, 0.0))
        else:
            psi = speed * curvature * t
            poses.append((math.sin(psi) / curvature, (1.0 - math.cos(psi)) / curvature, psi))
    return poses


def _oracle_pose_at(a: AgentSpec, t):
    if a.turn_rate == 0.0:
        return (a.x + a.speed * t * math.cos(a.yaw), a.y + a.speed * t * math.sin(a.yaw), a.yaw)
    dpsi = a.turn_rate * t
    r = a.speed / a.turn_rate
    dx = r * math.sin(dpsi)
    dy = r * (1.0 - math.cos(dpsi))
    c, s = math.cos(a.yaw), math.sin(a.yaw)
    return (a.x + c * dx - s * dy, a.y + s * dx + c * dy, a.yaw + dpsi)


def _oracle_transformed(box: Box, x, y, psi):
    c, s = math.cos(-psi), math.sin(-psi)
    cx = box.center[0] - x
    cy = box.center[1] - y
    return (c * cx - s * cy, s * cx + c * cy, box.center[2]), box.yaw - psi


def _oracle_agent_flows(a: AgentSpec, means, num_steps, dt):
    """The gt_flows loop for one agent whose box holds every mean."""
    steps = np.zeros((num_steps, len(means), 3))
    x0, y0, yaw0 = _oracle_pose_at(a, 0.0)
    c0, s0 = math.cos(yaw0), math.sin(yaw0)
    dx = means[:, 0] - x0
    dy = means[:, 1] - y0
    lx = c0 * dx + s0 * dy
    ly = -s0 * dx + c0 * dy
    for k in range(1, num_steps + 1):
        xk, yk, yawk = _oracle_pose_at(a, k * dt)
        ck, sk = math.cos(yawk), math.sin(yawk)
        steps[k - 1, :, 0] = xk + ck * lx - sk * ly - means[:, 0]
        steps[k - 1, :, 1] = yk + sk * lx + ck * ly - means[:, 1]
    return steps


def _assert_same_yaw(got, want):
    assert abs(wrap_angle(got - want)) <= 1e-9


@SETTINGS
@given(speeds, turn_rates, times)
@example(0.0, 0.5, 2.0)  # standing still: a curvature does not turn the ego
def test_rollout_matches_frozen_formula(speed, curvature, t):
    if t / 6 == 0.0:  # a rollout whose time step is zero is refused, as every Trajectory's is
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            unicycle_rollout(speed, curvature, 6, t / 6)
        return
    got = unicycle_rollout(speed, curvature, 6, t / 6)
    for w, (x, y, psi) in zip(got.waypoints, _oracle_unicycle_rollout(speed, curvature, 6, t / 6)):
        assert abs(w.x - x) <= 1e-9 and abs(w.y - y) <= 1e-9
        _assert_same_yaw(w.psi, psi)


@SETTINGS
@given(coords, coords, yaws, speeds, turn_rates, times)
@example(1.0, -2.0, 3.0, 0.0, -0.7, 2.5)  # turning in place
def test_pose_at_matches_frozen_formula(x, y, yaw, speed, turn_rate, t):
    a = AgentSpec(class_id=0, x=x, y=y, yaw=yaw, speed=speed, turn_rate=turn_rate)
    got = a.pose_at(t)
    want = _oracle_pose_at(a, t)
    assert abs(got[0] - want[0]) <= 1e-9 and abs(got[1] - want[1]) <= 1e-9
    _assert_same_yaw(got[2], want[2])
    assert -math.pi < got[2] <= math.pi


@SETTINGS
@given(coords, coords, st.floats(-2.0, 2.0), yaws, coords, coords, yaws)
def test_box_transformed_is_bit_equal_to_frozen_formula(cx, cy, cz, box_yaw, x, y, psi):
    box = Box((cx, cy, cz), (4.0, 2.0, 1.6), box_yaw, 1)
    pose = Waypoint(x, y, psi)
    center, yaw = _oracle_transformed(box, pose.x, pose.y, pose.psi)
    got = box.transformed(pose)
    assert got.center == center and got.yaw == yaw
    assert (got.size, got.class_id) == (box.size, box.class_id)


@SETTINGS
@given(coords, coords, yaws, speeds, turn_rates, times)
@example(0.0, 0.0, 6.5, 0.0, 1.0, 3.0)  # turning in place, yaw past 2π
def test_gt_flows_matches_frozen_loop(x, y, yaw, speed, turn_rate, t):
    a = AgentSpec(class_id=1, x=x, y=y, yaw=yaw, speed=speed, turn_rate=turn_rate)
    num_steps, dt = 4, t / 4
    # Gaussians at fixed offsets in the agent's step-0 frame, all inside its 4 m x 2 m box
    local = np.array([[0.0, 0.0], [1.5, 0.5], [-1.8, -0.9], [0.3, 0.8]])
    c, s = math.cos(yaw), math.sin(yaw)
    means = np.column_stack(
        [x + c * local[:, 0] - s * local[:, 1], y + s * local[:, 0] + c * local[:, 1], np.full(4, 0.8)]
    )
    logits = np.tile([0.0, 5.0], (4, 1))
    scene = GaussianScene(means, np.zeros((4, 3)), np.tile([1.0, 0, 0, 0], (4, 1)), logits, ("a", "b"))
    cfg = ScenarioConfig(spec=GridSpec((0, 0, 0), (1, 1, 1), 1.0), num_steps=num_steps, dt=dt, agents=(a,))
    scenario = Scenario(cfg=cfg, gt_grids=(), gt_boxes=(), gt_map=(), gt_ego=None, num_classes=2)
    got = gt_flows(scenario, scene).steps
    assert np.max(np.abs(got - _oracle_agent_flows(a, means, num_steps, dt))) <= 1e-12


@SETTINGS
@given(coords, coords, yaws, coords, coords)
def test_to_local_inverts_to_parent(px, py, psi, x, y):
    pose = Waypoint(px, py, psi)
    lx, ly = pose.to_local(*pose.to_parent(x, y))
    assert abs(lx - x) <= 1e-12 and abs(ly - y) <= 1e-12


def test_arc_quarter_turn():
    # speed π/2, turn rate π/2: after 1 s the pose is (1, 1) facing +y
    w = Waypoint.arc(math.pi / 2, math.pi / 2, 1.0)
    assert abs(w.x - 1.0) < 1e-12 and abs(w.y - 1.0) < 1e-12 and w.psi == math.pi / 2


def _trig_calls(path):
    for node in ast.walk(ast.parse(path.read_text())):
        func = getattr(node, "func", None)
        if (
            isinstance(node, ast.Call)
            and isinstance(func, ast.Attribute)
            and func.attr in ("cos", "sin")
            and isinstance(func.value, ast.Name)
            and func.value.id in ("math", "np")
        ):
            yield f"{path.name}:{node.lineno} {func.value.id}.{func.attr}"


def test_only_flow_does_planar_trigonometry():
    """The frame convention lives in gaussworld.flow; other modules call rotate2d and Waypoint."""
    src = Path(__file__).resolve().parents[1] / "src" / "gaussworld"
    calls = [c for path in sorted(src.glob("*.py")) if path.name != "flow.py" for c in _trig_calls(path)]
    assert calls == []
