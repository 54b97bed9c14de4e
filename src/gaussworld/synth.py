"""Deterministic synthetic driving scenarios: corridor layout, moving agents, ego motion.

Everything is generated in closed form from a config, so scenarios double as
analytic ground truth: per-step ego-frame occupancy, agent boxes, map
polylines, the ego trajectory, and rigid-motion Gaussian flows for any scene
fitted at the first step.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import io as gio
from .boxes import Box, points_in_box, rect_corners
from .core import EMPTY, MAX_CLASSES, GaussianScene
from .flow import FlowField, Trajectory, Waypoint, compose
from .grid import GridSpec, OccupancyGrid, box_indices, index_box, voxel_centers
from .plan import unicycle_rollout

GT_FLOW_MARGIN = 0.5  # metres a Gaussian's mean may lie outside an agent's box and still follow it


@dataclass(frozen=True)
class AgentSpec:
    """One moving agent: initial planar pose, box size, constant speed / turn rate."""

    class_id: int
    x: float
    y: float
    yaw: float = 0.0
    size: tuple = (4.0, 2.0, 1.6)
    speed: float = 0.0
    turn_rate: float = 0.0  # rad/s

    def __post_init__(self):
        object.__setattr__(self, "size", tuple(self.size))

    def pose_at(self, t):
        """Closed-form unicycle pose (x, y, yaw) after time t; yaw is wrapped to (-pi, pi]."""
        pose = compose(Waypoint(self.x, self.y, self.yaw), Waypoint.arc(self.speed, self.turn_rate, t))
        return pose.x, pose.y, pose.psi

    def box_at(self, t):
        x, y, yaw = self.pose_at(t)
        return Box((x, y, self.size[2] / 2.0), self.size, yaw, self.class_id)


@dataclass(frozen=True)
class LayoutConfig:
    """Static corridor along +x: drivable ground slab between two walls."""

    corridor_width: float = 8.0
    wall_thickness: float = 0.5
    wall_height: float = 2.0
    ground_thickness: float = 0.4
    drivable_class_id: int = 0
    wall_class_id: int = 1
    length: float = 100.0


@dataclass(frozen=True)
class ScenarioConfig:
    spec: GridSpec
    num_steps: int = 6
    dt: float = 0.5
    seed: int = 0
    layout: LayoutConfig = None
    agents: tuple = ()
    ego_speed: float = 0.0
    ego_curvature: float = 0.0
    num_classes: int = 0  # 0: inferred from layout/agent class ids

    def __post_init__(self):
        if self.num_steps < 1:
            raise ValueError("num_steps must be >= 1")
        object.__setattr__(self, "agents", tuple(self.agents))
        # class ids become uint8 labels, in which EMPTY (255) is not a class
        ids = {f"agents[{i}].class_id": a.class_id for i, a in enumerate(self.agents)}
        if self.layout is not None:
            ids |= {f"layout.{k}": getattr(self.layout, k) for k in ("drivable_class_id", "wall_class_id")}
        for name, v in ids.items():
            if not 0 <= v < MAX_CLASSES:
                raise ValueError(f"{name} must lie in 0..{MAX_CLASSES - 1}, not {v}")
        if not 0 <= self.num_classes <= MAX_CLASSES:
            raise ValueError(f"num_classes must lie in 0..{MAX_CLASSES}, not {self.num_classes}")

    def inferred_num_classes(self):
        if self.num_classes:
            return self.num_classes
        ids = [a.class_id for a in self.agents]
        if self.layout is not None:
            ids += [self.layout.drivable_class_id, self.layout.wall_class_id]
        return (max(ids) + 1) if ids else 1


def layout_boxes(layout: LayoutConfig):
    """Static layout as boxes in the observation frame (drivable first, walls after)."""
    if layout is None:
        return []
    half_w = layout.corridor_width / 2.0
    ground = Box(
        (0.0, 0.0, -layout.ground_thickness / 2.0),
        (layout.length, layout.corridor_width, layout.ground_thickness),
        0.0,
        layout.drivable_class_id,
    )
    wall_y = half_w + layout.wall_thickness / 2.0
    size = (layout.length, layout.wall_thickness, layout.wall_height)
    left = Box((0.0, wall_y, layout.wall_height / 2.0), size, 0.0, layout.wall_class_id)
    right = Box((0.0, -wall_y, layout.wall_height / 2.0), size, 0.0, layout.wall_class_id)
    return [ground, left, right]


def rasterize_boxes(boxes, spec: GridSpec):
    """Label voxels whose centers fall inside each oriented box; later boxes win.

    Each box is tested only against the voxels in the padded index box of its bounding box.
    """
    labels = np.full(spec.num_voxels, EMPTY, dtype=np.uint8)
    for box in boxes:
        (cx, cy, cz), hz = box.center, box.size[2] / 2.0
        xs, ys = rect_corners(cx, cy, box.yaw, box.size[0], box.size[1])
        ijk = box_indices(*index_box(spec, (xs.min(), ys.min(), cz - hz), (xs.max(), ys.max(), cz + hz)))
        inside = points_in_box(voxel_centers(spec, ijk), box)
        labels[spec.flat_index(*ijk.T)[inside]] = box.class_id
    return OccupancyGrid(spec, labels)


def map_polylines(layout: LayoutConfig):
    """Corridor boundaries and the center divider as map polylines."""
    if layout is None:
        return ()
    half_w = layout.corridor_width / 2.0
    half_l = layout.length / 2.0
    line = lambda y: np.array([[-half_l, y], [half_l, y]])
    return (
        ("boundary", line(half_w)),
        ("boundary", line(-half_w)),
        ("divider", line(0.0)),
    )


@dataclass(frozen=True)
class Scenario:
    """Generated ground truth; grids are expressed in the ego frame of each step."""

    cfg: ScenarioConfig
    gt_grids: tuple  # num_steps + 1 OccupancyGrids
    gt_boxes: tuple  # per step (0..num_steps), agent boxes in the observation frame
    gt_map: tuple
    gt_ego: Trajectory
    num_classes: int

    def agent_motions(self):
        """Per-agent future (x, y) waypoints (observation frame), aligned with gt_boxes[0]."""
        out = []
        for a in self.cfg.agents:
            steps = [a.pose_at(k * self.cfg.dt)[:2] for k in range(1, self.cfg.num_steps + 1)]
            out.append(np.array(steps))
        return tuple(out)


def generate(cfg: ScenarioConfig):
    """Build the scenario deterministically from its config."""
    C = cfg.inferred_num_classes()
    statics = layout_boxes(cfg.layout)
    ego = unicycle_rollout(cfg.ego_speed, cfg.ego_curvature, cfg.num_steps, cfg.dt)
    ego_poses = [Waypoint.identity()] + list(ego.waypoints)

    gt_grids = []
    gt_boxes = []
    for k in range(cfg.num_steps + 1):
        t = k * cfg.dt
        agent_boxes = [a.box_at(t) for a in cfg.agents]
        gt_boxes.append(tuple(agent_boxes))
        pose = ego_poses[k]
        frame_boxes = [b.transformed(pose) for b in statics + agent_boxes]
        grid = rasterize_boxes(frame_boxes, cfg.spec)
        gt_grids.append(OccupancyGrid(cfg.spec, grid.labels, C))

    return Scenario(
        cfg=cfg,
        gt_grids=tuple(gt_grids),
        gt_boxes=tuple(gt_boxes),
        gt_map=map_polylines(cfg.layout),
        gt_ego=ego,
        num_classes=C,
    )


def config_from_dict(doc):
    """Scenario config from a JSON object; every key, nested ones too, is a dataclass field name."""
    if not isinstance(doc, dict):
        raise ValueError(f"scenario config must be a JSON object, not {type(doc).__name__}")
    doc = dict(doc)
    if "spec" in doc:
        doc["spec"] = gio.from_dict(GridSpec, doc["spec"], "grid spec")
    if doc.get("layout") is not None:
        doc["layout"] = gio.from_dict(LayoutConfig, doc["layout"], "layout")
    agents = doc.get("agents", ())
    if not isinstance(agents, (list, tuple)):
        raise ValueError(f"scenario agents must be a list, not {type(agents).__name__}")
    doc["agents"] = tuple(gio.from_dict(AgentSpec, a, "agent") for a in agents)
    return gio.from_dict(ScenarioConfig, doc, "scenario config")


def save_scenario(directory, scenario: Scenario):
    """Write the bundle: scenario.json plus one grid file per step."""
    os.makedirs(directory, exist_ok=True)
    doc = {
        "format": "gauss-scenario",
        "version": 1,
        "config": asdict(scenario.cfg),
        "num_classes": scenario.num_classes,
        "ego": [[w.x, w.y, w.psi] for w in scenario.gt_ego.waypoints],
        "boxes": [[asdict(b) for b in step_boxes] for step_boxes in scenario.gt_boxes],
        "map": [[cat, np.asarray(pts).tolist()] for cat, pts in scenario.gt_map],
    }
    with open(os.path.join(directory, "scenario.json"), "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    for k, grid in enumerate(scenario.gt_grids):
        gio.save_grid(os.path.join(directory, f"grid_{k:03d}.occ"), grid)


def load_scenario(directory):
    with open(os.path.join(directory, "scenario.json")) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError(f"scenario bundle must be a JSON object, not {type(doc).__name__}")
    if doc.get("format") != "gauss-scenario" or doc.get("version") != 1:
        raise ValueError("unsupported scenario bundle")
    missing = [k for k in ("config", "boxes", "map", "ego") if k not in doc]
    if missing:
        raise ValueError(f"scenario bundle has no {missing[0]!r}")
    cfg = config_from_dict(doc["config"])
    grids = tuple(
        gio.load_grid(os.path.join(directory, f"grid_{k:03d}.occ")) for k in range(cfg.num_steps + 1)
    )

    def decode(key, build):
        try:
            return build(doc[key])
        except (TypeError, ValueError) as e:
            raise ValueError(f"scenario bundle has a malformed {key!r}: {e}") from e

    boxes = decode("boxes", lambda v: tuple(tuple(gio.from_dict(Box, b, "box") for b in step) for step in v))
    gt_map = decode("map", lambda v: tuple((cat, np.array(pts)) for cat, pts in v))
    ego = decode("ego", lambda v: Trajectory(tuple(Waypoint(*w) for w in v), cfg.dt))
    return Scenario(
        cfg=cfg,
        gt_grids=grids,
        gt_boxes=boxes,
        gt_map=gt_map,
        gt_ego=ego,
        num_classes=doc.get("num_classes", cfg.inferred_num_classes()),
    )


def gt_flows(scenario: Scenario, scene: GaussianScene):
    """Analytic rigid-motion flows for a scene fitted at step 0.

    A Gaussian follows an agent when its argmax class matches and its mean lies
    inside the agent's step-0 box (inflated by GT_FLOW_MARGIN); everything else gets
    zero displacement. Displacements are cumulative from step 0, observation
    frame.
    """
    cfg = scenario.cfg
    F = cfg.num_steps
    N = len(scene)
    steps = np.zeros((F, N, 3))
    if N == 0:
        return FlowField(steps)
    arg = np.argmax(scene.logits, axis=1)
    for a in cfg.agents:
        sel = (arg == a.class_id) & points_in_box(scene.means, a.box_at(0.0), GT_FLOW_MARGIN)
        if not np.any(sel):
            continue
        # local offset in the agent frame at step 0, carried along with the agent
        lx, ly = Waypoint(*a.pose_at(0.0)).to_local(scene.means[sel, 0], scene.means[sel, 1])
        for k in range(1, F + 1):
            px, py = Waypoint(*a.pose_at(k * cfg.dt)).to_parent(lx, ly)
            steps[k - 1, sel, 0] = px - scene.means[sel, 0]
            steps[k - 1, sel, 1] = py - scene.means[sel, 1]
    return FlowField(steps)
