"""Sparse semantic-Gaussian scene stack: splatting, forecasting, fitting, planning, metrics."""

from .core import (
    EMPTY,
    ClassConfig,
    GaussianScene,
    prune,
    scene_confidences,
)
from .flow import (
    FlowField,
    Trajectory,
    Waypoint,
    apply_flow,
    compose,
    copy_paste_forecast,
    ego_transform,
    forecast,
)
from .fit import FitConfig, OptimizationError, check_gradients, fit_flows, fit_gaussians, init_uniform
from .grid import GridSpec, OccupancyGrid
from .losses import (
    LossWeights,
    SceneDescription,
    detection_discrepancy,
    map_discrepancy,
    motion_discrepancy,
    occupancy_discrepancy,
    perception_loss,
    planning_loss,
    prediction_loss,
    representation_discrepancy,
    trajectory_loss,
)
from .metrics import CollisionScenario, collision_rate, forecast_eval, l2_errors, miou_iou
from .plan import PlannerConfig, plan, sample_candidates, score, unicycle_rollout
from .splat import GaussianGrads, SplatParams, occupancy_loss, occupancy_loss_and_grads, splat
from .synth import AgentSpec, LayoutConfig, ScenarioConfig, generate, gt_flows

__all__ = [
    "EMPTY",
    "ClassConfig",
    "GaussianScene",
    "prune",
    "scene_confidences",
    "FlowField",
    "Trajectory",
    "Waypoint",
    "apply_flow",
    "compose",
    "copy_paste_forecast",
    "ego_transform",
    "forecast",
    "GridSpec",
    "OccupancyGrid",
    "GaussianGrads",
    "SplatParams",
    "occupancy_loss",
    "occupancy_loss_and_grads",
    "splat",
    "FitConfig",
    "OptimizationError",
    "check_gradients",
    "fit_flows",
    "fit_gaussians",
    "init_uniform",
    "LossWeights",
    "SceneDescription",
    "detection_discrepancy",
    "map_discrepancy",
    "motion_discrepancy",
    "occupancy_discrepancy",
    "perception_loss",
    "planning_loss",
    "prediction_loss",
    "representation_discrepancy",
    "trajectory_loss",
    "CollisionScenario",
    "collision_rate",
    "forecast_eval",
    "l2_errors",
    "miou_iou",
    "PlannerConfig",
    "plan",
    "sample_candidates",
    "score",
    "unicycle_rollout",
    "AgentSpec",
    "LayoutConfig",
    "ScenarioConfig",
    "generate",
    "gt_flows",
]

__version__ = "0.1.0"
