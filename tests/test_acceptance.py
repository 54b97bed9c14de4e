"""End-to-end acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and prints a
single PASS/FAIL line so the suite doubles as a checklist. Scenario scale is
deliberately small (hundreds of Gaussians, <= 32-cubed grids) so every property
is verifiable on a single workstation.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from gaussworld.cli import main as cli_main
from gaussworld.core import EMPTY, ClassConfig, GaussianScene, prune
from gaussworld.fit import FitConfig, check_gradients, fit_gaussians
from gaussworld.flow import (
    Trajectory,
    Waypoint,
    apply_flow,
    compose,
    copy_paste_forecast,
    ego_transform,
    forecast,
)
from gaussworld.grid import GridSpec, OccupancyGrid, voxel_centers
from gaussworld.losses import (
    LossWeights,
    SceneDescription,
    perception_loss,
    planning_loss,
    prediction_loss,
)
from gaussworld.metrics import CollisionScenario, collision_rate, l2_errors, miou_iou
from gaussworld.plan import PlannerConfig, plan as run_planner, unicycle_rollout
from gaussworld.splat import SplatParams, splat
from gaussworld.synth import AgentSpec, LayoutConfig, ScenarioConfig, generate, gt_flows
from tests.conftest import random_scene


def report(name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{name}{suffix}"


def voxel_perfect_scene(grid, num_classes):
    """One tight Gaussian per occupied voxel; splats back to the grid exactly."""
    centers = voxel_centers(grid.spec)
    occ = grid.labels != EMPTY
    means = centers[occ]
    labels = grid.labels[occ]
    n = len(means)
    logits = np.zeros((n, num_classes))
    logits[np.arange(n), labels] = 6.0
    return GaussianScene(
        means,
        np.full((n, 3), math.log(0.12)),
        np.tile([1.0, 0, 0, 0], (n, 1)),
        logits,
        tuple(f"class_{c}" for c in range(num_classes)),
    )


def moving_agent_scenario():
    """Corridor with one rigid agent advancing 1 m (two voxels) per step, ego static."""
    spec = GridSpec((-8.0, -6.0, -0.5), (48, 24, 6), 0.5)
    agent = AgentSpec(class_id=2, x=4.0, y=0.0, speed=2.0)
    cfg = ScenarioConfig(
        spec=spec,
        num_steps=6,
        dt=0.5,
        layout=LayoutConfig(corridor_width=8.0, length=30.0),
        agents=(agent,),
    )
    return generate(cfg)


def test_criterion_1_gradient_correctness():
    """Analytic gradients match finite differences on >= 100 random scenes."""
    t0 = time.time()
    rng = np.random.default_rng(42)
    worst = 0.0
    excluded = checked = 0
    spec = GridSpec((0, 0, 0), (8, 8, 8), 0.5)
    for _ in range(100):
        n = int(rng.integers(1, 13))
        scene = random_scene(rng, n, lo=0.5, hi=3.5)
        labels = rng.choice([0, 1, 2, EMPTY], spec.num_voxels).astype(np.uint8)
        rep = check_gradients(
            scene,
            OccupancyGrid(spec, labels),
            SplatParams(ClassConfig(3)),
            step=1e-4,
            groups=("mean", "log_scale", "logits"),  # rotations frozen
        )
        worst = max(worst, max(v["max_rel_err"] for v in rep.values()))
        excluded += sum(v["excluded"] for v in rep.values())
        checked += scene.means.size + scene.log_scales.size + scene.logits.size
    elapsed = time.time() - t0
    report(
        "1 gradient-correctness",
        worst < 1e-4 and elapsed < 30.0,
        f"worst rel err {worst:.2e}, {excluded} of {checked} components excluded, {elapsed:.1f}s",
    )


def test_criterion_2_splatting_oracle_equivalence():
    """Sparse indexed splatting equals brute force on 50 random scenes."""
    t0 = time.time()
    rng = np.random.default_rng(7)
    labels_equal = True
    max_field_diff = 0.0
    for _ in range(50):
        n = int(rng.integers(8, 129))
        dim = int(rng.choice([16, 24, 32]))
        spec = GridSpec((0, 0, 0), (dim, dim, dim), 4.0 / dim)
        scene = random_scene(rng, n, lo=0.0, hi=4.0)
        gs, fs = splat(scene, spec, SplatParams(ClassConfig(3), use_index=True))
        gb, fb = splat(scene, spec, SplatParams(ClassConfig(3), use_index=False))
        labels_equal &= bool(np.array_equal(gs.labels, gb.labels))
        max_field_diff = max(max_field_diff, float(np.max(np.abs(fs - fb))))
    elapsed = time.time() - t0
    report(
        "2 splatting-oracle-equivalence",
        labels_equal and max_field_diff < 1e-9 and elapsed < 60.0,
        f"labels exact, field diff {max_field_diff:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_se2_algebra():
    """Composition, identity, and transform-composition invariants within 1e-9."""
    rng = np.random.default_rng(3)
    scene = random_scene(rng, 6)
    worst = 0.0
    for _ in range(1000):
        w1 = Waypoint(*rng.uniform(-10, 10, 2), rng.uniform(-math.pi, math.pi))
        w2 = Waypoint(*rng.uniform(-10, 10, 2), rng.uniform(-math.pi, math.pi))
        # identity and inverse
        ident = compose(w1, w1.inverse())
        worst = max(worst, abs(ident.x), abs(ident.y), abs(ident.psi))
        # transform composition == composed transform
        a = ego_transform(ego_transform(scene, w1), w2)
        b = ego_transform(scene, compose(w1, w2))
        worst = max(worst, float(np.max(np.abs(a.means - b.means))))
        # flow commutes with the transform after rotating the displacement
        delta = rng.normal(size=(6, 3))
        c, s = math.cos(-w1.psi), math.sin(-w1.psi)
        Rz = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
        lhs = ego_transform(apply_flow(scene, delta), w1)
        rhs = apply_flow(ego_transform(scene, w1), delta @ Rz.T)
        worst = max(worst, float(np.max(np.abs(lhs.means - rhs.means))))
    report("3 se2-algebra", worst < 1e-9, f"worst residual {worst:.2e} over 1000 poses")


def test_criterion_4_fitting_convergence():
    """Single-box fit on a 16-cubed grid reaches mIoU >= 0.8 within 500 iterations."""
    t0 = time.time()
    spec = GridSpec((0, 0, 0), (16, 16, 16), 0.25)
    labels = np.full(spec.num_voxels, EMPTY, np.uint8)
    for i in range(4, 12):
        for j in range(4, 12):
            for k in range(4, 12):
                labels[spec.flat_index(i, j, k)] = 1
    target = OccupancyGrid(spec, labels, 2)
    cfg = FitConfig(num_gaussians=64, max_iters=500, seed=0)
    scene, history = fit_gaussians(target, cfg)
    grid, _ = splat(scene, spec, SplatParams(cfg.class_config(2)))
    miou, _, _ = miou_iou(grid, target)
    elapsed = time.time() - t0
    report(
        "4 fitting-convergence",
        miou >= 0.8 and history[-1] <= history[0] and elapsed < 60.0,
        f"mIoU {miou:.3f}, loss {history[0]:.3f}->{history[-1]:.4f}, {elapsed:.1f}s",
    )


def test_criterion_5_forecast_beats_copy_paste():
    """Flow forecast >= copy-paste at 1/2/3 s, strictly better at 3 s, >= 0.9 at 3 s."""
    sc = moving_agent_scenario()
    scene = voxel_perfect_scene(sc.gt_grids[0], sc.num_classes)
    flows = gt_flows(sc, scene)
    params = SplatParams(ClassConfig(sc.num_classes, dynamic_class_ids=frozenset({2})))
    ident_plan = Trajectory((Waypoint.identity(),) * 6)
    scenes = forecast(scene, flows, ident_plan, params.cfg)
    flow_grids = [splat(s, sc.cfg.spec, params)[0] for s in scenes]
    current, _ = splat(scene, sc.cfg.spec, params)
    cp_grids = [copy_paste_forecast(current, w) for w in ident_plan.waypoints]
    flow_m, cp_m = {}, {}
    for h in (2, 4, 6):  # steps at 1/2/3 s with dt = 0.5
        flow_m[h] = miou_iou(flow_grids[h - 1], sc.gt_grids[h])[0]
        cp_m[h] = miou_iou(cp_grids[h - 1], sc.gt_grids[h])[0]
    ok = (
        all(flow_m[h] >= cp_m[h] for h in (2, 4, 6))
        and flow_m[6] > cp_m[6]
        and flow_m[6] >= 0.9
    )
    detail = ", ".join(f"{h // 2}s flow {flow_m[h]:.3f} vs cp {cp_m[h]:.3f}" for h in (2, 4, 6))
    report("5 forecast-beats-copy-paste", ok, detail)


def test_criterion_6_pruning_robustness():
    """Dropping the 40% lowest-confidence Gaussians costs <= 10% relative mIoU."""
    spec = GridSpec((0, 0, 0), (16, 16, 8), 0.5)
    labels = np.full(spec.num_voxels, EMPTY, np.uint8)
    for i in range(5, 11):
        for j in range(5, 11):
            for k in range(2, 6):
                labels[spec.flat_index(i, j, k)] = 1
    target = OccupancyGrid(spec, labels, 2)
    cfg = FitConfig(num_gaussians=125, max_iters=300, seed=0)
    scene, _ = fit_gaussians(target, cfg)
    params = SplatParams(cfg.class_config(2))
    m_full = miou_iou(splat(scene, spec, params)[0], target)[0]
    pruned, _ = prune(scene, 0.40)
    m_pruned = miou_iou(splat(pruned, spec, params)[0], target)[0]
    rel_drop = (m_full - m_pruned) / m_full if m_full > 0 else 1.0
    report(
        "6 pruning-robustness",
        m_full >= 0.8 and rel_drop <= 0.10,
        f"mIoU {m_full:.3f} -> {m_pruned:.3f}, relative drop {100 * rel_drop:.1f}%",
    )


def corridor_with_oncoming_agent():
    spec = GridSpec((-4.0, -6.0, -0.5), (56, 24, 6), 0.5)
    agent = AgentSpec(class_id=2, x=16.0, y=0.0, yaw=math.pi, speed=2.0)
    cfg = ScenarioConfig(
        spec=spec,
        num_steps=6,
        dt=0.5,
        layout=LayoutConfig(corridor_width=8.0, length=60.0),
        agents=(agent,),
    )
    return generate(cfg)


def test_criterion_7_planner_safety():
    """Planner finds a 0%-collision plan while the straight reference collides."""
    sc = corridor_with_oncoming_agent()
    scene = voxel_perfect_scene(sc.gt_grids[0], sc.num_classes)
    flows = gt_flows(sc, scene)
    params = SplatParams(ClassConfig(sc.num_classes, dynamic_class_ids=frozenset({2})))
    pcfg = PlannerConfig(
        num_steps=6,
        dt=0.5,
        speeds=(1.0, 2.0, 4.0),
        curvatures=(-0.15, 0.0, 0.15),
        drivable_class_ids=frozenset({0}),
    )
    reference = unicycle_rollout(4.0, 0.0, 6, 0.5)
    best, _ = run_planner(scene, flows, sc.cfg.spec, pcfg, params, reference)
    scenario = CollisionScenario(boxes_per_step=sc.gt_boxes[1:])
    planner_rates = collision_rate([best], [scenario], horizons=(2, 4, 6))
    reference_rates = collision_rate([reference], [scenario], horizons=(2, 4, 6))
    ok = planner_rates == [0.0, 0.0, 0.0] and reference_rates[1:] == [100.0, 100.0]
    report(
        "7 planner-safety",
        ok,
        f"planner {planner_rates}, reference {reference_rates} at 1/2/3s",
    )


def test_criterion_8_metric_identities():
    """Hand-computed metric identities hold exactly."""
    spec = GridSpec((0, 0, 0), (12, 1, 1), 0.5)
    gt = OccupancyGrid(spec, np.array([0, 0, 1, 1] + [EMPTY] * 8, dtype=np.uint8))
    pr = OccupancyGrid(spec, np.array([0, EMPTY, 1, EMPTY, 0] + [EMPTY] * 7, dtype=np.uint8))
    miou, _, _ = miou_iou(pr, gt)
    ok_miou = miou == pytest.approx(5 / 12, abs=1e-12)

    plan_t = Trajectory(tuple(Waypoint(x, 0.0, 0.0) for x in (1, 2, 3)))
    gt_t = Trajectory((Waypoint(1, 0.3, 0), Waypoint(2, 0.5, 0), Waypoint(3, 0.7, 0)))
    ok_l2 = l2_errors(plan_t, gt_t, (1, 2, 3), "averaged") == pytest.approx([0.3, 0.4, 0.5])

    box = lambda x, y: __import__("gaussworld.boxes", fromlist=["Box"]).Box(
        (x, y, 0.8), (4.0, 2.0, 1.6), 0.0, 2
    )
    scenario = CollisionScenario(
        boxes_per_step=((box(20.0, 0.0),), (box(6.0, 0.0),), (box(6.0, 0.0),))
    )
    hit = Trajectory((Waypoint(2, 0, 0), Waypoint(5, 0, 0), Waypoint(5, 0, 0)))
    miss = Trajectory((Waypoint(2, 0, 0), Waypoint(2, 6, 0), Waypoint(2, 6, 0)))
    ok_cr = collision_rate([hit, miss], [scenario, scenario], horizons=(2,)) == [50.0]

    report(
        "8 metric-identities",
        ok_miou and ok_l2 and ok_cr,
        "mIoU 5/12, averaged L2 (0.3, 0.5, 0.7), collision 50%",
    )


SPEC_DOC = {"origin": [-2.0, -2.0, -0.5], "dims": [16, 8, 4], "voxel_size": 0.5}

SCENARIO_DOC = {
    "spec": SPEC_DOC,
    "num_steps": 2,
    "dt": 0.5,
    "seed": 0,
    "layout": {
        "corridor_width": 3.0,
        "wall_thickness": 0.5,
        "wall_height": 1.5,
        "ground_thickness": 0.4,
        "drivable_class_id": 0,
        "wall_class_id": 1,
        "length": 12.0,
    },
    "agents": [],
    "ego_speed": 0.0,
    "ego_curvature": 0.0,
    "num_classes": 0,
}


def run_pipeline(root):
    """synth -> fit -> splat -> fit-flows -> forecast -> plan -> eval, from scratch."""
    os.makedirs(root, exist_ok=True)
    cfg = os.path.join(root, "scenario_config.json")
    with open(cfg, "w") as f:
        json.dump(SCENARIO_DOC, f)
    spec = os.path.join(root, "spec.json")
    with open(spec, "w") as f:
        json.dump(SPEC_DOC, f)
    bundle = os.path.join(root, "bundle")
    scene = os.path.join(root, "scene.json")
    flows = os.path.join(root, "flows.bin")
    plan_csv = os.path.join(root, "ego_plan.csv")
    with open(plan_csv, "w") as f:
        f.write("step,x,y,psi\n1,0.0,0.0,0.0\n2,0.0,0.0,0.0\n")
    planner = os.path.join(root, "planner.json")
    with open(planner, "w") as f:
        json.dump({"num_steps": 2, "speeds": [1.0, 2.0], "curvatures": [0.0]}, f)
    fc_dir = os.path.join(root, "forecasts")
    traj_out = os.path.join(root, "plan_out.csv")
    grid_out = os.path.join(root, "resplat.occ")
    report_csv = os.path.join(root, "report.csv")

    steps = [
        ["synth", "--config", cfg, "--out", bundle],
        ["fit", "--target", os.path.join(bundle, "grid_000.occ"), "--out", scene,
         "--iters", "30", "--n-gaussians", "27", "--seed", "0"],
        ["splat", "--scene", scene, "--spec", spec, "--out", grid_out],
        ["fit-flows", "--scene", scene, "--scenario", bundle, "--out", flows, "--iters", "5"],
        ["forecast", "--scene", scene, "--flows", flows, "--plan", plan_csv,
         "--spec", spec, "--out", fc_dir],
        ["plan", "--scene", scene, "--flows", flows, "--spec", spec,
         "--planner", planner, "--out", traj_out],
        ["eval", "--mode", "forecast", "--pred", fc_dir, "--gt", bundle,
         "--horizons", "1,2", "--report", report_csv],
    ]
    for args in steps:
        assert cli_main(args) == 0, args

    outputs = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                outputs[os.path.relpath(path, root)] = f.read()
    return outputs


def test_criterion_9_cli_determinism(tmp_path):
    """Identical CLI pipeline re-runs produce byte-identical outputs."""
    first = run_pipeline(str(tmp_path / "run1"))
    second = run_pipeline(str(tmp_path / "run2"))
    same_names = set(first) == set(second)
    diffs = [k for k in first if same_names and first[k] != second[k]]
    report(
        "9 cli-determinism",
        same_names and not diffs,
        f"{len(first)} output files byte-identical across re-runs",
    )


def test_criterion_10_loss_ledger():
    """Composite losses: gating, linearity in weights, zero at identity."""
    sc = moving_agent_scenario()
    scene = voxel_perfect_scene(sc.gt_grids[0], sc.num_classes)
    params = SplatParams(ClassConfig(sc.num_classes, dynamic_class_ids=frozenset({2})))
    flows = gt_flows(sc, scene)
    ident_plan = Trajectory((Waypoint.identity(),) * 6)
    future = forecast(scene, flows, ident_plan, params.cfg)

    gt_desc = SceneDescription(
        boxes=sc.gt_boxes[0],
        map_polylines=sc.gt_map,
        agent_motions=sc.agent_motions(),
        occupancy=sc.gt_grids[0],
    )
    pred_desc = SceneDescription(
        boxes=sc.gt_boxes[0], map_polylines=sc.gt_map, agent_motions=sc.agent_motions()
    )

    # gating: zero weights -> exactly zero, no ground truth required
    gated = perception_loss(
        SceneDescription(), SceneDescription(), LossWeights(occ=0, det=0, map=0, motion=0)
    )
    ok_gate = gated == 0.0

    # zero at identity: perfect description of a perfectly-splatting scene
    j_perc = perception_loss(pred_desc, gt_desc, LossWeights(), scene=scene, splat_params=params)
    ok_ident_perc = j_perc == 0.0

    # prediction loss vanishes when forecasts equal ground-truth scenes
    j_pred = prediction_loss(future, future, LossWeights(perc=0))
    ok_ident_pred = j_pred == 0.0

    # planning loss zero on the ground-truth plan with zero prediction residual
    j_plan = planning_loss(sc.gt_ego, sc.gt_ego, LossWeights(), pred_loss_value=0.0)
    ok_ident_plan = j_plan == 0.0

    # linearity: doubling every active weight doubles the value
    noisy = scene.with_arrays(means=scene.means + 0.4)  # most of a voxel: labels shift
    base = perception_loss(pred_desc, gt_desc, LossWeights(), scene=noisy, splat_params=params)
    double = perception_loss(
        pred_desc, gt_desc, LossWeights(occ=2, det=2, map=2, motion=2),
        scene=noisy, splat_params=params,
    )
    ok_linear = base > 0.0 and double == pytest.approx(2 * base, rel=1e-12)

    ok = ok_gate and ok_ident_perc and ok_ident_pred and ok_ident_plan and ok_linear
    report(
        "10 loss-ledger",
        ok,
        f"gating {ok_gate}, zero-at-identity {ok_ident_perc and ok_ident_pred and ok_ident_plan}, "
        f"linearity {ok_linear}",
    )
