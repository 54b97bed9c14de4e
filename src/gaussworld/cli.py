"""Command-line driver: synth -> fit -> (splat | forecast | plan | prune) -> eval.

Every subcommand is a pure function of its input files and flags; identical
invocations produce identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .core import ClassConfig, prune as prune_scene
from .fit import FitConfig, fit_flows, fit_gaussians
from .flow import copy_paste_forecast, forecast
from .grid import GridSpec
from .metrics import CollisionScenario, collision_rate, forecast_eval, l2_errors, miou_iou
from .plan import PlannerConfig, plan as run_planner
from .splat import SplatParams, splat
from . import io as gio
from . import synth


def _load_spec(path):
    with open(path) as f:
        return gio.from_dict(GridSpec, json.load(f), "grid spec")


def _splat_params(scene):
    return SplatParams(ClassConfig(scene.num_classes))


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_synth(args):
    with open(args.config) as f:
        cfg = synth.config_from_dict(json.load(f))
    scenario = synth.generate(cfg)
    synth.save_scenario(args.out, scenario)
    print(f"scenario with {cfg.num_steps} steps written to {args.out}")


def cmd_fit(args):
    target = gio.load_grid(args.target)
    cfg = FitConfig(
        num_gaussians=args.n_gaussians,
        max_iters=args.iters,
        seed=args.seed,
        freeze_rotation=args.freeze_rotation,
    )
    scene, history = fit_gaussians(target, cfg)
    gio.save_scene(args.out, scene)
    if args.loss_history:
        _write_csv(args.loss_history, ["iteration", "loss"], [[i, repr(v)] for i, v in enumerate(history)])
    print(f"fitted {len(scene)} gaussians, loss {history[0]:.6f} -> {history[-1]:.6f}")


def cmd_splat(args):
    scene = gio.load_scene(args.scene)
    spec = _load_spec(args.spec)
    grid, _ = splat(scene, spec, _splat_params(scene))
    gio.save_grid(args.out, grid)
    print(f"occupancy grid written to {args.out}")


def cmd_fit_flows(args):
    scene = gio.load_scene(args.scene)
    scenario = synth.load_scenario(args.scenario)
    dynamic = frozenset(int(v) for v in args.dynamic_classes.split(",")) if args.dynamic_classes else frozenset()
    cfg = FitConfig(max_iters=args.iters, dynamic_class_ids=dynamic)
    flows = fit_flows(scene, list(scenario.gt_grids[1:]), scenario.gt_ego, cfg)
    gio.save_flows(args.out, flows)
    print(f"flow field ({flows.num_steps} steps x {flows.num_gaussians} gaussians) written to {args.out}")


def cmd_forecast(args):
    scene = gio.load_scene(args.scene)
    spec = _load_spec(args.spec)
    plan_traj = gio.load_trajectory(args.plan)
    params = _splat_params(scene)
    os.makedirs(args.out, exist_ok=True)
    if args.baseline == "copy-paste":
        current, _ = splat(scene, spec, params)
        grids = [copy_paste_forecast(current, w) for w in plan_traj.waypoints]
    else:
        flows = gio.load_flows(args.flows, expected_gaussians=len(scene))
        scenes = forecast(scene, flows, plan_traj, params.cfg)
        grids = [splat(s, spec, params)[0] for s in scenes]
    for k, grid in enumerate(grids, start=1):
        gio.save_grid(os.path.join(args.out, f"forecast_{k:03d}.occ"), grid)
    print(f"{len(grids)} forecast grids written to {args.out}")


def cmd_plan(args):
    scene = gio.load_scene(args.scene)
    spec = _load_spec(args.spec)
    flows = gio.load_flows(args.flows, expected_gaussians=len(scene))
    with open(args.planner) as f:
        doc = json.load(f)
    doc = {"num_steps": flows.num_steps, **doc} if isinstance(doc, dict) else doc  # from_dict rejects a non-object
    cfg = gio.from_dict(PlannerConfig, doc, "planner config")
    reference = gio.load_trajectory(args.reference) if args.reference else None
    best, table = run_planner(scene, flows, spec, cfg, _splat_params(scene), reference)
    gio.save_trajectory(args.out, best)
    if args.costs:
        columns = ["collision", "comfort", "deviation", "total"]
        lines = [[i] + [repr(row[c]) for c in columns] for i, row in enumerate(table)]
        _write_csv(args.costs, ["candidate"] + columns, lines)
    print(f"best candidate cost {min(r['total'] for r in table):.4f}; trajectory written to {args.out}")


def cmd_prune(args):
    scene = gio.load_scene(args.scene)
    pruned, survivors = prune_scene(scene, args.fraction)
    gio.save_scene(args.out, pruned)
    print(f"kept {len(pruned)} of {len(scene)} gaussians ({len(survivors)} survivors)")


def _parse_horizons(text):
    return [int(v) for v in text.split(",") if v]


def cmd_eval(args):
    horizons = _parse_horizons(args.horizons)
    rows = []
    if args.mode == "occ":
        pred = gio.load_grid(args.pred)
        gt = gio.load_grid(args.gt)
        miou, iou, per_class = miou_iou(pred, gt)
        rows.append(("miou", 0, miou))
        rows.append(("iou", 0, iou))
        for c, v in sorted(per_class.items()):
            rows.append((f"iou_class_{c}", 0, v))
    elif args.mode == "forecast":
        pred = [gio.load_grid(os.path.join(args.pred, f)) for f in sorted(os.listdir(args.pred)) if f.endswith(".occ")]
        scenario = synth.load_scenario(args.gt)
        gt = list(scenario.gt_grids)
        seq_pred = [gt[0]] + pred  # index 0 is the shared current frame
        result = forecast_eval(seq_pred, gt[: len(seq_pred)], horizons)
        for h, (m, i) in sorted(result["per_horizon"].items()):
            rows.append(("miou", h, m))
            rows.append(("iou", h, i))
        rows.append(("miou_avg", 0, result["avg"][0]))
        rows.append(("iou_avg", 0, result["avg"][1]))
    elif args.mode == "plan":
        samples = sorted(
            d for d in os.listdir(args.pred) if os.path.isdir(os.path.join(args.pred, d))
        )
        if not samples:
            raise ValueError(f"no sample directories under {args.pred}")
        plans, gts, scenarios = [], [], []
        for d in samples:
            base = os.path.join(args.pred, d)
            plans.append(gio.load_trajectory(os.path.join(base, "plan.csv")))
            gts.append(gio.load_trajectory(os.path.join(base, "gt.csv")))
            sc = synth.load_scenario(os.path.join(base, "scenario"))
            scenarios.append(
                CollisionScenario(
                    boxes_per_step=sc.gt_boxes[1:],
                    grids=sc.gt_grids[1:],
                    gt_ego=sc.gt_ego,
                    obstacle_class_ids=frozenset(a.class_id for a in sc.cfg.agents),
                )
            )
        for mode in ("at-step", "averaged"):
            errs = np.mean([l2_errors(p, g, horizons, mode) for p, g in zip(plans, gts)], axis=0)
            rows += [(f"l2_{mode.replace('-', '_')}", h, v) for h, v in zip(horizons, errs)]
        for h, rate in zip(horizons, collision_rate(plans, scenarios, horizons)):
            rows.append(("collision_rate", h, rate))
    else:
        raise ValueError(f"unknown eval mode {args.mode!r}")
    _write_csv(args.report, ["metric", "horizon", "value"], [[m, h, repr(float(v))] for m, h, v in rows])
    for metric, horizon, value in rows:
        print(f"{metric}[{horizon}] = {value:.6f}")


def build_parser():
    p = argparse.ArgumentParser(prog="gaussworld", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate a synthetic scenario bundle")
    s.add_argument("--config", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_synth)

    s = sub.add_parser("fit", help="fit gaussians to a target occupancy grid")
    s.add_argument("--target", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--iters", type=int, default=300)
    s.add_argument("--n-gaussians", type=int, default=512)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--freeze-rotation", action=argparse.BooleanOptionalAction, default=True)
    s.add_argument("--loss-history", default=None, help="optional CSV of (iteration, loss)")
    s.set_defaults(func=cmd_fit)

    s = sub.add_parser("splat", help="rasterize a scene to an occupancy grid")
    s.add_argument("--scene", required=True)
    s.add_argument("--spec", required=True, help="grid spec JSON (origin, dims, voxel_size)")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_splat)

    s = sub.add_parser("fit-flows", help="fit per-gaussian flows to a scenario's future grids")
    s.add_argument("--scene", required=True)
    s.add_argument("--scenario", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--iters", type=int, default=100)
    s.add_argument("--dynamic-classes", default="", help="comma-separated dynamic class ids")
    s.set_defaults(func=cmd_fit_flows)

    s = sub.add_parser("forecast", help="forecast occupancy along a plan")
    s.add_argument("--scene", required=True)
    s.add_argument("--flows")
    s.add_argument("--plan", required=True)
    s.add_argument("--spec", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--baseline", choices=["copy-paste"], default=None)
    s.set_defaults(func=cmd_forecast)

    s = sub.add_parser("plan", help="sample and score candidate trajectories")
    s.add_argument("--scene", required=True)
    s.add_argument("--flows", required=True)
    s.add_argument("--spec", required=True)
    s.add_argument("--planner", required=True, help="planner config JSON")
    s.add_argument("--reference", default=None)
    s.add_argument("--out", required=True)
    s.add_argument("--costs", default=None)
    s.set_defaults(func=cmd_plan)

    s = sub.add_parser("prune", help="drop the lowest-confidence gaussians")
    s.add_argument("--scene", required=True)
    s.add_argument("--fraction", type=float, required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_prune)

    s = sub.add_parser("eval", help="evaluate occupancy, forecasts, or plans")
    s.add_argument("--mode", choices=["occ", "forecast", "plan"], required=True)
    s.add_argument("--pred", required=True)
    s.add_argument("--gt")
    s.add_argument("--horizons", default="2,4,6")
    s.add_argument("--report", required=True)
    s.set_defaults(func=cmd_eval)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
