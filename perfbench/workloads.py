"""The four benchmark workloads: seeded inputs, one timed operation, and its checks.

Every workload draws its inputs from the benchmark seed, writes them to files
where the pipeline reads files, and warms up inside ``setup`` so first-call
costs land in set-up time rather than in the first timed operation. The
package is reached through ``sys.modules`` at call time, never through names
bound at import, so the tracer's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io as stdio
import json
import math
import os
import shutil
import sys

import numpy as np


def gw(module):
    """A gaussworld submodule; the package attributes `splat`/`plan` are functions, not modules."""
    return sys.modules[f"gaussworld.{module}"]


def digest(*parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(np.ascontiguousarray(p).tobytes() if isinstance(p, np.ndarray) else repr(p).encode())
    return h.hexdigest()


def scene_digest(scene):
    return digest(scene.means, scene.log_scales, scene.rotations, scene.logits)


def voxel_perfect_scene(grid, num_classes):
    """One tight Gaussian per occupied voxel; it splats back to the grid exactly."""
    core = gw("core")
    centers = gw("grid").voxel_centers(grid.spec)
    occ = grid.labels != core.EMPTY
    means = centers[occ]
    labels = grid.labels[occ]
    n = len(means)
    logits = np.zeros((n, num_classes))
    logits[np.arange(n), labels] = 6.0
    return core.GaussianScene(
        means,
        np.full((n, 3), math.log(0.12)),
        np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)),
        logits,
        tuple(f"class_{c}" for c in range(num_classes)),
    )


def scenario_round_trip(cfg, directory):
    """Generate a scenario and read it back from its bundle, as the CLI's consumers do."""
    synth = gw("synth")
    synth.save_scenario(directory, synth.generate(cfg))
    return synth.load_scenario(directory)


class Workload:
    """One closed-loop workload: ``setup`` once, then operations on ``inputs(i)``.

    An operation is a list of stages. Each stage is called with the results of
    the stages before it; the runner times every stage and runs the
    calibration kernel between stages.
    """

    name = ""
    repeats_inputs = True  # every op sees the same inputs, so every op's outputs must hash alike

    def setup(self, seed, workdir):
        raise NotImplementedError

    def inputs(self, state, i):
        return None

    def stages(self, state, inputs):
        raise NotImplementedError

    def check(self, state, inputs, results):
        """(failed check messages, output digest, named values for the report)."""
        raise NotImplementedError

    def report(self, samples, values):
        """Workload-specific end-to-end metrics: name -> (value, unit, sample count).

        `samples` holds each operation's stage times in seconds.
        """
        raise NotImplementedError


# fit_corridor ---------------------------------------------------------------

FIT_ITERS = 12
FLOW_ITERS = 2
DYNAMIC = frozenset({2})


class FitCorridor(Workload):
    """fit_gaussians (512 Gaussians, fixed budget) then fit_flows on the moving-agent corridor."""

    name = "fit_corridor"

    def setup(self, seed, workdir):
        grid, synth, fit, splat = gw("grid"), gw("synth"), gw("fit"), gw("splat")
        rng = np.random.default_rng(seed)
        # Frame 0 is criterion 5's corridor on every seed; the seed sets only the
        # agent's future motion. How long a fit takes depends on where the
        # Gaussians' scales go, so a seeded frame 0 would change the work per op.
        agent = synth.AgentSpec(
            class_id=2, x=4.0, y=0.0, speed=rng.uniform(1.5, 2.5), turn_rate=rng.uniform(-0.1, 0.1)
        )
        cfg = synth.ScenarioConfig(
            spec=grid.GridSpec((-8.0, -6.0, -0.5), (48, 24, 6), 0.5),
            num_steps=6,
            dt=0.5,
            layout=synth.LayoutConfig(corridor_width=8.0, length=30.0),
            agents=(agent,),
        )
        sc = scenario_round_trip(cfg, os.path.join(workdir, "bundle"))
        fit_cfg = fit.FitConfig(num_gaussians=512, max_iters=FIT_ITERS, tol=0.0, num_classes=3, dynamic_class_ids=DYNAMIC)
        flow_cfg = fit.FitConfig(max_iters=FLOW_ITERS, tol=0.0, num_classes=3, dynamic_class_ids=DYNAMIC)
        params = splat.SplatParams(fit_cfg.class_config(3))
        splat.occupancy_loss_and_grads(fit.init_uniform(cfg.spec, fit_cfg, 3), sc.gt_grids[0], params)
        return {"sc": sc, "fit_cfg": fit_cfg, "flow_cfg": flow_cfg, "params": params}

    def stages(self, state, inputs):
        sc = state["sc"]
        return [
            lambda r: gw("fit").fit_gaussians(sc.gt_grids[0], state["fit_cfg"]),
            lambda r: gw("fit").fit_flows(r[0][0], list(sc.gt_grids[1:]), sc.gt_ego, state["flow_cfg"]),
        ]

    def check(self, state, inputs, results):
        fit, metrics, splat = gw("fit"), gw("metrics"), gw("splat")
        sc = state["sc"]
        (scene, history), flows = results
        hist = np.asarray(history)
        steps = flows.steps
        static = ~fit.dynamic_mask(scene, state["params"].cfg)
        failed = []
        if not np.all(np.isfinite(hist)):
            failed.append("fit loss history is not finite")
        elif not hist[-1] < hist[0]:
            failed.append(f"fit loss did not decrease: {hist[0]:.6f} -> {hist[-1]:.6f}")
        if not np.all(np.isfinite(steps)):
            failed.append("fitted flows are not finite")
        if np.any(steps[:, static] != 0.0):
            failed.append("fitted flows move static Gaussians")
        grid, _ = splat.splat(scene, sc.cfg.spec, state["params"])
        miou = metrics.miou_iou(grid, sc.gt_grids[0])[0]
        return failed, digest(scene_digest(scene), hist, steps), {"fit_miou": miou}

    def report(self, samples, values):
        n = len(samples)
        return {
            "fit_iters_per_s": (float(np.median([FIT_ITERS / fit_s for fit_s, _ in samples])), "1/s", n),
            "flowfit_iters_per_s": (float(np.median([6 * FLOW_ITERS / flow_s for _, flow_s in samples])), "1/s", n),
            "fit_miou": (values[0]["fit_miou"], "ratio", n),
        }


# plan_oncoming --------------------------------------------------------------


class PlanOncoming(Workload):
    """One plan() call on a corridor with an oncoming agent (criterion 7's scenario, seeded)."""

    name = "plan_oncoming"

    def setup(self, seed, workdir):
        grid, synth, plan, splat, core = gw("grid"), gw("synth"), gw("plan"), gw("splat"), gw("core")
        flow = gw("flow")
        rng = np.random.default_rng(seed)
        # x - 2 s * speed <= 12.3 keeps the straight 4 m/s reference colliding by 2 s
        agent = synth.AgentSpec(
            class_id=2, x=rng.uniform(15.5, 16.2), y=rng.uniform(-0.25, 0.25), yaw=math.pi, speed=rng.uniform(2.0, 2.4)
        )
        cfg = synth.ScenarioConfig(
            spec=grid.GridSpec((-4.0, -6.0, -0.5), (56, 24, 6), 0.5),
            num_steps=6,
            dt=0.5,
            layout=synth.LayoutConfig(corridor_width=8.0, length=60.0),
            agents=(agent,),
        )
        sc = scenario_round_trip(cfg, os.path.join(workdir, "bundle"))
        scene = voxel_perfect_scene(sc.gt_grids[0], sc.num_classes)
        flows = synth.gt_flows(sc, scene)
        params = splat.SplatParams(core.ClassConfig(sc.num_classes, dynamic_class_ids=DYNAMIC))
        pcfg = plan.PlannerConfig(
            num_steps=6,
            dt=0.5,
            speeds=(1.0, 2.0, 4.0),
            curvatures=(-0.15, 0.0, 0.15),
            drivable_class_ids=frozenset({0}),
        )
        reference = plan.unicycle_rollout(4.0, 0.0, 6, 0.5)
        # warm-up: score the reference as plan() scores one candidate
        warm = flow.forecast(scene, flows, reference, params.cfg)
        plan.score(reference, [splat.splat(s, cfg.spec, params)[0] for s in warm], pcfg, reference)
        return {"sc": sc, "scene": scene, "flows": flows, "params": params, "pcfg": pcfg, "reference": reference}

    def stages(self, state, inputs):
        args = (state["scene"], state["flows"], state["sc"].cfg.spec, state["pcfg"], state["params"], state["reference"])
        return [lambda r: gw("plan").plan(*args)]

    def check(self, state, inputs, results):
        metrics = gw("metrics")
        ((best, table),) = results
        scenario = metrics.CollisionScenario(boxes_per_step=state["sc"].gt_boxes[1:])
        chosen = metrics.collision_rate([best], [scenario], horizons=(2, 4, 6))
        ref = metrics.collision_rate([state["reference"]], [scenario], horizons=(2, 4, 6))
        failed = []
        if chosen != [0.0, 0.0, 0.0]:
            failed.append(f"chosen plan collides at 1/2/3 s: {chosen}")
        if ref[1:] != [100.0, 100.0]:
            failed.append(f"straight reference does not collide at 2 s and 3 s: {ref}")
        out = digest(best.xy(), [w.psi for w in best.waypoints], [sorted(r.items()) for r in table])
        return failed, out, {"collision_pct": chosen}

    def report(self, samples, values):
        n = len(samples)
        return {
            "plan_s_p50": (float(np.median([sum(t) for t in samples])), "s", n),
            "plan_collision_pct": (max(values[0]["collision_pct"]), "%", n),
        }


# gradcheck_small ------------------------------------------------------------

SCENES_PER_OP = 12  # one scene of each size 1..12, so every op checks 78 Gaussians
SCENES_PER_STAGE = 4
GRADCHECK_GROUPS = ("mean", "log_scale", "logits")


def random_scene(rng, shape_rng, n, num_classes=3, lo=0.5, hi=3.5, scale_range=(0.2, 0.8)):
    """Random anisotropic scene drawn like criterion 1's scenes.

    The scales come from `shape_rng` and everything else from `rng`. Block
    sizes, and so the cost of a gradient check, follow the scales.
    """
    return gw("core").GaussianScene(
        rng.uniform(lo, hi, (n, 3)),
        shape_rng.uniform(np.log(scale_range[0]), np.log(scale_range[1]), (n, 3)),
        rng.normal(size=(n, 4)),
        rng.normal(size=(n, num_classes)),
        tuple(f"c{i}" for i in range(num_classes)),
    )


class GradcheckSmall(Workload):
    """check_gradients on 12 seeded random scenes on an 8-cubed grid, as in criterion 1."""

    name = "gradcheck_small"
    repeats_inputs = False

    def setup(self, seed, workdir):
        grid, splat, core = gw("grid"), gw("splat"), gw("core")
        state = {
            "seed": seed,
            "spec": grid.GridSpec((0, 0, 0), (8, 8, 8), 0.5),
            "params": splat.SplatParams(core.ClassConfig(3)),
        }
        # warm-up on a fixed-size scene, so the set-up does the same work on every seed
        scene, target = self.inputs(state, -1)[0]
        self._check_one(state, scene.take(np.arange(min(len(scene), 4))), target)
        return state

    def inputs(self, state, i):
        """Op i's 12 scenes. Their sizes and scales depend on i only, so every seed
        costs the same; positions, rotations, logits and labels depend on the seed."""
        grid, core = gw("grid"), gw("core")
        rng = np.random.default_rng([state["seed"], i + 1])
        shape_rng = np.random.default_rng(i + 1)
        out = []
        for n in shape_rng.permutation(np.arange(1, SCENES_PER_OP + 1)):
            scene = random_scene(rng, shape_rng, int(n))
            labels = rng.choice([0, 1, 2, core.EMPTY], state["spec"].num_voxels).astype(np.uint8)
            out.append((scene, grid.OccupancyGrid(state["spec"], labels)))
        return out

    def _check_one(self, state, scene, target):
        return gw("fit").check_gradients(scene, target, state["params"], step=1e-4, groups=GRADCHECK_GROUPS)

    def stages(self, state, inputs):
        def stage(part):
            return lambda r: [self._check_one(state, scene, target) for scene, target in part]

        return [stage(inputs[k : k + SCENES_PER_STAGE]) for k in range(0, SCENES_PER_OP, SCENES_PER_STAGE)]

    def check(self, state, inputs, results):
        result = [rep for part in results for rep in part]
        worst = max(v["max_rel_err"] for rep in result for v in rep.values())
        failed = [] if worst < 1e-4 else [f"worst relative gradient error {worst:.2e} >= 1e-4"]
        out = digest([sorted((g, sorted(v.items())) for g, v in rep.items()) for rep in result])
        return failed, out, {"worst_rel_err": worst}

    def report(self, samples, values):
        return {
            "gradcheck_scenes_per_s": (SCENES_PER_OP * len(samples) / sum(map(sum, samples)), "1/s", SCENES_PER_OP * len(samples)),
            "gradcheck_worst_rel_err": (max(v["worst_rel_err"] for v in values), "ratio", SCENES_PER_OP * len(samples)),
        }


# bev_cli --------------------------------------------------------------------

BEV_AGENTS_PER_LANE = 5
BEV_LANES = (-9.0, -3.0, 3.0, 9.0)


class BevCli(Workload):
    """CLI chain splat -> eval occ -> prune -> forecast -> eval forecast on a 200x200x16 BEV slice."""

    name = "bev_cli"

    def setup(self, seed, workdir):
        grid, synth, io = gw("grid"), gw("synth"), gw("io")
        rng = np.random.default_rng(seed)
        spec = grid.GridSpec((-50.0, -50.0, -0.5), (200, 200, 16), 0.5)
        agents = []
        for y in BEV_LANES:
            # agents in the left lanes drive towards -x; lanes and slots keep boxes apart
            yaw = math.pi if y > 0 else 0.0
            for slot in range(BEV_AGENTS_PER_LANE):
                agents.append(
                    synth.AgentSpec(
                        class_id=2,
                        x=-36.0 + 18.0 * slot + rng.uniform(-2.0, 2.0),
                        y=y + rng.uniform(-0.5, 0.5),
                        yaw=yaw + rng.uniform(-0.1, 0.1),
                        speed=rng.uniform(0.0, 4.0),
                    )
                )
        cfg = synth.ScenarioConfig(
            spec=spec,
            num_steps=2,
            dt=0.5,
            layout=synth.LayoutConfig(corridor_width=30.0, length=100.0),
            agents=tuple(agents),
            ego_speed=rng.uniform(2.0, 4.0),
            ego_curvature=rng.uniform(-0.02, 0.02),
        )
        sc = synth.generate(cfg)
        paths = {k: os.path.join(workdir, v) for k, v in (
            ("bundle", "bundle"), ("scene", "scene.json"), ("flows", "flows.bin"),
            ("plan", "plan.csv"), ("spec", "spec.json"), ("out", "out"),
        )}
        synth.save_scenario(paths["bundle"], sc)
        scene = voxel_perfect_scene(sc.gt_grids[0], sc.num_classes)
        io.save_scene(paths["scene"], scene)
        io.save_flows(paths["flows"], synth.gt_flows(sc, scene))
        io.save_trajectory(paths["plan"], sc.gt_ego)
        with open(paths["spec"], "w") as f:
            json.dump({"origin": list(spec.origin), "dims": list(spec.dims), "voxel_size": spec.voxel_size}, f)
        gt0 = os.path.join(paths["bundle"], "grid_000.occ")
        self._cli(["eval", "--mode", "occ", "--pred", gt0, "--gt", gt0, "--report", os.path.join(workdir, "warm.csv")])
        return {"paths": paths}

    @staticmethod
    def _cli(argv):
        with contextlib.redirect_stdout(stdio.StringIO()):
            return gw("cli").main(argv)

    def inputs(self, state, i):
        # every pass writes into a fresh copy of the same directory, so passes hash alike
        shutil.rmtree(state["paths"]["out"], ignore_errors=True)
        os.makedirs(state["paths"]["out"])

    def stages(self, state, inputs):
        p = state["paths"]
        o = lambda name: os.path.join(p["out"], name)
        gt0 = os.path.join(p["bundle"], "grid_000.occ")
        stages = [
            ["splat", "--scene", p["scene"], "--spec", p["spec"], "--out", o("resplat.occ")],
            ["eval", "--mode", "occ", "--pred", o("resplat.occ"), "--gt", gt0, "--report", o("occ.csv")],
            ["prune", "--scene", p["scene"], "--fraction", "0.25", "--out", o("pruned.json")],
            ["forecast", "--scene", p["scene"], "--flows", p["flows"], "--plan", p["plan"],
             "--spec", p["spec"], "--out", o("forecasts")],
            ["eval", "--mode", "forecast", "--pred", o("forecasts"), "--gt", p["bundle"],
             "--horizons", "1,2", "--report", o("forecast.csv")],
        ]
        return [lambda r, args=args: self._cli(args) for args in stages]

    def check(self, state, inputs, results):
        out = state["paths"]["out"]
        failed = [f"stage {k} exited {code}" for k, code in enumerate(results) if code != 0]
        if failed:
            return failed, digest(results), {}
        rows = {}
        for report in ("occ.csv", "forecast.csv"):
            with open(os.path.join(out, report), newline="") as f:
                for r in csv.DictReader(f):
                    rows[(report, r["metric"], int(r["horizon"]))] = float(r["value"])
        resplat = rows[("occ.csv", "miou", 0)]
        if resplat != 1.0:
            failed.append(f"resplat mIoU against GT is {resplat!r}, not 1.0")
        h = hashlib.sha256()
        for dirpath, _, filenames in sorted(os.walk(out)):
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, out).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
        return failed, h.hexdigest(), {"forecast_miou": rows[("forecast.csv", "miou_avg", 0)]}

    def report(self, samples, values):
        n = len(samples)
        return {
            "cli_s": (float(np.median([sum(t) for t in samples])), "s", n),
            "forecast_miou": (values[0]["forecast_miou"] if values[0] else float("nan"), "ratio", n),
        }


WORKLOADS = {w.name: w for w in (FitCorridor(), PlanOncoming(), GradcheckSmall(), BevCli())}
