import csv
import json
import os

import pytest

import numpy as np

from gaussworld.cli import _load_spec, main
from gaussworld.core import GaussianScene
from gaussworld.flow import FlowField
from gaussworld import io as gio


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


@pytest.fixture
def workspace(tmp_path):
    cfg = tmp_path / "scenario_config.json"
    cfg.write_text(json.dumps(SCENARIO_DOC))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC_DOC))
    return tmp_path


def run(args):
    return main([str(a) for a in args])


def synth_bundle(ws):
    out = ws / "bundle"
    assert run(["synth", "--config", ws / "scenario_config.json", "--out", out]) == 0
    return out


def fit_scene(ws, bundle, iters=40, n=27):
    scene = ws / "scene.json"
    code = run(
        ["fit", "--target", bundle / "grid_000.occ", "--out", scene, "--iters", iters, "--n-gaussians", n]
    )
    assert code == 0
    return scene


class TestSynth:
    def test_writes_bundle(self, workspace):
        out = synth_bundle(workspace)
        assert (out / "scenario.json").exists()
        for k in range(3):
            assert (out / f"grid_{k:03d}.occ").exists()

    def test_missing_config_fails(self, workspace, capsys):
        code = run(["synth", "--config", workspace / "nope.json", "--out", workspace / "x"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestFitAndSplat:
    def test_fit_then_splat_round_trip(self, workspace):
        bundle = synth_bundle(workspace)
        scene_path = fit_scene(workspace, bundle)
        scene = gio.load_scene(scene_path)
        assert len(scene) == 27
        grid_out = workspace / "resplat.occ"
        assert run(["splat", "--scene", scene_path, "--spec", workspace / "spec.json", "--out", grid_out]) == 0
        grid = gio.load_grid(grid_out)
        assert grid.spec.dims == (16, 8, 4)

    def test_loss_history_csv(self, workspace):
        bundle = synth_bundle(workspace)
        hist = workspace / "loss.csv"
        code = run(
            [
                "fit", "--target", bundle / "grid_000.occ", "--out", workspace / "s.json",
                "--iters", 10, "--n-gaussians", 8, "--loss-history", hist,
            ]
        )
        assert code == 0
        rows = list(csv.DictReader(hist.open()))
        assert len(rows) == 11
        assert float(rows[-1]["loss"]) <= float(rows[0]["loss"])

    @pytest.mark.parametrize("flag, moved", [([], False), (["--no-freeze-rotation"], True)])
    def test_freeze_rotation_flag_reaches_fit(self, workspace, flag, moved):
        bundle = synth_bundle(workspace)
        out = workspace / "s.json"
        args = ["fit", "--target", bundle / "grid_000.occ", "--out", out, "--iters", 30, "--n-gaussians", 27]
        assert run(args + flag) == 0
        rotations = gio.load_scene(out).rotations
        assert np.any(rotations != [1.0, 0.0, 0.0, 0.0]) == moved


class TestPrune:
    def test_prune_fraction(self, workspace):
        bundle = synth_bundle(workspace)
        scene_path = fit_scene(workspace, bundle, iters=10, n=20)
        out = workspace / "pruned.json"
        assert run(["prune", "--scene", scene_path, "--fraction", 0.4, "--out", out]) == 0
        assert len(gio.load_scene(out)) == 12


class TestFlowsForecastPlan:
    def test_full_pipeline(self, workspace):
        bundle = synth_bundle(workspace)
        scene_path = fit_scene(workspace, bundle)
        flows_path = workspace / "flows.bin"
        code = run(
            ["fit-flows", "--scene", scene_path, "--scenario", bundle, "--out", flows_path, "--iters", 5]
        )
        assert code == 0
        flows = gio.load_flows(flows_path)
        assert flows.num_steps == 2

        plan_csv = workspace / "ego_plan.csv"
        plan_csv.write_text("step,x,y,psi\n1,0.0,0.0,0.0\n2,0.0,0.0,0.0\n")
        fc_dir = workspace / "forecasts"
        code = run(
            [
                "forecast", "--scene", scene_path, "--flows", flows_path,
                "--plan", plan_csv, "--spec", workspace / "spec.json", "--out", fc_dir,
            ]
        )
        assert code == 0
        assert sorted(os.listdir(fc_dir)) == ["forecast_001.occ", "forecast_002.occ"]

        baseline_dir = workspace / "baseline"
        code = run(
            [
                "forecast", "--scene", scene_path, "--plan", plan_csv,
                "--spec", workspace / "spec.json", "--out", baseline_dir, "--baseline", "copy-paste",
            ]
        )
        assert code == 0
        assert len(os.listdir(baseline_dir)) == 2

        planner_cfg = workspace / "planner.json"
        planner_cfg.write_text(json.dumps({"num_steps": 2, "speeds": [1.0, 2.0], "curvatures": [0.0]}))
        traj_out = workspace / "plan_out.csv"
        costs = workspace / "costs.csv"
        code = run(
            [
                "plan", "--scene", scene_path, "--flows", flows_path,
                "--spec", workspace / "spec.json", "--planner", planner_cfg,
                "--out", traj_out, "--costs", costs,
            ]
        )
        assert code == 0
        assert len(gio.load_trajectory(traj_out)) == 2
        rows = list(csv.DictReader(costs.open()))
        assert len(rows) == 2  # one row per candidate

        report = workspace / "fc_report.csv"
        code = run(
            [
                "eval", "--mode", "forecast", "--pred", fc_dir, "--gt", bundle,
                "--horizons", "1,2", "--report", report,
            ]
        )
        assert code == 0
        metrics = {(r["metric"], r["horizon"]): float(r["value"]) for r in csv.DictReader(report.open())}
        assert ("miou", "1") in metrics and ("miou_avg", "0") in metrics


class TestEvalOcc:
    def test_self_comparison_is_perfect(self, workspace):
        bundle = synth_bundle(workspace)
        report = workspace / "occ_report.csv"
        g = bundle / "grid_000.occ"
        assert run(["eval", "--mode", "occ", "--pred", g, "--gt", g, "--report", report]) == 0
        metrics = {r["metric"]: float(r["value"]) for r in csv.DictReader(report.open())}
        assert metrics["miou"] == 1.0
        assert metrics["iou"] == 1.0


class TestEvalPlan:
    def test_sample_directory_layout(self, workspace):
        bundle = synth_bundle(workspace)
        sample = workspace / "samples" / "s0"
        sample.mkdir(parents=True)
        (sample / "plan.csv").write_text("step,x,y,psi\n1,0.1,0.0,0.0\n2,0.2,0.0,0.0\n")
        (sample / "gt.csv").write_text("step,x,y,psi\n1,0.0,0.0,0.0\n2,0.0,0.0,0.0\n")
        import shutil

        shutil.copytree(bundle, sample / "scenario")
        report = workspace / "plan_report.csv"
        code = run(
            [
                "eval", "--mode", "plan", "--pred", workspace / "samples",
                "--horizons", "1,2", "--report", report,
            ]
        )
        assert code == 0
        metrics = {(r["metric"], r["horizon"]): float(r["value"]) for r in csv.DictReader(report.open())}
        assert metrics[("l2_at_step", "1")] == pytest.approx(0.1)
        assert metrics[("l2_at_step", "2")] == pytest.approx(0.2)
        assert metrics[("l2_averaged", "2")] == pytest.approx(0.15)
        assert ("collision_rate", "1") in metrics


class TestDeterminism:
    def test_fit_reruns_byte_identical(self, workspace):
        bundle = synth_bundle(workspace)
        a = fit_scene(workspace, bundle, iters=15, n=8)
        data_a = a.read_bytes()
        b = fit_scene(workspace, bundle, iters=15, n=8)
        assert data_a == b.read_bytes()

    def test_synth_reruns_byte_identical(self, workspace):
        out1 = synth_bundle(workspace)
        data = {f: (out1 / f).read_bytes() for f in os.listdir(out1)}
        import shutil

        shutil.rmtree(out1)
        out2 = synth_bundle(workspace)
        for f, blob in data.items():
            assert (out2 / f).read_bytes() == blob


class TestErrors:
    def test_unknown_eval_mode_rejected_by_argparse(self, workspace):
        with pytest.raises(SystemExit):
            run(["eval", "--mode", "nope", "--pred", "x", "--report", "y"])

    def test_missing_scene_file(self, workspace, capsys):
        code = run(
            ["splat", "--scene", workspace / "missing.json", "--spec", workspace / "spec.json", "--out", workspace / "o"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, match",
        [
            ([SPEC_DOC], "JSON object"),
            ({**SPEC_DOC, "origin": 5}, "malformed"),
            ({**SPEC_DOC, "voxel_size": "a"}, "malformed"),
            ({**SPEC_DOC, "dims": [16, 8]}, "3 components"),
            ({k: v for k, v in SPEC_DOC.items() if k != "dims"}, "dims"),
            ({**SPEC_DOC, "dims": [16, 8.5, 4]}, "dims"),
            ({**SPEC_DOC, "dim": [16, 8, 4]}, "unknown grid spec keys"),
            ({**SPEC_DOC, "voxel_size": float("nan")}, "voxel_size"),
        ],
    )
    def test_malformed_spec_raises_value_error(self, tmp_path, doc, match):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=match):
            _load_spec(path)


class TestPlannerConfigFile:
    def run_plan(self, ws, planner_doc):
        # two tight class-1 Gaussians under the ego footprint, one at z 0.25 and one at z 1.25
        scene = GaussianScene(
            [[0.25, 0.25, 0.25], [0.25, 0.25, 1.25]], np.full((2, 3), np.log(0.12)),
            [(1, 0, 0, 0)] * 2, [[0.0, 6.0]] * 2, ("ground", "wall"),
        )
        gio.save_scene(ws / "scene.json", scene)
        gio.save_flows(ws / "flows.bin", FlowField.zero(1, 2))
        (ws / "planner.json").write_text(json.dumps(planner_doc))
        return run(
            [
                "plan", "--scene", ws / "scene.json", "--flows", ws / "flows.bin",
                "--spec", ws / "spec.json", "--planner", ws / "planner.json",
                "--out", ws / "plan.csv", "--costs", ws / "costs.csv",
            ]
        )

    def test_z_slab_changes_collision_cost(self, workspace):
        doc = {"speeds": [1.0], "curvatures": [0.0]}
        collisions = []
        for extra in ({}, {"z_slab": [1.0, 2.0]}):
            assert self.run_plan(workspace, {**doc, **extra}) == 0
            collisions.append(float(next(csv.DictReader((workspace / "costs.csv").open()))["collision"]))
        assert collisions == [2.0, 1.0]

    def test_unknown_key_fails_naming_it(self, workspace, capsys):
        assert self.run_plan(workspace, {"speedz": [1.0]}) == 1
        assert "speedz" in capsys.readouterr().err

    def test_non_object_fails_with_value_error(self, workspace, capsys):
        assert self.run_plan(workspace, [1]) == 1
        assert "planner config must be a JSON object, not list" in capsys.readouterr().err
