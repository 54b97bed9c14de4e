"""Each benchmark workload, run once untraced and once traced, passes its own checks.

This runs what ``perfbench/run.py --trace 1`` runs for one operation at seed 1,
without the timing loop: a wrong output, an output the tracer changes, or an
expected span that no longer fires fails here before a benchmark run does.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERS = json.loads((PERFBENCH / "layers.json").read_text())
SPANS = [name for names in LAYERS["wrapped"].values() for name in names]


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    # the workloads and the tracer reach every module through sys.modules
    for module in {name.split(".")[0] for name in SPANS}:
        importlib.import_module(f"gaussworld.{module}")
    return _load("workloads"), _load("tracer")


def run_op(wl, state):
    inputs = wl.inputs(state, 0)
    results = []
    for stage in wl.stages(state, inputs):
        results.append(stage(results))
    return inputs, results


@pytest.mark.parametrize("name", list(LAYERS["expected"]))
def test_workload_passes_its_checks_traced_and_untraced(bench, name, tmp_path):
    workloads, tracer_mod = bench
    wl = workloads.WORKLOADS[name]
    tracer = tracer_mod.Tracer()
    tracer.install(SPANS)
    try:
        tracer.op = tracer_mod.SETUP_OP
        state = wl.setup(1, tmp_path)
        tracer.op = None
        plain = wl.check(state, *run_op(wl, state))
        tracer.op = 0
        inputs, results = run_op(wl, state)
        tracer.op = None  # the checks are not part of the operation, as in run.py
        traced = wl.check(state, inputs, results)
    finally:
        tracer.op = None
        tracer.uninstall()
    assert plain[0] == [] and traced[0] == []
    assert plain[1] == traced[1]
    _, hit = tracer.summarize(SPANS, 1)
    expected = LAYERS["expected"][name]
    missing = [f"{s} (ops)" for s in expected["ops"] if not hit["ops"].get(s)]
    missing += [f"{s} (setup)" for s in expected["setup"] if not hit[tracer_mod.SETUP_OP].get(s)]
    assert missing == []
