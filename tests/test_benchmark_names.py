"""The traced benchmark wraps functions by name; a rename or deletion must fail here first."""

import importlib
import json
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.json"
WRAPPED = [name for names in json.loads(LAYERS.read_text())["wrapped"].values() for name in names]


@pytest.mark.parametrize("name", WRAPPED)
def test_wrapped_function_exists(name):
    module, func = name.split(".")
    assert callable(getattr(importlib.import_module(f"gaussworld.{module}"), func, None)), name
