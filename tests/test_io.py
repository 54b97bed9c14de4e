import functools
import json
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaussworld.core import EMPTY
from gaussworld.flow import FlowField, Trajectory, Waypoint
from gaussworld.grid import GridSpec, OccupancyGrid
from gaussworld.io import (
    FormatError,
    load_flows,
    load_grid,
    load_scene,
    load_trajectory,
    save_flows,
    save_grid,
    save_scene,
    save_trajectory,
)
from tests.conftest import random_scene


class TestSceneIO:
    def test_round_trip_exact(self, rng, tmp_path):
        scene = random_scene(rng, 12)
        path = tmp_path / "scene.json"
        save_scene(path, scene)
        back = load_scene(path)
        assert np.array_equal(back.means, scene.means)
        assert np.array_equal(back.log_scales, scene.log_scales)
        assert np.array_equal(back.rotations, scene.rotations)
        assert np.array_equal(back.logits, scene.logits)
        assert back.class_names == scene.class_names

    def test_writes_only_the_four_keys(self, rng, tmp_path):
        path = tmp_path / "scene.json"
        save_scene(path, random_scene(rng, 3))
        assert list(json.loads(path.read_text())) == ["format", "version", "class_names", "gaussians"]

    def test_keys_of_older_documents_are_ignored(self, tmp_path):
        g = {"mu": [1, 2, 3], "log_scale": [0, -1, 0.5], "quat": [0.5, 0.5, 0.5, 0.5], "logits": [0.25, -1]}
        doc = {"format": "gauss-scene", "version": 1, "class_names": ["a", "b"], "gaussians": [g, g]}
        plain, tagged = tmp_path / "plain.json", tmp_path / "tagged.json"
        plain.write_text(json.dumps(doc))
        tagged.write_text(json.dumps({**doc, "frame_pose": [1, -2, 0.3], "timestamp_index": 4}))
        a, b = load_scene(plain), load_scene(tagged)
        assert a.class_names == b.class_names
        for name in ("means", "log_scales", "rotations", "logits"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    @pytest.mark.parametrize(
        "legacy",
        [
            {"frame_pose": [1.0]},
            {"frame_pose": 5},
            {"frame_pose": [0, {}, 0]},
            {"frame_pose": [True, False, 0]},
            {"frame_pose": ["1", "2", "3"]},
            {"timestamp_index": [1]},
            {"timestamp_index": float("inf")},
            {"timestamp_index": float("nan")},
            {"timestamp_index": 1.5},
            {"timestamp_index": True},
            {"timestamp_index": 2.0},
        ],
    )
    def test_older_keys_are_ignored_whatever_they_hold(self, legacy, tmp_path):
        # values that v1 readers used to refuse or convert are now unknown keys like any other
        g = {"mu": [1, 2, 3], "log_scale": [0, -1, 0.5], "quat": [1, 0, 0, 0], "logits": [0.25, -1]}
        doc = {"format": "gauss-scene", "version": 1, "class_names": ["a", "b"], "gaussians": [g]}
        path = tmp_path / "old.json"
        path.write_text(json.dumps({**doc, **legacy}))
        scene = load_scene(path)
        assert scene.class_names == ("a", "b")
        assert np.array_equal(scene.means, [[1, 2, 3]]) and np.array_equal(scene.logits, [[0.25, -1]])
        save_scene(path, scene)
        assert json.loads(path.read_text()) == doc

    def test_empty_scene(self, tmp_path):
        from gaussworld.core import GaussianScene

        scene = GaussianScene([], [], [], [], ("road", "car"))
        path = tmp_path / "empty.json"
        save_scene(path, scene)
        back = load_scene(path)
        assert len(back) == 0
        assert back.class_names == ("road", "car")

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "other", "version": 1}')
        with pytest.raises(FormatError):
            load_scene(path)

    def test_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "gauss-scene", "version": 99, "class_names": [], "gaussians": []}')
        with pytest.raises(FormatError, match="version"):
            load_scene(path)

    def test_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(FormatError):
            load_scene(path)

    def test_field_width_error_names_gaussian(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"format": "gauss-scene", "version": 1, "class_names": ["a"],'
            ' "gaussians": [{"mu": [0, 0], "log_scale": [0, 0, 0], "quat": [1, 0, 0, 0], "logits": [0]}]}'
        )
        with pytest.raises(FormatError, match="gaussian 0"):
            load_scene(path)

    @pytest.mark.parametrize(
        "edit, error, match",
        [
            (lambda d: [d], FormatError, "JSON object"),
            (lambda d: {**d, "gaussians": 5}, FormatError, "gaussians"),
            (lambda d: {k: v for k, v in d.items() if k != "gaussians"}, FormatError, "gaussians"),
            (lambda d: {**d, "class_names": 3}, FormatError, "class_names"),
            (lambda d: {**d, "class_names": [1, "b"]}, FormatError, "class_names"),
            (lambda d: {**d, "class_names": [None, "b"]}, FormatError, "class_names"),
            (lambda d: {**d, "class_names": [[1], "b"]}, FormatError, "class_names"),
            (lambda d: {**d, "class_names": ["a", "a"]}, FormatError, "class_names"),
            (lambda d: {**d, "gaussians": [5]}, FormatError, "gaussian 0"),
            (lambda d: {**d, "gaussians": [d["gaussians"][0], {**d["gaussians"][1], "mu": 5}]}, FormatError, "gaussian 1"),
            (lambda d: {**d, "gaussians": [{**d["gaussians"][0], "quat": [1, 0, "a", 0]}]}, FormatError, "gaussian 0"),
            (lambda d: {**d, "gaussians": [{**d["gaussians"][0], "logits": [None, 0]}]}, ValueError, "finite"),
            (lambda d: {**d, "gaussians": [{**d["gaussians"][0], "quat": [float("nan"), 0, 0, 0]}]}, ValueError, "rotations must be finite"),
            (lambda d: {**d, "gaussians": [{**d["gaussians"][0], "quat": [1, float("inf"), 0, 0]}]}, ValueError, "rotations must be finite"),
            (lambda d: {**d, "gaussians": [{**d["gaussians"][0], "quat": [1, 0, 0, float("-inf")]}]}, ValueError, "rotations must be finite"),
            (lambda d: {**d, "gaussians": [{**d["gaussians"][0], "quat": [1e300, 1e300, 0, 0]}]}, FormatError, "quaternion norm overflows"),
            (lambda d: {**d, "gaussians": [{**d["gaussians"][0], "log_scale": [float("inf"), 0, 0]}]}, FormatError, "log_scales must be finite"),
            (lambda d: {**d, "gaussians": [{**d["gaussians"][0], "log_scale": [0, 0, float("-inf")]}]}, FormatError, "log_scales must be finite"),
            (lambda d: {**d, "gaussians": [{**d["gaussians"][0], "mu": [True, "2", 3]}]}, FormatError, "gaussian 0: field 'mu'"),
            (lambda d: {**d, "gaussians": [d["gaussians"][0], {**d["gaussians"][1], "logits": [0, False]}]}, FormatError, "gaussian 1: field 'logits'"),
        ],
    )
    def test_malformed_documents_raise_typed_errors(self, edit, error, match, tmp_path):

        doc = {
            "format": "gauss-scene",
            "version": 1,
            "class_names": ["a", "b"],
            "gaussians": [{"mu": [0, 0, 0], "log_scale": [0, 0, 0], "quat": [1, 0, 0, 0], "logits": [0, 1]}] * 2,
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(edit(doc)))
        with pytest.raises(error, match=match):
            load_scene(path)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    field=st.sampled_from(["class_names", "mu", "log_scale", "quat", "logits"]),
    value=JSON_VALUES | st.lists(st.integers() | st.floats() | st.text(max_size=2), min_size=1, max_size=5),
)
@example(field="mu", value=[10**400, 0, 0])  # past float range: OverflowError, not ValueError
@example(field="logits", value=[0, -(10**400)])
@example(field="mu", value="123")  # a string of the right length used to broadcast to (123, 123, 123)
@example(field="class_names", value=["a", "a"])
@example(field="mu", value=[True, "2", 3])  # NumPy reads booleans and numeric strings as numbers
def test_any_json_field_value_loads_or_raises_format_error(field, value):
    """A scene document with any JSON value in one field loads, or raises FormatError and nothing else.

    A numeric field loads only when it holds JSON numbers.
    """
    g = {"mu": [0, 0, 0], "log_scale": [0, 0, 0], "quat": [1, 0, 0, 0], "logits": [0, 1]}
    doc = {"format": "gauss-scene", "version": 1, "class_names": ["a", "b"]}
    if field in g:
        g[field] = value
    else:
        doc[field] = value
    if field == "class_names" and isinstance(value, list):
        g["logits"] = [0] * len(value)  # a width that matches, so the names themselves are checked
    doc["gaussians"] = [g]
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "scene.json"
        path.write_text(json.dumps(doc))
        try:
            scene = load_scene(path)
        except FormatError:
            return
        save_scene(path, scene)
        back = load_scene(path)
    assert all(isinstance(n, str) for n in scene.class_names)
    assert field not in g or isinstance(value, list)
    assert field == "class_names" or {type(v) for v in value} <= {int, float}
    assert back.class_names == scene.class_names
    assert np.array_equal(back.means, scene.means) and np.array_equal(back.logits, scene.logits)


class TestGridIO:
    def test_round_trip(self, rng, tmp_path):
        spec = GridSpec((-1.5, 0.0, 2.25), (6, 4, 3), 0.4)
        labels = rng.choice([0, 1, 2, EMPTY], spec.num_voxels).astype(np.uint8)
        grid = OccupancyGrid(spec, labels, num_classes=3)
        path = tmp_path / "g.occ"
        save_grid(path, grid)
        back = load_grid(path)
        assert back.spec == spec
        assert np.array_equal(back.labels, grid.labels)
        assert back.num_classes == 3

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "g.occ"
        path.write_bytes(b"XXXX" + bytes(60))
        with pytest.raises(FormatError, match="magic"):
            load_grid(path)

    def test_truncation_reports_offset(self, rng, tmp_path):
        spec = GridSpec((0, 0, 0), (4, 4, 2), 0.5)
        grid = OccupancyGrid.empty(spec)
        path = tmp_path / "g.occ"
        save_grid(path, grid)
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(FormatError, match="byte offset"):
            load_grid(path)

    def test_corrupted_dims_rejected_before_reading(self, tmp_path):
        path = tmp_path / "g.occ"
        save_grid(path, OccupancyGrid.empty(GridSpec((0, 0, 0), (4, 4, 2), 0.5)))
        data = bytearray(path.read_bytes())
        data[32:44] = struct.pack("<3I", 1024, 1024, 1024)  # dims follow magic, version and origin
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="declared"):
            load_grid(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "g.occ"
        path.write_bytes(b"OCCG" + struct.pack("<I", 2) + bytes(100))
        with pytest.raises(FormatError, match="version"):
            load_grid(path)

    # header byte offsets: origin 8, dims 32, voxel_size 44, class count 52, labels 56
    @pytest.mark.parametrize(
        "offset, value, error, match",
        [
            (44, struct.pack("<d", float("nan")), ValueError, "voxel_size"),
            (44, struct.pack("<d", float("inf")), ValueError, "voxel_size"),
            (8, struct.pack("<d", float("nan")), ValueError, "origin"),
            (52, struct.pack("<I", 1000), FormatError, "class count 1000"),
            (56 + 5, bytes([200]), FormatError, "voxel 5 has label 200"),
            (56 + 7, bytes([3]), FormatError, "voxel 7 has label 3"),
        ],
        ids=["nan_voxel_size", "inf_voxel_size", "nan_origin", "class_count_1000", "label_200", "label_3_of_3"],
    )
    def test_corrupted_header_or_labels_rejected(self, offset, value, error, match, tmp_path):
        path = tmp_path / "g.occ"
        save_grid(path, OccupancyGrid(GridSpec((0, 0, 0), (4, 4, 2), 0.5), np.arange(32) % 3, num_classes=3))
        data = bytearray(path.read_bytes())
        data[offset : offset + len(value)] = value
        path.write_bytes(bytes(data))
        with pytest.raises(error, match=match):
            load_grid(path)

    def test_unknown_class_count_accepts_every_class_label(self, tmp_path):
        path = tmp_path / "g.occ"
        save_grid(path, OccupancyGrid(GridSpec((0, 0, 0), (4, 4, 2), 0.5), np.arange(32) % 3, num_classes=3))
        data = bytearray(path.read_bytes())
        data[52:56] = struct.pack("<I", 0)
        data[56:58] = bytes([254, EMPTY])
        path.write_bytes(bytes(data))
        assert load_grid(path).labels[:2].tolist() == [254, EMPTY]


class TestFlowIO:
    def test_round_trip_f32(self, rng, tmp_path):
        steps = rng.normal(size=(3, 5, 3)).astype(np.float32).astype(np.float64)
        flows = FlowField(steps)
        path = tmp_path / "f.flw"
        save_flows(path, flows)
        back = load_flows(path)
        # values already representable in f32 survive exactly
        assert np.array_equal(back.steps, flows.steps)

    def test_expected_gaussian_check(self, tmp_path):
        path = tmp_path / "f.flw"
        save_flows(path, FlowField.zero(2, 7))
        load_flows(path, expected_gaussians=7)
        with pytest.raises(FormatError, match="7"):
            load_flows(path, expected_gaussians=8)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "f.flw"
        path.write_bytes(b"NOPE" + bytes(12))
        with pytest.raises(FormatError, match="magic"):
            load_flows(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "f.flw"
        save_flows(path, FlowField.zero(2, 4))
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(FormatError, match="truncated"):
            load_flows(path)

    def test_bit_flip_to_signalling_nan_rejected_before_the_cast(self, tmp_path):
        path = tmp_path / "f.flw"
        save_flows(path, FlowField(np.full((2, 3, 3), 1.25)))
        data = bytearray(path.read_bytes())
        data[43] ^= 1 << 6  # high byte of entry 6 (a 16-byte header, then <f4): 1.25 becomes a signalling NaN
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=r"displacement \[0, 2, 0\] is nan"):
            load_flows(path)

    @pytest.mark.parametrize("bad, first", [(np.inf, (1, 0, 2)), (-np.inf, (0, 1, 0)), (np.nan, (1, 1, 1))])
    def test_non_finite_displacement_names_the_first_bad_entry(self, bad, first, tmp_path):
        steps = np.zeros((2, 2, 3), dtype=np.float32)
        steps[first] = bad
        steps[1, 1, 2] = np.nan  # a later bad entry is not the one reported
        path = tmp_path / "f.flw"
        path.write_bytes(struct.pack("<4sIII", b"GFLW", 1, 2, 2) + steps.astype("<f4").tobytes())
        with pytest.raises(FormatError, match=rf"displacement \[{first[0]}, {first[1]}, {first[2]}\] is {bad}, not finite"):
            load_flows(path)

    def test_corrupted_shape_rejected_before_reading(self, tmp_path):
        path = tmp_path / "f.flw"
        save_flows(path, FlowField.zero(2, 4))
        data = bytearray(path.read_bytes())
        data[8:16] = struct.pack("<II", 2**32 - 1, 2**32 - 1)  # (F, N) follow magic and version
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="declared"):
            load_flows(path)


class TestTrajectoryIO:
    def test_round_trip_exact(self, tmp_path):
        traj = Trajectory((Waypoint(1.25, -0.5, 0.1), Waypoint(2.5, 0.0, -3.1)), dt=0.5)
        path = tmp_path / "t.csv"
        save_trajectory(path, traj)
        back = load_trajectory(path)
        assert len(back) == 2
        for a, b in zip(back.waypoints, traj.waypoints):
            assert (a.x, a.y, a.psi) == (b.x, b.y, b.psi)

    def test_header_written(self, tmp_path):
        path = tmp_path / "t.csv"
        save_trajectory(path, Trajectory((Waypoint(0, 0, 0),)))
        assert path.read_text().splitlines()[0] == "step,x,y,psi"

    def test_rows_sorted_by_step(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("step,x,y,psi\n2,2.0,0.0,0.0\n1,1.0,0.0,0.0\n")
        back = load_trajectory(path)
        assert [w.x for w in back.waypoints] == [1.0, 2.0]

    @pytest.mark.parametrize("steps, bad", [((1, 1, 3), "step 1 found where step 2"), ((1, 2, 4), "step 4 found"),
                                             ((0, 1), "step 0 found where step 1")])
    def test_duplicate_or_missing_steps(self, tmp_path, steps, bad):
        path = tmp_path / "t.csv"
        path.write_text("step,x,y,psi\n" + "".join(f"{s},0.0,0.0,0.0\n" for s in steps))
        with pytest.raises(FormatError, match=bad):
            load_trajectory(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("step,x,y\n1,0,0\n")
        with pytest.raises(FormatError, match="psi"):
            load_trajectory(path)

    @pytest.mark.parametrize("rows, bad", [("1,0.5,0.1\n", "row 1 has no 'psi'"),
                                           ("1,0,0,0\n2\n", "row 2 has no 'x'")])
    def test_short_row(self, tmp_path, rows, bad):
        path = tmp_path / "t.csv"
        path.write_text("step,x,y,psi\n" + rows)
        with pytest.raises(FormatError, match=bad):
            load_trajectory(path)

    @pytest.mark.parametrize("rows, bad", [("1,abc,0,0\n", "row 1 column 'x' is not a number: 'abc'"),
                                           ("1,0,0,0\nx1,0,0,0\n", "row 2 column 'step' is not an integer: 'x1'"),
                                           ("1,nan,0,inf\n", "row 1 column 'x' is not finite: 'nan'"),
                                           ("1,0,0,0\n2,0,-inf,0\n", "row 2 column 'y' is not finite: '-inf'"),
                                           ("1,0,0,Infinity\n", "row 1 column 'psi' is not finite: 'Infinity'")])
    def test_non_numeric_cell(self, tmp_path, rows, bad):
        path = tmp_path / "t.csv"
        path.write_text("step,x,y,psi\n" + rows)
        with pytest.raises(FormatError, match=bad):
            load_trajectory(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("step,x,y,psi\n")
        with pytest.raises(FormatError, match="no waypoints"):
            load_trajectory(path)


@functools.cache
def _valid_files():
    """One small valid file per loader, as bytes."""
    labels = np.where(np.arange(24) % 5 == 0, EMPTY, np.arange(24) % 3)
    with tempfile.TemporaryDirectory() as d:
        d = Path(d)
        save_grid(d / "grid", OccupancyGrid(GridSpec((-1.0, 0.5, 0.0), (4, 3, 2), 0.5), labels, num_classes=3))
        save_flows(d / "flows", FlowField(np.linspace(-2.0, 2.0, 18).reshape(2, 3, 3)))
        save_trajectory(d / "trajectory", Trajectory((Waypoint(1.25, -0.5, 0.1), Waypoint(2.5, 0.0, -3.1))))
        return {name: (d / name).read_bytes() for name in ("grid", "flows", "trajectory")}


LOADERS = {"grid": load_grid, "flows": load_flows, "trajectory": load_trajectory}


@st.composite
def _corrupted(draw, data):
    """data truncated, with one bit flipped, or with a span overwritten by arbitrary bytes."""
    kind = draw(st.sampled_from(["truncate", "flip", "overwrite"]))
    i = draw(st.integers(0, len(data) - 1))
    if kind == "truncate":
        return data[:i]
    if kind == "flip":
        return data[:i] + bytes([data[i] ^ 1 << draw(st.integers(0, 7))]) + data[i + 1 :]
    return data[:i] + draw(st.binary(max_size=16)) + data[i + draw(st.integers(0, 16)) :]


def _load_or_raise_value_error(load, data):
    """Load the bytes from a file; a ValueError (FormatError is one) is the only error allowed out."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "input"
        path.write_bytes(data)
        try:
            return load(path)
        except ValueError:
            return None


@settings(derandomize=True, max_examples=400, deadline=None)
@given(loader=st.sampled_from(list(LOADERS)), source=st.sampled_from(list(LOADERS)), data=st.data())
def test_corrupted_or_foreign_file_loads_or_raises_value_error(loader, source, data):
    """A truncated, bit-flipped or overwritten file, of its own format or another loader's, raises only ValueError."""
    _load_or_raise_value_error(LOADERS[loader], data.draw(_corrupted(_valid_files()[source])))


CSV_CELLS = st.text(max_size=6) | st.sampled_from(
    ["1", "2", "-1", "0.5", "1e999", "nan", "-inf", "true", "", " 2 ", "0x1", "1_0", "\u0661", "1.0", "9" * 5000]
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(rows=st.lists(st.lists(CSV_CELLS, max_size=5), max_size=4), header=st.booleans())
def test_trajectory_csv_of_any_cells_loads_or_raises_value_error(rows, header):
    """A CSV whose cells hold any text loads as finite waypoints at steps 1..n, or raises ValueError."""
    text = ("step,x,y,psi\n" if header else "") + "".join(",".join(row) + "\n" for row in rows)
    traj = _load_or_raise_value_error(load_trajectory, text.encode())
    if traj is not None:
        assert np.all(np.isfinite(traj.xy())) and all(math.isfinite(w.psi) for w in traj.waypoints)


class TestDeterministicBytes:
    def test_scene_bytes_stable(self, rng, tmp_path):
        scene = random_scene(rng, 6)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_scene(a, scene)
        save_scene(b, scene)
        assert a.read_bytes() == b.read_bytes()

    def test_grid_bytes_stable(self, tmp_path):
        spec = GridSpec((0, 0, 0), (3, 3, 3), 0.5)
        grid = OccupancyGrid.empty(spec)
        a, b = tmp_path / "a.occ", tmp_path / "b.occ"
        save_grid(a, grid)
        save_grid(b, grid)
        assert a.read_bytes() == b.read_bytes()
