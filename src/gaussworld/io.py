"""Versioned file formats with lossless round-trips.

Scenes travel as JSON (small, inspectable): a format tag, a version, the class
names and one object per Gaussian; any other top-level key is ignored. Grids
and flows are little-endian binaries with a 4-byte magic and a u32 version;
trajectories are plain CSV. Loaders reject unknown versions instead of guessing.
"""

from __future__ import annotations

import csv
import json
import os
import struct
from dataclasses import fields
from itertools import chain

import numpy as np

from .core import EMPTY, MAX_CLASSES, GaussianScene
from .flow import FlowField, Trajectory, Waypoint
from .grid import GridSpec, OccupancyGrid

SCENE_FORMAT = "gauss-scene"
SCENE_VERSION = 1
GRID_MAGIC = b"OCCG"
GRID_VERSION = 1
FLOW_MAGIC = b"GFLW"
FLOW_VERSION = 1
TRAJECTORY_HEADER = ["step", "x", "y", "psi"]
NUMBER_TYPES = {int, float}  # what json.load makes of a JSON number; bool and str are refused


class FormatError(ValueError):
    """Malformed or unsupported file content."""


def from_dict(cls, doc, what):
    """Dataclass `cls` from a JSON object keyed by field names; bad input is a ValueError naming `what`."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(doc).__name__}")
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {what} keys {unknown}")
    try:
        return cls(**doc)
    except TypeError as e:
        raise ValueError(f"malformed {what}: {e}") from e


def save_scene(path, scene: GaussianScene):
    doc = {
        "format": SCENE_FORMAT,
        "version": SCENE_VERSION,
        "class_names": list(scene.class_names),
        "gaussians": [
            {
                "mu": scene.means[i].tolist(),
                "log_scale": scene.log_scales[i].tolist(),
                "quat": scene.rotations[i].tolist(),
                "logits": scene.logits[i].tolist(),
            }
            for i in range(len(scene))
        ],
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def load_scene(path):
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise FormatError(f"malformed scene document: {e}") from e
    if not isinstance(doc, dict):
        raise FormatError(f"scene document must be a JSON object, not {type(doc).__name__}")
    if doc.get("format") != SCENE_FORMAT:
        raise FormatError(f"unexpected format field {doc.get('format')!r}")
    if doc.get("version") != SCENE_VERSION:
        raise FormatError(f"unsupported version {doc.get('version')!r}")
    for key in ("class_names", "gaussians"):
        if not isinstance(doc.get(key), list):
            raise FormatError(f"field {key!r} is missing or not a list")
    class_names = tuple(doc["class_names"])
    C = len(class_names)
    gs = doc["gaussians"]
    means = np.zeros((len(gs), 3))
    log_scales = np.zeros((len(gs), 3))
    rotations = np.zeros((len(gs), 4))
    logits = np.zeros((len(gs), C))
    try:
        for i, g in enumerate(gs):
            for key, width in (("mu", 3), ("log_scale", 3), ("quat", 4), ("logits", C)):
                if not isinstance(g.get(key), list) or len(g[key]) != width:
                    raise ValueError(f"field {key!r} must be a list of {width} entries")
            means[i] = g["mu"]
            log_scales[i] = g["log_scale"]
            rotations[i] = g["quat"]
            logits[i] = g["logits"]
    except (AttributeError, OverflowError, TypeError, ValueError) as e:
        raise FormatError(f"gaussian {i}: {e}") from e
    for key in ("mu", "log_scale", "quat", "logits"):  # NumPy has already parsed "2" and true as numbers
        if not set(map(type, chain.from_iterable(g[key] for g in gs))) <= NUMBER_TYPES:
            i = next(i for i, g in enumerate(gs) if not set(map(type, g[key])) <= NUMBER_TYPES)
            raise FormatError(f"gaussian {i}: field {key!r} must hold finite numbers, not {gs[i][key]!r}")
    try:
        return GaussianScene(means, log_scales, rotations, logits, class_names)
    except ValueError as e:
        raise FormatError(f"invalid scene: {e}") from e


def save_grid(path, grid: OccupancyGrid):
    spec = grid.spec
    with open(path, "wb") as f:
        f.write(GRID_MAGIC)
        f.write(struct.pack("<I", GRID_VERSION))
        f.write(struct.pack("<3d", *spec.origin))
        f.write(struct.pack("<3I", *spec.dims))
        f.write(struct.pack("<d", spec.voxel_size))
        f.write(struct.pack("<I", grid.inferred_num_classes()))
        f.write(grid.labels.tobytes())


def _read_exact(f, n, what):
    """Read n bytes; a size the rest of the file cannot hold is refused before anything is allocated."""
    offset = f.tell()
    left = os.fstat(f.fileno()).st_size - offset
    data = f.read(n) if n <= left else b""
    if len(data) != n:
        raise FormatError(f"truncated file while reading {what} at byte offset {offset}: {n} bytes declared, {left} left")
    return data


def load_grid(path):
    with open(path, "rb") as f:
        magic = _read_exact(f, 4, "magic")
        if magic != GRID_MAGIC:
            raise FormatError(f"bad magic {magic!r} at byte offset 0")
        (version,) = struct.unpack("<I", _read_exact(f, 4, "version"))
        if version != GRID_VERSION:
            raise FormatError(f"unsupported version {version}")
        origin = struct.unpack("<3d", _read_exact(f, 24, "origin"))
        dims = struct.unpack("<3I", _read_exact(f, 12, "dims"))
        (voxel_size,) = struct.unpack("<d", _read_exact(f, 8, "voxel_size"))
        (num_classes,) = struct.unpack("<I", _read_exact(f, 4, "class count"))
        if num_classes > MAX_CLASSES:
            raise FormatError(f"class count {num_classes} exceeds the maximum of {MAX_CLASSES}")
        labels = np.frombuffer(_read_exact(f, dims[0] * dims[1] * dims[2], "labels"), dtype=np.uint8)
    # a class count of 0 leaves it unknown, so every label below EMPTY is a class
    bad = np.flatnonzero((labels != EMPTY) & (labels >= (num_classes or MAX_CLASSES)))
    if bad.size:
        raise FormatError(f"voxel {bad[0]} has label {labels[bad[0]]}, but the header declares {num_classes} classes")
    return OccupancyGrid(GridSpec(origin, dims, voxel_size), labels, num_classes)


def save_flows(path, flows: FlowField):
    F, N, _ = flows.steps.shape
    with open(path, "wb") as f:
        f.write(FLOW_MAGIC)
        f.write(struct.pack("<I", FLOW_VERSION))
        f.write(struct.pack("<II", F, N))
        f.write(flows.steps.astype("<f4").tobytes())


def load_flows(path, expected_gaussians=None):
    with open(path, "rb") as f:
        magic = _read_exact(f, 4, "magic")
        if magic != FLOW_MAGIC:
            raise FormatError(f"bad magic {magic!r} at byte offset 0")
        (version,) = struct.unpack("<I", _read_exact(f, 4, "version"))
        if version != FLOW_VERSION:
            raise FormatError(f"unsupported version {version}")
        F, N = struct.unpack("<II", _read_exact(f, 8, "shape"))
        data = np.frombuffer(_read_exact(f, F * N * 3 * 4, "displacements"), dtype="<f4")
    if expected_gaussians is not None and N != expected_gaussians:
        raise FormatError(f"flow field covers {N} Gaussians, scene has {expected_gaussians}")
    bad = np.flatnonzero(~np.isfinite(data))  # before the cast: a signalling NaN warns when cast to float64
    if bad.size:
        step, g, axis = np.unravel_index(bad[0], (F, N, 3))
        raise FormatError(f"displacement [{step}, {g}, {axis}] is {data[bad[0]]}, not finite")
    return FlowField(data.astype(np.float64).reshape(F, N, 3))


def save_trajectory(path, trajectory: Trajectory):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(TRAJECTORY_HEADER)
        for k, w in enumerate(trajectory.waypoints, start=1):
            writer.writerow([k, repr(w.x), repr(w.y), repr(w.psi)])


def load_trajectory(path):
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        missing = [c for c in TRAJECTORY_HEADER if reader.fieldnames is None or c not in reader.fieldnames]
        if missing:
            raise FormatError(f"trajectory CSV missing column {missing[0]!r}")
        rows = list(reader)
    if not rows:
        raise FormatError("trajectory CSV has no waypoints")
    for n, r in enumerate(rows, start=1):
        short = [c for c in TRAJECTORY_HEADER if r[c] is None]
        if short:
            raise FormatError(f"trajectory CSV row {n} has no {short[0]!r} value")
        for c, cast in zip(TRAJECTORY_HEADER, (int, float, float, float)):
            try:
                v = cast(r[c])
            except ValueError:
                kind = "an integer" if cast is int else "a number"
                raise FormatError(f"trajectory CSV row {n} column {c!r} is not {kind}: {r[c]!r}") from None
            if not np.isfinite(v):
                raise FormatError(f"trajectory CSV row {n} column {c!r} is not finite: {r[c]!r}")
            r[c] = v
    rows.sort(key=lambda r: r["step"])
    for k, r in enumerate(rows, start=1):
        if r["step"] != k:
            raise FormatError(f"trajectory steps must be 1..{len(rows)}: step {r['step']} found where step {k} belongs")
    return Trajectory(tuple(Waypoint(r["x"], r["y"], r["psi"]) for r in rows))
