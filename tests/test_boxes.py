import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gaussworld.boxes import Box, points_in_rect, rects_overlap


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["center", "size", "yaw"])
def test_box_refuses_non_finite_values(field, bad):
    box = {"center": (1.0, 2.0, 0.5), "size": (4.0, 2.0, 1.5), "yaw": 0.3, "class_id": 1}
    box[field] = bad if field == "yaw" else (bad,) + box[field][1:]
    with pytest.raises(ValueError, match=f"box {field} must be finite"):
        Box(**box)


def test_points_in_rect_rotated_quarter_turn():
    # center (1, 2), yaw 90°: the 4 m length runs along +y and the 2 m width along x,
    # so the rectangle covers x in [0, 2] and y in [0, 4]; z is ignored
    pts = np.array(
        [
            [1.0, 2.0, 9.0],  # center
            [1.0, 4.0, 0.0],  # on the front edge
            [2.0, 2.0, 0.0],  # on a side edge
            [0.0, 0.0, 0.0],  # corner
            [2.0, 3.0, -5.0],  # on a side edge, off-center
            [1.0, 4.01, 0.0],  # just past the front edge
            [2.01, 2.0, 0.0],  # just past a side edge
            [3.0, 2.0, 0.0],  # inside the unrotated rectangle, outside the rotated one
        ]
    )
    got = points_in_rect(pts, 1.0, 2.0, math.pi / 2, 2.0, 1.0)
    assert got.tolist() == [True, True, True, True, True, False, False, False]


def test_points_in_rect_unrotated_edges_inclusive():
    pts = np.array([[2.3, 0.95], [-2.3, -0.95], [2.3000001, 0.0], [0.0, -0.9500001]])
    assert points_in_rect(pts, 0.0, 0.0, 0.0, 2.3, 0.95).tolist() == [True, True, False, False]


def _oracle_sat_gaps(a, b):
    """Frozen per-axis separating-axis test: the signed gap along each rectangle's two edge normals."""

    def corners(cx, cy, yaw, length, width):
        c, s = math.cos(yaw), math.sin(yaw)
        hx, hy = length / 2.0, width / 2.0
        local = np.array([[hx, hy], [hx, -hy], [-hx, -hy], [-hx, hy]])
        return local @ np.array([[c, -s], [s, c]]).T + np.array([cx, cy])

    ca, cb = corners(*a), corners(*b)
    gaps = []
    for yaw in (a[2], b[2]):
        for phi in (yaw, yaw + math.pi / 2.0):
            axis = np.array([math.cos(phi), math.sin(phi)])
            pa, pb = ca @ axis, cb @ axis
            gaps.append(max(pb.min() - pa.max(), pa.min() - pb.max()))
    return gaps


rects = st.tuples(
    st.floats(-6.0, 6.0), st.floats(-6.0, 6.0), st.floats(-7.0, 7.0), st.floats(0.5, 6.0), st.floats(0.5, 3.0)
)


@given(rects, rects)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_rects_overlap_matches_frozen_sat(a, b):
    gaps = _oracle_sat_gaps(a, b)
    assume(min(abs(g) for g in gaps) > 1e-9)  # touching rectangles depend on the last bit of each axis
    assert rects_overlap(a, b) == all(g <= 0 for g in gaps)


def test_rects_touching_edges_overlap():
    assert rects_overlap((0.0, 0.0, 0.0, 4.0, 2.0), (4.0, 0.0, 0.0, 4.0, 2.0))
    assert rects_overlap((0.0, 0.0, 0.0, 4.0, 2.0), (0.0, 2.0, 0.0, 4.0, 2.0))
    assert not rects_overlap((0.0, 0.0, 0.0, 4.0, 2.0), (0.0, 2.01, 0.0, 4.0, 2.0))
