import math

import numpy as np

from gaussworld.boxes import points_in_rect


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
