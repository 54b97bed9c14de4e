import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussworld.core import EMPTY
from gaussworld.grid import GridSpec, OccupancyGrid, voxel_centers


def center_of(spec, ijk):
    return voxel_centers(spec)[spec.flat_index(*ijk)]


class TestVoxelCenter:
    def test_origin_voxel(self):
        spec = GridSpec((0, 0, 0), (4, 4, 4), 0.5)
        assert np.allclose(center_of(spec, (0, 0, 0)), (0.25, 0.25, 0.25))

    def test_next_voxel(self):
        spec = GridSpec((0, 0, 0), (4, 4, 4), 0.5)
        assert np.allclose(center_of(spec, (1, 0, 0)), (0.75, 0.25, 0.25))

    def test_negative_origin(self):
        # hand sum: -3 + (2 + 0.5)·0.4 = -2, etc.
        spec = GridSpec((-3.0, -1.0, -0.4), (8, 8, 2), 0.4)
        assert np.allclose(center_of(spec, (2, 0, 1)), (-2.0, -0.8, 0.2))

    def test_centers_match_scalar(self):
        # every centre is origin + (ijk + 0.5)·voxel_size, evaluated per voxel
        spec = GridSpec((-1, 0, 2), (3, 4, 2), 0.7)
        centers = voxel_centers(spec)
        for i in range(3):
            for j in range(4):
                for k in range(2):
                    want = np.array(spec.origin) + (np.array([i, j, k]) + 0.5) * spec.voxel_size
                    assert np.array_equal(centers[spec.flat_index(i, j, k)], want)

    @pytest.mark.parametrize(
        "origin, dims, size",
        [
            ((-8.0, -6.0, -0.5), (56, 24, 6), 0.5),
            ((-50.0, -50.0, -0.5), (200, 200, 16), 0.5),
            ((0.0, 0.0, 0.0), (8, 8, 8), 0.5),
            ((-1.3, 0.7, 2.1), (7, 5, 3), 0.37),
        ],
    )
    def test_centers_equal_scatter_layout(self, origin, dims, size):
        # the meshgrid-then-scatter construction, kept as a bit-exact reference
        spec = GridSpec(origin, dims, size)
        nx, ny, nz = dims
        I, J, K = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij")
        ijk = np.stack([I, J, K], axis=-1).reshape(-1, 3)
        ref = np.empty((spec.num_voxels, 3))
        ref[ijk[:, 0] + nx * (ijk[:, 1] + ny * ijk[:, 2])] = np.array(spec.origin) + (ijk + 0.5) * spec.voxel_size
        assert np.array_equal(voxel_centers(spec), ref)


class TestFlatIndexing:
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_round_trip(self, nx, ny, nz):
        spec = GridSpec((0, 0, 0), (nx, ny, nz), 1.0)
        seen = set()
        for i in range(nx):
            for j in range(ny):
                for k in range(nz):
                    idx = spec.flat_index(i, j, k)
                    assert np.unravel_index(idx, (nz, ny, nx)) == (k, j, i)
                    seen.add(idx)
        assert seen == set(range(spec.num_voxels))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GridSpec((0, 0, 0), (0, 4, 4), 0.5)
        with pytest.raises(ValueError):
            GridSpec((0, 0, 0), (4, 4, 4), -1.0)
        with pytest.raises(ValueError):
            GridSpec((0, 0, 0), (2048, 2048, 2048), 0.1)
        with pytest.raises(ValueError, match="dims"):
            GridSpec((0, 0, 0), (1.5, 2, 3), 1.0)
        assert GridSpec((0, 0, 0), (2.0, 2, 3), 1.0).dims == (2, 2, 3)

    @pytest.mark.parametrize(
        "origin, size, match",
        [
            ((np.nan, 0, 0), 0.5, "origin"),
            ((0, -np.inf, 0), 0.5, "origin"),
            ((0, 0, 0), np.nan, "voxel_size"),
            ((0, 0, 0), np.inf, "voxel_size"),
            ((np.nan, 0, 0), np.nan, "origin"),
        ],
    )
    def test_spec_rejects_non_finite_geometry(self, origin, size, match):
        with pytest.raises(ValueError, match=match):
            GridSpec(origin, (2, 2, 2), size)


class TestOccupancyGrid:
    def test_empty_grid(self):
        spec = GridSpec((0, 0, 0), (2, 2, 2), 1.0)
        grid = OccupancyGrid.empty(spec)
        assert np.all(grid.labels == EMPTY)

    @pytest.mark.parametrize("labels", [np.full(8, 256), np.full(8, -1), np.full(8, 300.0), np.full(8, np.nan)])
    def test_out_of_range_labels_do_not_wrap(self, labels):
        with pytest.raises(ValueError, match="0..255"):
            OccupancyGrid(GridSpec((0, 0, 0), (2, 2, 2), 1.0), labels)

    def test_in_range_labels_of_any_dtype(self):
        spec = GridSpec((0, 0, 0), (2, 2, 2), 1.0)
        grid = OccupancyGrid(spec, [0, 1, 2, 3, 254, 255, 255, 0])
        assert grid.labels.dtype == np.uint8
        assert grid.labels.tolist() == [0, 1, 2, 3, 254, 255, 255, 0]

    def test_uint8_labels_are_not_copied(self):
        labels = np.zeros(8, np.uint8)
        assert np.shares_memory(OccupancyGrid(GridSpec((0, 0, 0), (2, 2, 2), 1.0), labels).labels, labels)

