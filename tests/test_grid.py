import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussworld.core import EMPTY
from gaussworld.grid import GridSpec, OccupancyGrid, box_indices, index_box, voxel_centers


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


SPECS = st.builds(
    GridSpec,
    st.tuples(*[st.floats(-5.0, 5.0)] * 3),
    st.tuples(*[st.integers(1, 9)] * 3),
    st.floats(0.07, 1.3),
)


class TestCentersOnDemand:
    @given(SPECS, st.data())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_rows_keep_their_bits(self, spec, data):
        # any index rows, corners included, give the same centres as the full table
        nx, ny, nz = spec.dims
        corners = [(i, j, k) for i in (0, nx - 1) for j in (0, ny - 1) for k in (0, nz - 1)]
        rows = data.draw(st.lists(st.tuples(st.integers(0, nx - 1), st.integers(0, ny - 1), st.integers(0, nz - 1))))
        ijk = np.array(corners + rows, dtype=int)
        assert np.array_equal(voxel_centers(spec, ijk), voxel_centers(spec)[spec.flat_index(*ijk.T)])

    def test_box_indices_ascend_in_flat_order(self):
        spec = GridSpec((0, 0, 0), (5, 4, 3), 1.0)
        ijk = box_indices((1, 0, 1), (3, 2, 2))
        flat = spec.flat_index(*ijk.T)
        assert len(ijk) == 3 * 3 * 2 and np.all(np.diff(flat) > 0)
        assert box_indices((2, 0, 0), (1, 3, 3)).shape == (0, 3)

    @given(SPECS, st.tuples(*[st.floats(-8.0, 8.0)] * 3), st.tuples(*[st.floats(-8.0, 8.0)] * 3))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_index_box_holds_every_centre_in_the_world_box(self, spec, a, b):
        # boxes off the grid, straddling it and inverted all give bounds that hold every centre inside the box
        lo, hi = index_box(spec, a, b)
        lo, hi = np.array(lo), np.array(hi)
        assert np.all(lo >= 0) and np.all(hi <= np.array(spec.dims) - 1)
        centers = voxel_centers(spec)
        inside = np.all((centers >= a) & (centers <= b), axis=1)
        i, j, k = np.unravel_index(np.flatnonzero(inside), spec.dims[::-1])[::-1]
        ijk = np.stack([i, j, k], axis=1)
        assert np.all((ijk >= lo) & (ijk <= hi))
        assert np.all(hi - lo <= np.floor((np.array(b) - a) / spec.voxel_size).clip(-1) + 3)

    def test_index_box_of_a_far_box_is_empty(self):
        spec = GridSpec((0, 0, 0), (4, 4, 4), 0.5)
        for a, b in [((1e300,) * 3, (2e300,) * 3), ((-2e300,) * 3, (-1e300,) * 3)]:
            lo, hi = index_box(spec, a, b)
            assert np.any(np.array(hi) < lo)
            assert box_indices(lo, hi).shape == (0, 3)


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

    @pytest.mark.parametrize("labels", [[1.5, 2.7], [0.0, 254.5], [1.0, 1e-9]])
    def test_fractional_labels_are_refused(self, labels):
        with pytest.raises(ValueError, match="whole numbers"):
            OccupancyGrid(GridSpec((0, 0, 0), (2, 1, 1), 1.0), np.array(labels))

    def test_whole_float_labels_are_accepted(self):
        grid = OccupancyGrid(GridSpec((0, 0, 0), (3, 1, 1), 1.0), np.array([1.0, 255.0, 0.0]))
        assert grid.labels.tolist() == [1, 255, 0]

    def test_in_range_labels_of_any_dtype(self):
        spec = GridSpec((0, 0, 0), (2, 2, 2), 1.0)
        grid = OccupancyGrid(spec, [0, 1, 2, 3, 254, 255, 255, 0])
        assert grid.labels.dtype == np.uint8
        assert grid.labels.tolist() == [0, 1, 2, 3, 254, 255, 255, 0]

    def test_uint8_labels_are_not_copied(self):
        labels = np.zeros(8, np.uint8)
        assert np.shares_memory(OccupancyGrid(GridSpec((0, 0, 0), (2, 2, 2), 1.0), labels).labels, labels)

