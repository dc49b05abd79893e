"""Tests for hierarchical grids, codecs, and discretization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid import HierarchicalGrids, PointCodec, discretize, dediscretize
from repro.grid.grids import CellKey


class TestPointCodec:
    @pytest.mark.parametrize("delta,d", [(16, 2), (1024, 3), (1 << 12, 8)])
    def test_roundtrip(self, delta, d):
        codec = PointCodec(delta, d)
        rng = np.random.default_rng(0)
        pts = rng.integers(1, delta + 1, size=(50, d))
        keys = codec.encode(pts)
        back = codec.decode_many(list(keys))
        assert np.array_equal(back, pts)

    def test_injective(self):
        codec = PointCodec(64, 3)
        rng = np.random.default_rng(1)
        pts = np.unique(rng.integers(1, 65, size=(500, 3)), axis=0)
        keys = set(int(k) for k in codec.encode(pts))
        assert len(keys) == len(pts)

    def test_big_universe_uses_objects(self):
        codec = PointCodec(1 << 12, 8)
        assert codec.universe_bits > 62
        pts = np.full((2, 8), 1 << 12, dtype=np.int64)
        keys = codec.encode(pts)
        assert codec.decode(keys[0]).tolist() == pts[0].tolist()

    @given(st.integers(min_value=2, max_value=6))
    @settings(max_examples=10)
    def test_encode_one_matches_encode(self, d):
        codec = PointCodec(256, d)
        pt = np.arange(1, d + 1)
        assert codec.encode_one(pt) == int(codec.encode(pt[None, :])[0])

    def test_out_of_range_rejected_not_aliased(self):
        """Regression: the mixed-radix encoding (base Δ+1) is injective only
        on coordinates in [0, Δ].  ``(1, -1)`` used to encode to
        ``1·65 + (-1) = 64`` — the *same key as the valid point (0, 64)* —
        silently crediting sketch updates to the wrong point.  Both encode
        paths must reject instead of aliasing."""
        codec = PointCodec(64, 2)
        assert codec.encode_one((0, 64)) == 64  # the victim key
        with pytest.raises(ValueError, match="outside"):
            codec.encode_one((1, -1))
        with pytest.raises(ValueError, match="outside"):
            codec.encode(np.array([[1, -1]]))
        with pytest.raises(ValueError, match="outside"):
            codec.encode_one((0, 65))  # > Δ aliases forward the same way
        with pytest.raises(ValueError, match="outside"):
            codec.encode(np.array([[3, 3], [0, 65]]))

    def test_boundary_coordinates_encodable(self):
        """0 and Δ are inside the injective window and must roundtrip."""
        codec = PointCodec(64, 2)
        pts = np.array([[0, 0], [0, 64], [64, 0], [64, 64]])
        keys = codec.encode(pts)
        assert len(set(map(int, keys))) == len(pts)
        assert np.array_equal(codec.decode_many(list(keys)), pts)


class TestHierarchicalGrids:
    def test_levels_and_sides(self):
        g = HierarchicalGrids(1024, 3, seed=0)
        assert g.L == 10
        assert g.side(0) == 1024.0
        assert g.side(10) == 1.0
        assert g.side(-1) == 2048.0

    def test_same_seed_same_shift(self):
        a = HierarchicalGrids(256, 2, seed=42)
        b = HierarchicalGrids(256, 2, seed=42)
        assert np.array_equal(a.shift, b.shift)

    def test_cell_coords_nested(self):
        """Parent coordinates are the floor-halved child coordinates."""
        g = HierarchicalGrids(256, 3, seed=7)
        rng = np.random.default_rng(3)
        pts = rng.integers(1, 257, size=(200, 3))
        for level in range(1, g.L + 1):
            child = g.cell_coords(pts, level)
            parent = g.cell_coords(pts, level - 1)
            assert np.array_equal(np.floor_divide(child, 2), parent)

    def test_cell_key_roundtrip(self):
        g = HierarchicalGrids(256, 2, seed=5)
        pts = np.array([[1, 1], [256, 256], [100, 200]])
        for level in (0, 3, 8):
            keys = g.cell_keys(pts, level)
            coords = g.cell_coords(pts, level)
            for k, c in zip(keys, coords):
                decoded = g.decode_cell_key(int(k))
                assert decoded == CellKey(level=level, coords=tuple(int(x) for x in c))

    def test_points_same_cell_within_diameter(self):
        g = HierarchicalGrids(256, 2, seed=9)
        rng = np.random.default_rng(4)
        pts = rng.integers(1, 257, size=(500, 2))
        level = 4
        keys = g.cell_keys(pts, level)
        uniq, inv = np.unique(keys, return_inverse=True)
        diam = g.cell_diameter(level)
        for j in range(len(uniq)):
            cell_pts = pts[inv == j].astype(float)
            if len(cell_pts) > 1:
                spread = np.linalg.norm(
                    cell_pts[:, None, :] - cell_pts[None, :, :], axis=2
                ).max()
                assert spread <= diam + 1e-9

    def test_keys_distinct_across_levels(self):
        g = HierarchicalGrids(64, 2, seed=1)
        pt = np.array([[10, 10]])
        keys = {int(g.cell_keys(pt, lv)[0]) for lv in range(0, g.L + 1)}
        assert len(keys) == g.L + 1

    @pytest.mark.parametrize("delta,d", [(64, 2), (1024, 3), (1 << 12, 8)])
    def test_parent_keys_match_scalar_decode(self, delta, d):
        """Vectorised parents equal decode → halve → encode, key by key
        (the d=8 grid exercises the bigint fallback)."""
        g = HierarchicalGrids(delta, d, seed=2)
        pts = np.random.default_rng(3).integers(1, delta + 1, size=(40, d))
        for level in range(1, g.L + 1):
            keys = g.cell_keys(pts, level)
            want = [g.encode_cell(g.parent_coords(g.decode_cell_key(k).coords),
                                  level - 1) for k in keys]
            assert g.parent_keys(list(keys), level).tolist() == want
            # Parents of a level's cells are that level-1's cells.
            assert want == [int(k) for k in g.cell_keys(pts, level - 1)]
        assert len(g.parent_keys([], 1)) == 0

    def test_parent_keys_reject_wrong_level(self):
        g = HierarchicalGrids(64, 2, seed=1)
        keys = g.cell_keys(np.array([[10, 10]]), 3)
        with pytest.raises(ValueError):
            g.parent_keys(keys, 2)

    def test_invalid_level_rejected(self):
        g = HierarchicalGrids(64, 2, seed=1)
        with pytest.raises(ValueError):
            g.side(g.L + 1)
        with pytest.raises(ValueError):
            g.side(-2)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            HierarchicalGrids(1000, 2)


class TestDiscretize:
    def test_roundtrip_error_bounded(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(0, 10, size=(300, 3))
        grid, t = discretize(pts, 1024)
        assert grid.min() >= 1 and grid.max() <= 1024
        back = dediscretize(grid, t)
        span = pts.max(0) - pts.min(0)
        # Max rounding error is half a grid cell in original units.
        assert np.abs(back - pts).max() <= 0.51 * span.max() / 1023

    def test_preserves_relative_distances(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(0, 5, size=(100, 2))
        grid, t = discretize(pts, 4096)
        d_orig = np.linalg.norm(pts[0] - pts[1])
        d_grid = np.linalg.norm((grid[0] - grid[1]).astype(float)) / t.scale
        assert abs(d_grid - d_orig) < 0.01 * max(d_orig, 1.0)

    def test_degenerate_single_point(self):
        grid, t = discretize(np.array([[3.0, 4.0]]), 16)
        assert grid.shape == (1, 2)
        assert (1 <= grid).all() and (grid <= 16).all()

    def test_empty_input(self):
        grid, _ = discretize(np.empty((0, 4)), 64)
        assert grid.shape == (0, 4)
