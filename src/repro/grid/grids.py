"""Randomly shifted hierarchical grids (Section 3.1) and integer key codecs.

The grid structure provides, for every level ``i ∈ {-1, 0, …, L}`` with cell
side ``g_i = Δ / 2^i`` (so ``g_{-1} = 2Δ`` and a single level-(-1) cell
contains all of [Δ]^d), the map from points to cell coordinates
``t = ⌊(p − v)/g_i⌋``.  Because every level shares the same shift ``v`` and
sides halve between levels, cells are *nested*: the parent of a cell is
obtained by halving (floor-dividing) its coordinate vector.

Keys
----
Sketches and hash families need points and cells as integers.  The codecs
here are **injective and invertible** (the IBLT decoder must map recovered
integer keys back to actual points/cells), implemented in mixed radix with a
fast ``int64`` path when the universe fits in 62 bits and a Python-bigint
path otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.utils.rng import as_rng
from repro.utils.validation import check_delta, check_points

__all__ = ["HierarchicalGrids", "PointCodec", "CellKey"]


def _encode_rows(coords: np.ndarray, base: int, fits64: bool) -> np.ndarray:
    """Mixed-radix encode each row of a non-negative int array to one integer.

    Returns an int64 array on the fast path, else an object array of Python
    ints.  Row order of digits is most-significant-first on axis 1.
    """
    n, d = coords.shape
    if fits64:
        acc = np.zeros(n, dtype=np.int64)
        for j in range(d):
            acc = acc * base + coords[:, j]
        return acc
    acc = np.zeros(n, dtype=object)
    cols = coords.astype(object)
    for j in range(d):
        acc = acc * base + cols[:, j]
    return acc


def _decode_key(key: int, base: int, d: int) -> tuple[int, ...]:
    """Invert :func:`_encode_rows` for a single key."""
    digits = []
    k = int(key)
    for _ in range(d):
        digits.append(k % base)
        k //= base
    if k != 0:
        raise ValueError(f"key {key} out of range for base {base}, d={d}")
    return tuple(reversed(digits))


@dataclass(frozen=True)
class CellKey:
    """A decoded grid cell: its level and integer coordinate vector."""

    level: int
    coords: tuple[int, ...]


class PointCodec:
    """Injective codec between points of [Δ]^d and integers in [0, (Δ+1)^d)."""

    def __init__(self, delta: int, d: int):
        self.delta = check_delta(delta)
        self.d = int(d)
        self.base = self.delta + 1
        self.universe_bits = max(16, math.ceil(self.d * math.log2(self.base)) + 1)
        self._fits64 = self.universe_bits <= 62

    def encode(self, points: np.ndarray) -> np.ndarray:
        """Encode an (n, d) integer point array to n integer keys.

        Coordinates must lie in [0, Δ] — the codec is injective only
        there; out-of-range digits would alias to a *different* valid
        point's key, so they are rejected rather than encoded.
        """
        pts = np.asarray(points)
        if pts.ndim == 1:
            pts = pts[None, :]
        if pts.size and (pts.min() < 0 or pts.max() > self.delta):
            raise ValueError(
                f"cannot encode coordinates outside [0, {self.delta}]: got "
                f"range [{pts.min()}, {pts.max()}]"
            )
        return _encode_rows(pts, self.base, self._fits64)

    def encode_one(self, point) -> int:
        """Encode a single point (sequence of d ints) to its key."""
        acc = 0
        for c in point:
            c = int(c)
            if not 0 <= c <= self.delta:
                raise ValueError(
                    f"cannot encode coordinate {c} outside [0, {self.delta}]"
                )
            acc = acc * self.base + c
        return acc

    def decode(self, key: int) -> np.ndarray:
        """Decode an integer key back to a length-d point."""
        return np.array(_decode_key(key, self.base, self.d), dtype=np.int64)

    def decode_many(self, keys) -> np.ndarray:
        """Decode a sequence of keys to an (n, d) point array."""
        if len(keys) == 0:
            return np.empty((0, self.d), dtype=np.int64)
        return np.stack([self.decode(k) for k in keys])


class HierarchicalGrids:
    """The randomly shifted nested grids G₋₁, G₀, …, G_L of Section 3.1.

    Parameters
    ----------
    delta:
        Coordinate range Δ (power of two); L = log₂ Δ.
    d:
        Dimension.
    seed:
        Seed / Generator for the uniform shift v ∈ [0, Δ]^d.  Two grid
        objects built from the same (delta, d, seed) are identical — this is
        how the streaming and distributed algorithms share one grid.
    """

    def __init__(self, delta: int, d: int, seed=0):
        self.delta = check_delta(delta)
        self.d = int(d)
        self.L = int(math.log2(self.delta))
        rng = as_rng(seed)
        #: The random shift v; one cell of each grid has a corner at v.
        self.shift = rng.uniform(0.0, float(self.delta), size=self.d)
        # Cell-coordinate encoding: t ∈ [⌊(1-Δ)/g⌋, ⌊Δ/g⌋]; offsetting by
        # 2^i + 1 (≥ Δ/g_i rounded up) makes coordinates non-negative at
        # every level; base covers the full offset range.
        self._coord_base = 2 * self.delta + 4
        self._level_base = self.L + 3
        bits = math.ceil(
            math.log2(self._level_base) + self.d * math.log2(self._coord_base)
        )
        self.cell_universe_bits = max(16, bits + 1)
        self._fits64 = self.cell_universe_bits <= 62
        self.point_codec = PointCodec(self.delta, self.d)

    # -- geometry ------------------------------------------------------------
    def side(self, level: int) -> float:
        """Cell side length g_i = Δ / 2^i (g_{-1} = 2Δ)."""
        self._check_level(level)
        return float(self.delta) / (2.0**level)

    def levels(self):
        """Iterate usable levels 0…L (the partition's levels)."""
        return range(0, self.L + 1)

    def cell_coords(self, points: np.ndarray, level: int) -> np.ndarray:
        """Integer cell coordinates ⌊(p − v)/g_i⌋ for each point, shape (n, d)."""
        self._check_level(level)
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[None, :]
        g = self.side(level)
        return np.floor((pts - self.shift[None, :]) / g).astype(np.int64)

    def cell_diameter(self, level: int) -> float:
        """Upper bound √d · g_i on the distance between two points in one cell."""
        return math.sqrt(self.d) * self.side(level)

    @staticmethod
    def parent_coords(coords: np.ndarray) -> np.ndarray:
        """Coordinates of the parent cell one level up (nested grids ⇒ halve)."""
        return np.floor_divide(np.asarray(coords), 2)

    # -- keys ------------------------------------------------------------------
    def _offset(self, level: int) -> int:
        # Makes shifted coordinates non-negative: |t| ≤ 2^level + 1.
        return (1 << max(level, 0)) + 2

    def cell_keys(self, points: np.ndarray, level: int) -> np.ndarray:
        """Injective integer keys for the cells containing each point."""
        coords = self.cell_coords(points, level)
        return self.encode_cell_coords(coords, level)

    def encode_cell_coords(self, coords: np.ndarray, level: int) -> np.ndarray:
        """Encode raw (n, d) cell coordinates at ``level`` into integer keys."""
        self._check_level(level)
        shifted = np.asarray(coords) + self._offset(level)
        if shifted.size and shifted.min() < 0:
            raise ValueError("cell coordinates below representable range")
        # cell_universe_bits ≤ 62 guarantees level·radix + body < 2^62, so
        # the whole encode stays on the int64 fast path.
        body = _encode_rows(shifted, self._coord_base, fits64=self._fits64)
        lvl = level + 1  # shift level -1 -> 0
        radix = self._coord_base**self.d
        keys = body + lvl * radix
        if self._fits64:
            return keys.astype(np.int64)
        return keys

    def encode_cell(self, coords, level: int) -> int:
        """Encode one cell coordinate vector."""
        arr = np.asarray(coords, dtype=np.int64)[None, :]
        return int(self.encode_cell_coords(arr, level)[0])

    def decode_cell_key(self, key: int) -> CellKey:
        """Decode an integer cell key back to (level, coordinates)."""
        radix = self._coord_base**self.d
        k = int(key)
        lvl = k // radix - 1
        self._check_level(lvl)
        digits = _decode_key(k % radix, self._coord_base, self.d)
        coords = tuple(t - self._offset(lvl) for t in digits)
        return CellKey(level=lvl, coords=coords)

    def parent_keys(self, keys, level: int) -> np.ndarray:
        """Keys of the parent cells (at ``level - 1``) of level-``level`` keys.

        Vectorised decode → halve → encode on the int64 key path; bigint
        keys fall back to the scalar :meth:`decode_cell_key`.
        """
        self._check_level(level)
        self._check_level(level - 1)
        if not self._fits64:
            return np.array([
                self.encode_cell(
                    self.parent_coords(self.decode_cell_key(k).coords), level - 1)
                for k in keys], dtype=object)
        keys = np.asarray(keys, dtype=np.int64)
        radix = self._coord_base**self.d
        body, lvl = keys % radix, keys // radix
        if np.any(lvl != level + 1):
            raise ValueError(f"parent_keys: not all keys are at level {level}")
        coords = np.empty((len(keys), self.d), dtype=np.int64)
        for j in range(self.d - 1, -1, -1):
            body, coords[:, j] = np.divmod(body, self._coord_base)
        coords -= self._offset(level)
        return self.encode_cell_coords(self.parent_coords(coords), level - 1)

    def point_keys(self, points: np.ndarray) -> np.ndarray:
        """Injective integer keys for points (for point-level hashing/sketches)."""
        return self.point_codec.encode(check_points(points, self.delta))

    # -- misc -------------------------------------------------------------------
    def _check_level(self, level: int) -> None:
        if not (-1 <= level <= self.L):
            raise ValueError(f"level must be in [-1, {self.L}], got {level}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HierarchicalGrids(delta={self.delta}, d={self.d}, L={self.L})"
