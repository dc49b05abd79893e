"""Extra coverage for thinner corners: CLI kinds, distributed internals,
weighted-set helpers, stream constructors, codec determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.core import CoresetParams
from repro.core.weighted import WeightedPointSet
from repro.data.synthetic import gaussian_mixture
from repro.distributed.network import Network
from repro.distributed.protocol import _machine_substreams
from repro.grid.grids import HierarchicalGrids
from repro.streaming.stream import DELETE, Stream
from repro.streaming.streaming_coreset import StreamingCoresetInstance, _SharedHashes
from repro.utils.rng import derive_seed


class TestCLIGenerateKinds:
    @pytest.mark.parametrize("kind", ["mixture", "unbalanced", "uniform", "outliers"])
    def test_all_kinds(self, kind, tmp_path):
        out = tmp_path / f"{kind}.npy"
        rc = main(["generate", str(out), "--n", "300", "--d", "2",
                   "--delta", "64", "--k", "2", "--kind", kind, "--seed", "1"])
        assert rc == 0
        pts = np.load(out)
        assert pts.shape[1] == 2
        assert pts.min() >= 1 and pts.max() <= 64


class TestMachineSubstreams:
    def test_union_over_machines_equals_central(self):
        """Selections are functions of the shared hashes only, so the union
        over any partition equals the selection over the union."""
        pts = np.unique(gaussian_mixture(600, 2, 128, k=2, seed=3), axis=0)
        params = CoresetParams.practical(k=2, d=2, delta=128)
        grids = HierarchicalGrids(128, 2, seed=derive_seed(9, "grids"))
        shared = _SharedHashes(params, grids, derive_seed(9, "hashes"))
        o = 5e4
        whole = _machine_substreams(pts, grids, shared, params, o)
        net = Network.partition(pts, 3, seed=4)
        parts = [_machine_substreams(m.points, grids, shared, params, o)
                 for m in net.machines]
        for stream_idx in range(3):
            for level in range(params.L + 1):
                merged = sorted(
                    item for pm in parts for item in pm[stream_idx][level]
                )
                assert merged == sorted(whole[stream_idx][level])

    def test_thresholds_pinned_to_instances_on_83_bit_prime(self, monkeypatch):
        """At d=8, Δ=1024 point keys need an 83-bit prime, where a float64
        ⌊ψ·p⌋ drifts from the exact threshold.  With every field value set
        to one below a streaming instance's threshold (even points) or to
        the threshold itself (odd points), the simulation must sample
        exactly the even points, in point order, at every level."""
        params = CoresetParams.practical(k=2, d=8, delta=1024)
        grids = HierarchicalGrids(1024, 8, seed=derive_seed(3, "grids"))
        shared = _SharedHashes(params, grids, derive_seed(3, "hashes"))
        prime = shared.h[0].prime
        assert prime.bit_length() == 83
        pts = np.random.default_rng(3).integers(1, 1025, size=(12, 8))
        pkeys = grids.point_keys(pts).tolist()
        odd = np.arange(len(pts)) % 2
        rates = (params.psi, params.psi_part, params.phi)
        drifted = 0
        for o in (2.0 ** 7, 2.0 ** 30, 2.0 ** 61, 2.0 ** 90):
            inst = StreamingCoresetInstance(params, o, grids, shared)
            forced = tuple(np.array([[int(t) - 1 + int(b) for b in odd] for t in col[:, 0]],
                                    dtype=object) for col in inst._thresholds)
            monkeypatch.setattr(shared, "values_np", lambda keys, v=forced: v)
            subs = _machine_substreams(pts, grids, shared, params, o)
            for rate, col, sub in zip(rates, inst._thresholds, subs):
                for i in range(params.L + 1):
                    drifted += int(rate(i, o) * prime) != int(col[i, 0])
                    cells = grids.cell_keys(pts, i).tolist()
                    assert sub[i] == [(cells[j], pkeys[j]) for j in range(0, len(pts), 2)]
        assert drifted  # the float rule would move samples at these guesses

    def test_empty_machine(self):
        params = CoresetParams.practical(k=2, d=2, delta=64)
        grids = HierarchicalGrids(64, 2, seed=1)
        shared = _SharedHashes(params, grids, 2)
        out = _machine_substreams(np.empty((0, 2), dtype=np.int64),
                                  grids, shared, params, 100.0)
        assert all(not lvl for group in out for lvl in group)


class TestWeightedPointSet:
    def test_unit_constructor(self):
        ws = WeightedPointSet.unit(np.array([[1, 2], [3, 4]]))
        assert np.allclose(ws.weights, 1.0)
        assert ws.total_weight == 2.0

    def test_subset(self):
        ws = WeightedPointSet(np.array([[1, 2], [3, 4], [5, 6]]),
                              np.array([1.0, 2.0, 3.0]))
        sub = ws.subset(np.array([0, 2]))
        assert len(sub) == 2
        assert sub.total_weight == 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightedPointSet(np.array([[1, 2]]), np.array([-1.0]))
        with pytest.raises(ValueError):
            WeightedPointSet(np.array([1, 2]), np.array([1.0]))


class TestStreamConstructors:
    def test_from_points_delete_sign(self):
        s = Stream.from_points(np.array([[1, 2]]), sign=DELETE)
        assert s.events[0].sign == DELETE

    def test_events_preserve_coordinates(self):
        s = Stream.from_points(np.array([[7, 9]], dtype=np.int64))
        assert s.events[0].point == (7, 9)


class TestCodecDeterminism:
    def test_cell_keys_stable_across_processes_simulation(self):
        """Same (delta, d, seed) must give identical keys — the property the
        distributed broadcast relies on."""
        a = HierarchicalGrids(256, 3, seed=77)
        b = HierarchicalGrids(256, 3, seed=77)
        pts = np.random.default_rng(0).integers(1, 257, size=(50, 3))
        for level in (0, 4, 8):
            assert list(a.cell_keys(pts, level)) == list(b.cell_keys(pts, level))

    def test_shared_hashes_deterministic(self):
        params = CoresetParams.practical(k=2, d=2, delta=64)
        grids = HierarchicalGrids(64, 2, seed=5)
        h1 = _SharedHashes(params, grids, 42)
        h2 = _SharedHashes(params, grids, 42)
        keys = [3, 17, 999]
        for i in range(params.L + 1):
            assert h1.h[i].values(keys) == h2.h[i].values(keys)
            assert h1.hhat[i].values(keys) == h2.hhat[i].values(keys)
