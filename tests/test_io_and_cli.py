"""Tests for coreset serialization and the CLI."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.core import CoresetParams, build_coreset_auto
from repro.core.io import load_coreset, params_from_dict, params_to_dict, save_coreset
from repro.data.synthetic import gaussian_mixture


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    pts = np.unique(gaussian_mixture(1500, 2, 256, k=3, seed=33), axis=0)
    params = CoresetParams.practical(k=3, d=2, delta=256)
    cs = build_coreset_auto(pts, params, seed=5)
    return pts, params, cs


class TestIO:
    def test_roundtrip(self, built, tmp_path):
        pts, params, cs = built
        path = tmp_path / "c.npz"
        save_coreset(path, cs, params)
        loaded, lparams = load_coreset(path)
        assert np.array_equal(loaded.points, cs.points)
        assert np.allclose(loaded.weights, cs.weights)
        assert np.array_equal(loaded.part_ids, cs.part_ids)
        assert loaded.o == cs.o
        assert loaded.parts == cs.parts
        assert lparams == params

    def test_roundtrip_without_params(self, built, tmp_path):
        _, _, cs = built
        path = tmp_path / "c2.npz"
        save_coreset(path, cs)
        loaded, lparams = load_coreset(path)
        assert lparams is None
        assert len(loaded) == len(cs)

    def test_params_dict_roundtrip(self, built):
        _, params, _ = built
        assert params_from_dict(params_to_dict(params)) == params

    def test_loaded_coreset_usable_for_transfer(self, built, tmp_path):
        """A reloaded coreset must still drive Section 3.3 extension."""
        from repro.assignment.transfer import extend_assignment_to_points
        from repro.grid.grids import HierarchicalGrids
        from repro.solvers.kmeanspp import kmeans_plusplus
        from repro.utils.rng import derive_seed

        pts, params, cs = built
        path = tmp_path / "c3.npz"
        save_coreset(path, cs, params)
        loaded, lparams = load_coreset(path)
        grids = HierarchicalGrids(256, 2, seed=derive_seed(5, "grids"))
        Z = kmeans_plusplus(pts.astype(float), 3, seed=1)
        labels = extend_assignment_to_points(pts, loaded, lparams, grids, Z,
                                             len(pts) / 3 * 1.3)
        assert labels.shape == (len(pts),)


class TestCLI:
    def test_generate_build_info_pipeline(self, tmp_path, capsys):
        pts_path = tmp_path / "pts.npy"
        cs_path = tmp_path / "cs.npz"
        assert main(["generate", str(pts_path), "--n", "1500", "--d", "2",
                     "--delta", "256", "--k", "3", "--seed", "1"]) == 0
        assert main(["build", str(pts_path), str(cs_path), "--k", "3",
                     "--delta", "256", "--seed", "2"]) == 0
        assert main(["info", str(cs_path)]) == 0
        out = capsys.readouterr().out
        assert "coreset" in out
        assert "accepted guess o" in out

    def test_solve_command(self, tmp_path, capsys):
        pts_path = tmp_path / "pts.npy"
        cs_path = tmp_path / "cs.npz"
        main(["generate", str(pts_path), "--n", "1200", "--d", "2",
              "--delta", "256", "--k", "2", "--seed", "3"])
        main(["build", str(pts_path), str(cs_path), "--k", "2",
              "--delta", "256"])
        assert main(["solve", str(cs_path)]) == 0
        assert "max load / capacity" in capsys.readouterr().out

    def test_evaluate_command_passes(self, tmp_path, capsys):
        pts_path = tmp_path / "pts.npy"
        cs_path = tmp_path / "cs.npz"
        main(["generate", str(pts_path), "--n", "1500", "--d", "2",
              "--delta", "256", "--k", "3", "--seed", "4"])
        main(["build", str(pts_path), str(cs_path), "--k", "3",
              "--delta", "256"])
        rc = main(["evaluate", str(pts_path), str(cs_path), "--centers", "2"])
        out = capsys.readouterr().out
        assert "worst ratio" in out
        assert rc == 0

    def test_stream_command(self, tmp_path, capsys):
        pts_path = tmp_path / "pts.npy"
        cs_path = tmp_path / "cs.npz"
        main(["generate", str(pts_path), "--n", "1200", "--d", "2",
              "--delta", "256", "--k", "3", "--seed", "5"])
        assert main(["stream", str(pts_path), str(cs_path), "--k", "3",
                     "--delta", "256", "--delete-fraction", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "deletions" in out

    def test_solve_without_params_exits_2(self, built, tmp_path):
        _, _, cs = built
        path = tmp_path / "noparams.npz"
        save_coreset(path, cs)
        assert main(["solve", str(path)]) == 2


class TestClientPullState:
    def test_pulled_file_restores_and_answers_like_the_pulled_service(
            self, tmp_path, capsys):
        from repro.service import (
            ClusteringService,
            ServiceClient,
            ServiceConfig,
            TenantRegistry,
            start_async_server,
        )

        pts = np.unique(gaussian_mixture(300, 2, 64, k=3, seed=8), axis=0)
        reg = TenantRegistry(ServiceConfig(k=3, d=2, delta=64, seed=5))
        server, thread = start_async_server(reg)
        host, port = server.address
        path = tmp_path / "pulled.json"
        try:
            with ServiceClient(host, port) as cli:
                cli.insert(pts, batch_size=64)
                want = cli.query()
                state = cli.pull_state()
            assert main(["client", "pull_state", "--host", host,
                         "--port", str(port), "--path", str(path)]) == 0
        finally:
            server.shutdown()
            thread.join(10)
            reg.close(persist=False)
        assert "pulled state" in capsys.readouterr().out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pulled.json"]
        restored = ClusteringService.restore(path)
        assert restored.state_payload() == \
            ClusteringService.from_payload(state).state_payload()
        got, _ = restored.query()
        assert got.cost == want["cost"] and got.o == want["o"]
        assert got.centers.tolist() == want["centers"]
