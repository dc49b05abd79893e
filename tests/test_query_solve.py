"""Served answers under the exact transportation solve.

The last assignment of every fit is the successive-shortest-path solve
(``method="auto"``).  On seeded churn streams the service must answer
exactly what the HiGHS oracle (``_solve_transportation_lp``) in that place
gives, and a query must not import scipy's optimizer.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.assignment.capacitated as capacitated
from repro.data.synthetic import gaussian_mixture
from repro.data.workloads import churn_stream
from repro.service import ClusteringService, ServiceConfig

SRC = Path(__file__).resolve().parents[1] / "src"


def _churn_answers(seed: int, slack: float, batch: int = 150) -> list:
    """(centers, cost) of a cold query after every batch of a churn stream."""
    pts = np.unique(gaussian_mixture(900, 2, 128, k=4, seed=seed), axis=0)
    events = list(churn_stream(pts, delete_fraction=0.3, seed=seed))
    answers = []
    config = ServiceConfig(k=4, d=2, delta=128, seed=seed,
                           capacity_slack=slack)
    with ClusteringService(config) as svc:
        for lo in range(0, len(events), batch):
            svc.apply_events(events[lo: lo + batch])
            res, hit = svc.query()
            assert not hit
            answers.append((res.centers.tolist(), res.cost))
    return answers


@pytest.mark.parametrize("slack", [1.0, 1.2])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_answers_match_highs_final_solve(seed, slack, monkeypatch):
    # At slack 1.0 every final solve pushes excess (4-19 pushes each).
    exact = _churn_answers(seed, slack)

    monkeypatch.setattr(capacitated, "_solve_transportation_ssp",
                        lambda D, w, caps: (capacitated._solve_transportation_lp(D, w, caps), 0))
    assert _churn_answers(seed, slack) == exact


def test_query_does_not_import_scipy_optimize():
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from repro.data.synthetic import gaussian_mixture\n"
        "from repro.service import ClusteringService, ServiceConfig\n"
        "pts = np.unique(gaussian_mixture(300, 2, 64, k=3, seed=1), axis=0)\n"
        "with ClusteringService(ServiceConfig(k=3, d=2, delta=64, seed=1)) as svc:\n"
        "    svc.insert(pts)\n"
        "    res, _ = svc.query()\n"
        "assert len(res.centers) == 3\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
