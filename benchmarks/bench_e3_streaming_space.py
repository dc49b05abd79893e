"""E3 — Streaming space (Theorem 4.5).

Claim: one pass over a dynamic stream, poly(ε⁻¹η⁻¹ k d log Δ) bits of space.

Table: stream length n vs (a) the *charged* sketch layout of the winning
guess (the worst-case O(α·β)-per-level budget Lemma 4.2 allocates — flat in
n by construction), (b) the *resident* bits actually materialized, and
(c) the raw input size n·d·log₂Δ.  The shape to check: both sketch series
flatten while the input grows linearly, so the crossover where the sketch
wins appears at moderate n.
"""

from __future__ import annotations

import time

import pytest

from common import make_mixture, print_table, standard_params
from repro.data.workloads import churn_stream
from repro.solvers.pilot import estimate_opt_cost
from repro.streaming import StreamingCoreset, materialize
from repro.utils.bits import point_bits


def _one(n, params, seed=7):
    pts, _ = make_mixture(n, 2, 1024, 3, seed=seed)
    stream = churn_stream(pts, delete_fraction=0.3, seed=seed)
    survivors = materialize(stream, d=2)
    pilot = estimate_opt_cost(survivors, 3, r=2.0, seed=seed)
    sc = StreamingCoreset(params, seed=31, backend="sketch",
                          o_range=(pilot / 16, pilot / 4))
    t0 = time.time()
    sc.update_batch(stream)
    cs, inst = sc.finalize_with_instance()
    dt = time.time() - t0
    charged = inst.space_bits()
    resident = sum(
        s.resident_bits()
        for group in (inst.store_h, inst.store_hp, inst.store_hhat)
        for s in group
    )
    raw = len(survivors) * point_bits(2, 1024)
    return [len(stream), len(survivors), len(cs),
            charged // 8000, resident // 8000, raw // 8000,
            round(dt, 1)]


@pytest.mark.benchmark(group="E3")
def test_e3_space_vs_stream_length(benchmark):
    params = standard_params(3, 2, 1024)
    rows = [_one(n, params) for n in (2000, 4000, 8000)]
    print_table(
        "E3: streaming sketch space vs stream length (k=3, d=2, Δ=1024; 30% churn)",
        ["events", "survivors", "|Q'|", "charged KB", "resident KB",
         "raw input KB", "sec"],
        rows,
    )
    charged = [r[3] for r in rows]
    raw = [r[5] for r in rows]
    # The charged layout must be essentially flat while input grows ~4x.
    assert charged[-1] <= 2 * charged[0] + 1
    assert raw[-1] >= 3 * raw[0]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


@pytest.mark.benchmark(group="E3")
def test_e3_exact_backend_throughput(benchmark):
    """Throughput of the reference (dictionary) backend over the full
    parallel-guess driver — the practical configuration."""
    params = standard_params(3, 2, 1024)
    pts, _ = make_mixture(4000, 2, 1024, 3, seed=3)
    stream = churn_stream(pts, delete_fraction=0.3, seed=3)
    survivors = materialize(stream, d=2)
    pilot = estimate_opt_cost(survivors, 3, r=2.0, seed=3)

    def run():
        sc = StreamingCoreset(params, seed=9, backend="exact",
                              o_range=(pilot / 64, pilot / 4))
        sc.update_batch(stream)
        return sc.finalize()

    cs = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "E3b: exact-backend driver",
        ["events", "survivors", "|Q'|", "o"],
        [[len(stream), len(survivors), len(cs), f"{cs.o:.3g}"]],
    )
