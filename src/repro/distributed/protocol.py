"""The distributed protocols of Section 4.3.

:func:`distributed_storing` implements Lemma 4.6: every machine computes its
local non-empty cells for one (level, sub-stream), sends cells + local
counts + local small-cell points (or FAIL when it holds more than α cells),
and the coordinator merges — yielding exactly the :class:`StoringResult`
contract of the streaming sketches.

:func:`distributed_coreset` implements Theorem 4.7:

1. the coordinator broadcasts the grid shift and hash seeds (all machines
   must agree on the randomness);
2. a two-round pilot protocol stands in for the [FL11/BFL16/…] distributed
   2-approximation of OPT: machines send uniform samples, the coordinator
   seeds centers and broadcasts them, machines return their exact local
   costs — the summed cost upper-bounds OPT over the full input;
3. guesses o descend from pilot/8; for each, the 3(L+1) Storing protocols
   run and the coordinator replays Algorithms 1+2 via
   :func:`repro.streaming.streaming_coreset.assemble_coreset`; a FAIL
   halves o and retries (every retry's communication stays charged).
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from repro.core.params import CoresetParams
from repro.core.weighted import Coreset
from repro.distributed.network import Network
from repro.grid.grids import HierarchicalGrids
from repro.metrics.costs import uncapacitated_cost
from repro.solvers.kmeanspp import kmeans_plusplus
from repro.streaming.storing import StoringResult
from repro.streaming.streaming_coreset import _SharedHashes, assemble_coreset, sample_masks
from repro.utils.bits import cells_bits, float_bits, point_bits
from repro.utils.rng import as_rng, derive_seed
from repro.utils.validation import FailedConstruction

__all__ = ["distributed_storing", "distributed_coreset"]


def distributed_storing(
    network: Network,
    local_items: list,
    alpha: int,
    beta: int,
    params: CoresetParams,
    recover_points: bool = True,
    label: str = "storing",
) -> StoringResult:
    """Lemma 4.6: merge per-machine (cell_key, point_key) multisets.

    ``local_items[j]`` is machine j's list of (cell_key, point_key) pairs for
    this sub-stream.  Raises :class:`FailedConstruction` when any machine
    exceeds α local non-empty cells (the lemma's FAIL).
    """
    merged_cells: Counter = Counter()
    merged_points: dict[int, Counter] = {}
    cell_id_bits = cells_bits(1, params.d, params.delta, params.L + 2)
    pt_bits = point_bits(params.d, params.delta)

    for j, items in enumerate(local_items):
        cells: Counter = Counter()
        pts: dict[int, Counter] = {}
        for ck, pk in items:
            cells[ck] += 1
            if recover_points:
                pts.setdefault(ck, Counter())[pk] += 1
        if len(cells) > alpha:
            network.send_up(j, "FAIL", bits=8, label=f"{label}-fail")
            raise FailedConstruction(
                f"machine {j}: {len(cells)} local cells exceed alpha={alpha}"
            )
        small_local = {c: p for c, p in pts.items() if cells[c] <= beta}
        n_small = sum(len(p) for p in small_local.values())
        bits = len(cells) * (cell_id_bits + 64) + n_small * pt_bits
        network.send_up(j, (cells, small_local), bits=bits, label=label)
        merged_cells.update(cells)
        for c, p in small_local.items():
            merged_points.setdefault(c, Counter()).update(p)

    small = {}
    if recover_points:
        for c, cnt in merged_cells.items():
            if cnt <= beta:
                # Every machine's local share was ≤ β, so all points arrived.
                small[c] = dict(merged_points.get(c, {}))
    return StoringResult(cells=dict(merged_cells), small_points=small)


def _machine_substreams(points: np.ndarray, grids: HierarchicalGrids,
                        shared: _SharedHashes, params: CoresetParams, o: float):
    """Local (cell, point) selections per level for the three sub-streams,
    in point order, under the streaming instances' sampling rule."""
    levels = range(params.L + 1)
    if points.shape[0] == 0:
        return tuple([[] for _ in levels] for _ in range(3))
    pkeys = grids.point_keys(points)
    masks = sample_masks(shared.values_np(pkeys), shared.thresholds(params, o))
    ckeys = [grids.cell_keys(points, i) for i in levels]
    return tuple([list(zip(ckeys[i][m[i]].tolist(), pkeys[m[i]].tolist())) for i in levels]
                 for m in masks)


def _distributed_pilot(network: Network, params: CoresetParams, seed: int,
                       sample_per_machine: int = 256) -> float:
    """Two-round distributed upper bound on OPT^(r) (the 2-approx stand-in)."""
    rng = as_rng(derive_seed(seed, "dist-pilot"))
    pooled = []
    pt_bits = point_bits(params.d, params.delta)
    for m in network.machines:
        if m.n == 0:
            continue
        take = min(sample_per_machine, m.n)
        idx = rng.choice(m.n, size=take, replace=False)
        sample = m.points[idx]
        network.send_up(m.machine_id, sample, bits=take * pt_bits, label="pilot-sample")
        pooled.append(sample)
    if not pooled:
        return 0.0
    pool = np.concatenate(pooled, axis=0)
    centers = kmeans_plusplus(pool, min(params.k, len(pool)), r=params.r,
                              seed=derive_seed(seed, "dist-pilot-seeding"))
    network.broadcast(centers, bits=params.k * params.d * 64, label="pilot-centers")
    total = 0.0
    for m in network.machines:
        local = uncapacitated_cost(m.points, centers, r=params.r) if m.n else 0.0
        network.send_up(m.machine_id, local, bits=float_bits(1), label="pilot-cost")
        total += local
    return total


def distributed_coreset(
    network: Network,
    params: CoresetParams,
    seed: int = 0,
    o: float | None = None,
) -> Coreset:
    """Theorem 4.7: leave a strong (η, ε)-coreset at the coordinator.

    ``network.total_bits`` afterwards holds the exact communication cost.
    """
    grids = HierarchicalGrids(params.delta, params.d,
                              seed=derive_seed(seed, "grids"))
    # Round 0: broadcast shared randomness (shift vector + hash seeds).
    network.broadcast(None, bits=params.d * 64 + 64, label="randomness")
    shared = _SharedHashes(params, grids, derive_seed(seed, "hashes"))

    if o is None:
        pilot = _distributed_pilot(network, params, seed)
        o = max(1.0, pilot / 8.0)

    last_reason = "no attempts"
    guess = float(o)
    while guess >= 0.5:
        try:
            return _attempt(network, params, grids, shared, guess)
        except FailedConstruction as exc:
            last_reason = exc.reason
            guess /= 2.0
    raise FailedConstruction(f"all distributed guesses failed; last: {last_reason}")


def _attempt(network: Network, params: CoresetParams, grids: HierarchicalGrids,
             shared: _SharedHashes, o: float) -> Coreset:
    per_machine = [
        _machine_substreams(m.points, grids, shared, params, o)
        for m in network.machines
    ]
    res_h, res_hp, res_hhat = [], [], []
    for i in range(params.L + 1):
        res_h.append(distributed_storing(
            network, [pm[0][i] for pm in per_machine],
            alpha=params.storing_alpha(i, o, params.psi(i, o)), beta=1,
            params=params, recover_points=False, label=f"h-{i}",
        ))
        res_hp.append(distributed_storing(
            network, [pm[1][i] for pm in per_machine],
            alpha=params.storing_alpha(i, o, params.psi_part(i, o)), beta=1,
            params=params, recover_points=False, label=f"hp-{i}",
        ))
        res_hhat.append(distributed_storing(
            network, [pm[2][i] for pm in per_machine],
            alpha=params.storing_alpha(i, o, params.phi(i, o)),
            beta=params.storing_beta(i, o),
            params=params, recover_points=True, label=f"hhat-{i}",
        ))
    coreset = assemble_coreset(params, o, grids, res_h, res_hp, res_hhat)
    if math.isfinite(o):
        coreset.input_size = sum(m.n for m in network.machines)
    return coreset
