"""Algorithm 4 / Theorem 4.5 — one-pass coreset over a dynamic stream.

For a fixed guess ``o``, the algorithm maintains, per level i ∈ {0…L}, three
λ-wise independently sub-sampled sub-streams, each fed into a ``Storing``
structure (Lemma 4.2):

====================  =========================  ============================
sub-stream (rate)      Storing budget             role
====================  =========================  ============================
h_i   (ψ_i)            (α_i, β=1), counts only    τ(C∩Q): heavy-cell decisions
h'_i  (ψ'_i)           (α'_i, β=1), counts only   τ(Q_{i,j}): part sizes
ĥ_i   (φ_i)            (α̂_i, β̂_i), with points    the coreset samples themselves
====================  =========================  ============================

At the end of the stream, the decoded counts replay Algorithms 1+2 *exactly*
(same hash functions ⇒ same samples as the offline construction in
``use_sampled_counts`` mode), and the coreset points are recovered from the
ĥ sketches of crucial cells in retained parts.

:class:`StreamingCoreset` is the Theorem 4.5 driver: it runs one instance
per guess o ∈ {1, 2, 4, …, Δ^d·(√dΔ)^r} in parallel (all instances *share*
the underlying hash polynomials — only the acceptance thresholds differ) and
returns the largest non-FAIL guess at or below the ``o_range`` top or the ℓ₀
pilot's cap (the offline ``build_coreset_auto`` keeps Theorem 3.19's smallest).
"""

from __future__ import annotations

import copy
import math

import numpy as np

from repro.core.params import CoresetParams
from repro.core.partition import ROOT_CELL_KEY
from repro.core.weighted import Coreset, PartInfo
from repro.grid.grids import HierarchicalGrids
from repro.hashing.kwise import KWiseHash, StackedHashes, exact_field_threshold
from repro.streaming.storing import ExactStoring, SketchStoring
from repro.streaming.stream import events_to_arrays
from repro.utils.rng import derive_seed
from repro.utils.validation import (
    FailedConstruction,
    check_o_range,
    check_signs,
    check_stream_points,
)

__all__ = ["StreamingCoresetInstance", "StreamingCoreset", "assemble_coreset"]


def _parent_map(grids: HierarchicalGrids, L: int, *results) -> dict:
    """Parent key (one level up) of every decoded cell of every level.

    One vectorised :meth:`HierarchicalGrids.parent_keys` call per level over
    the union of the levels' cells; level-0 cells all hang off the root.
    """
    parent: dict[int, int] = {}
    for i in range(0, L + 1):  # scalar-ok: finalize: per level
        keys = sorted({cell for res in results for cell in res[i].cells})
        if i == 0:
            parent.update(dict.fromkeys(keys, ROOT_CELL_KEY))
        else:
            parents = grids.parent_keys(keys, i).tolist()  # scalar-ok: finalize: <= alpha cells
            parent.update(zip(keys, parents))
    return parent


def assemble_coreset(params: CoresetParams, o: float, grids: HierarchicalGrids,
                     res_h, res_hp, res_hhat) -> Coreset:
    """Replay Algorithms 1+2 from decoded Storing results (one per level).

    Shared by the streaming (Theorem 4.5) and distributed (Theorem 4.7)
    drivers — the coordinator holds merged StoringResults with identical
    semantics.  ``res_h``/``res_hp``/``res_hhat`` are lists indexed by level
    0…L of :class:`~repro.streaming.storing.StoringResult`.

    Raises :class:`FailedConstruction` with the paper's FAIL conditions.
    """
    L = params.L
    parent_of = _parent_map(grids, L, res_h, res_hp, res_hhat)

    # --- Algorithm 1: heavy cells, top-down. -------------------------------
    heavy: dict[int, set] = {}
    total_q = sum(res_h[0].cells.values()) / params.psi(0, o)
    heavy[-1] = {ROOT_CELL_KEY} if total_q >= params.threshold(-1, o) else set()
    if not heavy[-1] and total_q > 0:
        # Fact A.1: the root is heavy whenever o ≤ OPT; an un-heavy root
        # means the guess overshot and the whole input would be dropped.
        raise FailedConstruction(
            f"assemble: root cell not heavy (guess o={o:g} too large)"
        )
    total_heavy = len(heavy[-1])
    for i in range(0, L):  # scalar-ok: finalize: per level
        psi = params.psi(i, o)
        level_heavy = set()
        for cell, cnt in res_h[i].cells.items():  # scalar-ok: finalize: <= alpha cells
            if cnt / psi < params.threshold(i, o):
                continue
            if parent_of[cell] in heavy[i - 1]:
                level_heavy.add(cell)
        heavy[i] = level_heavy
        total_heavy += len(level_heavy)
        if total_heavy > params.max_heavy_cells():
            raise FailedConstruction(
                f"assemble: {total_heavy} heavy cells exceed "
                f"{params.max_heavy_cells():.0f} (o={o:g})"
            )
    heavy[L] = set()

    # --- crucial cells and part sizes from the h' sketches. ----------------
    part_tau: dict[tuple[int, int], float] = {}
    for i in range(0, L + 1):  # scalar-ok: finalize: per level
        psip = params.psi_part(i, o)
        level_mass = 0.0
        for cell, cnt in res_hp[i].cells.items():  # scalar-ok: finalize: <= alpha cells
            if i < L and cell in heavy[i]:
                continue
            parent = parent_of[cell]
            if parent not in heavy[i - 1]:
                continue
            est = cnt / psip
            key = (i, int(parent))
            part_tau[key] = part_tau.get(key, 0.0) + est
            level_mass += est
        if level_mass > params.max_level_mass(i, o):
            raise FailedConstruction(
                f"assemble: level {i} mass {level_mass:.1f} exceeds "
                f"{params.max_level_mass(i, o):.1f} (o={o:g})"
            )

    # --- coreset samples from the ĥ sketches. ------------------------------
    retained: dict[tuple[int, int], int] = {}
    parts_info: list[PartInfo] = []
    pts_rows: list[np.ndarray] = []
    weights: list[float] = []
    part_ids: list[int] = []
    for i in range(0, L + 1):  # scalar-ok: finalize: per level
        phi = params.phi(i, o)
        cutoff = params.small_part_cutoff(i, o)
        res = res_hhat[i]
        beta = params.storing_beta(i, o)
        for cell, cnt in res.cells.items():  # scalar-ok: finalize: <= alpha cells
            # Crucial-cell test mirrors the h'-stream logic.
            if i < L and cell in heavy[i]:
                continue
            parent = parent_of[cell]
            if parent not in heavy[i - 1]:
                continue
            key = (i, int(parent))
            tau = part_tau.get(key, 0.0)
            if tau < cutoff:
                continue  # dropped small part (Lemma 3.4)
            if cnt > beta:
                raise FailedConstruction(
                    f"assemble: crucial cell at level {i} holds {cnt} "
                    f"samples > beta={beta} (o={o:g})"
                )
            if key not in retained:
                retained[key] = len(parts_info)
                parts_info.append(PartInfo(
                    level=i, parent_cell_key=int(parent),
                    size_estimate=tau, phi=phi,
                ))
            pid = retained[key]
            for pkey, pcnt in res.small_points.get(cell, {}).items():  # scalar-ok: finalize: <= beta samples per cell
                row = grids.point_codec.decode(pkey)
                for _ in range(int(pcnt)):  # scalar-ok: finalize: multiplicity expansion
                    pts_rows.append(row)
                    weights.append(1.0 / phi)
                    part_ids.append(pid)

    if pts_rows:
        q_points = np.stack(pts_rows).astype(np.int64)
        q_weights = np.asarray(weights)
        q_part_ids = np.asarray(part_ids, dtype=np.int64)
    else:
        q_points = np.empty((0, params.d), dtype=np.int64)
        q_weights = np.empty(0)
        q_part_ids = np.empty(0, dtype=np.int64)
    return Coreset(
        points=q_points, weights=q_weights, part_ids=q_part_ids,
        parts=parts_info, o=float(o), delta=params.delta, input_size=-1,
    )


class _SharedHashes:
    """One λ-wise hash polynomial per (level, sub-stream); every guess-o
    instance reuses the same field values with its own threshold, exactly as
    if each instance drew its own function — Bernoulli(φ) needs only
    ``value < φ·p`` — while paying the Horner evaluation once.

    Each sub-stream's per-level polynomials additionally stack into one
    :class:`~repro.hashing.kwise.StackedHashes` (they share a prime), so a
    batch evaluates all L+1 levels in a single broadcast Horner sweep.  The
    streaming instances and the Theorem 4.7 simulation sample through the
    same :meth:`values_np`, :meth:`thresholds` and :func:`sample_masks`."""

    def __init__(self, params: CoresetParams, grids: HierarchicalGrids, seed: int):
        ub = grids.point_codec.universe_bits
        self.h = [KWiseHash(params.lam_est, ub, seed=derive_seed(seed, f"h-{i}"))
                  for i in range(params.L + 1)]
        self.hp = [KWiseHash(params.lam_est, ub, seed=derive_seed(seed, f"hp-{i}"))
                   for i in range(params.L + 1)]
        self.hhat = [KWiseHash(params.lam, ub, seed=derive_seed(seed, f"hhat-{i}"))
                     for i in range(params.L + 1)]
        self.stacked = tuple(StackedHashes(f) for f in (self.h, self.hp, self.hhat))

    def values_np(self, pkeys) -> tuple[np.ndarray, ...]:
        """``(L+1, n)`` field values of the h, h′ and ĥ polynomials at
        ``pkeys``.  Each distinct key is hashed once: churn streams (delete
        = re-hash of an earlier insert) and duplicate-heavy batches pay per
        distinct key."""
        uniq, inverse = np.unique(pkeys, return_inverse=True)
        return tuple(st.values_np(uniq)[:, inverse] for st in self.stacked)

    def thresholds(self, params: CoresetParams, o: float) -> tuple[np.ndarray, ...]:
        """Guess ``o``'s acceptance thresholds ⌊ψ_i·p⌋, ⌊ψ′_i·p⌋, ⌊φ_i·p⌋ as
        ``(L+1, 1)`` columns.  They are exact integers: the float product
        ``int(psi * prime)`` deviates from ⌊ψ·p⌋ once the prime outgrows
        float64's 53-bit mantissa, skewing every realized sampling rate."""
        return tuple(
            np.array([exact_field_threshold(rate(i, o), st.prime) for i in range(params.L + 1)],
                     dtype=np.int64 if st.prime < 1 << 63 else object)[:, None]
            for rate, st in zip((params.psi, params.psi_part, params.phi), self.stacked))

    def randomness_bits(self) -> int:
        """Total bits of stored hash-polynomial randomness."""
        return sum(f.randomness_bits for f in self.h + self.hp + self.hhat)


def sample_masks(values, thresholds) -> list[np.ndarray]:
    """The sampling rule of Algorithms 3–4: per sub-stream, the ``(L+1, n)``
    mask ``value < threshold`` of :meth:`_SharedHashes.values_np` against
    :meth:`_SharedHashes.thresholds`."""
    return [np.asarray(v < t, dtype=bool) for v, t in zip(values, thresholds)]


class StreamingCoresetInstance:
    """Algorithm 4 for one fixed guess ``o``."""

    #: An exact-backend guess dies once some level's h-store holds more than
    #: this many times its α live cells (see :meth:`update_batch_arrays`).
    EARLY_KILL_FACTOR = 32.0

    def __init__(
        self,
        params: CoresetParams,
        o: float,
        grids: HierarchicalGrids,
        shared: _SharedHashes,
        seed: int = 0,
        backend: str = "exact",
    ):
        self.params = params
        self.o = float(o)
        self.grids = grids
        self.shared = shared
        self.backend = backend
        self.dead_reason: str | None = None
        self._early_kill = self.EARLY_KILL_FACTOR if backend == "exact" else None
        L = params.L

        def make_storing(alpha: int, beta: int, recover: bool, tag: str):
            """Construct one Storing structure for the chosen backend."""
            if backend == "exact":
                return ExactStoring(alpha, beta, recover_points=recover)
            if backend == "sketch":
                return SketchStoring(
                    alpha, beta,
                    cell_universe_bits=grids.cell_universe_bits,
                    point_universe_bits=grids.point_codec.universe_bits,
                    seed=derive_seed(seed, f"{tag}-o{self.o:g}"),
                    recover_points=recover,
                )
            raise ValueError(f"unknown backend {backend!r}")

        # Acceptance thresholds against the shared hash values.
        self._thresholds = shared.thresholds(params, o)
        self.store_h, self.store_hp, self.store_hhat = [], [], []
        for i in range(L + 1):  # scalar-ok: constructor: per level
            psi = params.psi(i, o)
            psip = params.psi_part(i, o)
            phi = params.phi(i, o)
            self.store_h.append(make_storing(
                params.storing_alpha(i, o, psi), 1, False, f"st-h-{i}"))
            self.store_hp.append(make_storing(
                params.storing_alpha(i, o, psip), 1, False, f"st-hp-{i}"))
            self.store_hhat.append(make_storing(
                params.storing_alpha(i, o, phi), params.storing_beta(i, o),
                True, f"st-hhat-{i}"))

    # -- streaming -----------------------------------------------------------
    @staticmethod
    def _scatter(store, cell_keys, pkeys, signs, mask, nsel: int, n: int) -> None:
        """Feed the mask-selected events of a batch into one store.

        A fully-selected level (ψ or φ = 1, the common case for the winning
        guesses) hands over the shared batch arrays without copying.
        """
        if not nsel:
            return
        if nsel == n:
            store.update_many(cell_keys, pkeys, signs)
            return
        idx = np.flatnonzero(mask)
        store.update_many(cell_keys[idx], pkeys[idx], signs[idx])

    def update_batch_arrays(self, pkeys, cell_keys, signs,
                            vh, vhp, vhhat) -> None:
        """Feed one batch into every Storing structure of this guess.

        ``cell_keys`` is a list indexed by level; ``vh``/``vhp``/``vhhat``
        are ``(L+1, n)`` value matrices aligned with ``pkeys``/``signs``.
        Threshold masks come from one broadcast compare per sub-stream and
        Storing scatters run per level.

        Early kill: the instance dies at the first event after which some
        level's h-store holds more than ``EARLY_KILL_FACTOR · α`` live
        cells.  Only levels whose cheap pre-check fires (compacted count
        plus the batch's selected events could cross the line) pay an
        exact :meth:`ExactStoring.first_overflow`.  On a kill at event j of
        level i, the batch is cut where a per-event loop would have stopped:
        events before j go everywhere, event j reaches every sub-stream of
        the levels below i and the h-store of level i, and nothing later.
        """
        if self.dead_reason is not None:
            return
        n = len(signs)
        mh, mhp, mhh = sample_masks((vh, vhp, vhhat), self._thresholds)
        nh = mh.sum(axis=1)
        kill = None
        if self._early_kill is not None:
            kill = self._first_kill(cell_keys, signs, mh, nh)
        if kill is not None:
            j, lvl = kill
            mh[:, j + 1:] = mhp[:, j + 1:] = mhh[:, j + 1:] = False
            mh[lvl + 1:, j] = mhp[lvl:, j] = mhh[lvl:, j] = False
            nh = mh.sum(axis=1)
        nhp, nhh = mhp.sum(axis=1), mhh.sum(axis=1)
        for i in range(self.params.L + 1):  # scalar-ok: per level per batch
            ck = cell_keys[i]
            self._scatter(self.store_h[i], ck, pkeys, signs, mh[i], int(nh[i]), n)
            self._scatter(self.store_hp[i], ck, pkeys, signs, mhp[i], int(nhp[i]), n)
            self._scatter(self.store_hhat[i], ck, pkeys, signs, mhh[i], int(nhh[i]), n)
        if kill is not None:
            self.dead_reason = (
                f"level {kill[1]} cell count blew past "
                f"{self._early_kill:g}x alpha (o={self.o:g})"
            )

    def _first_kill(self, cell_keys, signs, mh, nh) -> tuple[int, int] | None:
        """(event, level) of the earliest early kill in a batch, or None;
        on a tie the lowest level kills, as a per-level loop would."""
        kill = None
        for i in range(self.params.L + 1):  # scalar-ok: per level per batch
            store = self.store_h[i]
            bound = self._early_kill * store.alpha
            nsel = int(nh[i])
            # Cheap overcount first; compact for the exact count only when
            # the bound might actually be crossed.
            if not nsel or (store.live_cells_upper() + nsel <= bound
                            or store.live_cells() + nsel <= bound):
                continue
            idx = np.flatnonzero(mh[i])
            k = store.first_overflow(cell_keys[i][idx], signs[idx], bound)
            if k is not None and (kill is None or idx[k] < kill[0]):
                kill = (int(idx[k]), i)
        return kill

    def copy(self) -> "StreamingCoresetInstance":
        """An independent instance with the same Storing contents.

        Shares the parameters, grids, hashes and thresholds (immutable after
        construction) and copies every store.
        """
        new = copy.copy(self)
        new.store_h = [s.copy() for s in self.store_h]
        new.store_hp = [s.copy() for s in self.store_hp]
        new.store_hhat = [s.copy() for s in self.store_hhat]
        return new

    # -- finalization ----------------------------------------------------------
    def finalize(self) -> Coreset:
        """Replay Algorithms 1+2 from the decoded sketches; may FAIL."""
        if self.dead_reason is not None:
            raise FailedConstruction(self.dead_reason)
        res_h = [s.result() for s in self.store_h]
        res_hp = [s.result() for s in self.store_hp]
        res_hhat = [s.result() for s in self.store_hhat]
        return assemble_coreset(self.params, self.o, self.grids,
                                res_h, res_hp, res_hhat)

    # -- accounting -----------------------------------------------------------
    def space_bits(self) -> int:
        """Total sketch space (bits) of this instance."""
        total = 0
        for group in (self.store_h, self.store_hp, self.store_hhat):  # scalar-ok: accounting, per store group
            for s in group:  # scalar-ok: accounting, per store
                total += s.space_bits()
        return total


class StreamingCoreset:
    """Theorem 4.5: parallel guess-o instances over one dynamic stream.

    Parameters
    ----------
    params:
        Problem parameters; the guess schedule spans [1, Δ^d·(√dΔ)^r] (the
        paper's predetermined range — the stream length is unknown a priori).
    backend:
        ``"exact"`` (dictionary Storing; fast reference) or ``"sketch"``
        (true sublinear IBLT sketches; what E3 measures).
    o_range:
        Optional (lo, hi) window, finite with 0 ≤ lo ≤ hi, that restricts the
        guesses, standing in for the streaming 2-approximation of OPT the
        paper runs in parallel ([HSYZ18]).  Without one the driver keeps an
        ℓ₀-sampler alongside the sketches; at finalize time a k-means++
        pilot on the recovered uniform sample of the *live* set upper-bounds
        OPT and caps the guess — the single-pass, deletion-proof
        replacement for the parallel OPT estimator.
    """

    def __init__(
        self,
        params: CoresetParams,
        seed: int = 0,
        backend: str = "exact",
        o_range: tuple[float, float] | None = None,
    ):
        self.params = params
        # Construction arguments, kept so checkpoints (repro.service.state)
        # can rebuild an identical driver — every bit of randomness below is
        # derived from (params, seed), so (args, sketch contents) is a
        # complete, bit-exact description of the state.
        self.seed = int(seed)
        self.backend = backend
        self.o_range = check_o_range(o_range)
        self.grids = HierarchicalGrids(params.delta, params.d,
                                       seed=derive_seed(seed, "grids"))
        self.shared = _SharedHashes(params, self.grids, derive_seed(seed, "hashes"))
        top = (params.delta ** params.d) * (math.sqrt(params.d) * params.delta) ** params.r
        lo, hi = (1.0, top) if o_range is None else (max(1.0, self.o_range[0]), self.o_range[1])
        self.instances: list[StreamingCoresetInstance] = []
        o = 1.0
        while o <= top * 2:  # scalar-ok: constructor: guess schedule
            if lo <= o <= hi or (o <= lo < 2 * o):
                self.instances.append(StreamingCoresetInstance(
                    params, o, self.grids, self.shared,
                    seed=derive_seed(seed, f"inst-{o:g}"), backend=backend,
                ))
            o *= 2.0
        self.num_updates = 0
        self._pilot_sampler = None
        if o_range is None:
            from repro.streaming.l0sampler import DistinctSampler

            self._pilot_sampler = DistinctSampler(
                sample_size=512,
                universe_bits=self.grids.point_codec.universe_bits,
                seed=derive_seed(seed, "pilot-l0"),
            )

    # -- streaming ------------------------------------------------------------
    def update(self, point, sign: int) -> None:
        """Process one insertion (+1) / deletion (−1): a one-event batch."""
        self.update_batch([(point, sign)])

    def update_batch(self, events) -> int:
        """Apply a batch of :class:`StreamEvent` / ``(point, sign)`` pairs.

        Points are normalized and validated up front (the whole batch is rejected
        before any state mutation if a single event is malformed —
        non-integral coordinates included), then the batch runs through the
        fully vectorized :meth:`update_arrays`.  Returns the number of
        events applied.
        """
        rows, signs = events_to_arrays(events, d=self.params.d)
        return self.update_arrays(rows, signs)

    def update_arrays(self, rows, signs) -> int:
        """Vectorized ingest of an (n, d) coordinate array + sign vector.

        One stacked Horner sweep per sub-stream over the batch's *distinct*
        point keys covers all L+1 levels; threshold masks and sketch
        scatters run per level.  The resulting state does not depend on how
        the stream is split into batches; the tests and the bench harness
        pin it to a per-event reference.  Rows and signs (integral ±1, one
        per row) are checked before any state changes.
        """
        rows = check_stream_points(np.asarray(rows), self.params.delta, self.params.d)
        signs = check_signs(signs, len(rows))
        n = len(rows)
        if n == 0:
            return 0
        pkeys = self.grids.point_codec.encode(rows)
        levels = range(self.params.L + 1)
        cell_keys = [self.grids.cell_keys(rows, i) for i in levels]
        vh, vhp, vhh = self.shared.values_np(pkeys)
        for inst in self.instances:  # scalar-ok: per instance per batch
            inst.update_batch_arrays(pkeys, cell_keys, signs, vh, vhp, vhh)
        if self._pilot_sampler is not None:
            self._pilot_sampler.update_many(pkeys, signs)
        self.num_updates += n
        return n

    def copy(self) -> "StreamingCoreset":
        """An independent driver with the same sketch contents.

        ``params``, ``grids`` and the shared hashes are immutable after
        construction and are shared; every instance's stores and the pilot
        sampler are copied.  Merging into or ingesting into the copy leaves
        this driver untouched.
        """
        new = copy.copy(self)
        new.instances = [inst.copy() for inst in self.instances]
        if self._pilot_sampler is not None:
            new._pilot_sampler = self._pilot_sampler.copy()
        return new

    # -- results ---------------------------------------------------------------
    def finalize(self) -> Coreset:
        """Return the coreset of the largest non-FAIL guess (guesses above
        the pilot cap last; see :meth:`finalize_with_instance`).

        Non-destructive: decoding copies the sketches, so this may be called
        at any point of the stream (a *snapshot* of the current live set)
        and streaming can continue afterwards.
        """
        return self.finalize_with_instance()[0]

    def finalize_with_instance(self):
        """Like :meth:`finalize` but also returns the winning instance.

        A guess whose coreset comes out empty loses to any later guess
        with a non-empty one: a very large guess can pass on a small live
        set with no heavy cell at all, and an empty coreset cannot be
        solved.  The first empty coreset is the fallback, so an empty live
        set still finalizes.
        """
        last = "no instances"
        cap = self._pilot_upper_bound()
        # Largest guess first; guesses above the OPT estimate last (stable).
        order = sorted(self.instances[::-1],
                       key=lambda inst: cap is not None and inst.o > cap)
        empty = None
        for inst in order:  # scalar-ok: finalize: per guess
            try:
                coreset = inst.finalize()
            except FailedConstruction as exc:
                last = exc.reason
                continue
            if len(coreset):
                return coreset, inst
            if empty is None:
                empty = (coreset, inst)
        if empty is not None:
            return empty
        raise FailedConstruction(f"all streaming guesses failed; last: {last}")

    def _pilot_upper_bound(self) -> float | None:
        """Estimate of OPT/4 from the ℓ₀-sampler (None with an ``o_range``).

        A k-means++/Lloyd solution on a uniform sample of the live set,
        scaled by the estimated live count, upper-bounds OPT up to sampling
        noise; dividing by 4 keeps the anchor on the safe (≤ OPT) side,
        mirroring the offline pilot/8 descent.
        """
        if self._pilot_sampler is None:
            return None
        keys, live_estimate = self._pilot_sampler.sample()
        if len(keys) < max(2 * self.params.k, 8) or live_estimate <= 0:
            return None
        from repro.solvers.lloyd import lloyd

        pts = self.grids.point_codec.decode_many(keys).astype(np.float64)
        res = lloyd(pts, min(self.params.k, len(pts)), r=self.params.r,
                    seed=derive_seed(0, "pilot-lloyd"), max_iter=8)
        pilot = res.cost * live_estimate / len(pts)
        return max(1.0, pilot / 4.0)

    def space_bits(self) -> int:
        """Total bits across all live instances plus shared randomness."""
        return (sum(inst.space_bits() for inst in self.instances)
                + self.shared.randomness_bits())
