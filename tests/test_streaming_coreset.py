"""Integration tests for Algorithm 4 / Theorem 4.5 (streaming coreset)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import CoresetParams
from repro.data.synthetic import gaussian_mixture
from repro.data.workloads import churn_stream, deletion_heavy_stream, insertion_stream
from repro.metrics.evaluation import evaluate_coreset_quality
from repro.service import ServiceConfig
from repro.service.state import streaming_state_from_dict, streaming_state_to_dict
from repro.solvers.kmeanspp import kmeans_plusplus
from repro.solvers.pilot import estimate_opt_cost
from repro.streaming import StreamingCoreset, materialize
from repro.utils.validation import FailedConstruction


@pytest.fixture(scope="module")
def setup():
    pts = np.unique(gaussian_mixture(2000, 2, 256, k=3, spread=0.03, seed=8), axis=0)
    params = CoresetParams.practical(k=3, d=2, delta=256, eps=0.25, eta=0.25)
    pilot = estimate_opt_cost(pts, 3, r=2.0, seed=4)
    return pts, params, pilot


class TestStreamingMatchesOffline:
    def test_insertion_stream_equals_offline_sampled_mode(self, setup):
        """Same hash randomness ⇒ streaming over an insert-only stream gives
        exactly the offline Algorithm 2 in sampled-counts mode."""
        pts, params, pilot = setup
        sc = StreamingCoreset(params, seed=21, backend="exact",
                              o_range=(pilot / 64, pilot / 4))
        sc.update_batch(insertion_stream(pts, seed=5))
        cs = sc.finalize()
        assert len(cs) > 0
        # The streaming coreset must be a subset of the input with sane weights.
        input_set = set(map(tuple, pts.tolist()))
        assert all(tuple(p) in input_set for p in cs.points.tolist())
        assert cs.total_weight == pytest.approx(len(pts), rel=0.3)

    def test_order_invariance(self, setup):
        """Linear sketches: any insertion order yields the same coreset."""
        pts, params, pilot = setup
        results = []
        for order_seed in (1, 2):
            sc = StreamingCoreset(params, seed=33, backend="exact",
                                  o_range=(pilot / 64, pilot / 4))
            sc.update_batch(insertion_stream(pts, seed=order_seed))
            cs = sc.finalize()
            results.append(sorted(map(tuple, cs.points.tolist())))
        assert results[0] == results[1]

    def test_deletions_equal_never_inserted(self, setup):
        """Insert A∪B then delete B  ≡  insert only A (linearity)."""
        pts, params, _ = setup
        keep = pts[: len(pts) // 2]
        churn = churn_stream(pts, delete_fraction=0.0, seed=1)  # base order
        # Build: insert all, delete the second half.
        from repro.streaming.stream import DELETE, INSERT, Stream, StreamEvent

        events = [StreamEvent(tuple(map(int, p)), INSERT) for p in pts]
        events += [StreamEvent(tuple(map(int, p)), DELETE) for p in pts[len(pts) // 2:]]
        pilot = estimate_opt_cost(keep, 3, r=2.0, seed=4)
        a = StreamingCoreset(params, seed=44, backend="exact",
                             o_range=(pilot / 64, pilot / 4))
        a.update_batch(Stream(events))
        b = StreamingCoreset(params, seed=44, backend="exact",
                             o_range=(pilot / 64, pilot / 4))
        b.update_batch(Stream([StreamEvent(tuple(map(int, p)), INSERT) for p in keep]))
        ca, cb = a.finalize(), b.finalize()
        assert sorted(map(tuple, ca.points.tolist())) == sorted(map(tuple, cb.points.tolist()))
        assert ca.o == cb.o


class TestStreamingQuality:
    def test_coreset_property_after_churn(self, setup):
        pts, params, _ = setup
        stream = churn_stream(pts, delete_fraction=0.5, seed=6)
        survivors = materialize(stream, d=2)
        pilot = estimate_opt_cost(survivors, 3, r=2.0, seed=4)
        sc = StreamingCoreset(params, seed=13, backend="exact",
                              o_range=(pilot / 64, pilot / 4))
        sc.update_batch(stream)
        cs = sc.finalize()
        n = len(survivors)
        Zs = [kmeans_plusplus(survivors.astype(float), 3, seed=s) for s in (1, 2)]
        rep = evaluate_coreset_quality(
            survivors, cs, Zs, [n / 3, math.inf], r=2.0, eps=0.25, eta=0.25
        )
        assert rep.entries
        # Allow modest slack: streaming mode estimates all counts by sampling.
        assert rep.worst_ratio <= 1.25 * 1.1

    def test_whole_cluster_deletion(self):
        """E4's hard case: delete an entire cluster; the coreset must track
        the survivors' structure, not the full history's."""
        pts, means, labels = gaussian_mixture(1500, 2, 256, k=3, spread=0.02,
                                              seed=9, return_truth=True)
        params = CoresetParams.practical(k=2, d=2, delta=256, eps=0.25, eta=0.25)
        stream = deletion_heavy_stream(pts, labels, delete_clusters=[0], seed=2)
        survivors = materialize(stream, d=2)
        pilot = estimate_opt_cost(survivors, 2, r=2.0, seed=4)
        sc = StreamingCoreset(params, seed=31, backend="exact",
                              o_range=(pilot / 64, pilot / 4))
        sc.update_batch(stream)
        cs = sc.finalize()
        surv_set = set(map(tuple, survivors.tolist()))
        assert all(tuple(p) in surv_set for p in cs.points.tolist())
        assert cs.total_weight == pytest.approx(len(survivors), rel=0.3)


class TestSnapshots:
    def test_midstream_snapshot_matches_prefix(self, setup):
        """finalize() is non-destructive: querying mid-stream equals running
        a fresh instance on the prefix, and streaming continues correctly."""
        pts, params, _ = setup
        sub = pts[:800]
        prefix, rest = sub[:500], sub[500:]
        pilot = estimate_opt_cost(sub, 3, r=2.0, seed=4)
        orange = (pilot / 64, pilot / 4)

        sc = StreamingCoreset(params, seed=77, backend="exact", o_range=orange)
        from repro.streaming.stream import Stream

        sc.update_batch(insertion_stream(prefix, seed=1))
        snap = sc.finalize()

        fresh = StreamingCoreset(params, seed=77, backend="exact", o_range=orange)
        fresh.update_batch(insertion_stream(prefix, seed=1))
        ref = fresh.finalize()
        assert sorted(map(tuple, snap.points.tolist())) == sorted(
            map(tuple, ref.points.tolist())
        )

        # Continue streaming after the snapshot; the final result equals a
        # single uninterrupted run.
        sc.update_batch(insertion_stream(rest, seed=2))
        full = sc.finalize()
        uninterrupted = StreamingCoreset(params, seed=77, backend="exact",
                                         o_range=orange)
        uninterrupted.update_batch(insertion_stream(prefix, seed=1))
        uninterrupted.update_batch(insertion_stream(rest, seed=2))
        want = uninterrupted.finalize()
        assert sorted(map(tuple, full.points.tolist())) == sorted(
            map(tuple, want.points.tolist())
        )


class TestSketchBackend:
    def test_sketch_matches_exact(self, setup):
        pts, params, pilot = setup
        sub = pts[:400]
        sub_pilot = estimate_opt_cost(sub, 3, r=2.0, seed=4)
        exact = StreamingCoreset(params, seed=55, backend="exact",
                                 o_range=(sub_pilot / 16, sub_pilot / 4))
        exact.update_batch(insertion_stream(sub, seed=3))
        cs_e, inst = exact.finalize_with_instance()
        sketch = StreamingCoreset(params, seed=55, backend="sketch",
                                  o_range=(cs_e.o, cs_e.o))
        sketch.update_batch(insertion_stream(sub, seed=3))
        cs_s = sketch.finalize()
        assert sorted(map(tuple, cs_e.points.tolist())) == sorted(
            map(tuple, cs_s.points.tolist())
        )

    def test_space_accounting_positive(self, setup):
        pts, params, pilot = setup
        sc = StreamingCoreset(params, seed=5, backend="sketch",
                              o_range=(pilot / 8, pilot / 8))
        sc.update_batch([(tuple(map(int, pts[0])), +1)])
        assert sc.space_bits() > 0


class TestUpdateBatchAndValidation:
    def test_process_accepts_ndarray_event_points(self, setup):
        """Regression: ``process()`` crashed with ``TypeError: unhashable
        type`` when a StreamEvent carried an ndarray point (the value-cache
        key was the raw point).  Array and tuple events must now be
        bit-identical."""
        from repro.streaming.stream import INSERT, Stream, StreamEvent

        pts, params, pilot = setup
        sub = pts[:80]
        orange = (pilot / 64, pilot / 4)
        arr = StreamingCoreset(params, seed=7, backend="exact", o_range=orange)
        arr.update_batch(Stream([StreamEvent(np.asarray(p), INSERT) for p in sub]))
        tup = StreamingCoreset(params, seed=7, backend="exact", o_range=orange)
        tup.update_batch(Stream([StreamEvent(tuple(map(int, p)), INSERT)
                            for p in sub]))
        from repro.service.state import streaming_state_to_dict

        assert streaming_state_to_dict(arr) == streaming_state_to_dict(tup)

    def test_update_batch_equals_event_loop(self, setup):
        """The vectorized batched path is bit-identical to one one-event
        batch per event (same cache entries, same sampler feed order)."""
        pts, params, pilot = setup
        sub = pts[:60]
        orange = (pilot / 64, pilot / 4)
        batched = StreamingCoreset(params, seed=19, backend="exact",
                                   o_range=orange)
        assert batched.update_batch(
            [(tuple(map(int, p)), 1) for p in sub]) == len(sub)
        looped = StreamingCoreset(params, seed=19, backend="exact",
                                  o_range=orange)
        for p in sub:
            looped.update_batch([(tuple(map(int, p)), 1)])
        from repro.service.state import streaming_state_to_dict

        assert streaming_state_to_dict(batched) == streaming_state_to_dict(looped)

    def test_out_of_range_update_rejected_before_state_change(self, setup):
        """Regression: out-of-range coordinates alias under the mixed-radix
        codec; both update paths must reject them atomically — a failed
        batch leaves *zero* events applied, not a prefix."""
        _, params, _ = setup
        sc = StreamingCoreset(params, seed=3, backend="exact")
        for bad in ((1, -1), (1, 257), (-5, 0)):
            with pytest.raises(ValueError, match=r"\[0, 256\]"):
                sc.update_batch([(bad, +1)])
        with pytest.raises(ValueError, match=r"\[0, 256\]"):
            sc.update_batch([((3, 3), 1), ((5, 5), 1), ((1, -1), 1)])
        assert sc.num_updates == 0
        # Still healthy: the same batch minus the bad event applies cleanly.
        assert sc.update_batch([((3, 3), 1), ((5, 5), 1)]) == 2
        assert sc.num_updates == 2

    def test_coordinate_zero_accepted(self, setup):
        """0 is inside the codec's injective window [0, Δ] and must not be
        rejected by streaming ingest (the offline [1, Δ] check is stricter)."""
        _, params, _ = setup
        sc = StreamingCoreset(params, seed=3, backend="exact")
        sc.update_batch([((0, 0), +1)])
        sc.update_batch([((0, 256), 1), ((256, 0), 1)])
        assert sc.num_updates == 3


class TestFailurePaths:
    def test_all_guesses_fail_raises(self, setup):
        pts, params, _ = setup
        sc = StreamingCoreset(params, seed=5, backend="exact",
                              o_range=(1e17, 1e18))  # absurd: root never heavy
        sc.update_batch(insertion_stream(pts[:100], seed=1))
        with pytest.raises(FailedConstruction):
            sc.finalize()


class TestGuessWindow:
    """``o_range`` is the driver's only guess-policy input: finite
    0 <= lo <= hi, checked by the driver and by ``ServiceConfig`` (so a
    restored checkpoint is checked too)."""

    BAD = {"reversed": (8.0, 1.0), "nan": (float("nan"), 8.0),
           "negative": (-5.0, 4.0), "inf": (1.0, float("inf")),
           "one end": (1.0,), "not numbers": ("a", "b")}

    @pytest.mark.parametrize("case", list(BAD))
    def test_bad_window_rejected(self, setup, case):
        _, params, _ = setup
        with pytest.raises(ValueError, match="o_range"):
            StreamingCoreset(params, o_range=self.BAD[case])
        with pytest.raises(ValueError, match="o_range"):
            ServiceConfig(k=3, d=2, delta=256, o_range=self.BAD[case])

    @pytest.mark.parametrize("window", [(4, 64), (1.0, 1e9), (1e17, 1e18),
                                        (0.0, 0.0), (0.5, 2.0)])
    def test_windows_in_use_accepted(self, setup, window):
        _, params, _ = setup
        sc = StreamingCoreset(params, o_range=window)
        assert sc.o_range == (float(window[0]), float(window[1]))
        assert sc._pilot_sampler is None
        ServiceConfig(k=3, d=2, delta=256, o_range=window)

    def test_restore_checks_window(self, setup):
        _, params, _ = setup
        data = streaming_state_to_dict(StreamingCoreset(params, o_range=(1.0, 8.0)))
        data["o_range"] = [8.0, 1.0]
        with pytest.raises(ValueError, match="o_range"):
            streaming_state_from_dict(data)
