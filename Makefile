# Development workflow for the Streaming Balanced Clustering reproduction.

PYTHON ?= python

.PHONY: install test test-verbose bench bench-smoke bench-tenants \
	bench-tenants-smoke chaos-smoke fleet-smoke perfbench-smoke examples \
	artifacts lint lint-json src-lines clean

install:
	pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/ -q

test-verbose:
	$(PYTHON) -m pytest tests/ -v

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Quick ingest, fold and solve check plus latency percentiles: times the
# per-event oracle against batched ingest, the fold of 4 drivers fed
# disjoint parts of a stream (exact and sketch backends) and the exact
# transportation solve against HiGHS, appends to BENCH_service.json, and
# fails unless the batched and per-event states are bit-identical, each
# fold equals one driver fed the whole stream, the merged pilot samples
# like the scalar peel and the exact solve's flow is feasible at HiGHS's
# cost (within 1e-9 relative).
bench-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_service_throughput.py --smoke

# Multi-tenant throughput + isolation under eviction churn.  Skipped on
# 1-core runners: the concurrent drivers just time-slice one CPU there and
# the throughput numbers mean nothing.
bench-tenants:
	@if [ "$$(nproc 2>/dev/null || echo 1)" -lt 2 ]; then \
		echo "bench-tenants: skipped (needs >= 2 cores, have $$(nproc 2>/dev/null || echo 1))"; \
	else \
		PYTHONPATH=src $(PYTHON) benchmarks/bench_service_tenants.py; \
	fi

# CI async-service smoke: boot `python -m repro serve` in a subprocess,
# drive 3 tenants concurrently, assert isolation, shut down over the wire.
bench-tenants-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_service_tenants.py --smoke

# CI chaos smoke: boot `python -m repro serve --fault-plan ...` in a
# subprocess, reset connections / fail a checkpoint write mid-run, and
# require the final state bit-identical to a fault-free reference (see
# benchmarks/bench_service_chaos.py).  Process death is fleet-smoke's.
chaos-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_service_chaos.py --smoke

# CI fleet smoke: boot a real coordinator fleet — 2 `repro serve` site
# subprocesses fed over TCP — SIGKILL site 1 mid-run, recover it from its
# checkpoint + journal replay, and require the coordinator's merged state
# bit-identical to a single-process reference with wire bits matching the
# in-process E7 simulation (see benchmarks/bench_fleet.py).
fleet-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_fleet.py --smoke

# CI perfbench smoke: the benchmark's own tests, then a short traced run of
# each workload against a stock `repro serve`.  perfbench/run.py exits 0
# even when a run is incorrect, so its last line (the result object) must
# say "correct": true.
PERFBENCH_WORKLOADS = ingest_churn query_cold fleet_rounds
PERFBENCH_CORRECT = import json, sys; sys.exit(json.loads(sys.stdin.read())["correct"] is not True)

perfbench-smoke:
	$(PYTHON) -m pytest perfbench/test_perfbench.py -q
	@for w in $(PERFBENCH_WORKLOADS); do \
		echo "== perfbench $$w"; \
		last=$$($(PYTHON) perfbench/run.py --workload $$w --seed 1 \
			--seconds 2 --trace 1 | tail -n 1); \
		echo "$$last"; \
		echo "$$last" | $(PYTHON) -c '$(PERFBENCH_CORRECT)' \
			|| { echo "perfbench-smoke: $$w run is not correct"; exit 1; }; \
	done

# Run the six examples (capacitated k-clustering, k-center, the coreset →
# full-input transfer, the fleet); fails on the first one that raises.
examples:
	for f in examples/*.py; do echo "== $$f"; PYTHONPATH=src $(PYTHON) $$f || exit 1; done

# Generic style (ruff) + project invariants (repro lint: DET/HOT/ASYNC/WIRE;
# see docs/LINTING.md).  `repro.analysis_lint` is the same command as
# `repro lint` but never imports numpy, so it runs in minimal environments.
lint:
	@$(PYTHON) -m ruff --version >/dev/null 2>&1 || \
		{ echo "ruff is not installed; run: pip install ruff"; exit 1; }
	$(PYTHON) -m ruff check src tests benchmarks examples
	PYTHONPATH=src $(PYTHON) -m repro.analysis_lint src tests benchmarks examples

# Machine-readable finding list (schema v1) — what CI attaches as annotations.
lint-json:
	PYTHONPATH=src $(PYTHON) -m repro.analysis_lint src tests benchmarks examples --format json

# Total lines of src/**/*.py; a change reports its net delta against its
# parent's figure.
src-lines:
	@find src -name '*.py' -print0 | xargs -0 cat | wc -l

artifacts:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
