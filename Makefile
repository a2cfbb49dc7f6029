PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
export PYTHONPATH

# Hash randomization must not leak into simulations: golden traces and
# checkpoint digests are pinned bit-for-bit (simlint SL104 polices the
# code side; this pins the interpreter side for tests and benchmarks).
export PYTHONHASHSEED := 0

.PHONY: test test-fast lint reach pin footprint bench-ckpt bench-recovery \
	bench-workload bench-dsm bench-check

# Tier-1 suite (everything); lints first.
test: lint
	python -m pytest -x -q

# Fast lane: skip the long property/soak tests (marked `slow`).
test-fast:
	python -m pytest -x -q -m "not slow"

# Dead-code guard: run the tier-1 suite under cProfile (test-spawned
# Python children included) and list every def in src/repro that nothing
# called.  Fails on any such function not on tools/reach.py's keep list,
# each entry of which carries its reason; __repr__s and abstract
# `raise NotImplementedError` stubs are skipped as a class.
reach:
	python tools/reach.py

# Re-pin the fingerprint of every scenario and seed variant (event
# count left out) that tests/test_scenarios.py holds every run to.  Only
# for a change that moves a physical observable on purpose; say why in
# the commit.
pin:
	python -m repro.scenarios pin tests/fingerprints.json

# Host memory by src/repro module: build a started 32x32 datacenter()
# machine under tracemalloc and list where its live bytes go, each
# module's total and its heaviest lines (tools/footprint.py).  Another
# machine: make footprint ARGS="--scenario workload@seed=2".
footprint:
	python tools/footprint.py $(if $(ARGS),$(ARGS),--datacenter 32)

# Style/defect gate: ruff when available (config in pyproject.toml),
# then simlint, this repo's own AST invariant checker (determinism,
# checkpoint coverage, instrumentation hygiene, callback safety, owned
# operations, DSM protocol order and vocabulary drift; see
# docs/static-analysis.md).  simlint parses src and tests once and
# passes only with zero findings; `# simlint: ignore[SLnnn] reason` is
# its one exception mechanism.  Without ruff, fall back to a
# byte-compile sweep -- it still catches syntax errors across every
# tree the real linter covers.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples tools; \
	else \
		echo "lint: ruff not found; falling back to a compileall syntax sweep"; \
		python -m compileall -q src tests benchmarks examples tools; \
	fi
	python -m repro.lint src tests

# The bench-* targets record simulated observables only, through the
# shared gate in benchmarks/gate.py: each scale runs twice and must
# repeat exactly, and a guarded key that regresses past its tolerance
# refuses the write (FORCE=1 overrides).  Host speed is shrimpbench's.

# Checkpoint size at two system scales, each restore verified exact;
# refuses a >10% size growth in BENCH_ckpt.json.
bench-ckpt:
	python -m benchmarks.bench_ckpt $(if $(FORCE),--force)

# Crash-recovery cost at two storm scales (replayed-traffic window,
# retransmit overhead) and one DSM home crash; every run is verified byte-for-byte against the
# fault-free reference.  Refuses a >25% window or frame-count growth in
# BENCH_recovery.json.
bench-recovery:
	python -m benchmarks.bench_recovery $(if $(FORCE),--force)

# DSM fetch/upgrade latency and protocol traffic for the fetch-on-fault
# app family (stencil/bfs/kv), every run verified against its closed
# form first.  Records BENCH_dsm.json; refuses a >25% growth of end
# time, fetches or p99 latency.  See docs/dsm.md.
bench-dsm:
	python -m benchmarks.bench_dsm $(if $(FORCE),--force)

# Datacenter-workload SLO numbers (p50/p99/p999 round-trip latency,
# goodput vs offered load) on a 32x32 mesh, one run per placement
# policy.  Records BENCH_workload.json; refuses a >25% goodput drop.
# See docs/workloads.md.
bench-workload:
	python -m benchmarks.bench_workload $(if $(FORCE),--force)

# CI's benchmark gate: every bench above rewrites a temporary copy of
# its committed BENCH_*.json, and the copy must come back byte for byte.
# The records hold simulated observables only, so any difference -- an
# improvement included -- means the record is stale and must be
# re-recorded on purpose with the bench's own target.
bench-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	for bench in ckpt recovery dsm workload; do \
		cp "BENCH_$$bench.json" "$$tmp/BENCH_$$bench.json" && \
		python -m "benchmarks.bench_$$bench" \
			--output "$$tmp/BENCH_$$bench.json" && \
		cmp "BENCH_$$bench.json" "$$tmp/BENCH_$$bench.json" || exit 1; \
	done
