PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
export PYTHONPATH

# Hash randomization must not leak into simulations: golden traces and
# checkpoint digests are pinned bit-for-bit (simlint SL104 polices the
# code side; this pins the interpreter side for tests and benchmarks).
export PYTHONHASHSEED := 0

.PHONY: test test-fast lint pin bench-ckpt bench-recovery bench-workload \
	bench-dsm

# Tier-1 suite (everything); lints first.
test: lint
	python -m pytest -x -q

# Fast lane: skip the long property/soak tests (marked `slow`).
test-fast:
	python -m pytest -x -q -m "not slow"

# Re-pin the fingerprint of every scenario and seed variant (event
# count left out) that tests/test_scenarios.py holds every run to.  Only
# for a change that moves a physical observable on purpose; say why in
# the commit.
pin:
	python -m repro.scenarios pin tests/fingerprints.json

# Style/defect gate: ruff when available (config in pyproject.toml),
# then simlint (this repo's own AST invariant checker -- determinism,
# checkpoint coverage, instrumentation hygiene, callback safety, plus
# the whole-program protocol/vocabulary pass; see
# docs/static-analysis.md).  The project graph is cached under
# .lint_cache/ keyed on a tree content hash, so warm runs skip the
# parse.  The container image may not ship ruff and installs are
# off-limits, so fall back to a byte-compile sweep -- it still catches
# syntax errors across every tree the real linter covers.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "lint: ruff not found; falling back to a compileall syntax sweep"; \
		python -m compileall -q src tests benchmarks examples; \
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
