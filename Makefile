# Developer entry points.  Everything runs from the repo root with the
# src/ layout on PYTHONPATH; no installation step exists or is needed.

PY      := python
PYPATH  := PYTHONPATH=src
JOBS    ?= 2

.PHONY: test test-fast test-sum312 test-locks coverage lint analyze bench-smoke run-smoke examples-smoke bench bench-kernels bench-runner bench-solver bench-solver-scale bench-sketch bench-compare perfbench-selftest docs-check check clean

## Tier-1 verification: the full unit/integration suite, then the docs
## checker — stale docs fail `make test` locally, not just in review.
test:
	$(PYPATH) $(PY) -m pytest -x -q
	$(PYPATH) $(PY) tools/docs_check.py

## The same suite minus the slow end-to-end tests.
test-fast:
	$(PYPATH) $(PY) -m pytest -x -q -m "not slow"

## The fast suite under CPython 3.12's sum(), which compensates float
## additions: tests/sum312.py patches it in for the whole session, so
## any Python shows that no result depends on which sum() ran.
test-sum312:
	PYTHONPATH=src:tests $(PY) -m pytest -x -q -m "not slow" -p sum312

## The concurrency suites under the REPRO_CHECK_LOCKS=1 harness: every
## access to registered shared state asserts its owning lock is held
## (see docs/ANALYSIS.md).  The flag is read at interpreter start, so
## it must be in the environment of the pytest process itself.
test-locks:
	$(PYPATH) REPRO_CHECK_LOCKS=1 $(PY) -m pytest -x -q \
	    tests/test_runtime_guards.py tests/test_service_concurrency.py \
	    tests/test_lazy_geometry.py

## Coverage gate on the scheduler + control-plane + cache + geometry
## layers: the fast suite under pytest-cov with an 80% line floor on
## repro.sched, repro.service, repro.cache (miss curves, monitors, and
## the telemetry sketches) and repro.geometry (the lazy-matrix machinery
## must stay pinned).  Skips with a notice where pytest-cov is not
## installed (the CI coverage job installs it; see requirements-dev.txt).
coverage:
	@$(PYPATH) $(PY) -c "import pytest_cov" >/dev/null 2>&1 || \
	    { echo "make coverage: pytest-cov not found (pip install pytest-cov); skipping"; exit 0; } ; \
	$(PYPATH) $(PY) -m pytest -q -m "not slow" \
	    --cov=repro.sched --cov=repro.service --cov=repro.cache \
	    --cov=repro.geometry \
	    --cov-report=term-missing --cov-fail-under=80

## repro-analyze: the repo-specific invariant checkers (determinism,
## lock discipline, shared-view immutability, async discipline) over
## src/.  Zero new findings against the committed baseline or it fails;
## docs/ANALYSIS.md catalogues the rules and the suppression policy.
analyze:
	$(PY) -m tools.analyze src

## Static checks: the invariant suite always, then ruff lint rules +
## formatter drift (see ruff.toml).  Ruff skips with a notice where it
## is not installed (the CI lint step installs it; the simulation
## itself never depends on it).
lint: analyze
	@command -v ruff >/dev/null 2>&1 || \
	    { echo "make lint: ruff not found (pip install ruff); skipping"; exit 0; } ; \
	ruff check src tests benchmarks tools examples && \
	ruff format --check src tests benchmarks tools examples

## Fast end-to-end smoke of the parallel runner + caching through the CLI
## and one real benchmark driver.  The trap guarantees the scratch cache
## is removed even when an invocation fails mid-run (CI runners stay
## clean); both CLI runs share one shell so the trap covers them all.
bench-smoke:
	rm -rf .repro-smoke-cache
	trap 'rm -rf .repro-smoke-cache' EXIT; \
	$(PYPATH) $(PY) -m repro fig14 --mixes 2 --jobs $(JOBS) \
	    --cache-dir .repro-smoke-cache && \
	$(PYPATH) $(PY) -m repro fig14 --mixes 2 --jobs $(JOBS) \
	    --cache-dir .repro-smoke-cache
	$(PYPATH) REPRO_JOBS=$(JOBS) $(PY) -m pytest \
	    benchmarks/bench_fig14_four_apps.py benchmarks/bench_gmon_vs_umon.py -q

## Registry-driven CLI invocations with structured output: prove the
## `run <name> --format json` path end to end in seconds (CI fast job),
## through table1's case study and fig12's sweep body.
run-smoke:
	$(PYPATH) $(PY) -m repro run table1 --format json --no-cache
	$(PYPATH) $(PY) -m repro run fig12 --param mixes=1 --format json --no-cache

## Every example end to end with its smallest documented arguments
## (about 12 s): an entry point an example calls that is removed or
## renamed fails here, not in a reader's terminal.
examples-smoke:
	$(PYPATH) $(PY) examples/quickstart.py
	$(PYPATH) $(PY) examples/custom_chip_and_workload.py
	$(PYPATH) $(PY) examples/case_study_36core.py
	$(PYPATH) $(PY) examples/multithreaded_coscheduling.py
	$(PYPATH) $(PY) examples/undercommitted_sweep.py --mixes 2
	$(PYPATH) $(PY) examples/reconfiguration_trace.py
	$(PYPATH) $(PY) examples/session_and_export.py --mixes 2

## The full paper-figure benchmark suite (slow; honest timings, no cache).
bench:
	$(PYPATH) REPRO_JOBS=$(JOBS) $(PY) -m pytest benchmarks/bench_*.py -q

## Kernel microbenchmarks: vectorized vs scalar-reference speedups
## (asserts the >= 3x floor; records an entry in benchmarks/BENCH.json).
bench-kernels:
	$(PYPATH) $(PY) -m pytest benchmarks/bench_kernels.py -q

## Runner throughput: serial vs pool vs mega-batch jobs/sec over the
## fig14-shaped sweep (asserts warm mega >= 5x serial; the latest
## committed entry, on a 2-cpu host, reads 3.61x).  Appends a
## bench_runner_throughput entry to benchmarks/BENCH.json.
bench-runner:
	$(PYPATH) $(PY) -m pytest benchmarks/bench_runner_throughput.py -q

## Solver-strategy smoke: warm incremental/partitioned re-solve cost vs
## the full pipeline + the reconfigure_epoch problem-reuse micro-bench.
## Appends a bench_solver entry to benchmarks/BENCH.json (the artifact
## tools/bench_compare.py gates against the committed baseline).
bench-solver:
	$(PYPATH) REPRO_JOBS=$(JOBS) $(PY) -m pytest \
	    benchmarks/bench_solver_strategies.py -q

## Hierarchical scale points: a 4096-tile hierarchical solve end to end
## (REPRO_BENCH_XL=1 adds the ~40 s 16384-tile point) with the
## lazy-geometry allocation account.  Appends a bench_solver_scale_points
## entry (critical-path Mcycles + geometry MiB) to benchmarks/BENCH.json.
bench-solver-scale:
	$(PYPATH) $(PY) -m pytest benchmarks/bench_solver_scale.py -q

## Sketch-telemetry bench: delta-stream bytes per epoch vs full dumps
## (>= 5x smaller) and warm sketch dirty detection vs exact curves
## (>= 3x faster) at 1024 tiles.  Appends a bench_sketch_telemetry
## entry to benchmarks/BENCH.json.
bench-sketch:
	$(PYPATH) $(PY) -m pytest benchmarks/bench_sketch_telemetry.py -q

## Fail if the latest bench_solver / bench_solver_scale_points /
## bench_runner_throughput / bench_sketch_telemetry entries regressed
## >25% against the previous ones — wall seconds and jobs/sec on
## matching hosts, modeled Mcycles, geometry MiB, and telemetry
## bytes/epoch everywhere (pass BASELINE=path to diff against a saved
## BENCH.json).
bench-compare:
	$(PY) tools/bench_compare.py --bench bench_solver \
	    $(if $(BASELINE),--baseline $(BASELINE),)
	$(PY) tools/bench_compare.py --bench bench_solver_scale_points \
	    $(if $(BASELINE),--baseline $(BASELINE),)
	$(PY) tools/bench_compare.py --bench bench_runner_throughput \
	    $(if $(BASELINE),--baseline $(BASELINE),)
	$(PY) tools/bench_compare.py --bench bench_sketch_telemetry \
	    $(if $(BASELINE),--baseline $(BASELINE),)

## The end-to-end benchmark's self-test (about a minute): toy-size runs
## of both perfbench workloads check its timing wrappers, output checks,
## metric manifest and bitwise-repeatable metrics against the current
## src/, so a change that breaks them fails here, not at the next
## benchmark run.
perfbench-selftest:
	python3 perfbench/selftest.py

## Fail if README/docs code blocks reference CLI flags, experiments,
## modules, or files that do not exist.
docs-check:
	$(PYPATH) $(PY) tools/docs_check.py

check: test lint docs-check

clean:
	rm -rf .repro-cache .repro-smoke-cache benchmarks/benchmark_results.txt
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
