# Convenience targets for the BB-Align reproduction.

PYTHON ?= python

.PHONY: install test lint bench bench-artifacts bench-check \
	bench-baseline examples paper-scale clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

# Mirrors the CI lint job (same ruff and mypy paths); degrades
# gracefully when the pinned tools (pip install -e ".[dev]") are not
# installed locally.
RUFF_PATHS = src/repro/core src/repro/experiments src/repro/obs \
	src/repro/runtime src/repro/service \
	tools/check_bench.py tools/smoke_data_plane.py
MYPY_PATHS = src/repro/core src/repro/experiments src/repro/obs \
	src/repro/runtime src/repro/service

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check $(RUFF_PATHS) && \
		ruff format --check tools/smoke_data_plane.py; \
	else echo "ruff not installed; skipping (pip install -e '.[dev]')"; fi
	@if command -v mypy >/dev/null 2>&1; then \
		mypy $(MYPY_PATHS); \
	else echo "mypy not installed; skipping (pip install -e '.[dev]')"; fi

test-report:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-report:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

# Regenerate the BENCH_*.json trajectories and gate them against the
# committed baselines (timing drift warns; metric drift fails).  The
# same three benches and gates as CI.
BENCH_FILES = benchmarks/results/BENCH_comms.json \
	benchmarks/results/BENCH_multi.json \
	benchmarks/results/BENCH_service.json

bench-check:
	$(PYTHON) -m pytest benchmarks/test_comms_bench.py \
		benchmarks/test_multi_study.py benchmarks/test_service_soak.py \
		-x -q -s
	$(PYTHON) tools/check_bench.py $(BENCH_FILES)

# Accept the current BENCH_*.json outputs as the new baselines.  Run
# the benchmarks first (make bench-check), eyeball the drift, then
# commit the files this copies.
bench-baseline:
	mkdir -p benchmarks/results/baselines
	cp $(BENCH_FILES) benchmarks/results/baselines/

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/gps_failure_recovery.py
	$(PYTHON) examples/cooperative_detection.py
	$(PYTHON) examples/scenario_sweep.py
	$(PYTHON) examples/tracked_drive.py
	$(PYTHON) examples/visualize_matching.py
	$(PYTHON) examples/multi_vehicle.py

# Paper-scale sweeps (hours, not minutes).
paper-scale:
	$(PYTHON) -m repro all --pairs 200 --output results_paper_scale/

clean:
	rm -rf build dist *.egg-info .pytest_cache .benchmarks viz_out
	find . -name __pycache__ -type d -exec rm -rf {} +
