PYTHON ?= python
export PYTHONPATH := src:$(PYTHONPATH)

.PHONY: test bench-fast dashboard clean

test:
	$(PYTHON) -m pytest -x -q

bench-fast:
	REPRO_BENCH_FAST=1 $(PYTHON) -m pytest benchmarks/ -q -s \
		-p no:cacheprovider --override-ini addopts=

# Self-contained HTML observability dashboard (policies, solver, Gantt,
# anomalies) at dashboard.html.
dashboard:
	$(PYTHON) -m repro dashboard

clean:
	rm -rf .repro_cache .benchmarks
	rm -f dashboard.html
	find . -name __pycache__ -type d -exec rm -rf {} +
