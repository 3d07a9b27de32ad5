PYTHON ?= python
export PYTHONPATH := src

.PHONY: test bench

# Tier-1: every gate (determinism, equivalence, accuracy, crossover, CLI).
test:
	$(PYTHON) -m pytest -x -q

# Full benchmark grid (prints tables; writes results/*.json).
bench:
	$(PYTHON) -m pytest benchmarks -q -s
