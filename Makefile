PYTHON ?= python
# Match the tier-1 command: the package is imported from src/ without an
# install step, preserving any PYTHONPATH the caller already exported.
PYPATH = PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH}

.PHONY: install test bench lint typecheck examples tables clean

install:
	pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYPATH) $(PYTHON) -m pytest tests/

# --benchmark-only would skip every gate without the pytest-benchmark
# fixture (the NTT speedup, the memsim ladder, the sweep memo); with the
# timing switched off every test runs once.
bench:
	$(PYPATH) $(PYTHON) -m pytest benchmarks/ --benchmark-disable

# Generic hygiene only: the domain invariants (cost accounting, span
# labels, exact arithmetic, ...) are tier-1 tests in
# tests/test_invariants.py, so `make test` runs them.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; skipping (pip install ruff)"; \
	fi

typecheck:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "mypy not installed; skipping (pip install mypy)"; \
	fi

examples:
	$(PYPATH) $(PYTHON) examples/quickstart.py
	$(PYPATH) $(PYTHON) examples/bootstrap_analysis.py
	$(PYPATH) $(PYTHON) examples/noise_budget.py
	$(PYPATH) $(PYTHON) examples/private_image_filter.py
	$(PYPATH) $(PYTHON) examples/encrypted_logistic_regression.py
	$(PYPATH) $(PYTHON) examples/accelerator_comparison.py
	$(PYPATH) $(PYTHON) examples/parameter_search.py

tables:
	$(PYPATH) $(PYTHON) -m repro table4
	$(PYPATH) $(PYTHON) -m repro table6
	$(PYPATH) $(PYTHON) -m repro fig2
	$(PYPATH) $(PYTHON) -m repro fig3
	$(PYPATH) $(PYTHON) -m repro balance

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache .benchmarks src/repro.egg-info
