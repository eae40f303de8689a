.PHONY: install test lint bench examples all clean

# Matches the tier-1 verify command: run against src/ directly, no
# editable install required.
PYTHONPATH_SRC = PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH))

install:
	pip install -e . || python setup.py develop

test:
	$(PYTHONPATH_SRC) python -m pytest -x -q

# Config lives in pyproject.toml ([tool.ruff]); CI runs the same check.
lint:
	ruff check .

# BLAS threads pinned to one, as CI and perfbench run: unpinned, every
# pool worker's BLAS threads compete for the same cores, and
# bench_executor_scaling refuses to time its sweep speedup.
bench:
	OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 $(PYTHONPATH_SRC) \
		python -m pytest benchmarks/ --benchmark-only

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		$(PYTHONPATH_SRC) python $$script > /dev/null && echo "   OK" || exit 1; \
	done

all: test bench examples

clean:
	rm -rf .pytest_cache .hypothesis benchmarks/results \
		src/repro.egg-info test_output.txt bench_output.txt
	find . -name __pycache__ -type d -exec rm -rf {} +
