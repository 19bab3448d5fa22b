#!/usr/bin/env bash
# Binning, reference-estimator, reader, writer, sweep and statistics tests on
# one CPU, where analyze, the dataset reader and writer and sweep-dependence
# start no thread. Run from the repository root: bash .github/one-cpu-tests.sh
set -euo pipefail
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
taskset -c 0 python -m pytest -q tests/test_binning.py tests/test_reference.py \
  tests/test_golden.py tests/test_properties.py tests/test_io.py tests/test_sampling.py \
  tests/test_core.py
