#!/usr/bin/env bash
# Tour digests, golden reports, the reference estimator and the reader's
# properties with numpy's AVX-512 kernels off, then with its AVX-512 and AVX2
# kernels off. Run from the repository root: bash .github/no-avx-tests.sh
#
# The two settings come from the numpy that runs: its dispatch targets, which
# numpy 2.3 and later name X86_V3 and X86_V4 and older releases AVX2, FMA3
# and AVX512F and on. A baseline target cannot be turned off, so none is
# named, and an empty setting is left out. Where numpy has no dispatch list
# the tests are skipped, not guessed at. On a runner without a target numpy
# only warns, and show_runtime prints what ran.
set -euo pipefail
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
settings=$(python -c '
import sys
try:
    from numpy._core import _multiarray_umath as m
except ImportError:
    from numpy.core import _multiarray_umath as m
if not hasattr(m, "__cpu_dispatch__"):
    print(f"{m.__name__} has no __cpu_dispatch__: no setting is run", file=sys.stderr)
    sys.exit()
targets = [t for t in m.__cpu_dispatch__ if t not in m.__cpu_baseline__]
avx512 = [t for t in targets if t.startswith("AVX512") or t == "X86_V4"]
print(",".join(avx512))
print(",".join(t for t in targets if t in avx512 or t in ("AVX2", "FMA3", "X86_V3")))
')
for setting in $settings; do
  export NPY_DISABLE_CPU_FEATURES="${setting//,/ }"
  echo "NPY_DISABLE_CPU_FEATURES=$NPY_DISABLE_CPU_FEATURES"
  python -c "import numpy; numpy.show_runtime()"
  python -m pytest -q tests/test_cli.py -k sha256
  python -m pytest -q tests/test_golden.py tests/test_reference.py
  python -m pytest -q tests/test_io.py -k "bulk_read or bulk_and_checked"
done
