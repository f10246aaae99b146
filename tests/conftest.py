"""Test-session setup: one BLAS thread unless the caller chose otherwise.

pytest loads this file before any test module imports numpy, and OpenBLAS
reads these variables when numpy loads it.  The suite's small products run
faster on one thread, and a second one only competes with the tests for the
CPU.  The package itself sets no thread count.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
