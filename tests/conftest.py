"""Test-session setup shared by every tier-1 test module.

OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy is first imported, so
this runs before any test module imports numpy. One BLAS thread matches CI
and the benchmark: on a small shared host a second thread makes small
matrix products wait for the other core, which moves the timing ratios of
`test_criterion_5_speed_claims`. A value set in the environment wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
