"""Single-threaded BLAS for the whole test session.

Several acceptance tests assert wall-clock budgets.  The thread counts
must be set before numpy is first imported, and ``perfbench/`` is
collected before ``tests/``, so ``tests/conftest.py`` would be too late.
"""

import os

os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
