"""Soft-prompt and low-rank passage-adapter tuning for passage reranking."""

import os

# A multi-threaded BLAS rounds its sums by the thread count, so the CLI's
# checkpoints, logs and runs would depend on the machine's cores. Pin one
# thread before numpy loads, unless the user chose a count.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if not any(var in os.environ for var in _BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))

__version__ = "0.1.0"
