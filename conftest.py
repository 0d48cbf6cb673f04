"""Pin BLAS to one thread for the whole test suite, before numpy loads.

A multi-threaded BLAS rounds its sums differently with the thread count,
and the 1000-step pretraining of acceptance criterion 4 amplifies that
rounding into a different frozen model: at the criterion's seed the
untrained-UPR H@5 is 0.775 with one OpenBLAS thread and 0.9375 with two.
One thread gives every test the same result on every machine;
perfbench/run.py pins the benchmark the same way.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
