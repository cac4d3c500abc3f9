"""Test-session setup, run by pytest before any test module imports numpy.

The suite runs with one OpenBLAS thread unless the caller chose otherwise.
OpenBLAS starts one thread per CPU by default, and on a machine with another
busy process those threads spin against it: on 2 CPUs beside a running
``track``, the suite took 371 s with the default pool and 118 s with one
thread.  Alone it took 76 s either way.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
