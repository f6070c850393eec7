"""Test-session setup, run before any test module imports numpy.

OpenBLAS gets one thread unless ``OPENBLAS_NUM_THREADS`` is already set: a
second thread gains no wall time on the N = 1870 products of criterion 10
and slows them when another process shares the machine.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
