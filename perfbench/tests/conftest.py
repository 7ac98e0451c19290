"""Test setup for the benchmark's own tests.

BLAS is pinned to one thread before numpy loads, as the benchmark does, and
the benchmark's modules and the library's sources are put on the path.

    python3 -m pytest perfbench/tests -q
"""

import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

_BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_BENCH), str(_BENCH.parent / "src")]
