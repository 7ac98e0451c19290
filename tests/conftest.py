"""Shared test setup.

Thread pinning must happen before numpy is first imported: multi-threaded
BLAS changes summation order, and several tests assert bit-exact
reproducibility or compare against values measured single-threaded.
"""

import os
import tempfile

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

# Property tests draw their examples from a fixed seed and keep no example
# database, so every run checks the same cases.
settings.register_profile("sketchgs", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("sketchgs")

# hypothesis also caches the literals it finds in the source, while tests are
# collected; keep that cache in a temporary directory removed at exit, not in
# a .hypothesis/ of the working tree
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def dense_sketch():
    """Theta as a dense k x n array, from `apply_block` of 512 unit columns
    at a time, never an n x n identity. Each entry is one +-1 times 1, so it
    has the bits of any apply."""
    def dense(theta):
        n = theta.n
        return np.hstack([theta.apply_block(np.eye(n, min(512, n - j), -j))
                          for j in range(0, n, 512)])
    return dense
