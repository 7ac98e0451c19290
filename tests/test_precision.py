import numpy as np
import pytest

from sketchgs import (MIXED32_64, UNIFIED32, UNIFIED64, PrecisionPolicy,
                      policy_from_name)


def test_unit_roundoffs():
    u32 = 2.0**-24
    # nearest-even roundoff: 1 + u rounds to 1, 1 + 2u does not
    assert np.float32(1.0 + u32) == np.float32(1.0)
    assert np.float32(1.0 + 2.001 * u32) != np.float32(1.0)


def test_policy_dtypes():
    assert UNIFIED32.coarse_dtype == np.float32
    assert UNIFIED32.fine_dtype == np.float32
    assert UNIFIED64.coarse_dtype == np.float64
    assert MIXED32_64.coarse_dtype == np.float32
    assert MIXED32_64.fine_dtype == np.float64
    assert MIXED32_64.u_crs == 2.0**-24
    assert MIXED32_64.u_fine == 2.0**-53
    with pytest.raises(ValueError, match="fine format must not be coarser"):
        PrecisionPolicy("inverted", np.dtype(np.float64), np.dtype(np.float32))


def test_policy_from_name():
    assert policy_from_name("f32") is UNIFIED32
    assert policy_from_name("f64") is UNIFIED64
    assert policy_from_name("mixed") is MIXED32_64
    with pytest.raises(ValueError):
        policy_from_name("f16")
