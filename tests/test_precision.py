import numpy as np
import pytest

from sketchgs import (MIXED32_64, U_BINARY32, U_BINARY64, UNIFIED32,
                      UNIFIED64, policy_from_name)


def test_unit_roundoffs():
    assert U_BINARY32 == 2.0**-24
    assert U_BINARY64 == 2.0**-53
    # nearest-even roundoff: 1 + u rounds to 1, 1 + 2u does not
    assert np.float32(1.0 + U_BINARY32) == np.float32(1.0)
    assert np.float32(1.0 + 2.001 * U_BINARY32) != np.float32(1.0)


def test_policy_dtypes():
    assert UNIFIED32.coarse_dtype == np.float32
    assert UNIFIED32.fine_dtype == np.float32
    assert UNIFIED64.coarse_dtype == np.float64
    assert MIXED32_64.coarse_dtype == np.float32
    assert MIXED32_64.fine_dtype == np.float64
    assert MIXED32_64.u_crs == U_BINARY32
    assert MIXED32_64.u_fine == U_BINARY64


def test_policy_from_name():
    assert policy_from_name("f32") is UNIFIED32
    assert policy_from_name("f64") is UNIFIED64
    assert policy_from_name("mixed") is MIXED32_64
    with pytest.raises(ValueError):
        policy_from_name("f16")
