"""Emulation of a two-roundoff arithmetic model on top of IEEE binary32/64.

Expensive high-dimensional kernels are routed through a coarse floating-point
format (binary32) while everything else runs in a fine format (binary64).
Three policies are provided: everything coarse, everything fine, and the
mixed model where only the designated coarse kernels lose precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

U_BINARY32 = 2.0**-24
U_BINARY64 = 2.0**-53


@dataclass(frozen=True)
class PrecisionPolicy:
    """A (u_crs, u_fine) pair realized as numpy dtypes per operation class."""

    mode: str  # "f32" | "f64" | "mixed"
    coarse_dtype: np.dtype
    fine_dtype: np.dtype
    u_crs: float
    u_fine: float

    def __post_init__(self):
        if self.u_fine > self.u_crs:
            raise ValueError("u_fine must not exceed u_crs")

    def __repr__(self):
        return f"PrecisionPolicy({self.mode!r})"


UNIFIED32 = PrecisionPolicy("f32", np.dtype(np.float32), np.dtype(np.float32),
                            U_BINARY32, U_BINARY32)
UNIFIED64 = PrecisionPolicy("f64", np.dtype(np.float64), np.dtype(np.float64),
                            U_BINARY64, U_BINARY64)
MIXED32_64 = PrecisionPolicy("mixed", np.dtype(np.float32), np.dtype(np.float64),
                             U_BINARY32, U_BINARY64)

_POLICIES = {"f32": UNIFIED32, "f64": UNIFIED64, "mixed": MIXED32_64}


def policy_from_name(name: str) -> PrecisionPolicy:
    try:
        return _POLICIES[name]
    except KeyError:
        raise ValueError(f"unknown precision policy {name!r}; "
                         f"expected one of {sorted(_POLICIES)}") from None

