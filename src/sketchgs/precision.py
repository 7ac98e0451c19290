"""Emulation of a two-roundoff arithmetic model on top of IEEE binary32/64.

Expensive high-dimensional kernels are routed through a coarse floating-point
format (binary32) while everything else runs in a fine format (binary64).
Three policies are provided: everything coarse, everything fine, and the
mixed model where only the designated coarse kernels lose precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PrecisionPolicy", "UNIFIED32", "UNIFIED64", "MIXED32_64",
           "policy_from_name"]


@dataclass(frozen=True)
class PrecisionPolicy:
    """Coarse and fine dtypes per operation class; u_crs, u_fine derive."""

    mode: str  # "f32" | "f64" | "mixed"
    coarse_dtype: np.dtype
    fine_dtype: np.dtype

    def __post_init__(self):
        if self.u_fine > self.u_crs:
            raise ValueError("the fine format must not be coarser")

    @property
    def u_crs(self) -> float:
        return float(np.finfo(self.coarse_dtype).eps / 2)

    @property
    def u_fine(self) -> float:
        return float(np.finfo(self.fine_dtype).eps / 2)

    def __repr__(self):
        return f"PrecisionPolicy({self.mode!r})"


UNIFIED32 = PrecisionPolicy("f32", np.dtype(np.float32), np.dtype(np.float32))
UNIFIED64 = PrecisionPolicy("f64", np.dtype(np.float64), np.dtype(np.float64))
MIXED32_64 = PrecisionPolicy("mixed", np.dtype(np.float32), np.dtype(np.float64))

_POLICIES = {"f32": UNIFIED32, "f64": UNIFIED64, "mixed": MIXED32_64}


def policy_from_name(name: str) -> PrecisionPolicy:
    try:
        return _POLICIES[name]
    except KeyError:
        raise ValueError(f"unknown precision policy {name!r}; "
                         f"expected one of {sorted(_POLICIES)}") from None

