"""Tags for the function spaces the classifier and spectrum engine know about."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

HINF = "hinf"                  # bounded holomorphic functions
L2 = "l2"                      # square-integrable holomorphic functions
LP = "lp"                      # p-integrable holomorphic functions
LDIAMOND_AK = "ldiamond_ak"    # all-p integrable derivatives up to order k
AK = "ak"                      # derivatives up to order k continuous on the closure
HINF_K = "hinf_k"              # bounded derivatives up to order k

_PARAM_P = {LP}
_PARAM_K = {LDIAMOND_AK, AK, HINF_K}
_ALL = {HINF, L2, LP, LDIAMOND_AK, AK, HINF_K}


@dataclass(frozen=True)
class FunctionSpace:
    kind: str
    p: Optional[Fraction] = None
    k: Optional[int] = None

    def __post_init__(self):
        """Check the parameters, and hold p as the Fraction every query
        computes with."""
        if self.kind not in _ALL:
            raise ValueError(f"unknown function space: {self.kind}")
        if self.kind in _PARAM_P:
            try:
                p = Fraction(self.p)
            except (TypeError, ValueError, OverflowError):
                p = None
            if p is None or p < 1:
                raise ValueError(f"space {self.kind} needs a rational parameter p >= 1")
            object.__setattr__(self, "p", p)
        elif self.p is not None:
            raise ValueError(f"space {self.kind} takes no p parameter")
        if self.kind in _PARAM_K:
            if type(self.k) is not int or self.k < 0:  # a bool or 1.5 is no order
                raise ValueError(f"space {self.kind} needs an integer parameter k >= 0")
        elif self.k is not None:
            raise ValueError(f"space {self.kind} takes no k parameter")

    def __str__(self):
        if self.kind in _PARAM_P:
            return f"{self.kind}({self.p})"
        if self.kind in _PARAM_K:
            return f"{self.kind}({self.k})"
        return self.kind


def hinf() -> FunctionSpace:
    return FunctionSpace(HINF)


def l2() -> FunctionSpace:
    return FunctionSpace(L2)


def lp(p) -> FunctionSpace:
    return FunctionSpace(LP, p=p)


def ldiamond_ak(k: int) -> FunctionSpace:
    return FunctionSpace(LDIAMOND_AK, k=k)


def ak(k: int) -> FunctionSpace:
    return FunctionSpace(AK, k=k)


def hinf_k(k: int) -> FunctionSpace:
    return FunctionSpace(HINF_K, k=k)
