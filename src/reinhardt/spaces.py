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
        if self.kind not in _ALL:
            raise ValueError(f"unknown function space: {self.kind}")
        if self.kind in _PARAM_P:
            if self.p is None or Fraction(self.p) < 1:
                raise ValueError("this space needs a rational parameter p >= 1")
        elif self.p is not None:
            raise ValueError(f"space {self.kind} takes no p parameter")
        if self.kind in _PARAM_K:
            if self.k is None or self.k < 0:
                raise ValueError("this space needs an integer parameter k >= 0")
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
    return FunctionSpace(LP, p=Fraction(p))


def ldiamond_ak(k: int) -> FunctionSpace:
    return FunctionSpace(LDIAMOND_AK, k=k)


def ak(k: int) -> FunctionSpace:
    return FunctionSpace(AK, k=k)


def hinf_k(k: int) -> FunctionSpace:
    return FunctionSpace(HINF_K, k=k)
