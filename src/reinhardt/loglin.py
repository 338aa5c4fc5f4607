"""Symbolic values ``const + sum(coeff_i * log(base_i))`` with exact signs.

These are the quantities the solver actually compares: log-thresholds of
constraints, LP objective values, and membership slacks all have this shape.
Signs are decided exactly whenever every coefficient is rational — the
combination then equals ``log(prod base_i**coeff_i) + const``, and for
``const == 0`` the product comparison against 1 happens inside the scalar
field after clearing denominators.  Only genuinely transcendental comparisons
fall through to the interval ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Iterable

from .precision import iv, ladder_sign, scalar_interval
from .scalars import Scalar, is_rational, scalar_cmp, sign_of


@dataclass(frozen=True)
class LogLin:
    """Canonical form: terms sorted by base, no zero coefficients, no base 1."""

    const: Scalar
    terms: tuple[tuple[Scalar, Scalar], ...]  # ((base, coeff), ...)

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def of(const: Scalar) -> "LogLin":
        return LogLin(_norm_const(const), ())

    @staticmethod
    def log_of(base: Scalar, coeff: Scalar = 1) -> "LogLin":
        if sign_of(base) <= 0:
            raise ValueError("log base must be a positive exact scalar")
        return _canonical(0, [(base, coeff)])

    @staticmethod
    def zero() -> "LogLin":
        return LogLin(Fraction(0), ())

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, LogLin):
            return _canonical(self.const + other.const, list(self.terms) + list(other.terms))
        if isinstance(other, (int, Fraction)) or hasattr(other, "sign"):
            return _canonical(self.const + other, list(self.terms))
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return LogLin(-self.const, tuple((b, -c) for b, c in self.terms))

    def __sub__(self, other):
        if isinstance(other, LogLin):
            return self + (-other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, scalar):
        if isinstance(scalar, LogLin):
            return NotImplemented
        if sign_of(scalar) == 0:
            return LogLin.zero()
        return LogLin(self.const * scalar, tuple((b, c * scalar) for b, c in self.terms))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (Fraction(1) / scalar if isinstance(scalar, (int, Fraction)) else 1 / scalar)

    # -- decisions ------------------------------------------------------------

    def sign(self) -> int:
        """Exact sign; raises BoundaryIndeterminate only past the ladder cap."""
        if not self.terms:
            return sign_of(self.const)
        if sign_of(self.const) == 0 and all(is_rational(c) for _, c in self.terms):
            # sum(q_i log b_i) vs 0  <=>  prod b_i**(q_i L) vs 1 for any L > 0
            lcm = math.lcm(*(Fraction(c).denominator for _, c in self.terms))
            prod: Scalar = Fraction(1)
            for base, coeff in self.terms:
                prod = prod * _pow_int(base, int(Fraction(coeff) * lcm))
            return sign_of(prod - 1)
        return ladder_sign(self._interval, what=repr(self))

    def is_zero(self) -> bool:
        return self.sign() == 0

    def _interval(self):
        val = scalar_interval(self.const)
        for base, coeff in self.terms:
            val += scalar_interval(coeff) * iv.log(scalar_interval(base))
        return val

    def interval(self):
        """Interval enclosure at the ambient iv precision."""
        return self._interval()

    def __float__(self):
        base = float(self.const) if not isinstance(self.const, int) else self.const
        return float(base) + sum(float(c) * math.log(float(b)) for b, c in self.terms)


def _pow_int(base: Scalar, e: int) -> Scalar:
    if isinstance(base, (int, Fraction)):
        return Fraction(base) ** e
    return base ** e


def _norm_const(c) -> Scalar:
    return Fraction(c) if isinstance(c, int) else c


def _canonical(const, raw_terms: Iterable[tuple[Scalar, Scalar]]) -> LogLin:
    merged: list[list] = []
    for base, coeff in raw_terms:
        for slot in merged:
            if scalar_cmp(slot[0], base) == 0:
                slot[1] = slot[1] + coeff
                break
        else:
            merged.append([base, coeff])
    kept = [(b, c) for b, c in merged if sign_of(c) != 0 and scalar_cmp(b, 1) != 0]
    kept.sort(key=cmp_to_key(lambda s, t: scalar_cmp(s[0], t[0])))
    return LogLin(_norm_const(const), tuple((b, c) for b, c in kept))


def as_loglin(value) -> LogLin:
    return value if isinstance(value, LogLin) else LogLin.of(value)
