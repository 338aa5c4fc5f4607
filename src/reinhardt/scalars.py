"""Exact scalar arithmetic over the rationals and real quadratic fields.

A scalar is either a ``fractions.Fraction`` (plain ``int`` is accepted
everywhere and normalised on the way in) or a :class:`QuadExt` element
``a + b*sqrt(d)`` with rational ``a``, ``b`` and a fixed integer
``2 <= d < 2^64`` that is not a perfect square (:func:`is_nonsquare`); d
need not be square-free.  All arithmetic and all comparisons are exact; in
particular the sign of ``a + b*sqrt(d)`` is decided algebraically, never
through floats.

``QuadExt`` values always have ``b != 0``: the :func:`quad` constructor
demotes to ``Fraction`` when the irrational part cancels, so
``isinstance(x, QuadExt)`` doubles as an exact irrationality test.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import SpecError

Rat = Union[int, Fraction]
Scalar = Union[int, Fraction, "QuadExt"]

_RAT_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def is_nonsquare(d: int) -> bool:
    """Whether 2 <= d < 2^64 and d is not a perfect square: all Q(sqrt d)
    needs is that sqrt(d) is irrational, so 1 and sqrt(d) are independent
    over Q and a + b sqrt(d) is zero only when a = b = 0."""
    return 2 <= d < 2 ** 64 and math.isqrt(d) ** 2 != d


@dataclass(frozen=True)
class QuadExt:
    """Element ``a + b*sqrt(d)`` of a real quadratic field, with b != 0."""

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self):
        if self.b == 0:
            raise ValueError("rational values must be plain Fractions; use quad()")
        if not is_nonsquare(self.d):
            raise ValueError(f"d={self.d} is not a non-square integer in [2, 2^64)")

    # -- coercion -----------------------------------------------------------

    def _parts(self, other) -> tuple[Fraction, Fraction] | None:
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise ValueError(f"mixed quadratic fields: sqrt({self.d}) vs sqrt({other.d})")
            return other.a, other.b
        if isinstance(other, (int, Fraction)):
            return Fraction(other), Fraction(0)
        return None

    # -- ring/field operations ---------------------------------------------

    def __add__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        return quad(self.a + p[0], self.b + p[1], self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        return quad(self.a - p[0], self.b - p[1], self.d)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        oa, ob = p
        return quad(self.a * oa + self.b * ob * self.d, self.a * ob + self.b * oa, self.d)

    __rmul__ = __mul__

    def _inverse(self) -> "QuadExt":
        # (a + b sqrt d)(a - b sqrt d) = a^2 - b^2 d, nonzero since d is not a square
        nrm = self.a * self.a - self.b * self.b * self.d
        return QuadExt(self.a / nrm, -self.b / nrm, self.d)

    def __truediv__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        oa, ob = p
        if ob == 0:
            return quad(self.a / oa, self.b / oa, self.d)
        return self * QuadExt(oa, ob, self.d)._inverse()

    def __rtruediv__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        return quad(p[0], p[1], self.d) * self._inverse() if p[1] else p[0] * self._inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        base: Scalar = self
        if exponent < 0:
            base = self._inverse()
            exponent = -exponent
        result: Scalar = Fraction(1)
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    # -- exact comparisons ---------------------------------------------------

    def sign(self) -> int:
        return quadratic_sign(self.a, self.b, self.d)

    def _cmp(self, other) -> int:
        diff = self - other
        if isinstance(diff, QuadExt):
            return diff.sign()
        return (diff > 0) - (diff < 0)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __float__(self):
        # display/guidance only; decisions never go through floats
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __repr__(self):
        return f"QuadExt({self.a}, {self.b}, d={self.d})"

    def __str__(self):
        return format_scalar(self)


def quad(a, b, d: int) -> Scalar:
    """Build ``a + b*sqrt(d)``, demoting to a plain Fraction when b == 0."""
    a, b = Fraction(a), Fraction(b)
    if b == 0:
        return a
    return QuadExt(a, b, d)


def quadratic_sign(a: Rat, b: Rat, d: int) -> int:
    """Exact sign of ``a + b*sqrt(d)`` for rational a, b and a non-square d >= 2."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa == sb or not sb:
        return sa
    if not sa:
        return sb
    # opposite signs: the part with the larger square wins, a^2 against b^2 d
    diff = a * a - b * b * d
    return sa if diff > 0 else (-sa if diff < 0 else 0)


def is_rational(x: Scalar) -> bool:
    return isinstance(x, (int, Fraction))


def sign_of(x: Scalar) -> int:
    if type(x) is Fraction:
        x = x.numerator  # an int compares with 0 without Fraction's rich comparison
    elif isinstance(x, QuadExt):
        return x.sign()
    return (x > 0) - (x < 0)


def scalar_cmp(x: Scalar, y: Scalar) -> int:
    d = x - y if not isinstance(y, QuadExt) or isinstance(x, QuadExt) else -(y - x)
    return sign_of(d)


def exact_floor(x: Scalar) -> int:
    """Largest integer <= x, decided exactly."""
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return math.floor(x)
    # b sqrt(d) = +-sqrt(b^2 d) is irrational, so between r and r + 1 or
    # -r - 1 and -r: m <= x < m + 2
    r = math.isqrt(math.floor(x.b * x.b * x.d))
    m = math.floor(x.a) + (r if x.b > 0 else -r - 1)
    return m + 1 if sign_of(x - (m + 1)) >= 0 else m


def exact_ceil(x: Scalar) -> int:
    return -exact_floor(-x)


def parse_rational_literal(text: str) -> Fraction:
    if not isinstance(text, str) or not _RAT_RE.fullmatch(text):
        raise SpecError(f"malformed rational literal: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise SpecError(f"zero denominator in rational literal: {text!r}") from None


def parse_scalar_literal(obj, quadratic_d: int | None) -> Scalar:
    """Parse a scalar literal: "p", "p/q", or {"a": rat, "b": rat}."""
    if isinstance(obj, str):
        return parse_rational_literal(obj)
    if isinstance(obj, dict):
        extra = set(obj) - {"a", "b"}
        if extra:
            raise SpecError(f"unknown fields in quadratic literal: {sorted(extra)}")
        if "a" not in obj or "b" not in obj:
            raise SpecError("quadratic literal needs both 'a' and 'b'")
        if quadratic_d is None:
            raise SpecError("quadratic literal used without quadratic_d")
        return quad(parse_rational_literal(obj["a"]), parse_rational_literal(obj["b"]), quadratic_d)
    raise SpecError(f"scalar literal must be a string or an object, got {type(obj).__name__}")


def format_scalar(x: Scalar) -> str:
    if isinstance(x, QuadExt):
        return f"{x.a}+{x.b}*sqrt({x.d})" if x.b > 0 else f"{x.a}-{-x.b}*sqrt({x.d})"
    return str(Fraction(x))


def scalar_to_json(x: Scalar):
    """Serialise a scalar in the same grammar the spec files use."""
    if isinstance(x, QuadExt):
        return {"a": str(x.a), "b": str(x.b)}
    return str(Fraction(x))
