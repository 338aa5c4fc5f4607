"""Symbolic values ``const + sum(coeff_i * log(base_i))`` with exact signs.

These are the quantities the solver actually compares: log-thresholds of
constraints, LP objective values, and membership slacks all have this shape.
:meth:`LogLin.sign` decides them as follows.

* A form with no terms has the sign of its constant, and a form
  ``coeff * log(base)`` has the sign of ``coeff`` times that of
  ``base - 1``, for any field coefficient and any positive base.
* A form whose bases are all rational is rewritten over a pairwise-coprime
  (gcd-free) base of every numerator and denominator, as
  ``const + sum(e_j * log(p_j))``.  Coprime integers greater than 1 are
  multiplicatively independent, so by Baker's theorem the form is zero
  exactly when every ``e_j`` is zero and ``const`` is zero: this is the exact
  zero test, for coefficients in Q and in Q(sqrt d) alike.
* A form with ``const == 0`` and rational coefficients (after that rewrite,
  when it applies) has the sign of ``prod(base ** k) - 1`` for integer
  ``k``.  This product is compared in the field outright when it is small,
  and otherwise when the interval ladder reaches its cap, so such a sign is
  always exact, over thresholds in Q(sqrt d) too.
* Every other form goes to the interval ladder.  Over rational bases it is
  nonzero there, so the ladder resolves it given enough bits.  A form with a
  base (threshold) in Q(sqrt d) and a constant or a coefficient in Q(sqrt d)
  can be exactly zero without equal bases cancelling; its ladder cannot
  resolve it, and it ends in :class:`BoundaryIndeterminate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Iterable

from .errors import BoundaryIndeterminate
from .precision import ladder_sign, scalar_interval
from .scalars import QuadExt, Scalar, is_rational, scalar_cmp, sign_of

# A form with a zero constant and rational coefficients is decided by the
# product prod(base ** k) outright when product_bits puts it at no more than
# this many bits; larger ones try the interval ladder first.
EXACT_PRODUCT_BITS = 4096


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
        if sign_of(self.const) == 0 and len(self.terms) == 1:
            (base, coeff), = self.terms
            return sign_of(coeff) * scalar_cmp(base, 1)
        form = self
        if all(is_rational(b) for b, _ in self.terms):
            form = _over_coprime_base(self)
            if not form.terms:  # the exact zero test
                return sign_of(form.const)
        powers = _integer_powers(form)
        if powers is not None and product_bits(powers) <= EXACT_PRODUCT_BITS:
            return _product_sign(powers)
        try:
            return ladder_sign(form.interval, what=repr(self))
        except BoundaryIndeterminate:
            if powers is None:
                raise
            return _product_sign(powers)

    def is_zero(self) -> bool:
        return self.sign() == 0

    def interval(self, ctx):
        """Interval enclosure in the interval context ``ctx``."""
        val = scalar_interval(self.const, ctx)
        for base, coeff in self.terms:
            val += scalar_interval(coeff, ctx) * ctx.log(scalar_interval(base, ctx))
        return val

    def __float__(self):
        base = float(self.const) if not isinstance(self.const, int) else self.const
        return float(base) + sum(float(c) * math.log(float(b)) for b, c in self.terms)


def _over_coprime_base(form: LogLin) -> LogLin:
    """``form``, whose bases are all rational, as ``const + sum(e_j * log(p_j))``.

    The p_j are pairwise-coprime integers greater than 1 in increasing order,
    of which every numerator and denominator of a base is a product of
    powers, and no e_j is zero.  The value is unchanged.
    """
    logs = []  # (x > 1, coeff): coeff * log(x)
    for base, coeff in form.terms:
        q = Fraction(base)
        if q.numerator > 1:
            logs.append((q.numerator, coeff))
        if q.denominator > 1:
            logs.append((q.denominator, -coeff))
    terms = []
    for p in sorted(_coprime_base([x for x, _ in logs])):
        e: Scalar = Fraction(0)
        for x, coeff in logs:
            k = 0
            while x % p == 0:
                x //= p
                k += 1
            if k:
                e = e + k * coeff
        if sign_of(e) != 0:
            terms.append((p, e))
    return LogLin(form.const, tuple(terms))


def _integer_powers(form: LogLin) -> list[tuple[Scalar, int]] | None:
    """``[(base, k)]``, integers k with gcd 1, such that ``sum(k * log(base))``
    has the sign of ``form``; None unless ``form.const`` is zero and every
    coefficient is rational."""
    if sign_of(form.const) != 0 or not all(is_rational(c) for _, c in form.terms):
        return None
    coeffs = [Fraction(c) for _, c in form.terms]
    scale = math.lcm(*(c.denominator for c in coeffs))
    ks = [c.numerator * (scale // c.denominator) for c in coeffs]
    g = math.gcd(*ks)
    return [(base, k // g) for (base, _), k in zip(form.terms, ks)]


def product_bits(powers) -> int:
    """Rough size of ``prod(base ** |k|)``: |k| times the bits of each base."""
    return sum(abs(k) * _bits(base) for base, k in powers)


def _bits(x: Scalar) -> int:
    if isinstance(x, QuadExt):
        return _bits(x.a) + _bits(x.b) + x.d.bit_length()
    return (x.numerator * x.denominator).bit_length()


def _coprime_base(values: list[int]) -> list[int]:
    """Pairwise-coprime integers > 1 of which every value is a product of powers.

    Naive gcd refinement: a value that shares a factor g with a kept element b
    is replaced by the pieces x/g, g and b/g.  Each split lowers the product
    of all pending and kept numbers, so the loop ends.
    """
    base: list[int] = []
    todo = [x for x in values if x > 1]
    while todo:
        x = todo.pop()
        for i, b in enumerate(base):
            g = math.gcd(x, b)
            if g > 1:
                del base[i]
                todo.extend(v for v in (x // g, g, b // g) if v > 1)
                break
        else:
            base.append(x)
    return base


def _product_sign(powers) -> int:
    """Sign of ``sum(k * log(base))``: ``prod(base ** k)`` against 1, in the field."""
    num = den = 1
    for base, k in powers:
        if k > 0:
            num = num * base ** k
        else:
            den = den * base ** -k
    return scalar_cmp(num, den)


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
