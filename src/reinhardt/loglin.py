"""Symbolic values ``const + sum(coeff_i * log(base_i))`` with exact signs.

These are the quantities the solver actually compares: log-thresholds of
constraints, LP objective values, and membership slacks all have this shape.
A sign is decided in two steps by one owner, :class:`LogBase`, which
:meth:`LogLin.sign` builds per form and a simplex tableau
(:mod:`reinhardt.simplex`) builds once for its right-hand sides.

* *Factor* (the constructor): the rational bases are rewritten over a
  pairwise-coprime (gcd-free) base p_j of every numerator and denominator
  (Bach, Driscoll and Shallit, "Factor refinement", 1993), each base a
  sparse integer column of valuations; a base in Q(sqrt d) keeps its own
  column.  Cleared of denominators, the form is
  ``const + sum(e_j * log(p_j))`` with integer ``const`` and ``e_j`` (pairs
  (a, b) for a + b sqrt(d) over Q(sqrt d)).  A form with one term
  ``coeff * log(base)`` and no constant skips this in :meth:`LogLin.sign`:
  it has the sign of ``coeff`` times that of ``base - 1``.
* *Decide* (:meth:`LogBase.sign`), in this order.  Coprime integers greater
  than 1 are multiplicatively independent, so by Baker's theorem a form over
  them is zero exactly when every ``e_j`` and ``const`` are zero: if every
  ``e_j`` is zero the sign is that of ``const``, for coefficients in Q and
  in Q(sqrt d) alike.  A form with ``const == 0`` and rational exponents has
  the sign of ``prod(p_j ** k_j) - 1`` for integers k_j, and so has one
  whose exponents are rational multiples of one element of Q(sqrt d), times
  the sign of that element.  The product is compared outright when it is
  small, and otherwise when the ladder reaches its cap, so such a
  sign is always exact, over thresholds in Q(sqrt d) too.
* Every other form goes to the ladder (:func:`precision.ladder_sign`),
  whose rungs are integer multiply-adds on bounds lo <= 2^bits log(p_j) <= hi
  from one process-wide table (:func:`precision.log_bounds`), as rationals
  over den 2^bits (:meth:`LogBase.bounds`, which :meth:`LogLin.bounds`
  exposes).  A form with a zero constant over Q(sqrt d) is first tested for
  zero: its rational and sqrt(d) halves are sums of logs R and S, and by
  Baker (1966) R + sqrt(d) S = 0 exactly when R = S = 0, which products of
  powers decide.  So a form reaches the ladder only when it is nonzero (or
  those products are too large to compare outright), and the ladder
  resolves it given enough bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from . import linalg
from .errors import BoundaryIndeterminate
from .precision import ladder_sign, log_bounds
from .scalars import QuadExt, Scalar, is_rational, quadratic_sign, scalar_cmp, sign_of

# A form with a zero constant and rational coefficients is decided by the
# product prod(base ** k) outright when product_bits puts it at no more than
# this many bits; larger ones try the ladder first.
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
        """Exact sign; raises BoundaryIndeterminate only past the ladder cap.

        A form of one term and no constant has the sign of its coefficient
        times that of ``base - 1``; any other is cleared to an integer row
        over one positive denominator and decided by :meth:`LogBase.sign`."""
        if not self.terms:
            return sign_of(self.const)
        if sign_of(self.const) == 0 and len(self.terms) == 1:
            (base, coeff), = self.terms
            return sign_of(coeff) * scalar_cmp(base, 1)
        base, ints, den = self._cleared()
        return base.sign(ints, den, lambda: repr(self))

    def is_zero(self) -> bool:
        return self.sign() == 0

    def bounds(self, bits: int) -> tuple[Fraction, Fraction]:
        """Rationals lo <= value <= hi, a few units of 2^-bits (times the
        coefficients) apart: :meth:`LogBase.bounds` of the cleared row."""
        base, ints, den = self._cleared()
        return base.bounds(ints, den, bits)

    def _cleared(self) -> tuple["LogBase", list[int], int]:
        """The form's bases and its integer row over one positive denominator."""
        row = [self.const, *(c for _, c in self.terms)]
        d = linalg.field_of([row])
        ints, den = linalg.over_denominator(row, d)
        return LogBase([b for b, _ in self.terms], d), ints, den

    def __float__(self):
        base = float(self.const) if not isinstance(self.const, int) else self.const
        return float(base) + sum(float(c) * math.log(float(b)) for b, c in self.terms)


class LogBase:
    """The log bases of a form's bases over their coprime base, and the one
    sign decision over them.

    ``logs`` holds the pairwise-coprime integers p_j > 1 of which every
    numerator and denominator of a rational base is a product of powers, in
    increasing order, and then every irrational base as it is.
    ``columns[j]`` holds the pairs ``(1 + t, v)``, v nonzero, such that
    ``log(bases[t])`` is the sum of ``v * log(logs[j])`` over j: the sparse
    integer column of ``logs[j]`` against an integer row ``[const, coeff of
    log(bases[0]), ...]`` over Q, or over Z[sqrt d] for the coefficients'
    field ``d``, which :func:`linalg.sparse_products` maps to exponents over
    ``logs``.  The integer bounds on 2^bits log(logs[j]) the ladder needs come
    from :func:`precision.log_bounds`, which holds them for the process.
    """

    def __init__(self, bases: Sequence[Scalar], d: Optional[int]):
        self.bases, self.d = list(bases), d
        parts = []  # (t, x > 1, +-1): log x enters log(bases[t]) with that sign
        irrational = []
        for t, base in enumerate(self.bases):
            if not is_rational(base):
                irrational.append(t)
                continue
            q = Fraction(base)
            if q.numerator > 1:
                parts.append((1 + t, q.numerator, 1))
            if q.denominator > 1:
                parts.append((1 + t, q.denominator, -1))
        self.logs: list[Scalar] = sorted(_coprime_base([x for _, x, _ in parts]))
        self.columns = []
        for p in self.logs:
            column = []
            for t, x, s in parts:  # a numerator and its denominator share no p
                if x % p == 0:
                    column.append((t, s * _valuation(x, p)[0]))
            self.columns.append(column)
        self.logs += [self.bases[t] for t in irrational]
        self.columns += [[(1 + t, 1)] for t in irrational]

    def _read(self, row: list[int]) -> tuple:
        """``const``, the exponents over ``logs`` (their rational and sqrt(d)
        halves over Q(sqrt d)) and the indices j of the nonzero ones."""
        d = self.d
        const, exps = linalg.entry(row, 0, d), linalg.sparse_products(row, self.columns, d)
        if d is None:
            nums, irrs = exps, None
        else:
            nums, irrs = [a for a, _ in exps], [b for _, b in exps]
        live = [j for j, x in enumerate(nums) if x or (irrs is not None and irrs[j])]
        return const, nums, irrs, live

    def bounds(self, row: list[int], den: int, bits: int) -> tuple[Fraction, Fraction]:
        """Rationals lo <= ``(const + sum(coeff_t * log(bases[t]))) / den`` <= hi
        for the integer row ``[const, coeff_0, ...]``, a few units of 2^-bits
        (times the exponents) apart: integer bounds on 2^bits times the form,
        then over den 2^bits."""
        d = self.d
        const, nums, irrs, live = self._read(row)
        bounds = [log_bounds(self.logs[j], bits) for j in live]
        lo, hi = _enclose(const if d is None else const[0], nums, live, bounds, bits)
        if d is not None and (const[1] or any(irrs[j] for j in live)):
            ilo, ihi = _enclose(const[1], irrs, live, bounds, bits)
            r = math.isqrt(d << 2 * bits)  # r <= 2^bits sqrt(d) < r + 1
            ends = (ilo * r, ilo * (r + 1), ihi * r, ihi * (r + 1))
            lo, hi, bits = (lo << bits) + min(ends), (hi << bits) + max(ends), 2 * bits
        return Fraction(lo, den << bits), Fraction(hi, den << bits)

    def sign(self, row: list[int], den: int, what: Callable[[], str]) -> int:
        """Sign of ``(const + sum(coeff_t * log(bases[t]))) / den`` for the
        integer row ``[const, coeff_0, ...]`` and a positive integer ``den``;
        ``what()`` names the form if the ladder fails.  With ``const`` and
        the exponents e_j over ``logs`` read off the row, decided in this order:

        * every exponent zero: the sign of ``const``;
        * ``const`` zero and the exponents rational, or rational multiples of
          one element e as :func:`_powers` allows: the sign of e times that of
          ``prod(p_j ** k_j) - 1`` for integers k_j, outright when
          :func:`product_bits` is at most ``EXACT_PRODUCT_BITS``;
        * ``const`` zero over Q(sqrt d), e_j = a_j + b_j sqrt(d): zero when
          ``prod(p_j ** a_j)`` and ``prod(p_j ** b_j)`` are both 1, compared
          outright within ``EXACT_PRODUCT_BITS``; by Baker (1966) the form
          R + sqrt(d) S, R and S the two sums of logs, is zero only then;
        * everything else, and larger products, by :func:`ladder_sign`; a
          product the ladder cannot resolve is then compared outright.
        """
        d = self.d
        const, nums, irrs, live = self._read(row)
        if not live:  # the exact zero test
            return (const > 0) - (const < 0) if d is None else quadratic_sign(*const, d)
        scale, powers = _powers(const, nums, irrs, live, d, self.logs)
        if powers and product_bits(powers) <= EXACT_PRODUCT_BITS:
            return scale * _product_sign(powers)
        if not powers and d is not None and not (const[0] or const[1]):
            halves = [[(self.logs[j], x[j]) for j in live if x[j]] for x in (nums, irrs)]
            if all(product_bits(h) <= EXACT_PRODUCT_BITS and _product_sign(h) == 0 for h in halves):
                return 0
        try:
            return ladder_sign(lambda bits: self.bounds(row, den, bits), what=what)
        except BoundaryIndeterminate:
            if not powers:
                raise
            return scale * _product_sign(powers)


def _enclose(c: int, xs: Sequence[int], live: list[int], bounds: list, bits: int) -> tuple:
    """Integers lo <= 2^bits (c + sum(xs[j] * log(p_j))) <= hi over the live
    j, from the bounds lo_j <= 2^bits log(p_j) <= hi_j in the same order."""
    terms = [(xs[j], lo, hi) for j, (lo, hi) in zip(live, bounds)]
    return ((c << bits) + sum(x * (lo if x > 0 else hi) for x, lo, hi in terms),
            (c << bits) + sum(x * (hi if x > 0 else lo) for x, lo, hi in terms))


def _powers(const, nums, irrs, live, d, bases) -> tuple[int, list[tuple[Scalar, int]]]:
    """``(s, [(base, k)])``, integers k with gcd 1, such that the form of
    :meth:`LogBase.sign` has s times the sign of ``sum(k * log(base))``.

    The list is empty unless ``const`` is zero and the live exponents are
    rational multiples of the first, e = a + b sqrt(d).  The form is then e
    times a form with rational exponents: the k are the a halves, or the b
    halves when a is zero, and s is the sign of e times that of its half."""
    if const if d is None else const[0] or const[1]:
        return 0, []
    ks, scale = nums, 1
    if d is not None:
        a, b = nums[live[0]], irrs[live[0]]
        if any(nums[j] * b != irrs[j] * a for j in live):
            return 0, []
        ks = nums if a else irrs
        scale = quadratic_sign(a, b, d) * (1 if ks[live[0]] > 0 else -1)
    g = math.gcd(*(ks[j] for j in live))
    return scale, [(bases[j], ks[j] // g) for j in live]


def product_bits(powers) -> int:
    """Rough size of ``prod(base ** |k|)``: |k| times the bits of each base."""
    return sum(abs(k) * _bits(base) for base, k in powers)


def _bits(x: Scalar) -> int:
    if isinstance(x, QuadExt):
        return _bits(x.a) + _bits(x.b) + x.d.bit_length()
    return (x.numerator * x.denominator).bit_length()


def _coprime_base(values: list[int]) -> list[int]:
    """Pairwise-coprime integers > 1 of which every value is a product of powers.

    Naive gcd refinement: when a value x shares a factor g with a kept
    element b and one of them divides the other, the smaller is kept and the
    larger, divided by every power of it, goes back to the pending values;
    otherwise b is dropped and the pieces x/g, g and b/g are pending.  Each
    step lowers the product of all pending and kept numbers, so the loop ends.
    """
    base: list[int] = []
    todo = [x for x in values if x > 1]
    while todo:
        x = todo.pop()
        for i, b in enumerate(base):
            g = math.gcd(x, b)
            if g == 1:
                continue
            if g in (x, b):
                small, big = (b, x) if g == b else (x, b)
                big = _valuation(big, small)[1]
                base[i] = small
                if big > 1:
                    todo.append(big)
            else:
                del base[i]
                todo.extend(v for v in (x // g, g, b // g) if v > 1)
            break
        else:
            base.append(x)
    return base


def _valuation(x: int, p: int) -> tuple[int, int]:
    """``(k, x // p ** k)`` for the largest k with ``p ** k`` dividing x > 0,
    p > 1: x is divided by p, p^2, p^4, ... while they divide it, then by
    each of those powers that still does, from the largest down."""
    powers = []
    while x % p == 0:
        powers.append(p)
        p *= p
    k = 0
    for i in reversed(range(len(powers))):
        if x % powers[i] == 0:
            x //= powers[i]
            k += 1 << i
    return k, x


def _product_sign(powers) -> int:
    """Sign of ``sum(k * log(base))``: ``prod(base ** k)`` against 1, in
    integers over integer bases, and in the field over bases in Q(sqrt d)."""
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
    """Equal bases merged and sorted: ``Fraction``, ``int`` and ``QuadExt``
    hash and order exactly, and no ``QuadExt`` equals a rational."""
    merged: dict = {}
    for base, coeff in raw_terms:
        merged[base] = merged[base] + coeff if base in merged else coeff
    return LogLin(_norm_const(const), tuple(sorted(
        ((b, c) for b, c in merged.items() if sign_of(c) != 0 and b != 1), key=lambda t: t[0])))


def as_loglin(value) -> LogLin:
    return value if isinstance(value, LogLin) else LogLin.of(value)
