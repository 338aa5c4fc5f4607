"""Exact signs on rational enclosures, with a doubling working-precision ladder.

Exact decisions go through field arithmetic whenever possible.  Whatever is
left (signs of expressions mixing logarithms or pi) is decided by
:func:`ladder_sign` on exact rational ends lo <= x <= hi that tighten with
the working precision: start at 64 bits, double until lo > 0 or hi < 0, give
up with :class:`BoundaryIndeterminate` at the cap.  The cap defaults to 1024
bits and can be overridden through the ``REINHARDT_PRECISION`` environment
variable.  The ladder hands its rungs bits.

Every bound here comes from integers and the stdlib ``decimal``.  Integer
bounds on 2^bits log(x) (:func:`log_bounds`, held for the 4096 pairs
(x, bits) asked for last), which a :class:`loglin.LogBase` combines by
integer multiply-adds, come from one atanh series on integers after integer
square roots for every exact x > 0, an integer or in Q(sqrt d).
Rational bounds on pi^n (:func:`pi_power_bounds`) come from Machin's
formula summed in integers, and on exp (:func:`exp_bounds`) from
``decimal``'s correctly rounded ``exp``.  Printed intervals
(:func:`interval_str`) round rational ends outward to decimals.  Each call
builds its own ``decimal`` context and nothing here writes the thread's,
so parallel threads cannot change each other's precision.

Signs of log-linear forms over rational bases never need the ladder to tell
zero from nonzero: :mod:`reinhardt.loglin` decides that exactly on integer
exponents over a coprime base, so such a form reaches the ladder only when
it is nonzero, and then the ladder terminates given enough bits.
"""

from __future__ import annotations

import decimal
import math
import os
from fractions import Fraction
from functools import cache, lru_cache
from typing import Callable

from .errors import BoundaryIndeterminate
from .scalars import QuadExt, Scalar

LADDER_START_BITS = 64
DEFAULT_MAX_BITS = 1024
PRECISION_ENV_VAR = "REINHARDT_PRECISION"


def max_precision_bits() -> int:
    raw = os.environ.get(PRECISION_ENV_VAR)
    if raw is None:
        return DEFAULT_MAX_BITS
    try:
        bits = int(raw)
    except ValueError as exc:
        raise ValueError(f"{PRECISION_ENV_VAR} must be an integer, got {raw!r}") from exc
    return max(bits, LADDER_START_BITS)


def rational_bounds(x: Scalar, bits: int) -> tuple[Fraction, Fraction]:
    """Rationals lo <= x <= hi: x itself for a rational x, and a + b sqrt(d),
    or (a^2 - b^2 d) / (a - b sqrt(d)) when a b < 0, which does not cancel,
    with sqrt(d) between consecutive multiples of 2^-bits otherwise."""
    if not isinstance(x, QuadExt):
        return x, x
    r = math.isqrt(x.d << 2 * bits)  # r <= 2^bits sqrt(d) < r + 1
    a, b, roots = x.a, x.b, (Fraction(s, 1 << bits) for s in (r, r + 1))
    if a * b >= 0:
        return tuple(sorted(a + b * t for t in roots))
    return tuple(sorted((a * a - b * b * x.d) / (a - b * t) for t in roots))


@lru_cache(maxsize=4096)
def log_bounds(x: Scalar, bits: int) -> tuple[int, int]:
    """Integers lo <= 2^bits log(x) <= hi, at most 2 apart, for an exact x > 0,
    held for the 4096 pairs (x, bits) asked for last.  x is 2^e y with y in
    [1, 2): log(x) = e log 2 + log(y), each from :func:`_log_fixed` at
    f = bits + g bits (log 2 held), rounded outward."""
    r = math.isqrt(bits) // 4 + 2  # square roots before the series: about the cheapest mix
    g = r + 2 * bits.bit_length() + 10  # 2^g exceeds the units lost below, for |e| < 2^12
    f = bits + g
    # x = (a + b sqrt(d)) / den in integers, and e is log2(x) within a few units;
    # when a and b have opposite signs, x = (a^2 - b^2 d) / (den (a - b sqrt(d))) does not cancel
    qa, qb, d = (x.a, x.b, x.d) if isinstance(x, QuadExt) else (x, 0, 0)
    den = math.lcm(qa.denominator, qb.denominator)
    a, b = qa.numerator * (den // qa.denominator), qb.numerator * (den // qb.denominator)
    big = max(abs(a).bit_length(), abs(b).bit_length() + d.bit_length() // 2)
    e = (big if a * b >= 0 else abs(a * a - b * b * d).bit_length() - big) - den.bit_length()
    while (y := _floor_scaled(a, b, d, den, f - e)).bit_length() != f + 1:
        e += y.bit_length() - f - 1
    (y_lo, y_hi), (t_lo, t_hi) = _log_fixed(y, f, r), _log2(f, r)
    lo, hi = y_lo + min(e * t_lo, e * t_hi), y_hi + max(e * t_lo, e * t_hi)
    return lo >> g, -(-hi >> g)


def _floor_scaled(a: int, b: int, d: int, den: int, s: int) -> int:
    """floor((a + b sqrt(d)) 2^s / den) for integers, den > 0 and sqrt(d)
    irrational unless b = 0: t <= |b| sqrt(d) 2^s < t + 1, and the quotient
    of an integer plus a fraction in [0, 1) floors as the integer's does."""
    if s < 0:
        den, s = den << -s, 0
    t = math.isqrt(b * b * d << 2 * s)
    return ((a << s) + (t if b >= 0 else -t - 1)) // den


@cache
def _log2(f: int, r: int) -> tuple[int, int]:
    """:func:`_log_fixed` of v = 2, held per precision."""
    return _log_fixed(2 << f, f, r)


def _log_fixed(y: int, f: int, r: int) -> tuple[int, int]:
    """Integers lo <= 2^f log(v) <= hi for a real v in [1, 2] with
    y <= 2^f v < y + 1.  r integer square roots take y to z with
    z <= 2^f v^(2^-r) < z + 2 (each halves the units lost so far and loses
    at most one more), and log(v) = 2^(r + 1) atanh(u) for
    u = (z - 1) / (z + 1) < 2^-r.  The series sum(u^(2i + 1) / (2i + 1)) in
    floored integers is a lower bound, within 3k + 6 units for k = 2i + 1
    at the first power that floors to 0 (under 2 per term and under 2k for
    the tail, and 3 for u and the 2 units of z)."""
    for _ in range(r):
        y = math.isqrt(y << f)
    one = 1 << f
    u = ((y - one) << f) // (y + one)
    s, p, k, u2 = 0, u, 1, u * u >> f
    while p:
        s += p // k
        p = p * u2 >> f
        k += 2
    return s << r + 1, (s + 3 * k + 6) << r + 1


@cache
def pi_power_bounds(n: int, bits: int) -> tuple[Fraction, Fraction]:
    """lo^n and hi^n for the consecutive multiples lo < pi < hi of 2^-bits;
    held once per n and precision.  Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239) is summed in integers at g more bits,
    each atan to within its number of terms plus one unit; g grows until the
    enclosure lies between two multiples of 2^-bits."""
    g = bits.bit_length() + 6
    while True:
        (s5, t5), (s239, t239) = _atan_inv(5, bits + g), _atan_inv(239, bits + g)
        mid, err = 16 * s5 - 4 * s239, 16 * t5 + 4 * t239
        lo, hi = (mid - err) >> g, -(-(mid + err) >> g)
        if hi - lo == 1:
            return Fraction(lo, 1 << bits) ** n, Fraction(hi, 1 << bits) ** n
        g += 16


def _atan_inv(x: int, p: int) -> tuple[int, int]:
    """``(s, t)`` with |s - 2^p atan(1/x)| <= t for an integer x > 1: the
    series sum((-1)^i / ((2i + 1) x^(2i + 1))), each term floored exactly
    (repeated floor division is floor division by the product), summed while
    a term is at least one unit; the tail left is below one unit."""
    total, power, k, x2 = 0, (1 << p) // x, 1, x * x
    while power:
        total += power // k if k & 2 == 0 else -(power // k)
        power //= x2
        k += 2
    return total, k // 2 + 1


def exp_bounds(lo: Fraction, hi: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Rationals below exp(lo) and above exp(hi), for rationals lo <= hi, each
    within a few units of 2^-bits relative.  lo is rounded down and hi up to
    P = bits log10(2) + 3 decimals, and ``decimal``'s ``exp``, correctly
    rounded to P significant digits, is stepped one unit outward."""
    digits = bits * 30103 // 100000 + 3
    ctx = decimal.Context(prec=digits, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    scale = 10 ** digits
    args = ((lo.numerator * scale) // lo.denominator, -(-hi.numerator * scale // hi.denominator))
    low, high = (ctx.exp(decimal.Decimal(f"{a}e-{digits}")) for a in args)  # exact
    return Fraction(ctx.next_minus(low)), Fraction(ctx.next_plus(high))


def ladder_sign(build: Callable[[int], tuple[Fraction, Fraction]],
                what: str | Callable[[], str] = "expression") -> int:
    """Resolve the sign of an exact quantity x by escalating the working precision.

    ``build(bits)`` must return rationals lo <= x <= hi for the same x at
    every precision, tighter the more bits it is given.  ``what`` names x in
    the error, or builds the name when called, which happens only past the cap.
    """
    bits = LADDER_START_BITS
    cap = max_precision_bits()
    while True:
        lo, hi = build(bits)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        if bits >= cap:
            lo, hi = interval_str(lo, hi)
            if callable(what):
                what = what()
            raise BoundaryIndeterminate(
                f"sign of {what} unresolved at {bits} working bits, last interval "
                f"[{lo}, {hi}] (set {PRECISION_ENV_VAR} to raise the cap)",
                what=what, bits=bits, interval=(lo, hi))
        bits = min(2 * bits, cap)


def interval_str(lo: Fraction, hi: Fraction, dps: int = 10) -> tuple[str, str]:
    """The rationals lo <= hi to ``dps`` significant digits, lo rounded down
    and hi up; decimal division rounds each exact quotient once."""
    ends = ((Fraction(lo), decimal.ROUND_FLOOR), (Fraction(hi), decimal.ROUND_CEILING))
    return tuple(str(decimal.Context(prec=dps, rounding=rounding).divide(
        decimal.Decimal(q.numerator), decimal.Decimal(q.denominator))) for q, rounding in ends)
