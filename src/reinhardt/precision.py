"""Exact signs on rational enclosures, with a doubling working-precision ladder.

Exact decisions go through field arithmetic whenever possible.  Whatever is
left (signs of expressions mixing logarithms or pi) is decided by
:func:`ladder_sign` on exact rational ends lo <= x <= hi that tighten with
the working precision: start at 64 bits, double until lo > 0 or hi < 0, give
up with :class:`BoundaryIndeterminate` at the cap.  The cap defaults to 1024
bits and can be overridden through the ``REINHARDT_PRECISION`` environment
variable.  The ladder hands its rungs bits, not interval contexts.

Integer bounds on 2^bits log(x) (:func:`log_bounds`), which a
:class:`loglin.LogBase` holds per precision and combines by integer
multiply-adds, come from the stdlib ``decimal`` for an integer x, the only
kind a rational base factors into.  mpmath supplies the rest: log bounds
for x in Q(sqrt d), rational bounds on pi^n (:func:`pi_power_bounds`), for
the witness's c pi^n against 1, and the outward-rounded intervals that
:func:`interval_str` prints.  The first of those calls imports it, so a
classify whose thresholds are rational never does.  A precision that needs
an interval context (a log over Q(sqrt d), a printed interval) has its own,
fixed at that many bits; nothing here writes mpmath's global state or the
thread's decimal context, so parallel threads cannot change each other's
precision.

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


@cache
def working_precision(bits: int):
    """The mpmath interval context at ``bits`` working bits, built once (it
    costs more than a whole sign) and never changed afterwards."""
    from mpmath.ctx_iv import MPIntervalContext
    ctx = MPIntervalContext()
    ctx.prec = bits
    return ctx


def scalar_interval(x: Scalar, ctx):
    """Enclose an exact scalar in an interval of the context ``ctx``."""
    if isinstance(x, QuadExt):
        return (ctx.mpf(x.a.numerator) / x.a.denominator
                + ctx.mpf(x.b.numerator) / x.b.denominator * ctx.sqrt(x.d))
    x = Fraction(x)
    return ctx.mpf(x.numerator) / x.denominator


def rational_bounds(x: Scalar, bits: int) -> tuple[Fraction, Fraction]:
    """Rationals lo <= x <= hi: x itself for a rational x, and a + b sqrt(d)
    with sqrt(d) between consecutive multiples of 2^-bits otherwise."""
    if not isinstance(x, QuadExt):
        return x, x
    r = math.isqrt(x.d << 2 * bits)  # r <= 2^bits sqrt(d) < r + 1
    return tuple(sorted(x.a + x.b * Fraction(s, 1 << bits) for s in (r, r + 1)))


def log_bounds(x: Scalar, bits: int) -> tuple[int, int]:
    """Integers lo <= 2^bits log(x) <= hi for an exact x > 0: from ``decimal``
    for an integer (:func:`_int_log_bounds`), else from mpmath."""
    if isinstance(x, int):
        return _int_log_bounds(x, bits)
    from mpmath import libmp
    lo, hi = libmp.mpi_log(scalar_interval(x, working_precision(bits))._mpi_, bits)
    return (libmp.to_int(libmp.mpf_shift(lo, bits), libmp.round_floor),
            libmp.to_int(libmp.mpf_shift(hi, bits), libmp.round_ceiling))


@lru_cache(maxsize=4096)
def _int_log_bounds(p: int, bits: int) -> tuple[int, int]:
    """Integers lo <= 2^bits log(p) <= hi for an integer p > 0, held for the
    4096 pairs (p, bits) asked for last.  ``Context.ln`` rounds correctly to
    its ``prec`` digits, which exceed bits log10(2) plus the digits of the
    integer part of log p, so the result D 10^e is within one unit of its
    last digit: (D - 1) 10^e and (D + 1) 10^e enclose log p, and their
    multiples of 2^bits are rounded outward.  The context is local to the
    call, so threads share nothing."""
    if p == 1:
        return 0, 0
    prec = bits * 30103 // 100000 + len(str(p.bit_length())) + 3
    _, digits, e = decimal.Context(prec=prec).ln(decimal.Decimal(p)).as_tuple()
    d, scale = int("".join(map(str, digits))), 10 ** -e  # e < 0: log p is irrational
    return ((d - 1) << bits) // scale, -((-(d + 1) << bits) // scale)


@cache
def pi_power_bounds(n: int, bits: int) -> tuple[Fraction, Fraction]:
    """lo^n and hi^n for the rationals lo < pi < hi that are pi rounded down
    and up to ``bits`` bits; held once per n and precision."""
    from mpmath import libmp
    return tuple(Fraction(*libmp.to_rational(libmp.mpf_pi(bits, rnd))) ** n
                 for rnd in (libmp.round_floor, libmp.round_ceiling))


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
            lo, hi = _decimal_str(lo, decimal.ROUND_FLOOR), _decimal_str(hi, decimal.ROUND_CEILING)
            if callable(what):
                what = what()
            raise BoundaryIndeterminate(
                f"sign of {what} unresolved at {bits} working bits, last interval "
                f"[{lo}, {hi}] (set {PRECISION_ENV_VAR} to raise the cap)",
                what=what, bits=bits, interval=(lo, hi))
        bits = min(2 * bits, cap)


def _decimal_str(q: Fraction, rounding: str, dps: int = 10) -> str:
    """The rational q to ``dps`` significant digits, rounded in the direction
    ``rounding``; decimal division rounds the exact quotient once."""
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.rounding = dps, rounding
        return str(ctx.divide(decimal.Decimal(q.numerator), decimal.Decimal(q.denominator)))


def interval_str(val, dps: int = 10) -> tuple[str, str]:
    """Directed decimal endpoints (lo rounded down, hi rounded up) of a
    finite mpmath interval."""
    from mpmath import libmp
    lo, hi = (Fraction(*libmp.to_rational(end)) for end in val._mpi_)
    return _decimal_str(lo, decimal.ROUND_FLOOR, dps), _decimal_str(hi, decimal.ROUND_CEILING, dps)
