"""Interval evaluation with a doubling working-precision ladder.

Exact decisions go through field arithmetic whenever possible.  Whatever is
left (signs of expressions mixing logarithms, pi, or n-th roots) is evaluated
with mpmath's outward-rounding interval arithmetic: start at 64 bits, double
until the sign resolves, give up with :class:`BoundaryIndeterminate` at the
cap.  The cap defaults to 1024 bits and can be overridden through the
``REINHARDT_PRECISION`` environment variable.

Each precision has its own interval context, fixed at that many bits and
passed explicitly to whatever builds an interval; nothing here writes
mpmath's global state, so evaluations in parallel threads cannot change each
other's precision.  :func:`ladder_sign` is the one loop that raises the
precision.

Signs of log-linear forms over rational bases never need the ladder to tell
zero from nonzero: :mod:`reinhardt.loglin` decides that exactly on integer
exponents over a coprime base, so such a form reaches the ladder only when
it is nonzero, and then the ladder terminates given enough bits.  The
ladders of ``LogLin.sign`` and of the simplex ratio tests run on integers:
each rung takes integer bounds on 2^bits log(p) (:func:`log_bounds`, held
per p and precision by a :class:`loglin.LogBase`), encloses the form by integer
multiply-adds and passes one outward-rounded interval
(:func:`scaled_interval`).  Witness certificates build mpmath intervals
only for the threshold ``N0`` and for the near ties of their norm-versus-1
comparisons, which are otherwise exact signs against a rational enclosure of
pi^n taken from the 64-bit interval of pi.
"""

from __future__ import annotations

import decimal
import os
from fractions import Fraction
from typing import Callable

from mpmath import libmp
from mpmath.ctx_iv import MPIntervalContext

from .errors import BoundaryIndeterminate
from .scalars import QuadExt, Scalar

LADDER_START_BITS = 64
DEFAULT_MAX_BITS = 1024
PRECISION_ENV_VAR = "REINHARDT_PRECISION"

# bits -> interval context fixed at that precision; building one costs more
# than a whole sign, so each is built once and never changed afterwards
_CONTEXTS: dict[int, MPIntervalContext] = {}


def max_precision_bits() -> int:
    raw = os.environ.get(PRECISION_ENV_VAR)
    if raw is None:
        return DEFAULT_MAX_BITS
    try:
        bits = int(raw)
    except ValueError as exc:
        raise ValueError(f"{PRECISION_ENV_VAR} must be an integer, got {raw!r}") from exc
    return max(bits, LADDER_START_BITS)


def working_precision(bits: int) -> MPIntervalContext:
    """The interval context that evaluates at ``bits`` working bits."""
    ctx = _CONTEXTS.get(bits)
    if ctx is None:
        ctx = MPIntervalContext()
        ctx.prec = bits
        ctx = _CONTEXTS.setdefault(bits, ctx)
    return ctx


def scalar_interval(x: Scalar, ctx: MPIntervalContext):
    """Enclose an exact scalar in an interval of the context ``ctx``."""
    if isinstance(x, QuadExt):
        return (ctx.mpf(x.a.numerator) / x.a.denominator
                + ctx.mpf(x.b.numerator) / x.b.denominator * ctx.sqrt(x.d))
    if isinstance(x, int):
        return ctx.mpf(x)
    x = Fraction(x)
    return ctx.mpf(x.numerator) / x.denominator


def log_bounds(x: Scalar, ctx: MPIntervalContext) -> tuple[int, int]:
    """Integers lo <= 2^bits log(x) <= hi for an exact x > 0, at the bits of ``ctx``."""
    arg = (libmp.from_int(x),) * 2 if isinstance(x, int) else scalar_interval(x, ctx)._mpi_
    lo, hi = libmp.mpi_log(arg, ctx.prec)
    return (libmp.to_int(libmp.mpf_shift(lo, ctx.prec), libmp.round_floor),
            libmp.to_int(libmp.mpf_shift(hi, ctx.prec), libmp.round_ceiling))


def scaled_interval(lo: int, hi: int, den: int, ctx: MPIntervalContext):
    """[lo / den, hi / den] in ``ctx`` for integers lo <= hi and den > 0, rounded outward."""
    den = libmp.from_int(den)
    return ctx.make_mpf(tuple(libmp.mpf_div(libmp.from_int(x), den, ctx.prec, rnd)
                              for x, rnd in ((lo, libmp.round_floor), (hi, libmp.round_ceiling))))


def ladder_sign(build: Callable[[MPIntervalContext], object],
                what: str | Callable[[], str] = "expression") -> int:
    """Resolve the sign of ``build(ctx)`` by escalating the working precision.

    ``build`` must enclose the same exact quantity in whatever interval
    context it is given; each rung passes a context with more bits.
    ``what`` names that quantity in the error, or builds the name when
    called, which happens only past the cap.
    """
    bits = LADDER_START_BITS
    cap = max_precision_bits()
    while True:
        val = build(working_precision(bits))
        if val.a > 0:
            return 1
        if val.b < 0:
            return -1
        if bits >= cap:
            lo, hi = interval_str(val)
            if callable(what):
                what = what()
            raise BoundaryIndeterminate(
                f"sign of {what} unresolved at {bits} working bits, last interval "
                f"[{lo}, {hi}] (set {PRECISION_ENV_VAR} to raise the cap)",
                what=what, bits=bits, interval=(lo, hi))
        bits = min(2 * bits, cap)


def _mpf_decimal_str(data, dps: int, rounding: str) -> str:
    """Exact binary-to-decimal conversion of mpf data with directed rounding."""
    sign, man, exp, _ = data
    man, exp = int(man), int(exp)
    if man == 0:
        if exp == 0:
            return "0"
        raise ValueError("cannot print a non-finite interval endpoint")
    with decimal.localcontext() as ctx:
        ctx.prec = dps
        ctx.rounding = rounding
        d = decimal.Decimal(-man if sign else man)
        if exp >= 0:
            d = ctx.multiply(d, decimal.Decimal(1 << exp))
        else:
            d = ctx.divide(d, decimal.Decimal(1 << -exp))
        return str(d)


def interval_str(val, dps: int = 10) -> tuple[str, str]:
    """Directed decimal endpoints (lo rounded down, hi rounded up)."""
    lo_data, hi_data = val._mpi_
    lo = _mpf_decimal_str(lo_data, dps, decimal.ROUND_FLOOR)
    hi = _mpf_decimal_str(hi_data, dps, decimal.ROUND_CEILING)
    return lo, hi
