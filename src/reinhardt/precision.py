"""Interval evaluation with a doubling working-precision ladder.

Exact decisions go through field arithmetic whenever possible.  Whatever is
left (signs of expressions mixing logarithms, pi, or n-th roots) is evaluated
with mpmath's outward-rounding interval context: start at 64 bits, double
until the sign resolves, give up with :class:`BoundaryIndeterminate` at the
cap.  The cap defaults to 1024 bits and can be overridden through the
``REINHARDT_PRECISION`` environment variable.

Signs of log-linear forms over rational bases never need the ladder to tell
zero from nonzero: :mod:`reinhardt.loglin` decides that exactly over a
coprime base, so such a form reaches the ladder only when it is nonzero, and
then the ladder terminates given enough bits.  A form with a zero constant
and rational coefficients is decided by a product in the field when the
ladder cannot, over bases in ``Q(sqrt d)`` too.  Forms with a base in
``Q(sqrt d)`` and a constant or a coefficient in ``Q(sqrt d)``, the witness
threshold ``N0`` and the norm-versus-1 comparisons of witness certificates
still rely on the ladder alone.
"""

from __future__ import annotations

import decimal
import os
from contextlib import contextmanager
from fractions import Fraction
from typing import Callable

import mpmath

from .errors import BoundaryIndeterminate
from .scalars import QuadExt, Scalar

LADDER_START_BITS = 64
DEFAULT_MAX_BITS = 1024
PRECISION_ENV_VAR = "REINHARDT_PRECISION"

iv = mpmath.iv


def max_precision_bits() -> int:
    raw = os.environ.get(PRECISION_ENV_VAR)
    if raw is None:
        return DEFAULT_MAX_BITS
    try:
        bits = int(raw)
    except ValueError as exc:
        raise ValueError(f"{PRECISION_ENV_VAR} must be an integer, got {raw!r}") from exc
    return max(bits, LADDER_START_BITS)


@contextmanager
def working_precision(bits: int):
    saved = iv.prec
    iv.prec = bits
    try:
        yield iv
    finally:
        iv.prec = saved


def scalar_interval(x: Scalar):
    """Enclose an exact scalar in an interval at the ambient iv precision."""
    if isinstance(x, QuadExt):
        return (iv.mpf(x.a.numerator) / x.a.denominator
                + iv.mpf(x.b.numerator) / x.b.denominator * iv.sqrt(x.d))
    x = Fraction(x)
    return iv.mpf(x.numerator) / x.denominator


def ladder_sign(build: Callable[[], "mpmath.ctx_iv.ivmpf"], what: str = "expression") -> int:
    """Resolve the sign of ``build()`` by escalating the working precision.

    ``build`` must evaluate the same exact quantity at the ambient iv
    precision each time it is called.
    """
    bits = LADDER_START_BITS
    cap = max_precision_bits()
    while True:
        with working_precision(bits):
            val = build()
            if val.a > 0:
                return 1
            if val.b < 0:
                return -1
        if bits >= cap:
            lo, hi = interval_str(val)
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
