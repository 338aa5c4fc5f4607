"""Rational bounds of the ladder, integer bounds on logs of integers from
``decimal`` against mpmath, and printed interval ends: one directed-decimal
formatter of a rational."""

import decimal

from hypothesis import example, given, settings, strategies as st
from mpmath import libmp

from reinhardt.precision import interval_str, log_bounds, rational_bounds, working_precision
from reinhardt.scalars import quad, sign_of

rationals = st.fractions(-10 ** 6, 10 ** 6, max_denominator=10 ** 6)


@given(rationals, rationals, st.sampled_from((2, 3, 5, 10 ** 12 + 39)),
       st.sampled_from((64, 128, 1024)))
@settings(max_examples=200, deadline=None)
def test_rational_bounds_enclose_a_quadratic_value(a, b, d, bits):
    x = quad(a, b, d)
    lo, hi = rational_bounds(x, bits)
    assert sign_of(x - lo) >= 0 and sign_of(hi - x) >= 0
    assert hi - lo <= abs(b) / 2 ** bits
    assert (lo == hi) == (b == 0)


@given(st.integers(1, 2 ** 4096), st.integers(64, 4096))
@example(1, 64)
@example(2, 64)
@example(2 ** 4096, 4096)
@example(10 ** 1233, 1024)
@settings(max_examples=60, deadline=None)
def test_decimal_log_bounds_enclose_the_mpmath_log_outward(p, bits):
    # mpmath's 2^bits log p to bits + 64 more bits than needed, rounded both ways
    lo, hi = log_bounds(p, bits)
    wide = bits + p.bit_length().bit_length() + 64
    ends = [libmp.mpf_shift(libmp.mpf_log(libmp.from_int(p), wide, rnd), bits)
            for rnd in (libmp.round_floor, libmp.round_ceiling)]
    floor = libmp.to_int(ends[0], libmp.round_floor)
    ceil = libmp.to_int(ends[1], libmp.round_ceiling)
    assert lo <= floor and ceil <= hi
    assert hi - lo <= 2


def _mpf_decimal_str(data, dps: int, rounding: str) -> str:
    """The binary-to-decimal conversion of mpf data that printed intervals
    used before they went through rationals."""
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


mpfs = st.one_of(
    st.just(libmp.fzero),
    st.builds(libmp.from_man_exp,
              st.one_of(st.integers(-2 ** 64, 2 ** 64), st.integers(-2 ** 300, 2 ** 300),
                        st.sampled_from((1, -1, 5 ** 20, 10 ** 15, 999999999999))),
              st.integers(-2000, 2000)))


@given(mpfs, mpfs, st.sampled_from((10, 12)))
@example(libmp.fzero, libmp.fzero, 10)
@example(libmp.from_man_exp(5 ** 20, 20), libmp.from_man_exp(5 ** 20, 20), 10)  # 10^20
@example(libmp.from_man_exp(-3, -2000), libmp.from_man_exp(7, 2000), 12)
@settings(max_examples=400, deadline=None)
def test_interval_str_matches_the_mpf_conversion(a, b, dps):
    lo, hi = (a, b) if libmp.mpf_le(a, b) else (b, a)
    val = working_precision(64).make_mpf((lo, hi))
    assert interval_str(val, dps) == (_mpf_decimal_str(lo, dps, decimal.ROUND_FLOOR),
                                      _mpf_decimal_str(hi, dps, decimal.ROUND_CEILING))
