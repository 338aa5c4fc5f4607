"""Every bound of the exact-number layer against mpmath, the oracle here:
rational bounds of the ladder, integer bounds on logs of integers and of
elements of Q(sqrt d) from the one integer series, pi^n from Machin's
formula, exp from ``decimal``, the enclosures of exact norms and of N0, and
printed interval ends: one directed-decimal formatter of a rational."""

import decimal

from fractions import Fraction

import mpmath
from hypothesis import example, given, settings, strategies as st
from mpmath import libmp
from mpmath.ctx_iv import MPIntervalContext

from reinhardt.norms import NormResult
from reinhardt.precision import (exp_bounds, interval_str, log_bounds, pi_power_bounds,
                                 rational_bounds)
from reinhardt.scalars import QuadExt, quad, sign_of
from reinhardt.witness import N0Result

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


def test_rational_bounds_of_a_cancelling_value_keep_its_relative_precision():
    # (1 - sqrt 2)^30 = a + b sqrt 2 with a, b near 1.5e11 of opposite signs, about 3.3e-12
    x = quad(1, -1, 2) ** 30
    lo, hi = rational_bounds(x, 64)
    assert 0 < lo <= hi and (hi - lo) / lo <= Fraction(1, 2 ** 60)
    ctx = MPIntervalContext()
    ctx.prec = 256
    value = (1 - ctx.sqrt(2)) ** 30  # the mpmath oracle, an interval
    ends = [ctx.mpf(q.numerator) / q.denominator for q in (lo, hi)]
    assert ends[0].b <= value.a and value.b <= ends[1].a


@given(st.integers(1, 2 ** 4096), st.integers(64, 4096))
@example(1, 64)
@example(2, 64)
@example(2 ** 4096, 4096)
@example(10 ** 1233, 1024)
@settings(max_examples=60, deadline=None)
def test_series_log_bounds_of_integers_enclose_the_mpmath_log_outward(p, bits):
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
    ends = (Fraction(*libmp.to_rational(end)) for end in (lo, hi))
    assert interval_str(*ends, dps) == (_mpf_decimal_str(lo, dps, decimal.ROUND_FLOOR),
                                        _mpf_decimal_str(hi, dps, decimal.ROUND_CEILING))


# -- the oracle: mpmath at 4096 + 512 bits ------------------------------------

ORACLE = mpmath.MPContext()
ORACLE.prec = 4608
BITS = st.sampled_from((64, 65, 128, 1000, 1024, 2048, 4096))


def _mp(x):
    if isinstance(x, QuadExt):
        return _mp(x.a) + _mp(x.b) * ORACLE.sqrt(x.d)
    x = Fraction(x)
    return ORACLE.mpf(x.numerator) / x.denominator


@given(st.integers(0, 12), BITS)
@settings(max_examples=60, deadline=2000)
def test_pi_power_bounds_are_pi_rounded_both_ways(n, bits):
    lo, hi = pi_power_bounds(n, bits)
    p = int(ORACLE.floor(ORACLE.ldexp(ORACLE.pi, bits)))
    assert (lo, hi) == (Fraction(p, 2 ** bits) ** n, Fraction(p + 1, 2 ** bits) ** n)


@given(st.fractions(-700, 700, max_denominator=10 ** 9),
       st.fractions(0, 10, max_denominator=10 ** 6), BITS)
@example(Fraction(0), Fraction(0), 64)
@example(Fraction(-700), Fraction(0), 4096)
@settings(max_examples=80, deadline=2000)
def test_exp_bounds_enclose_the_exp_outward(lo, width, bits):
    low, high = exp_bounds(lo, lo + width, bits)
    a, b = ORACLE.exp(_mp(lo)), ORACLE.exp(_mp(lo + width))
    assert _mp(low) <= a and b <= _mp(high)
    assert (_mp(high) - _mp(low)) / b <= ORACLE.ldexp(4, -bits) + (b - a) / b


@st.composite
def positive_quadratics(draw):
    """a + b sqrt(d) > 0 over a non-square d, small or far past 64 bits, with
    a and b of opposite signs half the time, so that they nearly cancel."""
    d = draw(st.sampled_from((2, 3, 5, 8, 12, 10 ** 12 + 39, 2 ** 64 - 59)))
    big = draw(st.sampled_from((10, 10 ** 6, 10 ** 40)))
    a = draw(st.fractions(-big, big, max_denominator=draw(st.sampled_from((1, 99, 10 ** 20)))))
    b = draw(st.fractions(-big, big, max_denominator=99).filter(bool))
    x = quad(a, b, d)
    return x if sign_of(x) > 0 else -x


@given(positive_quadratics(), BITS)
@example(quad(99, -70, 2) / 99, 64)  # (99 - 70 sqrt2) / 99, about 0.005: the parts cancel
@example(quad(99, -70, 2) / 99, 4096)
@example(quad(3, -2, 2) ** 40, 1024)  # about 2^-102
@example(quad(3, 2, 2) ** 40, 64)
@settings(max_examples=150, deadline=2000)
def test_quadratic_log_bounds_enclose_the_mpmath_log_outward(x, bits):
    lo, hi = log_bounds(x, bits)
    exact = ORACLE.ldexp(ORACLE.log(_mp(x)), bits)
    assert lo <= exact <= hi and hi - lo <= 2


@st.composite
def exact_norms(draw):
    """c pi^n prod(base^exp) with c, bases and exponents rational or in Q(sqrt2)."""
    small = st.fractions(Fraction(1, 50), 50, max_denominator=50)

    def positive():
        x = draw(small)
        if draw(st.booleans()):
            return x
        return quad(x, draw(st.fractions(-3, 3, max_denominator=7).filter(bool)), 2)

    factors = []
    for _ in range(draw(st.integers(0, 3))):
        base = positive()
        base = base if sign_of(base) > 0 else -base
        if base != 1:
            exp = draw(st.fractions(-9, 9, max_denominator=12).filter(bool))
            factors.append((base, exp if draw(st.booleans()) else quad(exp, Fraction(1, 3), 2)))
    c = positive()
    return NormResult(kind="exact", coefficient=c if sign_of(c) > 0 else -c,
                      pi_power=draw(st.integers(0, 4)), factors=tuple(factors))


@given(exact_norms(), st.sampled_from((64, 512)))
@settings(max_examples=80, deadline=2000)
def test_norm_bounds_contain_the_mpmath_value(norm, bits):
    """Within 2^(10 - bits) of the value relative to its size, with the
    coefficient a + b sqrt2 counted as |a| + |b| sqrt2: its parts may cancel."""
    c = norm.coefficient
    rest = ORACLE.pi ** norm.pi_power
    for base, exp in norm.factors:
        rest *= ORACLE.exp(_mp(exp) * ORACLE.log(_mp(base)))
    lo, hi = norm.bounds(bits)
    assert _mp(lo) <= _mp(c) * rest <= _mp(hi)
    size = abs(_mp(c.a)) + abs(_mp(c.b)) * ORACLE.sqrt(2) if isinstance(c, QuadExt) else _mp(c)
    assert _mp(hi - lo) <= size * rest * ORACLE.ldexp(2 ** 10, -bits)


@given(st.fractions(-50, 50, max_denominator=99), st.fractions(-50, 50, max_denominator=99),
       st.one_of(st.fractions(Fraction(1, 9), 900, max_denominator=9),
                 st.builds(lambda a: quad(a, 1, 2), st.integers(1, 20))),
       st.integers(1, 4), st.sampled_from((64, 512)))
@settings(max_examples=80, deadline=2000)
def test_n0_bounds_contain_the_mpmath_value(shift, low, det, n, bits):
    n0 = N0Result(shift_max=shift, log_branch_max=low, det_abs=det, n=n)
    value = max(_mp(shift), _mp(low) + 2 * ORACLE.pi * ORACLE.exp(-ORACLE.log(_mp(det)) / n))
    lo, hi = n0.bounds(bits)
    assert _mp(lo) <= value <= _mp(hi)
    assert _mp(hi - lo) <= ORACLE.ldexp(2 ** 10, -bits) * (1 + abs(value))


def test_an_exact_decimal_end_prints_exactly():
    assert NormResult(kind="exact", coefficient=Fraction(1, 5)).interval() == ("0.2", "0.2")
    n0 = N0Result(shift_max=Fraction(18, 5), log_branch_max=Fraction(-10), det_abs=1, n=1)
    assert n0.interval_str() == ("3.6", "3.6")
