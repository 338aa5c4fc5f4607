import math
import os
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from mpmath import libmp

from reinhardt import loglin
from reinhardt.errors import BoundaryIndeterminate
from reinhardt.loglin import LogLin, _coprime_base
from reinhardt.precision import log_bounds, working_precision
from reinhardt.scalars import QuadExt, quad, sign_of


def test_exact_product_rule_zero():
    # log 4 - 2 log 2 == 0, decided in the field
    v = LogLin.log_of(Fraction(4)) - LogLin.log_of(Fraction(2), 2)
    assert v.sign() == 0 and v.is_zero()
    # (1/2) log 4 - log 2 == 0 with a fractional coefficient
    w = LogLin.log_of(Fraction(4), Fraction(1, 2)) - LogLin.log_of(Fraction(2))
    assert w.is_zero()
    # log 2 + log 3 - log 6 == 0
    u = (LogLin.log_of(Fraction(2)) + LogLin.log_of(Fraction(3))
         - LogLin.log_of(Fraction(6)))
    assert u.is_zero()


def test_exact_signs():
    assert LogLin.log_of(Fraction(3, 2)).sign() == 1
    assert LogLin.log_of(Fraction(2, 3)).sign() == -1
    assert LogLin.log_of(Fraction(1)).sign() == 0
    v = LogLin.log_of(Fraction(8), Fraction(2, 3)) - LogLin.log_of(Fraction(4))
    assert v.sign() == 0  # 8^(2/3) = 4


def test_coefficients_over_two_fields_are_refused():
    form = LogLin.log_of(2, quad(0, 1, 3)) - LogLin.log_of(Fraction(11, 5), quad(0, 1, 2))
    with pytest.raises(ValueError, match="mixed quadratic fields"):
        form.sign()
    # a base over another field than the coefficients keeps its own log
    v = LogLin.log_of(quad(1, 1, 3), quad(0, 1, 2)) - LogLin.log_of(Fraction(2))
    assert v.sign() == 1  # sqrt2 log(1 + sqrt3) - log 2 = 0.728...


def test_merging_by_equal_base():
    s = quad(0, 1, 2)
    v = LogLin.log_of(Fraction(2), s) - LogLin.log_of(Fraction(2), s)
    assert v.terms == () and v.is_zero()


def test_ladder_resolves_tight_sign():
    # log((2^100 + 1) / 2^100) > 0 needs far more than 64 bits
    base = Fraction(2 ** 100 + 1, 2 ** 100)
    assert LogLin.log_of(base).sign() == 1
    assert (-LogLin.log_of(base)).sign() == -1


def test_constant_plus_log_via_ladder():
    v = LogLin.of(Fraction(1)) - LogLin.log_of(Fraction(3))  # 1 - log 3 < 0
    assert v.sign() == -1
    w = LogLin.of(Fraction(2)) - LogLin.log_of(Fraction(7))  # 2 - log 7 > 0
    assert w.sign() == 1


def test_quadratic_coefficient_ladder():
    s = quad(0, 1, 2)
    v = LogLin.log_of(Fraction(2), s) - LogLin.log_of(Fraction(3))  # sqrt2 log2 - log3 < 0
    assert v.sign() == -1


# 1 - log(x) with x within 1e-31 of e: nonzero, but it needs about 100 bits
NEAR_E = Fraction(27182818284590452353602874713527, 10 ** 31)


def test_boundary_indeterminate_at_low_cap(monkeypatch):
    monkeypatch.delenv("REINHARDT_PRECISION", raising=False)  # the default ladder cap
    v = LogLin.of(Fraction(1)) - LogLin.log_of(NEAR_E)
    assert v.sign() == -1  # the default cap has the digits
    monkeypatch.setenv("REINHARDT_PRECISION", "64")
    with pytest.raises(BoundaryIndeterminate):
        v.sign()


def test_boundary_indeterminate_names_the_value_and_interval(monkeypatch):
    monkeypatch.setenv("REINHARDT_PRECISION", "64")
    v = LogLin.of(Fraction(1)) - LogLin.log_of(NEAR_E)
    with pytest.raises(BoundaryIndeterminate) as info:
        v.sign()
    exc = info.value
    lo, hi = exc.interval
    assert exc.what == repr(v) and exc.bits == 64
    assert Fraction(lo) <= 0 <= Fraction(hi)
    assert f"[{lo}, {hi}]" in str(exc) and "64 working bits" in str(exc)
    # the same value with coefficient 1/16 is named as itself, and its interval
    # encloses the value, not 16 times the value
    w = LogLin.of(Fraction(1)) - LogLin.log_of(NEAR_E ** 16, Fraction(1, 16))
    with pytest.raises(BoundaryIndeterminate) as info:
        w.sign()
    assert info.value.what == repr(w)
    w_lo, w_hi = map(Fraction, info.value.interval)
    assert w_lo <= 0 <= w_hi
    assert w_hi - w_lo <= 2 * (Fraction(hi) - Fraction(lo))


def test_quadratic_zero_form_over_distinct_bases(monkeypatch):
    # (sqrt2/2) log(1/5) + (sqrt2/2) log 5 is exactly zero although the bases
    # differ and the coefficients are irrational; the coprime base sees it
    monkeypatch.setenv("REINHARDT_PRECISION", "64")
    h = quad(0, Fraction(1, 2), 2)
    v = LogLin.log_of(Fraction(1, 5), h) + LogLin.log_of(Fraction(5), h)
    assert v.sign() == 0
    w = LogLin.log_of(Fraction(2, 3), h) + LogLin.log_of(Fraction(3, 2), h)
    assert w.is_zero()
    assert (w + LogLin.of(quad(-1, 1, 2))).sign() == 1  # sqrt2 - 1 > 0


def test_zero_constant_rational_coefficients_over_quadratic_thresholds(monkeypatch):
    # (1 + sqrt2)^2 = 3 + 2 sqrt2: the bases differ, the form is exactly zero,
    # and the field product decides it with no digits
    monkeypatch.setenv("REINHARDT_PRECISION", "64")
    unit, square = quad(1, 1, 2), quad(3, 2, 2)
    v = LogLin.log_of(square) - LogLin.log_of(unit, 2)
    assert v.sign() == 0 and v.is_zero()
    w = LogLin.log_of(square) - LogLin.log_of(unit, Fraction(3, 2))
    assert w.sign() == 1 and (-w).sign() == -1
    mixed = LogLin.log_of(square, Fraction(1, 2)) - LogLin.log_of(unit) + LogLin.log_of(Fraction(1, 3))
    assert mixed.sign() == -1


def test_large_quadratic_products_fall_back_from_the_ladder():
    # (1 + sqrt2)^3000 needs far more bits than the product bound, so the
    # zero form goes to the ladder first and the field product decides it at the cap
    unit = quad(1, 1, 2)
    v = LogLin.log_of(unit ** 3000) - LogLin.log_of(unit, 3000)
    assert v.sign() == 0
    assert (v + LogLin.log_of(Fraction(2 ** 3000 + 1, 2 ** 3000))).sign() == 1


def test_quadratic_coefficients_over_quadratic_thresholds_are_exact(monkeypatch):
    # sqrt2 log(3 + 2 sqrt2) - 2 sqrt2 log(1 + sqrt2) is zero: sqrt2 times a form
    # with rational coefficients, which the field product decides with no digits
    monkeypatch.setenv("REINHARDT_PRECISION", "64")
    s = quad(0, 1, 2)
    v = LogLin.log_of(quad(3, 2, 2), s) - LogLin.log_of(quad(1, 1, 2), 2 * s)
    assert v.sign() == 0
    w = LogLin.log_of(quad(3, 2, 2), s) - LogLin.log_of(quad(1, 1, 2), 3 * s)
    assert w.sign() == -1 and (-w).sign() == 1


def test_single_term_sign_needs_no_digits(monkeypatch):
    # coeff * log(base) has the sign of coeff times that of base - 1, even for
    # a base within 2^-3000 of 1 and a threshold in Q(sqrt 3)
    monkeypatch.setenv("REINHARDT_PRECISION", "64")
    tight = Fraction(2 ** 3000 + 1, 2 ** 3000)
    assert LogLin.log_of(tight, quad(0, -1, 3)).sign() == -1
    assert LogLin.log_of(quad(-1, 1, 3), Fraction(-2, 7)).sign() == 1  # sqrt3 - 1 < 1


def test_large_products_fall_back_from_the_ladder():
    # log(2^3000 + 1) - 3000 log 2 is about 2^-3000: too many bits for the
    # product bound, past the ladder cap, so the integer products decide it
    v = LogLin.log_of(Fraction(2 ** 3000 + 1)) - LogLin.log_of(Fraction(2), 3000)
    assert v.sign() == 1 and (-v).sign() == -1
    assert (v - v).is_zero()


@given(st.lists(st.integers(1, 10 ** 6), max_size=8))
@settings(max_examples=200, deadline=2000)
def test_coprime_base_is_pairwise_coprime_and_spans_the_values(values):
    base = _coprime_base(values)
    assert all(b > 1 for b in base)
    assert all(math.gcd(a, b) == 1 for i, a in enumerate(base) for b in base[i + 1:])
    for x in values:
        for b in base:
            while x % b == 0:
                x //= b
        assert x == 1


SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def _factor(q: Fraction) -> dict[int, int]:
    """Trial division of a rational whose prime factors are all in SMALL_PRIMES."""
    out = {}
    num, den = q.numerator, q.denominator
    for p in SMALL_PRIMES:
        k = 0
        while num % p == 0:
            num //= p
            k += 1
        while den % p == 0:
            den //= p
            k -= 1
        if k:
            out[p] = k
    assert num == den == 1
    return out


def _mp(x):
    """An exact scalar at the ambient mpmath precision."""
    if isinstance(x, QuadExt):
        return _mp(x.a) + _mp(x.b) * mpmath.sqrt(x.d)
    x = Fraction(x)
    return mpmath.mpf(x.numerator) / x.denominator


def _oracle_sign(const, terms) -> int:
    """Sign from the prime-exponent vector: exact zero test, then 300 digits."""
    exps = {}
    for base, coeff in terms:
        for p, k in _factor(base).items():
            exps[p] = exps.get(p, 0) + k * coeff
    exps = {p: e for p, e in exps.items() if sign_of(e) != 0}
    if not exps:
        return sign_of(const)
    with mpmath.workdps(300):
        val = _mp(const) + sum(_mp(e) * mpmath.log(p) for p, e in exps.items())
        assert abs(val) > mpmath.mpf(10) ** -200  # nonzero forms here are far from 0
        return 1 if val > 0 else -1


@st.composite
def forms(draw):
    """A form over small-prime bases with coefficients in Q or Q(sqrt d).

    Half of the draws are exactly zero apart from the constant: every term
    c * log(b) is cancelled by -c * log(u) - c * log(b / u) for a random u.
    """
    d = draw(st.sampled_from((None, 2, 3, 5)))
    rat = st.fractions(min_value=-5, max_value=5, max_denominator=6)

    def coeff():
        if d is None or draw(st.booleans()):
            return draw(rat)
        return quad(draw(rat), draw(rat), d)

    def base():
        return math.prod((Fraction(p) ** draw(st.integers(-3, 3)) for p in SMALL_PRIMES),
                         start=Fraction(1))

    terms = [(base(), coeff()) for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        for b, c in list(terms):
            u = base()
            terms += [(u, -c), (b / u, -c)]
    const = coeff() if draw(st.booleans()) else Fraction(0)
    return const, terms


@given(forms())
@settings(max_examples=300, deadline=2000)
def test_sign_agrees_with_trial_division_oracle(form):
    const, terms = form
    v = LogLin.of(const)
    for base, coeff in terms:
        v = v + LogLin.log_of(base, coeff)
    expected = _oracle_sign(const, terms)
    assert v.sign() == expected
    assert (-v).sign() == -expected


def test_arithmetic_and_scaling():
    v = LogLin.log_of(Fraction(2)) * Fraction(3)
    assert v.terms == ((Fraction(2), Fraction(3)),)
    assert (v / 3).terms == ((Fraction(2), Fraction(1)),)
    assert (v - v).is_zero()
    assert float(LogLin.of(Fraction(1)) + LogLin.log_of(Fraction(2))) == pytest.approx(
        1.6931471805599453)


# -- the integer ladder: log bounds and the interval it reports ---------------

ENCLOSURE = mpmath.MPContext()
ENCLOSURE.prec = 4000


def _at_4000_bits(x):
    if isinstance(x, QuadExt):
        return _at_4000_bits(x.a) + _at_4000_bits(x.b) * ENCLOSURE.sqrt(x.d)
    x = Fraction(x)
    return ENCLOSURE.mpf(x.numerator) / x.denominator


@st.composite
def log_bases(draw):
    """An integer p > 1, small or far past 64 bits, or a positive element of
    Q(sqrt d) above or below 1."""
    if draw(st.booleans()):
        return draw(st.one_of(st.integers(2, 10 ** 6), st.integers(2, 2 ** 3000)))
    d = draw(st.sampled_from((2, 3, 5)))
    a, b = draw(st.integers(-50, 50)), draw(st.integers(-50, 50).filter(bool))
    x = quad(a, b, d)
    return x if sign_of(x) > 0 else -x


@given(log_bases(), st.sampled_from((64, 128, 1024)))
@example(quad(-1, 1, 2), 64)  # sqrt2 - 1 < 1: its log, and both bounds, are negative
@example(quad(3, -1, 5), 1024)  # 3 - sqrt5 < 1
@example(quad(1, 1, 2), 128)
@example(2, 64)
@settings(max_examples=200, deadline=None)
def test_integer_log_bounds_enclose_the_log(x, bits):
    lo, hi = log_bounds(x, bits)
    exact = ENCLOSURE.ldexp(ENCLOSURE.log(_at_4000_bits(x)), bits)
    assert lo <= exact <= hi
    assert hi - lo < 2 ** (bits // 2)  # about bits / 2 of the bits are right


NEAR_ZERO_BASES = (Fraction(3), Fraction(2, 7), Fraction(10 ** 20 + 1), quad(1, 1, 2),
                   quad(3, -1, 5))


@given(st.sampled_from(NEAR_ZERO_BASES), st.fractions(-7, 7, max_denominator=9).filter(bool),
       st.sampled_from((0, 1, -2)))
@settings(max_examples=60, deadline=None)
def test_indeterminate_interval_encloses_the_form(base, q, irr):
    """const + coeff log(base), with const within 2^-100 of -coeff log(base)
    and a coefficient with a denominator: at a 64-bit cap the ladder gives up,
    and the interval it reports encloses the value of the form, not a
    multiple of it."""
    coeff = quad(q, Fraction(irr, 3), 5) if irr else q
    target = -_at_4000_bits(coeff) * ENCLOSURE.log(_at_4000_bits(base))
    const = Fraction(int(ENCLOSURE.floor(ENCLOSURE.ldexp(target, 100))) | 1, 2 ** 100)
    v = LogLin.of(const) + LogLin.log_of(base, coeff)
    value = _at_4000_bits(const) - target
    assert value != 0
    with mock.patch.dict(os.environ, {"REINHARDT_PRECISION": "64"}):
        with pytest.raises(BoundaryIndeterminate) as info:
            v.sign()
    lo, hi = map(Fraction, info.value.interval)
    assert _at_4000_bits(lo) <= value <= _at_4000_bits(hi)
    assert hi - lo < Fraction(1, 2 ** 50)  # 64 bits, not den times as wide
    with mock.patch.dict(os.environ, {"REINHARDT_PRECISION": "1024"}):
        assert v.sign() == (1 if value > 0 else -1)  # 1024 bits have the digits


@st.composite
def ladder_forms(draw):
    """const + sum(coeff * log(base)) with a nonzero constant, so the sign
    goes to the ladder: over Q, or with bases and coefficients over one
    Q(sqrt d)."""
    d = draw(st.sampled_from((None, 2, 3, 5)))
    small = st.fractions(-20, 20, max_denominator=12)

    def scalar():
        q = draw(small)
        return q if d is None or draw(st.booleans()) else quad(q, draw(small.filter(bool)), d)

    form = LogLin.of(draw(small.filter(bool)))
    for _ in range(draw(st.integers(1, 3))):
        base = draw(st.fractions(Fraction(1, 50), 50).filter(bool))
        if d is not None and draw(st.booleans()):
            base = quad(draw(st.integers(-9, 9)), draw(st.integers(-9, 9).filter(bool)), d)
            base = base if sign_of(base) > 0 else -base
        form += LogLin.log_of(base, scalar())
    return form


@given(ladder_forms())
@settings(max_examples=150, deadline=None)
def test_logbase_rational_enclosures_contain_the_form(form):
    """Every rung of LogBase's ladder, 64 to 1024 bits, encloses the midpoint
    of a 4096-bit interval of the form between its rational ends."""
    builds = []
    with mock.patch.object(loglin, "ladder_sign", lambda build, what: builds.append(build) or 1):
        form.sign()
    assume(builds)  # every exponent over the coprime base cancelled: no ladder
    lo, hi = form.interval(working_precision(4096))._mpi_
    mid = (Fraction(*libmp.to_rational(lo)) + Fraction(*libmp.to_rational(hi))) / 2
    for bits in (64, 128, 256, 512, 1024):
        low, high = builds[0](bits)
        assert low <= mid <= high
