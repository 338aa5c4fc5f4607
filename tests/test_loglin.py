import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from reinhardt.errors import BoundaryIndeterminate
from reinhardt.loglin import LogLin, _coprime_base
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


def test_quadratic_coefficients_over_quadratic_thresholds_use_the_ladder(monkeypatch):
    # sqrt2 log(3 + 2 sqrt2) - 2 sqrt2 log(1 + sqrt2) is zero, but neither the
    # coprime base nor the field product applies: this is the one form the
    # ladder cannot resolve
    monkeypatch.setenv("REINHARDT_PRECISION", "64")
    s = quad(0, 1, 2)
    v = LogLin.log_of(quad(3, 2, 2), s) - LogLin.log_of(quad(1, 1, 2), 2 * s)
    with pytest.raises(BoundaryIndeterminate):
        v.sign()


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
