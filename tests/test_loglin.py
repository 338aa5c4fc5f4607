from fractions import Fraction

import pytest

from reinhardt.errors import BoundaryIndeterminate
from reinhardt.loglin import LogLin
from reinhardt.scalars import quad


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


def test_boundary_indeterminate_at_low_cap(monkeypatch):
    monkeypatch.setenv("REINHARDT_PRECISION", "64")
    base = Fraction(2 ** 100 + 1, 2 ** 100)
    s = quad(0, 1, 2)
    with pytest.raises(BoundaryIndeterminate):
        (LogLin.log_of(base, s)).sign()  # irrational coeff: no exact path


def test_boundary_indeterminate_names_the_value_and_interval(monkeypatch):
    # (sqrt2/2) log(1/5) + (sqrt2/2) log 5 is exactly zero, but the bases differ
    # and the coefficients are irrational, so only the ladder sees it
    monkeypatch.setenv("REINHARDT_PRECISION", "64")
    h = quad(0, Fraction(1, 2), 2)
    v = LogLin.log_of(Fraction(1, 5), h) + LogLin.log_of(Fraction(5), h)
    with pytest.raises(BoundaryIndeterminate) as info:
        v.sign()
    exc = info.value
    lo, hi = exc.interval
    assert exc.what == repr(v) and exc.bits == 64
    assert Fraction(lo) <= 0 <= Fraction(hi)
    assert f"[{lo}, {hi}]" in str(exc) and "64 working bits" in str(exc)


def test_arithmetic_and_scaling():
    v = LogLin.log_of(Fraction(2)) * Fraction(3)
    assert v.terms == ((Fraction(2), Fraction(3)),)
    assert (v / 3).terms == ((Fraction(2), Fraction(1)),)
    assert (v - v).is_zero()
    assert float(LogLin.of(Fraction(1)) + LogLin.log_of(Fraction(2))) == pytest.approx(
        1.6931471805599453)
