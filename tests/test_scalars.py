import math
import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, strategies as st

from reinhardt.errors import SpecError
from reinhardt.scalars import (QuadExt, exact_ceil, exact_floor, format_scalar,
                               is_square_free, parse_scalar_literal, quad, scalar_cmp,
                               scalar_to_json, sign_of)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def test_quad_demotes_to_fraction():
    assert quad(3, 0, 2) == Fraction(3)
    assert isinstance(quad(3, 0, 2), Fraction)
    v = quad(0, 1, 2) * quad(0, 1, 2)
    assert v == 2 and isinstance(v, Fraction)
    # conjugate product is rational
    w = quad(5, 3, 2) * quad(5, -3, 2)
    assert w == Fraction(25 - 9 * 2)


def test_square_free_validation():
    assert is_square_free(2) and is_square_free(15)
    assert not is_square_free(4) and not is_square_free(12) and not is_square_free(1)
    with pytest.raises(ValueError):
        QuadExt(Fraction(1), Fraction(1), 4)


def _square_free_by_brute_force(d: int) -> bool:
    return d >= 2 and all(d % (k * k) for k in range(2, math.isqrt(d) + 1))


def test_square_free_agrees_with_brute_force():
    assert all(is_square_free(d) == _square_free_by_brute_force(d) for d in range(10 ** 5))
    # cofactors past the cube root: p q and p^2 q for primes p, q near 2^20
    p, q = 1048573, 1048583
    assert is_square_free(p * q) and is_square_free(p) and is_square_free(p * q * 3)
    assert not is_square_free(p * p) and not is_square_free(p * p * q)
    assert not is_square_free(q * q * 2) and not is_square_free(p * q * q)
    # d is refused from 2^64 on, square-free or not
    assert is_square_free(2 ** 64 - 59) and not is_square_free(2 ** 64 + 13)


def _square_free_by_factorint(d: int) -> bool:
    return d >= 2 and all(e == 1 for e in sympy.factorint(d).values())


def test_square_free_agrees_with_factorint_below_2_64():
    """Cofactors past trial division: primes, p q and p^2 near 2^32, p^3,
    products of six primes, and seeded d across [2, 2^64)."""
    rng = random.Random(20261020)
    p, q = sympy.prevprime(2 ** 32), sympy.nextprime(2 ** 32 - 1000)
    r = sympy.prevprime(2 ** 21)
    cases = [2 ** 64 - 59, 2 ** 64 - 1, p * q, p * p, 3 * sympy.prevprime(2 ** 31) ** 2,
             r ** 3, r * r * 1031, 1031 * 1033 * 1039 * 1049 * 1051 * 1061,
             (1031 * 1033) ** 2 * 1039 * 1049]
    for _ in range(8):
        a, b = (sympy.prevprime(rng.randrange(2 ** 31, 2 ** 32)) for _ in range(2))
        cases += [a * b, a * a]
    cases += [rng.randrange(2, 2 ** 64) for _ in range(150)]
    cases += [rng.randrange(2, 2 ** 20) * rng.randrange(2 ** 20, 2 ** 22) ** 2 for _ in range(50)]
    for d in cases:
        assert d < 2 ** 64
        assert is_square_free(d) == _square_free_by_factorint(d), d


def test_square_free_of_a_prime_near_2_64_is_fast():
    # trial division to the cube root took about 0.3 s here
    is_square_free.cache_clear()
    t0 = time.perf_counter()
    assert is_square_free(2 ** 64 - 59)
    assert time.perf_counter() - t0 < 0.1


def test_exact_sign_cases():
    assert sign_of(quad(1, -1, 2)) == -1      # 1 - sqrt2
    assert sign_of(quad(3, -2, 2)) == 1       # 3 - 2 sqrt2 = 0.17...
    assert sign_of(quad(-3, 2, 2)) == -1
    assert sign_of(quad(0, -1, 5)) == -1
    assert sign_of(quad(Fraction(-7), 5, 2)) == 1   # 5 sqrt2 = 7.07.. > 7
    assert sign_of(Fraction(0)) == 0


@given(a=rationals, b=rationals, d=st.sampled_from([2, 3, 5, 7, 10]))
def test_sign_matches_float(a, b, d):
    x = quad(a, b, d)
    approx = float(a) + float(b) * math.sqrt(d)
    if abs(approx) > 1e-6:
        assert sign_of(x) == (1 if approx > 0 else -1)


@given(a=rationals, b=rationals, c=rationals, e=rationals,
       d=st.sampled_from([2, 3, 5]))
def test_field_arithmetic_matches_float(a, b, c, e, d):
    x, y = quad(a, b, d), quad(c, e, d)
    for op in (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v):
        exact = op(x, y)
        approx = op(float(x) if isinstance(x, QuadExt) else float(x),
                    float(y) if isinstance(y, QuadExt) else float(y))
        assert math.isclose(float(exact), approx, rel_tol=1e-9, abs_tol=1e-9)
    if sign_of(y) != 0:
        assert math.isclose(float(x / y), float(x) / float(y), rel_tol=1e-9, abs_tol=1e-9)


def test_division_and_powers():
    s = quad(0, 1, 2)
    assert 1 / s == quad(0, Fraction(1, 2), 2)
    assert s ** -2 == Fraction(1, 2)
    assert quad(1, 1, 2) ** 2 == quad(3, 2, 2)
    assert (1 + s) * (1 - s) == Fraction(-1)


def test_mixed_field_rejected():
    with pytest.raises(ValueError):
        quad(1, 1, 2) + quad(1, 1, 3)


def test_ordering_is_total():
    vals = [Fraction(0), quad(1, -1, 2), Fraction(1), quad(0, 1, 2), Fraction(-2),
            quad(-1, 1, 2), Fraction(3, 2)]
    ordered = sorted(vals, key=lambda v: (float(v)))
    for lo, hi in zip(ordered, ordered[1:]):
        assert scalar_cmp(lo, hi) <= 0


@given(a=rationals, b=rationals, d=st.sampled_from([2, 3, 5]))
def test_exact_floor_bracket(a, b, d):
    x = quad(a, b, d)
    m = exact_floor(x)
    assert sign_of(x - m) >= 0
    assert sign_of(x - (m + 1)) < 0
    assert exact_ceil(x) == -exact_floor(-x if isinstance(x, QuadExt) else -Fraction(x))


def test_exact_floor_rationals():
    assert exact_floor(Fraction(7, 2)) == 3
    assert exact_floor(Fraction(-7, 2)) == -4
    assert exact_ceil(Fraction(6)) == 6
    assert exact_floor(quad(3, 2, 2)) == 5   # 3 + 2 sqrt2 = 5.828


def test_exact_floor_past_the_float_range():
    big = 10 ** 400
    assert exact_floor(quad(big, 1, 2)) == big + 1 and exact_ceil(quad(big, 1, 2)) == big + 2
    assert exact_floor(quad(big, -1, 2)) == big - 2 and exact_ceil(quad(-big, 1, 2)) == 2 - big
    assert exact_floor(quad(Fraction(1, 3), big, 2)) == math.isqrt(2 * big * big)
    assert exact_floor(quad(0, -big, 3)) == -math.isqrt(3 * big * big) - 1


def test_parse_literals():
    assert parse_scalar_literal("3", None) == Fraction(3)
    assert parse_scalar_literal("-7/2", None) == Fraction(-7, 2)
    assert parse_scalar_literal({"a": "1/2", "b": "-1"}, 2) == quad(Fraction(1, 2), -1, 2)
    for bad in ("1.5", "1/-2", "x", "", "1 / 2"):
        with pytest.raises(SpecError):
            parse_scalar_literal(bad, None)
    with pytest.raises(SpecError):
        parse_scalar_literal({"a": "1", "b": "1"}, None)  # no quadratic_d
    with pytest.raises(SpecError):
        parse_scalar_literal({"a": "1", "b": "1", "c": "2"}, 2)  # unknown field
    with pytest.raises(SpecError):
        parse_scalar_literal(3, None)  # bare JSON numbers are not in the grammar


def test_format_and_json_round_trip():
    for x in (Fraction(-5, 3), Fraction(4), quad(1, -2, 7)):
        blob = scalar_to_json(x)
        assert parse_scalar_literal(blob, 7) == x
    assert format_scalar(quad(1, -2, 7)) == "1-2*sqrt(7)"
