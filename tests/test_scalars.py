import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from reinhardt import classify_all, parse_spec, spaces
from reinhardt.errors import EmptyDomainError, SpecError
from reinhardt.scalars import (QuadExt, exact_ceil, exact_floor, format_scalar, is_nonsquare,
                               parse_scalar_literal, quad, scalar_cmp, scalar_to_json, sign_of)
from reinhardt.spectrum import monomial_in_space

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def test_quad_demotes_to_fraction():
    assert quad(3, 0, 2) == Fraction(3)
    assert isinstance(quad(3, 0, 2), Fraction)
    v = quad(0, 1, 2) * quad(0, 1, 2)
    assert v == 2 and isinstance(v, Fraction)
    # conjugate product is rational
    w = quad(5, 3, 2) * quad(5, -3, 2)
    assert w == Fraction(25 - 9 * 2)


def test_quadratic_d_validation():
    """Q(sqrt d) needs only that sqrt(d) is irrational: d in [2, 2^64) and not
    a perfect square, square-free or not."""
    for d in (0, 1, 4, 9, 2 ** 64 + 13, (2 ** 32 - 5) ** 2):
        assert not is_nonsquare(d)
        with pytest.raises(ValueError, match=r"non-square integer in \[2, 2\^64\)"):
            QuadExt(Fraction(1), Fraction(1), d)
        with pytest.raises(SpecError, match=r"non-square integer in \[2, 2\^64\)"):
            parse_spec(f'{{"n": 1, "quadratic_d": {d}, "constraints": []}}')
    for d in (2, 8, 12, 15, 2 ** 64 - 59, 2 ** 64 - 1):
        assert is_nonsquare(d)
        assert QuadExt(Fraction(1), Fraction(1), d).sign() == 1
        assert parse_spec(f'{{"n": 1, "quadratic_d": {d}, "constraints": []}}').quadratic_d == d
    # sqrt 8 = 2 sqrt 2: the field is Q(sqrt 2), and its arithmetic is exact
    assert quad(0, 1, 8) * quad(0, 1, 8) == 8 and quad(3, -1, 8).sign() == 1


def test_nonsquare_agrees_with_brute_force():
    squares = {k * k for k in range(400)}
    assert all(is_nonsquare(d) == (d >= 2 and d not in squares) for d in range(400 ** 2))
    for k in (2 ** 32 - 1, 2 ** 31 + 11):
        assert not is_nonsquare(k * k) and is_nonsquare(k * k + 1) and is_nonsquare(k * k - 1)


SMALL = st.integers(-3, 3)


@st.composite
def scaled_specs(draw):
    """One spec twice: over Q(sqrt(k^2 d)) with literals {a, b}, and over
    Q(sqrt d) with {a, k b}; both read a + b k sqrt(d)."""
    d, k, n = draw(st.sampled_from((2, 3, 5))), draw(st.integers(2, 4)), draw(st.integers(1, 2))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        alpha = [(draw(SMALL), draw(SMALL)) for _ in range(n)]
        c = (draw(st.integers(1, 9)), draw(st.integers(0, 1)))  # c > 0
        rows.append((alpha, c))
    assume(all(any(a or b for a, b in alpha) for alpha, _ in rows))

    def doc(field, scale):
        lit = lambda a, b: {"a": str(a), "b": str(b * scale)}
        return json.dumps({"n": n, "quadratic_d": field, "constraints": [
            {"alpha": [lit(*x) for x in alpha], "c": lit(*c)} for alpha, c in rows]})
    return doc(k * k * d, 1), doc(d, k)


@given(scaled_specs())
@settings(max_examples=40, deadline=5000)
def test_a_field_written_with_k_squared_d_answers_as_with_d(docs):
    parsed = []
    for doc in docs:
        try:
            parsed.append(parse_spec(doc))
        except EmptyDomainError:
            parsed.append(None)
    wide, narrow = parsed
    if wide is None or narrow is None:
        assert wide is narrow is None
        return
    reports = [classify_all(spec) for spec in (wide, narrow)]
    assert reports[0].flags == reports[1].flags
    assert ({k: (v.value, v.criterion) for k, v in reports[0].verdicts.items()}
            == {k: (v.value, v.criterion) for k, v in reports[1].verdicts.items()})
    for space in (spaces.l2(), spaces.hinf(), spaces.hinf_k(1)):
        for nu in itertools.product(range(-1, 2), repeat=wide.n):
            members = [monomial_in_space(spec, nu, space) for spec in (wide, narrow)]
            assert members[0].verdict == members[1].verdict
            assert members[0].criterion == members[1].criterion


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
