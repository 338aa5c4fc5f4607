"""Exact simplex against hand solutions and a float LP oracle (scipy highs)."""

import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from reinhardt.linalg import dot
from reinhardt.loglin import LogLin
from reinhardt.scalars import quad, sign_of
from reinhardt.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp


def frac(x):
    return Fraction(x)


def test_sup_x1_over_hartogs_log_domain():
    a = [[frac(1), frac(-1)], [frac(0), frac(1)]]
    b = [LogLin.log_of(Fraction(1)), LogLin.log_of(Fraction(1))]
    cert = solve_lp(a, b, [frac(1), frac(0)])
    assert cert.status == OPTIMAL
    assert cert.objective.is_zero()


def test_unbounded_with_ray():
    cert = solve_lp([[frac(1), frac(0)]], [LogLin.log_of(Fraction(1))],
                    [frac(0), frac(1)])
    assert cert.status == UNBOUNDED
    assert cert.ray[0] == 0 and cert.ray[1] > 0


def test_sup_combined_objective():
    a = [[frac(1), frac(-1)], [frac(0), frac(1)]]
    b = [LogLin.log_of(Fraction(1)), LogLin.log_of(Fraction(1))]
    cert = solve_lp(a, b, [frac(2), frac(-1)])
    assert cert.status == OPTIMAL and cert.objective.is_zero()


def test_infeasible_farkas():
    # x <= -1 and -x <= 0 cannot both hold
    cert = solve_lp([[frac(1)], [frac(-1)]], [LogLin.of(Fraction(-1)), LogLin.zero()],
                    [frac(1)])
    assert cert.status == INFEASIBLE
    lam = cert.farkas
    assert all(li >= 0 for li in lam) and any(li > 0 for li in lam)
    assert lam[0] * 1 + lam[1] * (-1) == 0
    assert lam[0] * Fraction(-1) + lam[1] * 0 < 0


def test_no_constraints():
    cert = solve_lp([], [], [frac(0), frac(0)])
    assert cert.status == OPTIMAL and cert.objective.is_zero()
    cert = solve_lp([], [], [frac(1), frac(0)])
    assert cert.status == UNBOUNDED


def test_symbolic_objective_value():
    # sup x subject to x <= log(1/2): optimum is log(1/2), symbolically
    cert = solve_lp([[frac(1)]], [LogLin.log_of(Fraction(1, 2))], [frac(1)])
    assert cert.status == OPTIMAL
    assert cert.objective.terms == ((Fraction(1, 2), Fraction(1)),)
    assert cert.objective.sign() == -1


def test_dual_matches_objective_symbolically():
    a = [[frac(1), frac(-1)], [frac(0), frac(1)]]
    b = [LogLin.log_of(Fraction(1, 2)), LogLin.log_of(Fraction(3))]
    cert = solve_lp(a, b, [frac(1), frac(0)])
    assert cert.status == OPTIMAL
    recomb = LogLin.zero()
    for li, bi in zip(cert.dual, b):
        recomb = recomb + bi * li
    assert (recomb - cert.objective).is_zero()


# -- differential cases against scipy's HiGHS ---------------------------------
#
# Each case re-verifies the returned certificate with exact arithmetic and
# compares status and objective with HiGHS run on float(...) data.

LOG_BASES = (Fraction(2), Fraction(3), Fraction(1, 5))
SQRT2 = quad(0, 1, 2)


def _lhs(row, x):
    return sum((xi * r for xi, r in zip(x, row)), LogLin.zero())


def _verify_exactly(a, b, c, cert):
    n = len(c)
    cols = [[row[j] for row in a] for j in range(n)]
    if cert.status == OPTIMAL:
        x = cert.primal_point
        assert all((bi - _lhs(row, x)).sign() >= 0 for row, bi in zip(a, b))
        assert (_lhs(c, x) - cert.objective).is_zero()
        lam = cert.dual
        assert len(lam) == len(a) and all(sign_of(li) >= 0 for li in lam)
        assert all(sign_of(dot(lam, col) - cj) == 0 for col, cj in zip(cols, c))
        assert (_lhs(lam, b) - cert.objective).is_zero()  # strong duality
    elif cert.status == UNBOUNDED:
        d = cert.ray
        assert all(sign_of(dot(row, d)) <= 0 for row in a)
        assert sign_of(dot(c, d)) > 0
    else:
        lam = cert.farkas
        assert all(sign_of(li) >= 0 for li in lam)
        assert all(sign_of(dot(lam, col)) == 0 for col in cols)
        assert _lhs(lam, b).sign() < 0


def _against_highs(a, b, c):
    cert = solve_lp(a, b, c)
    _verify_exactly(a, b, c, cert)
    res = linprog(c=[-float(x) for x in c],
                  A_ub=np.array([[float(x) for x in row] for row in a]),
                  b_ub=np.array([float(bi) for bi in b]),
                  bounds=[(None, None)] * len(c), method="highs")
    assert res.status == {OPTIMAL: 0, INFEASIBLE: 2, UNBOUNDED: 3}[cert.status]
    if cert.status == OPTIMAL:
        assert float(cert.objective) == pytest.approx(-res.fun, abs=1e-7)
    return cert


def _log_rhs(rng):
    """const + sum q_k log b_k with small rational q_k, some of them zero."""
    value = LogLin.of(Fraction(rng.randint(-2, 3), rng.randint(1, 2)))
    for base in LOG_BASES:
        if rng.random() < 0.6:
            value = value + LogLin.log_of(base, Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    return value


@pytest.mark.parametrize("seed", range(40))
def test_random_lps_against_scipy(seed):
    rng = random.Random(1000 + seed)
    m, n = rng.randint(1, 5), rng.randint(1, 4)
    a = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
    b = [LogLin.of(Fraction(rng.randint(-3, 6), rng.randint(1, 3))) for _ in range(m)]
    c = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
    _against_highs(a, b, c)


@pytest.mark.parametrize("seed", range(20))
def test_random_lps_with_mixed_log_bases(seed):
    rng = random.Random(2000 + seed)
    m, n = rng.randint(2, 5), rng.randint(1, 3)
    a = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
    b = [_log_rhs(rng) for _ in range(m)]
    c = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
    _against_highs(a, b, c)


@pytest.mark.parametrize("seed", range(20))
def test_random_lps_over_quadratic_field(seed):
    rng = random.Random(3000 + seed)
    m, n = rng.randint(2, 5), rng.randint(1, 3)
    a = [[quad(rng.randint(-2, 2), rng.randint(-2, 2), 2) for _ in range(n)] for _ in range(m)]
    b = [LogLin.of(Fraction(rng.randint(-2, 5), rng.randint(1, 3))) if rng.random() < 0.5
         else _log_rhs(rng) for _ in range(m)]
    c = [rng.choice([Fraction(rng.randint(-2, 2)), quad(rng.randint(-2, 2), 1, 2)])
         for _ in range(n)]
    _against_highs(a, b, c)


@pytest.mark.parametrize("seed", range(20))
def test_degenerate_lps_hit_bland_ties(seed):
    """Repeated and scaled rows with zero right-hand sides: every ratio test
    ties at zero, so the leaving row comes from Bland's tie-break."""
    rng = random.Random(4000 + seed)
    n = rng.randint(2, 3)
    base_rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(rng.randint(2, 3))]
    a, b = [], []
    for row in base_rows:
        for _ in range(rng.randint(1, 3)):
            scale = rng.choice([Fraction(1), Fraction(2), Fraction(1, 3), SQRT2])
            a.append([scale * x for x in row])
            b.append(LogLin.zero())
    # bounding rows keep most cases optimal; x = 0 stays feasible throughout
    for j in range(n):
        for s in (1, -1):
            if rng.random() < 0.8:
                row = [Fraction(0)] * n
                row[j] = Fraction(s)
                a.append(row)
                b.append(LogLin.zero() if rng.random() < 0.5 else
                         LogLin.log_of(rng.choice(LOG_BASES[:2]), Fraction(1, rng.randint(1, 3))))
    order = list(range(len(a)))
    rng.shuffle(order)
    a, b = [a[i] for i in order], [b[i] for i in order]
    c = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
    _against_highs(a, b, c)


def test_degenerate_lp_with_tied_ratios():
    # x + y <= 0 three times over and x <= 0, y <= 0: every ratio is 0
    row = [Fraction(1), Fraction(1)]
    a = [row, row, [Fraction(2), Fraction(2)], [Fraction(1), Fraction(0)],
         [Fraction(0), Fraction(1)]]
    b = [LogLin.zero()] * 5
    cert = _against_highs(a, b, [Fraction(1), Fraction(1)])
    assert cert.status == OPTIMAL and cert.objective.is_zero()
