"""Exact simplex against hand solutions and a float LP oracle (scipy highs)."""

import functools
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

from conftest import NEAR_TIE, degenerate_lp, integer_lp, mixed_log_lp, seeded_lps, sqrt2_lp
from reinhardt import linalg, loglin, simplex
from reinhardt.errors import BoundaryIndeterminate, ReinhardtError
from reinhardt.linalg import dot
from reinhardt.loglin import LogLin
from reinhardt.scalars import QuadExt, quad, sign_of
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


def test_ratio_tie_over_dependent_quadratic_bases_is_exact():
    # log(3 + 2 sqrt 2) = 2 log(1 + sqrt 2): both rows bound x by the same
    # value, so the ratio test ties on a form that is exactly zero.  Its
    # coefficients must stay rational for the zero to be decided exactly.
    unit = quad(1, 1, 2)
    a = [[Fraction(1)], [unit]]
    b = [LogLin.log_of(unit, 2), LogLin.log_of(quad(3, 2, 2)) * unit]
    cert = solve_lp(a, b, [Fraction(1)])
    assert cert.status == OPTIMAL
    assert cert.objective.terms == ((unit, Fraction(2)),)
    assert cert.dual == (Fraction(1), Fraction(0))


# -- differential cases against scipy's HiGHS ---------------------------------
#
# Each case re-verifies the returned certificate with exact arithmetic and
# compares status and objective with HiGHS run on float(...) data.

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


@pytest.mark.parametrize("seed", range(40))
def test_random_lps_against_scipy(seed):
    _against_highs(*integer_lp(random.Random(1000 + seed)))


@pytest.mark.parametrize("seed", range(20))
def test_random_lps_with_mixed_log_bases(seed):
    _against_highs(*mixed_log_lp(random.Random(2000 + seed)))


@pytest.mark.parametrize("seed", range(20))
def test_random_lps_over_quadratic_field(seed):
    _against_highs(*sqrt2_lp(random.Random(3000 + seed)))


@pytest.mark.parametrize("seed", range(20))
def test_degenerate_lps_hit_bland_ties(seed):
    _against_highs(*degenerate_lp(random.Random(4000 + seed)))


@pytest.mark.parametrize("name,lp", [(name, lp) for name, lp in seeded_lps()
                                     if name.startswith(("sqrt5", "negative-norm", "infeasible",
                                                         "unbounded"))])
def test_seeded_lp_families_against_scipy(name, lp):
    """Q(sqrt 5), pivots of negative norm, and LPs infeasible or unbounded
    by construction."""
    cert = _against_highs(*lp)
    if name.startswith(("infeasible", "unbounded")):
        assert cert.status == name.split("-")[0]


def test_basic_columns_are_unit_columns_after_every_pivot(monkeypatch):
    """After each pivot, over Q, Q(sqrt 2) and Q(sqrt 5) and through pivots
    of negative norm, every basic column holds its row's denominator in its
    row (true value 1), minus it in column j for a basic v_j, and 0 in every
    other row, the reduced costs included.  A row stores one column per
    variable: x, the slacks and the artificials, then the right-hand side."""
    pivot, checked = simplex._Tableau.pivot, []

    def checking(t, row, col):
        pivot(t, row, col)
        width = t.n + t.m + len(t.arts) + 1 + len(t.bases)
        assert all(len(r) == (width if t.d is None else 2 * width) for r in t.rows)
        for r, b in enumerate(t.basis):
            c, s = t.order[b]
            assert s == (-1 if t.n <= b < 2 * t.n else 1)
            unit = s * t.den[r] if t.d is None else (s * t.den[r], 0)
            assert linalg.entry(t.rows[r], c, t.d) == unit
            assert all(linalg.entry_sign(t.rows[i], c, t.d) == 0
                       for i in range(t.m + 1) if i != r)
        checked.append((t.d, any(t.n <= b < 2 * t.n for b in t.basis)))

    monkeypatch.setattr(simplex._Tableau, "pivot", checking)
    for _, lp in seeded_lps():
        solve_lp(*lp)
    assert {(d, True) for d in (None, 2, 5)} <= set(checked)


def test_a_tableau_bounds_each_log_once_per_precision(monkeypatch):
    # the interior-point LP of |z| < 1/2, |z^sqrt2| < NEAR_TIE: its ratio
    # tests climb the ladder past 64 bits; precision.log_bounds holds the
    # bounds, so it computes each (base, precision) asked for once
    monkeypatch.delenv("REINHARDT_PRECISION", raising=False)  # the default ladder cap
    asked, log_bounds = [], loglin.log_bounds

    def counting(x, bits):
        asked.append((x, bits))
        return log_bounds(x, bits)

    monkeypatch.setattr(loglin, "log_bounds", counting)
    log_bounds.cache_clear()
    rows = [[Fraction(1), Fraction(1)], [quad(0, 1, 2), Fraction(1)],
            [Fraction(0), Fraction(1)], [Fraction(0), Fraction(-1)]]
    rhs = [LogLin.log_of(Fraction(1, 2)), LogLin.log_of(NEAR_TIE), LogLin.of(1), LogLin.zero()]
    assert solve_lp(rows, rhs, [Fraction(0), Fraction(1)]).status == OPTIMAL
    assert log_bounds.cache_info().misses == len(set(asked))
    assert max(bits for _, bits in asked) > 64


def test_degenerate_lp_with_tied_ratios():
    # x + y <= 0 three times over and x <= 0, y <= 0: every ratio is 0
    row = [Fraction(1), Fraction(1)]
    a = [row, row, [Fraction(2), Fraction(2)], [Fraction(1), Fraction(0)],
         [Fraction(0), Fraction(1)]]
    b = [LogLin.zero()] * 5
    cert = _against_highs(a, b, [Fraction(1), Fraction(1)])
    assert cert.status == OPTIMAL and cert.objective.is_zero()


# -- the ratio test's sign against LogLin.sign ------------------------------
#
# The tableau decides the sign of a ratio-test cross product on integer
# exponents over the coprime base of the LP's thresholds; LogLin.sign
# decides the same form over the coprime base of its own bases.  Both must
# give the same sign, and raise BoundaryIndeterminate on the same forms
# (run again with REINHARDT_PRECISION=64, where the ladder gives up early).

# thresholds sharing factors, a pair within 2^-4200 of 1 (products far above
# 4096 bits), and 1 - log(NEAR_E) that needs about 100 bits
NEAR_E = Fraction(27182818284590452353602874713527, 10 ** 31)
HUGE = (Fraction(2 ** 4200 + 1, 2 ** 4200), Fraction(2 ** 4200 + 3, 2 ** 4200))
RATIONAL = (Fraction(4), Fraction(6), Fraction(9), Fraction(2, 3), Fraction(8, 27),
            Fraction(3, 2), Fraction(5), NEAR_E) + HUGE
# in Q(sqrt d): a unit and its square, so that distinct bases can cancel
IRRATIONAL = {None: (), 2: (quad(1, 1, 2), quad(3, 2, 2)),
              5: (quad(Fraction(1, 2), Fraction(1, 2), 5), quad(Fraction(3, 2), Fraction(1, 2), 5))}


@st.composite
def ratio_forms(draw):
    """(d, thresholds, vec): an LP's thresholds and a right-hand-side
    integer row over them, over Z, Z[sqrt 2] or Z[sqrt 5]."""
    d = draw(st.sampled_from([None, 2, 5]))
    thresholds = draw(st.lists(st.sampled_from(RATIONAL + IRRATIONAL[d]), min_size=1,
                               max_size=4, unique=True))
    # large exponents only over small thresholds, so an outright product stays small
    bound = 3 if set(thresholds) & set(HUGE) else 10 ** 4
    entry = st.one_of(st.integers(-3, 3), st.integers(-bound, bound))
    k = 1 + len(thresholds)
    vec = draw(st.lists(entry, min_size=k, max_size=k))
    if d is not None:
        vec += draw(st.lists(st.one_of(st.just(0), entry), min_size=k, max_size=k))
    if draw(st.booleans()):  # a zero constant: ties and products
        vec[0] = 0
        if d is not None:
            vec[k] = 0
    return d, thresholds, vec


ORACLE = mpmath.MPContext()
ORACLE.prec = 16000


@functools.lru_cache(maxsize=None)
def _oracle_log(base):
    def real(x):
        if isinstance(x, QuadExt):
            return real(x.a) + real(x.b) * ORACLE.sqrt(x.d)
        return ORACLE.mpf(x.numerator) / x.denominator
    return ORACLE.log(real(base))


def _high_precision(d, bases, vec):
    """The form of ``vec`` over ``bases`` at 16000 bits, computed apart from
    both decision paths."""
    logs = [_oracle_log(b) for b in bases]
    k = len(vec) if d is None else len(vec) // 2
    value = vec[0] + ORACLE.fsum(c * lg for c, lg in zip(vec[1:k], logs))
    if d is not None:
        value += ORACLE.sqrt(d) * (vec[k] + ORACLE.fsum(c * lg for c, lg in zip(vec[k + 1:], logs)))
    return value


def _outcome(sign):
    try:
        return sign()
    except BoundaryIndeterminate as exc:
        return "indeterminate", exc.what


def _ratio_tableau(thresholds, d):
    """A tableau whose right-hand sides are over ``thresholds``."""
    b = [LogLin.log_of(t) for t in thresholds]
    return simplex._Tableau(simplex.LPSystem([linalg.over_denominator([Fraction(1)], d)] * len(b),
                                             b, 1, d))


@given(ratio_forms())
# (-4 + 2 sqrt 5) - log(3/2) > 0; without the sqrt 5 half of the constant it would be < 0
@example((5, [Fraction(3, 2)], [-4, -1, 2, 0]))
@example((None, [Fraction(4), Fraction(6), Fraction(9)], [0, 1, -2, 1]))  # 4 * 9 = 6^2
@example((2, [Fraction(2, 3), Fraction(8, 27)], [0, 3, -1, 0, 3, -1]))  # (2/3)^3 = 8/27
@example((None, list(HUGE), [0, 3, -1]))  # past the ladder cap: the product decides
@example((5, list(HUGE), [0, 1, -1, 0, 2, -2]))
@example((None, [NEAR_E, Fraction(4)], [1, -1, 0]))
@example((2, list(IRRATIONAL[2]), [0, 2, -1, 0, 2, -1]))  # (1 + sqrt 2) times a zero form
@settings(max_examples=300, deadline=None)
def test_ratio_test_sign_matches_loglin_sign(form):
    d, thresholds, vec = form
    t = _ratio_tableau(thresholds, d)
    expected = _outcome(lambda: t.loglin(linalg.vector(vec, 1, d)).sign())
    assert _outcome(lambda: t.form_sign(vec)) == expected
    if isinstance(expected, int):  # no form of these inputs is nonzero below 2^-9000
        value = _high_precision(d, t.bases, vec)
        assert expected == (0 if abs(value) < mpmath.mpf(2) ** -15000 else 1 if value > 0 else -1)



# -- the integer certificate checks and the initial rows -----------------------
#
# solve_lp clears each constraint row and the objective once, and its checks
# verify the returned certificate in integers against those cleared rows.

def _cleared(a, c):
    d = next((x.d for x in [*(x for row in a for x in row), *c] if isinstance(x, QuadExt)),
             None)
    return [linalg.over_denominator(row, d) for row in a], linalg.over_denominator(c, d), d


def _raises(check, message):
    with pytest.raises(ReinhardtError, match=message):
        check()


def _changed(lam, i, d, negated=False):
    """The integer row ``lam`` with entry i negated, or else moved by a
    positive step, with an irrational half over Q(sqrt d): -1 + sqrt d."""
    out, k = list(lam), len(lam) // 2
    if negated:
        out[i] = -out[i]
        if d is not None:
            out[k + i] = -out[k + i]
    elif d is None:
        out[i] += 1
    else:
        out[i], out[k + i] = out[i] - 1, out[k + i] + 1
    return out


def test_seeded_certificates_pass_their_checks_and_fail_when_changed():
    """Every seeded LP's certificate passes its integer check; one multiplier
    of its integer row moved by a positive step along a nonzero row, one
    multiplier negated, Farkas multipliers against all-zero right-hand
    sides, or one ray entry moved so that the objective or a row turns,
    fails it."""
    checked = set()
    for _, (a, b, c) in seeded_lps():
        rows, cost, d = _cleared(a, c)
        t = simplex._Tableau(simplex.LPSystem(rows, b, len(c), d))
        cert = solve_lp(a, b, c)
        nonzero = [i for i, row in enumerate(a) if any(sign_of(x) for x in row)]
        if cert.status == UNBOUNDED:
            ray = list(cert.ray)
            simplex._check_ray(rows, cost, ray, d)
            j = next(j for j, cj in enumerate(c) if sign_of(cj))
            flat = ray[:j] + [ray[j] - dot(c, ray) / c[j]] + ray[j + 1:]  # <c, ray> = 0
            _raises(lambda: simplex._check_ray(rows, cost, flat, d),
                    "does not improve|failed verification")
            # only the objective test rejects the zero ray
            _raises(lambda: simplex._check_ray(rows, cost, [0] * len(c), d), "does not improve")
            i, k = next((i, k) for i in nonzero for k, x in enumerate(a[i]) if sign_of(x))
            up = ray[:k] + [ray[k] + (1 - dot(a[i], ray)) / a[i][k]] + ray[k + 1:]  # row i: 1
            _raises(lambda: simplex._check_ray(rows, cost, up, d), "failed verification")
        else:
            lam, den = linalg.over_denominator(cert.dual or cert.farkas, d)
            if cert.status == OPTIMAL:
                check = lambda m: simplex._check_dual(t, cost, m, den)  # noqa: E731
                wrong = "do not reproduce the objective"
            else:
                check = lambda m: simplex._check_farkas(t, m)  # noqa: E731
                wrong = "does not annihilate the rows"
                zero = simplex._Tableau(simplex.LPSystem(rows, [LogLin.zero()] * len(a), len(c), d))
                _raises(lambda: simplex._check_farkas(zero, lam), "is not negative")
                checked.add(("zero right-hand sides", d))
            check(lam)
            if nonzero:
                _raises(lambda: check(_changed(lam, nonzero[len(nonzero) // 2], d)), wrong)
            i = next((i for i in range(len(a)) if linalg.entry_sign(lam, i, d) > 0), None)
            if i is not None:
                _raises(lambda: check(_changed(lam, i, d, negated=True)), "non-negative")
        checked.add((cert.status, d))
    assert {(s, d) for s in (OPTIMAL, INFEASIBLE, UNBOUNDED) for d in (None, 2)} <= checked
    assert {("zero right-hand sides", d) for d in (None, 2)} <= checked


def test_initial_rows_are_the_signed_constraint_rows():
    """Read back over its denominator, row i of a new tableau is
    s [a_i | e_i | b_i], with s = -1 and an artificial at +1 on a row whose
    right-hand side is negative."""
    for _, (a, b, c) in seeded_lps():
        rows, _, d = _cleared(a, c)
        t = simplex._Tableau(simplex.LPSystem(rows, b, len(c), d))
        for i, (row, bi) in enumerate(zip(a, b)):
            s = -1 if bi.sign() < 0 else 1
            expected = row + [Fraction(0)] * (t.ncols - t.n) + [bi.const] + [0] * len(t.bases)
            expected[t.n + i] = Fraction(1)
            for base, coeff in bi.terms:
                expected[t.ncols + 1 + t.bases.index(base)] = coeff
            expected = [s * x for x in expected]
            expected[t.order[t.basis[i]][0]] = Fraction(1)
            got = linalg.vector(t.rows[i], t.den[i], d)
            assert len(got) == len(expected)
            assert all(sign_of(x - y) == 0 for x, y in zip(got, expected))
