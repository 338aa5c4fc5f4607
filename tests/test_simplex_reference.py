"""The exact simplex against a frozen reference: the two-phase Bland simplex
as it was before its start tableaux were held and its pivots updated whole
rows in one call, kept below with the integer-row helpers it used.

Random systems with n <= 5 and m <= 8 over Q, Q(sqrt 2), Q(sqrt 3) and
Q(sqrt 5), with log offsets of either sign (so phase I runs), repeated and
rescaled rows (Bland ties) and infeasible or unbounded ones, must give the
same certificate, field for field, and the same number of pivots.  A system
held across interleaved objectives, and a held system with a row appended,
must answer as fresh systems do.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from reinhardt import simplex
from reinhardt.errors import ReinhardtError
from reinhardt.loglin import LogBase, LogLin, as_loglin
from reinhardt.scalars import QuadExt, Scalar, quad, quadratic_sign, sign_of
from reinhardt.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LPCertificate, LPSystem, solve_lp


# -- the reference: a frozen copy, not to be edited with the package ------------

_MAX_PIVOTS = 50_000


def field_of(rows) -> Optional[int]:
    fields = {x.d for row in rows for x in row if isinstance(x, QuadExt)}
    if len(fields) > 1:
        raise ValueError(f"mixed quadratic fields: sqrt d for d in {sorted(fields)}")
    return next(iter(fields), None)


def halves(v) -> list:
    return [x.a if isinstance(x, QuadExt) else x for x in v] + \
        [x.b if isinstance(x, QuadExt) else 0 for x in v]


def over_denominator(v, d: Optional[int]) -> tuple[list[int], int]:
    entries = v if d is None else halves(v)
    den = math.lcm(*(x.denominator for x in entries))
    return [x.numerator * (den // x.denominator) for x in entries], den


def rational_row(values: list[int], d: Optional[int]) -> list[int]:
    return values if d is None else values + [0] * len(values)


def joined(parts: list[list[int]], d: Optional[int]) -> list[int]:
    if d is None:
        return [x for v in parts for x in v]
    return ([x for v in parts for x in v[:len(v) // 2]]
            + [x for v in parts for x in v[len(v) // 2:]])


def primitive(v: list[int]) -> list[int]:
    g = math.gcd(*v)
    return [x // g for x in v] if g > 1 else v


def cancel(v: list[int], den: int) -> tuple[list[int], int]:
    g = math.gcd(*v, den)
    return ([x // g for x in v], den // g) if g > 1 else (v, den)


def times(s, v: list[int], d: Optional[int]) -> list[int]:
    if d is None:
        return [s * x for x in v]
    a, b = s
    k = len(v) // 2
    num, irr = v[:k], v[k:]
    return ([a * x + d * b * y for x, y in zip(num, irr)]
            + [a * y + b * x for x, y in zip(num, irr)])


def combine(s, u: list[int], t, v: list[int], d: Optional[int], start: int = 0) -> list[int]:
    if d is None:
        if start:
            u, v = u[start:], v[start:]
        return [s * x + t * y for x, y in zip(u, v)]
    k = len(u) // 2
    (sa, sb), (ta, tb) = s, t
    ua, ub, va, vb = u[start:k], u[k + start:], v[start:k], v[k + start:]
    dtb = d * tb
    if not sb:  # a rational s, as in every elimination step
        return ([sa * w + ta * y + dtb * z for w, y, z in zip(ua, va, vb)]
                + [sa * x + ta * z + tb * y for x, y, z in zip(ub, va, vb)])
    dsb = d * sb
    return ([sa * w + dsb * x + ta * y + dtb * z for w, x, y, z in zip(ua, ub, va, vb)]
            + [sa * x + sb * w + ta * z + tb * y for w, x, y, z in zip(ua, ub, va, vb)])


def over(v: list[int], s, d: Optional[int]) -> list[int]:
    if d is None or not s[1]:
        return [-x for x in v] if (s if d is None else s[0]) < 0 else v
    a, b = s
    return times((a, -b) if a * a > d * b * b else (-a, b), v, d)


def pivoted(v: list[int], c: int, d: Optional[int]) -> list[int]:
    return primitive(over(v, entry(v, c, d), d))


def eliminate(v: list[int], pv: list[int], c: int, d: Optional[int], start: int = 0
              ) -> list[int]:
    if d is None:
        p, f = pv[c], -v[c]
    else:
        k = len(v) // 2
        p, f = (pv[c], pv[k + c]), (-v[c], -v[k + c])
    return combine(p, v, f, pv, d, start)


def combination(rows, lam: list[int], width: int, d: Optional[int]) -> tuple[list[int], int]:
    scale = math.lcm(*(r for _, r in rows))
    terms = [times(entry(lam, i, d), [x * (scale // r) for x in row], d)
             for i, (row, r) in enumerate(rows) if entry_sign(lam, i, d)]
    return [sum(col) for col in zip([0] * width, *terms)], scale


def ring(d: Optional[int]):
    if d is None:
        return (lambda u, v: sum(map(mul, u, v))), (lambda x: (x > 0) - (x < 0)), (lambda x: -x)

    def dot_pair(u, v):
        k = len(u) // 2
        ua, ub, va, vb = u[:k], u[k:], v[:k], v[k:]
        return (sum(map(mul, ua, va)) + d * sum(map(mul, ub, vb)),
                sum(map(mul, ua, vb)) + sum(map(mul, ub, va)))

    return dot_pair, (lambda x: quadratic_sign(x[0], x[1], d)), (lambda x: (-x[0], -x[1]))


def row_of(values: list, d: Optional[int]) -> list[int]:
    return values if d is None else [a for a, _ in values] + [b for _, b in values]


def entry(v: list[int], j: int, d: Optional[int]):
    return v[j] if d is None else (v[j], v[len(v) // 2 + j])


def entry_sign(v: list[int], j: int, d: Optional[int]) -> int:
    if d is None:
        return (v[j] > 0) - (v[j] < 0)
    return quadratic_sign(v[j], v[len(v) // 2 + j], d)


def lead(v: list[int], d: Optional[int], start: int = 0) -> Optional[int]:
    if d is None:
        for j in range(start, len(v)):
            if v[j]:
                return j
        return None
    k = len(v) // 2
    for j in range(start, k):
        if v[j] or v[k + j]:
            return j
    return None


def tail(v: list[int], j: int, d: Optional[int]) -> list[int]:
    k = len(v) // 2
    return v[j:] if d is None else v[j:k] + v[k + j:]


def scalar(v: list[int], j: int, den: int, d: Optional[int]) -> Scalar:
    x = Fraction(v[j], den)
    if d is None:
        return x
    y = v[len(v) // 2 + j]
    return QuadExt(x, Fraction(y, den), d) if y else x


def vector(v: list[int], den: int, d: Optional[int]) -> list[Scalar]:
    xs = [Fraction(x) for x in v] if den == 1 else [Fraction(x, den) for x in v]
    if d is None:
        return xs
    k = len(v) // 2
    return [QuadExt(x, y, d) if y else x for x, y in zip(xs[:k], xs[k:])]


class _ReferenceTableau:
    """The tableau, built per solve from the cleared rows."""

    def __init__(self, system: _ReferenceSystem):
        n, self.d, self.a_rows, self.b_rows = system.n, system.d, system.a_rows, system.b_rows
        self.n, self.m, self.logbase = n, len(self.a_rows), system.logbase
        self.bases, flips = self.logbase.bases, system.flips
        self.ncols = n + self.m + sum(flips)
        self.arts = range(n + self.m, self.ncols)
        self.order = [(j, 1) for j in range(n)] + [(j, -1) for j in range(n)] + \
            [(k, 1) for k in range(n, self.ncols)]
        self.rows, self.den, self.basis = [], [], []  # integer rows, denominators, basic columns
        arts = iter(self.arts)
        for i, ((a, den_a), (rhs, den_b), flip) in enumerate(zip(self.a_rows, self.b_rows, flips)):
            den = math.lcm(den_a, den_b)
            # s [a | e_i | b] over den, s = -1 on a flipped row, whose slack
            # sits at -1, unusable as basis: an artificial starts there at +1
            s = -1 if flip else 1
            col = next(arts) if flip else n + i
            self.basis.append(n + col)
            self.rows.append(self.row([s * (den // den_a) * x for x in a],
                                      {n + i: s * den, col: den},
                                      [s * (den // den_b) * x for x in rhs]))
            self.den.append(den)
        self.rows.append([]), self.den.append(1)  # the reduced costs, set by price

    def row(self, x: list[int], units: dict, rhs: Optional[list[int]] = None) -> list[int]:
        u = [0] * (self.ncols - self.n)
        for col, v in units.items():
            u[col - self.n] = v
        rhs = rhs or rational_row([0] * (1 + len(self.bases)), self.d)
        return joined([x, rational_row(u, self.d), rhs], self.d)

    # -- exact values, built only for the objective and the certificates ------

    def rhs(self, i: int) -> list[Scalar]:
        return vector(tail(self.rows[i], self.ncols, self.d), self.den[i], self.d)

    def loglin(self, vec: Sequence[Scalar]) -> LogLin:
        return LogLin(vec[0], tuple((b, c) for b, c in zip(self.bases, vec[1:]) if c))

    def objective_sign(self) -> int:
        return self.form_sign(tail(self.rows[self.m], self.ncols, self.d), self.den[self.m])

    def multipliers(self) -> tuple[list[int], int]:
        row, d, m = self.rows[self.m], self.d, self.m
        return row_of([entry(row, self.n + i, d) for i in range(m)], d), self.den[m]

    # -- pivoting ---------------------------------------------------------------

    def price(self, cost: list[int], den: int) -> None:
        self.rows[self.m], self.den[self.m] = cost, den
        for i in range(self.m):
            col, s = self.order[self.basis[i]]
            if entry_sign(self.rows[self.m], col, self.d):
                self._eliminate(self.m, i, col, s)

    def pivot(self, row: int, col: int) -> None:
        c, s = self.order[col]
        self.rows[row] = pivoted(self.rows[row], c, self.d)
        self.den[row] = self.rows[row][c]
        for i in range(self.m + 1):
            if i != row and entry_sign(self.rows[i], c, self.d):
                self._eliminate(i, row, c, 1)
        if s < 0:
            self.rows[row] = [-x for x in self.rows[row]]
        self.basis[row] = col

    def _eliminate(self, i: int, row: int, col: int, s: int) -> None:
        vec = eliminate(self.rows[i], self.rows[row], col, self.d)
        self.rows[i], self.den[i] = cancel(vec if s > 0 else [-x for x in vec],
                                           self.den[i] * self.den[row])

    def _ratio_sign(self, i: int, k: int, col: int) -> int:
        d, ri, rk = self.d, self.rows[i], self.rows[k]
        vec = eliminate(ri, rk, col, d, self.ncols)
        if lead(vec, d, 1) is None:
            return entry_sign(vec, 0, d)
        # over a_i and a_k: a form with rational coefficients keeps them
        for a in (entry(ri, col, d), entry(rk, col, d)):
            vec = over(vec, a, d)
        return self.form_sign(vec)

    def form_sign(self, vec: list[int], den: int = 1) -> int:
        return self.logbase.sign(vec, den,
                                 lambda: repr(self.loglin(vector(vec, den, self.d))))

    def run(self, cost: list[int], den: int, stop: int) -> Optional[int]:
        self.price(cost, den)
        sign, d, order = entry_sign, self.d, self.order[:stop]
        for _ in range(_MAX_PIVOTS):
            enter = next((j for j, (c, s) in enumerate(order)
                          if s * sign(self.rows[self.m], c, d) < 0), None)
            if enter is None:
                return None
            c, s = order[enter]
            leave = None
            for i in range(self.m):
                if s * sign(self.rows[i], c, d) > 0:
                    if leave is None:
                        leave = i
                    else:
                        r = s * self._ratio_sign(i, leave, c)
                        if r < 0 or (r == 0 and self.basis[i] < self.basis[leave]):
                            leave = i
            if leave is None:
                return enter
            self.pivot(leave, enter)
        raise ReinhardtError("simplex failed to terminate (internal error)")


class _ReferenceSystem:
    """The rows A x <= b cleared once; a tableau starts from them per solve."""

    def __init__(self, a_rows: Sequence, b_vals: Sequence[LogLin], n: int, d: Optional[int]):
        self.n, self.d, self.a_rows, self.b_vals = n, d, tuple(a_rows), tuple(b_vals)
        self.logbase = LogBase(sorted({base for b in b_vals for base, _ in b.terms}), d)
        slot = {base: 1 + k for k, base in enumerate(self.logbase.bases)}
        b_rows = []
        for b in b_vals:
            rhs = [b.const] + [0] * len(slot)
            for base, coeff in b.terms:
                rhs[slot[base]] = coeff
            b_rows.append(over_denominator(rhs, d))
        self.b_rows = tuple(b_rows)
        self.flips = tuple(self.logbase.sign(*row, lambda b=b: repr(b)) < 0
                           for row, b in zip(b_rows, b_vals))

    @staticmethod
    def of(a_rows: Sequence[Sequence[Scalar]], b_vals: Sequence, objective: Sequence[Scalar]
           ) -> _ReferenceSystem:
        b_vals = [as_loglin(b) for b in b_vals]
        n = len(objective)
        if any(len(r) != n for r in a_rows):
            raise ValueError("constraint rows and objective have mismatched lengths")
        d = field_of([*a_rows, objective,
                             *((b.const, *(c for _, c in b.terms)) for b in b_vals)])
        return _ReferenceSystem([over_denominator(r, d) for r in a_rows], b_vals, n, d)


def reference_solve_lp(a_rows: Sequence[Sequence[Scalar]], b_vals: Sequence,
                       objective: Sequence[Scalar]) -> LPCertificate:
    system = _ReferenceSystem.of(a_rows, b_vals, objective)
    n, d, rows = system.n, system.d, system.a_rows
    cost = over_denominator(objective, d)

    t = _ReferenceTableau(system)

    if t.arts:
        phase1 = t.row(rational_row([0] * n, d), dict.fromkeys(t.arts, 1))
        if t.run(phase1, 1, n + t.ncols) is not None:
            raise ReinhardtError("phase I unbounded (internal error)")
        if t.objective_sign() < 0:
            lam, den = t.multipliers()
            _check_farkas(t, lam)
            return LPCertificate(status=INFEASIBLE, farkas=tuple(vector(lam, den, d)))
        _drive_out_artificials(t)

    enter = t.run(t.row([-x for x in cost[0]], {}), cost[1], 2 * n + t.m)
    if enter is not None:
        ray = _extract_ray(t, enter)
        _check_ray(rows, cost, ray, d)
        return LPCertificate(status=UNBOUNDED, ray=ray)

    point = _extract_point(t)
    value = t.loglin(t.rhs(t.m))
    lam, den = t.multipliers()
    _check_dual(t, cost, lam, den)
    return LPCertificate(status=OPTIMAL, primal_point=point, objective=value,
                         dual=tuple(vector(lam, den, d)))


def _drive_out_artificials(t: _ReferenceTableau) -> None:
    for i in range(t.m):
        if t.basis[i] >= t.n + t.arts.start:
            c = next(j for j in range(t.arts.start) if entry_sign(t.rows[i], j, t.d))
            t.pivot(i, c if c < t.n else t.n + c)


def _extract_point(t: _ReferenceTableau) -> tuple[LogLin, ...]:
    point = [LogLin.zero()] * t.n
    for i, col in enumerate(t.basis):
        if col < 2 * t.n:
            point[col % t.n] = t.loglin([x if col < t.n else -x for x in t.rhs(i)])
    return tuple(point)


def _extract_ray(t: _ReferenceTableau, enter: int) -> tuple[Scalar, ...]:
    c, s = t.order[enter]
    delta: dict[int, Scalar] = {enter: Fraction(1)}
    for i, col in enumerate(t.basis):
        delta[col] = -s * scalar(t.rows[i], c, t.den[i], t.d)
    return tuple(delta.get(j, Fraction(0)) - delta.get(t.n + j, Fraction(0))
                 for j in range(t.n))


def _check_ray(rows, cost, ray, d: Optional[int]) -> None:
    dot, sign, _ = ring(d)
    r = over_denominator(ray, d)[0]
    if any(sign(dot(row, r)) > 0 for row, _ in rows):
        raise ReinhardtError("unbounded-ray certificate failed verification")
    if sign(dot(cost[0], r)) <= 0:
        raise ReinhardtError("unbounded ray does not improve the objective")


def _check_farkas(t: _ReferenceTableau, lam: list[int]) -> None:
    if any(entry_sign(lam, i, t.d) < 0 for i in range(t.m)):
        raise ReinhardtError("Farkas multipliers must be non-negative")
    if any(combination(t.a_rows, lam, len(t.a_rows[0][0]), t.d)[0]):
        raise ReinhardtError("Farkas combination does not annihilate the rows")
    if t.form_sign(combination(t.b_rows, lam, len(t.b_rows[0][0]), t.d)[0]) >= 0:
        raise ReinhardtError("Farkas combination is not negative")


def _check_dual(t: _ReferenceTableau, cost, lam: list[int], den: int) -> None:
    if any(entry_sign(lam, i, t.d) < 0 for i in range(t.m)):
        raise ReinhardtError("dual multipliers must be non-negative")
    (c, c_den), (total, scale) = cost, combination(t.a_rows, lam, len(cost[0]), t.d)
    if any(x * c_den != y * den * scale for x, y in zip(total, c)):
        raise ReinhardtError("dual multipliers do not reproduce the objective")




# -- random systems ---------------------------------------------------------------

UNITS = {2: quad(1, 1, 2), 3: quad(2, 1, 3), 5: quad(Fraction(1, 2), Fraction(1, 2), 5)}
BASES = (Fraction(2), Fraction(3), Fraction(6), Fraction(1, 2), Fraction(3, 2))


@st.composite
def lp_systems(draw, objectives=1):
    """(rows, offsets, objectives) over one field: entries from a few small
    rationals, and over Q(sqrt d) a sqrt(d) half; a row now and then a
    positive multiple of an earlier one; offsets zero, or a constant plus
    up to two log terms over bases with shared factors (and a unit of the
    field), of either sign."""
    d = draw(st.sampled_from([None, 2, 3, 5]))
    n, m = draw(st.integers(1, 5)), draw(st.integers(0, 8))

    def scalar():
        a = Fraction(draw(st.sampled_from([0, 0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2)])))
        if d is None or draw(st.booleans()):
            return a
        return quad(a, draw(st.sampled_from([1, -1, Fraction(1, 2)])), d)

    rows = []
    for _ in range(m):
        if rows and draw(st.integers(0, 3)) == 0:
            scale = draw(st.sampled_from([1, 2, Fraction(1, 3)]))
            rows.append([scale * x for x in rows[draw(st.integers(0, len(rows) - 1))]])
        else:
            rows.append([scalar() for _ in range(n)])
    bases = BASES + ((UNITS[d],) if d else ())

    def offset():
        if draw(st.integers(0, 3)) == 0:
            return LogLin.zero()
        value = LogLin.of(Fraction(draw(st.sampled_from([0, 1, -1, Fraction(1, 2)]))))
        for _ in range(draw(st.integers(0, 2))):
            coeff = scalar() if d is not None and draw(st.booleans()) else \
                Fraction(draw(st.sampled_from([1, -1, 2, Fraction(-1, 2)])))
            if sign_of(coeff):
                value = value + LogLin.log_of(draw(st.sampled_from(bases)), coeff)
        return value

    return rows, [offset() for _ in rows], [[scalar() for _ in range(n)]
                                            for _ in range(objectives)]


def _outcome(solve, counted, a, b, c):
    """(certificate or error, pivots) of one solve, the pivots of the
    tableau class ``counted`` counted."""
    pivot, count = counted.pivot, [0]

    def counting(self, row, col):
        count[0] += 1
        return pivot(self, row, col)

    counted.pivot = counting
    try:
        return solve(a, b, c), count[0]
    except ReinhardtError as exc:
        return (type(exc), str(exc)), count[0]
    finally:
        counted.pivot = pivot


X, Y = [Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]


@given(lp_systems())
@example(([[Fraction(1)], [Fraction(-1)]], [LogLin.of(-1), LogLin.zero()],  # infeasible
          [[Fraction(1)]]))
@example(([X], [LogLin.log_of(Fraction(1, 2))], [Y]))  # unbounded after phase I
@example(([[Fraction(1), Fraction(1)]] * 3 + [X, Y], [LogLin.zero()] * 5,  # every ratio ties
          [[Fraction(1), Fraction(1)]]))
@example(([[quad(1, 1, 2), Fraction(-1)], [Fraction(-1), quad(0, 1, 2)]],  # phase I over Q(sqrt 2)
          [LogLin.log_of(Fraction(1, 2)), LogLin.log_of(UNITS[2], -1)],
          [[Fraction(1), Fraction(1)]]))
@settings(max_examples=300, deadline=5000, suppress_health_check=[HealthCheck.too_slow])
def test_solve_lp_matches_the_reference(lp):
    rows, b, (c,) = lp
    got = _outcome(solve_lp, simplex._Tableau, rows, b, c)
    assert got == _outcome(reference_solve_lp, _ReferenceTableau, rows, b, c)


@given(lp_systems(objectives=3), st.lists(st.integers(0, 2), min_size=1, max_size=8))
@settings(max_examples=100, deadline=5000, suppress_health_check=[HealthCheck.too_slow])
def test_a_held_system_answers_as_fresh_systems_do(lp, order):
    """Interleaved objectives on one held system, and each objective as the
    capped row <c, x> <= 1 appended to it, against fresh solves."""
    rows, b, objectives = lp
    d = field_of([*rows, *objectives, *((v.const, *(x for t in v.terms for x in t)) for v in b)])
    held = LPSystem([over_denominator(r, d) for r in rows], b, len(objectives[0]), d)
    for k in order:
        c = objectives[k]
        try:
            fresh = reference_solve_lp(rows, b, c)
        except ReinhardtError as exc:
            with pytest.raises(type(exc)):
                solve_lp(rows, b, c, held)
            continue
        assert solve_lp(rows, b, c, held) == fresh
        if any(sign_of(x) for x in c):
            capped = held.appended(c)
            assert solve_lp([*rows, c], [*b, LogLin.of(1)], c, capped) == \
                reference_solve_lp([*rows, c], [*b, LogLin.of(1)], c)
