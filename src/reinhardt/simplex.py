"""Exact two-phase simplex with Bland's rule and checked certificates.

Solves  max <c, x>  s.t.  A x <= b  with x free, A and c over the scalar
field and b symbolic (:class:`LogLin`), so log-thresholds never get rounded.
The tableau stores one column per variable: x, the slacks that close the
rows, and phase I's artificials on rows whose right-hand side starts
negative.  The split x = u - v is only Bland's order: v_j is column j negated.

The tableau is fraction-free: each row is an integer row of
:mod:`reinhardt.linalg` (the format is stated there) over one positive
integer denominator, for the constraint columns and for the right-hand side
``[const, coeff of log b_1, ..., log b_k]`` over the LP's distinct log
bases, sorted as in :class:`LogLin`.  A pivot scales its row by
:func:`linalg.pivoted` and replaces every other row R with a nonzero entry
f by (R D_p - f P) / (D_R D_p) (:func:`linalg.eliminate`), over the gcd of
the result and its denominator; a pivot on v_j does this on column j and
stores its row negated.  The reduced-cost row, priced once per phase, is
the last row and is updated the same way; its right-hand side is the
objective value.

Positive row scalings leave the true tableau B^-1 A unchanged, so every
sign Bland's rule reads is the sign of an integer, or of a + b sqrt(d)
with integer a, b.  The ratio test compares rhs_i / a_i with rhs_k / a_k by
the sign of the cross product rhs_i a_k - rhs_k a_i: in integers when it has
no log terms.  Otherwise the one :class:`loglin.LogBase` of the tableau,
which factors its log bases once over their coprime base and holds the
integer log bounds the ladder needs once per precision, decides the sign of
a positive rational multiple of the difference, as it decides every other
right-hand-side sign: the flips of phase I and the Farkas value.  The
tableau starts from the constraint rows, right-hand sides and objective
cleared once; ``Fraction``, ``QuadExt`` and ``LogLin`` values are built
only for the returned certificates (and to name a form the ladder cannot
resolve), which are checked in integers against the cleared rows, the
multipliers as the reduced costs of the slacks, before they are returned:

* ``optimal``    — primal point, objective value, dual multipliers with
                   lambda >= 0 and lambda @ A == c;
* ``unbounded``  — improving ray d with A d <= 0 and <c, d> > 0;
* ``infeasible`` — Farkas multipliers lambda >= 0 with lambda @ A == 0 and
                   lambda @ b < 0, signed like any right-hand side.

:func:`float_basis` runs Bland's rule on floats for the emptiness LP alone.
Its basis is a guess that :func:`reinhardt.cones.certify_emptiness` proves
or throws away; nothing it returns is an answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import linalg
from .errors import ReinhardtError
from .loglin import LogBase, LogLin, as_loglin
from .scalars import Scalar, sign_of

_MAX_PIVOTS = 50_000  # Bland's rule terminates; this guards against bugs only
_EPS = 1e-9  # float_basis: an entry, reduced cost or dual below this counts as zero

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LPCertificate:
    status: str
    primal_point: Optional[tuple[LogLin, ...]] = None
    objective: Optional[LogLin] = None
    dual: Optional[tuple[Scalar, ...]] = None
    ray: Optional[tuple[Scalar, ...]] = None
    farkas: Optional[tuple[Scalar, ...]] = None


class _Tableau:
    """The rows of the tableau, each an integer row of :mod:`reinhardt.linalg`
    over its own positive denominator ``den[i]``.

    A row holds the columns ``x, slacks, artificials`` followed by the
    right-hand side ``[const, coeff of log bases[0], ...]``, over the
    ``bases`` of ``logbase``, the :class:`LogBase` that decides every sign
    of a right-hand side.  ``basis`` holds Bland's indices into ``order``,
    the (stored column, sign) pairs of u_j, v_j, the slacks and the
    artificials.  The last row is the reduced-cost row of the current
    phase, whose right-hand side is the objective value.  A basic column's
    entry equals its row's denominator (true value 1), and minus it in
    column j for a basic v_j.  ``a_rows``, ``b_rows`` and ``logbase`` are
    those of the :class:`LPSystem` it starts from; ``arts`` are the
    artificial columns.
    """

    def __init__(self, system: LPSystem):
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
        """Integer row [x | u | rhs or 0], u zero but where ``units`` maps a column."""
        u = [0] * (self.ncols - self.n)
        for col, v in units.items():
            u[col - self.n] = v
        rhs = rhs or linalg.rational_row([0] * (1 + len(self.bases)), self.d)
        return linalg.joined([x, linalg.rational_row(u, self.d), rhs], self.d)

    # -- exact values, built only for the objective and the certificates ------

    def rhs(self, i: int) -> list[Scalar]:
        return linalg.vector(linalg.tail(self.rows[i], self.ncols, self.d), self.den[i], self.d)

    def loglin(self, vec: Sequence[Scalar]) -> LogLin:
        return LogLin(vec[0], tuple((b, c) for b, c in zip(self.bases, vec[1:]) if c))

    def objective_sign(self) -> int:
        """Sign of the objective value, on the reduced-cost row's integer
        right-hand side over its positive denominator."""
        return self.form_sign(linalg.tail(self.rows[self.m], self.ncols, self.d), self.den[self.m])

    def multipliers(self) -> tuple[list[int], int]:
        """Dual or Farkas multipliers, the reduced costs of the slacks, over den[m]."""
        row, d, m = self.rows[self.m], self.d, self.m
        return linalg.row_of([linalg.entry(row, self.n + i, d) for i in range(m)], d), self.den[m]

    # -- pivoting ---------------------------------------------------------------

    def price(self, cost: list[int], den: int) -> None:
        """Reduced-cost row c_B B^-1 A - c for the current basis: the integer
        row [-c | 0] over ``den`` (:meth:`row`) with each basic column
        eliminated, so that its right-hand side is c_B B^-1 b."""
        self.rows[self.m], self.den[self.m] = cost, den
        for i in range(self.m):
            col, s = self.order[self.basis[i]]
            if linalg.entry_sign(self.rows[self.m], col, self.d):
                self._eliminate(self.m, i, col, s)

    def pivot(self, row: int, col: int) -> None:
        """Divide ``row`` by its entry in Bland's column ``col`` and eliminate
        it from every other row, the reduced costs included; on v_j the row
        is pivoted on column j and stored negated after the eliminations."""
        c, s = self.order[col]
        self.rows[row] = linalg.pivoted(self.rows[row], c, self.d)
        self.den[row] = self.rows[row][c]
        for i in range(self.m + 1):
            if i != row and linalg.entry_sign(self.rows[i], c, self.d):
                self._eliminate(i, row, c, 1)
        if s < 0:
            self.rows[row] = [-x for x in self.rows[row]]
        self.basis[row] = col

    def _eliminate(self, i: int, row: int, col: int, s: int) -> None:
        """Row i minus f times ``row``, whose entry in ``col`` has true value
        s = 1 or -1, f s being row i's entry: s :func:`linalg.eliminate` over D_i D_p."""
        vec = linalg.eliminate(self.rows[i], self.rows[row], col, self.d)
        self.rows[i], self.den[i] = linalg.cancel(vec if s > 0 else [-x for x in vec],
                                                  self.den[i] * self.den[row])

    def _ratio_sign(self, i: int, k: int, col: int) -> int:
        """Sign of rhs_i / a_i - rhs_k / a_k for a_i, a_k the entries in
        ``col``, of one sign: the row denominators cancel, and the cross
        product rhs_i a_k - rhs_k a_i is a positive multiple of it."""
        d, ri, rk = self.d, self.rows[i], self.rows[k]
        vec = linalg.eliminate(ri, rk, col, d, self.ncols)
        if linalg.lead(vec, d, 1) is None:
            return linalg.entry_sign(vec, 0, d)
        # over a_i and a_k: a form with rational coefficients keeps them
        for a in (linalg.entry(ri, col, d), linalg.entry(rk, col, d)):
            vec = linalg.over(vec, a, d)
        return self.form_sign(vec)

    def form_sign(self, vec: list[int], den: int = 1) -> int:
        """Sign of the right-hand-side integer row ``vec`` over the positive ``den``."""
        return self.logbase.sign(vec, den,
                                 lambda: repr(self.loglin(linalg.vector(vec, den, self.d))))

    def run(self, cost: list[int], den: int, stop: int) -> Optional[int]:
        """Bland pivoting to optimality from the cost row ``cost`` over ``den``
        (:meth:`price`), entering below Bland's index ``stop``; returns the entering
        index on unboundedness.  Signs are read off rows over positive denominators."""
        self.price(cost, den)
        sign, d, order = linalg.entry_sign, self.d, self.order[:stop]
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


class LPSystem:
    """The rows A x <= b of an LP cleared once, for every objective over
    their field ``d``.  ``a_rows``, cleared before they are given, and
    ``b_rows`` are pairs (integer row, denominator) of
    :func:`linalg.over_denominator`, a right-hand side as ``[const, coeff of
    log bases[0], ...]`` over the bases of ``logbase``, the one
    :class:`LogBase` that decides its sign; ``flips`` marks the negative ones."""

    def __init__(self, a_rows: Sequence, b_vals: Sequence[LogLin], n: int, d: Optional[int]):
        self.n, self.d, self.a_rows, self.b_vals = n, d, tuple(a_rows), tuple(b_vals)
        self.logbase = LogBase(sorted({base for b in b_vals for base, _ in b.terms}), d)
        slot = {base: 1 + k for k, base in enumerate(self.logbase.bases)}
        b_rows = []
        for b in b_vals:
            rhs = [b.const] + [0] * len(slot)
            for base, coeff in b.terms:
                rhs[slot[base]] = coeff
            b_rows.append(linalg.over_denominator(rhs, d))
        self.b_rows = tuple(b_rows)
        self.flips = tuple(self.logbase.sign(*row, lambda b=b: repr(b)) < 0
                           for row, b in zip(b_rows, b_vals))

    def appended(self, a_row: tuple[list[int], int], b: Scalar) -> LPSystem:
        """These rows, sharing their :class:`LogBase`, and <a, x> <= b for the
        cleared ``a_row`` and a constant b: only that row is new."""
        out = object.__new__(LPSystem)
        out.__dict__.update(self.__dict__)
        rhs = linalg.over_denominator([b] + [0] * len(self.logbase.bases), self.d)
        out.a_rows, out.b_vals = (*self.a_rows, a_row), (*self.b_vals, LogLin.of(b))
        out.b_rows, out.flips = (*self.b_rows, rhs), (*self.flips, sign_of(b) < 0)
        return out

    @staticmethod
    def of(a_rows: Sequence[Sequence[Scalar]], b_vals: Sequence, objective: Sequence[Scalar]
           ) -> LPSystem:
        """``a_rows`` and ``b_vals`` cleared over the field of every entry,
        ``objective``'s included."""
        b_vals = [as_loglin(b) for b in b_vals]
        n = len(objective)
        if any(len(r) != n for r in a_rows):
            raise ValueError("constraint rows and objective have mismatched lengths")
        d = linalg.field_of([*a_rows, objective,
                             *((b.const, *(c for _, c in b.terms)) for b in b_vals)])
        return LPSystem([linalg.over_denominator(r, d) for r in a_rows], b_vals, n, d)


def solve_lp(a_rows: Sequence[Sequence[Scalar]], b_vals: Sequence, objective: Sequence[Scalar],
             system: Optional[LPSystem] = None) -> LPCertificate:
    """Maximize <objective, x> over {x : a_rows @ x <= b_vals}, exactly, on
    ``system`` when given: the two cleared over a field that holds
    ``objective`` (:meth:`LPSystem.of`)."""
    if system is None:
        system = LPSystem.of(a_rows, b_vals, objective)
    elif len(objective) != system.n:
        raise ValueError("constraint rows and objective have mismatched lengths")
    n, d, rows = system.n, system.d, system.a_rows
    cost = linalg.over_denominator(objective, d)

    t = _Tableau(system)

    if t.arts:
        phase1 = t.row(linalg.rational_row([0] * n, d), dict.fromkeys(t.arts, 1))
        if t.run(phase1, 1, n + t.ncols) is not None:
            raise ReinhardtError("phase I unbounded (internal error)")
        if t.objective_sign() < 0:
            lam, den = t.multipliers()
            _check_farkas(t, lam)
            return LPCertificate(status=INFEASIBLE, farkas=tuple(linalg.vector(lam, den, d)))
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
                         dual=tuple(linalg.vector(lam, den, d)))


def _drive_out_artificials(t: _Tableau) -> None:
    """Pivot the artificials still basic, all at level zero, out of the basis.
    The columns [A, I] of x and the slacks have full row rank, so every row
    has a nonzero entry among them; the first is u_j or a slack."""
    for i in range(t.m):
        if t.basis[i] >= t.n + t.arts.start:
            c = next(j for j in range(t.arts.start) if linalg.entry_sign(t.rows[i], j, t.d))
            t.pivot(i, c if c < t.n else t.n + c)


def _extract_point(t: _Tableau) -> tuple[LogLin, ...]:
    """x = u - v; at most one of u_j and v_j, read off column j, is basic."""
    point = [LogLin.zero()] * t.n
    for i, col in enumerate(t.basis):
        if col < 2 * t.n:
            point[col % t.n] = t.loglin([x if col < t.n else -x for x in t.rhs(i)])
    return tuple(point)


def _extract_ray(t: _Tableau, enter: int) -> tuple[Scalar, ...]:
    c, s = t.order[enter]
    delta: dict[int, Scalar] = {enter: Fraction(1)}
    for i, col in enumerate(t.basis):
        delta[col] = -s * linalg.scalar(t.rows[i], c, t.den[i], t.d)
    return tuple(delta.get(j, Fraction(0)) - delta.get(t.n + j, Fraction(0))
                 for j in range(t.n))


def _check_ray(rows, cost, ray, d: Optional[int]) -> None:
    dot, sign, _ = linalg.ring(d)
    r = linalg.over_denominator(ray, d)[0]
    if any(sign(dot(row, r)) > 0 for row, _ in rows):
        raise ReinhardtError("unbounded-ray certificate failed verification")
    if sign(dot(cost[0], r)) <= 0:
        raise ReinhardtError("unbounded ray does not improve the objective")


def _check_farkas(t: _Tableau, lam: list[int]) -> None:
    """``lam`` is an integer row over any positive denominator."""
    if any(linalg.entry_sign(lam, i, t.d) < 0 for i in range(t.m)):
        raise ReinhardtError("Farkas multipliers must be non-negative")
    if any(linalg.combination(t.a_rows, lam, len(t.a_rows[0][0]), t.d)[0]):
        raise ReinhardtError("Farkas combination does not annihilate the rows")
    if t.form_sign(linalg.combination(t.b_rows, lam, len(t.b_rows[0][0]), t.d)[0]) >= 0:
        raise ReinhardtError("Farkas combination is not negative")


def _check_dual(t: _Tableau, cost, lam: list[int], den: int) -> None:
    """``lam`` is an integer row over ``den``, ``cost`` the cleared objective."""
    if any(linalg.entry_sign(lam, i, t.d) < 0 for i in range(t.m)):
        raise ReinhardtError("dual multipliers must be non-negative")
    (c, c_den), (total, scale) = cost, linalg.combination(t.a_rows, lam, len(cost[0]), t.d)
    if any(x * c_den != y * den * scale for x, y in zip(total, c)):
        raise ReinhardtError("dual multipliers do not reproduce the objective")


def float_basis(rows: Sequence[Sequence[float]], rhs: Sequence[float], cap: float
                ) -> Optional[tuple[float, list[int], list[int], list[int]]]:
    """A float guess at an optimal basis of max t s.t. <rows[i], x> + t <= rhs[i]
    and t <= cap, with x and t free; never trusted, since rounding can pick
    a wrong basis: callers prove what it claims exactly, or solve exactly.

    Bland's rule from x = 0 and t = min(rhs, cap), where the slacks are a
    feasible basis.  A free column enters in the direction that improves t
    and, once basic, never leaves.  Returns t, the basic columns among x
    and t (t is column n), the tight rows (no basic slack; the cap is row
    m) and the rows with a positive dual, or None if it stops unbounded or
    after 16 (m + n + 2) pivots."""
    m, n = len(rows), len(rows[0])
    t0 = min([*rhs, cap])
    tab = [[*a, 1.0, *(float(k == i) for k in range(m + 1)), b - t0]
           for i, (a, b) in enumerate(zip([*rows, [0.0] * n], [*rhs, cap]))]
    tab.append([0.0] * n + [-1.0] + [0.0] * (m + 2))
    basis = list(range(n + 1, n + m + 2))
    for _ in range(16 * (m + n + 2)):
        z = tab[-1]
        enter = next((j for j, v in enumerate(z[:-1]) if v < -_EPS or (j <= n and v > _EPS)),
                     None)
        if enter is None:
            break
        s = -1.0 if z[enter] > 0 else 1.0
        ratios = [(tab[r][-1] / (s * tab[r][enter]), basis[r], r) for r in range(m + 1)
                  if basis[r] > n and s * tab[r][enter] > _EPS]
        if not ratios:
            return None
        r = min(ratios)[2]
        row = [v / tab[r][enter] for v in tab[r]]
        tab = [row if i == r else [a - other[enter] * b for a, b in zip(other, row)]
               if other[enter] else other for i, other in enumerate(tab)]
        basis[r] = enter
    else:
        return None
    z, slacks = tab[-1], set(basis)
    t = t0 + next((tab[r][-1] for r, c in enumerate(basis) if c == n), 0.0)
    return (t, [c for c in basis if c <= n], [i for i in range(m + 1) if n + 1 + i not in slacks],
            [i for i in range(m) if z[n + 1 + i] > _EPS])
