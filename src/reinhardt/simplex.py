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
bases, sorted as in :class:`LogLin`.  A pivot is one :func:`linalg.pivot`:
it makes its row primitive over its pivot entry and replaces every other
row R with a nonzero entry f by (R D_p - f P) / (D_R D_p), over the gcd of
the result and its denominator; a pivot on v_j does this on column j and
stores its row negated.  The reduced-cost row, priced once per phase, is
the last row and is updated the same way; its right-hand side is the
objective value.

An :class:`LPSystem` holds the rows A x <= b cleared once, and from its
first solve on the tableaux every objective starts from: the signed start
tableau, whose basis is the slacks and, on a row whose right-hand side is
negative, an artificial; and for such a system phase I's end, run once,
with the artificials driven out of the basis and their columns dropped, or
its Farkas certificate.  A solve clears its objective, copies the held
lists and runs phase II alone.  :meth:`LPSystem.appended` adds the cap row
<w, x> <= 1 of a sup ray LP to a held system: its start is the held one
with one slack column and one row more.

Positive row scalings leave the true tableau B^-1 A unchanged, so every
sign Bland's rule reads is the sign of an integer, or of a + b sqrt(d)
with integer a, b; each step reads the signs of the reduced costs, then
those of the entering column, in one pass each.  The ratio test compares
rhs_i / a_i with rhs_k / a_k by the sign of the cross product
rhs_i a_k - rhs_k a_i: in integers when it has no log terms.  Otherwise
the one :class:`loglin.LogBase` of the system, which factors its log bases
once over their coprime base and holds the integer log bounds the ladder
needs once per precision, decides the sign of a positive rational multiple
of the difference, as it decides every other right-hand-side sign: the
flips of phase I and the Farkas value.
``Fraction``, ``QuadExt`` and ``LogLin`` values are built once, from the
final tableau, only for the returned certificates (and to name a form the
ladder cannot resolve), which are checked in integers against the cleared
rows, the multipliers as the reduced costs of the slacks, before they are
returned:

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
from functools import cached_property, lru_cache
from fractions import Fraction
from typing import Optional, Sequence

from . import linalg
from .errors import ReinhardtError
from .loglin import LogBase, LogLin, as_loglin
from .scalars import Scalar

_MAX_PIVOTS = 50_000  # Bland's rule terminates; this guards against bugs only
_EPS = 1e-9  # float_basis: an entry, reduced cost or dual below this counts as zero

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"

_ZERO, _ONE = LogLin.zero(), LogLin.of(1)  # a nonbasic coordinate; the right-hand side of a cap


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

    A row holds the ``ncols`` columns ``x, slacks, artificials`` followed by
    the right-hand side ``[const, coeff of log bases[0], ...]``, over the
    ``bases`` of ``logbase``, the :class:`LogBase` that decides every sign
    of a right-hand side.  ``basis`` holds Bland's indices into ``order``,
    the (stored column, sign) pairs of u_j, v_j, the slacks and the
    artificials.  The last row is the reduced-cost row of the current
    phase, whose right-hand side is the objective value.  A basic column's
    entry equals its row's denominator (true value 1), and minus it in
    column j for a basic v_j.  ``a_rows``, ``b_rows`` and ``logbase`` are
    those of the :class:`LPSystem` it starts from, at ``held`` (rows,
    denominators, basis, ncols) or else at its start tableau; ``arts`` are
    the artificial columns, none once phase I has dropped them.  The held
    lists are copied, and a row is only ever replaced, never changed in place.
    """

    def __init__(self, system: LPSystem, held: Optional[tuple] = None):
        rows, den, basis, self.ncols = system.start if held is None else held
        self.n, self.d, self.a_rows, self.b_rows = system.n, system.d, system.a_rows, system.b_rows
        n, self.m, self.logbase = self.n, len(self.a_rows), system.logbase
        self.bases, self.arts = self.logbase.bases, range(n + self.m, self.ncols)
        self.order = _bland_order(n, self.ncols)
        self.rows, self.den, self.basis = [*rows, []], [*den, 1], list(basis)

    def zero_row(self, head: list[int]) -> list[int]:
        """The integer row ``head`` on the n columns of x, zero on the others
        and on the right-hand side."""
        n = self.n
        return linalg.spliced(head, n, n, self.ncols - n + 1 + len(self.bases), self.d)

    # -- exact values, built only for the objective and the certificates ------

    def value(self, i: int, s: int = 1) -> LogLin:
        """s times the right-hand side of row i, over its denominator."""
        row, den, d = self.rows[i], self.den[i], self.d
        if not self.bases:
            x = linalg.scalar(row, self.ncols, den, d)
            return LogLin(x if s > 0 else -x, ())
        rhs = linalg.segment(row, self.ncols, None, d)
        return self.loglin(linalg.vector(rhs if s > 0 else [-x for x in rhs], den, d))

    def loglin(self, vec: Sequence[Scalar]) -> LogLin:
        return LogLin(vec[0], tuple((b, c) for b, c in zip(self.bases, vec[1:]) if c))

    def objective_sign(self) -> int:
        """Sign of the objective value, on the reduced-cost row's integer
        right-hand side over its positive denominator."""
        return self.form_sign(linalg.segment(self.rows[self.m], self.ncols, None, self.d),
                              self.den[self.m])

    def multipliers(self) -> tuple[list[int], int]:
        """Dual or Farkas multipliers, the reduced costs of the slacks, over den[m]."""
        n, m = self.n, self.m
        return linalg.segment(self.rows[m], n, n + m, self.d), self.den[m]

    # -- pivoting ---------------------------------------------------------------

    def price(self, cost: list[int], den: int) -> None:
        """Reduced-cost row c_B B^-1 A - c for the current basis: the integer
        row [-c | 0] over ``den`` (:meth:`zero_row`) with each basic column
        eliminated, so that its right-hand side is c_B B^-1 b."""
        rows, dens, m, d = self.rows, self.den, self.m, self.d
        signs, rows[m], dens[m] = linalg.signs(cost, self.ncols, d), cost, den
        for i, b in enumerate(self.basis):  # a basic row is zero in the other basic columns
            col = self.order[b][0]
            if signs[col]:
                linalg.reduce_row(rows, dens, m, rows[i], col, d)

    def pivot(self, row: int, col: int) -> None:
        """Divide ``row`` by its entry in Bland's column ``col`` and eliminate
        it from every other row, the reduced costs included, in one
        :func:`linalg.pivot`; on v_j the row is pivoted on column j and
        stored negated after the eliminations."""
        c, s = self.order[col]
        linalg.pivot(self.rows, self.den, row, c, self.d)
        if s < 0:
            self.rows[row] = [-x for x in self.rows[row]]
        self.basis[row] = col

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
        index on unboundedness.  Each step reads the signs of the reduced
        costs, then those of the entering column, in one pass each."""
        self.price(cost, den)
        n, m, d, rows, order, basis = self.n, self.m, self.d, self.rows, self.order, self.basis
        for _ in range(_MAX_PIVOTS):
            signs = linalg.signs(rows[m], stop - n, d)
            head = signs[:n]  # u_j enters on a negative cost, v_j on a positive one
            if -1 in head:
                enter = head.index(-1)
            elif 1 in head:
                enter = n + head.index(1)
            elif -1 in signs:
                enter = n + signs.index(-1)
            else:
                return None
            c, s = order[enter]
            rivals = [i for i, sign in enumerate(linalg.column_signs(rows[:m], c, d)) if sign == s]
            if not rivals:
                return enter
            leave = rivals[0]
            for i in rivals[1:]:
                r = s * self._ratio_sign(i, leave, c)
                if r < 0 or (r == 0 and basis[i] < basis[leave]):
                    leave = i
            self.pivot(leave, enter)
        raise ReinhardtError("simplex failed to terminate (internal error)")

    def held(self) -> tuple:
        """The constraint rows with the artificial columns dropped, their
        denominators and the basis: phase I's end, with no artificial basic."""
        n, m, d = self.n, self.m, self.d
        return ([linalg.spliced(r, n + m, self.ncols, 0, d) for r in self.rows[:m]],
                self.den[:m], tuple(self.basis), n + m)


@lru_cache(maxsize=256)
def _bland_order(n: int, ncols: int) -> tuple[tuple[int, int], ...]:
    """Bland's order of a tableau: the (stored column, sign) pairs of u_j, v_j,
    the slacks and the artificials."""
    return (*((j, 1) for j in range(n)), *((j, -1) for j in range(n)),
            *((k, 1) for k in range(n, ncols)))


def _start_row(a_row: tuple[list[int], int], b_row: tuple[list[int], int], slack: int,
               art: Optional[int], n: int, ncols: int, d: Optional[int]) -> tuple[list[int], int]:
    """s [a | e_slack | b] over the lcm den of the denominators of the cleared
    ``a_row`` and ``b_row``, as an integer row, and den; s = -1 on a row with
    an artificial column ``art`` at +1, whose slack sits at -1, unusable as basis."""
    (a, den_a), (rhs, den_b) = a_row, b_row
    den = math.lcm(den_a, den_b)
    s = 1 if art is None else -1
    units = [0] * (ncols - n)
    units[slack - n] = s * den
    if art is not None:
        units[art - n] = den
    return linalg.joined([[s * (den // den_a) * x for x in a], linalg.rational_row(units, d),
                          [s * (den // den_b) * x for x in rhs]], d), den


class LPSystem:
    """The rows A x <= b of an LP cleared once, for every objective over
    their field ``d``.  ``a_rows``, cleared before they are given, and
    ``b_rows`` are pairs (integer row, denominator) of
    :func:`linalg.over_denominator`, a right-hand side as ``[const, coeff of
    log bases[0], ...]`` over the bases of ``logbase``, the one
    :class:`LogBase` that decides its sign; ``flips`` marks the negative ones.

    The tableaux it starts from are built on the first solve and then held:
    the signed start tableau (``start``) and, when some right-hand side is
    negative, phase I's end (``feasible``), the objective-independent part
    of every solve."""

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

    @cached_property
    def start(self) -> tuple:
        """The signed start tableau (rows, denominators, basis, ncols): row i
        is s [a_i | e_i | b_i] (:func:`_start_row`), its slack basic, or an
        artificial on a row whose right-hand side is negative."""
        n, m, d = self.n, len(self.a_rows), self.d
        ncols = n + m + sum(self.flips)
        rows, den, basis, arts = [], [], [], iter(range(n + m, ncols))
        for i, (a_row, b_row, flip) in enumerate(zip(self.a_rows, self.b_rows, self.flips)):
            art = next(arts) if flip else None
            row, den_i = _start_row(a_row, b_row, n + i, art, n, ncols, d)
            rows.append(row), den.append(den_i), basis.append(n + (n + i if art is None else art))
        return rows, den, tuple(basis), ncols

    @cached_property
    def feasible(self):
        """Phase I's end, for a system with a negative right-hand side: the
        tableau with the artificials driven out of the basis and their
        columns dropped (:meth:`_Tableau.held`), or the checked Farkas
        certificate of an infeasible system."""
        t = _Tableau(self)
        width = t.ncols + 1 + len(t.bases)
        phase1 = linalg.rational_row([int(k in t.arts) for k in range(width)], self.d)
        if t.run(phase1, 1, t.n + t.ncols) is not None:
            raise ReinhardtError("phase I unbounded (internal error)")
        if t.objective_sign() < 0:
            lam, den = t.multipliers()
            _check_farkas(t, lam)
            return LPCertificate(status=INFEASIBLE, farkas=tuple(linalg.vector(lam, den, self.d)))
        _drive_out_artificials(t)
        return t.held()

    def appended(self, row: Sequence[Scalar]) -> Optional[LPSystem]:
        """These rows, sharing their :class:`LogBase`, and the cap
        <row, x> <= 1, or None when ``row`` lies outside their field: only
        ``row`` is cleared.  The start tableau is this one's with a new
        slack column before the artificials (``widened``) and a new row,
        whose slack is basic."""
        if linalg.field_of([row]) not in (None, self.d):
            return None
        n, m, d = self.n, len(self.a_rows), self.d
        a_row = linalg.over_denominator(row, d)
        cap = linalg.rational_row([1] + [0] * len(self.logbase.bases), d), 1
        rows, den, basis, ncols = self.widened
        new, new_den = _start_row(a_row, cap, n + m, None, n, ncols, d)
        out = object.__new__(LPSystem)
        out.n, out.d, out.logbase = n, d, self.logbase
        out.a_rows, out.b_vals = (*self.a_rows, a_row), (*self.b_vals, _ONE)
        out.b_rows, out.flips = (*self.b_rows, cap), (*self.flips, False)
        out.start = [*rows, new], [*den, new_den], (*basis, 2 * n + m), ncols
        return out

    @cached_property
    def widened(self) -> tuple:
        """``start`` with a zero column before the artificials for the slack
        of one more row: the start of every system :meth:`appended` makes,
        but for its new row."""
        rows, den, basis, ncols = self.start
        n, m, d = self.n, len(self.a_rows), self.d
        return ([linalg.spliced(r, n + m, n + m, 1, d) for r in rows], den,
                tuple(k + (k >= 2 * n + m) for k in basis), ncols + 1)

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
    ``objective`` (:meth:`LPSystem.of`).  Phase II starts from the tableau
    the system holds: its start, or phase I's end (:attr:`LPSystem.feasible`)."""
    if system is None:
        system = LPSystem.of(a_rows, b_vals, objective)
    elif len(objective) != system.n:
        raise ValueError("constraint rows and objective have mismatched lengths")
    held = system.feasible if any(system.flips) else system.start
    if isinstance(held, LPCertificate):
        return held
    cost = linalg.over_denominator(objective, system.d)
    t = _Tableau(system, held)
    enter = t.run(t.zero_row([-x for x in cost[0]]), cost[1], 2 * t.n + t.m)
    if enter is not None:
        ray = _extract_ray(t, enter)
        _check_ray(system.a_rows, cost, ray, t.d)
        return LPCertificate(status=UNBOUNDED, ray=ray)
    lam, den = t.multipliers()
    _check_dual(t, cost, lam, den)
    return LPCertificate(status=OPTIMAL, primal_point=_extract_point(t),
                         objective=t.value(t.m), dual=tuple(linalg.vector(lam, den, t.d)))


def _drive_out_artificials(t: _Tableau) -> None:
    """Pivot the artificials still basic, all at level zero, out of the basis.
    The columns [A, I] of x and the slacks have full row rank, so every row
    has a nonzero entry among them; the first is u_j or a slack."""
    for i in range(t.m):
        if t.basis[i] >= t.n + t.arts.start:
            c = linalg.lead(t.rows[i], t.d)
            t.pivot(i, c if c < t.n else t.n + c)


def _extract_point(t: _Tableau) -> tuple[LogLin, ...]:
    """x = u - v; at most one of u_j and v_j, read off column j, is basic."""
    n, point = t.n, [_ZERO] * t.n
    for i, col in enumerate(t.basis):
        if col < 2 * n:
            point[col % n] = t.value(i, 1 if col < n else -1)
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
    if -1 in linalg.signs(lam, t.m, t.d):
        raise ReinhardtError("Farkas multipliers must be non-negative")
    if any(linalg.combination(t.a_rows, lam, len(t.a_rows[0][0]), t.d)[0]):
        raise ReinhardtError("Farkas combination does not annihilate the rows")
    if t.form_sign(linalg.combination(t.b_rows, lam, len(t.b_rows[0][0]), t.d)[0]) >= 0:
        raise ReinhardtError("Farkas combination is not negative")


def _check_dual(t: _Tableau, cost, lam: list[int], den: int) -> None:
    """``lam`` is an integer row over ``den``, ``cost`` the cleared objective."""
    if -1 in linalg.signs(lam, t.m, t.d):
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
