"""Exact two-phase simplex with Bland's rule and checked certificates.

Solves  max <c, x>  s.t.  A x <= b  with x free, A and c over the scalar
field and b symbolic (:class:`LogLin`), so log-thresholds never get rounded.
Free variables are split x = u - v; slacks close the rows; artificials only
appear in phase I on rows whose right-hand side starts negative.

Certificates are extracted from the final tableau and re-verified with exact
arithmetic before they are returned:

* ``optimal``    — primal point, objective value, dual multipliers with
                   lambda >= 0 and lambda @ A == c;
* ``unbounded``  — improving ray d with A d <= 0 and <c, d> > 0;
* ``infeasible`` — Farkas multipliers lambda >= 0 with lambda @ A == 0 and
                   lambda @ b < 0.

The tableau carries its reduced-cost row: priced once per phase, then
eliminated in every pivot like any other row, and read for the dual and
Farkas multipliers.  A pivot touches only the nonzero columns of the pivot
row, in the rows with a nonzero entry in the pivot column.  Each right-hand
side is a coefficient vector ``[const, coeff of log b_1, ..., log b_k]`` over
the LP's distinct log bases, sorted as in :class:`LogLin`, so pivots update
it in field arithmetic; ``LogLin`` values are built only for ratio-test
signs, the objective value and the primal point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Optional, Sequence

from .errors import ReinhardtError
from .linalg import dot
from .loglin import LogLin, as_loglin
from .scalars import Scalar, scalar_cmp, sign_of

_MAX_PIVOTS = 50_000  # Bland's rule terminates; this guards against bugs only

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


# Zero tests below use truthiness: a QuadExt is never zero (b != 0), so
# ``bool(x)`` is an exact nonzero test on every scalar.

class _Tableau:
    def __init__(self, a_rows, b_vals, n: int):
        self.n = n
        self.m = len(a_rows)
        self.slack0 = 2 * self.n
        self.ncols = 2 * self.n + self.m
        self.bases = sorted({base for b in b_vals for base, _ in b.terms},
                            key=cmp_to_key(scalar_cmp))
        slot = {base: 1 + k for k, base in enumerate(self.bases)}
        self.mat: list[list[Scalar]] = []
        self.rhs: list[list[Scalar]] = []  # [const, coeff of log bases[0], ...]
        self.red: list[Scalar] = []  # reduced costs of the current phase
        self.basis: list[int] = []
        self.art_cols: list[int] = []
        for i, (row, b) in enumerate(zip(a_rows, b_vals)):
            flip = b.sign() < 0
            neg = [-x for x in row]
            full = (neg + row if flip else row + neg) + [Fraction(0)] * self.m
            full[self.slack0 + i] = Fraction(-1 if flip else 1)
            self.mat.append(full)
            vec = [b.const] + [Fraction(0)] * len(self.bases)
            for base, coeff in b.terms:
                vec[slot[base]] = coeff
            self.rhs.append([-v for v in vec] if flip else vec)
            self.basis.append(self.slack0 + i)
        # artificials for flipped rows (their slack sits at -1, unusable as basis)
        for i in range(self.m):
            if self.mat[i][self.slack0 + i] < 0:
                col = self.ncols
                for k in range(self.m):
                    self.mat[k].append(Fraction(1 if k == i else 0))
                self.ncols += 1
                self.art_cols.append(col)
                self.basis[i] = col

    def loglin(self, vec: Sequence[Scalar]) -> LogLin:
        return LogLin(vec[0], tuple((b, c) for b, c in zip(self.bases, vec[1:]) if c))

    def price(self, cost: list[Scalar]) -> None:
        """Reduced-cost row c_B B^-1 A - c for the current basis."""
        self.red = [-c for c in cost]
        for i in range(self.m):
            cb = cost[self.basis[i]]
            if cb:
                for j, x in enumerate(self.mat[i]):
                    if x:
                        self.red[j] = self.red[j] + cb * x

    def objective_value(self, cost: list[Scalar]) -> LogLin:
        val: list[Scalar] = [Fraction(0)] * (len(self.bases) + 1)
        for i in range(self.m):
            cb = cost[self.basis[i]]
            if cb:
                val = [v + cb * r for v, r in zip(val, self.rhs[i])]
        return self.loglin(val)

    def pivot(self, row: int, col: int) -> None:
        piv = self.mat[row][col]
        inv = 1 / piv
        prow, prhs = self.mat[row], self.rhs[row]
        nz = [j for j, x in enumerate(prow) if x]
        rnz = [k for k, v in enumerate(prhs) if v]
        for j in nz:
            prow[j] = prow[j] * inv
        for k in rnz:
            prhs[k] = prhs[k] * inv
        for i in range(self.m):
            f = self.mat[i][col]
            if i != row and f:
                cur, crhs = self.mat[i], self.rhs[i]
                for j in nz:
                    cur[j] = cur[j] - f * prow[j]
                for k in rnz:
                    crhs[k] = crhs[k] - f * prhs[k]
        f = self.red[col]
        if f:
            for j in nz:
                self.red[j] = self.red[j] - f * prow[j]
        self.basis[row] = col

    def run(self, cost: list[Scalar], frozen_cols: set[int]) -> Optional[int]:
        """Bland pivoting to optimality; returns an entering column on unboundedness."""
        self.price(cost)
        for _ in range(_MAX_PIVOTS):
            enter = next((j for j in range(self.ncols)
                          if j not in frozen_cols and self.red[j] < 0), None)
            if enter is None:
                return None
            leave, best = None, None
            for i in range(self.m):
                a = self.mat[i][enter]
                if a > 0:
                    inv = 1 / a
                    ratio = [v * inv for v in self.rhs[i]]
                    if best is None:
                        leave, best = i, ratio
                    else:
                        s = self.loglin([x - y for x, y in zip(ratio, best)]).sign()
                        if s < 0 or (s == 0 and self.basis[i] < self.basis[leave]):
                            leave, best = i, ratio
            if leave is None:
                return enter
            self.pivot(leave, enter)
        raise ReinhardtError("simplex failed to terminate (internal error)")


def solve_lp(a_rows: Sequence[Sequence[Scalar]], b_vals: Sequence, objective: Sequence[Scalar],
             ) -> LPCertificate:
    """Maximize <objective, x> over {x : a_rows @ x <= b_vals}, exactly."""
    a_rows = [[Fraction(x) if isinstance(x, int) else x for x in r] for r in a_rows]
    b_vals = [as_loglin(b) for b in b_vals]
    n = len(objective)
    if any(len(r) != n for r in a_rows):
        raise ValueError("constraint rows and objective have mismatched lengths")
    objective = [Fraction(c) if isinstance(c, int) else c for c in objective]

    t = _Tableau(a_rows, b_vals, n)

    if t.art_cols:
        cost1 = [Fraction(0)] * t.ncols
        for col in t.art_cols:
            cost1[col] = Fraction(-1)
        if t.run(cost1, frozen_cols=set()) is not None:
            raise ReinhardtError("phase I unbounded (internal error)")
        value = t.objective_value(cost1)
        if value.sign() < 0:
            lam = tuple(t.red[t.slack0 + i] for i in range(t.m))
            _check_farkas(a_rows, b_vals, lam)
            return LPCertificate(status=INFEASIBLE, farkas=lam)
        _drive_out_artificials(t)

    cost2 = [Fraction(0)] * t.ncols
    for j in range(t.n):
        cost2[j] = objective[j]
        cost2[t.n + j] = -objective[j]
    frozen = set(t.art_cols)
    enter = t.run(cost2, frozen_cols=frozen)
    if enter is not None:
        ray = _extract_ray(t, enter)
        _check_ray(a_rows, objective, ray)
        return LPCertificate(status=UNBOUNDED, ray=ray)

    point = _extract_point(t)
    value = t.objective_value(cost2)
    lam = tuple(t.red[t.slack0 + i] for i in range(t.m))
    _check_dual(a_rows, objective, lam)
    return LPCertificate(status=OPTIMAL, primal_point=point, objective=value, dual=lam)


def _drive_out_artificials(t: _Tableau) -> None:
    art = set(t.art_cols)
    drop_rows = []
    for i in range(t.m):
        if t.basis[i] in art:
            col = next((j for j in range(t.slack0 + t.m)
                        if sign_of(t.mat[i][j]) != 0), None)
            if col is None:
                drop_rows.append(i)  # redundant zero row
            else:
                t.pivot(i, col)
    for i in reversed(drop_rows):
        del t.mat[i], t.rhs[i], t.basis[i]
        t.m -= 1


def _extract_point(t: _Tableau) -> tuple[LogLin, ...]:
    vals = {col: t.rhs[i] for i, col in enumerate(t.basis)}
    zero = [Fraction(0)] * (len(t.bases) + 1)
    return tuple(t.loglin([u - v for u, v in zip(vals.get(j, zero), vals.get(t.n + j, zero))])
                 for j in range(t.n))


def _extract_ray(t: _Tableau, enter: int) -> tuple[Scalar, ...]:
    delta: dict[int, Scalar] = {enter: Fraction(1)}
    for i, col in enumerate(t.basis):
        delta[col] = -t.mat[i][enter]
    return tuple(delta.get(j, Fraction(0)) - delta.get(t.n + j, Fraction(0))
                 for j in range(t.n))


def _check_ray(a_rows, objective, ray) -> None:
    if any(sign_of(dot(row, ray)) > 0 for row in a_rows):
        raise ReinhardtError("unbounded-ray certificate failed verification")
    if sign_of(dot(objective, ray)) <= 0:
        raise ReinhardtError("unbounded ray does not improve the objective")


def _check_farkas(a_rows, b_vals, lam) -> None:
    if any(sign_of(li) < 0 for li in lam):
        raise ReinhardtError("Farkas multipliers must be non-negative")
    n = len(a_rows[0]) if a_rows else 0
    for j in range(n):
        if sign_of(dot(lam, [row[j] for row in a_rows])) != 0:
            raise ReinhardtError("Farkas combination does not annihilate the rows")
    combo = LogLin.zero()
    for li, b in zip(lam, b_vals):
        combo = combo + b * li
    if combo.sign() >= 0:
        raise ReinhardtError("Farkas combination is not negative")


def _check_dual(a_rows, objective, lam) -> None:
    if any(sign_of(li) < 0 for li in lam):
        raise ReinhardtError("dual multipliers must be non-negative")
    for j, cj in enumerate(objective):
        if sign_of(dot(lam, [row[j] for row in a_rows]) - cj) != 0:
            raise ReinhardtError("dual multipliers do not reproduce the objective")
