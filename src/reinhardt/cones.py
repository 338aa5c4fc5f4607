"""Exact geometry of the log-polyhedron: lineality, recession, axis approach.

Everything in this module decides questions about the normal cone structure
of a half-space system ``<alpha_i, x> < log(c_i)``.  With the single
exception of :func:`interior_point` and :func:`lp_optimize` (which involve
the offsets), the decisions depend on the normals only and are therefore
fully exact field computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from . import linalg
from .domain import DomainSpec, LogPolyhedron
from .errors import ReinhardtError
from .hnf import cleared_integer_rows, integer_kernel_basis
from .loglin import LogLin
from .scalars import QuadExt, Scalar, sign_of
from .simplex import INFEASIBLE, OPTIMAL, LPCertificate, solve_lp


@dataclass(frozen=True)
class Subspace:
    """Exact basis of a linear subspace of R^n (entries in the scalar field)."""

    ambient_n: int
    basis: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        if self.basis and linalg.rank([list(v) for v in self.basis]) != len(self.basis):
            raise ValueError("subspace basis vectors must be linearly independent")

    @property
    def dim(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class ProductSplit:
    """Partition of coordinates into a constrained factor and a free factor."""

    bounded_coords: tuple[int, ...]
    free_coords: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.bounded_coords)


@lru_cache(maxsize=None)
def lineality_space(poly: LogPolyhedron) -> Subspace:
    """Common kernel of the constraint normals (= rec(P) lines, P nonempty)."""
    rows = [list(a.components) for a in poly.normals]
    basis = linalg.kernel_basis(rows, poly.n)
    return Subspace(ambient_n=poly.n, basis=tuple(tuple(v) for v in basis))


def _split_quadratic_rows(rows: list[list[Scalar]]) -> list[list[Fraction]]:
    """Rational + sqrt(d) parts as separate rows: same integer solution set."""
    out = []
    for row in rows:
        a_part, b_part = [], []
        has_b = False
        for x in row:
            if isinstance(x, QuadExt):
                a_part.append(x.a)
                b_part.append(x.b)
                has_b = True
            else:
                a_part.append(Fraction(x))
                b_part.append(Fraction(0))
        out.append(a_part)
        if has_b:
            out.append(b_part)
    return out


def integer_lattice_of(subspace: Subspace) -> list[list[int]]:
    """Lattice basis of subspace ∩ Z^n via Hermite normal form."""
    if subspace.dim == 0:
        return []
    n = subspace.ambient_n
    perp = linalg.kernel_basis([list(v) for v in subspace.basis], n)
    if not perp:
        return [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    rational_rows = _split_quadratic_rows(perp)
    return integer_kernel_basis(cleared_integer_rows(rational_rows))


def is_rational_type(subspace: Subspace) -> bool:
    """True iff the subspace is spanned by its integer points."""
    return len(integer_lattice_of(subspace)) == subspace.dim


def recession_contains(poly: LogPolyhedron, direction: Sequence[Scalar]) -> bool:
    return all(sign_of(linalg.dot(a.components, direction)) <= 0 for a in poly.normals)


def require_optimal(cert: LPCertificate, what: str) -> None:
    """Raise unless an LP that is bounded and feasible by construction says so."""
    if cert.status != OPTIMAL:
        raise ReinhardtError(f"{what}: LP returned {cert.status!r}, expected optimal "
                             "(internal error)")


def _const_point(cert: LPCertificate) -> list[Scalar]:
    out = []
    for v in cert.primal_point:
        if v.terms:
            raise ValueError("expected a purely scalar LP solution")
        out.append(v.const)
    return out


def cone_nonzero_direction(rows: list[list[Scalar]], n: int) -> Optional[list[Scalar]]:
    """A nonzero d with rows @ d <= 0, or None if the cone is {0}.

    Scans max |d_j| over the cone sliced at |d_j| <= 1 for each coordinate
    and sign; the cone is {0} iff all 2n slices are degenerate.
    """
    for j in range(n):
        for s in (1, -1):
            slice_row = [Fraction(0)] * n
            slice_row[j] = Fraction(s)
            obj = list(slice_row)
            cert = solve_lp(rows + [slice_row], [LogLin.zero()] * len(rows) + [LogLin.of(1)], obj)
            require_optimal(cert, "cone_nonzero_direction")
            if cert.objective.sign() > 0:
                return _const_point(cert)
    return None


def recession_meets_halfspace(poly: LogPolyhedron, w: Sequence[Scalar]
                              ) -> Optional[list[Scalar]]:
    """Nonzero recession direction d with <w, d> >= 0, or None."""
    rows = [list(a.components) for a in poly.normals]
    rows.append([-x for x in w])
    return cone_nonzero_direction(rows, poly.n)


def recession_improving_direction(poly: LogPolyhedron, w: Sequence[Scalar]
                                  ) -> Optional[list[Scalar]]:
    """Recession direction with <w, d> > 0 (witnesses sup <w, x> = +infinity)."""
    rows = [list(a.components) for a in poly.normals]
    cert = solve_lp(rows + [list(w)], [LogLin.zero()] * len(rows) + [LogLin.of(1)], list(w))
    require_optimal(cert, "recession_improving_direction")
    if cert.objective.sign() > 0:
        return _const_point(cert)
    return None


def sup_direction_bounded(poly: LogPolyhedron, w: Sequence[Scalar]) -> bool:
    return recession_improving_direction(poly, w) is None


@lru_cache(maxsize=None)
def approach_certificate(poly: LogPolyhedron, coords: frozenset[int]
                         ) -> Optional[tuple[Scalar, ...]]:
    """Recession ray along which all coords in S go to -infinity, rest fixed.

    Solves max t s.t. <alpha|_S, d_S> <= 0, d_j <= -t (j in S), 0 <= t <= 1.
    By homogeneity the optimum is 0 or 1; on success returns the full-length
    ray (zeros off S, components <= -1 on S).
    """
    if not coords:
        raise ValueError("approach needs a non-empty coordinate set")
    s_list = sorted(coords)
    k = len(s_list)
    rows, rhs = [], []
    for alpha in poly.normals:
        rows.append([alpha[j] for j in s_list] + [Fraction(0)])
        rhs.append(LogLin.zero())
    for i in range(k):
        row = [Fraction(0)] * (k + 1)
        row[i] = Fraction(1)
        row[k] = Fraction(1)
        rows.append(row)  # d_j + t <= 0
        rhs.append(LogLin.zero())
    bound = [Fraction(0)] * (k + 1)
    bound[k] = Fraction(1)
    rows.append(bound)  # t <= 1
    rhs.append(LogLin.of(1))
    rows.append([-x for x in bound])  # -t <= 0
    rhs.append(LogLin.zero())
    obj = [Fraction(0)] * k + [Fraction(1)]
    cert = solve_lp(rows, rhs, obj)
    require_optimal(cert, "approach_certificate")
    if cert.objective.sign() <= 0:
        return None
    point = _const_point(cert)
    ray = [Fraction(0)] * poly.n
    for i, j in enumerate(s_list):
        ray[j] = point[i]
    return tuple(ray)


def approach(poly: LogPolyhedron, coords: frozenset[int] | set[int]) -> bool:
    """Can the axis stratum with zeros exactly on ``coords`` be reached from G?"""
    return approach_certificate(poly, frozenset(coords)) is not None


def product_split(spec: DomainSpec, lineality: Subspace) -> Optional[ProductSplit]:
    """Split into constrained coords x free coords, when the lineality allows it."""
    untouched = [j for j in range(spec.n)
                 if all(sign_of(con.alpha[j]) == 0 for con in spec.constraints)]
    if len(untouched) != lineality.dim:
        return None
    free = set(untouched)
    return ProductSplit(
        bounded_coords=tuple(j for j in range(spec.n) if j not in free),
        free_coords=tuple(sorted(free)),
    )


def lp_optimize(objective: Sequence[Scalar], poly: LogPolyhedron,
                extra_rows: Sequence[Sequence[Scalar]] = (),
                extra_rhs: Sequence = ()) -> LPCertificate:
    """sup <objective, x> over the closed system, exact with symbolic offsets.

    The ``attained`` flag refers to the open system: a nonzero functional
    never attains its sup on a full-dimensional open set.
    """
    rows = [list(a.components) for a in poly.normals]
    rhs: list[LogLin] = [LogLin.log_of(c) for c in poly.offsets]
    for row, b in zip(extra_rows, extra_rhs):
        rows.append(list(row))
        rhs.append(b if isinstance(b, LogLin) else LogLin.of(b))
    cert = solve_lp(rows, rhs, list(objective))
    if cert.status == OPTIMAL:
        attained = all(sign_of(x) == 0 for x in objective)
        return LPCertificate(status=cert.status, primal_point=cert.primal_point,
                             objective=cert.objective, dual=cert.dual, attained=attained)
    return cert


@lru_cache(maxsize=None)
def interior_point(poly: LogPolyhedron) -> Optional[tuple[LogLin, ...]]:
    """A point of the open system, or None if the open system is empty.

    Decided as "the closed system is full-dimensional-feasible": the LP
    max t s.t. <alpha, x> + t <= log c, 0 <= t <= 1 must have optimum > 0.
    """
    n = poly.n
    rows, rhs = [], []
    for alpha, c in zip(poly.normals, poly.offsets):
        rows.append(list(alpha.components) + [Fraction(1)])
        rhs.append(LogLin.log_of(c))
    tail = [Fraction(0)] * n + [Fraction(1)]
    rows.append(list(tail))
    rhs.append(LogLin.of(1))
    rows.append([-x for x in tail])
    rhs.append(LogLin.zero())
    cert = solve_lp(rows, rhs, tail)
    if cert.status == INFEASIBLE:
        return None
    require_optimal(cert, "interior_point")
    if cert.objective.sign() <= 0:
        return None
    return cert.primal_point[:n]
