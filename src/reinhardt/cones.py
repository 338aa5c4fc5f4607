"""Exact geometry of the log-polyhedron: lineality, recession, axis approach.

Everything in this module decides questions about the normal cone structure
of a half-space system ``<alpha_i, x> < log(c_i)``.  With the single
exception of :func:`interior_point` and :func:`lp_optimize` (which involve
the offsets), the decisions depend on the normals only and are therefore
fully exact field computations.

The recession cone C = {d : <alpha_i, d> <= 0} is computed by double
description over the scalar field (:func:`recession_cone`), as a lineality
basis plus the extreme rays of its pointed part.  The recession queries
(:func:`recession_meets_halfspace`, :func:`unbounded_direction`,
:func:`face_meets_halfspace`, :func:`is_bounded`, :func:`has_finite_volume`)
are then sign tests of dot products against those generators, and every
direction they return is re-checked exactly before it is returned.  Axis
approach is read off the ray supports of C ∩ {d <= 0} (:func:`approach`).
The functions here keep no memo: ``LogPolyhedron`` computes each derived
object on first use and holds it for its own lifetime.  Interior points, the
approach and sup-norm rays, the Monte-Carlo bounding box
(:func:`radius_box`) and offset-dependent optima are LPs solved by
:mod:`reinhardt.simplex`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from . import linalg
from .errors import ReinhardtError
from .hnf import cleared_integer_rows, integer_kernel_basis
from .loglin import LogLin
from .precision import working_precision
from .scalars import QuadExt, Scalar, is_rational, sign_of
from .simplex import INFEASIBLE, OPTIMAL, LPCertificate, solve_lp

if TYPE_CHECKING:
    from .domain import DomainSpec, LogPolyhedron


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


def recession_improving_direction(poly: LogPolyhedron, w: Sequence[Scalar]
                                  ) -> Optional[list[Scalar]]:
    """Recession direction with <w, d> > 0 found by an LP; ``sup_norm_monomial``
    reports this LP vertex as its ray."""
    rows = [list(a.components) for a in poly.normals]
    cert = solve_lp(rows + [list(w)], [LogLin.zero()] * len(rows) + [LogLin.of(1)], list(w))
    require_optimal(cert, "recession_improving_direction")
    if cert.objective.sign() > 0:
        return _const_point(cert)
    return None


# -- exact generators of the recession cone -------------------------------------

@dataclass(frozen=True)
class RecessionCone:
    """C = {d : <alpha_i, d> <= 0} as span(lineality) + cone(rays).

    ``lineality`` is a basis of L = ker A; ``rays`` are the extreme rays of
    the pointed part C ∩ L^perp.  Both are scaled by ``_scaled``.
    """

    lineality: tuple[tuple[Scalar, ...], ...]
    rays: tuple[tuple[Scalar, ...], ...]


def _scaled(v: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """A positive multiple of v: primitive integers when v is rational, else
    first nonzero entry +-1.  Signs of dot products with v are unchanged,
    and int dot products are an order of magnitude cheaper than Fraction ones."""
    if all(is_rational(x) for x in v):
        lcm = math.lcm(*(x.denominator for x in v))
        ints = [int(x * lcm) for x in v]
        g = math.gcd(*ints) or 1
        return tuple(x // g for x in ints)
    lead = next(x for x in v if sign_of(x) != 0)
    return tuple(x / lead for x in v) if sign_of(lead) > 0 else tuple(x / -lead for x in v)


def _dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    return sum(a * b for a, b in zip(u, v))


def recession_cone(rows: list[list[Scalar]], n: int) -> RecessionCone:
    """Exact generators of {d in R^n : rows @ d <= 0} by incremental double
    description (Motzkin et al. 1953; Fukuda & Prodon 1996).

    The rows (all nonzero) are first scaled by ``_scaled``, which leaves the
    cone as it is.  A maximal independent set B of them spans L^perp, and the
    cone {d in L^perp : B d <= 0} is simplicial with the rays
    -B^T (B B^T)^-1 e_j.  The other rows are then added one at a time: each
    keeps the rays it does not cut off and joins every adjacent pair it
    separates.  Two rays are adjacent iff no third ray is tight on every
    constraint both are tight on.
    """
    rows = [_scaled(r) for r in rows]
    basis = linalg.independent_rows(rows)
    lineality = tuple(_scaled(v) for v in linalg.kernel_basis(rows, n)) if len(basis) < n else ()
    rays: list[tuple[Scalar, ...]] = []
    tight: list[int] = []  # bit i set iff the ray is tight on processed row i
    if basis:
        b_rows = [rows[i] for i in basis]
        gram_inv = linalg.invert([[_dot(u, v) for v in b_rows] for u in b_rows])
        every = sum(1 << i for i in basis)
        columns = list(zip(*b_rows))
        for j, g_row in enumerate(gram_inv):
            rays.append(_scaled([-_dot(g_row, col) for col in columns]))
            tight.append(every & ~(1 << basis[j]))
    dim = len(basis)
    for i, row in enumerate(rows):
        if i in basis or not rays:
            continue
        vals = [_dot(row, r) for r in rays]
        signs = [sign_of(v) for v in vals]
        bit = 1 << i
        kept = [(r, z | bit if s == 0 else z)
                for r, z, s in zip(rays, tight, signs) if s <= 0]
        for p, sp in enumerate(signs):
            if sp <= 0:
                continue
            for q, sq in enumerate(signs):
                if sq >= 0:
                    continue
                common = tight[p] & tight[q]
                if common.bit_count() < dim - 2 or any(
                        k != p and k != q and common & z == common for k, z in enumerate(tight)):
                    continue
                joined = [vals[p] * x - vals[q] * y for x, y in zip(rays[q], rays[p])]
                kept.append((_scaled(joined), common | bit))
        rays = [r for r, _ in kept]
        tight = [z for _, z in kept]
    return RecessionCone(lineality=lineality, rays=tuple(rays))


def _certified(poly: LogPolyhedron, d: Sequence[Scalar], w: Sequence[Scalar], strict: bool,
               face: Optional[Sequence[Scalar]], what: str) -> list[Scalar]:
    """``d`` after an exact check that it answers the query, else a typed error."""
    s = sign_of(linalg.dot(w, d))
    if (all(sign_of(x) == 0 for x in d) or not recession_contains(poly, d)
            or s < 0 or (strict and s == 0)
            or (face is not None and sign_of(linalg.dot(face, d)) != 0)):
        raise ReinhardtError(f"{what}: generator {[str(x) for x in d]} fails its "
                             "certificate (internal error)")
    return list(d)


def _generator_direction(poly: LogPolyhedron, w: Sequence[Scalar], strict: bool,
                         face: Optional[Sequence[Scalar]], what: str
                         ) -> Optional[list[Scalar]]:
    """First generator d (a signed lineality vector, else a ray on the face
    <face, d> = 0 when given) with <w, d> >= 0, or > 0 when ``strict``."""
    cone = poly.recession
    w_int = _scaled(w)
    for v in cone.lineality:
        s = sign_of(_dot(w_int, v))
        if s != 0 or not strict:
            return _certified(poly, v if s >= 0 else [-x for x in v], w, strict, face, what)
    face_int = None if face is None else _scaled(face)
    for r in cone.rays:
        if face_int is not None and sign_of(_dot(face_int, r)) != 0:
            continue
        s = sign_of(_dot(w_int, r))
        if s > 0 or (s == 0 and not strict):
            return _certified(poly, r, w, strict, face, what)
    return None


def recession_meets_halfspace(poly: LogPolyhedron, w: Sequence[Scalar]
                              ) -> Optional[list[Scalar]]:
    """Nonzero recession direction d with <w, d> >= 0, or None.

    None iff the integral of exp(<w, x>) over log G is finite, for a nonempty G.
    """
    return _generator_direction(poly, w, False, None, "recession_meets_halfspace")


def unbounded_direction(poly: LogPolyhedron, w: Sequence[Scalar]) -> Optional[list[Scalar]]:
    """Recession direction d with <w, d> > 0, or None iff sup <w, x> over log G
    is finite: w is orthogonal to the lineality and <w, r> <= 0 on every ray."""
    return _generator_direction(poly, w, True, None, "unbounded_direction")


def face_meets_halfspace(poly: LogPolyhedron, m: Sequence[Scalar], w: Sequence[Scalar]
                         ) -> Optional[list[Scalar]]:
    """Nonzero recession direction d with <m, d> = 0 and <w, d> >= 0, or None.

    Needs sup <m, x> finite, so that {d in C : <m, d> = 0} is the face
    L + cone{r : <m, r> = 0} of the recession cone C.
    """
    if unbounded_direction(poly, m) is not None:
        raise ValueError("face_meets_halfspace needs <m, d> <= 0 on the recession cone")
    return _generator_direction(poly, w, False, m, "face_meets_halfspace")


def is_bounded(spec: DomainSpec) -> bool:
    """True iff every coordinate modulus is bounded above on the domain: the
    recession cone lies in the closed negative orthant."""
    cone = spec.log_polyhedron.recession
    return not cone.lineality and all(sign_of(x) <= 0 for r in cone.rays for x in r)


def has_finite_volume(spec: DomainSpec) -> bool:
    """True iff <2*1, d> < 0 on every nonzero recession direction of log G:
    no lineality and a negative coordinate sum on every ray."""
    cone = spec.log_polyhedron.recession
    return not cone.lineality and all(sign_of(sum(r)) < 0 for r in cone.rays)


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


def approach_supports(poly: LogPolyhedron) -> tuple[frozenset[int], ...]:
    """Distinct supports of the extreme rays of K = C ∩ {d <= 0}.

    K is pointed and no ray has a positive entry, so no entries cancel in a
    nonnegative combination of rays: its support is the union of theirs.
    """
    n = poly.n
    units = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    # unit rows first: the double description then starts from the negative orthant
    cone = recession_cone(units + [list(a.components) for a in poly.normals], n)
    return tuple(dict.fromkeys(frozenset(j for j, x in enumerate(r) if sign_of(x) != 0)
                               for r in cone.rays))


def approach(poly: LogPolyhedron, coords: Iterable[int]) -> bool:
    """Can the axis stratum with zeros exactly on ``coords`` be reached from G?

    Yes iff some recession direction d <= 0 has support exactly S = coords,
    that is iff S is the union of the approach supports contained in S.
    """
    target = frozenset(coords)
    if not target:
        raise ValueError("approach needs a non-empty coordinate set")
    return frozenset().union(*(s for s in poly.approach_supports if s <= target)) == target


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


def radius_box(poly: LogPolyhedron) -> Optional[tuple[float, ...]]:
    """Per-coordinate sup of |z_j| as floats rounded up, or None when some
    |z_j| is unbounded: one LP per coordinate, in coordinate order."""
    logs = []
    for j in range(poly.n):
        obj = [Fraction(0)] * poly.n
        obj[j] = Fraction(1)
        cert = lp_optimize(obj, poly)
        if cert.status != OPTIMAL:
            return None
        with working_precision(64):
            logs.append(float(cert.objective.interval().b))
    # tiny outward inflation keeps the box a true superset after float rounding
    return tuple((np.exp(np.array(logs)) * (1.0 + 1e-9)).tolist())


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
