"""Exact geometry of the log-polyhedron: emptiness, recession, axis
approach and integer lattices.

Everything in this module decides questions about the normal cone structure
of a half-space system ``<alpha_i, x> < log(c_i)``.  With the exception of
:func:`interior_point`, :func:`lp_optimize` and the proofs of
:func:`is_empty` (which involve the offsets), the decisions depend on the
normals only and are therefore fully exact field computations.

The recession cone C = {d : <alpha_i, d> <= 0} is computed by double
description in integers (:func:`recession_cone`), as the lineality basis of
the polyhedron plus the extreme rays of its pointed part.  One loop,
:func:`_cut`, starts from the rows kept by the polyhedron's elimination of
the integer rows of its normals as lines, cuts by those rows first, which
turns every line into a ray, and then by the other rows.  Lines and rays
are integer rows, over Z[sqrt d] pairs of them, kept primitive, and
:class:`RecessionCone` holds them so.  They are the only owner of
finiteness: whether a sup is finite, whether the domain is bounded or has
finite volume, and whether an integral converges are ring signs of dot
products against them in a field that holds the query too
(:func:`recession_meets_halfspace`, :func:`unbounded_direction`,
:func:`is_bounded`, :func:`has_finite_volume`),
and a direction is read off a row only where a query returns it, once
:func:`_generator_direction` has checked that row.  Axis
approach is read off the ray supports of the approach cone
K = C ∩ {d <= 0} (:func:`approach`): K = C when C lies in {d <= 0}, else
K has its own run of the same loop, from the n unit vectors as lines, cut
by the n unit rows and then by the normals; every run starts from lines
only.  Past a cap of intermediate rays (``_MAX_RAYS`` unless the caller
gives one) either cone raises :class:`RayCapError`.  The functions here
keep no memo: ``LogPolyhedron`` computes each derived object on first use
and holds it for its own lifetime, its LP rows cleared once among them, and
the cone holds its scan order and each generator it has checked.

Emptiness (:func:`is_empty`) is decided first by Gordan's alternative on
the recession cone: if d, the sum of the rays of C, has <alpha_i, d> < 0 on
every row, then lambda d lies in the domain for lambda large enough.  When
some row is an implicit equality of C, or C is not found within a budget
of 4 m intermediate rays, a float simplex guesses an optimal basis of the
LP of :func:`interior_point` and exact arithmetic proves its answer
(:func:`certify_emptiness`, a certifying algorithm in the sense of
McConnell, Mehlhorn, Naeher and Schweitzer 2011): a point of the open
system solved from the tight rows, or Farkas multipliers of Motzkin's
alternative.  Only when the proof fails does the exact simplex
(:mod:`reinhardt.simplex`) decide it.  Otherwise the simplex computes what
gets printed or pinned once finiteness is known: the value of a finite sup
(:func:`lp_optimize`, also the upper bounds on log|z_j| that the Monte-Carlo
bounding box is made of, :func:`radius_box`) and the reported approach and
sup-norm rays.  Nothing here needs numpy: only :mod:`reinhardt.montecarlo`
loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from . import linalg
from .errors import BoundaryIndeterminate, RayCapError, ReinhardtError
from .hnf import integer_kernel_basis
from .loglin import LogBase, LogLin
from .scalars import Scalar, is_rational, sign_of
from .simplex import INFEASIBLE, OPTIMAL, LPCertificate, LPSystem, float_basis, solve_lp

if TYPE_CHECKING:
    from .domain import DomainSpec, LogPolyhedron


def integer_lattice_of(basis: Sequence[Sequence[Scalar]], n: int) -> list[list[int]]:
    """Lattice basis of span(basis) ∩ Z^n via Hermite normal form, for a
    linearly independent ``basis`` of vectors in R^n."""
    if not basis:
        return []
    perp = linalg.kernel_basis([list(v) for v in basis], n)
    if not perp:
        return [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    rows = []  # rational and sqrt(d) halves as separate rows: same integer solutions
    for v in perp:
        halves = linalg.halves(v)
        rows += [halves[:n], halves[n:]] if any(halves[n:]) else [halves[:n]]
    return integer_kernel_basis([linalg.cleared(row, None) for row in rows])


def _common_field(poly: LogPolyhedron, vector: Sequence[Scalar]):
    """The field d of the normals of ``poly`` and ``vector`` (None over Q), a
    map that lifts integer rows over the normals' field into it, and the
    integer row of ``vector`` in it; mixed quadratic fields, or a length
    other than n, raise ValueError.  Only ``vector`` is scanned, and ints
    over Q not even that."""
    if len(vector) != poly.n:
        raise ValueError(f"exponent vector has length {len(vector)}, expected {poly.n}")
    own = poly.integer_normals[0]
    if own is None and all(type(c) is int for c in vector):
        return None, (lambda a: a), list(vector)
    d = linalg.field_of([vector])
    if own is not None and d is not None and own != d:
        raise ValueError(f"mixed quadratic fields: sqrt d for d in {sorted((own, d))}")
    d = own if d is None else d
    lift = (lambda a: a) if d == own else (lambda a: linalg.rational_row(list(a), d))
    return d, lift, linalg.cleared(vector, d)


def recession_contains(poly: LogPolyhedron, direction: Sequence[Scalar]) -> bool:
    """True iff <alpha_i, direction> <= 0 for every normal: ring signs on the
    integer rows of the normals, over Z[sqrt d] when the normals or the
    direction are irrational."""
    d, lift, v = _common_field(poly, direction)
    dot, sign, _ = linalg.ring(d)
    return all(sign(dot(lift(a), v)) <= 0 for a in poly.integer_normals[1])


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
    held, b = poly.lp_system, [LogLin.zero()] * len(poly.normals) + [LogLin.of(1)]
    system = None  # w outside the normals' field: solve_lp clears every row anew
    if linalg.field_of([w]) in (None, held.d):
        system = LPSystem((*held.a_rows, linalg.over_denominator(w, held.d)), b, poly.n, held.d)
    cert = solve_lp([*poly.normals, w], b, list(w), system)
    require_optimal(cert, "recession_improving_direction")
    if cert.objective.sign() > 0:
        return _const_point(cert)
    return None


# -- exact generators of the recession cone -------------------------------------

# Intermediate rays of one double description.  The classify-stream inputs of
# the benchmark peak at 27, random bounded specs with n = 12 and m = 24 or 36
# at about 2100 (1.4 s); past the cap a typed error names the row reached.
_MAX_RAYS = 5_000
# The parse-time budget of :func:`is_empty`, in intermediate rays per row.  On
# 10 seeded random specs with n = 12 and m = 24 or 36 (seven of them empty,
# which never need C), the LP alone parses each in 32-123 ms and the whole
# cone first in 123-5488 ms; within 4 m rays each cone stops by row 15 after
# 4-8 ms.  All 810 classify-stream inputs fit within 3 m.
_PARSE_RAYS_PER_ROW = 4
# certify_emptiness tries the nonemptiness proof when the float optimum t
# exceeds this, and the Farkas proof otherwise (an exact zero lands there).
_FLOAT_MARGIN = 1e-9


@dataclass(frozen=True)
class RecessionCone:
    """C = {d : <alpha_i, d> <= 0} as span(lineality) + cone(rays).

    ``lineality`` is a basis of L = ker A; ``rays`` are the extreme rays of
    the pointed part C ∩ L^perp.  Each is held once, as an integer row over
    ``d``, the field of the normals (None over Q), in the form of
    ``_lead_normal``; :meth:`vector` reads a direction off a row.  Queries
    scan ``scan`` in order; ``checked`` holds the direction of each row found
    nonzero and in C (:func:`_generator_direction`).
    """

    d: Optional[int]
    lineality: tuple[tuple[int, ...], ...]
    rays: tuple[tuple[int, ...], ...]

    @cached_property
    def scan(self) -> tuple[tuple[int, ...], ...]:
        """v, then -v, for each lineality vector v, then the rays."""
        return (*(r for v in self.lineality for r in (v, tuple(-x for x in v))), *self.rays)

    @cached_property
    def checked(self) -> list[Optional[tuple[Scalar, ...]]]:
        return [None] * len(self.scan)

    def vector(self, row: Sequence[int]) -> list[Scalar]:
        """The direction of a generator row: its ints when it is rational, else
        the row over the absolute value of its first nonzero entry, which is rational."""
        ints = linalg.rational_entries(row, self.d)
        if ints is not None:
            return list(ints)
        return linalg.vector(row, abs(linalg.entry(row, linalg.lead(row, self.d), self.d)[0]),
                             self.d)

    def in_negative_orthant(self) -> bool:  # C ⊆ {d <= 0}: no lineality, no positive entry
        return not self.lineality and all(
            linalg.entry_sign(r, j, self.d) <= 0
            for r in self.rays for j in range(len(r) if self.d is None else len(r) // 2))


def _lead_normal(v: list[int], d: Optional[int]) -> list[int]:
    """The primitive integer row of a positive rational multiple of the
    integer row v whose first nonzero entry is rational: of v when v is
    rational, else of v over the absolute value of its first nonzero entry
    (:func:`linalg.over`)."""
    if linalg.rational_entries(v, d) is None:
        first = linalg.entry(v, linalg.lead(v, d), d)
        _, sign, neg = linalg.ring(d)
        v = linalg.over(v, first if sign(first) > 0 else neg(first), d)
    return linalg.primitive(v)


def _cut(rows: list[tuple[int, list[int]]], lines: list[list[int]], d: Optional[int], what: str,
         cap: Optional[int] = None) -> list[list[int]]:
    """Cut span(lines) by each <row, x> <= 0 in turn, one incremental
    double-description step per row (Fukuda & Prodon 1996).

    ``rows`` are ``(i, row)`` pairs with distinct i.  Each ray keeps its
    tight set, the bit set of the rows it is tight on (bit i for row i);
    every line is tight on the rows imposed so far (``done``), and ``dim``
    is the dimension of the pointed part of the cone.  A row that is
    nonzero on a line turns the first such line, oriented into the
    half-space, into a ray, and moves the other lines and the rays along it
    onto the hyperplane of the row.  Otherwise the row keeps the rays it
    does not cut off and joins every adjacent pair it separates: two rays
    are adjacent iff no third ray is tight on every row both are tight on,
    which needs at least dim - 2 such rows.  Every ray it makes goes
    through ``_lead_normal``.  Returns the rays; past ``cap``
    (``_MAX_RAYS`` by default) rays raises :class:`RayCapError`.
    """
    cap = _MAX_RAYS if cap is None else cap
    dot, sign, neg = linalg.ring(d)
    rays, tight, done, dim = [], [], 0, 0
    for i, row in rows:
        bit = 1 << i
        line_vals = [dot(row, v) for v in lines]
        cut = next((k for k, h in enumerate(line_vals) if sign(h) != 0), None)
        if cut is not None:
            l0, h = lines.pop(cut), line_vals.pop(cut)
            if sign(h) > 0:
                l0, h = [-x for x in l0], neg(h)
            lines = [linalg.primitive(linalg.combine(neg(h), v, g, l0, d))
                     for v, g in zip(lines, line_vals)]
            rays = [_lead_normal(linalg.combine(neg(h), r, dot(row, r), l0, d), d)
                    for r in rays] + [_lead_normal(l0, d)]
            tight = [z | bit for z in tight] + [done]
            done |= bit
            dim += 1
            continue
        done |= bit
        if not rays:
            continue
        vals = [dot(row, r) for r in rays]
        signs = [sign(v) for v in vals]
        kept = [(r, z | bit if s == 0 else z) for r, z, s in zip(rays, tight, signs) if s <= 0]
        negative = [q for q, s in enumerate(signs) if s < 0]
        for p in (p for p, s in enumerate(signs) if s > 0):
            for q in negative:
                common = tight[p] & tight[q]
                # p and q are tight on common: a third such ray bars adjacency
                if common.bit_count() < dim - 2 or len(
                        [z for z in tight if common & z == common]) > 2:
                    continue
                kept.append((_lead_normal(linalg.combine(vals[p], rays[q], neg(vals[q]),
                                                         rays[p], d), d), common | bit))
                if len(kept) > cap:
                    raise RayCapError(f"{what}: {len(kept)} intermediate rays at row {i}, "
                                      f"past the cap of {cap}")
        rays = [r for r, _ in kept]
        tight = [z for _, z in kept]
    return rays


def recession_cone(poly: LogPolyhedron, cap: Optional[int] = None) -> RecessionCone:
    """Exact generators of C = {d in R^n : <alpha_i, d> <= 0} by incremental
    double description (Motzkin et al. 1953; Fukuda & Prodon 1996), in
    integers.

    It reads what ``poly`` holds: the integer rows of its normals, positive
    multiples of them that leave the cone as it is, and their one
    fraction-free elimination (:func:`linalg.gauss_jordan`), whose kept rows
    are the first maximal independent set B, which spans L^perp, and whose
    kernel is the lineality L.  :func:`_cut` starts from span(B) as lines
    and cuts by the rows of B first, in order, which turns each line into a
    ray and leaves the simplicial cone {d in L^perp : B d <= 0}, then by the
    other rows.  Past ``cap`` intermediate rays (``_MAX_RAYS`` by default) a
    :class:`RayCapError` names the row reached.
    """
    d, ints = poly.integer_normals
    basis = poly.elimination[0]
    order = basis + [i for i in range(len(ints)) if i not in basis]
    rays = _cut([(i, ints[i]) for i in order], [ints[i] for i in basis], d, "recession cone", cap)
    return RecessionCone(d, tuple(tuple(_lead_normal(linalg.cleared(v, d), d))
                                  for v in poly.lineality), tuple(map(tuple, rays)))


def _generator_direction(poly: LogPolyhedron, w: Sequence[Scalar], strict: bool, what: str
                         ) -> Optional[list[Scalar]]:
    """First generator d with <w, d> >= 0, or > 0 when ``strict``, in the
    order of ``cone.scan``, once ring signs show that its row is nonzero and
    in C, else a typed error; that check is made in the normals' field once
    per row, which ``cone.checked`` then holds with its direction."""
    cone = poly.recession
    d, lift, w_row = _common_field(poly, w)
    dot, sign, _ = linalg.ring(d)
    for k, row in enumerate(cone.scan):
        s = sign(dot(w_row, lift(row)))
        if s > 0 or (s == 0 and not strict):
            if cone.checked[k] is None:
                own_dot, own_sign, _ = linalg.ring(cone.d)
                if linalg.lead(row, cone.d) is None or any(
                        own_sign(own_dot(a, row)) > 0 for a in poly.integer_normals[1]):
                    raise ReinhardtError(f"{what}: generator {[str(v) for v in cone.vector(row)]}"
                                         " fails its certificate (internal error)")
                cone.checked[k] = tuple(cone.vector(row))
            return list(cone.checked[k])
    return None


def recession_meets_halfspace(poly: LogPolyhedron, w: Sequence[Scalar]
                              ) -> Optional[list[Scalar]]:
    """Nonzero recession direction d with <w, d> >= 0, or None.

    None iff the integral of exp(<w, x>) over log G is finite, for a nonempty G.
    """
    return _generator_direction(poly, w, False, "recession_meets_halfspace")


def unbounded_direction(poly: LogPolyhedron, w: Sequence[Scalar]) -> Optional[list[Scalar]]:
    """Recession direction d with <w, d> > 0, or None iff sup <w, x> over log G
    is finite: w is orthogonal to the lineality and <w, r> <= 0 on every ray."""
    return _generator_direction(poly, w, True, "unbounded_direction")


def is_bounded(spec: DomainSpec) -> bool:
    """True iff every coordinate modulus is bounded above on the domain: the
    recession cone lies in the closed negative orthant."""
    return spec.log_polyhedron.recession.in_negative_orthant()


def has_finite_volume(spec: DomainSpec) -> bool:
    """True iff <2*1, d> < 0 on every nonzero recession direction of log G."""
    return recession_meets_halfspace(spec.log_polyhedron, [2] * spec.n) is None


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
    bound = [Fraction(0)] * k + [Fraction(1)]
    rows = ([[alpha[j] for j in s_list] + [Fraction(0)] for alpha in poly.normals]
            + [[Fraction(int(j in (i, k))) for j in range(k + 1)] for i in range(k)]  # d_j + t <= 0
            + [bound, [-x for x in bound]])  # t <= 1, -t <= 0
    cert = solve_lp(rows, [LogLin.zero()] * (len(rows) - 2) + [LogLin.of(1), LogLin.zero()],
                    bound)
    require_optimal(cert, "approach_certificate")
    if cert.objective.sign() <= 0:
        return None
    point = _const_point(cert)
    ray = [Fraction(0)] * poly.n
    for i, j in enumerate(s_list):
        ray[j] = point[i]
    return tuple(ray)


def approach_supports(poly: LogPolyhedron) -> tuple[frozenset[int], ...]:
    """Distinct supports of the extreme rays of K = C ∩ {d <= 0}: C's rays
    when C lies in {d <= 0} (:func:`is_bounded`), else those of K's own
    double description, from the n unit vectors as lines cut by the unit
    rows, which leaves the negative orthant, then by the normals stably by
    their number of positive entries, fewest first: there a row with p
    positive and q negative entries removes q rays and adds p q.  K is
    pointed and no ray has a positive entry, so no entries cancel in a
    nonnegative combination of rays: its support is the union of theirs."""
    cone = poly.recession
    n, m = poly.n, len(poly.normals)
    d, ints = poly.integer_normals
    rays = cone.rays
    if not cone.in_negative_orthant():
        units = [(m + j, [int(i == j) for i in range(n if d is None else 2 * n)])
                 for j in range(n)]
        order = sorted(range(m), key=lambda i: sum(linalg.entry_sign(ints[i], j, d) > 0
                                                  for j in range(n)))
        rays = _cut(units + [(i, ints[i]) for i in order], [u for _, u in units], d,
                    "approach cone")
    return tuple(dict.fromkeys(
        frozenset(j for j in range(n) if r[j] or (d is not None and r[n + j])) for r in rays))


def approach(poly: LogPolyhedron, coords: Iterable[int]) -> bool:
    """Can the axis stratum with zeros exactly on ``coords`` be reached from G?

    Yes iff some recession direction d <= 0 has support exactly S = coords,
    that is iff S is the union of the approach supports contained in S.
    """
    target = frozenset(coords)
    if not target:
        raise ValueError("approach needs a non-empty coordinate set")
    return frozenset().union(*(s for s in poly.approach_supports if s <= target)) == target


def lp_optimize(objective: Sequence[Scalar], poly: LogPolyhedron) -> LPCertificate:
    """sup <objective, x> over the closed system, exact with symbolic offsets."""
    held = poly.lp_system
    return solve_lp(poly.normals, held.b_vals, objective,
                    held if linalg.field_of([objective]) in (None, held.d) else None)


def radius_box(poly: LogPolyhedron) -> Optional[tuple[float, ...]]:
    """Per-coordinate upper bound on log|z_j|, the upper end of a 64-bit
    enclosure of its sup as a float, or None when some |z_j| is unbounded,
    that is when the recession cone does not lie in the closed negative
    orthant; else one LP per coordinate, in order.
    :func:`reinhardt.montecarlo.bounding_radii` exponentiates them."""
    if not poly.recession.in_negative_orthant():
        return None
    logs = []
    for j in range(poly.n):
        cert = lp_optimize([int(i == j) for i in range(poly.n)], poly)
        require_optimal(cert, "radius_box")
        logs.append(float(cert.objective.bounds(64)[1]))
    return tuple(logs)


def gordan_direction(poly: LogPolyhedron, cone: RecessionCone) -> Optional[list[Scalar]]:
    """d = the sum of the ray rows of the recession cone ``cone`` of ``poly``,
    as a vector, when <alpha_i, d> < 0 on every nonzero row and every zero
    row has c_i > 1, else None.  Then x = lambda d is in the open system for
    every lambda > max_i log(c_i) / <alpha_i, d>, whatever the thresholds are.

    A nonzero row vanishes on the lineality and is <= 0 on every ray, so its
    sign at any strictly positive combination of the rays is negative unless
    it is zero on every ray: d fails exactly when some row is an implicit
    equality of C (Gordan 1873).  Signs are taken on integer rows."""
    d, rows = poly.integer_normals
    dot, sign, _ = linalg.ring(d)
    total = [sum(col) for col in zip([0] * (poly.n if d is None else 2 * poly.n), *cone.rays)]
    for row, c in zip(rows, poly.offsets):
        if linalg.lead(row, d) is None:
            if sign_of(c - 1) <= 0:
                return None
        elif sign(dot(row, total)) >= 0:
            return None
    return linalg.vector(total, 1, d)


def is_empty(poly: LogPolyhedron) -> bool:
    """True iff the open system is empty: the emptiness decision of
    :func:`reinhardt.domain.parse_spec`.

    Nonempty when :func:`gordan_direction` finds a direction in the
    recession cone, which is computed within a budget of
    ``_PARSE_RAYS_PER_ROW`` intermediate rays per row and, when it finishes,
    held as ``poly.recession``.  Otherwise, or past the budget,
    :func:`certify_emptiness` decides, and where it proves nothing the LP
    of :func:`interior_point`.  Only that LP can raise
    :class:`BoundaryIndeterminate`.
    """
    cone = poly.recession_within(_PARSE_RAYS_PER_ROW * len(poly.normals))
    if cone is not None and gordan_direction(poly, cone) is not None:
        return False
    proof = certify_emptiness(poly)
    return interior_point(poly) is None if proof is None else proof[0]


def _float_log(c: Scalar) -> float:
    """log c in floats, for a guess; a rational's numerator and denominator
    may each be past the float range."""
    if is_rational(c):
        q = Fraction(c)
        return math.log(q.numerator) - math.log(q.denominator)
    return math.log(float(c))


def certify_emptiness(poly: LogPolyhedron) -> Optional[tuple[bool, tuple[list[int], list]]]:
    """Whether the open system is empty, proved exactly from the basis that
    :func:`simplex.float_basis` guesses for the LP of :func:`interior_point`
    (max t s.t. <alpha_i, x> + t <= log c_i, t <= log 2), with its proof;
    None when the guess proves nothing, or a sign of the proof is past the
    ladder's cap.  Every sign is decided on one :class:`LogBase` of the
    thresholds and 2.

    * ``(False, (cols, tight))``: the rows ``tight`` (row m is t <= log 2)
      hold with equality at one point (x, t) whose coordinates off ``cols``
      (column n is t) are zero, t > 0, and <alpha_i, x> < log c_i on every
      other row: x is in the open system (:func:`_inside`).
    * ``(True, (rows, y))``: y > 0 on ``rows``, sum(y_i alpha_i) = 0 and
      sum(y_i log c_i) <= 0, so no x has every <alpha_i, x> < log c_i
      (Motzkin's transposition theorem, :func:`_farkas`).
    """
    if not poly.normals:
        return None
    try:
        guess = float_basis([[float(a) for a in alpha] for alpha in poly.normals],
                            [_float_log(c) for c in poly.offsets], math.log(2))
    except (OverflowError, ValueError):  # a threshold past the float range
        return None
    if guess is None:
        return None
    t, cols, tight, duals = guess
    bases = list(dict.fromkeys([*poly.offsets, 2]))
    slots = [bases.index(c) for c in (*poly.offsets, 2)]
    logbase = LogBase(bases, poly.integer_normals[0])
    try:
        if t > _FLOAT_MARGIN:
            return (False, (cols, tight)) if _inside(poly, logbase, slots, cols, tight) else None
        y = _farkas(poly, logbase, slots, duals)
        return None if y is None else (True, (duals, y))
    except BoundaryIndeterminate:
        return None


def _log_form_sign(logbase: LogBase, coeffs: list[int], slots: list[int], den: int) -> int:
    """Sign of sum(coeffs[t] log(bases[slots[t]])) / den for the ring elements
    of the integer row ``coeffs`` and the bases of ``logbase``."""
    d = logbase.d
    columns = [[(t, 1) for t, s in enumerate(slots) if s == k] for k in range(len(logbase.bases))]
    form = linalg.sparse_products(coeffs, columns, d)
    return logbase.sign(linalg.row_of([0 if d is None else (0, 0), *form], d), den,
                        "a sign of the emptiness certificate")


def _inside(poly: LogPolyhedron, logbase: LogBase, slots: list[int], cols: list[int],
            tight: list[int]) -> bool:
    """Solve the rows ``tight`` with equality for the coordinates ``cols`` of
    (x, t), the others zero (:func:`linalg.frame_inverse`); then t > 0, which
    is the slack of every tight row, and <alpha_i, x> < log c_i on the others."""
    n, d = poly.n, logbase.d
    if n not in cols:
        return False
    aug = [*(list(a) + [1] for a in poly.normals), [0] * n + [1]]
    frame = linalg.frame_inverse([[aug[i][j] for j in cols] for i in tight], d)
    if frame is None:
        return False
    inv, den, _ = frame
    at = [slots[i] for i in tight]
    if _log_form_sign(logbase, inv[cols.index(n)], at, den) <= 0:
        return False
    for i in sorted(set(range(len(poly.normals))) - set(tight)):
        alpha = poly.normals[i]
        coeffs, scale = linalg.coordinates([alpha[j] if j < n else 0 for j in cols], inv, den, d)
        slack = linalg.joined([[-x for x in coeffs], linalg.rational_row([scale], d)], d)
        if _log_form_sign(logbase, slack, at + [slots[i]], scale) <= 0:
            return False
    return True


def _farkas(poly: LogPolyhedron, logbase: LogBase, slots: list[int], rows: list[int]
            ) -> Optional[list[Scalar]]:
    """The y > 0 with sum(y_i alpha_i) = 0 over ``rows``, one-dimensional as the
    dual of a basis, when sum(y_i log c_i) <= 0; else None."""
    alphas = [poly.normals[i] for i in rows]
    ys = linalg.kernel_basis([list(col) for col in zip(*alphas)], len(rows))
    if len(ys) != 1:
        return None
    d = logbase.d
    y, den = linalg.over_denominator(ys[0], d)
    normals = [linalg.over_denominator(a, d) for a in alphas]
    if (any(linalg.entry_sign(y, k, d) <= 0 for k in range(len(rows)))
            or any(linalg.combination(normals, y, len(normals[0][0]), d)[0])):
        return None
    return ys[0] if _log_form_sign(logbase, y, [slots[i] for i in rows], den) <= 0 else None


def interior_point(poly: LogPolyhedron) -> Optional[tuple[LogLin, ...]]:
    """A point of the open system, or None if the open system is empty.

    Decided as "the closed system is full-dimensional-feasible": the LP
    max t s.t. <alpha, x> + t <= log c, 0 <= t <= log 2 must have optimum
    > 0.  The cap log 2, not 1, keeps every form of the LP free of a
    constant, so over rational thresholds LogBase decides each sign off the
    ladder.  :func:`is_empty` runs it only when Gordan's test on the
    recession cone does not decide; callers that need a point call it directly.
    """
    n = poly.n
    tail = [Fraction(0)] * n + [Fraction(1)]
    rows = [[*alpha, Fraction(1)] for alpha in poly.normals] + [tail, [-x for x in tail]]
    cert = solve_lp(rows, [*(LogLin.log_of(c) for c in poly.offsets), LogLin.log_of(2),
                           LogLin.zero()], tail)
    if cert.status == INFEASIBLE:
        return None
    require_optimal(cert, "interior_point")
    if cert.objective.sign() <= 0:
        return None
    return cert.primal_point[:n]
