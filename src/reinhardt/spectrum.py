"""Which Laurent monomials live in which function space over a domain.

On Reinhardt domains every space in scope is generated by its monomials, so
spectrum-level decisions are the computable core.  Verdicts for sup-norm and
integrability questions are exact recession-cone decisions: sup |z^nu| is
finite iff <nu, d> <= 0 on the recession cone C of log G, the integral of
|z^nu|^p iff <p*nu + 2*1, d> < 0 on C minus 0, and so for every p >= 1 iff
the sup and the integral at p = 1 are.  Each is a scan of dot products
against the generators of C, which :mod:`reinhardt.cones` computes once per
domain, so no monomial solves an LP for them.  The closure-continuity engine
for A^k is a sufficient-condition checker, "yes" or "indeterminate" and never
an unsound "no"; it walks the approachable axis sets and their projected
faces, which each ``LogPolyhedron`` derives once from C ∩ {d <= 0}, and asks
each sup question of :func:`reinhardt.cones.unbounded_direction`, whose cone
holds every generator check it has made.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Sequence

from . import spaces as sp
from .cones import LogPolyhedron, recession_meets_halfspace, unbounded_direction
from .domain import DomainSpec, derivative_orders, integer_exponents, lp_weight
from .linalg import dot
from .scalars import sign_of
from .spaces import FunctionSpace

YES = "yes"
NO = "no"
INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class SpaceMembership:
    verdict: str
    criterion: str
    evidence: dict = field(default_factory=dict)

    @property
    def is_yes(self) -> bool:
        return self.verdict == YES


def monomial_defined(spec: DomainSpec, nu: Sequence[int]) -> bool:
    """z^nu is a function on G iff every negative exponent sits on a
    coordinate that never vanishes inside G (``spec.nonvanishing``)."""
    return all(e >= 0 or ell in spec.nonvanishing for ell, e in enumerate(nu))


def _nonvanishing_orders(nu: Sequence[int], k: int) -> list[tuple[int, ...]]:
    """sigma with |sigma| <= k whose derivative of z^nu is not identically 0."""
    return [sigma for sigma in derivative_orders(len(nu), k)
            if not any(0 <= e < s for e, s in zip(nu, sigma))]


def _extends_continuously(poly: LogPolyhedron, m: tuple) -> bool:
    """Sufficient check that z^m, with a finite sup on ``poly``, extends continuously."""
    if not any(m):
        return True
    faces = poly.axis_faces
    # |z^m| <= |z_ell| * sup|z^(m - e_ell)| -> 0 at every stratum with z_ell = 0
    vanishing = {ell for ell in frozenset().union(*(coords for coords, _ in faces))
                 if unbounded_direction(poly, [e - (j == ell) for j, e in enumerate(m)]) is None}
    for coords, face in faces:
        if coords & vanishing:
            continue
        if any(m[j] for j in coords):
            return False
        # constant on the stratum and continuous on its face (a system: m is nonzero off coords)
        rest = tuple(e for j, e in enumerate(m) if j not in coords)
        if unbounded_direction(face, rest) is not None or not _extends_continuously(face, rest):
            return False
    return True


def monomial_in_space(spec: DomainSpec, nu: Sequence[int], space: FunctionSpace
                      ) -> SpaceMembership:
    """Exact membership of z^nu, with "indeterminate" only for the A^k
    continuity cases the sufficient criteria do not cover."""
    nu = integer_exponents(nu, spec.n)
    if not monomial_defined(spec, nu):
        return SpaceMembership(NO, "undefined-on-interior-axis",
                               {"nu": list(nu)})
    kind = space.kind
    poly = spec.log_polyhedron
    if kind == sp.HINF:
        ray = unbounded_direction(poly, nu)
        if ray is None:
            return SpaceMembership(YES, "sup-lp-bounded", {})
        return SpaceMembership(NO, "sup-unbounded", {"ray": [str(x) for x in ray]})
    if kind in (sp.L2, sp.LP):
        bad = recession_meets_halfspace(poly, lp_weight(nu, 2 if kind == sp.L2 else space.p))
        if bad is None:
            return SpaceMembership(YES, "integrable-recession", {})
        return SpaceMembership(NO, "recession-obstruction",
                               {"direction": [str(x) for x in bad]})
    if kind in (sp.HINF_K, sp.AK):
        for sigma in _nonvanishing_orders(nu, space.k):
            ray = unbounded_direction(poly, tuple(e - s for e, s in zip(nu, sigma)))
            if ray is not None:
                no = {"sigma": list(sigma), "ray": [str(x) for x in ray]}
                if kind == sp.HINF_K:
                    return SpaceMembership(NO, "derivative-sup-unbounded", no)
                return SpaceMembership(INDETERMINATE, "outside-sufficient-criteria",
                                       {"blocked_by": "derivative-sup-unbounded", **no})
        if kind == sp.HINF_K:
            return SpaceMembership(YES, "derivative-sups-bounded", {})
        for sigma in _nonvanishing_orders(nu, space.k):
            m = tuple(e - s for e, s in zip(nu, sigma))
            if not _extends_continuously(poly, m):
                return SpaceMembership(INDETERMINATE, "outside-sufficient-criteria",
                                       {"sigma": list(sigma)})
        return SpaceMembership(YES, "axis-vanishing-certified", {})
    # sp.LDIAMOND_AK: every other kind has returned above
    for sigma in _nonvanishing_orders(nu, space.k):
        m = tuple(e - s for e, s in zip(nu, sigma))
        for p in (1, 2):
            bad = recession_meets_halfspace(poly, lp_weight(m, p))
            if bad is not None:
                return SpaceMembership(NO, "recession-obstruction",
                                       {"sigma": list(sigma), "p": str(p),
                                        "direction": [str(x) for x in bad]})
        # any p >= 1 on C minus 0: (p - 1) <m, d> <= 0 (a finite sup) + <m + 2*1, d> < 0 (p = 1)
        ray = unbounded_direction(poly, m)
        if ray is not None:
            return SpaceMembership(NO, "large-p-obstruction",
                                   {"sigma": list(sigma), "direction": [str(x) for x in ray]})
    return SpaceMembership(YES, "all-p-integrable", {})


def spectrum_box(spec: DomainSpec, space: FunctionSpace, radius: int
                 ) -> list[tuple[int, ...]]:
    """All nu in [-radius, radius]^n that are members, sorted: ``product``
    yields them in lexicographic order."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    return [nu for nu in product(range(-radius, radius + 1), repeat=spec.n)
            if monomial_in_space(spec, nu, space).is_yes]


def spectrum_orthogonality_check(spec: DomainSpec, radius: int) -> bool:
    """Every boundedly-representable exponent is orthogonal to the lineality
    space (exact); PASS/FAIL over the box."""
    lin = spec.log_polyhedron.lineality
    if not lin:
        return True
    for nu in spectrum_box(spec, sp.hinf(), radius):
        vec = [Fraction(e) for e in nu]
        for basis_vec in lin:
            if sign_of(dot(vec, basis_vec)) != 0:
                return False
    return True
