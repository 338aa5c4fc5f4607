"""Which Laurent monomials live in which function space over a domain.

On Reinhardt domains every space in scope is generated by its monomials, so
spectrum-level decisions are the computable core.  Verdicts for sup-norm and
integrability questions are exact recession-cone decisions: sup |z^nu| is
finite iff <nu, d> <= 0 on the recession cone C of log G, and the integral
of |z^nu|^p iff <p*nu + 2*1, d> < 0 on C minus 0.  Each is a scan of dot
products against the generators of C, which :mod:`reinhardt.cones` computes
once per domain, so no monomial solves an LP for them.  The closure-
continuity engine for A^k is deliberately a sufficient-condition checker
that answers "yes" or "indeterminate", never an unsound "no"; its axis
approach sets are LPs, solved once per domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from typing import Optional, Sequence

from . import spaces as sp
from .cones import (approach_certificate, face_meets_halfspace, lineality_space,
                    recession_meets_halfspace, unbounded_direction)
from .domain import DomainSpec, ExponentVector, MonomialConstraint, log_polyhedron
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
    coordinate that never vanishes inside G (some constraint is negative
    there)."""
    for ell, e in enumerate(nu):
        if e < 0 and all(sign_of(con.alpha[ell]) >= 0 for con in spec.constraints):
            return False
    return True


def sup_finite(spec: DomainSpec, nu: Sequence[int]) -> bool:
    return unbounded_direction(log_polyhedron(spec), nu) is None


@lru_cache(maxsize=None)
def approachable_sets(spec: DomainSpec) -> tuple[frozenset, ...]:
    """Non-empty coordinate sets whose joint axis stratum meets the closure."""
    poly = log_polyhedron(spec)
    out = []
    for size in range(1, spec.n + 1):
        for coords in combinations(range(spec.n), size):
            if approach_certificate(poly, frozenset(coords)) is not None:
                out.append(frozenset(coords))
    return tuple(out)


def _nonvanishing_orders(nu: Sequence[int], k: int):
    """sigma with |sigma| <= k whose derivative of z^nu is not identically 0."""
    for sigma in product(range(k + 1), repeat=len(nu)):
        if sum(sigma) > k:
            continue
        if any(0 <= e < s for e, s in zip(nu, sigma)):
            continue  # falling factorial hits zero
        yield sigma


def _projected_spec(spec: DomainSpec, drop: frozenset) -> Optional[DomainSpec]:
    """Sub-spec on the surviving coordinates, keeping only constraints fully
    supported there.  A superset of the true closure stratum, so certifying
    continuity on it is sound."""
    keep = [j for j in range(spec.n) if j not in drop]
    if not keep:
        return None
    cons = []
    for con in spec.constraints:
        if all(sign_of(con.alpha[j]) == 0 for j in drop):
            alpha = ExponentVector(tuple(con.alpha[j] for j in keep))
            cons.append(MonomialConstraint(alpha, con.c))
    return DomainSpec(n=len(keep), constraints=tuple(cons), quadratic_d=spec.quadratic_d)


def _extends_continuously(spec: DomainSpec, m: tuple) -> bool:
    """Sufficient check that z^m extends continuously to the closure."""
    if all(e == 0 for e in m):
        return True
    if not sup_finite(spec, m):
        return False
    for coords in approachable_sets(spec):
        dominated = False
        for ell in coords:
            shifted = list(m)
            shifted[ell] -= 1
            if sup_finite(spec, shifted):
                dominated = True  # |z^m| <= |z_ell| * sup|z^(m - e_ell)| -> 0
                break
        if dominated:
            continue
        if all(m[j] == 0 for j in coords):
            proj = _projected_spec(spec, coords)
            if proj is None:
                continue  # constant on the stratum
            keep = [j for j in range(spec.n) if j not in coords]
            if _extends_continuously(proj, tuple(m[j] for j in keep)):
                continue
        return False
    return True


def monomial_in_space(spec: DomainSpec, nu: Sequence[int], space: FunctionSpace
                      ) -> SpaceMembership:
    """Exact membership of z^nu, with "indeterminate" only for the A^k
    continuity cases the sufficient criteria do not cover."""
    nu = tuple(int(e) for e in nu)
    if len(nu) != spec.n:
        raise ValueError(f"exponent vector has length {len(nu)}, expected {spec.n}")
    if not monomial_defined(spec, nu):
        return SpaceMembership(NO, "undefined-on-interior-axis",
                               {"nu": list(nu)})
    kind = space.kind
    poly = log_polyhedron(spec)
    if kind == sp.HINF:
        ray = unbounded_direction(poly, nu)
        if ray is None:
            return SpaceMembership(YES, "sup-lp-bounded", {})
        return SpaceMembership(NO, "sup-unbounded", {"ray": [str(x) for x in ray]})
    if kind in (sp.L2, sp.LP):
        p = Fraction(2) if kind == sp.L2 else space.p
        bad = recession_meets_halfspace(poly, [p * e + 2 for e in nu])
        if bad is None:
            return SpaceMembership(YES, "integrable-recession", {})
        return SpaceMembership(NO, "recession-obstruction",
                               {"direction": [str(x) for x in bad]})
    if kind == sp.HINF_K:
        for sigma in _nonvanishing_orders(nu, space.k):
            m = tuple(e - s for e, s in zip(nu, sigma))
            ray = unbounded_direction(poly, m)
            if ray is not None:
                return SpaceMembership(NO, "derivative-sup-unbounded",
                                       {"sigma": list(sigma), "ray": [str(x) for x in ray]})
        return SpaceMembership(YES, "derivative-sups-bounded", {})
    if kind == sp.AK:
        base = monomial_in_space(spec, nu, sp.hinf_k(space.k))
        if not base.is_yes:
            return SpaceMembership(INDETERMINATE, "outside-sufficient-criteria",
                                   {"blocked_by": base.criterion, **base.evidence})
        for sigma in _nonvanishing_orders(nu, space.k):
            m = tuple(e - s for e, s in zip(nu, sigma))
            if not _extends_continuously(spec, m):
                return SpaceMembership(INDETERMINATE, "outside-sufficient-criteria",
                                       {"sigma": list(sigma)})
        return SpaceMembership(YES, "axis-vanishing-certified", {})
    if kind == sp.LDIAMOND_AK:
        for sigma in _nonvanishing_orders(nu, space.k):
            m = tuple(e - s for e, s in zip(nu, sigma))
            for p in (Fraction(1), Fraction(2)):
                w = [p * e + 2 for e in m]
                bad = recession_meets_halfspace(poly, w)
                if bad is not None:
                    return SpaceMembership(NO, "recession-obstruction",
                                           {"sigma": list(sigma), "p": str(p),
                                            "direction": [str(x) for x in bad]})
            # all p >= 1 at once: <m, d> > 0 or (<m, d> = 0 and <2*1, d> >= 0) kills it
            ray = unbounded_direction(poly, m)
            if ray is not None:
                return SpaceMembership(NO, "large-p-obstruction",
                                       {"sigma": list(sigma), "direction": [str(x) for x in ray]})
            bad = face_meets_halfspace(poly, m, [Fraction(1)] * spec.n)
            if bad is not None:
                return SpaceMembership(NO, "limit-p-obstruction",
                                       {"sigma": list(sigma), "direction": [str(x) for x in bad]})
        return SpaceMembership(YES, "all-p-integrable", {})
    raise ValueError(f"no per-monomial criterion for space {space}; "
                     "use the domain classifier instead")


def spectrum_box(spec: DomainSpec, space: FunctionSpace, radius: int
                 ) -> list[tuple[int, ...]]:
    """All nu in [-radius, radius]^n that are members, sorted."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    out = [nu for nu in product(range(-radius, radius + 1), repeat=spec.n)
           if monomial_in_space(spec, nu, space).is_yes]
    return sorted(out)


def spectrum_orthogonality_check(spec: DomainSpec, radius: int) -> bool:
    """Every boundedly-representable exponent is orthogonal to the lineality
    space (exact); PASS/FAIL over the box."""
    lin = lineality_space(log_polyhedron(spec))
    if lin.dim == 0:
        return True
    for nu in spectrum_box(spec, sp.hinf(), radius):
        vec = [Fraction(e) for e in nu]
        for basis_vec in lin.basis:
            if sign_of(dot(vec, basis_vec)) != 0:
                return False
    return True
