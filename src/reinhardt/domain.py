"""Reinhardt domains cut out by finitely many radial monomial constraints.

A domain is the interior of an intersection of sets ``{|z^alpha| < c}``.
Membership is a statement about the moduli vector only; at coordinate axes
the rule is: a constraint with a negative exponent on a vanishing coordinate
is violated, a positive exponent on a vanishing coordinate makes the
constraint value 0 and hence satisfied.  The constraint list is kept
verbatim — a log-redundant constraint can still change axis membership, so
no redundancy elimination ever happens.

This module holds specs, their parsing, membership, :func:`held` and the
exponent helpers.  A spec builds its log-polyhedron on first use and holds
it; the polyhedron and its geometry live in :mod:`reinhardt.cones`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from numbers import Integral
from typing import Optional, Sequence

from .cones import LogPolyhedron, is_empty, recession_meets_halfspace
from .errors import EmptyDomainError, SpecError
from .loglin import LogLin
from .scalars import (Scalar, format_scalar, is_nonsquare, is_rational,
                      parse_scalar_literal, scalar_to_json, sign_of)

HELD_KEYS = 64  # per table of :func:`held`; past it values are made, not held


def exponents(*components) -> tuple[Scalar, ...]:
    """Exponent vector of a radial monomial |z1|^a1 ... |zn|^an (exact scalars)."""
    return tuple(Fraction(c) if isinstance(c, int) else c for c in components)


def integer_exponents(nu: Sequence[Scalar], n: Optional[int] = None) -> tuple[int, ...]:
    """The exponents of a monomial z^nu as ints; ValueError unless each is an
    integer, and unless there are ``n`` of them when ``n`` is given."""
    nu = tuple(nu)
    if n is not None and len(nu) != n:
        raise ValueError(f"exponent vector has length {len(nu)}, expected {n}")
    if all(type(c) is int for c in nu):  # the common case, e.g. every spectrum_box query
        return nu
    if not all(isinstance(c, Integral) or (is_rational(c) and c.denominator == 1) for c in nu):
        raise ValueError("not an integer exponent vector: "
                         f"({', '.join(format_scalar(c) for c in nu)})")
    return tuple(int(c) for c in nu)


def lp_weight(nu: Sequence[int], p: Fraction | int) -> list[int]:
    """den(p) (p nu + 2*1) for integer exponents and a rational p: a positive
    multiple of the weight whose signs on C decide whether |z^nu|^p is integrable."""
    return [p.numerator * e + 2 * p.denominator for e in nu]


def derivative_orders(n: int, max_total: int) -> list[tuple[int, ...]]:
    """All sigma in Z_+^n with |sigma| <= max_total, in lexicographic order."""
    return [s for s in product(range(max_total + 1), repeat=n) if sum(s) <= max_total]


@dataclass(frozen=True)
class MonomialConstraint:
    """|z^alpha| < c with c > 0 and alpha nonzero."""

    alpha: tuple[Scalar, ...]
    c: Scalar

    def __post_init__(self):
        if all(sign_of(a) == 0 for a in self.alpha):
            raise SpecError("'alpha' must have a nonzero entry")
        if sign_of(self.c) <= 0:
            raise SpecError("threshold c must be > 0")


@dataclass(frozen=True)
class RadialPoint:
    """Vector of moduli (|z1|, ..., |zn|); rotation symmetry makes these enough."""

    radii: tuple[Scalar, ...]

    def __post_init__(self):
        if any(sign_of(r) < 0 for r in self.radii):
            raise ValueError("radii must be non-negative")

    def __len__(self):
        return len(self.radii)


def held(owner, table: str, key, make):
    """``make()``, held by ``owner`` for its lifetime in its dict ``table``
    under ``key`` (at most ``HELD_KEYS`` keys); threads that make one entry
    at once all get the one held first."""
    entries = owner.__dict__.setdefault(table, {})
    value = entries.get(key)
    if value is None:
        value = make()
        if len(entries) < HELD_KEYS:
            value = entries.setdefault(key, value)
    return value


def radial(*radii) -> RadialPoint:
    return RadialPoint(tuple(Fraction(r) if isinstance(r, (int, float)) else r for r in radii))


@dataclass(frozen=True)
class DomainSpec:
    """Validated constraint-system description of a Reinhardt domain."""

    n: int
    constraints: tuple[MonomialConstraint, ...]
    quadratic_d: Optional[int] = None

    def __post_init__(self):
        if self.n < 1:
            raise SpecError("ambient dimension n must be >= 1")
        for con in self.constraints:
            if len(con.alpha) != self.n:
                raise SpecError(f"constraint has {len(con.alpha)} exponents, expected {self.n}")
        if self.quadratic_d is not None and not is_nonsquare(self.quadratic_d):
            raise SpecError(f"quadratic_d={self.quadratic_d} must be a non-square integer "
                            "in [2, 2^64)")

    def to_json_dict(self) -> dict:
        doc: dict = {"n": self.n}
        if self.quadratic_d is not None:
            doc["quadratic_d"] = self.quadratic_d
        doc["constraints"] = [
            {"alpha": [scalar_to_json(a) for a in con.alpha], "c": scalar_to_json(con.c)}
            for con in self.constraints]
        return doc

    @cached_property
    def nonvanishing(self) -> frozenset[int]:
        """The coordinates that never vanish: a negative exponent in some constraint."""
        return frozenset(j for j in range(self.n)
                         if any(sign_of(con.alpha[j]) < 0 for con in self.constraints))

    @cached_property
    def log_polyhedron(self) -> LogPolyhedron:
        """The log-polyhedron of the constraints, built on first use."""
        return LogPolyhedron(
            n=self.n,
            normals=tuple(con.alpha for con in self.constraints),
            offsets=tuple(con.c for con in self.constraints),
        )


def parse_spec(text: str) -> DomainSpec:
    """Parse and validate a UTF-8 JSON spec document (see README for grammar)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecError("spec document must be a JSON object")
    extra = set(doc) - {"n", "quadratic_d", "constraints"}
    if extra:
        raise SpecError(f"unknown top-level fields: {sorted(extra)}")
    if not isinstance(doc.get("n"), int) or isinstance(doc["n"], bool) or doc["n"] < 1:
        raise SpecError("field 'n' must be an integer >= 1")
    n = doc["n"]
    quad_d = doc.get("quadratic_d")
    if quad_d is not None and (not isinstance(quad_d, int) or not is_nonsquare(quad_d)):
        raise SpecError("quadratic_d must be a non-square integer in [2, 2^64)")
    raw_constraints = doc.get("constraints", [])
    if not isinstance(raw_constraints, list):
        raise SpecError("'constraints' must be an array")
    constraints = []
    for idx, item in enumerate(raw_constraints):
        if not isinstance(item, dict):
            raise SpecError(f"constraint {idx} must be an object")
        extra = set(item) - {"alpha", "c"}
        if extra:
            raise SpecError(f"constraint {idx}: unknown fields {sorted(extra)}")
        alpha_raw = item.get("alpha")
        if not isinstance(alpha_raw, list) or len(alpha_raw) != n:
            raise SpecError(f"constraint {idx}: 'alpha' must be an array of {n} scalars")
        alpha = tuple(parse_scalar_literal(a, quad_d) for a in alpha_raw)
        c = parse_scalar_literal(item.get("c"), quad_d)
        try:
            constraints.append(MonomialConstraint(alpha, c))
        except SpecError as exc:
            raise SpecError(f"constraint {idx}: {exc}") from None
    spec = DomainSpec(n=n, constraints=tuple(constraints), quadratic_d=quad_d)
    # reject empty open domains at load time
    if is_empty(spec.log_polyhedron):
        raise EmptyDomainError("the constraint system has an empty log-polyhedron")
    return spec


def is_bounded(spec: DomainSpec) -> bool:
    """True iff every coordinate modulus is bounded above on the domain: the
    recession cone lies in the closed negative orthant."""
    return spec.log_polyhedron.recession.in_negative_orthant()


def has_finite_volume(spec: DomainSpec) -> bool:
    """True iff <2*1, d> < 0 on every nonzero recession direction of log G."""
    return recession_meets_halfspace(spec.log_polyhedron, [2] * spec.n) is None


def load_spec(path: str) -> DomainSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec(fh.read())


def contains(spec: DomainSpec, p: RadialPoint) -> bool:
    """Exact membership of a moduli vector, including the axis rules.

    Raises BoundaryIndeterminate only when an irrational-exponent comparison
    is still unresolved at the precision-ladder cap.
    """
    if len(p) != spec.n:
        raise ValueError(f"point has {len(p)} radii, expected {spec.n}")
    for con in spec.constraints:
        involved = [(a, r) for a, r in zip(con.alpha, p.radii) if sign_of(a) != 0]
        if any(sign_of(r) == 0 and sign_of(a) < 0 for a, r in involved):
            return False  # negative power of a vanishing coordinate
        if any(sign_of(r) == 0 for a, r in involved):
            continue  # value 0 < c: positive powers only touch the zero radius
        slack = LogLin.log_of(con.c)
        for a, r in involved:
            slack = slack - LogLin.log_of(r, a)
        if slack.sign() <= 0:
            return False
    return True
