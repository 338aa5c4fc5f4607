"""Reinhardt domains cut out by finitely many radial monomial constraints.

A domain is the interior of an intersection of sets ``{|z^alpha| < c}``.
Membership is a statement about the moduli vector only; at coordinate axes
the rule is: a constraint with a negative exponent on a vanishing coordinate
is violated, a positive exponent on a vanishing coordinate makes the
constraint value 0 and hence satisfied.  The constraint list is kept
verbatim — a log-redundant constraint can still change axis membership, so
no redundancy elimination ever happens.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from numbers import Integral
from typing import Optional, Sequence

from . import linalg
from .cones import (RecessionCone, approach, approach_supports, integer_lattice_of, is_empty,
                    radius_box, recession_cone)
from .errors import EmptyDomainError, RayCapError, SpecError
from .loglin import LogLin
from .scalars import (Scalar, format_scalar, is_nonsquare, is_rational,
                      parse_scalar_literal, scalar_to_json, sign_of)
from .simplex import LPSystem

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
class LogPolyhedron:
    """The system <alpha, x> < log(c) over R^n, one half-space per constraint.

    Offsets stay as the exact thresholds c; log(c) only ever materialises as
    a directed-rounding interval inside LogLin comparisons.  The derived
    geometry below is computed on first use and lives as long as the
    polyhedron.  All of it, here and in :mod:`reinhardt.cones`, reads one
    integer form of the normals and its one fraction-free elimination.
    """

    n: int
    normals: tuple[tuple[Scalar, ...], ...]
    offsets: tuple[Scalar, ...]

    @cached_property
    def integer_normals(self) -> tuple[Optional[int], tuple[list[int], ...]]:
        """The d of the normals (None over Q) and their primitive integer rows."""
        d = linalg.field_of(self.normals)
        return d, tuple(linalg.primitive(linalg.cleared(a, d)) for a in self.normals)

    @cached_property
    def elimination(self) -> tuple[list[int], list[int], list[list[int]]]:
        """``linalg.gauss_jordan`` of ``integer_normals``: kept rows, pivots
        and reduced rows."""
        d, rows = self.integer_normals
        return linalg.gauss_jordan(list(rows), self.n, d)

    @cached_property
    def lineality(self) -> tuple[tuple[Scalar, ...], ...]:
        """Basis of the common kernel of the normals, read off ``elimination``."""
        _, pivots, held = self.elimination
        return tuple(map(tuple, linalg.kernel_from(pivots, held, self.n,
                                                   self.integer_normals[0])))

    @cached_property
    def integer_lattice(self) -> tuple[tuple[int, ...], ...]:
        """Lattice basis of the lineality space ∩ Z^n (Hermite normal form)."""
        return tuple(map(tuple, integer_lattice_of(self.lineality, self.n)))

    @cached_property
    def recession(self) -> RecessionCone:
        """Exact generators of {d : <alpha_i, d> <= 0}."""
        return recession_cone(self)

    def recession_within(self, cap: int) -> Optional[RecessionCone]:
        """``recession``, computed now if its double description stays within
        ``cap`` intermediate rays and then held; None past the cap, and
        then no cone is held, only ``elimination``."""
        if "recession" not in self.__dict__:
            try:
                cone = recession_cone(self, cap)
            except RayCapError:
                return None
            self.__dict__.setdefault("recession", cone)
        return self.recession

    @cached_property
    def lp_system(self) -> LPSystem:
        """The rows <alpha_i, x> <= log c_i of the value LPs, cleared once."""
        return LPSystem.of(self.normals, [LogLin.log_of(c) for c in self.offsets], [0] * self.n)

    @cached_property
    def approach_supports(self) -> tuple[frozenset[int], ...]:
        """Supports of the extreme rays of {d : <alpha_i, d> <= 0, d <= 0}, read
        off ``recession`` when it lies in {d <= 0}, else by their own run."""
        return approach_supports(self)

    @cached_property
    def radius_box(self) -> Optional[tuple[float, ...]]:
        """Per-coordinate upper bound on log|z_j| (None when unbounded): the
        Monte-Carlo box before exponentiation, solved once per domain."""
        return radius_box(self)

    @cached_property
    def axis_faces(self) -> tuple[tuple[frozenset[int], Optional[LogPolyhedron]], ...]:
        """Each approachable coordinate set S, by size and then lexicographically,
        with the system on the other coordinates made of the constraints that
        vanish on S (None when no coordinate is left).  That system contains
        the closure stratum at S, so certifying continuity on it is sound."""
        out = []
        for size in range(1, self.n + 1):
            for coords in combinations(range(self.n), size):
                if not approach(self, coords):
                    continue
                keep = [j for j in range(self.n) if j not in coords]
                rows = [(tuple(a[j] for j in keep), c)
                        for a, c in zip(self.normals, self.offsets)
                        if all(sign_of(a[j]) == 0 for j in coords)]
                face = LogPolyhedron(n=len(keep), normals=tuple(a for a, _ in rows),
                                     offsets=tuple(c for _, c in rows)) if keep else None
                out.append((frozenset(coords), face))
        return tuple(out)

    def half_space_slack(self, x: Sequence[LogLin]) -> list[LogLin]:
        """log(c_i) - <alpha_i, x> for each constraint (positive inside)."""
        out = []
        for alpha, c in zip(self.normals, self.offsets):
            acc = LogLin.log_of(c)
            for a, xi in zip(alpha, x):
                if sign_of(a) != 0:
                    acc = acc - xi * a
            out.append(acc)
        return out


@dataclass(frozen=True)
class DomainSpec:
    """Validated constraint-system description of a Reinhardt domain."""

    n: int
    constraints: tuple[MonomialConstraint, ...]
    quadratic_d: Optional[int] = None
    raw_text: Optional[str] = field(default=None, compare=False)

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
    spec = DomainSpec(n=n, constraints=tuple(constraints), quadratic_d=quad_d, raw_text=text)
    # reject empty open domains at load time
    if is_empty(spec.log_polyhedron):
        raise EmptyDomainError("the constraint system has an empty log-polyhedron")
    return spec


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
