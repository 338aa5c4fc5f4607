"""Monomial norms: sup norms, exact L^p integrals on simplicial frames.

Whether a sup or an integral is finite is read off the recession-cone
generators of the domain (:mod:`reinhardt.cones`), but on a simplicial frame
:func:`lp_norm_exact_simplicial` and the witness checks read it off the
frame's inverse (t_j > 0, coordinates >= 0); an LP only computes the value
of a finite sup, or the ray printed for an infinite one (the sup-ray LP).

The exact L^p integral of |z^nu|^p over a domain cut out by exactly n
independent constraints has the closed form

    (2 pi)^n * prod_j c_j^{t_j} / (|det A| * prod_j t_j),   t = coords of
    p*nu + 2*1 in the basis of the constraint normals,

finite exactly when every t_j > 0; t is a row of integer dot products with
A^-1, which a frame holds as integer rows, and a parsed domain holds each
frame it has built, per tuple of rows.  Values are carried symbolically
(rational coefficient, power of pi, leftover threshold powers) and only
enclosed in rationals for display.  Non-simplicial exact values are out of
scope; finiteness stays exact everywhere and values go through Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import product
from numbers import Integral
from typing import Optional, Sequence

from . import linalg
from .cones import (LogPolyhedron, lp_optimize, recession_improving_direction,
                    recession_meets_halfspace, require_optimal, unbounded_direction)
from .domain import DomainSpec, held, integer_exponents, lp_weight
from .errors import ReinhardtError, SpecError
from .loglin import LogLin
from .precision import exp_bounds, interval_str, pi_power_bounds, rational_bounds
from .scalars import Scalar, format_scalar, is_rational, scalar_cmp, sign_of


@dataclass(frozen=True)
class SimplicialFrame:
    """Exactly n independent constraints |z^alpha_j| < c_j with invertible A,
    whose inverse is held as integer rows over the positive integer ``den``."""

    normals: tuple[tuple[Scalar, ...], ...]
    thresholds: tuple[Scalar, ...]
    det_abs: Scalar
    inverse: tuple[list[int], ...] = field(repr=False, compare=False)
    den: int = field(repr=False, compare=False)
    quadratic_d: Optional[int] = field(repr=False, compare=False)

    @staticmethod
    def from_rows(normals: Sequence[Sequence[Scalar]], thresholds: Sequence[Scalar]
                  ) -> "SimplicialFrame":
        n = len(normals)
        if any(len(a) != n for a in normals):
            raise SpecError("a simplicial frame needs exactly n constraints in dimension n")
        d = linalg.field_of(normals)
        inverse = linalg.frame_inverse(normals, d)
        if inverse is None:
            raise SpecError("frame normals are linearly dependent")
        rows, den, det_abs = inverse
        return SimplicialFrame(tuple(normals), tuple(thresholds), det_abs, tuple(rows), den, d)

    @staticmethod
    def from_spec(spec: DomainSpec, rows: Optional[Sequence[int]] = None) -> "SimplicialFrame":
        """The frame of n constraints (0-based indices; defaults to all of
        them), which the spec's polyhedron holds for that tuple of indices."""
        m, poly = len(spec.constraints), spec.log_polyhedron
        key = tuple(range(m) if rows is None else rows)
        if any(not isinstance(i, Integral) or not 0 <= i < m for i in key):
            raise SpecError(f"frame row indices must be integers in 0..{m - 1}")
        if len(key) != spec.n:
            raise SpecError(f"need exactly {spec.n} constraints for a frame, got {len(key)}")

        def make():
            frame = SimplicialFrame.from_rows([poly.normals[i] for i in key],
                                              [poly.offsets[i] for i in key])
            if poly.normals == frame.normals and poly.offsets == frame.thresholds:
                frame.__dict__["polyhedron"] = poly  # the same system: share its geometry
            return frame
        return held(poly, "frames", key, make)

    @property
    def n(self) -> int:
        return len(self.normals)

    def coordinates(self, x: Sequence[Scalar]) -> tuple[list[int], int]:
        """Coordinates t with x = sum_j t_j * alpha_j, as an integer row over a
        positive denominator, which is ``den`` when x is an integer vector."""
        return linalg.coordinates(x, self.inverse, self.den, self.quadratic_d)

    def basis_coords(self, x: Sequence[Scalar]) -> tuple[Scalar, ...]:
        """Coordinates t with x = sum_j t_j * alpha_j (row-vector times B)."""
        return tuple(linalg.vector(*self.coordinates(x), self.quadratic_d))

    def rescaled_to_unit(self) -> tuple["SimplicialFrame", tuple[LogLin, ...]]:
        """Frame with thresholds 1 plus the log-coordinates of the rescaling."""
        unit = replace(self, thresholds=tuple(Fraction(1) for _ in range(self.n)))
        shift = tuple(sum((LogLin.log_of(c, linalg.scalar(row, ell, self.den, self.quadratic_d))
                           for ell, c in enumerate(self.thresholds) if scalar_cmp(c, 1) != 0),
                          LogLin.zero()) for row in self.inverse)
        return unit, shift

    @cached_property
    def polyhedron(self) -> LogPolyhedron:
        """The log-polyhedron of the frame's constraints, built on first use."""
        return LogPolyhedron(n=self.n, normals=self.normals, offsets=self.thresholds)


@dataclass(frozen=True)
class NormResult:
    """Exact symbolic value, MC estimate, or a divergence witness."""

    kind: str  # "exact" | "estimate" | "infinite"
    coefficient: Optional[Scalar] = None
    pi_power: int = 0
    factors: tuple[tuple[Scalar, Scalar], ...] = ()
    estimate: Optional[float] = None
    stderr: Optional[float] = None
    samples: Optional[int] = None
    seed: Optional[int] = None
    ray: Optional[tuple[Scalar, ...]] = None

    def bounds(self, bits: int = 64) -> tuple[Fraction, Fraction]:
        """Rationals lo <= the exact value <= hi: the coefficient, pi^n and
        each factor base^exp = exp(exp log(base)) enclosed at ``bits`` bits,
        all positive."""
        if self.kind != "exact":
            raise ValueError(f"no exact interval for kind={self.kind}")
        (lo, hi), (p_lo, p_hi) = (rational_bounds(self.coefficient, bits),
                                  pi_power_bounds(self.pi_power, bits))
        lo, hi = lo * p_lo, hi * p_hi
        for base, exp in self.factors:
            f_lo, f_hi = exp_bounds(*LogLin.log_of(base, exp).bounds(bits), bits)
            lo, hi = lo * f_lo, hi * f_hi
        return lo, hi

    def interval(self) -> tuple[str, str]:
        return interval_str(*self.bounds())

    def __float__(self) -> float:
        if self.kind == "estimate":
            return self.estimate
        if self.kind == "exact":
            lo, hi = self.bounds()
            return float((lo + hi) / 2)
        raise ValueError(f"no numeric value for kind={self.kind}")

    def symbolic(self) -> str:
        if self.kind != "exact":
            raise ValueError(f"no symbolic form for kind={self.kind}")
        coeff = self.coefficient
        parts = []
        if self.pi_power:
            pi_txt = "pi" if self.pi_power == 1 else f"pi^{self.pi_power}"
            if is_rational(coeff):
                f = Fraction(coeff)
                num = pi_txt if f.numerator == 1 else (
                    f"-{pi_txt}" if f.numerator == -1 else f"{f.numerator}*{pi_txt}")
                parts.append(num if f.denominator == 1 else f"{num}/{f.denominator}")
            else:
                parts.append(f"({format_scalar(coeff)})*{pi_txt}")
        else:
            parts.append(format_scalar(coeff))
        for base, exp in self.factors:
            parts.append(f"({format_scalar(base)})^({format_scalar(exp)})")
        return "*".join(parts)


def make_exact_norm(coefficient: Scalar, pi_power: int,
                    factors: Sequence[tuple[Scalar, Scalar]]) -> NormResult:
    """Fold integer-exponent factors into the coefficient, sort the rest."""
    coeff = coefficient
    kept = []
    for base, exp in factors:
        if scalar_cmp(base, 1) == 0 or sign_of(exp) == 0:
            continue
        if is_rational(exp) and Fraction(exp).denominator == 1:
            e = int(Fraction(exp))
            coeff = coeff * (Fraction(base) ** e if is_rational(base) else base ** e)
        else:
            kept.append((base, exp))
    kept.sort(key=lambda t: t[0])
    return NormResult(kind="exact", coefficient=coeff, pi_power=pi_power,
                      factors=tuple(kept))


def sup_norm_monomial(spec: DomainSpec, nu: Sequence[Scalar]) -> NormResult:
    """sup over the domain of |z^nu| = exp(sup <nu, x> over log G).

    The recession generators decide finiteness; an LP then gives the value,
    or the improving ray that is reported for an infinite sup.
    """
    poly = spec.log_polyhedron
    w = list(nu)
    if unbounded_direction(poly, w) is not None:
        ray = recession_improving_direction(poly, w)
        if ray is None:
            raise ReinhardtError("sup_norm_monomial: ray LP disagrees with the recession "
                                 "generators (internal error)")
        return NormResult(kind="infinite", ray=tuple(ray))
    cert = lp_optimize(w, poly)
    require_optimal(cert, "sup_norm_monomial")
    if sign_of(cert.objective.const) != 0:
        raise ReinhardtError("sup of a pure monomial objective must be offset-only "
                             "(internal error)")
    return make_exact_norm(Fraction(1), 0, cert.objective.terms)


def divergent_ray(spec: DomainSpec, nu: Sequence[int], p) -> Optional[tuple[Scalar, ...]]:
    """A recession direction along which the integral of |z^nu|^p over the
    domain diverges, or None when it is finite, for a rational p >= 1."""
    p = Fraction(p)
    if p < 1:
        raise ValueError("p must be a rational >= 1")
    ray = recession_meets_halfspace(spec.log_polyhedron,
                                    lp_weight(integer_exponents(nu, spec.n), p))
    return None if ray is None else tuple(ray)


def lp_norm_finite(spec: DomainSpec, nu: Sequence[int], p) -> bool:
    """Is the integral of |z^nu|^p finite?  Exact recession-cone decision."""
    return divergent_ray(spec, nu, p) is None


def lp_norm_exact_simplicial(frame: SimplicialFrame, nu: Sequence[int], p) -> NormResult:
    """Closed-form integral of |z^nu|^p over the frame's domain."""
    p = Fraction(p)
    if p < 1:
        raise ValueError("p must be a rational >= 1")
    n, d = frame.n, frame.quadratic_d
    # t over den: the coordinates of p nu + 2*1, an integer row over p's denominator
    t, den = frame.coordinates(lp_weight(integer_exponents(nu, n), p))
    den *= p.denominator
    for j in range(n):
        if linalg.entry_sign(t, j, d) <= 0:
            ray = tuple(-linalg.scalar(frame.inverse[ell], j, frame.den, d) for ell in range(n))
            return NormResult(kind="infinite", ray=ray)
    # 2^n / (|det A| prod_j t_j/den), the t_j read off the integer row
    ts = t if d is None else linalg.vector(t, 1, d)
    coeff = Fraction(2 ** n * den ** n) / (frame.det_abs * math.prod(ts))
    # a threshold equal to 1 adds no factor
    factors = [(c, linalg.scalar(t, j, den, d))
               for j, c in enumerate(frame.thresholds) if c != 1]
    return make_exact_norm(coeff, n, factors)


def find_integrable_monomial(spec: DomainSpec, max_radius: int = 40
                             ) -> Optional[tuple[tuple[int, ...], Fraction]]:
    """Search for (nu, p) with a finite L^p integral; None when the lineality
    space is nonzero (no monomial is p-integrable then)."""
    if spec.log_polyhedron.lineality:
        return None
    for radius in range(max_radius + 1):
        shell = [nu for nu in product(range(-radius, radius + 1), repeat=spec.n)
                 if max((abs(x) for x in nu), default=0) == radius]
        for nu in sorted(shell):
            for p in (Fraction(1), Fraction(2)):
                if lp_norm_finite(spec, nu, p):
                    return nu, p
    raise SpecError(f"no integrable monomial found in the box [-{max_radius},{max_radius}]^n")
