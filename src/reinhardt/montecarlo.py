"""Reproducible Monte-Carlo integration over bounded Reinhardt domains.

Sampling measure: each radius r_j is drawn with density 2 r / R_j^2 on
[0, R_j] (the area measure of the disc of radius R_j), phases uniformly when
the integrand needs them; acceptance is membership of the radius vector.
With W = prod_j pi R_j^2 the estimator  W * mean(1_G * f)  converges to
int_G f dLambda_{2n}.

Streams are counter-based and bit-reproducible: sample block b (fixed size
65536) is generated by ``numpy.random.Philox(key=(seed, b))``, radii first,
then phases, and blocks are reduced in index order.  Identical seed and
sample count give identical results on any platform or thread layout.

Acceptance is decided on float log-slacks with a guard band: samples within
1e-9 of a constraint boundary are re-adjudicated with the exact membership
predicate, so boundary behaviour never depends on float rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cones import lp_optimize
from .domain import DomainSpec, ExponentVector, contains, radial
from .errors import MonteCarloError
from .norms import NormResult
from .precision import working_precision

BLOCK_SIZE = 1 << 16
_BOUNDARY_BAND = 1e-9


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, block]))


def bounding_radii(spec: DomainSpec) -> np.ndarray:
    """Per-coordinate sup of |z_j|, as floats rounded up (rejection box)."""
    poly = spec.log_polyhedron
    radii = []
    for j in range(spec.n):
        obj = [Fraction(0)] * spec.n
        obj[j] = Fraction(1)
        cert = lp_optimize(obj, poly)
        if cert.status != "optimal":
            raise MonteCarloError("domain is unbounded; Monte-Carlo needs a bounding polydisc")
        with working_precision(64):
            radii.append(float(cert.objective.interval().b))
    # tiny outward inflation keeps the box a true superset after float rounding
    return np.exp(np.array(radii)) * (1.0 + 1e-9)


class _Sampler:
    """Shared rejection sampler; one instance per (spec, seed, phases?)."""

    def __init__(self, spec: DomainSpec, seed: int, with_phases: bool):
        self.spec = spec
        self.seed = int(seed)
        self.with_phases = with_phases
        self.box = bounding_radii(spec)
        self.weight = float(np.prod(np.pi * self.box ** 2))
        self.alpha = np.array([[float(a) for a in con.alpha.components]
                               for con in spec.constraints])
        self.log_c = np.array([math.log(float(con.c)) for con in spec.constraints])

    def block(self, index: int, count: int):
        rng = _block_rng(self.seed, index)
        u = rng.random((count, len(self.box)))
        r = self.box * np.sqrt(u)
        theta = rng.random((count, len(self.box))) * (2 * np.pi) if self.with_phases else None
        return r, theta, self._accept(r)

    def _accept(self, r: np.ndarray) -> np.ndarray:
        if self.alpha.size == 0:
            return np.ones(len(r), dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_r = np.log(r)
        slack = np.empty((len(r), len(self.alpha)))
        for i, row in enumerate(self.alpha):
            mask = row != 0.0
            slack[:, i] = self.log_c[i] - log_r[:, mask] @ row[mask]
        ok = (slack > _BOUNDARY_BAND).all(axis=1)
        unsure = ~ok & (slack > -_BOUNDARY_BAND).all(axis=1)
        for idx in np.nonzero(unsure)[0]:
            point = radial(*[Fraction(float(x)) for x in r[idx]])
            ok[idx] = contains(self.spec, point)
        return ok


def _mean_stderr(total: float, total_sq: float, count: int) -> tuple[float, float]:
    mean = total / count
    var = max(total_sq - count * mean * mean, 0.0) / max(count - 1, 1)
    return mean, math.sqrt(var / count)


def lp_norm_monte_carlo(spec: DomainSpec, nu: ExponentVector, p, samples: int, seed: int
                        ) -> NormResult:
    """MC estimate of the integral of |z^nu|^p, with standard error."""
    exps = np.array(nu.as_ints(), dtype=float) * float(Fraction(p))
    sampler = _Sampler(spec, seed, with_phases=False)
    s1 = s2 = 0.0
    accepted = 0
    done = 0
    block = 0
    while done < samples:
        count = min(BLOCK_SIZE, samples - done)
        r, _, ok = sampler.block(block, count)
        vals = np.zeros(count)
        if ok.any():
            vals[ok] = sampler.weight * np.prod(r[ok] ** exps, axis=1)
        s1 += float(vals.sum())
        s2 += float((vals * vals).sum())
        accepted += int(ok.sum())
        done += count
        block += 1
    if accepted == 0:
        raise MonteCarloError(f"zero acceptance after {done} proposals")
    mean, se = _mean_stderr(s1, s2, samples)
    return NormResult(kind="estimate", estimate=mean, stderr=se, samples=samples, seed=seed)


@dataclass(frozen=True)
class TermEstimate:
    nu: tuple[int, ...]
    value: float
    stderr: float


@dataclass(frozen=True)
class CoefficientInequalityReport:
    """Shared-sample comparison of term norms against the full-function norm."""

    p: Fraction
    total: float
    total_stderr: float
    terms: tuple[TermEstimate, ...]
    samples: int
    seed: int
    passed: bool


def coefficient_inequality_check(spec: DomainSpec, laurent_poly: dict, p, samples: int,
                                 seed: int) -> CoefficientInequalityReport:
    """Check int |a_nu z^nu|^p <= int |f|^p for every term of a Laurent polynomial.

    All estimates share the same sample stream, so the comparison is made at
    matched randomness.  Each monomial must be defined on the domain: a
    negative exponent on a coordinate requires some constraint to carry a
    negative exponent there (no vanishing coordinate inside the domain).
    """
    p = Fraction(p)
    terms = sorted(laurent_poly.items())
    for nu, _ in terms:
        for ell, e in enumerate(nu):
            if e < 0 and all(con.alpha[ell] >= 0 for con in spec.constraints):
                raise MonteCarloError(f"monomial {nu} is undefined on the domain (axis {ell})")
    sampler = _Sampler(spec, seed, with_phases=True)
    pf = float(p)
    tot = [0.0, 0.0]
    per_term = [[0.0, 0.0] for _ in terms]
    done = 0
    block = 0
    accepted = 0
    while done < samples:
        count = min(BLOCK_SIZE, samples - done)
        r, theta, ok = sampler.block(block, count)
        if ok.any():
            ra, ta = r[ok], theta[ok]
            z = ra * np.exp(1j * ta)
            f_vals = np.zeros(len(ra), dtype=complex)
            for i, (nu, coeff) in enumerate(terms):
                mono = np.prod(z ** np.array(nu), axis=1)
                f_vals += complex(coeff) * mono
                tvals = sampler.weight * (abs(complex(coeff)) * np.abs(mono)) ** pf
                per_term[i][0] += float(tvals.sum())
                per_term[i][1] += float((tvals * tvals).sum())
            fv = sampler.weight * np.abs(f_vals) ** pf
            tot[0] += float(fv.sum())
            tot[1] += float((fv * fv).sum())
            accepted += int(ok.sum())
        done += count
        block += 1
    if accepted == 0:
        raise MonteCarloError(f"zero acceptance after {done} proposals")
    total, total_se = _mean_stderr(tot[0], tot[1], samples)
    estimates = []
    passed = True
    for (nu, _), (s1, s2) in zip(terms, per_term):
        val, se = _mean_stderr(s1, s2, samples)
        estimates.append(TermEstimate(nu=tuple(nu), value=val, stderr=se))
        if val > total + 3.0 * math.hypot(se, total_se):
            passed = False
    return CoefficientInequalityReport(p=p, total=total, total_stderr=total_se,
                                       terms=tuple(estimates), samples=samples,
                                       seed=int(seed), passed=passed)
