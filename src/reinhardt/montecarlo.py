"""Reproducible Monte-Carlo integration over bounded Reinhardt domains.

Sampling measure: each radius r_j is drawn with density 2 r / R_j^2 on
[0, R_j] (the area measure of the disc of radius R_j), phases uniformly when
the integrand needs them; acceptance is membership of the radius vector.
With W = prod_j pi R_j^2 the estimator  W * mean(1_G * f)  converges to
int_G f dLambda_{2n}.  The upper bounds on log R_j are solved once per
domain (one LP per coordinate) and held by its ``LogPolyhedron``; R is their
exponential, rounded outward, taken here.  Whether the box exists at all, and
whether an integral converges, are read off the recession generators before
any sample is drawn: a divergent integral is reported as infinite, with its
ray, as :func:`reinhardt.norms.lp_norm_finite` decides it.

This is the one module that imports numpy.  ``import reinhardt`` does not
load it; the package loads it on the first read of one of its names.

Streams are counter-based and bit-reproducible: sample block b (fixed size
65536) is generated by ``numpy.random.Philox(key=(seed, b))``, radii first,
then phases, and blocks are reduced in index order.  Identical seed and
sample count give identical results for any thread layout.  Across CPUs,
numpy's SIMD loops for transcendental functions may round single values
differently from its baseline loops: ``pow`` with an array exponent does so
for about 5% of values, so the last bits of an estimate with exponents other
than 0 and 1 may depend on the CPU (none of the golden estimates moved with
dispatch switched off).

A block is evaluated column by column on preallocated buffers, and these
rules keep every output bit fixed:

* exponents nu_j * p other than 0 and 1 keep the ``r[accepted] ** exps``
  layout, since numpy's power loop takes ``x*x`` for a stride-0 exponent
  2.0 but ``pow`` for an array exponent, and the two differ in the last
  bit; exponents 0 and 1 need no power (``pow(x, 0) == 1``,
  ``pow(x, 1) == x``), so their columns are multiplied over the whole block;
* the per-sample product is taken left to right over the coordinates, and
  the weight W is applied last;
* the sums run over full-length blocks, zeros for rejected samples
  included, because pairwise summation depends on where each value sits.

Acceptance is decided on float log-slacks with a guard band: samples within
1e-9 of a constraint boundary are re-adjudicated with the exact membership
predicate, so boundary behaviour never depends on float rounding.  Only the
guard band sees the slack values, so their rounding may change freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .cones import float_log, recession_meets_halfspace
from .domain import DomainSpec, contains, integer_exponents, lp_weight, radial
from .errors import MonteCarloError
from .norms import NormResult
from .spectrum import monomial_defined

BLOCK_SIZE = 1 << 16
_CHUNK = 1 << 14  # rows per acceptance pass: its scratch stays cache-sized
_BOUNDARY_BAND = 1e-9
_SEEDS = 1 << 64  # a seed is one 64-bit word of the Philox key


def bounding_radii(spec: DomainSpec) -> np.ndarray:
    """Per-coordinate sup of |z_j|, as floats rounded up (rejection box).

    The bounds on log|z_j| are solved once per domain
    (``LogPolyhedron.radius_box``); each call returns a new array.
    """
    try:
        logs = spec.log_polyhedron.radius_box
    except OverflowError:  # float() of an exact bound
        raise MonteCarloError("a bound on log|z_j| does not fit a float") from None
    if logs is None:
        raise MonteCarloError("domain is unbounded; Monte-Carlo needs a bounding polydisc")
    # tiny outward inflation keeps the box a true superset after float rounding
    return np.exp(np.array(logs)) * (1.0 + 1e-9)


def _check_run(samples: int, seed: int) -> None:
    if samples < 1:
        raise ValueError(f"samples must be a positive integer, got {samples}")
    if not 0 <= int(seed) < _SEEDS:
        raise ValueError(f"seed must be an integer in [0, 2^64), got {seed}")


def _finite(convert, x, what: str) -> float:
    """``convert(x)``, a finite float, or MonteCarloError naming ``what``."""
    try:
        value = convert(x)
    except (OverflowError, ValueError):  # past the float range, or the log of a float 0
        value = math.inf
    if not math.isfinite(value):
        raise MonteCarloError(f"{what} does not fit a float")
    return value


def _exponents(nu: Sequence[int], p: Fraction) -> np.ndarray:
    """The float exponents nu_j p, or MonteCarloError if p or one does not fit a float."""
    pf = _finite(float, p, "p")
    return np.array([_finite(lambda x: float(x) * pf, x, "an exponent nu_j p") for x in nu])


def _divergent_ray(spec: DomainSpec, nu: Sequence[int], p: Fraction):
    """A recession direction along which the integral of |z^nu|^p over the
    domain diverges, as a tuple, or None when it is finite."""
    ray = recession_meets_halfspace(spec.log_polyhedron, lp_weight(nu, p))
    return None if ray is None else tuple(ray)


class _Sampler:
    """Shared rejection sampler; one instance per (spec, seed, phases?).

    ``block`` returns views of buffers that the next ``block`` call reuses.
    """

    def __init__(self, spec: DomainSpec, seed: int, with_phases: bool):
        self.spec = spec
        self.seed = int(seed)
        with np.errstate(over="ignore"):
            self.box = bounding_radii(spec)
            self.weight = float(np.prod(np.pi * self.box ** 2))
        if not 0.0 < self.weight < math.inf:  # else every radius is finite and nonzero too
            raise MonteCarloError(f"the polydisc of radii {self.box.tolist()} has volume "
                                  f"{self.weight} in floats, not finite and nonzero")
        # per constraint: log c and its (column, exponent) pairs with a nonzero exponent
        self.rows = [(_finite(float_log, con.c, f"log c of constraint {i}"),
                      [(j, a) for j, a in enumerate(
                          _finite(float, x, f"alpha[{j}] of constraint {i}")
                          for j, x in enumerate(con.alpha)) if a != 0.0])
                     for i, con in enumerate(spec.constraints)]
        shape = (BLOCK_SIZE, len(self.box))
        self._r = np.empty(shape)
        self._theta = np.empty(shape) if with_phases else None
        self._log_r = np.empty((_CHUNK, len(self.box)))
        self._slack, self._term = np.empty(_CHUNK), np.empty(_CHUNK)

    def block(self, index: int, count: int):
        # a list key would go through float64 for seeds >= 2^63 and lose bits
        key = np.array([self.seed, index], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        r = rng.random(out=self._r[:count])
        np.sqrt(r, out=r)
        # column by column: broadcasting the box would run an n-long inner loop per sample
        for j, radius in enumerate(self.box):
            r[:, j] *= radius
        theta = None
        if self._theta is not None:
            theta = rng.random(out=self._theta[:count])
            theta *= 2 * np.pi
        return r, theta, self._accept(r)

    def _accept(self, r: np.ndarray) -> np.ndarray:
        count = len(r)
        ok = np.ones(count, dtype=bool)
        if not self.rows:
            return ok
        near = np.ones(count, dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore"):
            for start in range(0, count, _CHUNK):
                rows = slice(start, start + _CHUNK)
                size = len(r[rows])
                log_r = np.log(r[rows], out=self._log_r[:size])
                slack, term = self._slack[:size], self._term[:size]
                ok_part, near_part = ok[rows], near[rows]
                for log_c, terms in self.rows:
                    slack.fill(log_c)
                    for j, a in terms:
                        np.multiply(log_r[:, j], a, out=term)
                        slack -= term
                    ok_part &= slack > _BOUNDARY_BAND
                    near_part &= slack > -_BOUNDARY_BAND
        for idx in np.flatnonzero(near & ~ok):
            point = radial(*[Fraction(float(x)) for x in r[idx]])
            ok[idx] = contains(self.spec, point)
        return ok


def _mean_stderr(total: float, total_sq: float, count: int) -> tuple[float, float]:
    mean = total / count
    var = max(total_sq - count * mean * mean, 0.0) / max(count - 1, 1)
    return mean, math.sqrt(var / count)


def _weighted_powers(r: np.ndarray, ok: np.ndarray, exps: np.ndarray, weight: float,
                     out: np.ndarray) -> np.ndarray:
    """``weight * prod_j r_j ** exps_j`` on accepted samples and 0 elsewhere,
    written to ``out``, bit for bit as ``out[ok] = weight * np.prod(r[ok] **
    exps, axis=1)`` on a zeroed ``out``."""
    cols = [j for j, e in enumerate(exps) if e != 0.0]
    if any(exps[j] != 1.0 for j in cols):
        out.fill(0.0)
        idx = np.flatnonzero(ok)
        powers = np.take(r, idx, axis=0) ** exps
        prod = powers[:, 0]
        for j in range(1, len(exps)):
            prod = prod * powers[:, j]
        out[idx] = weight * prod
        return out
    # pow(x, 0) == 1 and pow(x, 1) == x exactly: multiply whole columns, zero the rejected
    if cols:
        np.copyto(out, r[:, cols[0]])
        for j in cols[1:]:
            out *= r[:, j]
        out *= ok
    else:
        np.copyto(out, ok)
    out *= weight
    return out


def lp_norm_monte_carlo(spec: DomainSpec, nu: Sequence[int], p, samples: int, seed: int
                        ) -> NormResult:
    """MC estimate of the integral of |z^nu|^p, with standard error; a
    divergent integral is ``kind="infinite"`` with its ray, and no sample is
    drawn."""
    _check_run(samples, seed)
    nu, p = integer_exponents(nu, spec.n), Fraction(p)
    sampler = _Sampler(spec, seed, with_phases=False)  # refuses an unbounded domain first
    ray = _divergent_ray(spec, nu, p)
    if ray is not None:
        return NormResult(kind="infinite", ray=ray)
    exps = _exponents(nu, p)
    vals_buf, sq_buf = np.empty(BLOCK_SIZE), np.empty(BLOCK_SIZE)
    s1 = s2 = 0.0
    accepted = 0
    done = 0
    block = 0
    while done < samples:
        count = min(BLOCK_SIZE, samples - done)
        r, _, ok = sampler.block(block, count)
        vals = _weighted_powers(r, ok, exps, sampler.weight, vals_buf[:count])
        s1 += float(vals.sum())
        s2 += float(np.multiply(vals, vals, out=sq_buf[:count]).sum())
        accepted += int(np.count_nonzero(ok))
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
    matched randomness.  Each monomial must be defined on the domain
    (:func:`reinhardt.spectrum.monomial_defined`) and have a finite
    integral; a term whose integral diverges raises :class:`MonteCarloError`.
    """
    _check_run(samples, seed)
    p = Fraction(p)
    terms = sorted((integer_exponents(nu, spec.n), coeff) for nu, coeff in laurent_poly.items())
    for nu, coeff in terms:
        _exponents(nu, p)
        if not monomial_defined(spec, nu):
            raise MonteCarloError(f"monomial {nu} is undefined on the domain")
        if coeff != 0 and _divergent_ray(spec, nu, p) is not None:
            raise MonteCarloError(f"the integral of |{coeff} z^{list(nu)}|^{p} diverges "
                                  "on the domain")
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
            idx = np.flatnonzero(ok)
            ra, ta = np.take(r, idx, axis=0), np.take(theta, idx, axis=0)
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
        estimates.append(TermEstimate(nu=nu, value=val, stderr=se))
        if val > total + 3.0 * math.hypot(se, total_se):
            passed = False
    return CoefficientInequalityReport(p=p, total=total, total_stderr=total_se,
                                       terms=tuple(estimates), samples=samples,
                                       seed=int(seed), passed=passed)
