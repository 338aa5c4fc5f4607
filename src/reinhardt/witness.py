"""Explicit singular witness functions on simplicial frames.

For a frame |z^{alpha_j}| < 1 (j = 1..n, independent integer normals) and an
exterior radius vector b with |b^{alpha_j0}| = d > 1, the function

    f_N(z) = z^{N*alpha} / (z^{alpha_j0} - d),      alpha = alpha_1+...+alpha_n,

blows up along {z^{alpha_j0} = d} while staying, for N large enough, inside
every L^p space (p finite), bounded with bounded derivatives up to order k,
and vanishing at the axis pieces of the boundary.  The threshold exponent is

    N0 = max over j, |sigma| <= k+1 of
         coords_j(sigma) + max(0, 2*pi/|det A|^(1/n) - coords_j(2*1)),

where coords() expands a vector in the basis of the frame normals.  The two
max-branches are kept separate so the ceiling of N0 is exact: the branch
without pi is pure field arithmetic, the branch with pi can never be an
integer, so the interval ladder always resolves it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

import mpmath

from .domain import ExponentVector, RadialPoint
from .errors import ReinhardtError, SpecError
from .norms import NormResult, SimplicialFrame, lp_norm_exact_simplicial
from .precision import (interval_str, iv, ladder_sign, max_precision_bits,
                        scalar_interval, working_precision)
from .scalars import Scalar, exact_ceil, format_scalar, scalar_cmp, sign_of


def derivative_orders(n: int, max_total: int):
    """All sigma in Z_+^n with |sigma| <= max_total."""
    return [s for s in product(range(max_total + 1), repeat=n) if sum(s) <= max_total]


def falling_product(m: int, s: int) -> int:
    """m (m-1) ... (m-s+1); equals sigma! * C(m, sigma) componentwise."""
    out = 1
    for i in range(s):
        out *= m - i
    return out


@dataclass(frozen=True)
class N0Result:
    """Two-branch representation of the exponent threshold (see module doc)."""

    shift_max: Scalar       # max coords_j(sigma), pure field branch
    log_branch_max: Scalar  # max coords_j(sigma) - coords_j(2*1)
    det_abs: Scalar
    n: int

    def _branches(self):
        pure = scalar_interval(self.shift_max)
        root = iv.exp(iv.log(scalar_interval(self.det_abs)) / self.n)
        trans = scalar_interval(self.log_branch_max) + 2 * iv.pi / root
        return pure, trans

    def interval(self):
        pure, trans = self._branches()
        lo = max(pure.a, trans.a)
        hi = max(pure.b, trans.b)
        return iv.mpf([lo, hi])

    def interval_str(self, dps: int = 12) -> tuple[str, str]:
        with working_precision(64):
            return interval_str(self.interval(), dps)

    def ceil(self) -> int:
        """Smallest integer >= N0, exact-vs-interval tie handling included."""
        winner = ladder_sign(lambda: self._branches()[1] - self._branches()[0],
                             what="N0 branch comparison")
        if winner < 0:
            return exact_ceil(self.shift_max)
        # transcendental branch: never an integer, so the ladder resolves it
        bits = 64
        cap = max_precision_bits()
        while True:
            with working_precision(bits):
                _, trans = self._branches()
                lo = int(mpmath.ceil(trans.a))
                hi = int(mpmath.ceil(trans.b))
                if lo == hi:
                    return lo
            if bits >= cap:
                return hi  # straddling an integer at the cap: take the safe side
            bits = min(2 * bits, cap)

    def __float__(self):
        with working_precision(64):
            v = self.interval()
            return float((v.a + v.b) / 2)


def compute_n0(frame: SimplicialFrame, k: int) -> tuple[N0Result, int]:
    """Exponent threshold for derivative order k and the minimal usable N.

    The supremum over p in [1, inf) is resolved analytically: the p-term is
    taken at p = 1 when positive and drops to its limit 0 otherwise, which is
    exactly the max(0, .) in the branch formula.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    n = frame.n
    two = [Fraction(2)] * n
    coords_two = frame.basis_coords(two)
    shift_max: Scalar = Fraction(0)
    log_branch_max: Optional[Scalar] = None
    for sigma in derivative_orders(n, k + 1):
        coords = frame.basis_coords([Fraction(s) for s in sigma])
        for j in range(n):
            if scalar_cmp(coords[j], shift_max) > 0:
                shift_max = coords[j]
            cand = coords[j] - coords_two[j]
            if log_branch_max is None or scalar_cmp(cand, log_branch_max) > 0:
                log_branch_max = cand
    result = N0Result(shift_max=shift_max, log_branch_max=log_branch_max,
                      det_abs=frame.det_abs, n=n)
    return result, max(1, result.ceil())


@dataclass(frozen=True)
class WitnessSpec:
    """Inputs for the witness build: unit-threshold frame, order k, exterior
    point b, and the index j0 whose constraint b violates."""

    frame: SimplicialFrame
    k: int
    exterior: RadialPoint
    j0: int

    def __post_init__(self):
        if self.k < 0:
            raise SpecError("k must be >= 0")
        if not 0 <= self.j0 < self.frame.n:
            raise SpecError("j0 out of range")
        if len(self.exterior) != self.frame.n:
            raise SpecError("exterior point has the wrong dimension")


@dataclass(frozen=True)
class TailBound:
    """(P + Q*mu)^R dominates |sigma! * C(N*alpha + mu*alpha_j0, sigma)|."""

    P: int
    Q: int
    R: int

    def value(self, mu: int) -> int:
        return (self.P + self.Q * mu) ** self.R


@dataclass(frozen=True)
class WitnessFunction:
    frame: SimplicialFrame
    N: int
    alpha_sum: tuple[int, ...]
    j0: int
    d: Scalar
    k: int
    n0: N0Result

    @property
    def alpha_j0(self) -> tuple[int, ...]:
        return self.frame.normals[self.j0].as_ints()

    def value(self, z: Sequence[complex]) -> complex:
        """Closed form z^{N*alpha} / (z^{alpha_j0} - d)."""
        num = _cpow(z, [self.N * a for a in self.alpha_sum])
        den = _cpow(z, self.alpha_j0) - float(self.d)
        return num / den

    def singular_location(self) -> str:
        mono = "*".join(f"z{ell + 1}^{e}" for ell, e in enumerate(self.alpha_j0) if e)
        return f"{{{mono} = {format_scalar(self.d)}}}"


def _cpow(z: Sequence[complex], exps: Sequence[int]) -> complex:
    out = complex(1.0)
    for zi, e in zip(z, exps):
        if e:
            out *= complex(zi) ** e
    return out


def build_witness(wspec: WitnessSpec) -> WitnessFunction:
    """Construct f_N with N = max(1, ceil(N0)) and d = b^{alpha_j0} > 1."""
    frame = wspec.frame
    if any(scalar_cmp(c, 1) != 0 for c in frame.thresholds):
        raise SpecError("witness frames need unit thresholds; "
                        "use SimplicialFrame.rescaled_to_unit() first")
    if any(not a.is_integer for a in frame.normals):
        raise SpecError("witness frames need integer constraint exponents")
    alpha_j0 = frame.normals[wspec.j0].as_ints()
    b = wspec.exterior.radii
    if any(sign_of(r) <= 0 for r in b):
        raise SpecError("exterior point must have strictly positive radii")
    d: Scalar = Fraction(1)
    for r, e in zip(b, alpha_j0):
        if e:
            d = d * (Fraction(r) ** e if not hasattr(r, "sign") else r ** e)
    if sign_of(d - 1) <= 0:
        raise SpecError(f"|b^alpha_j0| = {format_scalar(d)} must exceed 1")
    n0, big_n = compute_n0(frame, wspec.k)
    alpha_sum = tuple(sum(a.as_ints()[ell] for a in frame.normals)
                      for ell in range(frame.n))
    coords = frame.basis_coords([Fraction(a) for a in alpha_sum])
    if any(scalar_cmp(t, 1) != 0 for t in coords):
        raise ReinhardtError("row-sum identity failed: coords(alpha) != 1 (internal)")
    return WitnessFunction(frame=frame, N=big_n, alpha_sum=alpha_sum, j0=wspec.j0,
                           d=d, k=wspec.k, n0=n0)


def derive_tail_bound(w: WitnessFunction, k: int) -> TailBound:
    """Constants dominating the derivative-series coefficients (spot-verified).

    |sigma! C(m, sigma)| <= prod (|m_l| + sigma_l)^{sigma_l} with
    m = N*alpha + mu*alpha_j0, so P = max N|alpha_l| + k, Q = max |alpha_j0,l|,
    R = k works; k = 0 needs nothing beyond the constant 1.
    """
    if k == 0:
        bound = TailBound(1, 1, 0)
    else:
        big_p = max(w.N * abs(a) for a in w.alpha_sum) + k
        big_q = max(max(abs(a) for a in w.alpha_j0), 1)
        bound = TailBound(big_p, big_q, k)
    for mu in range(0, 1001, 25):  # exact spot verification
        m = [w.N * a + mu * aj for a, aj in zip(w.alpha_sum, w.alpha_j0)]
        for sigma in derivative_orders(w.frame.n, k):
            coef = 1
            for ml, sl in zip(m, sigma):
                coef *= falling_product(ml, sl)
            if abs(coef) > bound.value(mu):
                raise ReinhardtError(f"tail bound failed spot check at mu={mu}, sigma={sigma}")
    return bound


def eval_witness_derivative(w: WitnessFunction, sigma: Sequence[int], z: Sequence[complex],
                            tol: float = 1e-12, max_terms: int = 10 ** 6) -> complex:
    """Sum the derivative series of f_N at z with a certified truncation.

    The series converges wherever |z^{alpha_j0}| < d (all coordinates nonzero);
    truncation stops once the dominated geometric tail drops below tol.
    """
    z = [complex(v) for v in z]
    if any(v == 0 for v in z):
        raise ValueError("series evaluation needs all coordinates nonzero")
    sigma = tuple(int(s) for s in sigma)
    alpha_j0 = w.alpha_j0
    dd = float(w.d)
    s_ratio = abs(_cpow(z, alpha_j0))
    if s_ratio >= dd:
        raise ValueError(f"|z^alpha_j0| = {s_ratio:.6g} >= d = {dd:.6g}: outside the "
                         "series region")
    bound = derive_tail_bound(w, sum(sigma))
    # running term data: exponent m = N*alpha + mu*alpha_j0, power z^{m - sigma}
    m = [w.N * a for a in w.alpha_sum]
    z_pow = _cpow(z, [e - s for e, s in zip(m, sigma)])
    z_step = _cpow(z, alpha_j0)
    c_bound = abs(z_pow)
    d_inv = 1.0 / dd
    d_pow = d_inv
    acc = complex(0.0)
    for mu in range(max_terms):
        coef = 1
        for ml, sl in zip(m, sigma):
            coef *= falling_product(ml, sl)
        if coef:
            acc += coef * z_pow * d_pow
        # dominated geometric tail from mu+1 on
        nxt = mu + 1
        ratio = (1.0 + bound.Q / (bound.P + bound.Q * nxt)) ** bound.R * (s_ratio * d_inv)
        if ratio < 1.0:
            tail = (bound.value(nxt) * c_bound * s_ratio ** nxt * d_inv ** (nxt + 1)
                    / (1.0 - ratio))
            if tail < tol:
                return -acc
        m = [ml + aj for ml, aj in zip(m, alpha_j0)]
        z_pow *= z_step
        d_pow *= d_inv
    raise ReinhardtError(f"series did not reach tol={tol} within {max_terms} terms")


@dataclass(frozen=True)
class WitnessCheck:
    sigma: tuple[int, ...]
    p: Fraction
    norm: NormResult
    norm_le_one: bool
    sup_cone_ok: bool
    vanishing_ok: bool

    @property
    def ok(self) -> bool:
        return self.norm_le_one and self.sup_cone_ok and self.vanishing_ok


@dataclass(frozen=True)
class WitnessCertificate:
    witness: WitnessFunction
    k: int
    p_list: tuple[Fraction, ...]
    checks: tuple[WitnessCheck, ...]
    axis_coords: tuple[int, ...]
    derivative_sup_bounds: dict
    tail_bound: TailBound
    ok: bool

    def to_json_dict(self) -> dict:
        w = self.witness
        lo, hi = w.n0.interval_str()
        return {
            "N": w.N,
            "N0_interval": [lo, hi],
            "alpha": list(w.alpha_sum),
            "j0": w.j0 + 1,
            "d": format_scalar(w.d),
            "checks": [{
                "sigma": list(c.sigma),
                "p": str(c.p),
                "norm": c.norm.symbolic(),
                "norm_interval": list(c.norm.interval()),
                "ok": c.ok,
            } for c in self.checks],
            "tail_bound": {"P": self.tail_bound.P, "Q": self.tail_bound.Q,
                           "R": self.tail_bound.R},
            "derivative_sup_bounds": {str(list(s)): v
                                      for s, v in sorted(self.derivative_sup_bounds.items())},
            "all_ok": self.ok,
        }


def _sup_series_bound(bound: TailBound, d: float) -> float:
    """Numeric sum of (P + Q*mu)^R / d^(mu+1); converges since d > 1."""
    acc = 0.0
    d_inv = 1.0 / d
    d_pow = d_inv
    mu = 0
    while True:
        term = bound.value(mu) * d_pow
        acc += term
        ratio = (1.0 + bound.Q / (bound.P + bound.Q * (mu + 1))) ** bound.R * d_inv
        if ratio < 1.0 and bound.value(mu + 1) * d_pow * d_inv / (1.0 - ratio) < 1e-15 * acc:
            return acc
        d_pow *= d_inv
        mu += 1


def verify_witness_membership(w: WitnessFunction, frame: Optional[SimplicialFrame] = None,
                              k: Optional[int] = None,
                              p_list: Sequence = (1, 2)) -> WitnessCertificate:
    """Certify f_N: term norms <= 1 for each |sigma| <= k and p in p_list,
    sup norms <= 1 by cone membership, vanishing at reachable axis strata,
    and a summed bound for each derivative sup.

    A failed check signals an implementation bug for N >= N0; it is reported,
    never silently repaired.
    """
    frame = frame or w.frame
    k = w.k if k is None else k
    p_list = tuple(Fraction(p) for p in p_list)
    n = frame.n
    if any(scalar_cmp(c, 1) != 0 for c in frame.thresholds):
        raise SpecError("membership verification expects unit thresholds")
    # each approach support is approachable and every approachable set is a union of them
    axis_coords = sorted(frozenset().union(*frame.polyhedron().approach_supports))
    checks = []
    for sigma in derivative_orders(n, k):
        nu = ExponentVector(tuple(Fraction(w.N * a - s)
                                  for a, s in zip(w.alpha_sum, sigma)))
        coords_nu = frame.basis_coords(list(nu.components))
        sup_ok = all(sign_of(t) >= 0 for t in coords_nu)
        vanish_ok = True
        for ell in axis_coords:
            shifted = list(nu.components)
            shifted[ell] -= 1
            if any(sign_of(t) < 0 for t in frame.basis_coords(shifted)):
                vanish_ok = False
        for p in p_list:
            norm = lp_norm_exact_simplicial(frame, nu, p)
            le_one = norm.kind == "exact" and _norm_sign_vs_one(norm) <= 0
            checks.append(WitnessCheck(sigma=sigma, p=p, norm=norm, norm_le_one=le_one,
                                       sup_cone_ok=sup_ok, vanishing_ok=vanish_ok))
    # one spot-verified bound per derivative order |sigma| = 0..k
    tails = {order: derive_tail_bound(w, order) for order in range(k + 1)}
    sup_bounds = {sigma: _sup_series_bound(tails[sum(sigma)], float(w.d))
                  for sigma in derivative_orders(n, k)}
    return WitnessCertificate(
        witness=w, k=k, p_list=p_list, checks=tuple(checks),
        axis_coords=tuple(axis_coords), derivative_sup_bounds=sup_bounds,
        tail_bound=tails[k], ok=all(c.ok for c in checks))


def _norm_sign_vs_one(norm: NormResult) -> int:
    if norm.pi_power == 0 and not norm.factors:
        return sign_of(norm.coefficient - 1)

    def build():
        val = scalar_interval(norm.coefficient) * iv.pi ** norm.pi_power
        for base, exp in norm.factors:
            val *= iv.exp(scalar_interval(exp) * iv.log(scalar_interval(base)))
        return val - 1

    return ladder_sign(build, what="norm vs 1")
