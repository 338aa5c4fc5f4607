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
integer.  A frame holds its N0 per k and ladder cap (:func:`build_witness`).

Each witness quantity is decided on the enclosure that prints it: the
ceiling of N0's pi branch is 1 plus the floor of its enclosure, and a term
norm is compared with 1 on :meth:`NormResult.bounds`, both on the ladder.
The tail bounds (P + Q mu)^R of the orders 0..k share one exact spot check,
are held by the frame per j0, k and N, and are summed in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Optional, Sequence

from . import linalg
from .domain import RadialPoint, derivative_orders, held, integer_exponents
from .errors import ReinhardtError, SpecError
from .loglin import EXACT_PRODUCT_BITS, LogLin, product_bits
from .norms import NormResult, SimplicialFrame, lp_norm_exact_simplicial
from .precision import (LADDER_START_BITS, exp_bounds, interval_str, ladder_sign,
                        max_precision_bits, pi_power_bounds, rational_bounds)
from .scalars import Scalar, exact_ceil, format_scalar, scalar_cmp, sign_of


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

    def _pi_branch(self, bits: int) -> tuple[Fraction, Fraction]:
        """Rationals lo <= L + 2 pi exp(-log|det| / n) <= hi at ``bits`` bits."""
        (l_lo, l_hi), (p_lo, p_hi) = (rational_bounds(self.log_branch_max, bits),
                                      pi_power_bounds(1, bits))
        r_lo, r_hi = exp_bounds(
            *LogLin.log_of(self.det_abs, Fraction(-1, self.n)).bounds(bits), bits)
        return l_lo + 2 * p_lo * r_lo, l_hi + 2 * p_hi * r_hi

    def bounds(self, bits: int = 64) -> tuple[Fraction, Fraction]:
        """Rationals lo <= N0 <= hi, for printing: max(shift_max, pi branch),
        each enclosed at ``bits`` bits."""
        (s_lo, s_hi), (b_lo, b_hi) = rational_bounds(self.shift_max, bits), self._pi_branch(bits)
        return max(s_lo, b_lo), max(s_hi, b_hi)

    def interval_str(self, dps: int = 12) -> tuple[str, str]:
        return interval_str(*self.bounds(), dps)

    def ceil(self) -> int:
        """Smallest integer >= N0, as ceil(max(a, b)) = max(ceil a, ceil b):
        the field branch's ceiling is exact, and the pi branch, never an
        integer, has the ceiling 1 + floor of its enclosure once both ends
        floor alike, from 64 bits doubling to the ladder's cap.  At the cap the
        upper end's floor is taken, the safe side: the result is >= N0 but
        may not be least."""
        bits, cap = LADDER_START_BITS, max_precision_bits()
        while True:
            lo, hi = self._pi_branch(bits)
            if math.floor(lo) == math.floor(hi) or bits >= cap:
                return max(exact_ceil(self.shift_max), math.floor(hi) + 1)
            bits = min(2 * bits, cap)

    def __float__(self):
        lo, hi = self.bounds()
        return float((lo + hi) / 2)


def compute_n0(frame: SimplicialFrame, k: int) -> tuple[N0Result, int]:
    """Exponent threshold for derivative order k and the minimal usable N.

    The supremum over p in [1, inf) is resolved analytically: the p-term is
    taken at p = 1 when positive and drops to its limit 0 otherwise, which is
    exactly the max(0, .) in the branch formula.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    n, d = frame.n, frame.quadratic_d
    # coords() is linear and the sigma with |sigma| <= k + 1 fill the simplex
    # with vertices 0 and (k + 1) e_i, so both maxima are taken at its vertices
    vertices = [[0] * n] + [[(k + 1) * (i == ell) for ell in range(n)] for i in range(n)]
    shift_max = linalg.largest_entry([frame.coordinates(s)[0] for s in vertices], frame.den, d)
    log_branch_max = linalg.largest_entry(
        [frame.coordinates([x - 2 for x in s])[0] for s in vertices], frame.den, d)
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

    @cached_property
    def alpha_j0(self) -> tuple[int, ...]:
        return integer_exponents(self.frame.normals[self.j0])

    @property
    def tails(self) -> tuple[TailBound, ...]:
        """The spot-verified tail bounds of the orders 0..k (:func:`tail_bounds`)."""
        return self.tails_to(self.k)

    def tails_to(self, k: int) -> tuple[TailBound, ...]:
        """The spot-verified tail bounds of the orders 0..max(k, self.k), held by
        the frame per j0, order and N: all of the witness that they read."""
        k = max(k, self.k)
        return held(self.frame, "tails", (self.j0, k, self.N), lambda: tail_bounds(self, k))

    @cached_property
    def d_float(self) -> float:
        """``d`` as a float, for the numeric evaluations of f_N; a SpecError
        when it does not fit one, or when it rounds to 1, which would put the
        pole of f_N on |z^alpha_j0| = 1."""
        try:
            value = float(self.d)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise SpecError("d = |b^alpha_j0| is too large for a float")
        if value == 1.0:
            raise SpecError(f"d = |b^alpha_j0| = {format_scalar(self.d)} rounds to 1 as a float")
        return value

    def value(self, z: Sequence[complex]) -> complex:
        """Closed form z^{N*alpha} / (z^{alpha_j0} - d)."""
        num = _cpow(z, [self.N * a for a in self.alpha_sum])
        den = _cpow(z, self.alpha_j0) - self.d_float
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
    try:
        normals = [integer_exponents(a) for a in frame.normals]
    except ValueError:
        raise SpecError("witness frames need integer constraint exponents") from None
    alpha_j0 = normals[wspec.j0]
    b = wspec.exterior.radii
    if any(sign_of(r) <= 0 for r in b):
        raise SpecError("exterior point must have strictly positive radii")
    powers = [(r, e) for r, e in zip(b, alpha_j0) if e]
    bits = product_bits(powers)
    if bits > EXACT_PRODUCT_BITS:
        raise SpecError(f"|b^alpha_j0| needs about {bits} bits, more than {EXACT_PRODUCT_BITS}")
    d: Scalar = Fraction(1)
    for r, e in powers:
        d = d * (Fraction(r) ** e if not hasattr(r, "sign") else r ** e)
    if sign_of(d - 1) <= 0:
        raise SpecError(f"|b^alpha_j0| = {format_scalar(d)} must exceed 1")
    n0, big_n = held(frame, "n0", (wspec.k, max_precision_bits()),
                     lambda: compute_n0(frame, wspec.k))
    alpha_sum = tuple(sum(a[ell] for a in normals) for ell in range(frame.n))
    coords, den = frame.coordinates(alpha_sum)
    if coords != linalg.rational_row([den] * frame.n, frame.quadratic_d):
        raise ReinhardtError("row-sum identity failed: coords(alpha) != 1 (internal)")
    return WitnessFunction(frame=frame, N=big_n, alpha_sum=alpha_sum, j0=wspec.j0,
                           d=d, k=wspec.k, n0=n0)


def _tail_bound(w: WitnessFunction, order: int) -> TailBound:
    """The bound for derivative order ``order``, before its spot check.

    |sigma! C(m, sigma)| <= prod (|m_l| + sigma_l)^{sigma_l} with
    m = N*alpha + mu*alpha_j0, so P = max N|alpha_l| + order,
    Q = max |alpha_j0,l|, R = order works; order 0 needs only the constant 1.
    """
    if order == 0:
        return TailBound(1, 1, 0)
    big_p = max(w.N * abs(a) for a in w.alpha_sum) + order
    big_q = max(max(abs(a) for a in w.alpha_j0), 1)
    return TailBound(big_p, big_q, order)


def tail_bounds(w: WitnessFunction, k: int) -> tuple[TailBound, ...]:
    """Spot-verified constants dominating the derivative-series coefficients,
    one bound for each order 0..k.

    The bound of order j is checked exactly against sigma! C(m, sigma) for
    every |sigma| <= j at mu = 0, 25, ..., 1000; each coefficient is built
    once, from each coordinate's falling products for s = 0..k, and checked
    against every order j >= |sigma|.  It reads only the frame, j0, k and N,
    never the exterior point: ``tails_to`` runs it once per frame, j0, k and N.
    """
    bounds = tuple(_tail_bound(w, order) for order in range(k + 1))
    sigmas = [(sigma, sum(sigma)) for sigma in derivative_orders(w.frame.n, k)]
    for mu in range(0, 1001, 25):
        # least bound over the orders j >= s, for each s = |sigma|
        least = list(accumulate((b.value(mu) for b in reversed(bounds)), min))[::-1]
        falling = []
        for a, aj in zip(w.alpha_sum, w.alpha_j0):
            m, prefix = w.N * a + mu * aj, [1]
            for s in range(k):
                prefix.append(prefix[-1] * (m - s))
            falling.append(prefix)
        for sigma, order in sigmas:
            coef = 1
            for prefix, sl in zip(falling, sigma):
                coef *= prefix[sl]
            if abs(coef) > least[order]:
                raise ReinhardtError(f"tail bound failed spot check at mu={mu}, sigma={sigma}")
    return bounds


def derive_tail_bound(w: WitnessFunction, k: int) -> TailBound:
    """The spot-verified bound of derivative order k, held by the frame
    (see :meth:`WitnessFunction.tails_to`)."""
    return w.tails_to(k)[k]


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
    dd = w.d_float
    s_ratio = abs(_cpow(z, alpha_j0))
    if s_ratio >= dd:
        raise ValueError(f"|z^alpha_j0| = {s_ratio:.6g} >= d = {dd:.6g}: outside the "
                         "series region")
    order = sum(sigma)
    bound = w.tails_to(order)[order]
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


def _sup_series_bound(bound: TailBound, d: Scalar) -> float:
    """The sum of (P + Q mu)^R / d^(mu+1) over mu >= 0, rounded up to a float:
    for f(mu) = (P + Q mu)^R it is sum_{j <= R} (Delta^j f)(0) / (d - 1)^(j+1),
    taken exactly (Newton's forward differences; converges since d > 1)."""
    diffs, gap, total = [bound.value(mu) for mu in range(bound.R + 1)], d - 1, Fraction(0)
    for j in range(bound.R + 1):
        total += Fraction(diffs[0]) / gap ** (j + 1)
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    hi = rational_bounds(total, 64)[1]
    try:
        value = float(hi)
    except OverflowError:
        raise SpecError(f"a derivative sup bound of order {bound.R} does not fit a float"
                        ) from None
    return value if value >= hi else math.nextafter(value, math.inf)


def verify_witness_membership(w: WitnessFunction, k: Optional[int] = None,
                              p_list: Sequence = (1, 2)) -> WitnessCertificate:
    """Certify f_N: term norms <= 1 for each |sigma| <= k and p in p_list,
    sup norms <= 1 by cone membership, vanishing at reachable axis strata,
    and a summed bound for each derivative sup.

    A failed check signals an implementation bug for N >= N0; it is reported,
    never silently repaired.
    """
    frame = w.frame
    k = w.k if k is None else k
    p_list = tuple(Fraction(p) for p in p_list)
    n = frame.n
    if any(scalar_cmp(c, 1) != 0 for c in frame.thresholds):
        raise SpecError("membership verification expects unit thresholds")
    # each approach support is approachable and every approachable set is a union of them
    axis_coords = sorted(frozenset().union(*frame.polyhedron.approach_supports))
    sigmas = derivative_orders(n, k)
    checks = []
    for sigma in sigmas:
        nu = tuple(w.N * a - s for a, s in zip(w.alpha_sum, sigma))
        coords = frame.coordinates(nu)[0]
        # coords(nu - e_ell) = coords(nu) - row ell of the inverse, over the same den
        rows = [coords] + [[x - y for x, y in zip(coords, frame.inverse[ell])]
                           for ell in axis_coords]
        ok = [all(linalg.entry_sign(v, j, frame.quadratic_d) >= 0 for j in range(n)) for v in rows]
        sup_ok, vanish_ok = ok[0], all(ok[1:])
        for p in p_list:
            norm = lp_norm_exact_simplicial(frame, nu, p)
            le_one = norm.kind == "exact" and _at_most_one(norm)
            checks.append(WitnessCheck(sigma=sigma, p=p, norm=norm, norm_le_one=le_one,
                                       sup_cone_ok=sup_ok, vanishing_ok=vanish_ok))
    # one spot-verified bound and one summed sup bound per derivative order 0..k
    tails = w.tails_to(k)
    sups = [_sup_series_bound(tails[order], w.d) for order in range(k + 1)]
    sup_bounds = {sigma: sups[sum(sigma)] for sigma in sigmas}
    return WitnessCertificate(
        witness=w, k=k, p_list=p_list, checks=tuple(checks),
        axis_coords=tuple(axis_coords), derivative_sup_bounds=sup_bounds,
        tail_bound=tails[k], ok=all(c.ok for c in checks))


def _at_most_one(norm: NormResult) -> bool:
    """Is an exact norm <= 1?  Exact without pi and factors, and otherwise
    decided by the ladder on the norm's own bounds minus 1."""
    if not norm.pi_power and not norm.factors:
        return sign_of(norm.coefficient - 1) <= 0

    def build(bits):
        lo, hi = norm.bounds(bits)
        return lo - 1, hi - 1

    def what():
        factors = "".join(f"*({format_scalar(b)})^({format_scalar(e)})" for b, e in norm.factors)
        return f"{format_scalar(norm.coefficient)}*pi^{norm.pi_power}{factors} - 1"

    return ladder_sign(build, what=what) <= 0
