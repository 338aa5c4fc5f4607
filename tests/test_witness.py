import cmath
import math
import os
import random
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import libmp
from mpmath.ctx_iv import MPIntervalContext

from reinhardt import (NormResult, ReinhardtError, SimplicialFrame, SpecError, build_witness,
                       compute_n0, derive_tail_bound, eval_witness_derivative, load_spec,
                       radial, verify_witness_membership, witness)
from reinhardt.domain import exponents
from reinhardt.errors import BoundaryIndeterminate
from reinhardt.precision import ladder_sign, pi_power_bounds
from reinhardt.scalars import QuadExt, exact_ceil, quad, sign_of
from reinhardt.witness import (N0Result, TailBound, WitnessSpec, derivative_orders,
                               falling_product, tail_bounds)

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def hartogs_frame(hartogs):
    return SimplicialFrame.from_spec(hartogs)


@pytest.fixture(scope="module")
def polydisc_frame(polydisc):
    return SimplicialFrame.from_spec(polydisc)


@pytest.fixture(scope="module")
def hartogs_witness(hartogs_frame):
    return build_witness(WitnessSpec(frame=hartogs_frame, k=0,
                                     exterior=radial(3, Fraction(3, 2)), j0=0))


def test_n0_hartogs(hartogs_frame):
    n0, big_n = compute_n0(hartogs_frame, 0)
    lo, hi = n0.interval_str()
    assert 5.2831 < float(lo) <= float(hi) < 5.2833   # 2 pi - 1
    assert big_n == 6


def test_n0_polydisc(polydisc_frame):
    n0, big_n = compute_n0(polydisc_frame, 0)
    lo, hi = n0.interval_str()
    assert math.isclose(float(lo), 2 * math.pi - 1, rel_tol=1e-9)
    assert big_n == 6


def test_n0_pure_branch_exact():
    # frame with |det| = 2 and coords of 2*1 large: the pi-branch loses,
    # so N0 = max coords(sigma) is pure field arithmetic
    frame = SimplicialFrame.from_rows([exponents(3, -10), exponents(-1, 4)],
                                      [Fraction(1), Fraction(1)])
    n0, big_n = compute_n0(frame, 0)
    assert n0.shift_max == Fraction(5)
    # 2 pi / sqrt(2) + (coords(sigma) - coords(2*1)) stays below 5
    assert big_n == 5


# 2 pi to 3000 bits: 9 - TWO_PI + eps has the transcendental branch 9 + eps
# to far more digits than the default cap reaches
TWO_PI = 2 * Fraction(*libmp.to_rational(libmp.mpf_pi(3000)))
EPS = Fraction(1, 2 ** 80)


@pytest.mark.parametrize("shift, offset, expected", [
    (0, EPS, 10), (0, -EPS, 9),
    # a 64-bit enclosure of a value near 2^100 spans about 2^40 integers
    (2 ** 100, EPS, 2 ** 100 + 10), (2 ** 100, -EPS, 2 ** 100 + 9),
], ids=["above-9", "below-9", "above-2^100+9", "below-2^100+9"])
def test_n0_ceil_where_the_64_bit_enclosure_straddles_an_integer(shift, offset, expected,
                                                                  monkeypatch):
    monkeypatch.delenv("REINHARDT_PRECISION", raising=False)  # the default ladder cap
    n0 = N0Result(shift_max=0, log_branch_max=shift + 9 - TWO_PI + offset, det_abs=1, n=1)
    assert n0.ceil() == expected


def test_n0_ceil_takes_the_safe_side_at_the_cap(monkeypatch):
    monkeypatch.setenv("REINHARDT_PRECISION", "64")
    for offset in (EPS, -EPS):
        n0 = N0Result(shift_max=0, log_branch_max=9 - TWO_PI + offset, det_abs=1, n=1)
        assert n0.ceil() == 10


def test_n0_ceil_past_the_float_range():
    # L = 10^400 + sqrt2, so N0 = L + 2 pi = 10^400 + 7.69...
    n0 = N0Result(shift_max=0, log_branch_max=quad(10 ** 400, 1, 2), det_abs=1, n=1)
    assert n0.ceil() == 10 ** 400 + 8


def test_n0_of_a_frame_with_huge_coordinates(monkeypatch):
    monkeypatch.delenv("REINHARDT_PRECISION", raising=False)  # the default ladder cap
    # |det| = 1 and coords((1, 0)) = (M, -M - 1), so N0 = M + 2 + 2 pi exactly;
    # its 64-bit enclosure spans many integers
    m = 2 ** 70
    frame = SimplicialFrame.from_rows([exponents(m, m + 1), exponents(m - 1, m)],
                                      [Fraction(1), Fraction(1)])
    n0, big_n = compute_n0(frame, 0)
    assert n0.log_branch_max == m + 2
    assert big_n == m + 9


def test_n0_of_a_frame_with_huge_coordinates_at_a_64_bit_cap(monkeypatch):
    """Each m is compared with N0 through (m - L)^n |det| against (2 pi)^n,
    small exact numbers, so 64 bits give the least N (2^70 + 256 when N0
    itself was enclosed)."""
    monkeypatch.setenv("REINHARDT_PRECISION", "64")
    m = 2 ** 70
    frame = SimplicialFrame.from_rows([exponents(m, m + 1), exponents(m - 1, m)],
                                      [Fraction(1), Fraction(1)])
    assert compute_n0(frame, 0)[1] == m + 9


@pytest.mark.parametrize("cap, offset, expected", [
    ("64", EPS, 10), ("64", -EPS, 10), (None, EPS, 10), (None, -EPS, 9),
], ids=["64-bit-above-9", "64-bit-below-9", "default-above-9", "default-below-9"])
def test_n0_ceil_of_a_quadratic_near_tie(cap, offset, expected, monkeypatch):
    """L = 9 - 2 pi + offset + 2^-90 sqrt2 in Q(sqrt2): its 64-bit rung leaves
    m = 9 unresolved, which counts as too small; the default cap decides it."""
    if cap is None:
        monkeypatch.delenv("REINHARDT_PRECISION", raising=False)
    else:
        monkeypatch.setenv("REINHARDT_PRECISION", cap)
    low = 9 - TWO_PI + offset + quad(0, Fraction(1, 2 ** 90), 2)
    assert N0Result(shift_max=0, log_branch_max=low, det_abs=1, n=1).ceil() == expected


def _iv(bits: int) -> MPIntervalContext:
    """An mpmath interval context at ``bits`` bits: the oracle of these tests."""
    ctx = MPIntervalContext()
    ctx.prec = bits
    return ctx


def _iv_scalar(x, ctx):
    if isinstance(x, QuadExt):
        return _iv_scalar(x.a, ctx) + _iv_scalar(x.b, ctx) * ctx.sqrt(x.d)
    x = Fraction(x)
    return ctx.mpf(x.numerator) / x.denominator


def _parent_ceil(n0: N0Result) -> int:
    """The reference ceiling: bisection between the ceilings of the 64-bit
    mpmath enclosure of the pi branch, on a ladder of interval contexts."""
    def sign(build):
        bits = 64
        while True:
            val = build(_iv(bits))
            if val.a > 0 or val.b < 0:
                return 1 if val.a > 0 else -1
            if bits >= 1024:
                raise BoundaryIndeterminate("unresolved")
            bits *= 2

    def trans(ctx):
        root = ctx.exp(ctx.log(_iv_scalar(n0.det_abs, ctx)) / n0.n)
        return _iv_scalar(n0.log_branch_max, ctx) + 2 * ctx.pi / root

    lo, hi = (libmp.to_int(end, libmp.round_ceiling) for end in trans(_iv(64))._mpi_)
    while lo < hi:
        m = (lo + hi) // 2
        try:
            below = sign(lambda ctx: trans(ctx) - m) < 0
        except BoundaryIndeterminate:
            below = False
        lo, hi = (lo, m) if below else (m + 1, hi)
    return max(exact_ceil(n0.shift_max), lo)


@st.composite
def n0_results(draw):
    """N0 with random L and |det| and n = 1..4, over Q or over Q(sqrt d)."""
    d = draw(st.sampled_from((None, 2, 3, 7)))
    low = draw(st.fractions(-40, 40, max_denominator=50))
    det = draw(st.fractions(Fraction(1, 50), 200, max_denominator=50))
    if d is not None:
        low = quad(low, draw(st.fractions(-5, 5, max_denominator=20).filter(bool)), d)
        if draw(st.booleans()):
            det = quad(det, draw(st.fractions(-1, 1, max_denominator=20).filter(bool)), d)
            det = det if sign_of(det) > 0 else -det
    shift = draw(st.fractions(-40, 40, max_denominator=50))
    return N0Result(shift_max=shift, log_branch_max=low, det_abs=det, n=draw(st.integers(1, 4)))


@given(n0_results())
@settings(max_examples=150, deadline=None)
def test_n0_ceil_matches_the_parent_bisection(n0):
    with mock.patch.dict(os.environ):
        os.environ.pop("REINHARDT_PRECISION", None)  # the default ladder cap
        assert n0.ceil() == _parent_ceil(n0)


def test_build_witness_examples(hartogs_frame, polydisc_frame):
    w = build_witness(WitnessSpec(frame=hartogs_frame, k=0,
                                  exterior=radial(3, Fraction(3, 2)), j0=0))
    assert w.N == 6 and w.alpha_sum == (1, 0) and w.d == 2
    w2 = build_witness(WitnessSpec(frame=hartogs_frame, k=0,
                                   exterior=radial(3, Fraction(3, 2)), j0=1))
    assert w2.d == Fraction(3, 2)
    w3 = build_witness(WitnessSpec(frame=polydisc_frame, k=0,
                                   exterior=radial(2, 2), j0=0))
    assert w3.alpha_sum == (1, 1) and w3.d == 2 and w3.N == 6


def test_build_witness_rejects_interior_point(hartogs_frame):
    with pytest.raises(SpecError):
        build_witness(WitnessSpec(frame=hartogs_frame, k=0,
                                  exterior=radial(Fraction(1, 2), 1), j0=0))


def test_build_witness_needs_unit_thresholds(hartogs_half):
    frame = SimplicialFrame.from_spec(hartogs_half)
    with pytest.raises(SpecError):
        build_witness(WitnessSpec(frame=frame, k=0, exterior=radial(3, 3), j0=0))
    unit, _ = frame.rescaled_to_unit()
    w = build_witness(WitnessSpec(frame=unit, k=0, exterior=radial(3, Fraction(3, 2)),
                                  j0=0))
    assert w.d == 2


def test_build_witness_rejects_fractional_normals():
    frame = SimplicialFrame.from_rows([exponents(Fraction(1, 2), 0), exponents(0, 1)],
                                      [Fraction(1), Fraction(1)])
    with pytest.raises(SpecError, match="integer constraint exponents"):
        build_witness(WitnessSpec(frame=frame, k=0, exterior=radial(3, 3), j0=0))


def test_build_witness_bounds_the_size_of_d():
    # d = 3^(2^70) * 3^(2^70 + 1) would never finish; its size is estimated first
    m = 2 ** 70
    frame = SimplicialFrame.from_rows([exponents(m, m + 1), exponents(m - 1, m)],
                                      [Fraction(1), Fraction(1)])
    with pytest.raises(SpecError, match="bits"):
        build_witness(WitnessSpec(frame=frame, k=0, exterior=radial(3, 3), j0=0))


def test_verify_rejects_d_beyond_float_range(hartogs_frame):
    w = build_witness(WitnessSpec(frame=hartogs_frame, k=0,
                                  exterior=radial(10 ** 400, 1), j0=0))
    assert w.d == 10 ** 400
    with pytest.raises(SpecError, match="too large for a float"):
        verify_witness_membership(w, k=0)


def test_evaluations_reject_d_beyond_float_range(hartogs_frame):
    w = build_witness(WitnessSpec(frame=hartogs_frame, k=0,
                                  exterior=radial(10 ** 400, 1), j0=0))
    with pytest.raises(SpecError, match="too large for a float"):
        w.value([0.5, 0.5])
    with pytest.raises(SpecError, match="too large for a float"):
        eval_witness_derivative(w, (0, 0), [0.5, 0.5])


def test_alpha_j0_is_computed_once(hartogs_witness):
    assert hartogs_witness.alpha_j0 == (1, -1)
    assert hartogs_witness.alpha_j0 is hartogs_witness.alpha_j0


def test_alpha_coords_identity(hartogs_frame, polydisc_frame):
    for frame in (hartogs_frame, polydisc_frame):
        coords = frame.basis_coords([Fraction(sum(a[j] for a in frame.normals))
                                     for j in range(frame.n)])
        assert all(t == 1 for t in coords)


def test_tail_bound_examples(hartogs_witness):
    tb0 = derive_tail_bound(hartogs_witness, 0)
    assert (tb0.P, tb0.Q, tb0.R) == (1, 1, 0)
    tb1 = derive_tail_bound(hartogs_witness, 1)
    assert (tb1.P, tb1.Q, tb1.R) == (7, 1, 1)
    # spot check from first principles: sigma! C((16,-10),(1,0)) = 16 <= 17
    assert falling_product(16, 1) == 16 <= tb1.value(10) == 17


def test_series_matches_closed_form(hartogs_witness):
    rng = random.Random(2024)
    checked = 0
    while checked < 20:
        r2 = rng.uniform(0.15, 0.95)
        r1 = rng.uniform(0.0, r2) * 0.9
        if r1 < 1e-3:
            continue
        z = (r1 * cmath.exp(1j * rng.uniform(0, 2 * math.pi)),
             r2 * cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
        closed = hartogs_witness.value(z)
        series = eval_witness_derivative(hartogs_witness, (0, 0), z,
                                         tol=1e-13 * abs(closed))
        assert abs(series - closed) <= 1e-9 * abs(closed)
        checked += 1


def test_series_derivative_matches_finite_difference(hartogs_witness):
    z = (0.35 + 0.1j, 0.62 - 0.2j)
    h = 1e-5
    for axis, sigma in ((0, (1, 0)), (1, (0, 1))):
        series = eval_witness_derivative(hartogs_witness, sigma, z, tol=1e-14)
        step = [0, 0]
        step[axis] = h
        up = hartogs_witness.value((z[0] + step[0], z[1] + step[1]))
        dn = hartogs_witness.value((z[0] - step[0], z[1] - step[1]))
        fd = (up - dn) / (2 * h)
        assert abs(series - fd) <= 1e-6 * abs(fd)


def test_divergence_near_singular_set(hartogs_witness):
    # points in the dilated region with z1/z2 -> d = 2; |f| grows like 1/dist
    mags = []
    for dist in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7):
        z = ((2 - dist) * 0.75, 0.75)
        mags.append(abs(hartogs_witness.value(z)))
    assert all(b > a for a, b in zip(mags, mags[1:]))
    assert mags[-1] > 1e6


def test_series_region_guard(hartogs_witness):
    with pytest.raises(ValueError):
        eval_witness_derivative(hartogs_witness, (0, 0), (3.0, 1.0))  # |z1/z2| > d
    with pytest.raises(ValueError):
        eval_witness_derivative(hartogs_witness, (0, 0), (0.0, 0.5))  # zero coordinate


@pytest.mark.parametrize("k", [0, 1, 2])
def test_membership_certificates_exhaustive(hartogs_frame, polydisc_frame, k):
    for frame in (hartogs_frame, polydisc_frame):
        w = build_witness(WitnessSpec(frame=frame, k=k,
                                      exterior=radial(3, Fraction(3, 2)), j0=0))
        cert = verify_witness_membership(w, k=k,
                                         p_list=[1, 2, Fraction(7, 2), 100])
        assert cert.ok, f"failed checks: {[c for c in cert.checks if not c.ok]}"


def test_hartogs_witness_verifies_at_k1_with_exact_norm(hartogs_witness):
    cert = verify_witness_membership(hartogs_witness, k=1, p_list=[1, 2, 3])
    assert cert.ok
    by_key = {(c.sigma, c.p): c for c in cert.checks}
    check = by_key[((1, 0), Fraction(1))]
    assert check.norm.symbolic() == "4*pi^2/63"
    assert cert.axis_coords == (0, 1)
    doc = cert.to_json_dict()
    assert doc["N"] == 6 and doc["alpha"] == [1, 0] and doc["j0"] == 1
    assert doc["tail_bound"] == {"P": 7, "Q": 1, "R": 1}  # bound at order k=1
    assert set(doc) >= {"N", "N0_interval", "alpha", "j0", "d", "checks", "tail_bound"}
    assert all(c["ok"] for c in doc["checks"])


# the frames, orders and exterior points of the four witness goldens (tests/test_golden.py)
GOLDEN_WITNESSES = [
    ("specs/hartogs.json", None, (3, Fraction(3, 2)), 0, 1),
    ("specs/polydisc.json", None, (5, 5), 1, 2),
    ("tests/specs/chain3.json", None, (4, 2, 1), 0, 2),
    ("specs/annulus.json", [0], (2,), 0, 1),
]


def golden_witness(path, rows, exterior, j0, k):
    frame = SimplicialFrame.from_spec(load_spec(str(ROOT / path)), rows)
    return build_witness(WitnessSpec(frame=frame, k=k, exterior=radial(*exterior), j0=j0))


def seeded_witnesses(count, seed=23):
    """Witnesses on random integer frames with n = 2, 3 and k = 0..2."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice((2, 3))
        normals = [exponents(*(rng.randint(-3, 3) for _ in range(n))) for _ in range(n)]
        exterior = radial(*(rng.choice((Fraction(1, 2), Fraction(3, 2), 2, 3))
                            for _ in range(n)))
        try:
            frame = SimplicialFrame.from_rows(normals, [Fraction(1)] * n)
            out.append(build_witness(WitnessSpec(frame=frame, k=rng.randint(0, 2),
                                                 exterior=exterior, j0=rng.randrange(n))))
        except SpecError:  # dependent normals, or b^alpha_j0 <= 1
            continue
    return out


def per_order_tail_bound(w, k):
    """Oracle: the bound of order k and its own spot check, order by order."""
    if k == 0:
        bound = TailBound(1, 1, 0)
    else:
        big_p = max(w.N * abs(a) for a in w.alpha_sum) + k
        big_q = max(max(abs(a) for a in w.alpha_j0), 1)
        bound = TailBound(big_p, big_q, k)
    for mu in range(0, 1001, 25):
        m = [w.N * a + mu * aj for a, aj in zip(w.alpha_sum, w.alpha_j0)]
        for sigma in derivative_orders(w.frame.n, k):
            coef = 1
            for ml, sl in zip(m, sigma):
                coef *= falling_product(ml, sl)
            if abs(coef) > bound.value(mu):
                raise ReinhardtError(f"tail bound failed spot check at mu={mu}, sigma={sigma}")
    return bound


def test_shared_spot_check_matches_the_per_order_oracle():
    witnesses = [golden_witness(*case) for case in GOLDEN_WITNESSES] + seeded_witnesses(16)
    for w in witnesses:
        bounds = tuple(per_order_tail_bound(w, order) for order in range(w.k + 1))
        assert tail_bounds(w, w.k) == bounds == w.tails
        assert derive_tail_bound(w, w.k) == bounds[-1]


def test_a_lower_order_bound_keeps_its_own_spot_check(hartogs_frame, monkeypatch):
    """Order 1's P is cut to one below the least value that passes at mu = 0,
    N max|alpha_l|; the bound of order 2 still dominates every coefficient,
    so only order 1's own check can refuse the certificate."""
    make = witness._tail_bound

    def cut(tight):
        def bound(w, order):
            b = make(w, order)
            if order != 1:
                return b
            least = max(w.N * abs(a) for a in w.alpha_sum)
            return TailBound(least - (not tight), b.Q, b.R)
        return bound

    spec = WitnessSpec(frame=hartogs_frame, k=2, exterior=radial(3, Fraction(3, 2)), j0=0)
    monkeypatch.setattr(witness, "_tail_bound", cut(tight=True))
    assert verify_witness_membership(build_witness(spec), k=2).ok
    monkeypatch.setattr(witness, "_tail_bound", cut(tight=False))
    with pytest.raises(ReinhardtError, match="tail bound failed spot check at mu=0"):
        verify_witness_membership(build_witness(spec), k=2)


def test_series_evaluations_reuse_the_checked_bounds(hartogs_frame, monkeypatch):
    calls = []

    def counted(w, k):
        calls.append(k)
        return tail_bounds(w, k)

    monkeypatch.setattr(witness, "tail_bounds", counted)
    w = build_witness(WitnessSpec(frame=hartogs_frame, k=1,
                                  exterior=radial(3, Fraction(3, 2)), j0=0))
    z = (0.35 + 0.1j, 0.62 - 0.2j)
    for sigma in ((0, 0), (1, 0), (0, 1), (1, 0)):
        eval_witness_derivative(w, sigma, z)
    verify_witness_membership(w)
    assert calls == [1]
    eval_witness_derivative(w, (2, 0), z)  # above k: checked on demand
    assert calls == [1, 2]


def ladder_rungs(monkeypatch):
    """The bits of every rung that witness.py's ladder calls build from now on."""
    rungs = []

    def recording(build, *args, **kwargs):
        def rung(bits):
            rungs.append(bits)
            return build(bits)
        return ladder_sign(rung, *args, **kwargs)

    monkeypatch.setattr(witness, "ladder_sign", recording)
    return rungs


# 1/pi^2 to 3000 bits, cut to 2^-100: c pi^2 is within 2^-96 of 1, and the
# 64-bit enclosure of pi^2 straddles 1/c
INV_PI_SQUARED = 1 / (TWO_PI / 2) ** 2


@pytest.mark.parametrize("rounding, expected", [(math.floor, -1), (math.ceil, 1)])
def test_norm_vs_one_near_a_tie_goes_to_the_ladder(rounding, expected, monkeypatch):
    monkeypatch.delenv("REINHARDT_PRECISION", raising=False)  # the default ladder cap
    c = Fraction(rounding(INV_PI_SQUARED * 2 ** 100), 2 ** 100)
    norm = NormResult(kind="exact", coefficient=c, pi_power=2)
    lo, hi = pi_power_bounds(2, 64)
    assert c * lo < 1 < c * hi
    rungs = ladder_rungs(monkeypatch)
    ctx = _iv(512)
    gap = ctx.mpf(c.numerator) / c.denominator * ctx.pi ** 2 - 1  # the mpmath oracle
    oracle = 1 if gap.a > 0 else -1 if gap.b < 0 else 0
    assert witness._pi_sign(c, 2) == oracle == expected
    assert rungs[0] == 64 and max(rungs) > 64


def test_norm_vs_one_decides_exactly_away_from_ties(monkeypatch):
    monkeypatch.setenv("REINHARDT_PRECISION", "64")
    rungs = ladder_rungs(monkeypatch)
    sign = witness._pi_sign  # of c pi^n - 1
    assert sign(Fraction(1), 0) == 0
    assert sign(Fraction(1, 10), 2) == -1
    assert sign(Fraction(1, 9), 2) == 1
    assert sign(Fraction(4, 63), 2) == -1
    assert rungs == [64] * 3  # each decided at the first rung; pi^0 needs none


def test_golden_witnesses_verify_without_the_ladder(monkeypatch):
    """Both the ceiling of N0 and every norm test end at the first rung."""
    rungs = ladder_rungs(monkeypatch)
    for path, rows, exterior, j0, k in GOLDEN_WITNESSES:
        w = golden_witness(path, rows, exterior, j0, k)
        assert verify_witness_membership(w, p_list=[1, 2, 3]).ok
    assert rungs and set(rungs) == {64}
