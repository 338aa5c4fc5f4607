import cmath
import math
import random
from fractions import Fraction

import pytest
from mpmath import libmp

from reinhardt import (SimplicialFrame, SpecError, build_witness, compute_n0,
                       derive_tail_bound, eval_witness_derivative, radial,
                       verify_witness_membership)
from reinhardt.domain import exponents
from reinhardt.witness import N0Result, WitnessSpec, falling_product


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
