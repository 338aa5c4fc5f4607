"""Exact norm formula against independent quadrature oracles.

Oracle values are computed from iterated integrals over the radius region
(scipy quadrature), never through the basis-coordinates formula under test.
"""

import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import integrate

import reinhardt
from reinhardt import (SimplicialFrame, compute_n0, exponents, find_integrable_monomial,
                       lp_norm_exact_simplicial, lp_norm_finite, norms, sup_norm_monomial)
from reinhardt.domain import LogPolyhedron, load_spec, parse_spec
from reinhardt.errors import ReinhardtError, SpecError
from reinhardt.loglin import LogLin
from reinhardt.scalars import quad, scalar_cmp, sign_of
from reinhardt.witness import N0Result, derivative_orders
from reinhardt.simplex import OPTIMAL, UNBOUNDED, LPCertificate


def oracle_hartogs_integral(p_nu):
    """(2 pi)^2 int_{0<r1<r2<1} r1^e1 r2^e2 r1 r2 dr1 dr2 by quadrature."""
    e1, e2 = p_nu
    val, err = integrate.dblquad(
        lambda r1, r2: r1 ** (e1 + 1) * r2 ** (e2 + 1),
        0, 1, lambda r2: 0, lambda r2: r2)
    return (2 * math.pi) ** 2 * val, (2 * math.pi) ** 2 * err


def test_hartogs_volume_matches_oracle(hartogs):
    frame = SimplicialFrame.from_spec(hartogs)
    result = lp_norm_exact_simplicial(frame, (0, 0), 1)
    assert result.symbolic() == "pi^2/2"
    oracle, err = oracle_hartogs_integral((0, 0))
    lo, hi = result.interval()
    assert abs(float(lo) - oracle) <= 1e-8 + 10 * err
    assert math.isclose(oracle, math.pi ** 2 / 2, rel_tol=1e-10)


def test_hartogs_monomial_norm_matches_oracle(hartogs):
    frame = SimplicialFrame.from_spec(hartogs)
    result = lp_norm_exact_simplicial(frame, exponents(5, 0), 1)
    assert result.symbolic() == "4*pi^2/63"
    oracle, err = oracle_hartogs_integral((5, 0))
    assert abs(float(result) - oracle) <= 1e-8 + 10 * err


def test_polydisc_square_norm(polydisc):
    frame = SimplicialFrame.from_spec(polydisc)
    result = lp_norm_exact_simplicial(frame, exponents(1, 0), 2)
    # oracle: int_E |z|^2 dA = pi/2, times the area pi of the second disc
    assert result.symbolic() == "pi^2/2"
    val, _ = integrate.quad(lambda r: r ** 3, 0, 1)
    assert math.isclose((2 * math.pi) * val * math.pi, float(result), rel_tol=1e-10)


def test_norm_exponents_must_be_integers(hartogs, polydisc):
    frame = SimplicialFrame.from_spec(polydisc)
    with pytest.raises(ValueError, match="not an integer exponent vector"):
        lp_norm_exact_simplicial(frame, (Fraction(1, 2), 0), 2)
    with pytest.raises(ValueError, match="not an integer exponent vector"):
        lp_norm_finite(hartogs, (Fraction(1, 2), 0), 2)
    assert lp_norm_exact_simplicial(frame, (Fraction(1), 0), 2).symbolic() == "pi^2/2"
    assert lp_norm_finite(hartogs, (Fraction(2), 0), 2) is True
    # a sup norm takes any field exponents
    assert sup_norm_monomial(hartogs, (Fraction(1, 2), 0)).symbolic() == "1"


def test_dilated_hartogs_threshold_factor(hartogs_half):
    frame = SimplicialFrame.from_spec(hartogs_half)
    result = lp_norm_exact_simplicial(frame, (0, 0), 1)
    assert result.symbolic() == "pi^2/32"
    # oracle: the half-dilation scales the volume by (1/2)^4
    assert math.isclose(float(result), math.pi ** 2 / 32, rel_tol=1e-10)


def test_infinite_when_coords_not_positive(disc_times_plane, multiplicative_strip):
    spec = parse_spec('{"n":1,"constraints":[{"alpha":["-1"],"c":"2"}]}')
    frame = SimplicialFrame.from_spec(spec)  # exterior of a disc
    result = lp_norm_exact_simplicial(frame, exponents(0), 1)
    assert result.kind == "infinite" and result.ray is not None


def test_finiteness_consistency_on_frames(hartogs, polydisc):
    for spec in (hartogs, polydisc):
        frame = SimplicialFrame.from_spec(spec)
        for e1 in range(-3, 4):
            for e2 in range(-3, 4):
                nu = exponents(e1, e2)
                for p in (1, 2, Fraction(7, 2)):
                    exact = lp_norm_exact_simplicial(frame, nu, p)
                    assert (exact.kind == "infinite") == (not lp_norm_finite(spec, nu, p))


def test_lp_norm_finite_examples(hartogs, disc_times_plane, multiplicative_strip):
    assert lp_norm_finite(multiplicative_strip, exponents(0, 0), 2) is False
    for p in (1, 2, 5):
        assert lp_norm_finite(hartogs, exponents(0, 0), p) is True
    assert lp_norm_finite(disc_times_plane, exponents(0, 0), 1) is False


def test_sup_norm_examples(hartogs, polydisc):
    assert sup_norm_monomial(hartogs, exponents(2, -1)).symbolic() == "1"
    assert sup_norm_monomial(hartogs, exponents(0, -1)).kind == "infinite"
    assert sup_norm_monomial(polydisc, exponents(3, 1)).symbolic() == "1"


def test_sup_norm_symbolic_thresholds(hartogs_half):
    # sup |z2| on the half-dilated Hartogs triangle is 1/2
    result = sup_norm_monomial(hartogs_half, exponents(0, 1))
    assert result.kind == "exact" and result.coefficient == Fraction(1, 2)
    # sup |z1| is also 1/2 (x1 < x2 < log(1/2))
    result = sup_norm_monomial(hartogs_half, exponents(1, 0))
    assert result.coefficient == Fraction(1, 2)


def test_sup_monotone_in_frame_cone(hartogs):
    # coords(nu - nu') >= 0 implies sup |z^nu| <= sup |z^nu'| on unit frames
    frame = SimplicialFrame.from_spec(hartogs)
    pairs = [((2, 0), (1, 0)), ((3, -1), (2, -1)), ((2, 1), (1, 1))]
    for nu, nu_smaller in pairs:
        diff = [Fraction(a - b) for a, b in zip(nu, nu_smaller)]
        assert all(sign_of(t) >= 0 for t in frame.basis_coords(diff))
        big = sup_norm_monomial(hartogs, exponents(*nu))
        small = sup_norm_monomial(hartogs, exponents(*nu_smaller))
        assert float(big) <= float(small) + 1e-12


@settings(max_examples=25, deadline=None)
@given(e1=st.integers(-2, 4), e2=st.integers(-2, 4), p=st.sampled_from([1, 2, 3]),
       num=st.integers(1, 5), den=st.integers(1, 5))
def test_threshold_scaling_homogeneity(e1, e2, p, num, den):
    # scaling both thresholds by t multiplies the integral by t^(sum of coords)
    t = Fraction(num, den)
    base = SimplicialFrame.from_rows(
        [exponents(1, -1), exponents(0, 1)], [Fraction(1), Fraction(1)])
    scaled = SimplicialFrame.from_rows(
        [exponents(1, -1), exponents(0, 1)], [t, t])
    nu = exponents(e1, e2)
    a = lp_norm_exact_simplicial(base, nu, p)
    b = lp_norm_exact_simplicial(scaled, nu, p)
    assert (a.kind == "infinite") == (b.kind == "infinite")
    if a.kind == "exact":
        w = [Fraction(p) * Fraction(e) + 2 for e in (e1, e2)]
        power = sum(base.basis_coords(w))
        # integer-frame coords are rational, so everything folds: exact equality
        assert b.coefficient == a.coefficient * t ** power
        assert b.pi_power == a.pi_power and b.factors == a.factors == ()


def test_sup_scales_with_uniform_thresholds():
    # thresholds (t, t) multiply sup |z^nu| by t to the sum of the coords of nu
    third = parse_spec('{"n":2,"constraints":[{"alpha":["1","-1"],"c":"1/3"},'
                       '{"alpha":["0","1"],"c":"1/3"}]}')
    frame = SimplicialFrame.from_spec(third)
    result = sup_norm_monomial(third, exponents(1, 0))
    power = sum(frame.basis_coords([Fraction(1), Fraction(0)]))
    assert power == 2 and result.coefficient == Fraction(1, 9)  # (1/3)^2


def test_find_integrable_monomial(hartogs, multiplicative_strip, disc_times_plane):
    nu, p = find_integrable_monomial(hartogs)
    assert nu == (0, 0) and p == 1
    assert find_integrable_monomial(multiplicative_strip) is None
    assert find_integrable_monomial(disc_times_plane) is None


def test_find_integrable_needs_search():
    # rec cone has the ray (-1, 1): the constant monomial is not integrable
    spec = parse_spec(
        '{"n":2,"constraints":[{"alpha":["1","-1"],"c":"1"},{"alpha":["1","1"],"c":"1"}]}')
    found = find_integrable_monomial(spec)
    assert found is not None
    nu, p = found
    assert lp_norm_finite(spec, nu, p)
    assert not lp_norm_finite(spec, exponents(0, 0), 1)


def test_frame_requires_square_independent(hartogs, annulus):
    with pytest.raises(Exception):
        SimplicialFrame.from_spec(annulus)  # 2 constraints in dimension 1
    with pytest.raises(Exception):
        SimplicialFrame.from_rows([exponents(1, 1), exponents(2, 2)],
                                  [Fraction(1), Fraction(1)])


@pytest.mark.parametrize("call", [
    lambda h: lp_norm_exact_simplicial(SimplicialFrame.from_spec(h), (1,), 2),
    lambda h: lp_norm_finite(h, (1, 2, 3), 2),
    lambda h: sup_norm_monomial(h, exponents(1)),
    lambda h: norms.lp_optimize(exponents(1, 0, 0), h.log_polyhedron),
    lambda h: norms.recession_improving_direction(h.log_polyhedron, exponents(1)),
    lambda h: reinhardt.monomial_in_space(h, (1,), reinhardt.FunctionSpace("hinf")),
    lambda h: reinhardt.lp_norm_monte_carlo(h, (1,), 1, 100, 1),
    lambda h: reinhardt.lp_norm_monte_carlo(h, (0, 0, 1), 1, 100, 1),
    lambda h: reinhardt.coefficient_inequality_check(h, {(1,): 1}, 2, 100, 1),
], ids=["exact", "finite", "sup", "lp_optimize", "ray", "membership", "mc", "mc-long",
        "coefficient"])
def test_every_monomial_entry_point_checks_the_exponent_length(hartogs, call):
    # a short vector was truncated by zip and a long one raised IndexError
    with pytest.raises(ValueError, match=r"length [13], expected 2|mismatched lengths"):
        call(hartogs)


def test_frame_over_two_fields_is_refused():
    # |det| = sqrt6: neither field's arithmetic alone gets it
    with pytest.raises(ValueError, match="mixed quadratic fields"):
        SimplicialFrame.from_rows([(quad(0, 1, 2), Fraction(0)), (Fraction(0), quad(0, 1, 3))],
                                  [Fraction(1), Fraction(1)])


def test_frame_on_reordered_rows_builds_its_own_polyhedron():
    chain3 = load_spec(str(Path(__file__).resolve().parent / "specs" / "chain3.json"))
    frame = SimplicialFrame.from_spec(chain3, rows=[2, 0, 1])
    assert "polyhedron" not in frame.__dict__  # not the spec's list in order: nothing shared
    chosen = [chain3.constraints[i] for i in (2, 0, 1)]
    fresh = LogPolyhedron(n=3, normals=tuple(c.alpha for c in chosen),
                          offsets=tuple(c.c for c in chosen))
    assert frame.polyhedron is not chain3.log_polyhedron
    assert frame.polyhedron.normals == fresh.normals
    assert frame.polyhedron.approach_supports == fresh.approach_supports
    assert set(fresh.approach_supports) == set(chain3.log_polyhedron.approach_supports)


def test_rescaled_to_unit(hartogs_half):
    frame = SimplicialFrame.from_spec(hartogs_half)
    unit, shift = frame.rescaled_to_unit()
    assert all(c == 1 for c in unit.thresholds)
    # the shift solves A x = log c: x1 - x2 = log 1 = 0 and x2 = log(1/2)
    assert (shift[0] - shift[1]).is_zero()
    assert (shift[1] - _log_half()).is_zero()


def _log_half():
    from reinhardt.loglin import LogLin
    return LogLin.log_of(Fraction(1, 2))


def test_sup_norm_rejects_unexpected_lp_answers(monkeypatch, polydisc):
    # library checks, not asserts: they must hold under ``python -O`` too
    nu = exponents(1, 1)
    monkeypatch.setattr(norms, "lp_optimize", lambda *_args: LPCertificate(status=UNBOUNDED))
    with pytest.raises(ReinhardtError, match="expected optimal"):
        sup_norm_monomial(polydisc, nu)
    offset = LPCertificate(status=OPTIMAL, objective=LogLin.of(1))
    monkeypatch.setattr(norms, "lp_optimize", lambda *_args: offset)
    with pytest.raises(ReinhardtError, match="offset-only"):
        sup_norm_monomial(polydisc, nu)
    # |z1|^-1 is unbounded on the polydisc: the ray LP must then find a ray
    monkeypatch.setattr(norms, "recession_improving_direction", lambda *_args: None)
    with pytest.raises(ReinhardtError, match="disagrees with the recession generators"):
        sup_norm_monomial(polydisc, exponents(-1, 0))


# -- frames against a Fraction oracle ------------------------------------------

def oracle_coords(a, x):
    """t with t A = x, by plain Gaussian elimination on the scalars of A^T | x,
    and |det A|: the oracle for the integer coordinates of a frame."""
    n = len(a)
    m = [[a[j][i] for j in range(n)] + [x[i]] for i in range(n)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if sign_of(m[r][c]) != 0), None)
        if pivot is None:
            return None, 0
        m[c], m[pivot] = m[pivot], m[c]
        for r in range(n):
            if r != c and sign_of(m[r][c]) != 0:
                f = m[r][c] / m[c][c]
                m[r] = [u - f * v for u, v in zip(m[r], m[c])]
    det = Fraction(1)
    for i in range(n):
        det = det * m[i][i]
    return [m[i][n] / m[i][i] for i in range(n)], (det if sign_of(det) > 0 else -det)


def oracle_norm(a, thresholds, nu, p) -> norms.NormResult:
    n = len(a)
    t, det_abs = oracle_coords(a, [p * c + 2 for c in nu])
    for j in range(n):
        if sign_of(t[j]) <= 0:
            column = [oracle_coords(a, [int(i == ell) for i in range(n)])[0][j]
                      for ell in range(n)]
            return norms.NormResult(kind="infinite", ray=tuple(-x for x in column))
    denom = det_abs
    for x in t:
        denom = denom * x
    return norms.make_exact_norm(Fraction(2) ** n / denom, n, list(zip(thresholds, t)))


def oracle_n0(a, k) -> N0Result:
    """Both maxima of the N0 threshold over every sigma with |sigma| <= k + 1."""
    n = len(a)
    two, det_abs = oracle_coords(a, [2] * n)
    shift_max, log_branch_max = Fraction(0), None
    for sigma in derivative_orders(n, k + 1):
        coords = oracle_coords(a, list(sigma))[0]
        for j in range(n):
            if scalar_cmp(coords[j], shift_max) > 0:
                shift_max = coords[j]
            cand = coords[j] - two[j]
            if log_branch_max is None or scalar_cmp(cand, log_branch_max) > 0:
                log_branch_max = cand
    return N0Result(shift_max=shift_max, log_branch_max=log_branch_max, det_abs=det_abs, n=n)


@settings(max_examples=60, deadline=3000)
@given(st.integers(1, 4), st.sampled_from([None, 2, 3, 5]), st.data())
def test_frame_matches_fraction_oracle(n, d, data):
    """Integer coordinates, exact norms and N0 on random invertible frames
    with integer normals, and with normals over Q(sqrt d) whose entries have
    denominators, against plain Gaussian elimination on the scalars."""
    small = st.integers(-3, 3)

    def entry():
        if d is None:
            return Fraction(data.draw(small))
        return quad(Fraction(data.draw(small), data.draw(st.integers(1, 2))),
                    Fraction(data.draw(small), data.draw(st.integers(1, 2))), d)

    a = [[entry() for _ in range(n)] for _ in range(n)]
    assume(oracle_coords(a, [0] * n)[1] != 0)
    thresholds = [Fraction(data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5)))
                  for _ in range(n)]
    frame = SimplicialFrame.from_rows(a, thresholds)
    x = [Fraction(data.draw(st.integers(-6, 6)), data.draw(st.integers(1, 3))) for _ in range(n)]
    t, det_abs = oracle_coords(a, x)
    assert frame.basis_coords(x) == tuple(t) and frame.det_abs == det_abs
    nu = [data.draw(small) for _ in range(n)]
    p = data.draw(st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2)]))
    assert lp_norm_exact_simplicial(frame, nu, p) == oracle_norm(a, thresholds, nu, p)
    k = data.draw(st.integers(0, 2))
    assert compute_n0(frame, k)[0] == oracle_n0(a, k)


def test_irrational_slope_rows_as_frames(irrational_slope):
    """The gallery's Q(sqrt 2) rows are dependent, (-1, -sqrt 2) = -(1, sqrt 2),
    so they make no frame; its first row with |z2| < 2 makes one."""
    with pytest.raises(SpecError, match="linearly dependent"):
        SimplicialFrame.from_spec(irrational_slope)
    s = quad(0, 1, 2)
    frame = SimplicialFrame.from_rows([irrational_slope.constraints[0].alpha, exponents(0, 1)],
                                      [Fraction(1), Fraction(2)])
    # A^-1 = ((1, -sqrt 2), (0, 1)): rational halves, then sqrt 2 halves, over den
    assert frame.det_abs == 1 and frame.den == 1
    assert frame.inverse == ([1, 0, 0, -1], [0, 1, 0, 0])
    assert frame.basis_coords([Fraction(1, 2), Fraction(3)]) == (Fraction(1, 2), 3 - s / 2)
    # t = (2, 2 - 2 sqrt 2): the volume is infinite along minus column 2 of A^-1
    assert lp_norm_exact_simplicial(frame, (0, 0), 1) == norms.NormResult(kind="infinite",
                                                                          ray=(s, -1))
    # t = (2, 5 - 2 sqrt 2): (2 pi)^2 2^(5 - 2 sqrt 2) / (2 (5 - 2 sqrt 2))
    assert lp_norm_exact_simplicial(frame, (0, 3), 1).symbolic() == \
        "(10/17+4/17*sqrt(2))*pi^2*(2)^(5-2*sqrt(2))"
    assert compute_n0(frame, 1)[0] == N0Result(shift_max=Fraction(2), log_branch_max=2 * s,
                                               det_abs=Fraction(1), n=2)
