import math
from fractions import Fraction

import numpy as np
import pytest

from reinhardt import (MonteCarloError, coefficient_inequality_check, cones, contains, exponents,
                       load_spec, lp_norm_monte_carlo, radial)
from reinhardt.montecarlo import (_BOUNDARY_BAND, BLOCK_SIZE, _Sampler, _weighted_powers,
                                  bounding_radii)
from conftest import SPEC_DIR

N_SMOKE = 200_000


def test_mc_matches_exact_hartogs_volume(hartogs):
    result = lp_norm_monte_carlo(hartogs, exponents(0, 0), 1, N_SMOKE, seed=42)
    exact = math.pi ** 2 / 2
    assert abs(result.estimate - exact) <= 3 * result.stderr
    assert result.stderr / exact <= 0.02


def test_mc_matches_exact_polydisc_norm(polydisc):
    result = lp_norm_monte_carlo(polydisc, exponents(1, 0), 2, N_SMOKE, seed=7)
    exact = math.pi ** 2 / 2
    assert abs(result.estimate - exact) <= 3 * result.stderr


def test_mc_annulus_volume(annulus):
    result = lp_norm_monte_carlo(annulus, exponents(0), 1, N_SMOKE, seed=3)
    exact = 3 * math.pi / 4  # pi (1 - (1/2)^2)
    assert abs(result.estimate - exact) <= 3 * result.stderr


def test_mc_bit_reproducible(hartogs):
    a = lp_norm_monte_carlo(hartogs, exponents(0, 0), 1, 50_000, seed=99)
    b = lp_norm_monte_carlo(hartogs, exponents(0, 0), 1, 50_000, seed=99)
    assert a.estimate == b.estimate and a.stderr == b.stderr
    c = lp_norm_monte_carlo(hartogs, exponents(0, 0), 1, 50_000, seed=100)
    assert c.estimate != a.estimate


def test_bounding_radii(hartogs, hartogs_half):
    box = bounding_radii(hartogs)
    assert box == pytest.approx([1.0, 1.0], rel=1e-6)
    box2 = bounding_radii(hartogs_half)
    assert box2 == pytest.approx([0.5, 0.5], rel=1e-6)


@pytest.mark.parametrize("exps", [(1.0,), (2.0,), (-1.0,), (0.0, 0.0), (1.0, 1.0), (1.0, 0.0),
                                  (0.0, 2.0), (2.0, 1.0), (3.0, 1.5), (1.0, 0.0, 2.0),
                                  (0.0, 1.0, 1.0, 1.0)])
def test_weighted_powers_match_the_reference_expression(exps):
    """Every value, not only the sums, equals the plain numpy expression."""
    rng = np.random.default_rng(len(exps))
    r = 0.01 + rng.random((5000, len(exps)))
    ok = rng.random(5000) < 0.6
    weight = math.pi ** 2 * (1.0 + 1e-9) ** 4
    expected = np.zeros(5000)
    expected[ok] = weight * np.prod(r[ok] ** np.array(exps), axis=1)
    got = _weighted_powers(r, ok, np.array(exps), weight, np.empty(5000))
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("name", ["hartogs", "annulus", "polydisc", "hartogs_half"])
def test_acceptance_matches_the_reference_mask(name):
    """The row-by-row mask equals the slack matrix with the exact re-check."""
    spec = load_spec(str(SPEC_DIR / f"{name}.json"))
    alpha = np.array([[float(a) for a in con.alpha.components] for con in spec.constraints])
    log_c = np.array([math.log(float(con.c)) for con in spec.constraints])
    sampler = _Sampler(spec, 5, with_phases=False)
    for b in (0, 3):
        r, _, ok = sampler.block(b, 20_000)
        slack = log_c - np.log(r) @ alpha.T
        expected = (slack > _BOUNDARY_BAND).all(axis=1)
        for idx in np.flatnonzero(~expected & (slack > -_BOUNDARY_BAND).all(axis=1)):
            expected[idx] = contains(spec, radial(*[Fraction(float(x)) for x in r[idx]]))
        assert np.array_equal(ok, expected)


def test_bounding_radii_solves_its_lps_once_per_domain(monkeypatch):
    calls = []
    solve = cones.lp_optimize
    monkeypatch.setattr(cones, "lp_optimize", lambda *a: calls.append(a) or solve(*a))
    spec = load_spec(str(SPEC_DIR / "hartogs.json"))
    first = bounding_radii(spec)
    lp_norm_monte_carlo(spec, exponents(1, 0), 1, 1000, seed=1)
    coefficient_inequality_check(spec, {(1, 0): 1.0}, 1, 1000, seed=1)
    assert np.array_equal(bounding_radii(spec), first)
    assert len(calls) == spec.n


def test_bounding_radii_cannot_be_corrupted_by_callers():
    spec = load_spec(str(SPEC_DIR / "hartogs_half.json"))
    before = lp_norm_monte_carlo(spec, exponents(1, 0), 1, BLOCK_SIZE + 7, seed=3)
    box = bounding_radii(spec)
    box *= 4.0
    assert bounding_radii(spec) == pytest.approx([0.5, 0.5], rel=1e-6)
    assert lp_norm_monte_carlo(spec, exponents(1, 0), 1, BLOCK_SIZE + 7, seed=3) == before


def test_mc_rejects_unbounded(disc_times_plane):
    with pytest.raises(MonteCarloError):
        lp_norm_monte_carlo(disc_times_plane, exponents(0, 0), 1, 1000, seed=1)


def test_coefficient_inequality_polydisc(polydisc):
    report = coefficient_inequality_check(
        polydisc, {(0, 0): 1.0, (1, 0): 1.0}, 2, N_SMOKE, seed=11)
    assert report.passed
    # orthogonality oracle: |f|^2 integrates to the sum of the term norms
    term_sum = sum(t.value for t in report.terms)
    spread = 3 * math.hypot(report.total_stderr,
                            *[t.stderr for t in report.terms])
    assert abs(report.total - term_sum) <= spread
    assert report.terms[0].value == pytest.approx(math.pi ** 2, rel=0.02)
    assert report.terms[1].value == pytest.approx(math.pi ** 2 / 2, rel=0.02)


def test_coefficient_inequality_annulus_laurent(annulus):
    report = coefficient_inequality_check(
        annulus, {(1,): 1.0, (-1,): 1.0}, 2, N_SMOKE, seed=12)
    assert report.passed
    # oracle in 1d: int_ann r^2 r dr dtheta and int_ann r^-2 r dr dtheta
    hi, lo = 1.0, 0.5
    t_plus = 2 * math.pi * (hi ** 4 - lo ** 4) / 4
    t_minus = 2 * math.pi * math.log(hi / lo)
    by_nu = {t.nu: t.value for t in report.terms}
    assert by_nu[(1,)] == pytest.approx(t_plus, rel=0.03)
    assert by_nu[(-1,)] == pytest.approx(t_minus, rel=0.03)


def test_single_monomial_is_tight(hartogs):
    report = coefficient_inequality_check(hartogs, {(1, 0): 0.5 + 0.5j}, 1,
                                          50_000, seed=5)
    assert report.passed
    assert report.total == pytest.approx(report.terms[0].value, abs=1e-12)


def test_undefined_monomial_rejected(polydisc):
    with pytest.raises(MonteCarloError):
        coefficient_inequality_check(polydisc, {(-1, 0): 1.0}, 1, 1000, seed=1)
