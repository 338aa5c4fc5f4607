import math
import warnings
from fractions import Fraction

from itertools import product

import numpy as np
import pytest

from reinhardt import (MonteCarloError, coefficient_inequality_check, cones, contains, exponents,
                       load_spec, lp_norm_finite, lp_norm_monte_carlo, radial)
from reinhardt.montecarlo import (_BOUNDARY_BAND, BLOCK_SIZE, _Sampler, _weighted_powers,
                                  bounding_radii)
from reinhardt.linalg import dot
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


@pytest.mark.parametrize("samples", [0, -5])
def test_sample_count_must_be_positive(polydisc, samples):
    with pytest.raises(ValueError, match="samples"):
        lp_norm_monte_carlo(polydisc, exponents(0, 0), 1, samples, seed=1)
    with pytest.raises(ValueError, match="samples"):
        coefficient_inequality_check(polydisc, {(0, 0): 1.0}, 1, samples, seed=1)


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
    alpha = np.array([[float(a) for a in con.alpha] for con in spec.constraints])
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


def test_bounding_radii_exponentiate_the_held_log_bounds(gallery):
    for name, spec in gallery.items():
        logs = spec.log_polyhedron.radius_box
        if logs is None:
            with pytest.raises(MonteCarloError, match="unbounded"):
                bounding_radii(spec)
            continue
        assert all(isinstance(x, float) for x in logs)
        assert np.array_equal(bounding_radii(spec), np.exp(np.array(logs)) * (1.0 + 1e-9))


def test_divergent_integral_is_infinite_and_draws_no_sample(unit_disc, hartogs, monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled a divergent integral")

    monkeypatch.setattr(_Sampler, "block", no_sampling)
    # int_{|z|<1} |z|^-2 dA diverges at 0; on Hartogs |z_2|^-4 diverges along |z_1| < |z_2| -> 0
    for spec, nu, p in ((unit_disc, (-2,), 1), (hartogs, (0, -2), 2), (hartogs, (0, -1), 4)):
        result = lp_norm_monte_carlo(spec, exponents(*nu), p, 1000, seed=1)
        assert result.kind == "infinite" and result.estimate is None
        w = [Fraction(p) * c + 2 for c in nu]
        assert any(x != 0 for x in result.ray) and dot(w, result.ray) >= 0
        assert not lp_norm_finite(spec, nu, p)
    assert lp_norm_monte_carlo(unit_disc, exponents(-2), 1, 1000, seed=1).ray == (-1,)


@pytest.mark.parametrize("name", ["hartogs", "annulus", "polydisc", "hartogs_half",
                                  "unit_disc"])
def test_mc_divergence_agrees_with_lp_norm_finite(gallery, name):
    spec = gallery[name]
    for nu in product(range(-3, 2), repeat=spec.n):
        for p in (1, 2, Fraction(3, 2)):
            result = lp_norm_monte_carlo(spec, nu, p, 1, seed=1)
            assert (result.kind == "infinite") == (not lp_norm_finite(spec, nu, p))


def test_coefficient_check_refuses_a_divergent_term(hartogs):
    with pytest.raises(MonteCarloError, match=r"z\^\[0, -2\]\|\^2 diverges"):
        coefficient_inequality_check(hartogs, {(1, 0): 1.0, (0, -2): 0.5}, 2, 1000, seed=1)
    # the same term is finite at p = 1, and a zero coefficient adds nothing
    assert coefficient_inequality_check(hartogs, {(0, -2): 1.0}, 1, 1000, seed=1).passed
    coefficient_inequality_check(hartogs, {(1, 0): 1.0, (0, -2): 0.0}, 2, 1000, seed=1)


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_seeds_outside_64_bits_are_refused(polydisc, seed):
    with pytest.raises(ValueError, match="seed"):
        lp_norm_monte_carlo(polydisc, exponents(0, 0), 1, 1000, seed=seed)
    with pytest.raises(ValueError, match="seed"):
        coefficient_inequality_check(polydisc, {(0, 0): 1.0}, 1, 1000, seed=seed)


def test_every_64_bit_seed_pins_its_own_stream(annulus):
    """0 and 2^64 - 1 are accepted; seeds at and above 2^63 used to go
    through float64 into the Philox key, so 2^63 and 2^63 + 1 drew the same
    stream and 2^64 - 1 an invalid cast."""
    seeds = (0, 2 ** 63 - 1, 2 ** 63, 2 ** 63 + 1, 2 ** 64 - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        estimates = [lp_norm_monte_carlo(annulus, exponents(0), 1, 2000, seed=s).estimate
                     for s in seeds]
        report = coefficient_inequality_check(annulus, {(1,): 1.0}, 1, 2000, seed=2 ** 64 - 1)
    assert len(set(estimates)) == len(seeds)
    assert report.seed == 2 ** 64 - 1


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


def test_coefficient_exponents_must_be_integers(hartogs):
    with pytest.raises(ValueError, match="not an integer exponent vector"):
        coefficient_inequality_check(hartogs, {(Fraction(3, 2), 0): 1.0}, 1, 1000, seed=1)
    with pytest.raises(ValueError, match="not an integer exponent vector"):
        lp_norm_monte_carlo(hartogs, (Fraction(1, 2), 0), 1, 1000, seed=1)
    by_int = coefficient_inequality_check(hartogs, {(2, 0): 1.0}, 1, 1000, seed=1)
    for nu in (exponents(2, 0), (Fraction(2), 0)):
        report = coefficient_inequality_check(hartogs, {nu: 1.0}, 1, 1000, seed=1)
        assert report == by_int and report.terms[0].nu == (2, 0)
        assert lp_norm_monte_carlo(hartogs, nu, 1, 1000, seed=1) == \
            lp_norm_monte_carlo(hartogs, (2, 0), 1, 1000, seed=1)
