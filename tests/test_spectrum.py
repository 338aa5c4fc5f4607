import math
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_spec

from reinhardt import (exponents, load_spec, lp_norm_finite, lp_norm_monte_carlo,
                       monomial_in_space, spectrum_box, spectrum_orthogonality_check)
from reinhardt import norms, spaces as sp
from reinhardt.cones import recession_meets_halfspace, unbounded_direction
from reinhardt.spectrum import monomial_defined


def test_monomial_examples(hartogs, multiplicative_strip):
    assert monomial_in_space(hartogs, (1, -1), sp.hinf()).is_yes
    no = monomial_in_space(hartogs, (0, -1), sp.hinf())
    assert no.verdict == "no" and no.criterion == "sup-unbounded"
    l2 = monomial_in_space(multiplicative_strip, (1, 1), sp.l2())
    assert l2.verdict == "no" and l2.criterion == "recession-obstruction"


def test_undefined_monomials(polydisc, disc_times_plane):
    v = monomial_in_space(polydisc, (-1, 0), sp.hinf())
    assert v.verdict == "no" and v.criterion == "undefined-on-interior-axis"
    v2 = monomial_in_space(disc_times_plane, (0, -1), sp.hinf())
    assert v2.verdict == "no" and v2.criterion == "undefined-on-interior-axis"


def test_monomial_exponents_must_be_integers(hartogs):
    with pytest.raises(ValueError, match="not an integer exponent vector"):
        monomial_in_space(hartogs, (Fraction(3, 2), Fraction(1, 2)), sp.hinf())
    for nu in (exponents(1, 0), (Fraction(2), 0)):
        assert monomial_in_space(hartogs, nu, sp.hinf()).is_yes


def test_spectrum_box_examples(multiplicative_strip, disc_times_plane, polydisc):
    assert spectrum_box(multiplicative_strip, sp.hinf(), 3) == [
        (0, 0), (1, 1), (2, 2), (3, 3)]
    assert spectrum_box(disc_times_plane, sp.hinf(), 2) == [(0, 0), (1, 0), (2, 0)]
    assert spectrum_box(polydisc, sp.hinf(), 1) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_spectrum_orthogonality(multiplicative_strip, disc_times_plane, hartogs):
    assert spectrum_orthogonality_check(multiplicative_strip, 5)
    assert spectrum_orthogonality_check(disc_times_plane, 5)
    assert spectrum_orthogonality_check(hartogs, 5)  # vacuous: trivial lineality


def test_spectrum_orthogonality_seeded():
    rng = random.Random(77)
    for _ in range(4):
        spec = random_spec(rng, 2, force_lineality=True)
        assert spectrum_orthogonality_check(spec, 4)


@pytest.mark.parametrize("k", [0, 1])
def test_inclusion_chain(hartogs, annulus, k):
    for spec, radius in ((hartogs, 3), (annulus, 3)):
        box_ak = set(spectrum_box(spec, sp.ak(k), radius))
        box_hinfk = set(spectrum_box(spec, sp.hinf_k(k), radius))
        box_hinf = set(spectrum_box(spec, sp.hinf(), radius))
        box_ldiamond = set(spectrum_box(spec, sp.ldiamond_ak(k), radius))
        assert box_ak <= box_hinfk <= box_hinf       # bounded domains
        assert box_hinfk <= box_ldiamond             # finite volume domains


def test_hinf_spectrum_is_monoid(hartogs, multiplicative_strip):
    for spec, radius in ((hartogs, 3), (multiplicative_strip, 3)):
        box = set(spectrum_box(spec, sp.hinf(), radius))
        for a in box:
            for b in box:
                s = tuple(x + y for x, y in zip(a, b))
                if all(abs(x) <= radius for x in s):
                    assert s in box


def test_ak_indeterminate_case(hartogs):
    # z1^2/z2 is bounded with bounded first derivatives, but d/dz1 does not
    # extend continuously to the origin: outside the sufficient criteria
    v = monomial_in_space(hartogs, (2, -1), sp.ak(1))
    assert v.verdict == "indeterminate"
    assert monomial_in_space(hartogs, (2, -1), sp.hinf_k(1)).is_yes


def test_ak_recursion_on_free_coordinates(disc_times_plane):
    # z1 on E x C: continuity at the z2-axis stratum needs the projection step
    assert monomial_in_space(disc_times_plane, (1, 0), sp.ak(1)).is_yes
    assert monomial_in_space(disc_times_plane, (0, 0), sp.ak(2)).is_yes


def test_annulus_all_integers_in_every_space(annulus):
    for k in (0, 1):
        assert spectrum_box(annulus, sp.ak(k), 4) == [(-4,), (-3,), (-2,), (-1,),
                                                      (0,), (1,), (2,), (3,), (4,)]
        assert spectrum_box(annulus, sp.ldiamond_ak(k), 2) == [
            (-2,), (-1,), (0,), (1,), (2,)]


def test_l2_spectrum_vs_norm_finiteness(hartogs):
    from reinhardt import lp_norm_finite
    for nu in ((0, 0), (1, -1), (3, 2), (-1, 2), (0, -2)):
        member = monomial_in_space(hartogs, nu, sp.l2()).is_yes
        defined = monomial_in_space(hartogs, nu, sp.hinf()).criterion != \
            "undefined-on-interior-axis"
        if defined:
            assert member == lp_norm_finite(hartogs, exponents(*nu), 2)


def test_mc_consistency_on_spectrum_members(hartogs):
    # members of the L^1 spectrum have stable Monte-Carlo norms under doubling
    members = [nu for nu in spectrum_box(hartogs, sp.lp(1), 2) if nu != (0, 0)][:2]
    for nu in members:
        small = lp_norm_monte_carlo(hartogs, exponents(*nu), 1, 40_000, seed=21)
        big = lp_norm_monte_carlo(hartogs, exponents(*nu), 1, 80_000, seed=21)
        assert math.isfinite(small.estimate) and small.estimate > 0
        assert abs(small.estimate - big.estimate) <= 3 * math.hypot(small.stderr,
                                                                    big.stderr)


def test_spaces_without_monomial_criterion():
    # the classifier's families without a per-monomial criterion are no spaces
    for kind in ("ainf", "s_of_g", "hinf_closure"):
        with pytest.raises(ValueError, match="unknown function space"):
            sp.FunctionSpace(kind)


def test_order_k_must_be_an_int(hartogs):
    # k = 1.5 used to build and then fail inside ``range`` at the first query
    for k in (1.5, True, "1", None, -1):
        with pytest.raises(ValueError, match="integer parameter k >= 0"):
            sp.ak(k)
    assert monomial_in_space(hartogs, (1, 0), sp.ak(1)).criterion == "axis-vanishing-certified"


def test_exponent_p_is_held_as_a_fraction(hartogs):
    # p = "3/2" used to build and then fail on str + int at the first query
    space = sp.FunctionSpace(sp.LP, p="3/2")
    assert space.p == Fraction(3, 2) and type(space.p) is Fraction
    assert space == sp.lp(Fraction(3, 2)) and str(space) == "lp(3/2)"
    assert monomial_in_space(hartogs, (1, 0), space) == \
        monomial_in_space(hartogs, (1, 0), sp.lp(Fraction(3, 2)))
    for p in ("x", None, "1/2", float("inf")):
        with pytest.raises(ValueError, match="rational parameter p >= 1"):
            sp.FunctionSpace(sp.LP, p=p)


def test_ldiamond_large_p_obstruction(disc_times_plane):
    # z1 is bounded on E x C and in no L^p: the free factor blocks every p
    v = monomial_in_space(disc_times_plane, (1, 0), sp.ldiamond_ak(0))
    assert v.verdict == "no"
    # on the multiplicative strip the diagonal direction kills the constant
    # at the p -> infinity end only when <2*1, d> >= 0


CHAIN3 = load_spec(str(Path(__file__).resolve().parent / "specs" / "chain3.json"))


def _fraction_weight(poly, nu, p):
    """Oracle: the recession direction against the weight p nu + 2*1 built
    as Fractions, as integrability was asked before the weight was an integer row."""
    return recession_meets_halfspace(poly, [Fraction(p) * e + 2 for e in nu])


def _fraction_weight_membership(spec, nu, space):
    """Oracle: (verdict, criterion, evidence) of an L^p, L^2 or L-diamond
    membership of a defined monomial, on Fraction weights."""
    poly = spec.log_polyhedron
    if space.kind != sp.LDIAMOND_AK:
        bad = _fraction_weight(poly, nu, 2 if space.kind == sp.L2 else space.p)
        if bad is None:
            return "yes", "integrable-recession", {}
        return "no", "recession-obstruction", {"direction": [str(x) for x in bad]}
    for sigma in product(range(space.k + 1), repeat=len(nu)):
        if sum(sigma) > space.k or any(0 <= e < s for e, s in zip(nu, sigma)):
            continue
        m = tuple(e - s for e, s in zip(nu, sigma))
        for p in (Fraction(1), Fraction(2)):
            bad = _fraction_weight(poly, m, p)
            if bad is not None:
                return "no", "recession-obstruction", {"sigma": list(sigma), "p": str(p),
                                                       "direction": [str(x) for x in bad]}
        ray = unbounded_direction(poly, m)
        if ray is not None:
            return "no", "large-p-obstruction", {"sigma": list(sigma),
                                                 "direction": [str(x) for x in ray]}
    return "yes", "all-p-integrable", {}


@settings(max_examples=300, deadline=10_000)
@given(st.sampled_from(["annulus", "chain3", "disc_times_plane", "hartogs", "hartogs_half",
                        "irrational_slope", "multiplicative_strip", "polydisc", "unit_disc"]),
       st.lists(st.integers(-4, 4), min_size=3, max_size=3),
       st.sampled_from([1, Fraction(3, 2), 2, Fraction(7, 3), 5]), st.integers(0, 2))
def test_integer_lp_weights_answer_as_fraction_weights(gallery, name, nu, p, k):
    """den(p) (p nu + 2*1) in integers is a positive multiple of p nu + 2*1:
    every membership, finiteness and divergent ray stays as it was."""
    spec = CHAIN3 if name == "chain3" else gallery[name]
    nu = tuple(nu[:spec.n])
    finite = _fraction_weight(spec.log_polyhedron, nu, p) is None
    assert lp_norm_finite(spec, nu, p) == finite
    ray = norms.divergent_ray(spec, nu, Fraction(p))
    assert (ray is None) == finite and ray == (
        None if finite else tuple(_fraction_weight(spec.log_polyhedron, nu, p)))
    if not monomial_defined(spec, nu):
        return
    for space in (sp.lp(p), sp.l2(), sp.ldiamond_ak(k)):
        got = monomial_in_space(spec, nu, space)
        assert (got.verdict, got.criterion, got.evidence) == _fraction_weight_membership(
            spec, nu, space)
