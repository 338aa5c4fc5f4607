import gc
import json
import random
import weakref
from fractions import Fraction

import mpmath
import pytest

from conftest import NEAR_TIE, SPEC_DIR

from reinhardt import (DomainSpec, EmptyDomainError, MonomialConstraint, SpecError, classify_all,
                       contains, exponents, has_finite_volume, is_bounded, parse_spec, radial,
                       spectrum_box)
from reinhardt import spaces as sp
from reinhardt.scalars import quad

HARTOGS = '{"n":2,"constraints":[{"alpha":["1","-1"],"c":"1"},{"alpha":["0","1"],"c":"1"}]}'


def test_parse_hartogs():
    spec = parse_spec(HARTOGS)
    assert spec.n == 2 and len(spec.constraints) == 2
    assert spec.constraints[0].alpha == (1, -1)
    assert spec.constraints[1].c == Fraction(1)


def test_parse_unit_disc():
    spec = parse_spec('{"n":1,"constraints":[{"alpha":["1"],"c":"1"}]}')
    assert spec.n == 1


def test_nonempty_spec_near_a_tie_parses_at_a_64_bit_cap(monkeypatch):
    # |z| < 1/2 and |z^sqrt2| < (1/2)^sqrt2 - O(2^-110): C = {d <= 0} has the
    # interior direction -1, so no LP runs, and the LP's near-tie ratio test
    # would exhaust a 64-bit ladder (BoundaryIndeterminate, exit 3)
    with mpmath.workprec(400):
        assert NEAR_TIE == Fraction(int(mpmath.floor(2 ** (110 - mpmath.sqrt(2)))), 2 ** 110)
    monkeypatch.setenv("REINHARDT_PRECISION", "64")
    spec = parse_spec(json.dumps({"n": 1, "quadratic_d": 2, "constraints": [
        {"alpha": ["1"], "c": "1/2"},
        {"alpha": [{"a": "0", "b": "1"}], "c": f"{NEAR_TIE.numerator}/{NEAR_TIE.denominator}"}]}))
    report = classify_all(spec)
    assert report.flags["bounded"] is True
    assert {v.value for v in report.verdicts.values()} == {"yes"}


@pytest.mark.parametrize("lower", [["-1"], [{"a": "0", "b": "-1"}]], ids=["z^-1", "z^-sqrt2"])
def test_nonempty_spec_near_a_tie_with_c_zero_parses_at_a_64_bit_cap(monkeypatch, lower):
    # the spec above and |z^-1| < 4 (or |z^-sqrt2| < 4): C = {0}, so Gordan's
    # test fails; the exact LP's near-tie ratio test exhausts a 64-bit ladder,
    # but the emptiness proof signs slacks of at least t* > 0 at its vertex
    monkeypatch.setenv("REINHARDT_PRECISION", "64")
    spec = parse_spec(json.dumps({"n": 1, "quadratic_d": 2, "constraints": [
        {"alpha": ["1"], "c": "1/2"},
        {"alpha": [{"a": "0", "b": "1"}], "c": f"{NEAR_TIE.numerator}/{NEAR_TIE.denominator}"},
        {"alpha": lower, "c": "4"}]}))
    assert contains(spec, radial(Fraction(2, 5)))
    assert classify_all(spec).flags["bounded"] is True


def test_normals_over_two_fields_are_refused():
    # the hinf lineality basis is (0, sqrt3/3, 1), not the sqrt2 field's (0, sqrt2/2, 1)
    spec = DomainSpec(n=3, constraints=(
        MonomialConstraint((quad(0, 1, 2), Fraction(0), Fraction(0)), Fraction(2)),
        MonomialConstraint((Fraction(0), quad(0, 1, 3), Fraction(-1)), Fraction(2))))
    with pytest.raises(ValueError, match="mixed quadratic fields"):
        classify_all(spec)


def test_parse_empty_polyhedron_rejected():
    doc = '{"n":1,"constraints":[{"alpha":["1"],"c":"1"},{"alpha":["-1"],"c":"1/2"}]}'
    with pytest.raises(EmptyDomainError):
        parse_spec(doc)


@pytest.mark.parametrize("doc", [
    '{"n":2}',  # missing constraints is allowed; this one is fine -> see below
])
def test_parse_whole_space_allowed(doc):
    spec = parse_spec(doc)
    assert spec.constraints == ()


@pytest.mark.parametrize("doc", [
    "not json",
    '[1,2]',
    '{"n":0,"constraints":[]}',
    '{"n":2,"constraints":[{"alpha":["1"],"c":"1"}]}',          # wrong alpha length
    '{"n":1,"constraints":[{"alpha":["1"],"c":"-1"}]}',         # c <= 0
    '{"n":1,"constraints":[{"alpha":["1"],"c":"0"}]}',
    '{"n":1,"constraints":[{"alpha":["0"],"c":"1"}]}',          # zero normal
    '{"n":1,"constraints":[{"alpha":["1"],"c":"1","x":1}]}',    # unknown field
    '{"n":1,"weird":true,"constraints":[]}',
    '{"n":1,"constraints":[{"alpha":["1.5"],"c":"1"}]}',        # bad literal
    '{"n":1,"quadratic_d":4,"constraints":[]}',                 # a perfect square
    '{"n":1,"quadratic_d":18446744073709551629,"constraints":[]}',  # 2^64 + 13: too large
    '{"n":1,"constraints":[{"alpha":[{"a":"1","b":"1"}],"c":"1"}]}',  # quad without d
    '{"n":1,"constraints":[{"alpha":["1"],"c":"1/0"}]}',        # zero denominator
    '{"n":1,"constraints":[{"alpha":["1"],"c":"1/00"}]}',
    '{"n":1,"constraints":[{"alpha":["1/0"],"c":"1"}]}',
    '{"n":1,"constraints":[{"alpha":["1\\n"],"c":"1"}]}',      # trailing newline
    '{"n":1,"constraints":[{"alpha":["\u0661"],"c":"1"}]}',    # non-ASCII digit
    '{"n":true,"constraints":[{"alpha":["1"],"c":"1"}]}',       # boolean n
    '{"n":1,"constraints":{"alpha":["1"],"c":"1"}}',            # constraints not an array
    '{"n":1,"constraints":[["1"]]}',                            # constraint not an object
])
def test_parse_rejects_malformed(doc):
    with pytest.raises(SpecError):
        parse_spec(doc)


@pytest.mark.parametrize("n,alphas,quadratic_d,message", [
    (0, [], None, "ambient dimension n must be >= 1"),
    (2, [(1, 0), (1,)], None, "constraint has 1 exponents, expected 2"),
    (1, [(1,)], 9, "quadratic_d=9 must be a non-square integer"),
    (1, [(1,)], 1, "quadratic_d=1 must be a non-square integer"),
])
def test_a_domain_spec_built_directly_validates_itself(n, alphas, quadratic_d, message):
    constraints = tuple(MonomialConstraint(exponents(*a), Fraction(1)) for a in alphas)
    with pytest.raises(SpecError, match=message):
        DomainSpec(n=n, constraints=constraints, quadratic_d=quadratic_d)


def test_log_polyhedron_order_preserved():
    spec = parse_spec(HARTOGS)
    poly = spec.log_polyhedron
    assert list(poly.normals) == [(1, -1), (0, 1)]
    assert list(poly.offsets) == [Fraction(1), Fraction(1)]


def test_derived_geometry_is_freed_with_the_spec():
    # no module-level memo may keep a domain alive once its caller drops it
    spec = parse_spec((SPEC_DIR / "hartogs_half.json").read_text(encoding="utf-8"))
    classify_all(spec)
    spectrum_box(spec, sp.ak(1), 1)
    refs = [weakref.ref(spec), weakref.ref(spec.log_polyhedron)]
    del spec
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_contains_axis_rules(hartogs, annulus):
    assert contains(hartogs, radial(0, Fraction(1, 2))) is True
    assert contains(hartogs, radial(0, 0)) is False        # negative power at 0
    assert contains(annulus, radial(0)) is False
    assert contains(hartogs, radial(Fraction(1, 4), Fraction(1, 2))) is True
    assert contains(hartogs, radial(Fraction(3, 4), Fraction(1, 2))) is False


def test_contains_boundary_is_exact(hartogs, unit_disc):
    # points exactly on a face are outside the open domain, decided exactly
    assert contains(hartogs, radial(Fraction(1, 2), Fraction(1, 2))) is False
    assert contains(unit_disc, radial(1)) is False
    assert contains(unit_disc, radial(Fraction(999999, 1000000))) is True


def test_contains_boundary_over_a_quadratic_threshold_is_exact(monkeypatch):
    # r^2 < 3 + 2 sqrt2 has the boundary point r = 1 + sqrt2; no digits needed
    monkeypatch.setenv("REINHARDT_PRECISION", "64")
    spec = parse_spec('{"n":1,"quadratic_d":2,'
                      '"constraints":[{"alpha":["2"],"c":{"a":"3","b":"2"}}]}')
    edge = quad(1, 1, 2)
    assert contains(spec, radial(edge)) is False
    assert contains(spec, radial(edge - Fraction(1, 10 ** 40))) is True
    assert contains(spec, radial(edge + Fraction(1, 10 ** 40))) is False


def test_contains_log_consistency(hartogs, annulus, rng=random.Random(11)):
    # independent oracle: evaluate prod r^alpha < c by exact Fraction powers
    for spec in (hartogs, annulus):
        for _ in range(200):
            r = [Fraction(rng.randint(1, 40), rng.randint(1, 40)) for _ in range(spec.n)]
            direct = all(
                _power_product(r, con.alpha) < Fraction(con.c)
                for con in spec.constraints)
            assert contains(spec, radial(*r)) == direct


def _power_product(r, alpha):
    out = Fraction(1)
    for base, e in zip(r, alpha):
        out *= Fraction(base) ** e
    return out


def test_openness_by_shrinking_balls(hartogs, rng=random.Random(5)):
    inner = radial(Fraction(1, 4), Fraction(1, 2))
    assert contains(hartogs, inner)
    rho = Fraction(1, 2)
    for _ in range(30):
        probes = []
        for _ in range(20):
            delta = [Fraction(rng.randint(-4, 4), 4) * rho for _ in range(2)]
            cand = [max(x + d, Fraction(0)) for x, d in zip(inner.radii, delta)]
            probes.append(contains(hartogs, radial(*cand)))
        if all(probes):
            return
        rho /= 2
    raise AssertionError("no ball around an interior point stayed inside")


def test_axis_contraction_monotone(polydisc):
    # all exponents >= 0: scaling one radius toward 0 preserves membership
    p = radial(Fraction(1, 2), Fraction(2, 3))
    assert contains(polydisc, p)
    for t in (Fraction(0), Fraction(1, 3), Fraction(9, 10), Fraction(1)):
        q = radial(p.radii[0] * t, p.radii[1])
        assert contains(polydisc, q)


def test_rotation_invariance(hartogs):
    # membership of a complex point is membership of its moduli
    z = (complex(0.1, 0.2), complex(-0.4, 0.3))
    moduli = radial(*[Fraction(abs(v)) for v in z])
    rotated = radial(*[Fraction(abs(v * complex(0, 1))) for v in z])
    assert contains(hartogs, moduli) == contains(hartogs, rotated)


def test_is_bounded(hartogs, disc_times_plane, multiplicative_strip):
    assert is_bounded(hartogs) is True
    assert is_bounded(disc_times_plane) is False
    assert is_bounded(multiplicative_strip) is False


def test_has_finite_volume(hartogs, disc_times_plane, annulus):
    assert has_finite_volume(hartogs) is True
    assert has_finite_volume(disc_times_plane) is False
    assert has_finite_volume(annulus) is True


def test_quadratic_contains(irrational_slope):
    # |z1 * z2^sqrt2| < 1 and |z1^-1 z2^-sqrt2| < 2 at r = (3/4, 1): values 3/4, 4/3
    assert contains(irrational_slope, radial(Fraction(3, 4), 1)) is True
    # r = (2, 1): value 2 > 1 for the first constraint
    assert contains(irrational_slope, radial(2, 1)) is False
    # r = (1/2, 1) sits exactly on the second face (value 2 = c): excluded, exactly
    assert contains(irrational_slope, radial(Fraction(1, 2), 1)) is False


def test_spec_json_round_trip(irrational_slope):
    doc = irrational_slope.to_json_dict()
    again = parse_spec(json.dumps(doc))
    assert again.constraints == irrational_slope.constraints
    assert again.quadratic_d == irrational_slope.quadratic_d
