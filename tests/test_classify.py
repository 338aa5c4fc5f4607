import json
import random
import time
from fractions import Fraction
from itertools import combinations

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from reinhardt import (DomainSpec, EmptyDomainError, MonomialConstraint, ReinhardtError, classify,
                       classify_ainf, classify_all, classify_hinf, classify_l2, parse_spec)
from reinhardt.classify import NO, REPORT_SCHEMA, YES, Verdict
from reinhardt.cli import main
from reinhardt.cones import approach, approach_certificate, recession_contains
from reinhardt.scalars import quad, scalar_to_json, sign_of


def test_hartogs_full_report(hartogs):
    report = classify_all(hartogs)
    v = report.verdicts
    assert v["hinf"].value == "yes"
    assert v["l2"].value == "yes"
    assert v["lp_ak"].value == "yes"
    assert v["ainf"].value == "no"
    assert v["ainf"].evidence["failing_epsilon"] == [1, 1]
    assert v["hinf_k"].value == "yes" and v["hinf_k"].evidence["m"] == 2
    assert report.flags == {"fat": "by-representation", "bounded": True,
                            "finite_volume": True, "proper_subset": True}


def test_gallery_verdicts(annulus, disc_times_plane, multiplicative_strip,
                          irrational_slope, polydisc):
    assert classify_ainf(annulus).value == "yes"
    dtp = classify_all(disc_times_plane).verdicts
    assert dtp["hinf_k"].value == "yes" and dtp["hinf_k"].evidence["m"] == 1
    assert dtp["l2"].value == "no"
    assert dtp["ainf"].value == "yes"
    ms = classify_all(multiplicative_strip).verdicts
    assert ms["hinf"].value == "yes"
    assert ms["l2"].value == "no"
    assert ms["hinf_k"].value == "no"
    irr = classify_all(irrational_slope).verdicts
    assert irr["hinf"].value == "no"
    assert irr["ainf"].value == "not-applicable"
    assert classify_ainf(polydisc).value == "yes"  # no negative exponents anywhere


def test_whole_space_degenerate():
    whole = parse_spec('{"n":2,"constraints":[]}')
    v = classify_all(whole).verdicts
    assert v["hinf"].value == "yes"          # lineality R^n is rational type
    assert v["l2"].value == "not-applicable"
    assert v["lp_ak"].value == "no"          # not a proper subset
    assert v["ainf"].value == "yes"          # vacuous: no negative exponents
    assert v["hinf_k"].value == "yes" and v["hinf_k"].evidence["m"] == 0


def test_every_no_carries_reverifiable_evidence(hartogs, multiplicative_strip,
                                                irrational_slope):
    # ainf refusal: the epsilon set must re-pass the approach LP and the ray
    # must be a recession direction with components <= -1 on the set
    v = classify_ainf(hartogs)
    eps = v.evidence["failing_epsilon"]
    coords = frozenset(j for j, e in enumerate(eps) if e)
    poly = hartogs.log_polyhedron
    ray = approach_certificate(poly, coords)
    assert ray is not None
    assert recession_contains(poly, list(ray))
    assert all(sign_of(ray[j] + 1) <= 0 for j in coords)
    # l2 refusal: the lineality vector is a two-sided recession direction
    v2 = classify_l2(multiplicative_strip)
    vec = [Fraction(x) for x in v2.evidence["lineality_vector"]]
    poly2 = multiplicative_strip.log_polyhedron
    assert recession_contains(poly2, vec) and recession_contains(poly2, [-x for x in vec])
    # hinf refusal: the basis must genuinely miss integer points
    v3 = classify_hinf(irrational_slope)
    assert v3.evidence["integer_rank"] < v3.evidence["lineality_dim"]


def test_permutation_equivariance(hartogs):
    swapped = parse_spec(
        '{"n":2,"constraints":[{"alpha":["-1","1"],"c":"1"},{"alpha":["1","0"],"c":"1"}]}')
    a, b = classify_all(hartogs), classify_all(swapped)
    for key in a.verdicts:
        assert a.verdicts[key].value == b.verdicts[key].value
    assert b.verdicts["ainf"].evidence["failing_epsilon"] == [1, 1]  # symmetric here
    assert a.flags == b.flags


def test_report_schema_validates(gallery):
    for spec in gallery.values():
        doc = classify_all(spec).to_json_dict()
        jsonschema.validate(doc, REPORT_SCHEMA)
        json.dumps(doc)  # JSON-serialisable all the way down


def test_approach_lp_disagreement_is_a_typed_error(monkeypatch, hartogs):
    # the ray supports say {1, 2} is approachable; an LP that finds no ray must
    # raise, also under ``python -O``
    monkeypatch.setattr(classify, "approach_certificate", lambda *_args: None)
    with pytest.raises(ReinhardtError, match="disagrees"):
        classify_ainf(hartogs)


# Specs from the classify-stream benchmark inputs.  RANDOM_N5 used to spend
# seconds raising thresholds to huge powers in LogLin signs.  The two
# quadratic specs are empty by construction, |z1^sqrt2 z2| < c and
# |z1^-sqrt2 z2^-1| < 1/c, but their emptiness needs the exact zero test of
# (sqrt2 log c + sqrt2 log(1/c)) / 2, whose bases differ.
RANDOM_N5 = (
    '{"n":5,"constraints":[{"alpha":["-2","2","3","2","2"],"c":"8"},'
    '{"alpha":["-3","3","-1","1","3"],"c":"1/3"},{"alpha":["-2","0","1","0","3"],"c":"6/7"},'
    '{"alpha":["3","3","-1","0","1"],"c":"4/9"},{"alpha":["3","-2","2","-3","3"],"c":"5/6"},'
    '{"alpha":["3","3","2","0","2"],"c":"5/7"},{"alpha":["1","3","2","-3","2"],"c":"9/7"},'
    '{"alpha":["1","3","-3","1","0"],"c":"1/4"},{"alpha":["-1","2","-3","0","-1"],"c":"1"},'
    '{"alpha":["1","1","3","1","-3"],"c":"9/2"},{"alpha":["3","1","3","-2","-3"],"c":"9/2"}]}')
EMPTY_QUADRATIC = [
    '{"n":2,"quadratic_d":2,"constraints":[{"alpha":[{"a":"0","b":"1"},"1"],"c":"2/3"},'
    '{"alpha":[{"a":"0","b":"-1"},"-1"],"c":"3/2"}]}',
    '{"n":2,"quadratic_d":2,"constraints":[{"alpha":[{"a":"0","b":"1"},"1"],"c":"1/2"},'
    '{"alpha":[{"a":"0","b":"-1"},"-1"],"c":"2"}]}',
]


def test_random_n5_spec_classifies_quickly():
    start = time.perf_counter()
    report = classify_all(parse_spec(RANDOM_N5))
    assert time.perf_counter() - start < 5
    assert {k: v.value for k, v in report.verdicts.items()} == {
        "hinf": "yes", "l2": "yes", "lp_ak": "yes", "ainf": "no", "hinf_k": "yes"}
    ainf = report.verdicts["ainf"].evidence
    assert ainf["failing_epsilon"] == [1, 1, 1, 0, 0]
    assert [str(x) for x in ainf["approach_ray"]] == ["-1", "-7/2", "-2", "0", "0"]
    assert report.flags == {"fat": "by-representation", "bounded": False,
                            "finite_volume": False, "proper_subset": True}


@pytest.mark.parametrize("text", EMPTY_QUADRATIC)
def test_quadratic_specs_empty_by_construction(text, tmp_path, capsys):
    with pytest.raises(EmptyDomainError):
        parse_spec(text)
    path = tmp_path / "empty.json"
    path.write_text(text)
    assert main(["classify", str(path)]) == 2
    assert "empty" in capsys.readouterr().err


def bounded_random_n12() -> str:
    """A bounded spec with n = 12 and m = 24 whose recession cone is {0}, so
    that its approach cone is C and costs nothing."""
    rng = random.Random(1)
    constraints = []
    for _ in range(24):
        alpha = [str(rng.randint(-3, 3)) for _ in range(12)]
        constraints.append({"alpha": alpha, "c": str(rng.randint(2, 9))})
    return json.dumps({"n": 12, "constraints": constraints})


def test_bounded_n12_spec_classifies_quickly():
    start = time.perf_counter()
    spec = parse_spec(bounded_random_n12())
    report = classify_all(spec)
    assert time.perf_counter() - start < 5
    assert spec.log_polyhedron.approach_supports == ()
    assert report.flags["bounded"] is True
    assert report.verdicts["ainf"] == Verdict(YES, "axis-approach-blocked",
                                              {"checked_sets": 2 ** 12 - 1})


def test_unbounded_n11_spec_runs_its_approach_cone_quickly():
    # C has many rays; K's own double description from the negative orthant,
    # normals with fewest positive entries first, stays far below the ray cap
    rng = random.Random(10)
    constraints = [{"alpha": [str(rng.randint(-1, 3)) for _ in range(11)],
                    "c": str(rng.randint(2, 9))} for _ in range(18)]
    start = time.perf_counter()
    spec = parse_spec(json.dumps({"n": 11, "constraints": constraints}))
    report = classify_all(spec)
    assert time.perf_counter() - start < 5
    assert len(spec.log_polyhedron.approach_supports) == 721
    assert report.verdicts["ainf"].value == NO


# -- ainf against the enumeration of every coordinate set ------------------------

def ainf_by_enumeration(spec: DomainSpec) -> Verdict:
    """The ainf verdict by visiting the coordinate sets in (size, lex) order:
    the first set that meets a negative exponent and is approachable."""
    poly = spec.log_polyhedron
    checked = 0
    for size in range(1, spec.n + 1):
        for coords in combinations(range(spec.n), size):
            if not any(sign_of(con.alpha[j]) < 0 for con in spec.constraints for j in coords):
                continue
            checked += 1
            if approach(poly, coords):
                ray = approach_certificate(poly, frozenset(coords))
                return Verdict(NO, "axis-approach-witness", {
                    "failing_epsilon": [1 if j in coords else 0 for j in range(spec.n)],
                    "approach_ray": [scalar_to_json(x) for x in ray]})
    return Verdict(YES, "axis-approach-blocked", {"checked_sets": checked})


@st.composite
def ainf_specs(draw):
    """Specs with n <= 6 over Q or Q(sqrt 2), many with zero exponents so that
    some coordinates carry no negative exponent."""
    d = draw(st.sampled_from([None, None, 2]))
    n = draw(st.integers(1, 6))
    entry = st.sampled_from([-3, -2, -1, 0, 0, 0, 1, 2, 3])

    def scalar():
        a = draw(entry)
        return Fraction(a) if d is None or a == 0 else quad(a, draw(st.integers(-1, 1)), d)

    constraints = []
    for _ in range(draw(st.integers(0, 7))):
        alpha = tuple(scalar() for _ in range(n))
        if any(sign_of(x) for x in alpha):
            constraints.append(MonomialConstraint(alpha, Fraction(1)))
    return DomainSpec(n=n, constraints=tuple(constraints), quadratic_d=d)


@settings(max_examples=150, deadline=10_000)
@given(ainf_specs())
def test_ainf_matches_enumeration_of_coordinate_sets(spec):
    expected = ainf_by_enumeration(spec) if classify_hinf(spec).is_yes else None
    got = classify_ainf(spec)
    assert got == expected or (expected is None and got.value == "not-applicable")
