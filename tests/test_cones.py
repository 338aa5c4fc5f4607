import random
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest
from conftest import NEAR_TIE, cone_system, random_spec, sample_interior_points
from hypothesis import example, given, settings, strategies as st

from reinhardt import (DomainSpec, LogPolyhedron, MonomialConstraint,
                       RecessionCone, approach, approach_certificate, classify_hinf_k, cones,
                       has_finite_volume, interior_point, is_bounded, linalg, lp_optimize,
                       load_spec, recession_contains, sup_norm_monomial)
from reinhardt.cones import integer_lattice_of
from reinhardt.errors import BoundaryIndeterminate, RayCapError, ReinhardtError
from reinhardt.linalg import dot, rank
from reinhardt.loglin import LogLin
from reinhardt.scalars import quad, sign_of
from reinhardt.simplex import OPTIMAL, UNBOUNDED, LPCertificate, LPSystem, solve_lp


def test_lineality_examples(hartogs, multiplicative_strip, disc_times_plane):
    assert len(hartogs.log_polyhedron.lineality) == 0
    lin = multiplicative_strip.log_polyhedron.lineality
    assert len(lin) == 1 and list(lin[0]) == [Fraction(-1), Fraction(1)]
    lin2 = disc_times_plane.log_polyhedron.lineality
    assert len(lin2) == 1 and list(lin2[0]) == [Fraction(0), Fraction(1)]


def test_rational_type():
    # a subspace is spanned by its integer points iff its lattice has full rank
    assert len(integer_lattice_of((), 2)) == 0
    integer_line = ((Fraction(1), Fraction(-1)),)
    assert len(integer_lattice_of(integer_line, 2)) == 1
    s = quad(0, 1, 2)
    irrational_line = ((-s, Fraction(1)),)
    assert len(integer_lattice_of(irrational_line, 2)) != 1
    assert integer_lattice_of(irrational_line, 2) == []


def test_rational_type_from_integer_normals(gallery):
    # any spec with all-integer normals has a rational-type lineality space
    for name, spec in gallery.items():
        if name == "irrational_slope":
            continue
        poly = spec.log_polyhedron
        assert len(poly.integer_lattice) == len(poly.lineality)


def test_recession_contains(hartogs):
    poly = hartogs.log_polyhedron
    assert recession_contains(poly, [Fraction(-1), Fraction(-1)]) is True
    assert recession_contains(poly, [Fraction(0), Fraction(-1)]) is False
    assert recession_contains(poly, [Fraction(0), Fraction(0)]) is True


def test_recession_contains_clears_over_the_field_of_normals_and_direction(
        hartogs, irrational_slope):
    # rational normals, a direction over Q(sqrt 2): signed over Z[sqrt 2]
    poly = hartogs.log_polyhedron
    assert recession_contains(poly, [quad(-1, -1, 2), quad(-1, 0, 2)]) is True
    assert recession_contains(poly, [quad(0, 1, 2), -1]) is False
    # normals over Q(sqrt 2) and a direction over Q(sqrt 3) share no field
    with pytest.raises(ValueError, match="mixed quadratic fields"):
        recession_contains(irrational_slope.log_polyhedron, [quad(0, 1, 3), -1])


def test_approach_examples(hartogs):
    poly = hartogs.log_polyhedron
    assert approach(poly, {1}) is False
    assert approach(poly, {0, 1}) is True
    assert approach(poly, {0}) is True


def test_approach_rejects_coordinates_outside_the_domain(hartogs, polydisc):
    # negative indexing would read -1 as the last coordinate
    for query in (approach, approach_certificate):
        with pytest.raises(ValueError, match="coordinate 5 outside 0..1"):
            query(hartogs.log_polyhedron, frozenset({5}))
        with pytest.raises(ValueError, match="coordinate -1 outside 0..1"):
            query(polydisc.log_polyhedron, frozenset({-1}))
        with pytest.raises(ValueError, match="coordinate -2 outside 0..1"):
            query(polydisc.log_polyhedron, frozenset({-2, 1}))
        with pytest.raises(ValueError, match="non-empty coordinate set"):
            query(polydisc.log_polyhedron, frozenset())


def test_approach_soundness_certificate(hartogs, annulus, polydisc):
    for spec in (hartogs, annulus, polydisc):
        poly = spec.log_polyhedron
        base = interior_point(poly)
        for size in range(1, spec.n + 1):
            for coords in combinations(range(spec.n), size):
                ray = approach_certificate(poly, frozenset(coords))
                if ray is None:
                    continue
                assert all(ray[j] <= -1 for j in coords)
                assert all(ray[j] == 0 for j in range(spec.n) if j not in coords)
                for t in (1, 10, 100):
                    point = tuple(b + Fraction(t) * r for b, r in zip(base, ray))
                    slacks = poly.half_space_slack(point)
                    assert all(s.sign() > 0 for s in slacks)


def test_product_split(hartogs, disc_times_plane, multiplicative_strip):
    split = classify_hinf_k(disc_times_plane)
    assert split.is_yes and split.criterion == "product-split" and split.evidence["m"] == 1
    assert split.evidence["bounded_coords"] == [1] and split.evidence["free_coords"] == [2]
    assert not classify_hinf_k(multiplicative_strip).is_yes
    trivial = classify_hinf_k(hartogs)
    assert trivial.is_yes and trivial.evidence["m"] == 2 and trivial.evidence["free_coords"] == []


def test_lp_optimize_attainment(hartogs):
    poly = hartogs.log_polyhedron
    cert = lp_optimize([Fraction(1), Fraction(0)], poly)
    assert cert.status == "optimal" and cert.objective.is_zero()


def test_interior_point_strictly_inside(gallery):
    for spec in gallery.values():
        poly = spec.log_polyhedron
        point = interior_point(poly)
        assert point is not None
        assert all(s.sign() > 0 for s in poly.half_space_slack(point))


def test_lineality_translation_invariance_seeded():
    rng = random.Random(20250810)
    for case in range(6):
        n = rng.choice([2, 2, 3])
        spec = random_spec(rng, n, force_lineality=True)
        poly = spec.log_polyhedron
        lin = poly.lineality
        assert len(lin) >= 1
        for x in sample_interior_points(spec, 20, rng):
            for f in lin:
                for t in (1, -1, 5, -5, 10, -10):
                    moved = tuple(xi + Fraction(t) * fi for xi, fi in zip(x, f))
                    assert all(s.sign() > 0 for s in poly.half_space_slack(moved))


def test_recession_intersection_is_lineality(hartogs, multiplicative_strip,
                                             disc_times_plane):
    for spec in (hartogs, multiplicative_strip, disc_times_plane):
        poly = spec.log_polyhedron
        lin = poly.lineality
        basis_rows = [list(v) for v in lin]
        for d in product(range(-3, 4), repeat=spec.n):
            vec = [Fraction(x) for x in d]
            two_sided = (recession_contains(poly, vec)
                         and recession_contains(poly, [-x for x in vec]))
            in_span = (rank(basis_rows + [vec]) == len(lin)) if basis_rows else all(
                x == 0 for x in vec)
            assert two_sided == in_span


@pytest.mark.parametrize("name,query", [
    ("recession_improving_direction",
     lambda poly: cones.recession_improving_direction(poly, [Fraction(1), Fraction(0)])),
    ("approach_certificate", lambda poly: cones.approach_certificate(poly, frozenset({0}))),
    ("interior_point", lambda poly: cones.interior_point(poly)),
], ids=["recession_improving_direction", "approach_certificate", "interior_point"])
def test_unexpected_lp_status_is_a_typed_error(monkeypatch, hartogs, name, query):
    # these checks must hold under ``python -O`` too, so they cannot be asserts;
    # the approach LP runs through the sup-ray code yet names its own caller
    poly = hartogs.log_polyhedron
    monkeypatch.setattr(cones, "solve_lp", lambda *_args: LPCertificate(status=UNBOUNDED))
    with pytest.raises(ReinhardtError, match=f"^{name}: LP returned 'unbounded', expected optimal"):
        query(poly)


@pytest.mark.parametrize("query", [
    lambda poly: cones.recession_meets_halfspace(poly, [Fraction(0), Fraction(0)]),
    lambda poly: cones.unbounded_direction(poly, [Fraction(1), Fraction(1)]),
], ids=["recession_meets_halfspace", "unbounded_direction"])
def test_corrupted_generator_is_a_typed_error(hartogs, query):
    # fresh polyhedra, so the shared cached one keeps its true generators,
    # given cones that leave C: the ray (1, 1) of hartogs, the ray (1, sqrt 2)
    # of {d1 + sqrt 2 d2 <= 0, d2 <= 0}, and the lineality row (1, 1) of
    # hartogs, which a non-strict query returns first
    s = quad(0, 1, 2)
    for normals, cone in [(hartogs.log_polyhedron.normals, RecessionCone(None, (), ((1, 1),))),
                          (((1, s), (0, 1)), RecessionCone(2, (), ((1, 0, 0, 1),))),
                          (hartogs.log_polyhedron.normals, RecessionCone(None, ((1, 1),), ()))]:
        poly = LogPolyhedron(n=2, normals=normals, offsets=(1,) * len(normals))
        poly.__dict__["recession"] = cone
        with pytest.raises(ReinhardtError, match="fails its certificate"):
            query(poly)


@pytest.mark.parametrize("query", [cones.recession_meets_halfspace, cones.unbounded_direction],
                         ids=["recession_meets_halfspace", "unbounded_direction"])
def test_mixed_quadratic_fields_raise_whatever_generator_comes_first(query):
    # w over Q(sqrt 3) against normals over Q(sqrt 2): C is the negative
    # quadrant with the rational rays (-1, 0), (0, -1), or has the rays
    # (-1, 0) and (sqrt 2, -1); either way the query has no common field
    s2, s3 = quad(0, 1, 2), quad(0, 1, 3)
    for normals, w in [(((1, 0), (0, 1), (s2, s2)), [s3, 0]), (((1, s2), (0, 1)), [s3, 1])]:
        poly = LogPolyhedron(n=2, normals=normals, offsets=(1,) * len(normals))
        with pytest.raises(ValueError, match="mixed quadratic fields"):
            query(poly, w)


def test_rational_normals_with_a_quadratic_query_agree_with_lp_oracle(hartogs):
    # the generator rows are lifted into Z[sqrt 2] for the query
    poly = hartogs.log_polyhedron
    entries = [quad(a, b, 2) for a in (-1, 0, 1) for b in (-1, 1)]
    for w in product(entries, repeat=2):
        got = cones.recession_meets_halfspace(poly, w)
        assert (got is None) == (lp_recession_meets_halfspace(poly, w) is None)
        assert got is None or _is_certificate(poly, got, w, strict=False)
        got = cones.unbounded_direction(poly, w)
        assert (got is None) == (lp_unbounded_direction(poly, w) is None)
        assert got is None or _is_certificate(poly, got, w, strict=True)


def test_recession_cone_examples(hartogs, multiplicative_strip, disc_times_plane):
    # hartogs: d1 <= d2 <= 0 has the rays (-1, 0) and (-1, -1)
    assert hartogs.log_polyhedron.recession == RecessionCone(None, (), ((-1, 0), (-1, -1)))
    # |z1 z2| < 1: the half-plane d1 + d2 <= 0 is the line (-1, 1) plus the ray (-1, -1)
    assert multiplicative_strip.log_polyhedron.recession == RecessionCone(
        None, ((-1, 1),), ((-1, -1),))
    plane = disc_times_plane.log_polyhedron.recession
    assert plane.rays == ((-1, 0),)
    assert plane.lineality == ((0, 1),)
    assert plane.vector(plane.rays[0]) == [Fraction(-1), Fraction(0)]
    # Q(sqrt 3) normals (``sqrt3-generic-12`` of the cone golden) whose one
    # ray is rational: it is read off as primitive integers, not as (1, 3/2)
    normals = ((-6, 4), (6, -4), (12, quad(-2, -4, 3)), (-3, 2), (3, quad(4, -4, 3)))
    poly = LogPolyhedron(n=2, normals=normals, offsets=(1,) * len(normals))
    assert poly.recession == RecessionCone(3, (), ((2, 3, 0, 0),))
    assert poly.recession.vector(poly.recession.rays[0]) == [2, 3]


# -- LP oracle for the generator queries ---------------------------------------
#
# These are the LP implementations the generators replaced: each query solves
# 2n LPs, one per coordinate and sign, over the cone sliced at |d_j| <= 1.

def lp_cone_nonzero_direction(rows, n):
    """A nonzero d with rows @ d <= 0, or None if the cone is {0}."""
    for j in range(n):
        for s in (1, -1):
            slice_row = [Fraction(0)] * n
            slice_row[j] = Fraction(s)
            cert = solve_lp(rows + [slice_row], [LogLin.zero()] * len(rows) + [LogLin.of(1)],
                            list(slice_row))
            assert cert.status == "optimal"
            if cert.objective.sign() > 0:
                return [v.const for v in cert.primal_point]
    return None


def lp_recession_meets_halfspace(poly, w):
    rows = [list(a) for a in poly.normals]
    return lp_cone_nonzero_direction(rows + [[-x for x in w]], poly.n)


def lp_unbounded_direction(poly, w):
    """The hinf test: max <w, d> over the cone cut by <w, d> <= 1."""
    rows = [list(a) for a in poly.normals]
    cert = solve_lp(rows + [list(w)], [LogLin.zero()] * len(rows) + [LogLin.of(1)], list(w))
    assert cert.status == "optimal"
    return [v.const for v in cert.primal_point] if cert.objective.sign() > 0 else None


def lp_face_meets_halfspace(poly, m, w):
    """A nonzero d in C with <m, d> = 0 and <w, d> >= 0, or None."""
    rows = [list(a) for a in poly.normals]
    return lp_cone_nonzero_direction(rows + [[-x for x in m], list(m), [-x for x in w]],
                                     poly.n)


def _is_certificate(poly, d, w, strict):
    s = sign_of(dot(w, d))
    return (any(sign_of(x) != 0 for x in d)
            and all(sign_of(dot(a, d)) <= 0 for a in poly.normals)
            and (s > 0 if strict else s >= 0))


@st.composite
def cone_cases(draw):
    """A spec (integer, or over Q(sqrt 2) / Q(sqrt 3)), w, nu and a nonnegative
    combination m of the normals (so that sup <m, x> is finite)."""
    d = draw(st.sampled_from([None, 2, 3]))
    n = draw(st.integers(1, 5))
    small = st.integers(-3, 3)

    def scalar():
        a = draw(small)
        return Fraction(a) if d is None else quad(a, draw(st.integers(-2, 2)), d)

    def vector():
        return [scalar() for _ in range(n)]

    count = draw(st.integers(0, 8))
    rank_cap = draw(st.integers(1, n))  # rank_cap < n forces a lineality space
    base = [vector() for _ in range(rank_cap)]
    constraints = []
    for _ in range(count):
        coeffs = [draw(small) for _ in base]
        alpha = [sum((c * b[j] for c, b in zip(coeffs, base)), Fraction(0)) for j in range(n)]
        if all(sign_of(x) == 0 for x in alpha):
            continue
        constraints.append(MonomialConstraint(tuple(alpha), Fraction(1)))
    spec = DomainSpec(n=n, constraints=tuple(constraints), quadratic_d=d)
    lam = [draw(st.integers(0, 2)) for _ in constraints]
    m = [sum((l * con.alpha[j] for l, con in zip(lam, constraints)), Fraction(0))
         for j in range(n)]
    return spec, vector(), vector(), m


@settings(max_examples=200, deadline=10_000)
@given(cone_cases())
def test_generators_agree_with_lp_oracle(case):
    spec, w, nu, _ = case
    poly = spec.log_polyhedron
    cone = poly.recession
    for v in map(cone.vector, cone.lineality):
        assert all(sign_of(dot(a, v)) == 0 for a in poly.normals)
    full = rank([list(a) for a in poly.normals])
    for row in cone.rays:
        r = cone.vector(row)
        assert recession_contains(poly, r) and any(sign_of(x) != 0 for x in r)
        assert cones._lead_normal(list(row), cone.d) == list(row)  # one form per ray
        # extreme: the normals tight at r leave one dimension of C ∩ L^perp
        assert rank([list(a) for a in poly.normals if sign_of(dot(a, r)) == 0]) == full - 1

    got = cones.recession_meets_halfspace(poly, w)
    assert (got is None) == (lp_recession_meets_halfspace(poly, w) is None)
    assert got is None or _is_certificate(poly, got, w, strict=False)

    got = cones.unbounded_direction(poly, nu)
    lp_ray = lp_unbounded_direction(poly, nu)
    assert (got is None) == (lp_ray is None)
    assert got is None or _is_certificate(poly, got, nu, strict=True)
    sup = sup_norm_monomial(spec, tuple(nu))
    assert (sup.kind == "infinite") == (lp_ray is not None)

    ones = [Fraction(1)] * spec.n
    assert has_finite_volume(spec) == (lp_recession_meets_halfspace(poly, ones) is None)
    units = [[Fraction(int(i == j)) for i in range(spec.n)] for j in range(spec.n)]
    assert is_bounded(spec) == all(lp_unbounded_direction(poly, e) is None for e in units)
    assert (poly.radius_box is None) == (not is_bounded(spec))

    # axis approach from the ray supports against the approach LP
    for size in range(1, spec.n + 1):
        for coords in combinations(range(spec.n), size):
            assert approach(poly, coords) == \
                (approach_certificate(poly, frozenset(coords)) is not None)


@settings(max_examples=200, deadline=10_000)
@given(cone_cases())
def test_integrable_at_p1_with_a_finite_sup_leaves_no_face_direction(case):
    # the premise of the all-p L^p test of ``monomial_in_space``: where z^m is
    # integrable at p = 1 and has a finite sup, no recession direction d has
    # <m, d> = 0 and <1, d> >= 0, so no larger p needs a face of C
    spec, _, nu, m = case
    poly = spec.log_polyhedron
    ones = [Fraction(1)] * spec.n
    for m in (nu, m):
        if (cones.recession_meets_halfspace(poly, [e + 2 for e in m]) is None
                and cones.unbounded_direction(poly, m) is None):
            assert lp_face_meets_halfspace(poly, m, ones) is None


@settings(max_examples=100, deadline=10_000)
@given(cone_cases())
def test_lineality_lattice_and_cone_read_one_elimination(case):
    poly = case[0].log_polyhedron
    assert poly.lineality == tuple(map(tuple, linalg.kernel_basis(
        [list(a) for a in poly.normals], poly.n)))
    cone = poly.recession
    assert len(cone.lineality) == len(poly.lineality)
    for row, v in zip(cone.lineality, poly.lineality):  # one form, a positive multiple of v
        assert cones._lead_normal(list(row), cone.d) == list(row)
        u = cone.vector(row)
        assert rank([list(v), u]) == 1 and sign_of(dot(u, v)) > 0
    for v in poly.integer_lattice:
        assert all(sign_of(dot(a, v)) == 0 for a in poly.normals)
    if poly.integer_normals[0] is None:  # rational normals: L is spanned by L ∩ Z^n
        assert len(poly.integer_lattice) == len(poly.lineality)


@pytest.mark.parametrize("which,row", [("recession", 3), ("approach_supports", 3)])
def test_ray_cap_is_a_typed_error(monkeypatch, which, row):
    # C = {|d1|, |d2| <= -d3} has the four rays (+-1, +-1, -1): its last row
    # joins two pairs.  K = C ∩ {d <= 0} starts from the negative orthant and
    # takes rows 1 and 3 first, one positive entry each: row 1 swaps -e1 for
    # (-1, 0, -1), and row 3 cuts off -e2 and joins it to both other rays
    poly = LogPolyhedron(n=3, normals=((1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)),
                         offsets=(1, 1, 1, 1))
    if which == "approach_supports":
        assert len(poly.recession.rays) == 4
    monkeypatch.setattr(cones, "_MAX_RAYS", 3)
    with pytest.raises(ReinhardtError, match=f"4 intermediate rays at row {row}, past the cap"):
        getattr(poly, which)


# -- emptiness: Gordan's test on the recession cone, else the LP ---------------

@st.composite
def emptiness_cases(draw):
    """A half-space system over Z, Q(sqrt 2) or Q(sqrt 5) with n <= 4 and
    m <= 8, thresholds p/q with p, q in 1..9: random rows, zero-form pairs
    (a, c) and (-a, c'), zero rows, or only such pairs, so that C is its
    lineality space."""
    d = draw(st.sampled_from([None, 2, 5]))
    n = draw(st.integers(1, 4))

    def scalar():
        a = draw(st.integers(-3, 3))
        return Fraction(a) if d is None else quad(a, draw(st.integers(-2, 2)), d)

    def threshold():
        return Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9)))

    m = draw(st.integers(0, 8))
    only_pairs = draw(st.booleans())
    rows = []
    while len(rows) < m:
        kind = "pair" if only_pairs else draw(st.sampled_from(["row", "row", "pair", "zero"]))
        alpha = [Fraction(0)] * n if kind == "zero" else [scalar() for _ in range(n)]
        rows.append((tuple(alpha), threshold()))
        if kind == "pair":
            rows.append((tuple(-x for x in alpha), threshold()))
    rows = rows[:m]
    return LogPolyhedron(n=n, normals=tuple(a for a, _ in rows), offsets=tuple(c for _, c in rows))


def _emptiness(decide, poly):
    """``decide(poly)``, or None when it raises BoundaryIndeterminate."""
    try:
        return decide(poly)
    except BoundaryIndeterminate:
        return None


@settings(max_examples=200, deadline=10_000)
@given(emptiness_cases())
@example(LogPolyhedron(n=1, normals=((1,), (quad(0, 1, 2),)), offsets=(Fraction(1, 2), NEAR_TIE)))
def test_is_empty_agrees_with_the_lp_and_gordan_is_sound(poly):
    fresh = LogPolyhedron(n=poly.n, normals=poly.normals, offsets=poly.offsets)
    got = _emptiness(cones.is_empty, fresh)
    lp = _emptiness(lambda p: interior_point(p) is None, poly)
    cone = poly.recession
    direction = cones.gordan_direction(poly, cone)
    if lp is not None:
        assert got == lp
    else:  # where the LP's ladder gives up, only Gordan's test may answer
        assert got is None or (got is False and direction is not None)
    # a cone held by is_empty is the whole cone, never a partial one
    assert fresh.__dict__.get("recession", cone) == cone
    if direction is None:
        return
    assert got is False
    # lambda (-<alpha_i, d>) > |log c_i| on every nonzero row: c + 1/c bounds |log c|
    lam = 1 + sum((c + 1 / c) / -dot(a, direction)
                  for a, c in zip(poly.normals, poly.offsets) if any(sign_of(x) for x in a))
    point = [LogLin.of(lam * x) for x in direction]
    assert all(s.sign() > 0 for s in poly.half_space_slack(point))


@pytest.mark.parametrize("slab", [None, (Fraction(1, 2), Fraction(3, 2)),
                                  (Fraction(1, 2), Fraction(2))])
def test_is_empty_past_the_parse_budget_uses_the_lp_and_holds_no_cone(slab):
    # C = {|d_j| <= -d_7, j < 7} is the cone over a 6-cube, with 64 rays; its
    # double description passes 4 m rays at row 11.  The slab rows, last,
    # add |z_1| < c and |z_1^-1| < c', empty iff c c' <= 1.
    n = 7
    rows = [[s * (j == k) + (k == n - 1) for k in range(n)] for j in range(n - 1) for s in (1, -1)]
    offsets = [Fraction(2)] * len(rows)
    if slab is not None:
        rows += [[int(k == 0) for k in range(n)], [-int(k == 0) for k in range(n)]]
        offsets += list(slab)
    def fresh():
        return LogPolyhedron(n=n, normals=tuple(map(tuple, rows)), offsets=tuple(offsets))

    with pytest.raises(RayCapError):
        cones.recession_cone(fresh(), cones._PARSE_RAYS_PER_ROW * len(rows))
    poly = fresh()
    assert cones.is_empty(poly) is (interior_point(poly) is None)
    assert cones.is_empty(poly) is (slab is not None and slab[0] * slab[1] <= 1)
    assert "recession" not in poly.__dict__
    assert "elimination" in poly.__dict__  # the elimination outlives the budget
    assert poly.recession == cones.recession_cone(fresh())


# -- emptiness: the float guess and its exact proof ------------------------------

@st.composite
def certificate_cases(draw):
    """``emptiness_cases``, and half of them closed by the row -(a_1 + ... + a_k)
    over some rows a_i with threshold s / (c_1 ... c_k), s in {1/2, 1}: empty
    by construction (y = 1 on those rows), at an exact zero when s = 1."""
    poly = draw(emptiness_cases())
    k = draw(st.integers(0, len(poly.normals)))
    if not k or not draw(st.booleans()):
        return poly, False
    rows = poly.normals[:k]
    closing = tuple(-sum(col) for col in zip(*rows))
    product = Fraction(1)
    for c in poly.offsets[:k]:
        product *= c
    c = draw(st.sampled_from([Fraction(1, 2), Fraction(1)])) / product
    return LogPolyhedron(n=poly.n, normals=poly.normals + (closing,),
                         offsets=poly.offsets + (c,)), True


def _vertex(poly, cols, tight):
    """x at the point of (x, t) where the rows ``tight`` of the emptiness LP
    hold with equality and the coordinates off ``cols`` are zero, as LogLins."""
    n, d = poly.n, linalg.field_of(poly.normals)
    aug = [list(a) + [1] for a in poly.normals] + [[0] * n + [1]]
    rhs = [LogLin.log_of(c) for c in poly.offsets] + [LogLin.log_of(2)]
    inv, den, _ = linalg.frame_inverse([[aug[i][j] for j in cols] for i in tight], d)
    x = [LogLin.zero()] * (n + 1)
    for row, j in zip(inv, cols):
        for coeff, i in zip(linalg.vector(row, den, d), tight):
            x[j] = x[j] + rhs[i] * coeff
    return x[:n]


@settings(max_examples=200, deadline=10_000)
@given(certificate_cases())
@example((LogPolyhedron(n=1, normals=((1,), (quad(0, 1, 2),), (-1,)),
                        offsets=(Fraction(1, 2), NEAR_TIE, Fraction(4))), False))
def test_emptiness_certificates_check_independently(case):
    poly, empty_by_construction = case
    lp = _emptiness(lambda p: interior_point(p) is None, poly)
    got = _emptiness(cones.is_empty, LogPolyhedron(n=poly.n, normals=poly.normals,
                                                   offsets=poly.offsets))
    if lp is not None:
        assert got is lp
    if empty_by_construction:
        assert got is not False and lp is not False
    proof = cones.certify_emptiness(poly)
    if proof is None:
        return
    empty, (rows, cert) = proof
    assert got is None or got is empty
    if empty:  # Motzkin: y > 0, y A = 0 and y log c <= 0
        assert all(sign_of(v) > 0 for v in cert)
        assert all(sign_of(sum(v * poly.normals[i][j] for v, i in zip(cert, rows))) == 0
                   for j in range(poly.n))
        assert sum((LogLin.log_of(poly.offsets[i], v) for v, i in zip(cert, rows)),
                   LogLin.zero()).sign() <= 0
    else:  # the vertex is strictly inside
        assert all(s.sign() > 0 for s in poly.half_space_slack(_vertex(poly, rows, cert)))


@pytest.mark.parametrize("offsets", [(Fraction(2), Fraction(2)), (Fraction(1, 2), Fraction(2)),
                                     (Fraction(1, 2), Fraction(3, 2))],
                         ids=["annulus", "edge", "empty"])
def test_a_wrong_float_guess_reaches_the_exact_lp(monkeypatch, offsets):
    # |z| < c, |z^-1| < c': C = {0}, so Gordan's test fails and the guess runs;
    # the guess with its optimum's sign flipped proves nothing
    poly = LogPolyhedron(n=1, normals=((1,), (-1,)), offsets=offsets)
    empty = offsets[0] * offsets[1] <= 1
    assert cones.certify_emptiness(poly)[0] is empty
    guess = cones.float_basis

    def flipped(*args):
        t, *rest = guess(*args)
        return (-1.0 if t > 0 else 1.0, *rest)

    monkeypatch.setattr(cones, "float_basis", flipped)
    solved = []
    monkeypatch.setattr(cones, "interior_point",
                        lambda p: solved.append(p) or interior_point(p))
    assert cones.certify_emptiness(poly) is None
    assert cones.is_empty(poly) is empty
    assert solved == [poly]


# |z| < 8, |z| < 2, |z^-1| < 2: C = {0}, so Gordan's test fails and the guess runs
THREE_ROWS = LogPolyhedron(n=1, normals=((1,), (1,), (-1,)), offsets=(8, 2, 2))
# |z| < 1/2 and |z^-1| < 1/2: empty, and C = {0} again
EMPTY_PAIR = LogPolyhedron(n=1, normals=((1,), (-1,)), offsets=(Fraction(1, 2), Fraction(1, 2)))

# crafted guesses (t, basic columns, tight rows, rows with a positive dual), or
# no guess, each of which reaches a fallback of the proof; the last row of the
# LP is t <= log 2
CRAFTED_GUESSES = {
    "no-guess": (THREE_ROWS, None),
    "t-not-basic": (THREE_ROWS, (1.0, [0], [0], [])),
    "singular-tight-rows": (THREE_ROWS, (1.0, [0, 1], [0, 1], [])),
    "t-not-positive": (EMPTY_PAIR, (1.0, [0, 1], [0, 1], [])),  # t = log(1/2) exactly
    "slack-not-positive": (THREE_ROWS, (1.0, [0, 1], [0, 3], [])),  # x = log 4 breaks |z| < 2
    "kernel-not-one-dimensional": (THREE_ROWS, (0.0, [0, 1], [0, 2], [0, 1, 2])),
    "dual-not-positive": (THREE_ROWS, (0.0, [0, 1], [0, 1], [0, 1])),  # y = (1, -1)
}


def _fresh(poly: LogPolyhedron) -> LogPolyhedron:
    return LogPolyhedron(n=poly.n, normals=poly.normals, offsets=poly.offsets)


@pytest.mark.parametrize("case", list(CRAFTED_GUESSES))
def test_a_crafted_guess_that_proves_nothing_falls_back_to_the_lp(monkeypatch, case):
    poly, guess = CRAFTED_GUESSES[case]
    monkeypatch.setattr(cones, "float_basis", lambda *args: guess)
    assert cones.certify_emptiness(_fresh(poly)) is None
    assert cones.is_empty(_fresh(poly)) is (interior_point(poly) is None) is (poly is EMPTY_PAIR)


def test_a_normal_past_the_float_range_falls_back_to_the_lp():
    # |z|^(10^400) < 2 and |z^-1| < 3: C = {0}, and the guess cannot take the normal's float
    poly = LogPolyhedron(n=1, normals=((10 ** 400,), (-1,)), offsets=(2, 3))
    assert cones.gordan_direction(poly, poly.recession) is None
    assert cones.certify_emptiness(_fresh(poly)) is None
    assert cones.is_empty(_fresh(poly)) is (interior_point(poly) is None) is False


def test_a_proof_sign_past_the_ladder_cap_falls_back_to_the_lp(monkeypatch):
    # at the vertex of |z| < 1/2 and |z^sqrt2| < NEAR_TIE, t is about 2^-110:
    # the same guess is proved at the default cap, and its first sign is past a 64-bit cap
    monkeypatch.delenv("REINHARDT_PRECISION", raising=False)
    poly = LogPolyhedron(n=1, normals=((1,), (quad(0, 1, 2),)), offsets=(Fraction(1, 2), NEAR_TIE))
    guess = (1.0, [0, 1], [0, 1], [])
    monkeypatch.setattr(cones, "float_basis", lambda *args: guess)
    assert cones.certify_emptiness(_fresh(poly)) == (False, (guess[1], guess[2]))
    lp = interior_point(poly) is None
    monkeypatch.setenv("REINHARDT_PRECISION", "64")
    assert cones.certify_emptiness(_fresh(poly)) is None
    assert cones.is_empty(_fresh(poly)) is lp is False


@pytest.mark.parametrize("threshold", ["overflow", "underflow"])
def test_a_quadratic_threshold_past_the_float_range_is_proved_nonempty(threshold):
    # |z1| < 1, |z2| < 1, |z1|^-1 < 10^400 + sqrt2; or |z1| < 10^-400 (1 + sqrt2),
    # |z1|^-1 < 10^401, |z2| < 1: Gordan's test fails on the row pair of z1
    big, r2 = 10 ** 400, quad(0, 1, 2)
    if threshold == "overflow":
        normals, offsets = ((1, 0), (0, 1), (-1, 0)), (1, 1, big + r2)
    else:
        normals, offsets = ((1, 0), (-1, 0), (0, 1)), ((1 + r2) / big, 10 * big, 1)
    poly = LogPolyhedron(n=2, normals=normals, offsets=offsets)
    assert cones.gordan_direction(poly, poly.recession) is None
    assert cones.certify_emptiness(_fresh(poly))[0] is False
    assert cones.is_empty(_fresh(poly)) is (interior_point(poly) is None) is False


def _ray_on_rows_cleared_anew(poly: LogPolyhedron, w) -> list:
    """Oracle: the ray LP of ``recession_improving_direction`` with its whole
    system, the rows A d <= 0 and <w, d> <= 1, cleared anew for each w."""
    held, b = poly.lp_system, [LogLin.zero()] * len(poly.normals) + [LogLin.of(1)]
    system = None  # w outside the normals' field: solve_lp clears every row anew
    if linalg.field_of([w]) in (None, held.d):
        system = LPSystem((*held.a_rows, linalg.over_denominator(w, held.d)), b, poly.n, held.d)
    cert = solve_lp([*poly.normals, w], b, list(w), system)
    assert cert.status == OPTIMAL and cert.objective.sign() > 0
    return [v.const for v in cert.primal_point]


def test_sup_rays_on_the_held_cone_system_equal_those_of_rows_cleared_anew(gallery):
    """Every infinite sup over [-2, 2]^n, and one with an exponent sqrt(d)
    (outside the normals' field over Q), on the gallery and two Q(sqrt d)
    specs: the same LP, so the same vertex and the same printed ray."""
    here = Path(__file__).resolve().parent / "specs"
    specs = [*gallery.values(), load_spec(str(here / "irrational_plane3.json"))]
    infinite = 0
    for spec in specs:
        poly = spec.log_polyhedron
        root = quad(0, 1, poly.integer_normals[0] or 3)
        for w in [*product(range(-2, 3), repeat=spec.n), (root,) + (0,) * (spec.n - 1)]:
            if cones.unbounded_direction(poly, w) is None:
                continue
            infinite += 1
            oracle = _ray_on_rows_cleared_anew(poly, list(w))
            assert cones.recession_improving_direction(poly, list(w)) == oracle
            assert [str(x) for x in sup_norm_monomial(spec, w).ray] == [str(x) for x in oracle]
    assert infinite > 100


def _approach_ray_of_its_own_lp(poly: LogPolyhedron, coords) -> tuple | None:
    """Oracle: the approach LP written out, max t s.t. <alpha|_S, d_S> <= 0,
    d_j + t <= 0 (j in S), t <= 1 and -t <= 0, its ray padded with zeros."""
    s_list = sorted(coords)
    k = len(s_list)
    bound = [Fraction(0)] * k + [Fraction(1)]
    rows = ([[alpha[j] for j in s_list] + [Fraction(0)] for alpha in poly.normals]
            + [[Fraction(int(j in (i, k))) for j in range(k + 1)] for i in range(k)]
            + [bound, [-x for x in bound]])
    cert = solve_lp(rows, [LogLin.zero()] * (len(rows) - 2) + [LogLin.of(1), LogLin.zero()],
                    bound)
    assert cert.status == OPTIMAL
    if cert.objective.sign() <= 0:
        return None
    at = {j: cert.primal_point[i].const for i, j in enumerate(s_list)}
    return tuple(at.get(j, Fraction(0)) for j in range(poly.n))


@settings(max_examples=100, deadline=20_000)
@given(st.sampled_from([None, 2, 3, 5]),
       st.sampled_from(["generic", "lineality", "equalities", "scaled"]),
       st.integers(0, 2 ** 32))
def test_approach_ray_is_that_of_its_own_lp(d, shape, seed):
    """The sup ray of t on the approach cone lists t <= 1 after -t <= 0, and
    Bland's rule still reaches the vertex of the LP written out, for every
    nonempty coordinate set of a seeded random system: the printed ray."""
    _, n, normals = cone_system(random.Random(seed), d, shape)
    poly = LogPolyhedron(n=n, normals=tuple(normals), offsets=(1,) * len(normals))
    for size in range(1, n + 1):
        for coords in combinations(range(n), size):
            oracle = _approach_ray_of_its_own_lp(poly, coords)
            got = approach_certificate(poly, frozenset(coords))
            assert got == oracle
            assert got is None or [str(x) for x in got] == [str(x) for x in oracle]
