import random
from fractions import Fraction
from itertools import product

import pytest
from conftest import random_spec, sample_interior_points

from reinhardt import (approach, approach_certificate, cones, interior_point, is_rational_type,
                       lineality_space, log_polyhedron, lp_optimize, product_split,
                       recession_contains)
from reinhardt.cones import Subspace, integer_lattice_of
from reinhardt.errors import ReinhardtError
from reinhardt.linalg import rank
from reinhardt.scalars import quad
from reinhardt.simplex import UNBOUNDED, LPCertificate


def test_lineality_examples(hartogs, multiplicative_strip, disc_times_plane):
    assert lineality_space(log_polyhedron(hartogs)).dim == 0
    lin = lineality_space(log_polyhedron(multiplicative_strip))
    assert lin.dim == 1 and list(lin.basis[0]) == [Fraction(-1), Fraction(1)]
    lin2 = lineality_space(log_polyhedron(disc_times_plane))
    assert lin2.dim == 1 and list(lin2.basis[0]) == [Fraction(0), Fraction(1)]


def test_rational_type():
    zero = Subspace(ambient_n=2, basis=())
    assert is_rational_type(zero)
    integer_line = Subspace(ambient_n=2, basis=((Fraction(1), Fraction(-1)),))
    assert is_rational_type(integer_line)
    s = quad(0, 1, 2)
    irrational_line = Subspace(ambient_n=2, basis=((-s, Fraction(1)),))
    assert not is_rational_type(irrational_line)
    assert integer_lattice_of(irrational_line) == []


def test_rational_type_from_integer_normals(gallery):
    # any spec with all-integer normals has a rational-type lineality space
    for name, spec in gallery.items():
        if name == "irrational_slope":
            continue
        assert is_rational_type(lineality_space(log_polyhedron(spec)))


def test_recession_contains(hartogs):
    poly = log_polyhedron(hartogs)
    assert recession_contains(poly, [Fraction(-1), Fraction(-1)]) is True
    assert recession_contains(poly, [Fraction(0), Fraction(-1)]) is False
    assert recession_contains(poly, [Fraction(0), Fraction(0)]) is True


def test_approach_examples(hartogs):
    poly = log_polyhedron(hartogs)
    assert approach(poly, {1}) is False
    assert approach(poly, {0, 1}) is True
    assert approach(poly, {0}) is True


def test_approach_soundness_certificate(hartogs, annulus, polydisc):
    for spec in (hartogs, annulus, polydisc):
        poly = log_polyhedron(spec)
        base = interior_point(poly)
        for size in range(1, spec.n + 1):
            from itertools import combinations
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
    split = product_split(disc_times_plane,
                          lineality_space(log_polyhedron(disc_times_plane)))
    assert split is not None and split.m == 1
    assert split.bounded_coords == (0,) and split.free_coords == (1,)
    assert product_split(multiplicative_strip,
                         lineality_space(log_polyhedron(multiplicative_strip))) is None
    trivial = product_split(hartogs, lineality_space(log_polyhedron(hartogs)))
    assert trivial is not None and trivial.m == 2 and trivial.free_coords == ()


def test_lp_optimize_attainment(hartogs):
    poly = log_polyhedron(hartogs)
    cert = lp_optimize([Fraction(1), Fraction(0)], poly)
    assert cert.status == "optimal" and cert.objective.is_zero()
    assert cert.attained is False
    zero = lp_optimize([Fraction(0), Fraction(0)], poly)
    assert zero.attained is True


def test_interior_point_strictly_inside(gallery):
    for spec in gallery.values():
        poly = log_polyhedron(spec)
        point = interior_point(poly)
        assert point is not None
        assert all(s.sign() > 0 for s in poly.half_space_slack(point))


def test_lineality_translation_invariance_seeded():
    rng = random.Random(20250810)
    for case in range(6):
        n = rng.choice([2, 2, 3])
        spec = random_spec(rng, n, force_lineality=True)
        poly = log_polyhedron(spec)
        lin = lineality_space(poly)
        assert lin.dim >= 1
        for x in sample_interior_points(spec, 20, rng):
            for f in lin.basis:
                for t in (1, -1, 5, -5, 10, -10):
                    moved = tuple(xi + Fraction(t) * fi for xi, fi in zip(x, f))
                    assert all(s.sign() > 0 for s in poly.half_space_slack(moved))


def test_recession_intersection_is_lineality(hartogs, multiplicative_strip,
                                             disc_times_plane):
    for spec in (hartogs, multiplicative_strip, disc_times_plane):
        poly = log_polyhedron(spec)
        lin = lineality_space(poly)
        basis_rows = [list(v) for v in lin.basis]
        for d in product(range(-3, 4), repeat=spec.n):
            vec = [Fraction(x) for x in d]
            two_sided = (recession_contains(poly, vec)
                         and recession_contains(poly, [-x for x in vec]))
            in_span = (rank(basis_rows + [vec]) == lin.dim) if basis_rows else all(
                x == 0 for x in vec)
            assert two_sided == in_span


@pytest.mark.parametrize("query", [
    lambda poly: cones.cone_nonzero_direction([list(a.components) for a in poly.normals], poly.n),
    lambda poly: cones.recession_improving_direction(poly, [Fraction(1), Fraction(0)]),
    lambda poly: cones.approach_certificate.__wrapped__(poly, frozenset({0})),
    lambda poly: cones.interior_point.__wrapped__(poly),
], ids=["cone_nonzero_direction", "recession_improving_direction", "approach_certificate",
        "interior_point"])
def test_unexpected_lp_status_is_a_typed_error(monkeypatch, hartogs, query):
    # these checks must hold under ``python -O`` too, so they cannot be asserts
    poly = log_polyhedron(hartogs)
    monkeypatch.setattr(cones, "solve_lp", lambda *_args: LPCertificate(status=UNBOUNDED))
    with pytest.raises(ReinhardtError, match="expected optimal"):
        query(poly)

