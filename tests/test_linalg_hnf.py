import math
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from reinhardt import linalg
from reinhardt.hnf import hermite_normal_form, integer_kernel_basis
from reinhardt.scalars import quad


def test_kernel_known_cases():
    assert linalg.kernel_basis([[Fraction(1), Fraction(1)]], 2) == [
        [Fraction(-1), Fraction(1)]]
    assert linalg.kernel_basis([[Fraction(1), Fraction(0)]], 2) == [
        [Fraction(0), Fraction(1)]]
    # Hartogs normals: trivial kernel
    assert linalg.kernel_basis([[Fraction(1), Fraction(-1)],
                                [Fraction(0), Fraction(1)]], 2) == []
    # empty system: full space
    assert len(linalg.kernel_basis([], 3)) == 3


def frame_inverse(a):
    """A^-1 as scalars and |det A| from ``linalg.frame_inverse``; (None, 0)
    when A is singular."""
    d = linalg.field_of(a)
    out = linalg.frame_inverse(a, d)
    if out is None:
        return None, 0
    rows, den, det_abs = out
    return [linalg.vector(row, den, d) for row in rows], det_abs


def test_determinant_and_inverse():
    a = [[Fraction(1), Fraction(-1)], [Fraction(0), Fraction(1)]]
    inv, det = frame_inverse(a)
    assert det == 1
    assert inv == [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
    assert frame_inverse([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == (None, 0)
    s = quad(0, 1, 2)
    assert frame_inverse([[s, Fraction(1)], [Fraction(1), s]])[1] == Fraction(1)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.sampled_from([None, 2, 5]), st.data())
def test_inverse_and_determinant_of_fractional_matrices(n, d, data):
    """A A^-1 = I and |det(A)| |det(A^-1)| = 1 with entries that are not
    integers, over Q and Q(sqrt d); the rows are cleared to integers inside."""
    def entry():
        a = Fraction(data.draw(st.integers(-4, 4)), data.draw(st.integers(1, 3)))
        return a if d is None else quad(a, Fraction(data.draw(st.integers(-2, 2)), 2), d)

    a = [[entry() for _ in range(n)] for _ in range(n)]
    inv, det = frame_inverse(a)
    assert (inv is None) == (det == 0) == (linalg.rank(a) < n)
    if inv is not None:
        for i in range(n):
            for j in range(n):
                assert linalg.dot(a[i], [row[j] for row in inv]) == int(i == j)
        assert det * frame_inverse(inv)[1] == 1


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([None, 2, 3, 5]), st.integers(1, 5), st.data())
def test_pivoted_row_is_a_primitive_multiple_with_a_positive_integer_pivot(d, k, data):
    """``linalg.pivoted`` over Z and Z[sqrt d]: the entry in the pivot column
    becomes a positive integer, the row becomes primitive, and the row is a
    nonzero field multiple of its input."""
    v = data.draw(st.lists(st.integers(-30, 30), min_size=k if d is None else 2 * k,
                           max_size=k if d is None else 2 * k))
    c = data.draw(st.integers(0, k - 1))
    assume(linalg.entry_sign(v, c, d) != 0)
    out = linalg.pivoted(v, c, d)
    assert out[c] > 0 and (d is None or out[k + c] == 0)
    assert math.gcd(*out) == 1
    before, after = linalg.vector(v, 1, d), linalg.vector(out, 1, d)
    factor = after[c] / before[c]
    assert factor != 0 and all(y == factor * x for x, y in zip(before, after))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_hnf_transform_properties(m, n, data):
    rows = [[data.draw(st.integers(-6, 6)) for _ in range(n)] for _ in range(m)]
    h, u = hermite_normal_form(rows)
    assert frame_inverse([[Fraction(x) for x in row] for row in u])[1] == 1, \
        "transform must be unimodular"
    # U @ A == H
    for i in range(m):
        for j in range(n):
            assert sum(u[i][k] * rows[k][j] for k in range(m)) == h[i][j]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.data())
def test_integer_kernel_basis_properties(m, n, data):
    rows = [[data.draw(st.integers(-5, 5)) for _ in range(n)] for _ in range(m)]
    basis = integer_kernel_basis(rows)
    for vec in basis:
        assert any(vec), "kernel basis vectors are nonzero"
        for row in rows:
            assert sum(r * v for r, v in zip(row, vec)) == 0
    rank = linalg.rank([[Fraction(x) for x in row] for row in rows])
    assert len(basis) == n - rank


def test_integer_kernel_examples():
    # kernel lattice of (1 1) is spanned by (1, -1)
    basis = integer_kernel_basis([[1, 1]])
    assert len(basis) == 1 and sorted(map(abs, basis[0])) == [1, 1]
    # y1 + sqrt2 y2 = 0 has no nonzero integer solutions: split rows (1,0),(0,1)
    assert integer_kernel_basis([[1, 0], [0, 1]]) == []


def test_cleared_integer_rows():
    rows = [[Fraction(1, 2), Fraction(-1, 3)], [Fraction(2), Fraction(0)]]
    assert [linalg.cleared(row, None) for row in rows] == [[3, -2], [2, 0]]
    # over Q(sqrt 2): the rational halves, then the sqrt(2) halves, over one lcm
    assert linalg.cleared([quad(Fraction(1, 2), Fraction(1, 3), 2), Fraction(1)], 2) == [3, 6, 2, 0]
