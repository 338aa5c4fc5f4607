import math
from fractions import Fraction
from typing import Optional

from hypothesis import assume, example, given, settings, strategies as st

from reinhardt import linalg
from reinhardt.hnf import hermite_normal_form, integer_kernel_basis
from reinhardt.scalars import QuadExt, quad, sign_of


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
    """``linalg.pivot`` of one row over Z and Z[sqrt d]: the entry in the
    pivot column becomes a positive integer, which is the row's denominator,
    the row becomes primitive, and the row is a nonzero field multiple of its
    input."""
    v = data.draw(st.lists(st.integers(-30, 30), min_size=k if d is None else 2 * k,
                           max_size=k if d is None else 2 * k))
    c = data.draw(st.integers(0, k - 1))
    assume(linalg.entry_sign(v, c, d) != 0)
    rows, dens = [v], [1]
    linalg.pivot(rows, dens, 0, c, d)
    out = rows[0]
    assert out[c] == dens[0] > 0 and (d is None or out[k + c] == 0)
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


# -- Gauss-Jordan and frame inverses against a frozen reference ----------------
#
# The elimination as it was before it went through the simplex's pivot and
# reduce_row: each row reduced by R <- (p R - f P) / gcd against the kept rows,
# its true pivot tracked by the products of those p and gcds, and frame
# inverses built on an explicit [A | I].  A frozen copy, not to be edited with
# the package.

def _ref_over_denominator(v, d: Optional[int]) -> tuple[list[int], int]:
    entries = v if d is None else ([x.a if isinstance(x, QuadExt) else x for x in v]
                                   + [x.b if isinstance(x, QuadExt) else 0 for x in v])
    den = math.lcm(*(x.denominator for x in entries))
    return [x.numerator * (den // x.denominator) for x in entries], den


def _ref_primitive(v: list[int]) -> list[int]:
    g = math.gcd(*v)
    return [x // g for x in v] if g > 1 else v


def _ref_times(s, v: list[int], d: Optional[int]) -> list[int]:
    if d is None:
        return [s * x for x in v]
    a, b = s
    k = len(v) // 2
    num, irr = v[:k], v[k:]
    return ([a * x + d * b * y for x, y in zip(num, irr)]
            + [a * y + b * x for x, y in zip(num, irr)])


def _ref_combine(s, u: list[int], t, v: list[int], d: Optional[int]) -> list[int]:
    if d is None:
        return [s * x + t * y for x, y in zip(u, v)]
    k = len(u) // 2
    (sa, sb), (ta, tb) = s, t
    ua, ub, va, vb = u[:k], u[k:], v[:k], v[k:]
    return ([sa * w + d * sb * x + ta * y + d * tb * z for w, x, y, z in zip(ua, ub, va, vb)]
            + [sa * x + sb * w + ta * z + tb * y for w, x, y, z in zip(ua, ub, va, vb)])


def _ref_entry(v: list[int], j: int, d: Optional[int]):
    return v[j] if d is None else (v[j], v[len(v) // 2 + j])


def _ref_pivoted(v: list[int], c: int, d: Optional[int]) -> list[int]:
    s = _ref_entry(v, c, d)
    if d is None or not s[1]:
        v = [-x for x in v] if (s if d is None else s[0]) < 0 else v
    else:
        a, b = s
        v = _ref_times((a, -b) if a * a > d * b * b else (-a, b), v, d)
    return _ref_primitive(v)


def _ref_lead(v: list[int], d: Optional[int]) -> Optional[int]:
    k = len(v) if d is None else len(v) // 2
    return next((j for j in range(k) if v[j] or (d is not None and v[k + j])), None)


def _ref_scalar(v: list[int], j: int, den: int, d: Optional[int]):
    x = Fraction(v[j], den)
    if d is None:
        return x
    y = v[len(v) // 2 + j]
    return QuadExt(x, Fraction(y, den), d) if y else x


def _ref_subtract(row: list[int], prow: list[int], c: int, d: Optional[int]
                  ) -> tuple[list[int], int, int]:
    p, f = _ref_entry(prow, c, d), _ref_entry(row, c, d)
    out = _ref_combine(p, row, -f if d is None else (-f[0], -f[1]), prow, d)
    g = math.gcd(*out)
    return ([x // g for x in out] if g > 1 else out), prow[c], g


def _ref_gauss_jordan(rows: list[list[int]], ncols: int, d: Optional[int],
                      det: Optional[list] = None) -> tuple[list[int], list[int], list[list[int]]]:
    held: list[list[int]] = []
    pivots: list[int] = []
    kept: list[int] = []
    for index, row in enumerate(rows):
        if len(pivots) == ncols:
            break
        scale_num = scale_den = 1  # row = scale_num / scale_den times its true row
        for prow, c in zip(held, pivots):
            if row[c] or (d is not None and row[ncols + c]):
                row, p, g = _ref_subtract(row, prow, c, d)
                if det is not None:
                    scale_num, scale_den = scale_num * p, scale_den * g
        c = _ref_lead(row, d)
        if c is None:
            continue
        if det is not None:
            det.append(_ref_scalar(row, c, 1, d) * Fraction(scale_den, scale_num))
        row = _ref_pivoted(row, c, d)
        for i, prow in enumerate(held):
            if prow[c] or (d is not None and prow[ncols + c]):
                held[i] = _ref_subtract(prow, row, c, d)[0]
        held.append(row)
        pivots.append(c)
        kept.append(index)
    return kept, pivots, held


def _ref_inverse_rows(rows: list[list[int]], d: Optional[int], det: Optional[list] = None
                      ) -> list[list[int]] | None:
    n = len(rows)
    aug = []
    for i, row in enumerate(rows):
        unit = [int(j == i) for j in range(n)]
        aug.append(row + unit if d is None else row[:n] + unit + row[n:] + [0] * n)
    _, pivots, held = _ref_gauss_jordan(aug, 2 * n, d, det)
    if sorted(pivots) != list(range(n)):
        return None
    return [row for _, row in sorted(zip(pivots, held))]


def _ref_frame_inverse(rows, d: Optional[int]):
    n = len(rows)
    ints, dens = zip(*(_ref_over_denominator(r, d) for r in rows))
    true_pivots: list = []
    held = _ref_inverse_rows(list(ints), d, true_pivots)
    if held is None:
        return None
    den = math.lcm(*(row[i] for i, row in enumerate(held)))
    scales = [[den // row[i] * m for m in dens] for i, row in enumerate(held)]
    inverse = [[x * y for x, y in zip(row[n:2 * n] if d is None else row[n:2 * n] + row[3 * n:],
                                      s if d is None else s + s)]
               for row, s in zip(held, scales)]
    g = math.gcd(den, *(x for row in inverse for x in row))
    det = math.prod(true_pivots, start=Fraction(1)) / math.prod(dens)
    return ([[x // g for x in row] for row in inverse], den // g,
            det if sign_of(det) > 0 else -det)


@st.composite
def integer_matrices(draw, square=False):
    """(rows, n, d): m <= 7 integer rows of n <= 6 entries, over Z or, in the
    layout of linalg, over Z[sqrt d] for d = 2, 3, 5; now and then a zero
    row, a repeated row, a ring multiple of an earlier row or the sum of two,
    so that ranks fall short.  A square matrix has m = n."""
    d = draw(st.sampled_from([None, 2, 3, 5]))
    n = draw(st.integers(1, 6))
    m = n if square else draw(st.integers(1, 7))
    entries = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 4, 6])
    rows: list[list[int]] = []
    for _ in range(m):
        kind = draw(st.integers(0, 6)) if rows else 0
        earlier = rows[draw(st.integers(0, len(rows) - 1))] if rows else None
        if kind == 1:
            rows.append([0] * (n if d is None else 2 * n))
        elif kind == 2:
            rows.append(list(earlier))
        elif kind == 3:
            s = draw(st.sampled_from([2, -1, -3] if d is None else [(2, 0), (-1, 1), (0, 3)]))
            rows.append(_ref_times(s, earlier, d))
        elif kind == 4:
            other = rows[draw(st.integers(0, len(rows) - 1))]
            rows.append([x + y for x, y in zip(earlier, other)])
        else:
            rows.append(draw(st.lists(entries, min_size=n if d is None else 2 * n,
                                      max_size=n if d is None else 2 * n)))
    return rows, n, d


@given(integer_matrices())
@example(([[0, 0], [0, 0], [1, 2]], 2, None))
@example(([[1, 1, 0, 1], [2, 2, 0, 2], [0, 1, 1, 0]], 2, 2))  # 1 + sqrt 2, repeated x2
@settings(max_examples=400, deadline=2000)
def test_gauss_jordan_matches_the_reference(case):
    """Equal (kept, pivots, held) and equal true pivots, of one type each."""
    rows, n, d = case
    det, ref_det = [], []
    assert linalg.gauss_jordan(rows, n, d, det) == _ref_gauss_jordan(rows, n, d, ref_det)
    assert [(type(x), x) for x in det] == [(type(x), x) for x in ref_det]
    assert linalg.gauss_jordan(rows, n, d) == _ref_gauss_jordan(rows, n, d)


@given(integer_matrices(square=True), st.data())
@example(([[0, 1], [1, 0]], 2, None), None)  # pivots out of order
@example(([[1, 2], [2, 4]], 2, None), None)  # singular
@settings(max_examples=300, deadline=2000)
def test_frame_inverse_matches_the_reference(case, data):
    """Equal (inverse rows, denominator, |det|) on rows over denominators
    1, 2, 3 or 6, and None on a singular matrix."""
    rows, _, d = case
    dens = [1] * len(rows) if data is None else \
        [data.draw(st.sampled_from([1, 2, 3, 6])) for _ in rows]
    a = [linalg.vector(row, den, d) for row, den in zip(rows, dens)]
    got, want = linalg.frame_inverse(a, d), _ref_frame_inverse(a, d)
    assert got == want
    assert got is None or type(got[2]) is type(want[2])
