"""Exact dense linear algebra over the scalar field, on integer rows.

A vector over Q is held as an integer row, k integers that are a positive
multiple of it; over Q(sqrt d) as one list of 2k integers, the rational
halves of its k entries followed by their sqrt(d) halves.  Where the scale
matters a row comes with a positive integer denominator: entry j is then
``(v[j] + v[k + j] sqrt d) / den``.  Ring elements (entries, multipliers)
are ints over Z and ``(a, b)`` pairs for a + b sqrt(d) over Z[sqrt d].  Only
this module reads that layout: the simplex tableau of
:mod:`reinhardt.simplex`, the double description of :mod:`reinhardt.cones`
and the simplicial frames of :mod:`reinhardt.norms` (:func:`frame_inverse`,
:func:`coordinates`) work through its helpers.

Every query goes through one fraction-free Gauss-Jordan routine,
:func:`gauss_jordan`.  Rows are added one at a time.  Each is reduced
against the pivot rows kept so far by R <- p R - f P (:func:`eliminate`),
with p the pivot of P and f the entry of R in its column, so no division is
needed.  A row that does not vanish is kept with its first nonzero column
as pivot, scaled by :func:`pivoted` to a positive integer pivot and a
primitive row, and that column is eliminated from the other kept rows.  The
kept rows are then positive multiples of the rows of the reduced row
echelon form, which is canonical, so ranks, pivot columns, kernels,
inverses and determinants do not depend on the scalings.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Optional

from .scalars import QuadExt, Scalar, quadratic_sign, sign_of


def dot(u, v) -> Scalar:
    """Exact inner product; int vectors stay ints, which is much cheaper."""
    return sum((a * b for a, b in zip(u, v)), 0)


def field_of(rows) -> Optional[int]:
    """The d of the Q(sqrt d) entries of ``rows``, or None over Q; entries
    over two quadratic fields raise ValueError."""
    fields = {x.d for row in rows for x in row if isinstance(x, QuadExt)}
    if len(fields) > 1:
        raise ValueError(f"mixed quadratic fields: sqrt d for d in {sorted(fields)}")
    return next(iter(fields), None)


def halves(v) -> list:
    """The rational halves of the entries of v, then their sqrt(d) halves."""
    return [x.a if isinstance(x, QuadExt) else x for x in v] + \
        [x.b if isinstance(x, QuadExt) else 0 for x in v]


def over_denominator(v, d: Optional[int]) -> tuple[list[int], int]:
    """The integer row of a scalar vector and its denominator, the lcm of the
    denominators of its entries (of both halves over Q(sqrt d))."""
    entries = v if d is None else halves(v)
    den = math.lcm(*(x.denominator for x in entries))
    return [x.numerator * (den // x.denominator) for x in entries], den


def cleared(v, d: Optional[int]) -> list[int]:
    """The integer row of a scalar vector: v times its denominator."""
    return over_denominator(v, d)[0]


def rational_row(values: list[int], d: Optional[int]) -> list[int]:
    """The integer row of a list of integers."""
    return values if d is None else values + [0] * len(values)


def joined(parts: list[list[int]], d: Optional[int]) -> list[int]:
    """The integer row of the entries of the integer rows ``parts``, in order."""
    if d is None:
        return [x for v in parts for x in v]
    return ([x for v in parts for x in v[:len(v) // 2]]
            + [x for v in parts for x in v[len(v) // 2:]])


def primitive(v: list[int]) -> list[int]:
    """v divided by the gcd of its entries."""
    g = math.gcd(*v)
    return [x // g for x in v] if g > 1 else v


def cancel(v: list[int], den: int) -> tuple[list[int], int]:
    """The row v over the denominator ``den``, both divided by their gcd."""
    g = math.gcd(*v, den)
    return ([x // g for x in v], den // g) if g > 1 else (v, den)


def times(s, v: list[int], d: Optional[int]) -> list[int]:
    """The integer row v times a ring element s."""
    if d is None:
        return [s * x for x in v]
    a, b = s
    k = len(v) // 2
    num, irr = v[:k], v[k:]
    return ([a * x + d * b * y for x, y in zip(num, irr)]
            + [a * y + b * x for x, y in zip(num, irr)])


def combine(s, u: list[int], t, v: list[int], d: Optional[int], start: int = 0) -> list[int]:
    """s u + t v for ring elements s, t and integer rows u, v, on the
    entries from ``start`` on."""
    if d is None:
        if start:
            u, v = u[start:], v[start:]
        return [s * x + t * y for x, y in zip(u, v)]
    k = len(u) // 2
    (sa, sb), (ta, tb) = s, t
    ua, ub, va, vb = u[start:k], u[k + start:], v[start:k], v[k + start:]
    dtb = d * tb
    if not sb:  # a rational s, as in every elimination step
        return ([sa * w + ta * y + dtb * z for w, y, z in zip(ua, va, vb)]
                + [sa * x + ta * z + tb * y for x, y, z in zip(ub, va, vb)])
    dsb = d * sb
    return ([sa * w + dsb * x + ta * y + dtb * z for w, x, y, z in zip(ua, ub, va, vb)]
            + [sa * x + sb * w + ta * z + tb * y for w, x, y, z in zip(ua, ub, va, vb)])


def over(v: list[int], s, d: Optional[int]) -> list[int]:
    """A positive rational multiple of v / s for a nonzero ring element s: v
    times the conjugate of an irrational s, signed by its norm, and v times
    the sign of a rational s.  A form with rational entries keeps them."""
    if d is None or not s[1]:
        return [-x for x in v] if (s if d is None else s[0]) < 0 else v
    a, b = s
    return times((a, -b) if a * a > d * b * b else (-a, b), v, d)


def pivoted(v: list[int], c: int, d: Optional[int]) -> list[int]:
    """The primitive positive multiple of v whose entry in column c is a
    positive integer: v over its entry there, divided by the gcd."""
    return primitive(over(v, entry(v, c, d), d))


def eliminate(v: list[int], pv: list[int], c: int, d: Optional[int], start: int = 0
              ) -> list[int]:
    """p v - f pv, with p and f the entries of pv and v in column c, on the
    columns from ``start`` on.  It vanishes in column c, and when p is the
    positive integer pivot of pv it is p times the row v - (f / p) pv."""
    if d is None:
        p, f = pv[c], -v[c]
    else:
        k = len(v) // 2
        p, f = (pv[c], pv[k + c]), (-v[c], -v[k + c])
    return combine(p, v, f, pv, d, start)


def combination(rows, lam: list[int], width: int, d: Optional[int]) -> tuple[list[int], int]:
    """lam @ A for the integer row ``lam`` and the rows A, pairs (integer row,
    denominator) of :func:`over_denominator`: an integer row over the lcm of
    their denominators (times lam's own), and that lcm."""
    scale = math.lcm(*(r for _, r in rows))
    terms = [times(entry(lam, i, d), [x * (scale // r) for x in row], d)
             for i, (row, r) in enumerate(rows) if entry_sign(lam, i, d)]
    return [sum(col) for col in zip([0] * width, *terms)], scale


def ring(d: Optional[int]):
    """Dot product, sign and negation of ring elements: ints over Z, and
    (a, b) pairs for a + b sqrt(d) over Z[sqrt d]."""
    if d is None:
        return (lambda u, v: sum(map(mul, u, v))), (lambda x: (x > 0) - (x < 0)), (lambda x: -x)

    def dot_pair(u, v):
        k = len(u) // 2
        ua, ub, va, vb = u[:k], u[k:], v[:k], v[k:]
        return (sum(map(mul, ua, va)) + d * sum(map(mul, ub, vb)),
                sum(map(mul, ua, vb)) + sum(map(mul, ub, va)))

    return dot_pair, (lambda x: quadratic_sign(x[0], x[1], d)), (lambda x: (-x[0], -x[1]))


def row_of(values: list, d: Optional[int]) -> list[int]:
    """The integer row of a list of ring elements."""
    return values if d is None else [a for a, _ in values] + [b for _, b in values]


def entry(v: list[int], j: int, d: Optional[int]):
    """Entry j of an integer row, a ring element."""
    return v[j] if d is None else (v[j], v[len(v) // 2 + j])


def entry_sign(v: list[int], j: int, d: Optional[int]) -> int:
    """Sign of entry j of an integer row."""
    if d is None:
        return (v[j] > 0) - (v[j] < 0)
    return quadratic_sign(v[j], v[len(v) // 2 + j], d)


def lead(v: list[int], d: Optional[int], start: int = 0) -> Optional[int]:
    """The index of the first nonzero entry of an integer row from ``start``
    on, or None."""
    if d is None:
        for j in range(start, len(v)):
            if v[j]:
                return j
        return None
    k = len(v) // 2
    for j in range(start, k):
        if v[j] or v[k + j]:
            return j
    return None


def rational_entries(v: list[int], d: Optional[int]) -> Optional[list[int]]:
    """The entries of an integer row as ints, or None if one is irrational."""
    if d is None:
        return v
    k = len(v) // 2
    return None if any(v[k:]) else v[:k]


def sparse_products(v: list[int], columns: list[list[tuple[int, int]]], d: Optional[int]
                    ) -> list:
    """The ring elements ``sum(x * entry(v, t))`` over the pairs (t, x) of
    each sparse integer column: the row v times a sparse integer matrix."""
    if d is None:
        return [sum(x * v[t] for t, x in col) for col in columns]
    k = len(v) // 2
    return [(sum(x * v[t] for t, x in col), sum(x * v[k + t] for t, x in col)) for col in columns]


def tail(v: list[int], j: int, d: Optional[int]) -> list[int]:
    """The integer row of entries j, j + 1, ... of v."""
    k = len(v) // 2
    return v[j:] if d is None else v[j:k] + v[k + j:]


def scalar(v: list[int], j: int, den: int, d: Optional[int]) -> Scalar:
    """Entry j of an integer row over the positive integer ``den``, as a scalar."""
    x = Fraction(v[j], den)
    if d is None:
        return x
    y = v[len(v) // 2 + j]
    return QuadExt(x, Fraction(y, den), d) if y else x


def vector(v: list[int], den: int, d: Optional[int]) -> list[Scalar]:
    """The scalar vector of an integer row over the positive integer ``den``."""
    xs = [Fraction(x) for x in v] if den == 1 else [Fraction(x, den) for x in v]
    if d is None:
        return xs
    k = len(v) // 2
    return [QuadExt(x, y, d) if y else x for x, y in zip(xs[:k], xs[k:])]


def _subtract(row: list[int], prow: list[int], c: int, d: Optional[int]
              ) -> tuple[list[int], int, int]:
    """``eliminate(row, prow, c, d)`` divided by its gcd g, with p > 0 the
    integer pivot of ``prow`` in column c; also returns p and g."""
    out = eliminate(row, prow, c, d)
    g = math.gcd(*out)
    return ([x // g for x in out] if g > 1 else out), prow[c], g


def gauss_jordan(rows: list[list[int]], ncols: int, d: Optional[int],
                 det: Optional[list] = None) -> tuple[list[int], list[int], list[list[int]]]:
    """Fraction-free Gauss-Jordan elimination of integer rows, one at a time.

    Returns ``(kept, pivots, held)``: the indices of the input rows that are
    independent of the rows before them, the pivot column of each, and the
    reduced rows, each a positive multiple of a row of the reduced row
    echelon form, whose pivot entry is a positive integer.  When ``det`` is
    a list, the true pivot of each kept row (its pivot entry when its row
    operations are divisions by the pivots, which keep the determinant)
    is appended to it.
    """
    held: list[list[int]] = []
    pivots: list[int] = []
    kept: list[int] = []
    for index, row in enumerate(rows):
        if len(pivots) == ncols:  # full rank: every later row reduces to zero
            break
        scale_num = scale_den = 1  # row = scale_num / scale_den times its true row
        for prow, c in zip(held, pivots):
            if row[c] or (d is not None and row[ncols + c]):
                row, p, g = _subtract(row, prow, c, d)
                if det is not None:
                    scale_num, scale_den = scale_num * p, scale_den * g
        c = lead(row, d)
        if c is None:
            continue
        if det is not None:
            det.append(scalar(row, c, 1, d) * Fraction(scale_den, scale_num))
        row = pivoted(row, c, d)
        for i, prow in enumerate(held):
            if prow[c] or (d is not None and prow[ncols + c]):
                held[i] = _subtract(prow, row, c, d)[0]
        held.append(row)
        pivots.append(c)
        kept.append(index)
    return kept, pivots, held


def _echelon(rows) -> tuple[list[int], list[int], list[list[int]], Optional[int]]:
    d = field_of(rows)
    kept, pivots, held = gauss_jordan([cleared(r, d) for r in rows], len(rows[0]), d)
    return kept, pivots, held, d


def rank(rows) -> int:
    if not rows:
        return 0
    return len(_echelon(rows)[0])


def kernel_from(pivots: list[int], held: list[list[int]], ncols: int,
                d: Optional[int]) -> list[list[Scalar]]:
    """Basis of the kernel of the reduced rows of :func:`gauss_jordan`: per
    free column f, the vector with 1 at f and 0 at the other free columns."""
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec: list[Scalar] = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, p in zip(held, pivots):
            vec[p] = -scalar(row, f, row[p], d)
        basis.append(vec)
    return basis


def kernel_basis(rows, ncols: int) -> list[list[Scalar]]:
    """Basis of {x : rows @ x = 0}, exact over the field."""
    if not rows:
        return [[Fraction(1) if j == i else Fraction(0) for j in range(ncols)] for i in range(ncols)]
    _, pivots, held, d = _echelon(rows)
    return kernel_from(pivots, held, ncols, d)


def inverse_rows(rows: list[list[int]], d: Optional[int], det: Optional[list] = None
                 ) -> list[list[int]] | None:
    """The rows of [A | A^-1] for a square integer matrix A, each times a
    positive integer (its entry on the diagonal of A), or None if singular."""
    n = len(rows)
    aug = []
    for i, row in enumerate(rows):
        unit = [int(j == i) for j in range(n)]
        aug.append(row + unit if d is None else row[:n] + unit + row[n:] + [0] * n)
    _, pivots, held = gauss_jordan(aug, 2 * n, d, det)
    if sorted(pivots) != list(range(n)):
        return None
    return [row for _, row in sorted(zip(pivots, held))]


def frame_inverse(rows, d: Optional[int]) -> tuple[list[list[int]], int, Scalar] | None:
    """A^-1 of a square matrix A of scalars, as integer rows over one positive
    denominator, and |det A|, or None if singular: one elimination of the
    cleared rows D A beside the identity, and A^-1 = (D A)^-1 D."""
    ints, dens = zip(*(over_denominator(r, d) for r in rows))
    true_pivots: list[Scalar] = []
    held = inverse_rows(list(ints), d, true_pivots)
    if held is None:
        return None
    den = math.lcm(*(row[i] for i, row in enumerate(held)))
    scales = [[den // row[i] * m for m in dens] for i, row in enumerate(held)]
    inverse = [[x * y for x, y in zip(tail(row, len(rows), d), s if d is None else s + s)]
               for row, s in zip(held, scales)]
    g = math.gcd(den, *(x for row in inverse for x in row))
    det = math.prod(true_pivots, start=Fraction(1)) / math.prod(dens)
    return ([[x // g for x in row] for row in inverse], den // g,
            det if sign_of(det) > 0 else -det)


def coordinates(x, rows: list[list[int]], den: int, d: Optional[int]) -> tuple[list[int], int]:
    """A vector x over Q or Q(sqrt d) times the square matrix of the integer
    rows ``rows`` over ``den > 0``, as an integer row over a denominator > 0."""
    v, dx = over_denominator(x, d)
    columns = list(zip(*rows))
    if d is None:
        return [sum(map(mul, v, c)) for c in columns], den * dx
    k, dot = len(columns) // 2, ring(d)[0]
    return row_of([dot(v, columns[j] + columns[k + j]) for j in range(k)], d), den * dx


def largest_entry(rows: list[list[int]], den: int, d: Optional[int]) -> Scalar:
    """The largest entry of nonempty integer rows over ``den > 0``, as a scalar."""
    return max(x for v in rows for x in vector(v, den, d))
