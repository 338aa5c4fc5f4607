"""Exact dense linear algebra over the scalar field (small matrices only).

Every query goes through one fraction-free Gauss-Jordan routine,
:func:`gauss_jordan`.  Over Q a row is a list of integers, a positive
multiple of the scalar row; over Q(sqrt d) it is one list of 2k integers,
the rational halves of its k entries followed by their sqrt(d) halves, as in
``simplex._Tableau``.  Rows are added one at a time.  Each is reduced
against the pivot rows kept so far by R <- p R - f P, with p the pivot of P
and f the entry of R in its column, so no division is needed.  A row that
does not vanish is kept with its first nonzero column as pivot: it is
multiplied by the conjugate of an irrational pivot and negated if need be,
so that every pivot is a positive integer, and that column is eliminated
from the other kept rows.  Every row is divided by the gcd of its integers.
The kept rows are then positive multiples of the rows of the reduced row
echelon form, which is canonical, so ranks, pivot columns, kernels,
inverses and determinants do not depend on the scalings.  The same integer
rows and their ring arithmetic (:func:`ring`, :func:`times`,
:func:`combine`) carry the double description of :mod:`reinhardt.cones`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Optional

from .scalars import QuadExt, Scalar, quad, quadratic_sign

Row = list  # list[Scalar]


def dot(u, v) -> Scalar:
    """Exact inner product; int vectors stay ints, which is much cheaper."""
    return sum((a * b for a, b in zip(u, v)), 0)


def field_of(rows) -> Optional[int]:
    """The d of the first Q(sqrt d) entry of ``rows``, or None over Q."""
    return next((x.d for row in rows for x in row if isinstance(x, QuadExt)), None)


def halves(v) -> list:
    """The rational halves of the entries of v, then their sqrt(d) halves."""
    return [x.a if isinstance(x, QuadExt) else x for x in v] + \
        [x.b if isinstance(x, QuadExt) else 0 for x in v]


def denominator(v, d: Optional[int]) -> int:
    """The lcm of the denominators of the entries of v (of both halves over
    Q(sqrt d))."""
    return math.lcm(*(x.denominator for x in (v if d is None else halves(v))))


def cleared(v, d: Optional[int]) -> list[int]:
    """The integer row of a scalar vector: v times ``denominator(v, d)``."""
    den = denominator(v, d)
    return [x.numerator * (den // x.denominator) for x in (v if d is None else halves(v))]


def primitive(v: list[int]) -> list[int]:
    """v divided by the gcd of its entries."""
    g = math.gcd(*v)
    return [x // g for x in v] if g > 1 else v


def times(s, v: list[int], d: Optional[int]) -> list[int]:
    """The integer row v times a ring element s: an int over Q, a pair
    (a, b) for a + b sqrt(d) over Q(sqrt d)."""
    if d is None:
        return [s * x for x in v]
    a, b = s
    k = len(v) // 2
    num, irr = v[:k], v[k:]
    return ([a * x + d * b * y for x, y in zip(num, irr)]
            + [a * y + b * x for x, y in zip(num, irr)])


def combine(s, u: list[int], t, v: list[int], d: Optional[int]) -> list[int]:
    """s u + t v for ring elements s, t and integer rows u, v."""
    if d is None:
        return [s * x + t * y for x, y in zip(u, v)]
    return [x + y for x, y in zip(times(s, u, d), times(t, v, d))]


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
    """Entry j of an integer row: an int, or an (a, b) pair over Q(sqrt d)."""
    return v[j] if d is None else (v[j], v[len(v) // 2 + j])


def scalar(v: list[int], j: int, den: int, d: Optional[int]) -> Scalar:
    """Entry j of an integer row over the positive integer ``den``, as a scalar."""
    if d is None:
        return Fraction(v[j], den)
    return quad(Fraction(v[j], den), Fraction(v[len(v) // 2 + j], den), d)


def _subtract(row: list[int], prow: list[int], c: int, d: Optional[int]
              ) -> tuple[list[int], int, int]:
    """p row - f prow, with p > 0 the integer pivot of ``prow`` in column c and
    f the entry of ``row`` there, divided by its gcd g; also returns p and g."""
    p = prow[c]
    f = entry(row, c, d)
    out = combine(p if d is None else (p, 0), row, -f if d is None else (-f[0], -f[1]), prow, d)
    g = math.gcd(*out)
    return ([x // g for x in out] if g > 1 else out), p, g


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
        scale_num = scale_den = 1  # row = scale_num / scale_den times its true row
        for prow, c in zip(held, pivots):
            if row[c] or (d is not None and row[ncols + c]):
                row, p, g = _subtract(row, prow, c, d)
                if det is not None:
                    scale_num, scale_den = scale_num * p, scale_den * g
        c = next((j for j in range(ncols) if row[j] or (d is not None and row[ncols + j])), None)
        if c is None:
            continue
        if det is not None:
            det.append(scalar(row, c, 1, d) * Fraction(scale_den, scale_num))
        if d is not None and row[ncols + c]:
            # times the conjugate a - b sqrt d: the pivot becomes the norm
            row = times((row[c], -row[ncols + c]), row, d)
        if row[c] < 0:
            row = [-x for x in row]
        row = primitive(row)
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


def inverse_rows(rows: list[list[int]], d: Optional[int]) -> list[list[int]] | None:
    """The rows of [A | A^-1] for a square integer matrix A, each times a
    positive integer (its entry on the diagonal of A), or None if singular."""
    n = len(rows)
    aug = []
    for i, row in enumerate(rows):
        unit = [int(j == i) for j in range(n)]
        aug.append(row + unit if d is None else row[:n] + unit + row[n:] + [0] * n)
    _, pivots, held = gauss_jordan(aug, 2 * n, d)
    if sorted(pivots) != list(range(n)):
        return None
    return [row for _, row in sorted(zip(pivots, held))]


def invert(rows) -> list[Row] | None:
    """Inverse of a square matrix, or None if singular: the inverse of the
    cleared rows D A, times D."""
    n = len(rows)
    d = field_of(rows)
    held = inverse_rows([cleared(r, d) for r in rows], d)
    if held is None:
        return None
    dens = [denominator(r, d) for r in rows]
    return [[scalar(row, n + j, row[i], d) * dens[j] for j in range(n)]
            for i, row in enumerate(held)]


def determinant(rows) -> Scalar:
    """The product of the true pivots over the scalings of the cleared rows,
    signed by the order of the pivot columns."""
    n = len(rows)
    d = field_of(rows)
    true_pivots: list[Scalar] = []
    _, pivots, _ = gauss_jordan([cleared(r, d) for r in rows], n, d, true_pivots)
    if len(pivots) < n:
        return Fraction(0)
    value: Scalar = Fraction(1)
    for r, t in zip(rows, true_pivots):
        value = value * t / denominator(r, d)
    inversions = sum(1 for i in range(n) for k in range(i + 1, n) if pivots[i] > pivots[k])
    return -value if inversions % 2 else value
