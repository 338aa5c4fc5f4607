"""Exact dense linear algebra over the scalar field (small matrices only)."""

from __future__ import annotations

from fractions import Fraction

from .scalars import Scalar, sign_of

Row = list  # list[Scalar]


def dot(u, v) -> Scalar:
    """Exact inner product; int vectors stay ints, which is much cheaper."""
    return sum((a * b for a, b in zip(u, v)), 0)


def _eliminate(rows: list[Row]) -> tuple[list[Row], list[int]]:
    """Row echelon form by exact Gaussian elimination; returns (rows, pivot cols)."""
    m = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if sign_of(m[i][c]) != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c] if isinstance(m[r][c], (int, Fraction)) else 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and sign_of(m[i][c]) != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows) -> int:
    if not rows:
        return 0
    return len(_eliminate(rows)[0])


def independent_rows(rows) -> list[int]:
    """Indices of the first maximal linearly independent subset of ``rows``."""
    if not rows:
        return []
    return _eliminate([list(col) for col in zip(*rows)])[1]


def kernel_basis(rows, ncols: int) -> list[list[Scalar]]:
    """Basis of {x : rows @ x = 0}, exact over the field."""
    if not rows:
        return [[Fraction(1) if j == i else Fraction(0) for j in range(ncols)] for i in range(ncols)]
    reduced, pivots = _eliminate(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec: list[Scalar] = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -reduced[r][f]
        basis.append(vec)
    return basis


def invert(rows) -> list[Row] | None:
    """Inverse of a square matrix, or None if singular."""
    n = len(rows)
    aug = [list(r) + [Fraction(1) if j == i else Fraction(0) for j in range(n)]
           for i, r in enumerate(rows)]
    reduced, pivots = _eliminate(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [r[n:] for r in reduced]


def determinant(rows) -> Scalar:
    n = len(rows)
    m = [list(r) for r in rows]
    det: Scalar = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if sign_of(m[i][c]) != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det = det * m[c][c]
        inv = Fraction(1) / m[c][c] if isinstance(m[c][c], (int, Fraction)) else 1 / m[c][c]
        for i in range(c + 1, n):
            if sign_of(m[i][c]) != 0:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det
