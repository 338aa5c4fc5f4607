"""Integer Hermite normal form and integer kernel lattices.

Row-style HNF with the unimodular transform tracked explicitly: rows of U
aligned with zero rows of H = U @ A form a lattice basis of the left kernel
of A.  Arbitrary-precision ints throughout; matrices here are tiny, so the
textbook gcd-driven reduction is plenty.
"""

from __future__ import annotations


def hermite_normal_form(rows: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Return (H, U) with U unimodular, H = U @ A in row Hermite normal form."""
    m = len(rows)
    h = [list(map(int, r)) for r in rows]
    u = [[1 if j == i else 0 for j in range(m)] for i in range(m)]
    ncols = len(h[0]) if h else 0
    r = 0
    for c in range(ncols):
        # gcd-reduce column c below row r down to a single nonzero entry
        while True:
            live = [i for i in range(r, m) if h[i][c] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda i: abs(h[i][c]))
            i0, i1 = live[0], live[1]
            q = h[i1][c] // h[i0][c]
            h[i1] = [x - q * y for x, y in zip(h[i1], h[i0])]
            u[i1] = [x - q * y for x, y in zip(u[i1], u[i0])]
        live = [i for i in range(r, m) if h[i][c] != 0]
        if not live:
            continue
        i0 = live[0]
        h[r], h[i0] = h[i0], h[r]
        u[r], u[i0] = u[i0], u[r]
        if h[r][c] < 0:
            h[r] = [-x for x in h[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):  # reduce entries above the pivot
            q = h[i][c] // h[r][c]
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        r += 1
        if r == m:
            break
    return h, u


def integer_kernel_basis(rows: list[list[int]]) -> list[list[int]]:
    """Lattice basis of {y in Z^n : rows @ y = 0} for an integer matrix."""
    if not rows:
        return []
    ncols = len(rows[0])
    transposed = [[rows[i][j] for i in range(len(rows))] for j in range(ncols)]
    h, u = hermite_normal_form(transposed)
    return [u[i] for i in range(ncols) if all(x == 0 for x in h[i])]
