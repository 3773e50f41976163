"""Small exact linear algebra: the lattice checks run in the integers they are
given.  ``quadratic_form`` is one sum of products and ``inertia`` eliminates by
fraction-free Schur complements; both take integers only.  ``solve_unique``
eliminates over ``Fraction`` for the stationarity systems of the tests' beta^2
face oracle.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence


def quadratic_form(gram: Sequence[Sequence[int]], x: Sequence[int]) -> int:
    """x^T G x, exactly, for an integer matrix and vector."""
    return sum(xi * sum(g * xj for g, xj in zip(row, x, strict=True))
               for row, xi in zip(gram, x, strict=True))


def solve_unique(a: Sequence[Sequence[int | Fraction]],
                 b: Sequence[int | Fraction]) -> Optional[list[Fraction]]:
    """Solve A x = b over Q.  Returns None unless the solution exists and is unique.

    Singular systems are deliberately rejected: the polytope maximizers only
    ever need stationary points of nondegenerate restrictions (degenerate ones
    are recovered on lower-dimensional faces).
    """
    n = len(a)
    if any(len(row) != n for row in a) or len(b) != n:
        raise ValueError("solve_unique expects a square system")
    m = [[Fraction(x) for x in row] + [Fraction(bv)] for row, bv in zip(a, b, strict=True)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot_row is None:
            return None
        m[col], m[pivot_row] = m[pivot_row], m[col]
        piv = m[col][col]
        m[col] = [x / piv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col], strict=True)]
    return [m[r][n] for r in range(n)]


def inertia(gram: Sequence[Sequence[int]]) -> tuple[int, int, int]:
    """Sylvester inertia (positive, negative, zero) of a symmetric integer matrix.

    Symmetry is not checked here: the one caller, ``model.lattice_inertia``,
    passes ``GramLattice`` grams, and ``GramLattice`` refuses an asymmetric one.

    Schur complement: for d = A[k][k] != 0, clearing row and column k is a
    congruence A ~ (d) + S, S = A' - b b^T / d (A' is A less row and column k,
    b is column k less entry k), so inertia(A) is sign(d) plus inertia(S).
    With an all-zero diagonal and a_0j != 0, the congruence e_0 -> e_0 + e_j
    puts 2 a_0j on the diagonal; a zero row 0 is one null direction.

    In integers, as Bareiss eliminates: the matrix kept is M = q S, q the
    last pivot (1 at first).  With p = M[k][k], the next M, p times the next
    S, is (p M' - b b^T) / q: exact, as M's entries are minors of integer
    matrices congruent to A.  The pivot p / q of S has the sign of p q.
    """
    n = len(gram)
    m = [list(row) for row in gram]
    pos, zero, q = 0, 0, 1
    while m:
        k = next((i for i, row in enumerate(m) if row[i]), None)
        if k is None:
            j = next((j for j, x in enumerate(m[0]) if x), None)
            if j is None:
                zero += 1
                m = [row[1:] for row in m[1:]]
                continue
            m[0] = [x + y for x, y in zip(m[0], m[j])]
            for row in m:
                row[0] += row[j]
            k = 0
        p, b = m[k][k], m[k]
        pos += (p > 0) == (q > 0)
        m = [[(p * x - bi * bj) // q for j, (x, bj) in enumerate(zip(row, b)) if j != k]
             for i, (row, bi) in enumerate(zip(m, b)) if i != k]
        q = p
    return pos, n - pos - zero, zero
