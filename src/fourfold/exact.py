"""Small exact linear algebra over the rationals.

Everything here operates on plain nested sequences of ``Fraction`` (or ints,
which are promoted).  The systems that arise are small -- Gram matrices of
the tracked lattices, and the stationarity systems on polytope faces that
the tests' beta^2 face oracle solves -- so straightforward fraction-free-ish
Gaussian elimination is both fast enough and exactly correct.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

Matrix = list[list[Fraction]]
Vector = list[Fraction]


def to_fraction_matrix(rows: Sequence[Sequence[int | Fraction]]) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def dot(x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(x, y, strict=True)), Fraction(0))


def mat_vec(a: Sequence[Sequence[int | Fraction]], x: Sequence[int | Fraction]) -> Vector:
    return [sum((Fraction(aij) * Fraction(xj) for aij, xj in zip(row, x, strict=True)), Fraction(0)) for row in a]


def quadratic_form(gram: Sequence[Sequence[int | Fraction]], x: Sequence[int | Fraction]) -> Fraction:
    """x^T G x, exactly."""
    gx = mat_vec(gram, x)
    return dot([Fraction(v) for v in x], gx)


def solve_unique(a: Sequence[Sequence[int | Fraction]], b: Sequence[int | Fraction]) -> Optional[Vector]:
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


def inertia(gram: Sequence[Sequence[int | Fraction]]) -> tuple[int, int, int]:
    """Sylvester inertia (positive, negative, zero) of a symmetric matrix over Q.

    Computed by symmetric congruence reduction; no floating point anywhere.
    """
    n = len(gram)
    a = to_fraction_matrix(gram)
    for i in range(n):
        for j in range(i + 1, n):
            if a[i][j] != a[j][i]:
                raise ValueError("inertia requires a symmetric matrix")
    pos = neg = zero = 0

    def swap(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        for row in a:
            row[i], row[j] = row[j], row[i]

    k = 0
    size = n
    while k < size:
        # Bring a nonzero entry to the (k,k) pivot position.
        if a[k][k] == 0:
            r = next((i for i in range(k + 1, size) if a[i][i] != 0), None)
            if r is not None:
                swap(k, r)
            else:
                j = next((i for i in range(k + 1, size) if a[k][i] != 0), None)
                if j is None:
                    zero += 1
                    # Entirely zero row/column: drop it.
                    del a[k]
                    for row in a:
                        del row[k]
                    size -= 1
                    continue
                # All-zero diagonal but a[k][j] != 0: adding row/col j into
                # row/col k puts 2*a[k][j] on the diagonal (a congruence).
                for c in range(size):
                    a[k][c] += a[j][c]
                for r2 in range(size):
                    a[r2][k] += a[r2][j]
        d = a[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, size):
            f = a[i][k] / d
            if f != 0:
                for j2 in range(size):
                    a[i][j2] -= f * a[k][j2]
                for j2 in range(size):
                    a[j2][i] -= f * a[j2][k]
        k += 1
    return pos, neg, zero


def ceil_fraction(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)
