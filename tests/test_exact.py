import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fourfold.exact import (
    inertia,
    quadratic_form,
    solve_unique,
)

from oracles import fraction_inertia, pairing


def test_solve_unique_basic():
    sol = solve_unique([[2, 0], [0, 4]], [2, 2])
    assert sol == [Fraction(1), Fraction(1, 2)]


def test_solve_unique_singular_returns_none():
    assert solve_unique([[1, 1], [2, 2]], [1, 2]) is None
    assert solve_unique([[0]], [0]) is None


def test_solve_unique_needs_square():
    with pytest.raises(ValueError):
        solve_unique([[1, 2]], [1])


@given(st.integers(min_value=1, max_value=5), st.integers())
@settings(max_examples=50)
def test_solve_unique_random_systems(n, seed):
    rng = random.Random(seed)
    a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
    x = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
    b = [sum(Fraction(a[i][j]) * x[j] for j in range(n)) for i in range(n)]
    sol = solve_unique(a, b)
    if sol is not None:
        assert sol == x
    else:
        # singular: numpy agrees the determinant vanishes
        assert abs(np.linalg.det(np.array(a, dtype=float))) < 1e-6


def _numpy_inertia(mat):
    eigs = np.linalg.eigvalsh(np.array(mat, dtype=float))
    tol = 1e-8 * max(1.0, float(np.abs(eigs).max()))
    pos = int((eigs > tol).sum())
    neg = int((eigs < -tol).sum())
    return pos, neg, len(mat) - pos - neg


def test_inertia_diagonal():
    assert inertia([[3, 0], [0, -2]]) == (1, 1, 0)
    assert inertia([[0]]) == (0, 0, 1)
    assert inertia([]) == (0, 0, 0)


def test_inertia_hyperbolic_plane():
    assert inertia([[0, 1], [1, 0]]) == (1, 1, 0)


@given(st.integers(min_value=1, max_value=6), st.integers())
@settings(max_examples=80)
def test_inertia_matches_numpy(n, seed):
    rng = random.Random(seed)
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = rng.randint(-4, 4)
            a[i][j] = v
            a[j][i] = v
    assert inertia(a) == _numpy_inertia(a)


@given(st.integers(min_value=1, max_value=5), st.integers())
@settings(max_examples=40)
def test_inertia_congruence_invariant(n, seed):
    # Sylvester: inertia is invariant under congruence by an invertible P.
    rng = random.Random(seed)
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = rng.randint(-3, 3)
            a[i][j] = v
            a[j][i] = v
    p = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(6):  # random unimodular row operations
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.randint(-2, 2)
            for k in range(n):
                p[i][k] += c * p[j][k]
    pap = [[sum(p[i][k] * a[k][l] * p[j][l] for k in range(n) for l in range(n))
            for j in range(n)] for i in range(n)]
    assert inertia(a) == inertia(pap)


def test_quadratic_form():
    assert quadratic_form([[0, 1], [1, 0]], [2, 3]) == 12
    assert quadratic_form([[32, 0], [0, 32]], [1, -1]) == 64
    # the rational form [[1/2, 0], [0, 1]] at (1, 1/3), scaled by 2 and by 3^2
    q = quadratic_form([[1, 0], [0, 2]], [3, 1])
    assert q == 18 * Fraction(11, 18) and type(q) is int


@given(st.lists(st.lists(st.integers(-10**12, 10**12), min_size=4, max_size=4),
                min_size=4, max_size=4),
       st.lists(st.integers(-10**12, 10**12), min_size=4, max_size=4))
def test_quadratic_form_of_ints_is_the_int_pairing(gram, x):
    q = quadratic_form(gram, x)
    assert type(q) is int and q == pairing(gram, x, x)


def _symmetric(rng, n, shape, rational):
    """A symmetric n x n matrix of int (and, if ``rational``, Fraction)
    entries, shaped to reach each branch of the elimination: a zero diagonal
    (as in every built-in 2x2 Gram), zero rows, and hyperbolic blocks
    [[0, h], [h, 0]]."""
    def entry():
        kind = rng.randrange(4 if rational else 3)
        if kind == 0:
            return rng.choice([0, 0, 0, 1, -1, 2, -2])
        if kind == 3:
            return Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        return rng.randint(-50, 50)

    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = entry()
    if shape == "zero diagonal":
        for i in range(n):
            a[i][i] = 0
    elif shape == "hyperbolic":
        # hyperbolic planes down the diagonal, then a corner of the drawn matrix
        blocks = rng.randint(0, n // 2)
        for i in range(n):
            for j in range(n):
                if min(i, j) < 2 * blocks and i // 2 != j // 2:
                    a[i][j] = 0
        for b in range(blocks):
            a[2 * b][2 * b] = a[2 * b + 1][2 * b + 1] = 0
            a[2 * b][2 * b + 1] = a[2 * b + 1][2 * b] = entry()
    for i in rng.sample(range(n), rng.randint(0, min(n, 2))):
        for j in range(n):
            a[i][j] = a[j][i] = 0
    return a


@given(st.integers(0, 8), st.sampled_from(["dense", "zero diagonal", "hyperbolic"]),
       st.booleans(), st.integers())
@settings(max_examples=600)
def test_inertia_matches_the_fraction_reduction(n, shape, rational, seed):
    a = _symmetric(random.Random(seed), n, shape, rational)
    # scaling by the lcm of the denominators, a positive number, keeps the inertia
    den = math.lcm(*(Fraction(x).denominator for row in a for x in row))
    assert inertia([[int(x * den) for x in row] for row in a]) == fraction_inertia(a)
