"""Independent oracles used by the tests.

These deliberately avoid the solver code paths they check: the face solvers
maximize the intersection form over the hull of an explicit class list with
rational stationarity systems on every face, the mesh oracle enumerates grid
points of the hull by brute force (vectorized with numpy on plain integers,
which is exact well below 2^53), the interval oracle re-evaluates the
search inequalities with interval arithmetic over a coarse rational bracket
of pi^2, and the flattened connected sum assembles one copy of every piece
into a dense Gram matrix, c1 vector and s-matrix.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np

from fourfold import exact
from fourfold.errors import SurgeryError
from fourfold.model import (
    CharData,
    Flag,
    GramLattice,
    Manifold,
    Parity,
    Provenance,
    SpinCStructure,
)

MESH_DEN = 32
FULL_MESH_POINT_CAP = 20_000_000


# -- face enumeration: the explicit second beta^2 solver ---------------------


def sign_orbit(squares):
    """The explicit (classes, gram) pair of the sign orbit of orthogonal
    generators with the given squares."""
    d = len(squares)
    gram = tuple(tuple(squares[i] if i == j else 0 for j in range(d))
                 for i in range(d))
    return tuple(itertools.product((1, -1), repeat=d)), gram


def _is_sign_orbit(classes, d: int) -> bool:
    """True when the classes are exactly all sign vectors {+/-1}^d."""
    return (len(classes) == 2 ** d
            and all(all(x in (1, -1) for x in v) for v in classes)
            and len(set(classes)) == 2 ** d)


def _box_face_candidates(gram, d: int):
    for assignment in itertools.product((-1, 0, 1), repeat=d):
        fixed = [i for i in range(d) if assignment[i] != 0]
        free = [i for i in range(d) if assignment[i] == 0]
        if not free:
            yield [Fraction(x) for x in assignment]
            continue
        a = [[Fraction(gram[i][j]) for j in free] for i in free]
        b = [-sum(Fraction(gram[i][j]) * assignment[j] for j in fixed) for i in free]
        u = exact.solve_unique(a, b)
        if u is None:
            continue
        if any(abs(x) > 1 for x in u):
            continue
        point = [Fraction(0)] * d
        for i in fixed:
            point[i] = Fraction(assignment[i])
        for i, x in zip(free, u, strict=True):
            point[i] = x
        yield point


def beta_squared_box_faces(gram):
    """Face enumeration over the coordinate box of a sign orbit.

    The hull of all sign vectors is the box [-1,1]^d; each of the 3^d faces
    fixes some coordinates at +/-1, and the stationary point of Q on its
    affine hull is a rational linear solve.  Singular systems are skipped:
    when Q is degenerate along a face, the value of any interior stationary
    point is also attained on a proper subface.  No separability is used, so
    a non-diagonal Gram is fine.  Returns (value, lex-least maximizer).
    """
    best = None
    maximizers = []
    for point in _box_face_candidates(gram, len(gram)):
        value = exact.quadratic_form(gram, point)
        if best is None or value > best:
            best = value
            maximizers = [tuple(point)]
        elif value == best:
            maximizers.append(tuple(point))
    return best, min(maximizers)


def beta_squared_support_sets(classes, gram):
    """Stationarity sweep over support subsets of a general small point set.

    Maximizing Q over Hull(v_1..v_m) equals maximizing l^T M l over the
    standard simplex, M the Gram matrix of the points.  Every maximizer has a
    support whose stationarity system (2(Ml)_i = mu on the support,
    sum l = 1) either is uniquely solvable or degenerates onto a smaller
    support, so sweeping all subsets with unique solutions plus all vertices
    is exhaustive.  Returns (value, lex-least maximizer).
    """
    m = len(classes)
    points = [tuple(Fraction(x) for x in v) for v in classes]
    gram_big = [[exact.pairing(gram, points[i], points[j]) for j in range(m)]
                for i in range(m)]
    best = None
    maximizers = []

    def consider(value, point):
        nonlocal best, maximizers
        if best is None or value > best:
            best = value
            maximizers = [point]
        elif value == best:
            maximizers.append(point)

    for i in range(m):
        consider(gram_big[i][i], points[i])
    for size in range(2, m + 1):
        for support in itertools.combinations(range(m), size):
            t = len(support)
            a = []
            for i in support:
                row = [2 * gram_big[i][j] for j in support]
                row.append(Fraction(-1))
                a.append(row)
            a.append([Fraction(1)] * t + [Fraction(0)])
            b = [Fraction(0)] * t + [Fraction(1)]
            sol = exact.solve_unique(a, b)
            if sol is None:
                continue
            lam, mu = sol[:t], sol[t]
            if any(x < 0 for x in lam):
                continue
            point = tuple(
                sum(lam[idx] * points[i][coord] for idx, i in enumerate(support))
                for coord in range(len(gram)))
            consider(mu / 2, point)
    return best, min(maximizers)


def beta_squared_faces(classes, gram):
    """Exact maximum of x^T G x over Hull(classes) with its lex-least
    maximizer: box faces for a sign orbit, support sets otherwise.

    Monopole-class sets are symmetric, so an asymmetric or empty class list
    is rejected with ValueError.
    """
    if not classes:
        raise ValueError("beta^2 of an empty class set is undefined")
    pool = set(classes)
    if not all(tuple(-x for x in v) in pool for v in classes):
        raise ValueError("monopole class sets are symmetric: v in C iff -v in C")
    if _is_sign_orbit(classes, len(gram)):
        return beta_squared_box_faces(gram)
    return beta_squared_support_sets(classes, gram)


def mesh_error_bound(gram, den: int = MESH_DEN) -> Fraction:
    """max over box minus max over the 1/den mesh is at most S*(h + h^2/4)
    with S the entrywise 1-norm of the Gram matrix and h the mesh step."""
    s = sum(abs(x) for row in gram for x in row)
    h = Fraction(1, den)
    return s * (h + h * h / 4)


def box_mesh_max(gram, den: int = MESH_DEN) -> Fraction:
    """Exact maximum of x^T G x over the 1/den mesh of the box [-1,1]^d.

    Full enumeration; caller must keep (2*den+1)^d under the cap.
    """
    d = len(gram)
    side = 2 * den + 1
    if side**d > FULL_MESH_POINT_CAP:
        raise ValueError("full mesh too large; use box_mesh_sample_max")
    g = np.array([[int(x) for x in row] for row in gram], dtype=np.int64)
    coords = np.arange(-den, den + 1, dtype=np.int64)
    if d == 0:
        return Fraction(0)
    if d <= 3:
        grids = np.meshgrid(*([coords] * d), indexing="ij")
        pts = np.stack([a.ravel() for a in grids], axis=1)
        vals = np.einsum("ij,jk,ik->i", pts, g, pts)
        return Fraction(int(vals.max()), den * den)
    # chunk on the first coordinate
    grids = np.meshgrid(*([coords] * (d - 1)), indexing="ij")
    tail = np.stack([a.ravel() for a in grids], axis=1)
    best = None
    for c in coords:
        pts = np.concatenate(
            [np.full((tail.shape[0], 1), c, dtype=np.int64), tail], axis=1)
        vals = np.einsum("ij,jk,ik->i", pts, g, pts)
        m = int(vals.max())
        best = m if best is None else max(best, m)
    return Fraction(best, den * den)


def box_mesh_sample_max(gram, rng: random.Random, count: int = 200_000,
                        den: int = MESH_DEN) -> Fraction:
    """Maximum over a random sample of mesh points plus the unit subgrid
    {-1,0,1}^d (itself a sub-mesh of the 1/den mesh)."""
    d = len(gram)
    g = np.array([[int(x) for x in row] for row in gram], dtype=np.int64)
    pts = np.array(list(itertools.product((-den, 0, den), repeat=d)),
                   dtype=np.int64)
    sample = np.array(
        [[rng.randint(-den, den) for _ in range(d)] for _ in range(count)],
        dtype=np.int64)
    pts = np.concatenate([pts, sample], axis=0)
    vals = np.einsum("ij,jk,ik->i", pts, g, pts)
    return Fraction(int(vals.max()), den * den)


# -- interval re-verification of the geography-search inequalities ----------

PI2_COARSE = (Fraction("9.8696"), Fraction("9.8697"))


def _one_minus_eps_interval(c4: Fraction, scale: int) -> tuple[Fraction, Fraction]:
    """Interval for 1 - scale*c4/(81*pi^2) over the coarse pi^2 bracket."""
    lo_pi2, hi_pi2 = PI2_COARSE
    eps_hi = scale * c4 / (81 * lo_pi2)
    eps_lo = scale * c4 / (81 * hi_pi2)
    return (1 - eps_hi, 1 - eps_lo)


def spin_tuple_certified(m: int, n: int, l1: int, g: int, h: int,
                         c4: Fraction) -> bool:
    """True iff the three spin-search inequalities hold for every pi^2 in the
    coarse bracket."""
    big_g = (g - 1) * (h - 1)
    one_lo, _ = _one_minus_eps_interval(c4, 4)
    in1 = 2 * n + one_lo * big_g - 3 > l1
    in2 = 2 * (n + 12 * m) + one_lo * big_g + 21 > l1
    in3 = Fraction(l1) >= Fraction(2 * n + big_g, 3) - 3
    return bool(in1 and in2 and in3)


def nonspin_tuple_certified(m: int, n: int, l2: int, g: int, h: int,
                            c4: Fraction) -> bool:
    big_g = (g - 1) * (h - 1)
    one_lo, _ = _one_minus_eps_interval(c4, 4)
    in1 = 8 * n + 4 * one_lo * big_g - 12 > l2
    in2 = 8 * (n + 12 * m) + 4 * one_lo * big_g + 84 > -5 * l2
    in3 = Fraction(l2) >= Fraction(8 * n + 4 * big_g, 3) - 12
    return bool(in1 and in2 and in3)


# -- the flattened dense connected sum: reference for the multiset sum -------

_ASD_PSC_ATOMS = {"CP2bar", "S1xS3"}


def _atom_sort_key(m):
    return (m.name, m.char.b1, m.char.b_plus, m.char.b_minus)


def direct_sum(lattices, prefixes):
    """Orthogonal direct sum as one dense Gram matrix, with basis labels
    prefixed per summand."""
    labels = []
    blocks = []
    for lat, prefix in zip(lattices, prefixes, strict=True):
        labels.extend(f"{prefix}{name}" for name in lat.basis_labels)
        blocks.append(lat.gram)
    total = len(labels)
    gram = [[0] * total for _ in range(total)]
    offset = 0
    for block in blocks:
        r = len(block)
        for i in range(r):
            for j in range(r):
                gram[offset + i][offset + j] = block[i][j]
        offset += r
    return GramLattice(tuple(labels), tuple(tuple(row) for row in gram))


def flat_sum_spinc(atoms, signs, with_vector):
    """#(+/-Gamma_i) over the flattened pieces, with a dense c1 vector and
    a dense b1 x b1 s-matrix."""
    c1 = None
    if with_vector:
        coords = []
        for a, s in zip(atoms, signs, strict=True):
            coords.extend(s * x for x in a.canonical_spinc.c1)
        c1 = tuple(coords)
    c1_squared = sum(a.canonical_spinc.c1_squared for a in atoms)
    b1_total = sum(a.char.b1 for a in atoms)
    s_matrix = [[0] * b1_total for _ in range(b1_total)]
    offset = 0
    for a, s in zip(atoms, signs, strict=True):
        block = a.canonical_spinc.s_matrix
        r = a.char.b1
        for i in range(r):
            for j in range(r):
                s_matrix[offset + i][offset + j] = s * block[i][j]
        offset += r
    parities = {a.canonical_spinc.sw_parity for a in atoms}
    parity = Parity.ODD if parities == {Parity.ODD} else Parity.UNKNOWN
    return SpinCStructure(
        c1=c1, c1_squared=c1_squared,
        s_matrix=tuple(tuple(row) for row in s_matrix),
        sw_parity=parity, parity_provenance=Provenance.DERIVED,
    )


def flat_connected_sum(parts):
    """Connected sum that keeps one copy of every piece and assembles the
    dense Gram matrix, c1 vector and s-matrix.  Its ``summands`` are
    ``(piece, 1)`` pairs, one per piece."""
    if not parts:
        raise SurgeryError("connected sum of an empty list")
    if len(parts) == 1 and not parts[0].summands:
        return parts[0]
    atoms = sorted((piece for p in parts for piece in p.pieces()), key=_atom_sort_key)
    if len(atoms) == 1:
        return atoms[0]

    char = CharData(
        b1=sum(a.char.b1 for a in atoms),
        b_plus=sum(a.char.b_plus for a in atoms),
        b_minus=sum(a.char.b_minus for a in atoms),
        is_spin=all(a.char.is_spin for a in atoms),
        is_simply_connected=all(a.char.is_simply_connected for a in atoms),
    )

    lattice = None
    if all(a.lattice is not None for a in atoms):
        lattice = direct_sum([a.lattice for a in atoms],
                             [f"s{i}." for i in range(len(atoms))])

    spinc = ()
    if all(a.spinc_structures for a in atoms):
        with_vector = lattice is not None and all(
            a.canonical_spinc.c1 is not None for a in atoms)
        spinc = (flat_sum_spinc(atoms, [1] * len(atoms), with_vector),)

    flags = set()
    if all(Flag.HAS_PSC_METRIC in a.flags for a in atoms):
        flags.add(Flag.HAS_PSC_METRIC)
        flags.add(Flag.HAS_NONNEG_SCALAR_METRIC)
    if all(a.name in _ASD_PSC_ATOMS and Flag.HAS_ASD_PSC_METRIC in a.flags
           for a in atoms):
        flags.add(Flag.HAS_ASD_PSC_METRIC)
    if spinc and all(Flag.C1_MOD4_ZERO in a.flags for a in atoms):
        flags.add(Flag.C1_MOD4_ZERO)

    sv_factors = None
    if all(a.sv_factors is not None for a in atoms):
        merged = {}
        for a in atoms:
            for (k, g, h) in a.sv_factors:
                merged[(g, h)] = merged.get((g, h), 0) + k
        sv_factors = tuple(sorted((k, g, h) for (g, h), k in merged.items() if k > 0))

    counts = {}
    for a in atoms:
        counts[a.name] = counts.get(a.name, 0) + 1
    record = tuple(sorted(counts.items()))
    name = " # ".join(n if mult == 1 else f"{mult}*{n}" for n, mult in record)
    return Manifold(
        name=name, char=char, lattice=lattice,
        spinc_structures=spinc, flags=frozenset(flags),
        sv_factors=sv_factors, summand_record=record,
        summands=tuple((a, 1) for a in atoms),
    )
