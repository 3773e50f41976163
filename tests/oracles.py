"""Independent oracles used by the tests.

These deliberately avoid the solver code paths they check: the face solvers
maximize the intersection form over the hull of an explicit class list with
rational stationarity systems on every face, the mesh oracle enumerates grid
points of the hull by brute force (vectorized with numpy on plain integers,
which is exact well below 2^53), the interval oracle re-evaluates the
search inequalities with interval arithmetic over a coarse rational bracket
of pi^2, the division-based pi^2 decision divides where the library
cross-multiplies and takes a fixed enclosure of pi^2 (50 digits, coarse, or
1,100 digits from mpmath) where the library refines its own, the
Fraction-based Gromov-Hitchin-Thorpe and corollary certificates build the
rational right-hand sides the library clears into integers, the congruence
reduction over ``Fraction`` finds the inertia the library finds by integer
Schur complements, the flattened connected sum assembles one copy of every
piece into a dense Gram matrix, c1 vector and s-matrix, the dense
block-diagonal builders spell out the Gram matrix and s-matrix that the
library keeps as blocks of nonzero entries, and
``json.dump(indent=2)`` writes, from those dense rows, the reports the CLI
streams through its own indenting writer, and the geography search that
decides every l, builds every hit's own connected sum and certificates,
collects the hits and sorts them is the reference for the search that
bisects each cell, builds one sum per cell, fills each hit's line from a
template built once per outcome shape, and hands the lines on one at a time.

The last section holds what the tests check that no production path calls:
the paper's Dirac-index parity lemma and c1 = 0 classification, the 2^n
sign-choice structures on a sum with the conjugation they use, the canonical
expression printer, and the lattice pairing of the support-set solver.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from fourfold import einstein, exact
from fourfold.catalog import catalog_get
from fourfold.certify import Certificate, Premise, Verdict, moduli_dimension
from fourfold.einstein import simplicial_volume
from fourfold.errors import NonIntegralError, PremiseError, SurgeryError
from fourfold.model import (
    BlockSpinC,
    CharData,
    Flag,
    GramLattice,
    Manifold,
    Parity,
    Provenance,
    SparseMatrix,
    SpinCStructure,
)
from fourfold.monopole import Inconclusive
from fourfold.parser import Atom, Repeat, Sum
from fourfold.surgery import connected_sum
from fourfold.symbolic import pi2_greater

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


def sign_vector(i: int, rank: int) -> tuple[int, ...]:
    """Class i of a sign orbit of ``rank`` generators, as the sign vector
    that ``MonopoleClassSet.classes`` numbers: sign -1 on generator j
    exactly when bit rank-1-j of i is set."""
    return tuple(-1 if i >> (rank - 1 - j) & 1 else 1 for j in range(rank))


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
    gram_big = [[pairing(gram, points[i], points[j]) for j in range(m)]
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


# -- fixed rational enclosures of pi and pi^2: oracle inputs -----------------


class Enclosure(NamedTuple):
    """A rational interval (lo, hi) that contains pi^2."""

    lo: Fraction
    hi: Fraction


# pi^2 truncated to 50 decimal places, and a coarse pi^2 bracket; the tests
# re-verify both against mpmath.
PI2_50 = Enclosure(Fraction(986960440108935861883449099987615113531369940724079, 10**50),
                   Fraction(986960440108935861883449099987615113531369940724080, 10**50))
PI2_COARSE = Enclosure(Fraction("9.8696"), Fraction("9.8697"))
ENCLOSURES = (PI2_50, PI2_COARSE)


@functools.lru_cache(maxsize=None)
def mpmath_pi2_enclosure(digits: int = 1100) -> Enclosure:
    """pi^2 to 10^-digits from mpmath, evaluated with 30 guard digits."""
    import mpmath

    with mpmath.workdps(digits + 30):
        n = int(mpmath.floor(mpmath.pi ** 2 * mpmath.mpf(10) ** digits))
    return Enclosure(Fraction(n, 10**digits), Fraction(n + 1, 10**digits))


# -- pi^2 decisions by division: reference for the integer cross-multiplication


def pi2_greater_by_division(a, b, strict: bool = True, enclosure=PI2_50):
    """The division-based decision of a*pi^2 > b (>= when not strict):
    r = b/a as a reduced Fraction, compared with the enclosure ends."""
    a = Fraction(a)
    b = Fraction(b)
    if a == 0:
        return (0 > b) if strict else (0 >= b)
    r = b / a
    if a > 0:
        # need pi^2 > r
        if r <= enclosure.lo:
            return True
        if r >= enclosure.hi:
            return False
        return None
    # a < 0: need pi^2 < r
    if r >= enclosure.hi:
        return True
    if r <= enclosure.lo:
        return False
    return None


# -- Gromov-Hitchin-Thorpe with rational right-hand sides --------------------

# A c4 at which the spin search's first inequality, at (m, n, l1) = (2, 2, 1)
# with G = 4, and 16 f c4 / (81 gap) whenever f / gap = 1/4, land at the
# midpoint of PI2_50, so 50 digits of pi do not decide them.
TIE_C4 = (PI2_50.lo + PI2_50.hi) / 2 * Fraction(81, 4)


def _describe(decision):
    return "tie (enclosure too coarse)" if decision is None else str(decision)


def ght_by_fractions(m, c4=1, strict: bool = True, enclosure=PI2_50):
    """The Gromov-Hitchin-Thorpe certificate with each pi^2 comparison posed
    on the Fractions 16 f c4 and 16 f / c4 and decided by division."""
    c4 = Fraction(c4)
    sv = simplicial_volume(m, c4)
    if isinstance(sv, Inconclusive):
        return Certificate(
            theorem_id="ght",
            premises=(Premise("simplicial volume resolvable", False, sv.reason),),
            verdict=Verdict.INCONCLUSIVE,
            citation="Gromov-Hitchin-Thorpe inequality")
    gap = 2 * m.euler() - 3 * abs(m.signature())
    f = sv.factor
    upper = pi2_greater_by_division(81 * gap, 16 * f * c4, strict, enclosure)
    lower = pi2_greater_by_division(81 * gap, 16 * f / c4, strict, enclosure)
    violated = pi2_greater_by_division(81 * gap, 16 * f / c4, False, enclosure) is False
    gromov = pi2_greater_by_division(2592 * m.euler(), 16 * f * c4, False, enclosure)
    rel = ">" if strict else ">="
    premises = (
        Premise(f"2chi - 3|tau| {rel} (upper sv end)/(81 pi^2)", upper is True,
                f"81*(2chi-3|tau|)*pi^2 {rel} 16*factor*c4: {_describe(upper)}; "
                f"2chi-3|tau| = {gap}, factor = {f}, c4 = {c4}"),
        Premise(f"2chi - 3|tau| {rel} (lower sv end)/(81 pi^2)", lower is True,
                f"81*(2chi-3|tau|)*pi^2 {rel} 16*factor/c4: {_describe(lower)}"),
        Premise("Gromov: chi >= (upper sv end)/(2592 pi^2)", gromov is True,
                f"2592*chi*pi^2 >= 16*factor*c4: {_describe(gromov)}"),
    )
    if upper is True:
        verdict = Verdict.NOT_OBSTRUCTED
    elif violated:
        verdict = Verdict.OBSTRUCTED
        premises = (
            Premise("2chi - 3|tau| < (lower sv end)/(81 pi^2)", True,
                    f"2chi-3|tau| = {gap}, factor = {f}, c4 = {c4}"),
        ) + tuple(p for p in premises[2:] if p.passed)
    else:
        verdict = Verdict.INCONCLUSIVE
    return Certificate(
        theorem_id="ght", premises=premises, verdict=verdict,
        citation="Gromov-Hitchin-Thorpe inequality "
                 "2chi - 3|tau| >= ||M||/(81 pi^2), with Gromov's "
                 "chi >= ||M||/(2592 pi^2)")


def corollary_by_fractions(parts, k: int, g: int, h: int, l1: int, l2: int):
    """The specialized Einstein obstruction with its right-hand side built
    as the Fraction (1/3)(sum (2chi+3tau)(X_m) + 4k(1-h)(1-g)) and compared
    against the integer left-hand side."""
    n = len(parts)
    if n < 1 or k < 1 or n + k > 3:
        raise PremiseError(f"need n, k >= 1 with n + k <= 3; got n = {n}, k = {k}")
    if g < 1 or h < 1 or g % 2 == 0 or h % 2 == 0:
        raise PremiseError(f"need odd g, h >= 1; got ({g},{h})")
    if l1 < 0 or l2 < 0:
        raise PremiseError("l1, l2 must be nonnegative")
    for p in parts:
        if not p.char.is_simply_connected:
            raise PremiseError(f"{p.name} is not simply connected")
        if not p.has_flag(Flag.SYMPLECTIC):
            raise PremiseError(f"{p.name} is not symplectic")
        if p.char.b_plus % 4 != 3:
            raise PremiseError(f"{p.name} has b+ = {p.char.b_plus} != 3 (mod 4)")
    total = sum(p.two_chi_plus_3tau() for p in parts)
    lhs = 4 * (n + l1 + k) + l2
    rhs = Fraction(total + 4 * k * (1 - h) * (1 - g), 3)
    obstructed = lhs >= rhs
    premises = (
        Premise("parts are simply connected symplectic with b+ = 3 (mod 4)",
                True, ", ".join(p.name for p in parts)),
        Premise("4(n + l1 + k) + l2 >= (1/3)(sum(2chi+3tau) + 4k(1-h)(1-g))",
                obstructed, f"lhs = {lhs}, rhs = {rhs}"),
    )
    return Certificate(
        theorem_id="einstein-special",
        premises=premises,
        verdict=Verdict.OBSTRUCTED if obstructed else Verdict.NOT_OBSTRUCTED,
        citation="Einstein obstruction for symplectic pieces summed with "
                 "surface products, S1 x S3 copies and reversed projective planes")


# -- interval re-verification of the geography-search inequalities ----------

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


# -- the geography search collected, then sorted: reference for the stream ---


@dataclass(frozen=True)
class SearchHit:
    """One hit of the per-hit reference search, with its own certificates."""
    mode: str                  # "spin" | "nonspin"
    m: int
    n: int
    l: int                     # l1 (spin) or l2 (nonspin)
    manifold_name: str
    sv: einstein.SvInterval
    certificates: tuple[Certificate, ...]

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "m": self.m,
            "n": self.n,
            ("l1" if self.mode == "spin" else "l2"): self.l,
            "manifold": self.manifold_name,
            "sv": self.sv.to_json(),
            "certificates": [c.to_json() for c in self.certificates],
            "family_note": einstein._FAMILY_NOTE,
        }


def hit_for_tuple(mode: str, m: int, n: int, g: int, h: int, l: int,
                  pieces, c4: Fraction) -> SearchHit:
    """The hit at (m, n, l) from the fetched pieces Gompf(m,n), Y(1),
    Sigma(g,h) and S1xS3 (spin, l = l1) or CP2bar (non-spin, l = l2), with
    its own connected sum and its own three certificates: the per-hit
    reference for the search, which builds one sum per cell, steps chi, tau
    and the name from it, and fills each hit's line from a template built
    once per cell and outcome shape."""
    l1, l2 = (l, 0) if mode == "spin" else (0, l)
    manifold = connected_sum(pieces, counts=[1, 1, 1, l])
    chi, tau, sv = manifold.euler(), manifold.signature(), simplicial_volume(manifold, c4)
    certs = (
        einstein.hitchin_thorpe(chi, tau),
        einstein.ght(chi, tau, sv, strict=True),
        einstein.corollary_obstruction(pieces[:2], k=1, g=g, h=h, l1=l1, l2=l2),
    )
    return SearchHit(mode=mode, m=m, n=n, l=l, manifold_name=manifold.name,
                     sv=sv, certificates=certs)


def search_by_sorting(mode: str, g: int, h: int, m_max: int, n_max: int, c4=1):
    """(hits, ties) of a geography search as the library ran it before it
    streamed its hits: every cell is scanned into lists of its own, and the
    hits and the tie keys are sorted by (m, n, l) once every cell is done.
    It decides the first inequality at every l and builds every hit with
    ``hit_for_tuple``, so it checks the per-cell bisection, the stepped
    chi, tau and names and the scan order; the certificates are the
    library's own."""
    c4 = Fraction(c4)
    if g < 3 or h < 3 or g % 2 == 0 or h % 2 == 0:
        raise PremiseError(f"the searches need odd g, h >= 3; got ({g},{h})")
    if c4 <= 0:
        raise ValueError("c4 must be positive")
    einstein._check_search_size(mode, g, h, m_max, n_max)
    big_g = (g - 1) * (h - 1)
    w, last_atom = einstein._MODES[mode]
    b = 4 * w * big_g * c4.numerator
    shared = (catalog_get("Y(1)"), catalog_get(f"Sigma({g},{h})"), catalog_get(last_atom))

    def scan_cell(cell):
        m, n = cell
        hits, ties = [], []
        pieces = None
        lo, last = einstein._l_range(mode, n, big_g)
        for l in range(lo, last + 1):
            dec1 = pi2_greater(81 * (last - l) * c4.denominator, b, strict=True)
            if dec1 is False:
                continue
            if dec1 is None:
                ties.append((m, n, l))
                continue
            if pieces is None:
                pieces = (catalog_get(f"Gompf({m},{n})"),) + shared
            hits.append(hit_for_tuple(mode, m, n, g, h, l, pieces, c4))
        return hits, ties

    results = [scan_cell(c) for c in einstein._spin_cells(m_max, n_max)]
    hits = sorted((h for hs, _ in results for h in hs), key=lambda hit: (hit.m, hit.n, hit.l))
    ties = sorted(t for _, ts in results for t in ts)
    return hits, ties


def search_lines(mode: str, hits, ties) -> str:
    """The CLI's stdout for a search's hits and ties, each line encoded by
    ``json.dumps(sort_keys=True)``."""
    lines = [json.dumps({**hit.to_json(), "version": 1, "kind": "search-hit"}, sort_keys=True)
             for hit in hits]
    lines += [json.dumps({"version": 1, "kind": "search-inconclusive", "mode": mode,
                          "m": m, "n": n, "l": l, "reason": "pi^2 enclosure tie"},
                         sort_keys=True)
              for m, n, l in ties]
    return "".join(line + "\n" for line in lines)


# -- congruence reduction over Fraction: reference for the integer inertia ----


def fraction_inertia(gram):
    """Sylvester inertia (positive, negative, zero) of a symmetric matrix over
    Q by symmetric congruence reduction in place, every entry a Fraction."""
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    for i in range(n):
        for j in range(i + 1, n):
            if a[i][j] != a[j][i]:
                raise ValueError("inertia requires a symmetric matrix")
    pos = neg = zero = 0

    def swap(i, j):
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


# -- dense matrices: the reference for the stored nonzero entries and blocks -


def block_diagonal(blocks, size):
    """The dense ``size x size`` matrix with each square block repeated
    ``count`` times down the diagonal; empty blocks cost nothing."""
    rows = []
    offset = 0
    for block, count in blocks:
        r = len(block)
        for _ in range(count if r else 0):
            left, right = (0,) * offset, (0,) * (size - offset - r)
            rows.extend(left + tuple(row) + right for row in block)
            offset += r
    return tuple(rows)


def dense_gram(lattice):
    """The dense Gram matrix of a ``GramLattice`` or ``BlockLattice``."""
    return block_diagonal(((b.gram, c) for b, c in lattice.blocks), lattice.rank)


def s_matrix(g):
    """The dense s-matrix of a ``SpinCStructure`` or ``BlockSpinC``."""
    if isinstance(g, BlockSpinC):
        return block_diagonal(((s_matrix(b), c) for b, c in g.blocks), g.s_size)
    rows = [[0] * g.s_size for _ in range(g.s_size)]
    for i, j, x in g.s_entries:
        rows[i][j], rows[j][i] = x, -x
    return tuple(map(tuple, rows))


def dense_rows(matrix):
    """The dense rows of a ``SparseMatrix``, as lists."""
    rows = [[0] * matrix.side for _ in range(matrix.side)]
    for row, pairs in zip(rows, matrix.rows, strict=True):
        for j, x in pairs:
            row[j] = x
    return rows


def plain(doc):
    """``doc`` with every ``SparseMatrix`` spelled out as its dense rows: the
    plain data ``json`` can write."""
    if isinstance(doc, SparseMatrix):
        return dense_rows(doc)
    if isinstance(doc, dict):
        return {key: plain(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [plain(value) for value in doc]
    return doc


def sparse_s(rows):
    """The ``s_size`` and ``s_entries`` fields of a dense antisymmetric matrix."""
    n = len(rows)
    return {"s_size": n, "s_entries": tuple(
        (i, j, rows[i][j]) for i in range(n) for j in range(n) if i < j and rows[i][j])}


def dense_negation(rows):
    return tuple(tuple(-x for x in row) for row in rows)


def dense_even(rows):
    return all(x % 2 == 0 for row in rows for x in row)


def dense_first_odd(rows):
    """The first odd entry in row-major order, or None."""
    return next(((i, j) for i, row in enumerate(rows) for j, x in enumerate(row)
                 if x % 2), None)


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
    b1_total = sum(a.canonical_spinc.s_size for a in atoms)
    rows = [[0] * b1_total for _ in range(b1_total)]
    offset = 0
    for a, s in zip(atoms, signs, strict=True):
        block = s_matrix(a.canonical_spinc)
        r = len(block)
        for i in range(r):
            for j in range(r):
                rows[offset + i][offset + j] = s * block[i][j]
        offset += r
    parities = {a.canonical_spinc.sw_parity for a in atoms}
    parity = Parity.ODD if parities == {Parity.ODD} else Parity.UNKNOWN
    return SpinCStructure(
        c1=c1, c1_squared=c1_squared, **sparse_s(rows),
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
        sv_factors=sv_factors,
        summands=tuple((a, 1) for a in atoms),
    )


# -- the indented report: reference for the CLI's streaming writer ----------


def emit_report(doc, fp) -> None:
    """``doc`` as ``json.dump(indent=2, sort_keys=True)`` writes it, each
    ``SparseMatrix`` as its dense rows, then one newline: the text
    ``cli._emit`` must match byte for byte."""
    json.dump(plain(doc), fp, indent=2, sort_keys=True)
    fp.write("\n")


# -- what only the tests check: lemmas, sign choices, printing, pairing -------


def dirac_index(m, g):
    """Numerical index (c1^2 - tau)/8 of the spin-c Dirac operator."""
    num = g.c1_squared - m.signature()
    if num % 8 != 0:
        raise NonIntegralError(
            f"(c1^2 - tau) = {num} is not divisible by 8; inadmissible c1")
    return num // 8


def parity_equivalence(m, g):
    """(index even, d + b+ - b1 = 3 mod 4), each computed on its own; the
    paper's parity lemma says the two always agree."""
    d = moduli_dimension(m, g)
    return (dirac_index(m, g) % 2 == 0,
            (d + m.char.b_plus - m.char.b1) % 4 == 3)


def classify_c1_zero_types():
    """All (b+, b1, tau) triples of almost complex 4-manifolds with c1 = 0,
    b+ > 1 and odd SW invariant.

    Constraint chain: c1 = 0 forces spin and 2chi + 3tau = 0; Rochlin gives
    tau = 16k; hence b1 = 1 + b+ + 4k; odd SW with c1 = 0 forces b+ <= 3, so
    b+ is 2 or 3 and 16k <= tau <= b+ gives k <= 0; b1 >= 0 bounds k below.
    """
    out = []
    for b_plus in (2, 3):
        # b1 = 1 + b+ + 4k >= 0  =>  k >= -(1 + b+)/4
        k_min = -((1 + b_plus) // 4)
        for k in range(k_min, 1):
            b1 = 1 + b_plus + 4 * k
            if b1 < 0:
                continue
            out.append((b_plus, b1, 16 * k))
    return out


def conjugate(g):
    """The complex-conjugate structure: c1 and the s-matrix flip sign, the
    parity is kept; a ``BlockSpinC`` is conjugated block by block."""
    if isinstance(g, BlockSpinC):
        return replace(g, blocks=tuple((conjugate(b), c) for b, c in g.blocks))
    c1 = None if g.c1 is None else tuple(-x for x in g.c1)
    return replace(g, c1=c1, s_entries=tuple((i, j, -x) for i, j, x in g.s_entries))


def sum_spinc(m, signs):
    """The spin-c structure #(+/-Gamma_i) on the connected sum ``m`` for a
    sign vector over its pieces: a ``BlockSpinC`` with one block per run of
    equal signs within an atom's copies, Odd when every piece is.  A run
    that splits an atom's copies splits its lattice block too, so
    ``validate`` reports such a structure's c1 vector as not fitting it."""
    summands = m.atom_counts()
    n = m.piece_count()
    if len(signs) != n:
        raise SurgeryError(f"sign vector length {len(signs)} != {n} pieces")
    if any(s not in (1, -1) for s in signs):
        raise SurgeryError("signs must be +/-1")
    if not all(a.spinc_structures for a, _ in summands):
        raise SurgeryError("every piece needs a spin-c structure")
    blocks = []
    start = 0
    for atom, count in summands:
        g = atom.canonical_spinc
        for sign, run in itertools.groupby(signs[start:start + count]):
            blocks.append((g if sign == 1 else conjugate(g), sum(1 for _ in run)))
        start += count
    return BlockSpinC(tuple(blocks))


def all_sign_spinc(m):
    """Lazy iterator over the 2^n sign-choice structures on a sum, all-plus
    first."""
    for signs in itertools.product((1, -1), repeat=m.piece_count()):
        yield signs, sum_spinc(m, signs)


def to_text(node):
    """Canonical rendering of an expression AST; parse(to_text(ast)) == ast."""
    if isinstance(node, Atom):
        return node.display()
    if isinstance(node, Repeat):
        inner = to_text(node.inner)
        if isinstance(node.inner, Sum):
            inner = f"({inner})"
        return f"{node.count}*{inner}"
    return " # ".join(
        f"({to_text(p)})" if isinstance(p, Sum) else to_text(p)
        for p in node.parts)


def pairing(gram, x, y):
    """x^T G y, exactly, as a Fraction."""
    return sum((Fraction(xi) * g * yj for row, xi in zip(gram, x, strict=True)
                for g, yj in zip(row, y, strict=True)), Fraction(0))
