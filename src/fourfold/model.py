"""Data model for closed oriented smooth 4-manifolds and their spin-c structures.

A :class:`Manifold` stores characteristic data (b1, b+, b-, spin-ness,
simple-connectivity), an optional integer Gram lattice for the part of H^2 we
track classes in, spin-c structures with explicit first Chern data, geometric
property flags, hyperbolic-product content for simplicial-volume intervals,
and a record of the connected-sum history that produced it.

Atoms and sums
--------------

An atom (a catalog block or a user manifold) stores everything densely: a
:class:`GramLattice` and :class:`SpinCStructure` values with explicit c1
vectors and half-triple-product matrices.  A connected sum is a multiset of
atoms: ``summands`` holds sorted ``(atom, count)`` pairs, its lattice is a
:class:`BlockLattice` of ``(atom lattice, count)`` blocks and its spin-c
structures are :class:`BlockSpinC` values of ``(atom structure, count)``
blocks.  Their checks run once per distinct block (the inertia of an
orthogonal sum is the count-weighted sum of the block inertias), so the cost
of :func:`validate` grows with the number of distinct atoms, not with
repetition counts.  The dense Gram matrix, basis labels, c1 vector and
s-matrix of a sum are built only when a caller asks for them, as the JSON
dump does.

Everything is an immutable value; all operations in the package are pure
functions, so instances can be shared freely across threads.

Conventions
-----------

* Euler characteristic and signature are always derived from (b1, b+, b-),
  never stored separately, so they cannot drift out of sync.
* When a manifold carries the ``AlmostComplex`` flag, its *first* spin-c
  structure is the one induced by the almost complex structure; its c1 is an
  almost canonical class and must satisfy c1^2 = 2*chi + 3*tau.
* SW parity is asserted data with provenance, never computed here: this is a
  certificate checker, not a gauge-theory solver.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Hashable, Iterable, Iterator, Optional, Sequence, Union

from fourfold import exact
from fourfold.errors import CapacityError


class Parity(enum.Enum):
    ODD = "Odd"
    EVEN = "Even"
    UNKNOWN = "Unknown"


class Provenance(enum.Enum):
    TAUBES_SYMPLECTIC = "TaubesSymplectic"
    USER_ASSERTED = "UserAsserted"
    DERIVED = "Derived"


class Flag(enum.Enum):
    ALMOST_COMPLEX = "AlmostComplex"
    SYMPLECTIC = "Symplectic"
    MINIMAL_KAEHLER = "MinimalKaehler"
    HAS_PSC_METRIC = "HasPSCMetric"
    HAS_NONNEG_SCALAR_METRIC = "HasNonnegScalarMetric"
    HAS_ASD_PSC_METRIC = "HasASDPSCMetric"
    C1_MOD4_ZERO = "C1Mod4Zero"


# Flag implications, checked by validate(): minimal Kaehler surfaces are
# symplectic, symplectic manifolds are almost complex.
_FLAG_IMPLICATIONS = (
    (Flag.MINIMAL_KAEHLER, Flag.SYMPLECTIC),
    (Flag.SYMPLECTIC, Flag.ALMOST_COMPLEX),
)


@dataclass(frozen=True)
class CharData:
    """Characteristic data of a closed oriented smooth 4-manifold."""

    b1: int
    b_plus: int
    b_minus: int
    is_spin: bool
    is_simply_connected: bool

    def euler(self) -> int:
        return 2 - 2 * self.b1 + self.b_plus + self.b_minus

    def signature(self) -> int:
        return self.b_plus - self.b_minus

    def two_chi_plus_3tau(self) -> int:
        return 2 * self.euler() + 3 * self.signature()

    def two_chi_minus_3tau(self) -> int:
        return 2 * self.euler() - 3 * self.signature()


def tally(pairs: Iterable[tuple[Hashable, int]]) -> dict:
    """Total count per distinct key, in order of first appearance."""
    out: dict = {}
    for key, count in pairs:
        out[key] = out.get(key, 0) + count
    return out


def _block_diagonal(blocks: Iterable[tuple[Sequence[Sequence[int]], int]],
                    size: int) -> tuple[tuple[int, ...], ...]:
    """The dense ``size x size`` matrix with each square block repeated
    ``count`` times down the diagonal."""
    rows: list[tuple[int, ...]] = []
    offset = 0
    for block, count in blocks:
        r = len(block)
        for _ in range(count):
            left, right = (0,) * offset, (0,) * (size - offset - r)
            rows.extend(left + tuple(row) + right for row in block)
            offset += r
    return tuple(rows)


def _is_symmetric(gram: Sequence[Sequence[int]]) -> bool:
    n = len(gram)
    return all(gram[i][j] == gram[j][i] for i in range(n) for j in range(n))


@dataclass(frozen=True)
class GramLattice:
    """A symmetric integer bilinear form on a chosen sublattice of H^2.

    This need not be all of H^2(X;Z)/torsion; it is the sublattice spanned by
    the classes the toolkit actually works with (canonical classes, fiber
    classes, exceptional spheres).
    """

    basis_labels: tuple[str, ...]
    gram: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.basis_labels)
        if len(self.gram) != n or any(len(row) != n for row in self.gram):
            raise ValueError("gram matrix shape does not match basis")

    @property
    def rank(self) -> int:
        return len(self.basis_labels)

    @property
    def blocks(self) -> tuple[tuple["GramLattice", int], ...]:
        """The lattice as one block, so it reads like a :class:`BlockLattice`."""
        return ((self, 1),)

    def is_symmetric(self) -> bool:
        return _is_symmetric(self.gram)

    def inertia(self) -> tuple[int, int, int]:
        if self.rank == 0:
            return (0, 0, 0)
        return exact.inertia(self.gram)

    def norm(self, x: Sequence[int]) -> Fraction:
        return exact.quadratic_form(self.gram, x)

    def pairing(self, x: Sequence[int], y: Sequence[int]) -> Fraction:
        return exact.pairing(self.gram, x, y)


@dataclass(frozen=True)
class BlockLattice:
    """The orthogonal direct sum of dense blocks, each repeated ``count``
    times: the lattice of a connected sum, one block per distinct atom.

    Every copy of a block is one piece of the sum.  Pieces are numbered in
    block order from 0, counting rank-0 blocks too, and the dense basis labels
    of piece i carry the prefix ``s{i}.``.
    """

    blocks: tuple[tuple[GramLattice, int], ...]

    @property
    def rank(self) -> int:
        return sum(block.rank * count for block, count in self.blocks)

    @property
    def basis_labels(self) -> tuple[str, ...]:
        """The dense basis labels (O(rank); built on request)."""
        labels: list[str] = []
        piece = 0
        for block, count in self.blocks:
            for _ in range(count):
                labels.extend(f"s{piece}.{name}" for name in block.basis_labels)
                piece += 1
        return tuple(labels)

    @property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        """The dense Gram matrix (O(rank^2); built on request)."""
        return _block_diagonal(((b.gram, c) for b, c in self.blocks), self.rank)

    def _distinct_grams(self) -> dict:
        return tally((block.gram, count) for block, count in self.blocks if block.rank)

    def is_symmetric(self) -> bool:
        return all(_is_symmetric(gram) for gram in self._distinct_grams())

    def inertia(self) -> tuple[int, int, int]:
        """Sylvester inertia, one ``exact.inertia`` call per distinct block."""
        pos = neg = zero = 0
        for gram, count in self._distinct_grams().items():
            p, n, z = exact.inertia(gram)
            pos, neg, zero = pos + count * p, neg + count * n, zero + count * z
        return pos, neg, zero

    def _segments(self, x: Sequence[int]) -> Iterator[tuple[tuple, tuple]]:
        """(gram, slice of x) for every piece of positive rank."""
        if len(x) != self.rank:
            raise ValueError("vector length does not match lattice rank")
        offset = 0
        for block, count in self.blocks:
            r = block.rank
            for _ in range(count):
                if r:
                    yield block.gram, tuple(x[offset:offset + r])
                offset += r

    def norm(self, x: Sequence[int]) -> Fraction:
        """x^T G x, one ``exact.quadratic_form`` call per distinct
        (block, segment of x) pair."""
        return sum((count * exact.quadratic_form(gram, seg)
                    for (gram, seg), count in tally(
                        (key, 1) for key in self._segments(x)).items()),
                   Fraction(0))

    def pairing(self, x: Sequence[int], y: Sequence[int]) -> Fraction:
        return sum((exact.pairing(gram, xs, ys) for (gram, xs), (_, ys)
                    in zip(self._segments(x), self._segments(y))), Fraction(0))


Lattice = Union[GramLattice, BlockLattice]


@dataclass(frozen=True)
class SpinCStructure:
    """A spin-c structure, recorded through its determinant-line first Chern data.

    ``c1`` is the coordinate vector of c1 in the owning manifold's lattice
    basis (None when no lattice is stored), ``c1_squared`` caches the
    self-intersection, and ``s_matrix`` is the antisymmetric integer matrix of
    half triple-product evaluations against a fixed basis of H^1.
    """

    c1: Optional[tuple[int, ...]]
    c1_squared: int
    s_matrix: tuple[tuple[int, ...], ...]
    sw_parity: Parity = Parity.UNKNOWN
    parity_provenance: Provenance = Provenance.DERIVED

    def conjugate(self) -> "SpinCStructure":
        """The complex-conjugate structure: c1 flips sign, parity is preserved."""
        c1 = None if self.c1 is None else tuple(-x for x in self.c1)
        s = tuple(tuple(-x for x in row) for row in self.s_matrix)
        return replace(self, c1=c1, s_matrix=s)

    def s_matrix_even(self) -> bool:
        return all(x % 2 == 0 for row in self.s_matrix for x in row)

    def c1_mod4_zero(self) -> Optional[bool]:
        """Whether c1 maps to zero in H^2(X; Z/4); None when no vector is stored."""
        if self.c1 is None:
            return None
        return all(x % 4 == 0 for x in self.c1)

    @property
    def blocks(self) -> tuple[tuple["SpinCStructure", int], ...]:
        """The structure as one block, so it reads like a :class:`BlockSpinC`."""
        return ((self, 1),)


@dataclass(frozen=True)
class BlockSpinC:
    """A spin-c structure on a connected sum, by blocks.

    Each block is a structure on one atom (its c1 vector, c1^2 and s-matrix),
    repeated ``count`` times in piece order, matching the blocks of the sum's
    :class:`BlockLattice`.  Block c1 vectors are None when the sum stores no
    c1 vector.  ``c1`` and ``s_matrix`` are the dense forms, built on request.
    """

    blocks: tuple[tuple[SpinCStructure, int], ...]
    sw_parity: Parity = Parity.UNKNOWN
    parity_provenance: Provenance = Provenance.DERIVED

    @property
    def c1_squared(self) -> int:
        return sum(g.c1_squared * count for g, count in self.blocks)

    @property
    def c1(self) -> Optional[tuple[int, ...]]:
        if any(g.c1 is None for g, _ in self.blocks):
            return None
        return tuple(itertools.chain.from_iterable(g.c1 * count for g, count in self.blocks))

    @property
    def s_matrix(self) -> tuple[tuple[int, ...], ...]:
        size = sum(len(g.s_matrix) * count for g, count in self.blocks)
        return _block_diagonal(((g.s_matrix, c) for g, c in self.blocks), size)

    def conjugate(self) -> "BlockSpinC":
        return replace(self, blocks=tuple((g.conjugate(), c) for g, c in self.blocks))

    def s_matrix_even(self) -> bool:
        return all(g.s_matrix_even() for g, _ in self.blocks)

    def c1_mod4_zero(self) -> Optional[bool]:
        answers = [g.c1_mod4_zero() for g, _ in self.blocks]
        return None if None in answers else all(answers)


SpinC = Union[SpinCStructure, BlockSpinC]


def _c1_norm(lattice: Lattice, g: SpinC) -> Optional[Fraction]:
    """c1^2 in the lattice, one ``exact.quadratic_form`` call per distinct
    (block, c1 block) pair; None when a c1 block does not fit its piece.

    Both block sequences count pieces, so they are walked together; a run of
    c1 blocks may split a lattice block, as the sign runs of ``sum_spinc`` do.
    """
    distinct: dict = {}
    c1_runs = iter(g.blocks)
    s, left = None, 0
    for block, count in lattice.blocks:
        while count:
            if not left:
                s, left = next(c1_runs, (None, 0))
            if s is None or len(s.c1) != block.rank:
                return None
            take = min(count, left)
            if block.rank:
                key = (block.gram, s.c1)
                distinct[key] = distinct.get(key, 0) + take
            count, left = count - take, left - take
    if left or next(c1_runs, None) is not None:
        return None
    return sum((n * exact.quadratic_form(gram, c1) for (gram, c1), n in distinct.items()),
               Fraction(0))


def _s_matrix_problem(g: SpinC, b1: int) -> Optional[str]:
    """Shape and antisymmetry of the s-matrix, checked per distinct block."""
    blocks = tally((s.s_matrix, n) for s, n in g.blocks)
    size = sum(len(s) * n for s, n in blocks.items())
    if size != b1 or any(len(row) != len(s) for s in blocks for row in s):
        return "s_matrix is not b1 x b1"
    if any(s[i][j] != -s[j][i] for s in blocks for i in range(len(s)) for j in range(len(s))):
        return "s_matrix is not antisymmetric"
    return None


def zero_s_matrix(b1: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(0 for _ in range(b1)) for _ in range(b1))


@dataclass(frozen=True)
class Manifold:
    name: str
    char: CharData
    lattice: Optional[Lattice] = None
    spinc_structures: tuple[SpinC, ...] = ()
    flags: frozenset[Flag] = frozenset()
    # Known hyperbolic-product content: ((k, g, h), ...) meaning k connected
    # summands of (genus-g surface) x (genus-h surface).  None means the
    # simplicial volume is unknown; an empty tuple means it is known zero.
    sv_factors: Optional[tuple[tuple[int, int, int], ...]] = None
    summand_record: tuple[tuple[str, int], ...] = ()
    # The connected-sum multiset: sorted (atom, count) pairs; empty for atoms
    # (the manifold is its own single summand).
    summands: tuple[tuple["Manifold", int], ...] = field(default=(), repr=False)

    def euler(self) -> int:
        return self.char.euler()

    def signature(self) -> int:
        return self.char.signature()

    def two_chi_plus_3tau(self) -> int:
        return self.char.two_chi_plus_3tau()

    def two_chi_minus_3tau(self) -> int:
        return self.char.two_chi_minus_3tau()

    def has_flag(self, flag: Flag) -> bool:
        return flag in self.flags

    @property
    def canonical_spinc(self) -> Optional[SpinC]:
        return self.spinc_structures[0] if self.spinc_structures else None

    def atom_counts(self) -> tuple[tuple["Manifold", int], ...]:
        """The (atom, count) multiset (``((self, 1),)`` for atoms)."""
        return self.summands or ((self, 1),)

    def piece_count(self) -> int:
        return sum(count for _, count in self.atom_counts())

    def pieces(self) -> tuple["Manifold", ...]:
        """The flattened connected-sum pieces (the manifold itself for atoms);
        its length is the atom count, so it costs O(atoms)."""
        return flatten(self.atom_counts())

    def sv_factor_total(self) -> Optional[int]:
        """Sum of k*(g-1)*(h-1) over the recorded product content; None if unknown."""
        if self.sv_factors is None:
            return None
        return sum(k * (g - 1) * (h - 1) for (k, g, h) in self.sv_factors)

    def __str__(self) -> str:
        return self.name


# Listing a sum piece by piece costs O(pieces); past this many it raises
# CapacityError instead of exhausting memory.  Multiset code paths never list.
PIECE_CAP = 1_000_000


def flatten(atom_counts: Iterable[tuple[Manifold, int]]) -> tuple[Manifold, ...]:
    """Each atom repeated ``count`` times, in order; at most ``PIECE_CAP``."""
    atom_counts = tuple(atom_counts)
    n = sum(count for _, count in atom_counts)
    if n > PIECE_CAP:
        raise CapacityError(
            f"listing {n} connected-sum pieces one by one is over the cap of {PIECE_CAP}")
    return tuple(itertools.chain.from_iterable(
        itertools.repeat(a, count) for a, count in atom_counts))


def validate(m: Manifold) -> list[str]:
    """Check every structural invariant; returns a list of violation descriptions.

    Total function: never raises, an empty list means the manifold is
    internally consistent.
    """
    problems: list[str] = []
    c = m.char
    if c.b1 < 0 or c.b_plus < 0 or c.b_minus < 0:
        problems.append("negative Betti data")
    if c.is_simply_connected and c.b1 != 0:
        problems.append("simply connected manifold must have b1 = 0")

    if m.lattice is not None:
        if not m.lattice.is_symmetric():
            problems.append("gram matrix is not symmetric")
        else:
            pos, neg, _ = m.lattice.inertia()
            if pos > c.b_plus:
                problems.append(
                    f"lattice has {pos} positive directions but b+ = {c.b_plus}")
            if neg > c.b_minus:
                problems.append(
                    f"lattice has {neg} negative directions but b- = {c.b_minus}")

    for idx, g in enumerate(m.spinc_structures):
        if m.lattice is not None and all(s.c1 is not None for s, _ in g.blocks):
            q = _c1_norm(m.lattice, g)
            if q is None:
                problems.append(f"spin-c #{idx}: c1 length does not match lattice rank")
            elif q != g.c1_squared:
                problems.append(
                    f"spin-c #{idx}: cached c1_squared = {g.c1_squared} "
                    f"but the lattice gives {q}")
        s_problem = _s_matrix_problem(g, c.b1)
        if s_problem is not None:
            problems.append(f"spin-c #{idx}: {s_problem}")

    if Flag.ALMOST_COMPLEX in m.flags and m.spinc_structures:
        g = m.spinc_structures[0]
        if g.c1_squared != c.two_chi_plus_3tau():
            problems.append(
                "almost-canonical-class identity fails: canonical c1^2 = "
                f"{g.c1_squared} but 2*chi + 3*tau = {c.two_chi_plus_3tau()}")

    for weaker, stronger in _FLAG_IMPLICATIONS:
        if weaker in m.flags and stronger not in m.flags:
            problems.append(f"flag {weaker.value} requires flag {stronger.value}")

    if Flag.HAS_PSC_METRIC in m.flags:
        # A positive-scalar-curvature metric rules out nonzero monopole
        # classes; an odd-SW structure with c1^2 > 0 certifies one.
        for g in m.spinc_structures:
            if g.sw_parity is Parity.ODD and g.c1_squared > 0:
                problems.append(
                    "HasPSCMetric contradicts a nonzero monopole class "
                    "(odd SW parity with c1^2 > 0)")
                break

    if Flag.C1_MOD4_ZERO in m.flags and m.spinc_structures:
        mod4 = m.spinc_structures[0].c1_mod4_zero()
        if mod4 is False:
            problems.append("C1Mod4Zero flag set but canonical c1 has a coordinate != 0 mod 4")

    if m.sv_factors is not None:
        for (k, g_, h_) in m.sv_factors:
            if k < 0 or g_ < 1 or h_ < 1:
                problems.append(f"invalid sv factor ({k},{g_},{h_})")

    return problems
