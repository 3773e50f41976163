"""Data model for closed oriented smooth 4-manifolds and their spin-c structures.

A :class:`Manifold` stores characteristic data (b1, b+, b-, spin-ness,
simple-connectivity), an optional integer Gram lattice for the part of H^2 we
track classes in, spin-c structures with explicit first Chern data, geometric
property flags, hyperbolic-product content for simplicial-volume intervals,
and, for a connected sum, the multiset of atoms that produced it.  The
summand record and a sum's name are derived from that multiset, never
stored beside it.

Atoms and sums
--------------

An atom (a catalog block or a user manifold) stores a dense
:class:`GramLattice`, and :class:`SpinCStructure` values with explicit c1
vectors and sparse half-triple-product matrices.  A connected sum is a
multiset of atoms: ``summands`` holds sorted ``(atom, count)`` pairs, its
lattice is a :class:`BlockLattice` of ``(atom lattice, count)`` blocks and
its spin-c structures are :class:`BlockSpinC` values of ``(atom structure,
count)`` blocks, each block the atom's own structure object.  An atom reads
as its single block, so each check is one function over ``.blocks`` that runs
once per distinct block (the inertia of an orthogonal sum is the
count-weighted sum of the block inertias): the cost of :func:`validate` grows
with the number of distinct atoms, not with repetition counts.  A sum's SW
parity is derived from its blocks; the evenness of a half-triple-product
matrix is read from pieces, which are atoms.  No dense matrix of a sum is
ever built: the JSON dump takes its Gram matrix and s-matrix as
:class:`SparseMatrix` rows of nonzero entries, built from the blocks, and
only its basis labels and c1 vector are spelled out, on request.

Everything is an immutable value; all operations in the package are pure
functions, so instances can be shared freely across threads.

Conventions
-----------

* Euler characteristic and signature are always derived from (b1, b+, b-),
  never stored separately, so they cannot drift out of sync.
* When a manifold carries the ``AlmostComplex`` flag, its *first* spin-c
  structure is the one induced by the almost complex structure; its c1 is an
  almost canonical class and must satisfy c1^2 = 2*chi + 3*tau.
* An atom's SW parity is asserted data with provenance, never computed here
  (a certificate checker is no gauge-theory solver); a sum's is ``Derived``.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Optional, Sequence, Union

from fourfold import exact
from fourfold.errors import CapacityError, shown


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


def tally(pairs: Iterable[tuple[Hashable, int]]) -> dict:
    """Total count per distinct key, in order of first appearance."""
    out: dict = {}
    for key, count in pairs:
        out[key] = out.get(key, 0) + count
    return out


@dataclass(frozen=True)
class GramLattice:
    """A symmetric integer bilinear form on a chosen sublattice of H^2; an
    asymmetric ``gram`` is refused on construction.

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
        if any(self.gram[i][j] != self.gram[j][i] for i in range(n) for j in range(i)):
            raise ValueError("gram matrix is not symmetric")

    @property
    def rank(self) -> int:
        return len(self.basis_labels)

    @property
    def blocks(self) -> tuple[tuple["GramLattice", int], ...]:
        """The lattice as one block, so it reads like a :class:`BlockLattice`."""
        return ((self, 1),)


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
            for i in range(piece, piece + count if block.rank else piece):
                labels.extend(f"s{i}.{name}" for name in block.basis_labels)
            piece += count
        return tuple(labels)


Lattice = Union[GramLattice, BlockLattice]


def lattice_inertia(lattice: Lattice) -> tuple[int, int, int]:
    """Sylvester inertia (positive, negative, zero), one ``exact.inertia``
    call per distinct block: an orthogonal sum's inertia is the
    count-weighted sum of its blocks'."""
    pos = neg = zero = 0
    for gram, count in tally((block.gram, count) for block, count in lattice.blocks
                             if block.rank).items():
        p, n, z = exact.inertia(gram)
        pos, neg, zero = pos + count * p, neg + count * n, zero + count * z
    return pos, neg, zero


@dataclass(frozen=True)
class SpinCStructure:
    """A spin-c structure, recorded through its determinant-line first Chern data.

    ``c1`` is the coordinate vector of c1 in the owning manifold's lattice
    basis (None when no lattice is stored), ``c1_squared`` caches the
    self-intersection, and the antisymmetric integer matrix of half
    triple-product evaluations against a fixed basis of H^1 is stored as its
    size and its nonzero entries ``(i, j, x)``, ``i < j``, in row-major order.
    """

    c1: Optional[tuple[int, ...]]
    c1_squared: int
    s_size: int = 0
    s_entries: tuple[tuple[int, int, int], ...] = ()
    sw_parity: Parity = Parity.UNKNOWN
    parity_provenance: Provenance = Provenance.DERIVED

    def s_matrix_even(self) -> bool:
        return all(x % 2 == 0 for _, _, x in self.s_entries)

    @property
    def blocks(self) -> tuple[tuple["SpinCStructure", int], ...]:
        """The structure as one block, so it reads like a :class:`BlockSpinC`."""
        return ((self, 1),)


@dataclass(frozen=True)
class BlockSpinC:
    """A spin-c structure on a connected sum, by blocks.

    Each block is an atom's own canonical structure, or its conjugate,
    repeated ``count`` times in piece order, one block per block of the sum's
    :class:`BlockLattice`.  The sum's parity is derived from the blocks',
    which keep their atoms'.  ``c1`` is the dense vector, built on request,
    and None when any block has no vector.
    """

    blocks: tuple[tuple[SpinCStructure, int], ...]
    parity_provenance = Provenance.DERIVED  # a constant, not a field

    @property
    def sw_parity(self) -> Parity:
        """Odd exactly when every block's parity is Odd, else Unknown."""
        odd = all(g.sw_parity is Parity.ODD for g, _ in self.blocks)
        return Parity.ODD if odd else Parity.UNKNOWN

    @property
    def c1_squared(self) -> int:
        return sum(g.c1_squared * count for g, count in self.blocks)

    @property
    def c1(self) -> Optional[tuple[int, ...]]:
        if any(g.c1 is None for g, _ in self.blocks):
            return None
        return tuple(itertools.chain.from_iterable(g.c1 * count for g, count in self.blocks))

    @property
    def s_size(self) -> int:
        return sum(g.s_size * count for g, count in self.blocks)


SpinC = Union[SpinCStructure, BlockSpinC]


def c1_mod4_zero(g: SpinC) -> Optional[bool]:
    """Whether c1 maps to zero in H^2(X; Z/4); None when a block has no vector."""
    if any(s.c1 is None for s, _ in g.blocks):
        return None
    return all(x % 4 == 0 for s, _ in g.blocks for x in s.c1)


@dataclass(frozen=True)
class SparseMatrix:
    """A read-only square integer matrix, as the nonzero ``(column, value)``
    pairs of each row in column order: the JSON form of a Gram matrix or
    s-matrix, which the report writer prints without building a dense row.
    Equal matrices have equal values, however their blocks were grouped."""

    rows: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def side(self) -> int:
        return len(self.rows)


def _block_rows(blocks: Iterable[tuple[Sequence[Sequence[tuple[int, int]]], int]]
                ) -> SparseMatrix:
    """The block-diagonal matrix with each square block, given by the nonzero
    pairs of its rows, repeated ``count`` times down the diagonal; rank-0
    blocks cost nothing, however many copies."""
    rows: list[tuple[tuple[int, int], ...]] = []
    for block, count in blocks:
        for _ in range(count if block else 0):
            offset = len(rows)
            rows.extend(tuple((offset + j, x) for j, x in row) for row in block)
    return SparseMatrix(tuple(rows))


def gram_rows(lattice: Lattice) -> SparseMatrix:
    """The Gram matrix of ``lattice``: O(rank + nonzeros), after one pass
    over the dense rows of each block, however many copies it has."""
    return _block_rows(
        (tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in block.gram), count)
        for block, count in lattice.blocks)


def _s_block(g: SpinCStructure) -> tuple[tuple[tuple[int, int], ...], ...]:
    # s_entries run in row-major order above the diagonal, so every row gets
    # its mirrored entries (columns < row) before its own, each in column order
    rows: list[list[tuple[int, int]]] = [[] for _ in range(g.s_size)]
    for i, j, x in g.s_entries:
        rows[i].append((j, x))
        rows[j].append((i, -x))
    return tuple(map(tuple, rows))


def s_rows(g: SpinC) -> SparseMatrix:
    """The s-matrix of ``g``: O(s_size + nonzeros), with each block's rows
    built once, however many copies it has."""
    return _block_rows((_s_block(block), count) for block, count in g.blocks)


def _c1_norm(lattice: Lattice, g: SpinC) -> Optional[int]:
    """c1^2 in the lattice, one ``exact.quadratic_form`` call per distinct
    (block, c1 block) pair; None when a c1 block does not fit its lattice block.

    A sum builds both block sequences from the same atoms with the same
    counts, and an atom has one block of each, so they pair one to one.
    """
    pairs = tuple(zip(lattice.blocks, g.blocks))
    if len(lattice.blocks) != len(g.blocks) or any(
            n != count or len(s.c1) != block.rank for (block, count), (s, n) in pairs):
        return None
    distinct = tally(((block.gram, s.c1), count) for (block, count), (s, _) in pairs
                     if block.rank)
    return sum(n * exact.quadratic_form(gram, c1) for (gram, c1), n in distinct.items())


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
    # The connected-sum multiset: sorted (atom, count) pairs; empty for atoms
    # (the manifold is its own single summand).  The summand record and a
    # sum's name are derived from it (``record_of``, ``record_name``).
    summands: tuple[tuple["Manifold", int], ...] = field(default=(), repr=False)

    def euler(self) -> int:
        return 2 - 2 * self.char.b1 + self.char.b_plus + self.char.b_minus

    def signature(self) -> int:
        return self.char.b_plus - self.char.b_minus

    def two_chi_plus_3tau(self) -> int:
        return 2 * self.euler() + 3 * self.signature()

    def has_flag(self, flag: Flag) -> bool:
        return flag in self.flags

    @property
    def canonical_spinc(self) -> Optional[SpinC]:
        return self.spinc_structures[0] if self.spinc_structures else None

    def atom_counts(self) -> tuple[tuple["Manifold", int], ...]:
        """The (atom, count) multiset (``((self, 1),)`` for atoms)."""
        return self.summands or ((self, 1),)

    @property
    def summand_record(self) -> tuple[tuple[str, int], ...]:
        """The total count per atom name, in summand order
        (``((name, 1),)`` for atoms)."""
        return record_of(self.atom_counts())

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

    # Equal manifolds have equal names, so the name hash agrees with the
    # field-wise ``__eq__``; it never walks the lattice or spin-c data, and
    # CPython caches a str's hash.
    def __hash__(self) -> int:
        return hash(self.name)


def record_of(atom_counts: Iterable[tuple[Manifold, int]]) -> tuple[tuple[str, int], ...]:
    """The total count per atom name, in order of first appearance."""
    return tuple(tally((atom.name, count) for atom, count in atom_counts).items())


def record_name(record: Iterable[tuple[str, int]]) -> str:
    """The name of a sum with this summand record: ``K3 # 2*Sigma(3,3)``."""
    return " # ".join(name if mult == 1 else f"{mult}*{name}" for name, mult in record)


# Listing a sum piece by piece costs O(pieces); past this many it raises
# CapacityError instead of exhausting memory.  Multiset code paths never list.
PIECE_CAP = 1_000_000


def flatten(atom_counts: Iterable[tuple[Manifold, int]]) -> tuple[Manifold, ...]:
    """Each atom repeated ``count`` times, in order; at most ``PIECE_CAP``."""
    atom_counts = tuple(atom_counts)
    n = sum(count for _, count in atom_counts)
    if n > PIECE_CAP:
        raise CapacityError(f"listing {shown(n)} connected-sum pieces one by one is over "
                            f"the cap of {PIECE_CAP}")
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
        pos, neg, _ = lattice_inertia(m.lattice)
        if pos > c.b_plus:
            problems.append(f"lattice has {pos} positive directions but b+ = {shown(c.b_plus)}")
        if neg > c.b_minus:
            problems.append(f"lattice has {neg} negative directions but b- = {shown(c.b_minus)}")

    for idx, g in enumerate(m.spinc_structures):
        vector = all(s.c1 is not None for s, _ in g.blocks)
        if vector and m.lattice is None:
            problems.append(f"spin-c #{idx}: c1 vector but no lattice")
        elif vector:
            q = _c1_norm(m.lattice, g)
            if q is None:
                problems.append(f"spin-c #{idx}: c1 length does not match lattice rank")
            elif q != g.c1_squared:
                problems.append(
                    f"spin-c #{idx}: cached c1_squared = {shown(g.c1_squared)} "
                    f"but the lattice gives {shown(q)}")
        if g.s_size != c.b1:
            problems.append(f"spin-c #{idx}: s_matrix is not b1 x b1")

    if Flag.ALMOST_COMPLEX in m.flags and m.spinc_structures:
        g = m.spinc_structures[0]
        if g.c1_squared != m.two_chi_plus_3tau():
            problems.append(
                "almost-canonical-class identity fails: canonical c1^2 = "
                f"{shown(g.c1_squared)} but 2*chi + 3*tau = {shown(m.two_chi_plus_3tau())}")

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
        mod4 = c1_mod4_zero(m.spinc_structures[0])
        if mod4 is False:
            problems.append("C1Mod4Zero flag set but canonical c1 has a coordinate != 0 mod 4")

    if m.sv_factors is not None:
        for (k, g_, h_) in m.sv_factors:
            if k < 0 or g_ < 1 or h_ < 1:
                problems.append(f"invalid sv factor {shown(f'({k},{g_},{h_})')}")

    return problems
