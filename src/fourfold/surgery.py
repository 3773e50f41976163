"""Connected sums and the blow-down split.

All operations are pure: they take validated manifolds and return new
immutable ones.  A connected sum is a multiset of atoms: ``connected_sum``
merges equal atoms into ``(atom, count)`` pairs in a canonical sorted order
before assembling anything, so the result is literally identical (field by
field) under permutation and regrouping of the arguments, and every
quantity of the sum is computed once per distinct atom, weighted by its
count.  Callers with repeated pieces pass the count rather than the copies
(``connected_sum([m, cp2bar], counts=[1, k])``), so a sum with 10^5
blow-ups costs what a sum with one does.

Characteristic bookkeeping under connected sum: b1, b+ and b- add; the
signature adds; chi = sum(chi_i) - 2(n-1); spin and simple connectivity hold
iff they hold for every piece.  Lattices add orthogonally (a
``BlockLattice`` of the atom lattices with their counts), canonical first
Chern data adds blockwise, the half-triple-product matrices add as blocks
(a ``BlockSpinC``, whose SW parity is derived from its blocks: Odd exactly
when it is Odd for every piece).  Certificates read the evenness of the
half-triple-product matrix from the pieces.  No dense matrix of a sum is
built: its JSON form prints the matrices from their nonzero entries, and
its c1 vector and basis labels are spelled out only on request (see
``fourfold.model``).

A report splits a sum once (``split_blowdown``): the ``Split`` counts the
positive-b+ pieces from their multiset, lists them only when there are at
most 3, and holds the Theorem-A certificate of 2 or 3 of them, so "not 2 or
3 pieces" is decided from the count alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from fourfold.certify import Certificate, check_theorem_A
from fourfold.errors import SurgeryError, shown
from fourfold.model import (
    BlockLattice,
    BlockSpinC,
    CharData,
    Flag,
    Lattice,
    Manifold,
    SpinCStructure,
    flatten,
    record_name,
    record_of,
    tally,
)

# Blocks for which connected sums are known to carry anti-self-dual metrics
# of positive scalar curvature (LeBrun, Kim).
_ASD_PSC_ATOMS = {"CP2bar", "S1xS3"}

Multiset = tuple[tuple[Manifold, int], ...]


def _atom_sort_key(m: Manifold) -> tuple:
    return (m.name, m.char.b1, m.char.b_plus, m.char.b_minus)


def _multiset(parts: Sequence[Manifold], counts: Sequence[int]) -> Multiset:
    """The sorted (atom, count) multiset of the parts, equal atoms merged;
    equal sort keys keep their order of first appearance."""
    merged = tally((atom, count * n) for part, n in zip(parts, counts, strict=True)
                   for atom, count in part.atom_counts())
    return tuple(sorted(merged.items(), key=lambda e: _atom_sort_key(e[0])))


def _assemble(summands: Multiset) -> Manifold:
    """The sum of a sorted multiset, folded in one pass over its distinct
    atoms.  A lattice block list, spin-c block list or sv tally turns None at
    the first atom without one: the sum then has none ("unknown")."""
    b1 = b_plus = b_minus = 0
    spin = simply_connected = asd_names = True
    lattices: Optional[list[tuple[Lattice, int]]] = []
    structures: Optional[list[tuple[SpinCStructure, int]]] = []
    sv: Optional[dict[tuple[int, int], int]] = {}
    for a, n in summands:
        c = a.char
        b1 += c.b1 * n
        b_plus += c.b_plus * n
        b_minus += c.b_minus * n
        spin = spin and c.is_spin
        simply_connected = simply_connected and c.is_simply_connected
        asd_names = asd_names and a.name in _ASD_PSC_ATOMS
        if lattices is not None:
            if a.lattice is not None:
                lattices.append((a.lattice, n))
            else:
                lattices = None
        if structures is not None:
            if a.spinc_structures:
                structures.append((a.spinc_structures[0], n))
            else:
                structures = None
        if sv is not None:
            if a.sv_factors is None:
                sv = None
            else:
                for k, g, h in a.sv_factors:
                    sv[(g, h)] = sv.get((g, h), 0) + k * n

    lattice = None if lattices is None else BlockLattice(tuple(lattices))
    spinc = () if structures is None else (BlockSpinC(tuple(structures)),)
    shared = frozenset.intersection(*(a.flags for a, _ in summands))
    flags: set[Flag] = set()
    if Flag.HAS_PSC_METRIC in shared:
        # Gromov-Lawson: positive scalar curvature survives connected sums.
        flags.update((Flag.HAS_PSC_METRIC, Flag.HAS_NONNEG_SCALAR_METRIC))
    if asd_names and Flag.HAS_ASD_PSC_METRIC in shared:
        flags.add(Flag.HAS_ASD_PSC_METRIC)
    if spinc and Flag.C1_MOD4_ZERO in shared:
        flags.add(Flag.C1_MOD4_ZERO)
    sv_factors = None
    if sv is not None:
        sv_factors = tuple(sorted((k, g, h) for (g, h), k in sv.items() if k > 0))
    char = CharData(b1=b1, b_plus=b_plus, b_minus=b_minus, is_spin=spin,
                    is_simply_connected=simply_connected)
    return Manifold(
        name=record_name(record_of(summands)), char=char, lattice=lattice,
        spinc_structures=spinc, flags=frozenset(flags),
        sv_factors=sv_factors, summands=summands,
    )


def connected_sum(parts: Sequence[Manifold],
                  counts: Optional[Sequence[int]] = None) -> Manifold:
    """Connected sum of the given manifolds, ``parts[i]`` taken ``counts[i]``
    times (once each by default); the identity on a single atom.

    Costs O(distinct atoms) beyond one dict lookup per part.
    """
    if not parts:
        raise SurgeryError("connected sum of an empty list")
    if counts is None:
        counts = (1,) * len(parts)
    if any(n < 1 for n in counts):
        raise SurgeryError(f"summand counts must be >= 1, got {shown(min(counts))}")
    summands = _multiset(parts, counts)
    if len(summands) == 1 and summands[0][1] == 1:
        return summands[0][0]
    return _assemble(summands)


@dataclass(frozen=True)
class Split:
    """A sum (#X_i) # N split into its ``count`` positive-b+ pieces X_i and the
    b+ = 0 rest N (None when there is none: the sphere).  ``parts`` lists the
    X_i when there are at most 3, else it is empty; ``theorem_a`` is their
    non-vanishing certificate when there are 2 or 3, else None."""

    count: int
    parts: tuple[Manifold, ...]
    rest: Optional[Manifold]
    theorem_a: Optional[Certificate]

    def rest_two_chi_plus_3tau(self) -> int:
        """(2chi + 3tau)(N); 4 for the sphere."""
        return 4 if self.rest is None else self.rest.two_chi_plus_3tau()


def split_blowdown(m: Manifold) -> Split:
    """Split a sum into its positive-b+ pieces and the b+ = 0 rest, from its
    (atom, count) multiset, and decide Theorem A once on 2 or 3 pieces."""
    positive = [(a, n) for a, n in m.atom_counts() if a.char.b_plus > 0]
    rest = [(a, n) for a, n in m.atom_counts() if a.char.b_plus == 0]
    count = sum(n for _, n in positive)
    parts = flatten(positive) if count <= 3 else ()
    rest_sum = connected_sum([a for a, _ in rest], [n for _, n in rest]) if rest else None
    return Split(count, parts, rest_sum, check_theorem_A(parts) if count in (2, 3) else None)
