"""Connected sums, blow-ups, and the parametric families built from them.

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
(a ``BlockSpinC``), and the asserted SW parity of the canonical structure is
Odd exactly when it is Odd for every piece.  Dense matrices and vectors of a
sum are only built on request (see ``fourfold.model``).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional, Sequence

from fourfold.catalog import catalog_get
from fourfold.errors import SurgeryError
from fourfold.model import (
    BlockLattice,
    BlockSpinC,
    CharData,
    Flag,
    Lattice,
    Manifold,
    Parity,
    Provenance,
    SpinCStructure,
    flatten,
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


def _record_name(record: Sequence[tuple[str, int]]) -> str:
    return " # ".join(name if mult == 1 else f"{mult}*{name}" for name, mult in record)


def _sum_spinc(runs: Iterable[tuple[Manifold, int, int]], with_vector: bool) -> BlockSpinC:
    """The structure #(+/-Gamma_i) from (atom, sign, count) runs in piece order."""
    blocks: list[tuple[SpinCStructure, int]] = []
    parities = set()
    for atom, sign, count in runs:
        g = atom.canonical_spinc
        parities.add(g.sw_parity)
        block = SpinCStructure(c1=g.c1 if with_vector else None,
                               c1_squared=g.c1_squared, s_matrix=g.s_matrix)
        blocks.append((block if sign > 0 else block.conjugate(), count))
    parity = Parity.ODD if parities == {Parity.ODD} else Parity.UNKNOWN
    return BlockSpinC(blocks=tuple(blocks), sw_parity=parity,
                      parity_provenance=Provenance.DERIVED)


def _with_vector(lattice: Optional[Lattice], summands: Multiset) -> bool:
    """Whether the sum stores a c1 vector: it needs a lattice and every
    atom's vector."""
    return lattice is not None and all(
        a.canonical_spinc.c1 is not None for a, _ in summands)


def _assemble(summands: Multiset) -> Manifold:
    atoms = [a for a, _ in summands]
    char = CharData(
        b1=sum(a.char.b1 * n for a, n in summands),
        b_plus=sum(a.char.b_plus * n for a, n in summands),
        b_minus=sum(a.char.b_minus * n for a, n in summands),
        is_spin=all(a.char.is_spin for a in atoms),
        is_simply_connected=all(a.char.is_simply_connected for a in atoms),
    )

    lattice = None
    if all(a.lattice is not None for a in atoms):
        lattice = BlockLattice(tuple((a.lattice, n) for a, n in summands))

    spinc: tuple[BlockSpinC, ...] = ()
    if all(a.spinc_structures for a in atoms):
        spinc = (_sum_spinc(((a, 1, n) for a, n in summands),
                            _with_vector(lattice, summands)),)

    flags: set[Flag] = set()
    if all(Flag.HAS_PSC_METRIC in a.flags for a in atoms):
        # Gromov-Lawson: positive scalar curvature survives connected sums.
        flags.add(Flag.HAS_PSC_METRIC)
        flags.add(Flag.HAS_NONNEG_SCALAR_METRIC)
    if all(a.name in _ASD_PSC_ATOMS and Flag.HAS_ASD_PSC_METRIC in a.flags
           for a in atoms):
        flags.add(Flag.HAS_ASD_PSC_METRIC)
    if spinc and all(Flag.C1_MOD4_ZERO in a.flags for a in atoms):
        flags.add(Flag.C1_MOD4_ZERO)

    sv_factors = None
    if all(a.sv_factors is not None for a in atoms):
        merged = tally(((g, h), k * n) for a, n in summands for (k, g, h) in a.sv_factors)
        sv_factors = tuple(sorted((k, g, h) for (g, h), k in merged.items() if k > 0))

    record = tuple(sorted(tally((a.name, n) for a, n in summands).items()))
    return Manifold(
        name=_record_name(record), char=char, lattice=lattice,
        spinc_structures=spinc, flags=frozenset(flags),
        sv_factors=sv_factors, summand_record=record, summands=summands,
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
    elif len(counts) != len(parts):
        raise SurgeryError(f"{len(counts)} counts for {len(parts)} parts")
    if any(n < 1 for n in counts):
        raise SurgeryError(f"summand counts must be >= 1, got {min(counts)}")
    if len(parts) == 1 and counts[0] == 1 and not parts[0].summands:
        return parts[0]
    summands = _multiset(parts, counts)
    if len(summands) == 1 and summands[0][1] == 1:
        return summands[0][0]
    return _assemble(summands)


def blow_up(m: Manifold, k: int) -> Manifold:
    """Connected sum with k copies of CP2bar.

    The lattice gains k mutually orthogonal classes of square -1.
    """
    if k < 0:
        raise SurgeryError(f"blow-up count must be >= 0, got {k}")
    if k == 0:
        return m
    return connected_sum([m, catalog_get("CP2bar")], counts=[1, k])


def gompf(alpha: int, beta: int) -> Manifold:
    """Gompf's simply connected symplectic spin manifold with
    (chi, tau) = (24a + 4b, -16a)."""
    return catalog_get(f"Gompf({alpha},{beta})")


def log_transform_k3(ell: int) -> Manifold:
    """Homotopy K3 from a logarithmic transformation of order 2l+1 on the
    Kummer surface; l = 0 is the Kummer surface itself."""
    return catalog_get(f"Y({ell})")


def sign_choices(n: int) -> Iterator[tuple[int, ...]]:
    """All 2^n sign vectors, all-plus first."""
    return itertools.product((1, -1), repeat=n)


def sum_spinc(m: Manifold, signs: Sequence[int]) -> BlockSpinC:
    """The spin-c structure #(+/-Gamma_i) on the connected sum ``m`` for a
    given sign vector over its pieces."""
    summands = m.atom_counts()
    n = m.piece_count()
    if len(signs) != n:
        raise SurgeryError(f"sign vector length {len(signs)} != {n} pieces")
    if any(s not in (1, -1) for s in signs):
        raise SurgeryError("signs must be +/-1")
    if not all(a.spinc_structures for a, _ in summands):
        raise SurgeryError("every piece needs a spin-c structure")
    runs: list[tuple[Manifold, int, int]] = []
    start = 0
    for atom, count in summands:
        for sign, run in itertools.groupby(signs[start:start + count]):
            runs.append((atom, sign, sum(1 for _ in run)))
        start += count
    return _sum_spinc(runs, _with_vector(m.lattice, summands))


def all_sign_spinc(m: Manifold) -> Iterator[tuple[tuple[int, ...], BlockSpinC]]:
    """Lazy iterator over all 2^n sign-choice structures on a sum.

    Generated lazily on purpose: materializing 2^n structures for large
    blow-ups would be exponential storage for no benefit.
    """
    for signs in sign_choices(m.piece_count()):
        yield signs, sum_spinc(m, signs)


def split_blowdown(m: Manifold) -> tuple[list[Manifold], Optional[Manifold]]:
    """Split a sum into its positive-b+ pieces and the b+ = 0 remainder N.

    Returns (parts, N) where N is the connected sum of the b+ = 0 pieces, or
    None when there are none (the sphere; 2chi + 3tau = 4).
    """
    summands = m.atom_counts()
    parts = list(flatten((a, count) for a, count in summands if a.char.b_plus > 0))
    rest = [(a, count) for a, count in summands if a.char.b_plus == 0]
    if not rest:
        return parts, None
    return parts, connected_sum([a for a, _ in rest], [count for _, count in rest])


def blowdown_two_chi_plus_3tau(n_part: Optional[Manifold]) -> int:
    return 4 if n_part is None else n_part.two_chi_plus_3tau()
