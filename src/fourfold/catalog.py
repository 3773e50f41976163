"""Built-in building blocks and JSON (de)serialization of manifolds.

The catalog covers the standard pieces used throughout the connected-sum
constructions: projective planes, S^1 x S^3, the 4-torus, K3, the primary
Kodaira surface, products of surfaces Sigma_g x Sigma_h, log-transformed
homotopy K3 surfaces Y(l), and Gompf's simply connected symplectic spin
manifolds Gompf(a,b).

Stored lattices are the sublattices of H^2 actually needed: a hyperbolic
plane carrying the canonical class for the surface-like blocks, the (+1) or
(-1) line for the projective planes.  s-matrices of built-ins with b1 > 0 are
stored as zero matrices: every such block has c1 = 0 or c1 = 0 mod 4, and in
all of them the half-triple-product matrix is even, which is the only
property any certificate reads.
"""

from __future__ import annotations

import json
import re
from typing import Callable, Optional

from fourfold.errors import CapacityError, CatalogError
from fourfold.model import (
    CharData,
    Flag,
    GramLattice,
    Manifold,
    Parity,
    Provenance,
    SpinCStructure,
    validate,
    zero_s_matrix,
)

CATALOG_VERSION = 1

HYPERBOLIC = GramLattice(("a", "b"), ((0, 1), (1, 0)))


def _atom(name: str, char: CharData, *, lattice: Optional[GramLattice],
          spinc: tuple[SpinCStructure, ...], flags: frozenset[Flag],
          sv_factors: Optional[tuple[tuple[int, int, int], ...]]) -> Manifold:
    return Manifold(
        name=name, char=char, lattice=lattice, spinc_structures=spinc,
        flags=flags, sv_factors=sv_factors, summand_record=((name, 1),),
        summands=(),
    )


def _cp2() -> Manifold:
    char = CharData(b1=0, b_plus=1, b_minus=0, is_spin=False, is_simply_connected=True)
    spinc = SpinCStructure(c1=(3,), c1_squared=9, s_matrix=(),
                           sw_parity=Parity.UNKNOWN, parity_provenance=Provenance.DERIVED)
    return _atom("CP2", char,
                 lattice=GramLattice(("h",), ((1,),)),
                 spinc=(spinc,),
                 flags=frozenset({Flag.ALMOST_COMPLEX, Flag.SYMPLECTIC,
                                  Flag.MINIMAL_KAEHLER, Flag.HAS_PSC_METRIC}),
                 sv_factors=())


def _cp2bar() -> Manifold:
    char = CharData(b1=0, b_plus=0, b_minus=1, is_spin=False, is_simply_connected=True)
    spinc = SpinCStructure(c1=(1,), c1_squared=-1, s_matrix=(),
                           sw_parity=Parity.UNKNOWN, parity_provenance=Provenance.DERIVED)
    return _atom("CP2bar", char,
                 lattice=GramLattice(("e",), ((-1,),)),
                 spinc=(spinc,),
                 flags=frozenset({Flag.HAS_PSC_METRIC, Flag.HAS_NONNEG_SCALAR_METRIC,
                                  Flag.HAS_ASD_PSC_METRIC}),
                 sv_factors=())


def _s1xs3() -> Manifold:
    char = CharData(b1=1, b_plus=0, b_minus=0, is_spin=True, is_simply_connected=False)
    spinc = SpinCStructure(c1=(), c1_squared=0, s_matrix=zero_s_matrix(1),
                           sw_parity=Parity.UNKNOWN, parity_provenance=Provenance.DERIVED)
    # Almost complex as a Hopf surface; PSC and anti-self-dual PSC metrics
    # exist (standard conformally flat metric).
    return _atom("S1xS3", char,
                 lattice=GramLattice((), ()),
                 spinc=(spinc,),
                 flags=frozenset({Flag.ALMOST_COMPLEX, Flag.HAS_PSC_METRIC,
                                  Flag.HAS_NONNEG_SCALAR_METRIC,
                                  Flag.HAS_ASD_PSC_METRIC, Flag.C1_MOD4_ZERO}),
                 sv_factors=())


def _t4() -> Manifold:
    char = CharData(b1=4, b_plus=3, b_minus=3, is_spin=True, is_simply_connected=False)
    spinc = SpinCStructure(c1=(0, 0), c1_squared=0, s_matrix=zero_s_matrix(4),
                           sw_parity=Parity.ODD,
                           parity_provenance=Provenance.TAUBES_SYMPLECTIC)
    return _atom("T4", char,
                 lattice=HYPERBOLIC,
                 spinc=(spinc,),
                 flags=frozenset({Flag.ALMOST_COMPLEX, Flag.SYMPLECTIC,
                                  Flag.MINIMAL_KAEHLER, Flag.C1_MOD4_ZERO}),
                 sv_factors=())


def _k3() -> Manifold:
    char = CharData(b1=0, b_plus=3, b_minus=19, is_spin=True, is_simply_connected=True)
    spinc = SpinCStructure(c1=(0, 0), c1_squared=0, s_matrix=(),
                           sw_parity=Parity.ODD,
                           parity_provenance=Provenance.TAUBES_SYMPLECTIC)
    return _atom("K3", char,
                 lattice=GramLattice(("f", "s"), ((0, 1), (1, 0))),
                 spinc=(spinc,),
                 flags=frozenset({Flag.ALMOST_COMPLEX, Flag.SYMPLECTIC,
                                  Flag.MINIMAL_KAEHLER, Flag.C1_MOD4_ZERO}),
                 sv_factors=())


def _kodaira() -> Manifold:
    # Primary Kodaira surface: non-Kaehler symplectic spin surface with
    # b+ = 2, b1 = 3, c1 = 0; an elliptic bundle over an elliptic curve.
    char = CharData(b1=3, b_plus=2, b_minus=2, is_spin=True, is_simply_connected=False)
    spinc = SpinCStructure(c1=(0, 0), c1_squared=0, s_matrix=zero_s_matrix(3),
                           sw_parity=Parity.ODD,
                           parity_provenance=Provenance.TAUBES_SYMPLECTIC)
    return _atom("Kodaira", char,
                 lattice=HYPERBOLIC,
                 spinc=(spinc,),
                 flags=frozenset({Flag.ALMOST_COMPLEX, Flag.SYMPLECTIC,
                                  Flag.C1_MOD4_ZERO}),
                 sv_factors=())


def _sigma(g: int, h: int) -> Manifold:
    if g < 1 or h < 1:
        raise CatalogError(f"Sigma(g,h) needs g,h >= 1, got ({g},{h})")
    char = CharData(b1=2 * (g + h), b_plus=2 * g * h + 1, b_minus=2 * g * h + 1,
                    is_spin=True, is_simply_connected=False)
    # Canonical-class coordinates in the hyperbolic plane spanned by the two
    # fiber classes: 2(g-1)*a + 2(h-1)*b, of square 8(g-1)(h-1) = 2chi+3tau.
    c1 = (2 * (g - 1), 2 * (h - 1))
    spinc = SpinCStructure(c1=c1, c1_squared=8 * (g - 1) * (h - 1),
                           s_matrix=zero_s_matrix(char.b1),
                           sw_parity=Parity.ODD,
                           parity_provenance=Provenance.TAUBES_SYMPLECTIC)
    flags = {Flag.ALMOST_COMPLEX, Flag.SYMPLECTIC, Flag.MINIMAL_KAEHLER}
    if g % 2 == 1 and h % 2 == 1:
        flags.add(Flag.C1_MOD4_ZERO)
    return _atom(f"Sigma({g},{h})", char,
                 lattice=HYPERBOLIC,
                 spinc=(spinc,),
                 flags=frozenset(flags),
                 sv_factors=((1, g, h),))


def _y_ell(ell: int) -> Manifold:
    if ell < 0:
        raise CatalogError(f"Y(l) needs l >= 0, got {ell}")
    if ell == 0:
        return _k3()
    char = CharData(b1=0, b_plus=3, b_minus=19, is_spin=True, is_simply_connected=True)
    # Canonical monopole classes are +/- 2*l*f with f the multiple-fiber
    # class, f^2 = 0; characteristic data is that of K3 but the smooth type
    # is distinguished by l (tracked via the summand id).
    spinc = SpinCStructure(c1=(2 * ell, 0), c1_squared=0, s_matrix=(),
                           sw_parity=Parity.ODD,
                           parity_provenance=Provenance.TAUBES_SYMPLECTIC)
    flags = {Flag.ALMOST_COMPLEX, Flag.SYMPLECTIC, Flag.MINIMAL_KAEHLER}
    if ell % 2 == 0:
        flags.add(Flag.C1_MOD4_ZERO)
    return _atom(f"Y({ell})", char,
                 lattice=GramLattice(("f", "s"), ((0, 1), (1, 0))),
                 spinc=(spinc,),
                 flags=frozenset(flags),
                 sv_factors=())


def _gompf(alpha: int, beta: int) -> Manifold:
    if alpha < 2:
        raise CatalogError(f"Gompf(a,b) needs a >= 2, got a = {alpha}")
    if beta < 0:
        raise CatalogError(f"Gompf(a,b) needs b >= 0, got b = {beta}")
    char = CharData(b1=0, b_plus=4 * alpha + 2 * beta - 1,
                    b_minus=20 * alpha + 2 * beta - 1,
                    is_spin=True, is_simply_connected=True)
    spinc = SpinCStructure(c1=None, c1_squared=8 * beta, s_matrix=(),
                           sw_parity=Parity.ODD,
                           parity_provenance=Provenance.TAUBES_SYMPLECTIC)
    return _atom(f"Gompf({alpha},{beta})", char,
                 lattice=None,
                 spinc=(spinc,),
                 flags=frozenset({Flag.ALMOST_COMPLEX, Flag.SYMPLECTIC}),
                 sv_factors=())


_PLAIN: dict[str, Callable[[], Manifold]] = {
    "CP2": _cp2,
    "CP2bar": _cp2bar,
    "S1xS3": _s1xs3,
    "T4": _t4,
    "K3": _k3,
    "Kodaira": _kodaira,
}

_PARAMETRIC = re.compile(r"^(Sigma|Y|Gompf)\((\d+)(?:,(\d+))?\)$")

PLAIN_IDS = tuple(sorted(_PLAIN))
PARAMETRIC_FORMS = ("Sigma(g,h)", "Y(l)", "Gompf(a,b)")


def catalog_get(block_id: str) -> Manifold:
    """Return the fully populated built-in manifold for a catalog id.

    Ids are the plain names CP2, CP2bar, S1xS3, T4, K3, Kodaira, or the
    parametric forms Sigma(g,h) with g,h >= 1, Y(l) with l >= 0, and
    Gompf(a,b) with a >= 2, b >= 0.
    """
    key = block_id.replace(" ", "")
    if key in _PLAIN:
        return _PLAIN[key]()
    m = _PARAMETRIC.match(key)
    if m:
        family, first, second = m.group(1), m.group(2), m.group(3)
        if family == "Y":
            if second is not None:
                raise CatalogError(f"Y takes one parameter: {block_id!r}")
            return _y_ell(int(first))
        if second is None:
            raise CatalogError(f"{family} takes two parameters: {block_id!r}")
        if family == "Sigma":
            return _sigma(int(first), int(second))
        return _gompf(int(first), int(second))
    raise CatalogError(f"unknown building block {block_id!r}")


def catalog_ids() -> tuple[str, ...]:
    return PLAIN_IDS + PARAMETRIC_FORMS


# ---------------------------------------------------------------------------
# JSON serialization

# The JSON form of a sum spells out its dense Gram matrix and s-matrix, which
# are built from the blocks for the dump, so it is capped by their entry
# count, rank^2 + b1^2.  The largest sums the benchmark dumps have about
# 1.3 * 10^5 entries.  Atoms store their matrices densely already and are
# not capped.
DENSE_ENTRY_CAP = 4_000_000


def manifold_to_json(m: Manifold) -> dict:
    """The JSON document of ``m``, with dense matrices and vectors.

    Raises CapacityError when a sum's matrices would exceed
    ``DENSE_ENTRY_CAP`` entries.
    """
    rank = 0 if m.lattice is None else m.lattice.rank
    entries = rank * rank + m.char.b1 * m.char.b1
    if m.summands and entries > DENSE_ENTRY_CAP:
        raise CapacityError(
            f"the JSON form would hold rank^2 + b1^2 = {entries} matrix entries, "
            f"over the cap of {DENSE_ENTRY_CAP}")
    doc: dict = {
        "version": CATALOG_VERSION,
        "name": m.name,
        "b1": m.char.b1,
        "b_plus": m.char.b_plus,
        "b_minus": m.char.b_minus,
        "is_spin": m.char.is_spin,
        "is_simply_connected": m.char.is_simply_connected,
        "flags": sorted(f.value for f in m.flags),
        "lattice": None,
        "spinc": [],
        "sv_factors": None if m.sv_factors is None else [list(t) for t in m.sv_factors],
        "summand_record": [[name, mult] for name, mult in m.summand_record],
    }
    if m.lattice is not None:
        doc["lattice"] = {
            "basis": list(m.lattice.basis_labels),
            "gram": [list(row) for row in m.lattice.gram],
        }
    for g in m.spinc_structures:
        c1 = g.c1
        doc["spinc"].append({
            "c1": None if c1 is None else list(c1),
            "c1_squared": g.c1_squared,
            "s_matrix": [list(row) for row in g.s_matrix],
            "sw_parity": g.sw_parity.value,
            "provenance": g.parity_provenance.value,
        })
    return doc


# -- reading documents: every field is checked, and errors name it ----------

_MISSING = object()

_KINDS: dict[str, tuple[str, Callable[[object], bool]]] = {
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "list": ("a list", lambda v: isinstance(v, list)),
    "object": ("an object", lambda v: isinstance(v, dict)),
}


def _shown(value: object) -> str:
    return json.dumps(value)[:40]


def _object(value: object, what: str) -> dict:
    if not isinstance(value, dict):
        raise CatalogError(f"{what} must be an object, got {_shown(value)}")
    return value


def _check(value: object, kind: str, where: str, path: str) -> object:
    what, ok = _KINDS[kind]
    if not ok(value):
        raise CatalogError(f"{where}: field {path!r} must be {what}, got {_shown(value)}")
    return value


def _field(doc: dict, key: str, kind: str, where: str, prefix: str = "",
           default: object = _MISSING, nullable: bool = False) -> object:
    path = prefix + key
    if key not in doc:
        if default is _MISSING:
            raise CatalogError(f"{where}: missing field {path!r}")
        return default
    value = doc[key]
    if value is None and nullable:
        return None
    return _check(value, kind, where, path)


def _int_list(value: object, where: str, path: str) -> tuple[int, ...]:
    return tuple(_check(x, "int", where, f"{path}[{i}]")
                 for i, x in enumerate(_check(value, "list", where, path)))


def _int_matrix(value: object, where: str, path: str) -> tuple[tuple[int, ...], ...]:
    return tuple(_int_list(row, where, f"{path}[{i}]")
                 for i, row in enumerate(_check(value, "list", where, path)))


def _enum(cls: type, value: object, where: str, path: str):
    try:
        return cls(value)
    except ValueError:
        allowed = ", ".join(v.value for v in cls)
        raise CatalogError(
            f"{where}: field {path!r} must be one of {allowed}, got {_shown(value)}") from None


def manifold_from_json(doc: dict, where: str = "manifold document") -> Manifold:
    """Read one manifold document, checking every field; raises CatalogError
    naming the first bad field."""
    _object(doc, where)
    if doc.get("version") != CATALOG_VERSION:
        raise CatalogError(f"unsupported catalog document version {doc.get('version')!r}")
    name = _field(doc, "name", "str", where)
    where = f"{where} {name!r}"
    char = CharData(
        b1=_field(doc, "b1", "int", where), b_plus=_field(doc, "b_plus", "int", where),
        b_minus=_field(doc, "b_minus", "int", where),
        is_spin=_field(doc, "is_spin", "bool", where),
        is_simply_connected=_field(doc, "is_simply_connected", "bool", where),
    )
    lattice = None
    lat = _field(doc, "lattice", "object", where, default=None, nullable=True)
    if lat:
        basis = _field(lat, "basis", "list", where, "lattice.")
        for i, label in enumerate(basis):
            _check(label, "str", where, f"lattice.basis[{i}]")
        gram = _int_matrix(_field(lat, "gram", "list", where, "lattice."), where,
                           "lattice.gram")
        try:
            lattice = GramLattice(tuple(basis), gram)
        except ValueError as exc:
            raise CatalogError(f"{where}: field 'lattice.gram': {exc}") from None
    spinc = []
    for i, s in enumerate(_field(doc, "spinc", "list", where, default=[])):
        at = f"spinc[{i}]"
        _check(s, "object", where, at)
        c1 = _field(s, "c1", "list", where, f"{at}.", nullable=True)
        spinc.append(SpinCStructure(
            c1=None if c1 is None else _int_list(c1, where, f"{at}.c1"),
            c1_squared=_field(s, "c1_squared", "int", where, f"{at}."),
            s_matrix=_int_matrix(_field(s, "s_matrix", "list", where, f"{at}."), where,
                                 f"{at}.s_matrix"),
            sw_parity=_enum(Parity, s.get("sw_parity", "Unknown"), where, f"{at}.sw_parity"),
            parity_provenance=_enum(Provenance, s.get("provenance", "Derived"), where,
                                    f"{at}.provenance"),
        ))
    flags = frozenset(_enum(Flag, v, where, f"flags[{i}]")
                      for i, v in enumerate(_field(doc, "flags", "list", where, default=[])))
    sv = _field(doc, "sv_factors", "list", where, default=None, nullable=True)
    sv_factors = None
    if sv is not None:
        sv_factors = tuple(_int_list(t, where, f"sv_factors[{i}]") for i, t in enumerate(sv))
        if any(len(t) != 3 for t in sv_factors):
            raise CatalogError(f"{where}: field 'sv_factors' must hold [k, g, h] triples")
    record = []
    for i, entry in enumerate(_field(doc, "summand_record", "list", where, default=[])):
        at = f"summand_record[{i}]"
        if not (isinstance(entry, list) and len(entry) == 2):
            raise CatalogError(f"{where}: field {at!r} must be a [name, count] pair")
        record.append((_check(entry[0], "str", where, at), _check(entry[1], "int", where, at)))
    m = Manifold(name=name, char=char, lattice=lattice,
                 spinc_structures=tuple(spinc), flags=flags,
                 sv_factors=sv_factors, summand_record=tuple(record) or ((name, 1),),
                 summands=())
    problems = validate(m)
    if problems:
        raise CatalogError(f"invalid manifold document {name!r}: " + "; ".join(problems))
    return m


def load_catalog_file(path: str) -> dict[str, Manifold]:
    """Load a user catalog: {"version": 1, "manifolds": [manifold docs]}.

    Names become atoms available to the expression parser.  Raises
    CatalogError naming the file, entry and field that is wrong.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CatalogError(f"cannot read catalog file {path!r}: {exc.strerror}") from None
    except ValueError as exc:
        raise CatalogError(f"catalog file {path!r} is not JSON: {exc}") from None
    _object(doc, "catalog file")
    if doc.get("version") != CATALOG_VERSION:
        raise CatalogError(f"unsupported catalog file version {doc.get('version')!r}")
    out: dict[str, Manifold] = {}
    for i, mdoc in enumerate(_field(doc, "manifolds", "list", "catalog file", default=[])):
        m = manifold_from_json(mdoc, f"manifolds[{i}]")
        out[m.name] = m
    return out
