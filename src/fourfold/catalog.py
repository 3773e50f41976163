"""Built-in building blocks and JSON (de)serialization of manifolds.

The catalog covers the standard pieces used throughout the connected-sum
constructions: projective planes, S^1 x S^3, the 4-torus, K3, the primary
Kodaira surface, products of surfaces Sigma_g x Sigma_h, log-transformed
homotopy K3 surfaces Y(l), and Gompf's simply connected symplectic spin
manifolds Gompf(a,b).

Every manifold is an immutable value, so the six fixed atoms (CP2, CP2bar,
S1xS3, T4, K3, Kodaira) are built once, at import, and every lookup of one
returns that value; the parametric families are built on each lookup.

Stored lattices are the sublattices of H^2 actually needed: a hyperbolic
plane carrying the canonical class for the surface-like blocks, the (+1) or
(-1) line for the projective planes.  The half-triple-product matrices of
built-ins with b1 > 0 are zero, stored as their size alone: every such block
has c1 = 0 or c1 = 0 mod 4, and in all of them the matrix is even, which is
the only property any certificate reads.
"""

from __future__ import annotations

import json
import re
from typing import Callable

from fourfold.errors import CapacityError, CatalogError, int_str_limit, shown
from fourfold.model import (
    CharData,
    Flag,
    GramLattice,
    Manifold,
    Parity,
    Provenance,
    SpinCStructure,
    gram_rows,
    s_rows,
    validate,
)

CATALOG_VERSION = 1
# The version every CLI report and search line carries.
REPORT_VERSION = 1

# The name of a user atom: what the expression parser reads as an identifier.
IDENTIFIER = r"[A-Za-z][A-Za-z0-9_]*"

HYPERBOLIC = GramLattice(("a", "b"), ((0, 1), (1, 0)))

# The plane of the fibre class f, f^2 = 0, and a section s of K3 and Y(l).
FIBRE_PLANE = GramLattice(("f", "s"), ((0, 1), (1, 0)))


def _sigma(g: int, h: int) -> Manifold:
    if g < 1 or h < 1:
        raise CatalogError(f"Sigma(g,h) needs g,h >= 1, got {shown(f'({g},{h})')}")
    char = CharData(b1=2 * (g + h), b_plus=2 * g * h + 1, b_minus=2 * g * h + 1,
                    is_spin=True, is_simply_connected=False)
    # Canonical-class coordinates in the hyperbolic plane spanned by the two
    # fiber classes: 2(g-1)*a + 2(h-1)*b, of square 8(g-1)(h-1) = 2chi+3tau.
    c1 = (2 * (g - 1), 2 * (h - 1))
    spinc = SpinCStructure(c1=c1, c1_squared=8 * (g - 1) * (h - 1),
                           s_size=char.b1,
                           sw_parity=Parity.ODD,
                           parity_provenance=Provenance.TAUBES_SYMPLECTIC)
    flags = {Flag.ALMOST_COMPLEX, Flag.SYMPLECTIC, Flag.MINIMAL_KAEHLER}
    if g % 2 == 1 and h % 2 == 1:
        flags.add(Flag.C1_MOD4_ZERO)
    return Manifold(f"Sigma({g},{h})", char,
                    lattice=HYPERBOLIC,
                    spinc_structures=(spinc,),
                    flags=frozenset(flags),
                    sv_factors=((1, g, h),))


def _y_ell(ell: int) -> Manifold:
    """Homotopy K3 from a logarithmic transformation of order 2l+1 on the
    Kummer surface; l = 0 is the Kummer surface itself, named K3.  l >= 0:
    ``catalog_get`` reads it as unsigned digits."""
    char = CharData(b1=0, b_plus=3, b_minus=19, is_spin=True, is_simply_connected=True)
    # Canonical monopole classes are +/- 2*l*f with f the multiple-fiber
    # class, f^2 = 0; characteristic data is that of K3 but the smooth type
    # is distinguished by l (tracked via the summand id).
    spinc = SpinCStructure(c1=(2 * ell, 0), c1_squared=0,
                           sw_parity=Parity.ODD,
                           parity_provenance=Provenance.TAUBES_SYMPLECTIC)
    flags = {Flag.ALMOST_COMPLEX, Flag.SYMPLECTIC, Flag.MINIMAL_KAEHLER}
    if ell % 2 == 0:
        flags.add(Flag.C1_MOD4_ZERO)
    return Manifold(f"Y({ell})" if ell else "K3", char,
                    lattice=FIBRE_PLANE,
                    spinc_structures=(spinc,),
                    flags=frozenset(flags),
                    sv_factors=())


def _gompf(alpha: int, beta: int) -> Manifold:
    """Gompf's simply connected symplectic spin manifold with
    (chi, tau) = (24a + 4b, -16a).  b >= 0: ``catalog_get`` reads it as
    unsigned digits."""
    if alpha < 2:
        raise CatalogError(f"Gompf(a,b) needs a >= 2, got a = {shown(alpha)}")
    char = CharData(b1=0, b_plus=4 * alpha + 2 * beta - 1,
                    b_minus=20 * alpha + 2 * beta - 1,
                    is_spin=True, is_simply_connected=True)
    spinc = SpinCStructure(c1=None, c1_squared=8 * beta,
                           sw_parity=Parity.ODD,
                           parity_provenance=Provenance.TAUBES_SYMPLECTIC)
    return Manifold(f"Gompf({alpha},{beta})", char,
                    spinc_structures=(spinc,),
                    flags=frozenset({Flag.ALMOST_COMPLEX, Flag.SYMPLECTIC}),
                    sv_factors=())


_PLAIN: dict[str, Manifold] = {m.name: m for m in (
    Manifold("CP2",
             CharData(b1=0, b_plus=1, b_minus=0, is_spin=False, is_simply_connected=True),
             lattice=GramLattice(("h",), ((1,),)),
             spinc_structures=(SpinCStructure(c1=(3,), c1_squared=9),),
             flags=frozenset({Flag.ALMOST_COMPLEX, Flag.SYMPLECTIC,
                              Flag.MINIMAL_KAEHLER, Flag.HAS_PSC_METRIC}),
             sv_factors=()),
    Manifold("CP2bar",
             CharData(b1=0, b_plus=0, b_minus=1, is_spin=False, is_simply_connected=True),
             lattice=GramLattice(("e",), ((-1,),)),
             spinc_structures=(SpinCStructure(c1=(1,), c1_squared=-1),),
             flags=frozenset({Flag.HAS_PSC_METRIC, Flag.HAS_NONNEG_SCALAR_METRIC,
                              Flag.HAS_ASD_PSC_METRIC}),
             sv_factors=()),
    # Almost complex as a Hopf surface; PSC and anti-self-dual PSC metrics
    # exist (standard conformally flat metric).
    Manifold("S1xS3",
             CharData(b1=1, b_plus=0, b_minus=0, is_spin=True, is_simply_connected=False),
             lattice=GramLattice((), ()),
             spinc_structures=(SpinCStructure(c1=(), c1_squared=0, s_size=1),),
             flags=frozenset({Flag.ALMOST_COMPLEX, Flag.HAS_PSC_METRIC,
                              Flag.HAS_NONNEG_SCALAR_METRIC,
                              Flag.HAS_ASD_PSC_METRIC, Flag.C1_MOD4_ZERO}),
             sv_factors=()),
    Manifold("T4",
             CharData(b1=4, b_plus=3, b_minus=3, is_spin=True, is_simply_connected=False),
             lattice=HYPERBOLIC,
             spinc_structures=(SpinCStructure(
                 c1=(0, 0), c1_squared=0, s_size=4, sw_parity=Parity.ODD,
                 parity_provenance=Provenance.TAUBES_SYMPLECTIC),),
             flags=frozenset({Flag.ALMOST_COMPLEX, Flag.SYMPLECTIC,
                              Flag.MINIMAL_KAEHLER, Flag.C1_MOD4_ZERO}),
             sv_factors=()),
    _y_ell(0),  # K3
    # Primary Kodaira surface: non-Kaehler symplectic spin surface with
    # b+ = 2, b1 = 3, c1 = 0; an elliptic bundle over an elliptic curve.
    Manifold("Kodaira",
             CharData(b1=3, b_plus=2, b_minus=2, is_spin=True, is_simply_connected=False),
             lattice=HYPERBOLIC,
             spinc_structures=(SpinCStructure(
                 c1=(0, 0), c1_squared=0, s_size=3, sw_parity=Parity.ODD,
                 parity_provenance=Provenance.TAUBES_SYMPLECTIC),),
             flags=frozenset({Flag.ALMOST_COMPLEX, Flag.SYMPLECTIC,
                              Flag.C1_MOD4_ZERO}),
             sv_factors=()),
)}

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
        return _PLAIN[key]
    m = _PARAMETRIC.match(key)
    if m:
        family, first, second = m.group(1), m.group(2), m.group(3)
        if family == "Y" and second is not None:
            raise CatalogError(f"Y takes one parameter: {shown(repr(block_id))}")
        if family != "Y" and second is None:
            raise CatalogError(f"{family} takes two parameters: {shown(repr(block_id))}")
        try:
            args = [int(x) for x in (first, second) if x is not None]
        except ValueError:  # past the interpreter's int-str limit
            raise CatalogError(f"a parameter of {shown(repr(block_id))} has more than "
                               f"{int_str_limit()} digits") from None
        return {"Y": _y_ell, "Sigma": _sigma, "Gompf": _gompf}[family](*args)
    raise CatalogError(f"unknown building block {shown(repr(block_id))}")


def catalog_ids() -> tuple[str, ...]:
    return PLAIN_IDS + PARAMETRIC_FORMS


# ---------------------------------------------------------------------------
# JSON serialization

# The JSON form spells out every entry of the Gram matrix and s-matrix, zeros
# too, so the report's size is capped by their entry count, rank^2 + b1^2.  No
# dense matrix is built: the writer prints each row from its nonzero entries.
# The cap is that count for Sigma(1021,3), 2^2 + 2048^2.
DENSE_ENTRY_CAP = 4_194_308


def manifold_to_json(m: Manifold) -> dict:
    """The JSON document of ``m``.  Its Gram matrix and s-matrices are
    :class:`~fourfold.model.SparseMatrix` values, which the report writer
    prints as dense rows; its basis labels and c1 vectors are dense lists.

    Raises CapacityError when the matrices would print more than
    ``DENSE_ENTRY_CAP`` entries.
    """
    rank = 0 if m.lattice is None else m.lattice.rank
    entries = rank * rank + m.char.b1 * m.char.b1
    if entries > DENSE_ENTRY_CAP:
        raise CapacityError(
            f"the JSON form would hold rank^2 + b1^2 = {shown(entries)} matrix entries, "
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
            "gram": gram_rows(m.lattice),
        }
    for g in m.spinc_structures:
        c1 = g.c1
        doc["spinc"].append({
            "c1": None if c1 is None else list(c1),
            "c1_squared": g.c1_squared,
            "s_matrix": s_rows(g),
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


def _object(value: object, what: str) -> dict:
    if not isinstance(value, dict):
        raise CatalogError(f"{what} must be an object, got {shown(json.dumps(value))}")
    return value


def _check(value: object, kind: str, where: str, path: str) -> object:
    what, ok = _KINDS[kind]
    if not ok(value):
        raise CatalogError(f"{where}: field {path!r} must be {what}, got {shown(json.dumps(value))}")
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


def _s_matrix(value: object, where: str, path: str) -> dict:
    """The ``s_size`` and ``s_entries`` of a dense antisymmetric matrix."""
    rows = _int_matrix(value, where, path)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise CatalogError(f"{where}: field {path!r} must be a square matrix")
    if any(rows[i][j] != -rows[j][i] for i in range(n) for j in range(i, n)):
        raise CatalogError(f"{where}: field {path!r} must be antisymmetric")
    return {"s_size": n, "s_entries": tuple(
        (i, j, rows[i][j]) for i in range(n) for j in range(i + 1, n) if rows[i][j])}


def _enum(cls: type, value: object, where: str, path: str):
    try:
        return cls(value)
    except ValueError:
        allowed = ", ".join(v.value for v in cls)
        raise CatalogError(f"{where}: field {path!r} must be one of {allowed}, "
                           f"got {shown(json.dumps(value))}") from None


# The largest rank of a lattice a catalog document may give.  Its inertia
# costs O(rank^3) operations on entries that grow with the rank: for random
# entries in [-9, 9], 0.36 s at rank 120 and 8.9 s at rank 240 (CPython 3.11,
# one x86 core).
LATTICE_RANK_CAP = 128


def manifold_from_json(doc: dict, where: str = "manifold document") -> Manifold:
    """Read one manifold document, checking every field; raises CatalogError
    naming the first bad field, or CapacityError for a Gram matrix of more
    than ``LATTICE_RANK_CAP`` rows."""
    _object(doc, where)
    if doc.get("version") != CATALOG_VERSION:
        raise CatalogError(
            f"unsupported catalog document version {shown(repr(doc.get('version')))}")
    name = _field(doc, "name", "str", where)
    where = f"{where} {shown(repr(name))}"
    char = CharData(
        b1=_field(doc, "b1", "int", where), b_plus=_field(doc, "b_plus", "int", where),
        b_minus=_field(doc, "b_minus", "int", where),
        is_spin=_field(doc, "is_spin", "bool", where),
        is_simply_connected=_field(doc, "is_simply_connected", "bool", where),
    )
    lattice = None
    lat = _field(doc, "lattice", "object", where, default=None, nullable=True)
    if lat is not None:
        basis = _field(lat, "basis", "list", where, "lattice.")
        for i, label in enumerate(basis):
            _check(label, "str", where, f"lattice.basis[{i}]")
        rows = _field(lat, "gram", "list", where, "lattice.")
        if len(rows) > LATTICE_RANK_CAP:
            raise CapacityError(f"{where}: field 'lattice.gram' has {len(rows)} rows, "
                                f"over the lattice rank cap of {LATTICE_RANK_CAP}")
        gram = _int_matrix(rows, where, "lattice.gram")
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
            **_s_matrix(_field(s, "s_matrix", "list", where, f"{at}."), where,
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
    m = Manifold(name=name, char=char, lattice=lattice,
                 spinc_structures=tuple(spinc), flags=flags, sv_factors=sv_factors)
    problems = validate(m)
    if problems:
        raise CatalogError(f"invalid manifold document {shown(repr(name))}: {problems[0]}"
                           + (f" (and {len(problems) - 1} more)" if problems[1:] else ""))
    return m


def load_catalog_file(path: str) -> dict[str, Manifold]:
    """Load a user catalog: {"version": 1, "manifolds": [manifold docs]}.

    Names become atoms available to the expression parser, so each must be
    an ``IDENTIFIER``, and no two entries may share one.  Raises
    CatalogError naming the file, entry and field that is wrong, or saying
    why the JSON reader cannot take the file.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CatalogError(f"cannot read catalog file {path!r}: {exc.strerror}") from None
    # both are ValueErrors, as is the reader's refusal of a long integer
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CatalogError(f"catalog file {path!r} is not JSON: {exc}") from None
    except ValueError:
        raise CatalogError(f"catalog file {path!r} holds an integer of more than "
                           f"{int_str_limit()} digits") from None
    except RecursionError:
        raise CatalogError(f"catalog file {path!r} nests its values too deeply "
                           "for the JSON reader") from None
    _object(doc, "catalog file")
    if doc.get("version") != CATALOG_VERSION:
        raise CatalogError(
            f"unsupported catalog file version {shown(repr(doc.get('version')))}")
    out: dict[str, Manifold] = {}
    for i, mdoc in enumerate(_field(doc, "manifolds", "list", "catalog file", default=[])):
        m = manifold_from_json(mdoc, f"manifolds[{i}]")
        if not re.fullmatch(IDENTIFIER, m.name):
            raise CatalogError(f"manifolds[{i}]: field 'name' must be an identifier "
                               f"{IDENTIFIER}, got {shown(repr(m.name))}")
        if m.name in out:
            first = list(out).index(m.name)  # one key per entry so far, in order
            raise CatalogError(f"manifolds[{i}]: field 'name' repeats manifolds[{first}]")
        out[m.name] = m
    return out
