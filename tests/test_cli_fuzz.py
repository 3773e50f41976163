"""Random command lines through ``cli.main``, in process.

Every input ends in a schema-valid report (exit 0 or 2; ``search`` writes
one report per line) or in one line of ``fourfold: error:`` on stderr
(exit 1) of at most ``MAX_ERROR_LINE`` characters, however long the values
it quotes; an exception escaping ``main`` fails the test.  Expressions cover
every catalog family with parameters and counts up to 10^30, counts of 40
to 4,300 digits and nested products of them, nesting past ``MAX_NESTING``,
junk bytes spliced in, and bad ``--c4``/``--k`` values, among them
exponents and integers past the interpreter's int-str limit, with and
without ``--approx``.  An error line names at most five of 1,000
unrecognized arguments (or 300 unknown flags) and counts the rest.  A run
of such command lines, ``--help`` and a bad subcommand among them, gives
the same exit codes, stdout and stderr through the one shared parser as
through a parser built afresh for each call.
Searches take valid, negative, huge and non-numeric ``--mode``, ``--g``,
``--h``, ``--mmax`` and ``--nmax`` values, and ``--c4`` at the engineered
pi^2 tie.  Moderate parameters and counts are left out so
that the reports stay small: a sum that ``build`` dumps has at most a few
hundred pieces.
Catalog files (``--catalog``) are the README's building block with fields
dropped or mistyped, huge integers, bad s-matrices, Gram matrices and c1
vectors, 5,000-character names and versions, names the parser cannot read
(``My Atom``, ``Xñs``), or invalid UTF-8 and non-JSON bytes, run through
``catalog``, ``build``, ``check`` and ``invariants``.
"""

import contextlib
import io
import json
import os
import tempfile
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from fourfold import cli
from fourfold.catalog import PLAIN_IDS
from fourfold.errors import int_str_limit
from fourfold.model import PIECE_CAP
from fourfold.parser import MAX_NESTING

from oracles import TIE_C4

with resources.files("fourfold").joinpath("schemas/report-v1.json").open() as fh:
    VALIDATOR = jsonschema.Draft7Validator(json.load(fh))

_NUMBER = st.one_of(st.integers(0, 9), st.integers(10**6, 10**30))
# A count of 40 to int_str_limit() digits: one such count parses, and nested
# products of them pass the limit.
_HUGE_COUNT = st.builds(lambda digit, n: digit * n, st.sampled_from("123456789"),
                        st.integers(40, int_str_limit()))
_COUNT = st.one_of(st.integers(0, 3), st.integers(PIECE_CAP + 1, 10**30), _HUGE_COUNT)

_JUNK = st.one_of(
    st.binary(max_size=8).map(lambda b: b.decode("utf-8", "surrogateescape")),
    st.text(max_size=8),
    st.sampled_from(["#", "*", "(", ")", ",", "-", "\n", "1" * 5000, "K" * 5000, "Sigma(",
                     "Sigma(0," + "9" * 4000 + ")", "--help"]),
)

_FAMILY = st.one_of(
    st.builds("Sigma({},{})".format, _NUMBER, _NUMBER),
    st.builds("Y({})".format, _NUMBER),
    st.builds("Gompf({},{})".format, _NUMBER, _NUMBER),
    st.builds(lambda name, args: f"{name}({','.join(map(str, args))})",  # any arity
              st.sampled_from(["Sigma", "Y", "Gompf"]), st.lists(_NUMBER, max_size=3)))

_EXPR = st.recursive(
    st.one_of(st.sampled_from(PLAIN_IDS), _FAMILY),
    lambda inner: st.one_of(
        st.builds(lambda n, e: f"{n}*{e}", _COUNT, inner),
        inner.map(lambda e: f"({e})"),
        st.lists(inner, min_size=2, max_size=3).map(" # ".join)),
    max_leaves=5)


def _splice(text: str, at: int, junk: str) -> str:
    at %= len(text) + 1
    return text[:at] + junk + text[at:]


def _nested(counts: list[str], expr: str) -> str:
    return "".join(f"{n}*(" for n in counts) + expr + ")" * len(counts)


_NESTED = st.builds(_nested, st.lists(_HUGE_COUNT, min_size=2, max_size=3), _EXPR)

_INPUT = st.one_of(
    _EXPR,
    _EXPR,
    _EXPR,
    _NESTED,
    st.builds(_splice, _EXPR, st.integers(0, 60), _JUNK),
    _JUNK,
    st.sampled_from(["(" * (MAX_NESTING + 1) + "K3" + ")" * (MAX_NESTING + 1),
                     "2*" * (MAX_NESTING + 1) + "K3"]),
)

_RATIONAL = st.one_of(
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-10**30, 10**30), st.integers(-3, 10**30)),
    st.sampled_from(["1", "0", "-1", "-7/3", "7/3", "1e30", "1e400", "0.001", "1/0", str(TIE_C4),
                     "1e10000000", "1e-10000000", "-1e10000000", "1" * 5000,
                     "-" + "7" * 5000, "1/" + "3" * 5000]),
    _JUNK,
)


@st.composite
def _argv(draw) -> list[str]:
    command = draw(st.sampled_from(["check", "invariants", "beta2", "build", "catalog"]))
    argv = [command]
    if command == "check":
        argv.append(draw(st.sampled_from(cli.CHECK_IDS)))
        if draw(st.booleans()):
            argv.append("--non-strict")
    if command in ("check", "invariants") and draw(st.booleans()):
        argv.append(f"--c4={draw(_RATIONAL)}")
    if command == "invariants" and draw(st.booleans()):
        argv.append(f"--k={draw(_RATIONAL)}")
    if draw(st.booleans()):
        argv.insert(0, "--approx")
    return argv + ["--", draw(_INPUT)]


# A valid search, small enough to be quick, with up to two of its options
# replaced by junk, negative or huge values (refused by the search caps, or
# giving no cell at all).
_VALID = {"--mode": st.sampled_from(["spin", "nonspin"]),
          "--g": st.sampled_from([3, 5]), "--h": st.sampled_from([3, 5, 7]),
          "--mmax": st.integers(0, 3), "--nmax": st.integers(0, 4)}
_BAD = st.one_of(st.integers(-10**30, 10**30), st.sampled_from([10**4000, 10**4000 + 1]), _JUNK)


@st.composite
def _search_argv(draw) -> list[str]:
    values = {option: draw(valid) for option, valid in _VALID.items()}
    for option in draw(st.lists(st.sampled_from(sorted(_VALID)), max_size=2, unique=True)):
        values[option] = draw(_BAD)
    argv = ["search"] + [f"{option}={value}" for option, value in values.items()]
    if draw(st.booleans()):
        argv.append(f"--c4={draw(_RATIONAL)}")
    return argv


# An error line quotes at most 40 characters of any one value.
MAX_ERROR_LINE = 300


def _run(argv: list[str]) -> tuple[int, str]:
    """The exit code and stderr of ``main(argv)``, checked as above."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code == 1:
        assert out == "" and err.startswith("fourfold: error: ") and err.count("\n") == 1
        assert err.endswith("\n") and len(err) <= MAX_ERROR_LINE + 1
        # Python's int-str line offers an interpreter API, not a fault in the input
        assert "set_int_max_str_digits" not in err
        return code, err
    assert err == ""
    if argv[0] == "search":
        for line in out.splitlines():
            VALIDATOR.validate(json.loads(line))
    else:
        VALIDATOR.validate(json.loads(out))
    return code, err


# A count of int_str_limit() - 1 digits parses; twice it has one digit more.
_NINES = "9" * (int_str_limit() - 1)
_TWO_HUGE = f"{_NINES}*K3 # {_NINES}*K3"
# Two search bounds whose product has about 8,000 digits.
_BIG = "9" * (int_str_limit() - 300)


@pytest.mark.parametrize("argv, quoted", [
    (["check", "theorem-a", "9" * 3000 + "*K3"], "got n = " + "9" * 40 + "...;"),
    (["check", "theorem-a", _TWO_HUGE], "got n = 1" + "9" * 39 + "...;"),
    (["check", "decomposition", _TWO_HUGE], "got n = 1" + "9" * 39 + "...;"),
    (["check", "theorem-b", _TWO_HUGE], "got n = 1" + "9" * 39 + "...\n"),
    (["build", _TWO_HUGE], "rank^2 + b1^2 = <an integer of about "),
    (["search", "--mode", "spin", "--g", "3", "--h", "3", "--mmax", _BIG, "--nmax", _BIG],
     "a search scanning up to <an integer of about "),
], ids=["theorem-a", "theorem-a-sum", "decomposition", "theorem-b", "build", "search"])
def test_a_huge_number_in_an_error_line_is_cut_or_counted(argv, quoted):
    # a count or product that str() would print in full, or refuse past the
    # int-str limit, is quoted by its first 40 digits or by its digit count
    code, err = _run(argv)
    assert code == 1 and quoted in err


_NESTED_NINES = f"{'9' * 3000}*({'9' * 3000}*K3)"


@pytest.mark.parametrize("argv", [
    ["build"], ["invariants"], ["beta2"],
    *(["check", theorem] for theorem in cli.CHECK_IDS if theorem != "exotic")],
    ids=lambda argv: "-".join(argv))
def test_nested_counts_past_the_int_str_limit_are_refused(argv):
    # each count prints, their product has 6,000 digits: the sum's name could
    # not be printed
    code, err = _run(argv + [_NESTED_NINES])
    assert code == 1
    assert err.startswith("fourfold: error: the expression sums <an integer of about 6001 "
                          f"digits> atoms, a count of more than {int_str_limit()} digits")


def test_unrecognized_arguments_are_listed_in_a_bounded_line():
    for extra in (["ab"] * 1000, [f"--x{i}" for i in range(300)], ["a" * 100] * 7):
        code, err = _run(["build", "K3"] + extra)
        assert code == 1 and err.startswith("fourfold: error: unrecognized arguments: ")
        assert err.endswith(f" and {len(extra) - 5} more\n")
    assert _run(["build", "K3", "ab", "cd"]) == (
        1, "fourfold: error: unrecognized arguments: ab cd\n")


@given(_argv())
@settings(max_examples=300, deadline=None)
def test_any_command_line_ends_in_a_report_or_one_error_line(argv):
    _run(argv)


@given(_search_argv())
@settings(max_examples=200, deadline=None)
def test_any_search_command_line_ends_in_reports_or_one_error_line(argv):
    _run(argv)


# -- one parser for every call -------------------------------------------------

def _outcome(argv: list[str]) -> tuple[object, str, str]:
    """The exit code (or SystemExit code), stdout and stderr of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # --help
            code = ("SystemExit", exc.code)
    return code, out.getvalue(), err.getvalue()


# Fixed command lines between the random ones, most of which end in an error:
# help, a bad subcommand, and reports with and without the global options.
_FIXED = st.sampled_from([["--help"], ["check", "--help"], ["frobnicate"],
                          ["invariants", "K3 # K3"], ["--approx", "invariants", "K3 # K3"],
                          ["check", "ght", "T4"]])


@given(st.lists(st.one_of(_argv(), _search_argv(), _FIXED), min_size=2, max_size=5))
@settings(max_examples=100, deadline=None)
def test_a_shared_parser_leaks_nothing_between_calls(argvs):
    shared = [_outcome(argv) for argv in argvs]
    fresh = []
    for argv in argvs:
        cli._build_argparser.cache_clear()
        fresh.append(_outcome(argv))
    assert shared == fresh


# -- random catalog documents (--catalog) --------------------------------------

# The README's custom building block; every generated document is derived
# from it by the changes below.
_README_ATOM = {
    "version": 1, "name": "Xns",
    "b1": 0, "b_plus": 3, "b_minus": 11,
    "is_spin": False, "is_simply_connected": True,
    "flags": ["AlmostComplex", "Symplectic"],
    "lattice": None,
    "spinc": [{"c1": None, "c1_squared": 8, "s_matrix": [],
               "sw_parity": "Odd", "provenance": "UserAsserted"}],
    "sv_factors": [], "summand_record": [["Xns", 1]],
}
# Written in place of this string: an integer past the int-str limit, which
# the JSON reader refuses.
_PAST_LIMIT = "<9 x 5000>"
_PAST_DEPTH = "<nested lists>"
_HUGE = st.sampled_from([10**30, -10**30, 10**4000, -(10**4000), _PAST_LIMIT])
_VALUE = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-10**6, 10**6), _HUGE,
              st.floats(allow_nan=False), st.text(max_size=6),
              st.sampled_from(["Odd", "Unknown", "Xns", "AlmostComplex", "N" * 5000,
                               "My Atom", "Xñs"])),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)
_ATOM_KEYS = sorted(_README_ATOM)
_SPINC_KEYS = sorted(_README_ATOM["spinc"][0])
_S_MATRICES = [[[0, 1], [1, 0]], [[0, 1]], [[0, 1, 2], [-1, 0]], [[1]], [[0, 2], [-2, 0]],
               [[0, 1], [-1, 0]], [[0, 10**30], [-(10**30), 0]], "", [[None]]]
_LATTICES = [{"basis": ["a", "b"], "gram": [[0, 1], [2, 0]]},          # asymmetric
             {"basis": ["a", "b"], "gram": [[0, 1], [1, 0]]},
             {"basis": ["a"], "gram": [[0, 1], [1, 0]]},
             {"basis": [1, 2], "gram": [[0, 1], [1, 0]]},
             {"basis": ["a", "b"], "gram": [[0, 1], [1]]},
             {"basis": ["h"], "gram": [[-(10**30)]]}, {}, []]


def _change(doc: dict, draw) -> None:
    """One change to the atom document: a field dropped or given a random
    value, a bad s-matrix, lattice or c1, or huge numbers."""
    spinc = doc.get("spinc")
    g = spinc[0] if isinstance(spinc, list) and spinc and isinstance(spinc[0], dict) else {}
    kind = draw(st.sampled_from(["drop", "retype", "drop_spinc", "retype_spinc",
                                 "s_matrix", "lattice", "c1", "huge"]))
    if kind == "drop":
        doc.pop(draw(st.sampled_from(_ATOM_KEYS)), None)
    elif kind == "retype":
        doc[draw(st.sampled_from(_ATOM_KEYS))] = draw(_VALUE)
    elif kind == "drop_spinc":
        g.pop(draw(st.sampled_from(_SPINC_KEYS)), None)
    elif kind == "retype_spinc":
        g[draw(st.sampled_from(_SPINC_KEYS))] = draw(_VALUE)
    elif kind == "s_matrix":
        g["s_matrix"] = draw(st.sampled_from(_S_MATRICES))
        doc["b1"] = draw(st.sampled_from([0, 1, 2, 3]))
    elif kind == "lattice":
        doc["lattice"] = draw(st.sampled_from(_LATTICES))
        g["c1"] = draw(st.sampled_from([None, [2, 2], [1], [0, 0, 0]]))
    elif kind == "c1":  # a c1 vector, with or without a lattice
        g["c1"] = draw(st.sampled_from([[1, 2], [0], [], [10**30, 1]]))
    else:
        doc[draw(st.sampled_from(["b1", "b_plus", "b_minus"]))] = draw(_HUGE)
        g["c1_squared"] = draw(st.one_of(st.just(8), _HUGE))


@st.composite
def _catalog_file(draw) -> bytes:
    """The bytes of a catalog file: a README-derived document, or junk."""
    shape = draw(st.sampled_from(["document"] * 6 + ["utf8", "junk", "top", "deep"]))
    if shape == "utf8":
        return json.dumps({"version": 1, "manifolds": [_README_ATOM]}).encode()[:-20] + b"\xff\xfe"
    if shape == "junk":
        return draw(st.one_of(st.binary(max_size=40), st.text(max_size=40).map(str.encode),
                              st.sampled_from([b"", b"[]", b"null", b"{", b"1" * 5000,
                                               b"[" * 100_000])))
    atom = json.loads(json.dumps(_README_ATOM))
    for _ in range(draw(st.integers(0, 3))):
        _change(atom, draw)
    doc = {"version": 1, "manifolds": [atom]}
    if shape == "top":
        doc[draw(st.sampled_from(["version", "manifolds"]))] = draw(_VALUE)
    if shape == "deep":  # a field nested about or past the JSON reader's depth limit
        depth = draw(st.sampled_from([900, 1000, 5000]))
        atom[draw(st.sampled_from(_ATOM_KEYS))] = _PAST_DEPTH
        return (json.dumps(doc).replace(json.dumps(_PAST_DEPTH), "[" * depth + "]" * depth)
                .encode())
    return json.dumps(doc).replace(json.dumps(_PAST_LIMIT), "9" * 5000).encode()


@st.composite
def _catalog_argv(draw) -> list[str]:
    command = draw(st.sampled_from(["catalog", "build", "check", "invariants"]))
    argv = [command]
    if command == "check":
        argv.append(draw(st.sampled_from(cli.CHECK_IDS)))
    return argv + [draw(st.sampled_from(["Xns # K3", "Xns", "K3 # Xns # Xns",
                                         "Xns # " + "Z" * 5000]))]


@given(_catalog_file(), _catalog_argv())
@settings(max_examples=300, deadline=None)
def test_any_catalog_file_ends_in_a_report_or_one_error_line(content, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "catalog.json")
        with open(path, "wb") as fh:
            fh.write(content)
        _run(["--catalog", path] + argv)
