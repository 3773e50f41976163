"""Random command lines through ``cli.main``, in process.

Every input ends in a schema-valid report (exit 0 or 2; ``search`` writes
one report per line) or in one line of ``fourfold: error:`` on stderr
(exit 1); an exception escaping ``main`` fails the test.  Expressions cover
every catalog family with parameters and counts up to 10^30, nesting past
``MAX_NESTING``, junk bytes spliced in, and bad ``--c4``/``--k`` values,
among them exponents and integers past the interpreter's int-str limit,
with and without ``--approx``.
Searches take valid, negative, huge and non-numeric ``--mode``, ``--g``,
``--h``, ``--mmax`` and ``--nmax`` values, and ``--c4`` at the engineered
pi^2 tie.  Moderate parameters and counts are left out so
that the reports stay small: a sum that ``build`` dumps, or whose pieces
``check bauer`` lists, has at most a few hundred pieces (at ``PIECE_CAP``
pieces the ``bauer`` report alone is about 0.5 GB).
"""

import contextlib
import io
import json
from importlib import resources

import jsonschema
from hypothesis import given, settings, strategies as st

from fourfold import cli
from fourfold.catalog import PLAIN_IDS
from fourfold.model import PIECE_CAP
from fourfold.parser import MAX_NESTING

from oracles import TIE_C4

with resources.files("fourfold").joinpath("schemas/report-v1.json").open() as fh:
    VALIDATOR = jsonschema.Draft7Validator(json.load(fh))

_NUMBER = st.one_of(st.integers(0, 9), st.integers(10**6, 10**30))
_COUNT = st.one_of(st.integers(0, 3), st.integers(PIECE_CAP + 1, 10**30))

_JUNK = st.one_of(
    st.binary(max_size=8).map(lambda b: b.decode("utf-8", "surrogateescape")),
    st.text(max_size=8),
    st.sampled_from(["#", "*", "(", ")", ",", "-", "\n", "1" * 5000, "Sigma(", "--help"]),
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


_INPUT = st.one_of(
    _EXPR,
    _EXPR,
    _EXPR,
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
_BAD = st.one_of(st.integers(-10**30, 10**30), _JUNK)


@st.composite
def _search_argv(draw) -> list[str]:
    values = {option: draw(valid) for option, valid in _VALID.items()}
    for option in draw(st.lists(st.sampled_from(sorted(_VALID)), max_size=2, unique=True)):
        values[option] = draw(_BAD)
    argv = ["search"] + [f"{option}={value}" for option, value in values.items()]
    if draw(st.booleans()):
        argv.append(f"--c4={draw(_RATIONAL)}")
    return argv


def _run(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code == 1:
        assert out == "" and err.startswith("fourfold: error: ") and err.count("\n") == 1
        assert err.endswith("\n")
        return
    assert err == ""
    if argv[0] == "search":
        for line in out.splitlines():
            VALIDATOR.validate(json.loads(line))
    else:
        VALIDATOR.validate(json.loads(out))


@given(_argv())
@settings(max_examples=300, deadline=None)
def test_any_command_line_ends_in_a_report_or_one_error_line(argv):
    _run(argv)


@given(_search_argv())
@settings(max_examples=200, deadline=None)
def test_any_search_command_line_ends_in_reports_or_one_error_line(argv):
    _run(argv)
