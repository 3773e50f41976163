"""Command-line front end.

Subcommands::

    fourfold catalog [ID]           list building blocks / dump one as JSON
    fourfold build EXPR             evaluate an expression, print the manifold
    fourfold invariants EXPR        chi, tau, Betti data, moduli dimensions,
                                    Is/Y/K/lambda_k/Ir, beta^2, sv interval
    fourfold check THEOREM EXPR     run a certificate (bauer, theorem-a,
                                    theorem-b, hitchin-thorpe, ght, einstein,
                                    decomposition, exotic)
    fourfold beta2 EXPR             exact beta^2 with maximizing witness
    fourfold search --mode spin|nonspin --g G --h H --mmax M --nmax N

All numeric output is exact (rational strings and q*pi^p*sqrt(s) renderings);
--approx appends clearly marked non-authoritative decimals.  Exit status: 0
for computed verdicts (including NotObstructed), 2 for Inconclusive, 1 for
usage errors and size caps (CapacityError), and 1, silently, when the reader
closes the output pipe early.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction
from typing import Callable, Optional, Sequence, TypeVar, Union

from fourfold import catalog, einstein, errors, monopole, parser, surgery
from fourfold.catalog import REPORT_VERSION
from fourfold.certify import (
    Certificate,
    Verdict,
    check_bauer,
    check_theorem_A,
    check_theorem_B,
    moduli_dimension,
    require_part_count,
)
from fourfold.errors import CapacityError, FourfoldError, int_str_limit
from fourfold.model import Manifold, SparseMatrix, validate
from fourfold.monopole import Inconclusive
from fourfold.symbolic import SymbolicValue

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONCLUSIVE = 2

_T = TypeVar("_T")

CHECK_IDS = ("bauer", "theorem-a", "theorem-b", "hitchin-thorpe", "ght",
             "einstein", "decomposition", "exotic")


class _CliParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # A word that starts with "-", an optional "." and a digit is a
        # value, as in "--k -2/3" and "--c4 -1e-3": argparse's own pattern
        # reads only words like "-3" and "-0.5" as numbers and takes the
        # rest for options.  No option of this CLI starts so.
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message: str) -> None:  # type: ignore[override]
        # argparse quotes a bad value in full: cut each quoted run or word over
        # 40 characters
        raise FourfoldError(re.sub(r"'[^']{39,}'|\"[^\"]{39,}\"|\S{41,}",
                                   lambda q: errors.shown(q[0]), message))


def _rational(raw: str, source: str) -> Fraction:
    """Parse a rational option value; errors name the option and
    quote at most 40 characters of the value.

    A value whose digits and decimal exponent add up to the interpreter's
    int-str limit is refused before ``Fraction()`` expands it: ``1e10000000``
    would take seconds to expand, and its report could not be printed.
    """
    shown = errors.shown(repr(raw))
    limit = int_str_limit()
    size = sum(c.isdigit() for c in raw)
    exponent = re.search(r"e([-+]?\d[\d_]*)", raw, re.IGNORECASE) if size < limit else None
    if exponent:
        # the exponent adds its value to the digits, not its own digits
        text = exponent.group(1)
        size += abs(int(text.replace("_", ""))) - sum(c.isdigit() for c in text)
    if size >= limit:
        raise FourfoldError(f"bad {source} value {shown}: {limit} digits or more")
    try:
        return Fraction(raw)
    except ZeroDivisionError:
        raise FourfoldError(f"bad {source} value {shown}: zero denominator") from None
    except ValueError:
        raise FourfoldError(f"bad {source} value {shown}: not a rational number") from None


def _rendered(part: str, render: Callable[[], _T], source: str = "",
              raw: Optional[str] = None) -> _T:
    """``render()`` of the report part ``part``, derived from the value
    ``raw`` of the option ``source`` (None when it is not given).

    Inputs under the int-str limit can still give a derived number over it
    (16 * factor * c4, k * Y, b+ of a sum); printing that number raises
    ValueError, which is refused here as a ``CapacityError`` in the name of
    the option, or of the part when no option was given.  Any other
    ValueError, such as a certificate's own invariant, passes unchanged.
    """
    try:
        return render()
    except ValueError as exc:
        if "integer string conversion" not in str(exc):  # the interpreter's wording
            raise
        cause = (f"{part} has" if raw is None else
                 f"bad {source} value {errors.shown(repr(raw))}: a derived number has")
        raise CapacityError(f"{cause} more than {int_str_limit()} digits") from None


# Built once per process: argparse holds no state between parse calls, and
# help and usage text are formatted per call (so COLUMNS applies per call).
# Only a process that calls main more than once gains; a CLI run calls it once.
@functools.cache
def _build_argparser() -> _CliParser:
    top = _CliParser(prog="fourfold", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument("--catalog", metavar="PATH", default=None,
                     help="JSON file of custom manifolds usable as atoms")
    top.add_argument("--approx", action="store_true",
                     help="append non-authoritative decimal approximations")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list built-in blocks or dump one")
    p.add_argument("id", nargs="?", default=None)

    p = sub.add_parser("build", help="evaluate an expression to a manifold")
    p.add_argument("expr")

    p = sub.add_parser("invariants", help="invariant report for an expression")
    p.add_argument("expr")
    p.add_argument("--k", default="1", help="eigenvalue-invariant parameter (rational)")
    p.add_argument("--c4", default=None, help="simplicial-volume product constant")

    p = sub.add_parser("check", help="run a theorem certificate")
    p.add_argument("theorem", choices=CHECK_IDS)
    p.add_argument("expr")
    p.add_argument("--c4", default=None)
    p.add_argument("--non-strict", action="store_true",
                   help="check the non-strict Gromov-Hitchin-Thorpe inequality")

    p = sub.add_parser("beta2", help="exact beta^2 over the monopole hull")
    p.add_argument("expr")

    p = sub.add_parser("search", help="geography search for Einstein-obstructed sums",
                       description="Geography search for Einstein-obstructed sums.  Its "
                                   "atoms are the built-ins: a --catalog file is read "
                                   "and checked as for every command, but not searched.")
    p.add_argument("--mode", choices=("spin", "nonspin"), required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--mmax", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--c4", default=None)
    return top


def _load_env(args: argparse.Namespace) -> Optional[dict[str, Manifold]]:
    if args.catalog is None:
        return None
    return catalog.load_catalog_file(args.catalog)


def _validated(m: Manifold) -> Manifold:
    problems = validate(m)
    if problems:
        raise FourfoldError("invalid manifold: " + "; ".join(problems))
    return m


def _evaluate(args: argparse.Namespace, expr: str) -> Manifold:
    return _validated(parser.evaluate(parser.parse(expr), _load_env(args)))


def _exotic(args: argparse.Namespace) -> Certificate:
    """The exotic certificate for ``x # xprime``: the first '#'-term of the
    expression is the candidate x.  Evaluation normalizes atom order, so the
    expression is split at the syntax level, parsed once and evaluated against
    a catalog loaded once; the whole sum is the sum of the two values."""
    env = _load_env(args)
    ast = parser.parse(args.expr)
    if not isinstance(ast, parser.Sum) or len(ast.parts) < 2:
        raise FourfoldError("exotic check needs an expression 'X # <1 or 2 parts>'")
    x = parser.evaluate(ast.parts[0], env)
    xprime = parser.evaluate(parser.Sum(ast.parts[1:]), env)
    return einstein.exotic_pair(x, xprime)


def _c4(args: argparse.Namespace) -> Fraction:
    """The simplicial-volume product constant: ``--c4``, else
    ``einstein.DEFAULT_C4``.  The one check that c4 > 0."""
    if args.c4 is None:
        return einstein.DEFAULT_C4
    c4 = _rational(args.c4, "--c4")
    if c4 <= 0:
        raise FourfoldError(f"bad --c4 value {errors.shown(repr(args.c4))}: not positive")
    return c4


def _sym_json(value: Union[SymbolicValue, Inconclusive],
              approx: bool) -> dict:
    if isinstance(value, Inconclusive):
        return {"inconclusive": value.reason}
    doc = value.to_json()
    doc["text"] = str(value)
    if approx:
        doc["approx_non_authoritative"] = value.approx()
    return doc


# One encoder for every search tie line and for the scalars of every indented
# report (a search's hit lines come finished from ``einstein``): it holds no
# state between calls, and a report has no cycles to check for.  Its output is
# that of ``json.dumps(doc, sort_keys=True)``.
_LINE_ENCODER = json.JSONEncoder(sort_keys=True, check_circular=False)


def _matrix_rows(matrix: SparseMatrix, pad: str):
    """The chunks of ``_indented`` for the dense rows of ``matrix``, one per
    row.  A run of zeros is copies of one string; only nonzeros are printed."""
    if not matrix.side:
        yield "[]"
        return
    row_pad = pad + "  "
    entry_pad = row_pad + "  "
    zero, comma, last = "0," + entry_pad, "," + entry_pad, matrix.side - 1
    sep = "[" + row_pad
    for row in matrix.rows:
        parts = [sep, "[", entry_pad]
        col = 0
        for j, x in row:
            parts += (zero * (j - col), int.__repr__(x), comma)
            col = j + 1
        if col <= last:
            parts += (zero * (last - col), "0")
        else:
            parts.pop()  # no separator after the last column
        parts += (row_pad, "]")
        yield "".join(parts)
        sep = "," + row_pad
    yield pad + "]"


def _indented(value, pad: str = "\n"):
    """Yield the text of ``json.dump(value, indent=2, sort_keys=True)``, byte
    for byte, in chunks: one per dict key, scalar, list of ints and matrix
    row, so that no chunk holds a whole report.  Dict keys are str, as in
    every report; a :class:`SparseMatrix` prints as its list of dense rows."""
    if type(value) is SparseMatrix:
        yield from _matrix_rows(value, pad)
        return
    if not value or not isinstance(value, (dict, list, tuple)):
        yield _LINE_ENCODER.encode(value)  # also {} and []
        return
    inner = pad + "  "
    if isinstance(value, dict):
        yield "{"
        sep = inner
        for key in sorted(value):
            yield sep + _LINE_ENCODER.encode(key) + ": "
            yield from _indented(value[key], inner)
            sep = "," + inner
        yield pad + "}"
    elif all(type(x) is int for x in value):  # not bool: it prints true/false
        yield "[" + inner + ("," + inner).join(map(int.__repr__, value)) + pad + "]"
    else:
        yield "["
        sep = inner
        for item in value:
            yield sep
            yield from _indented(item, inner)
            sep = "," + inner
        yield pad + "]"


# The C encoder (no indent), with each matrix left out as null: one fast pass
# that prints every other int of a report, as ``_emit`` needs.
_PROBE_ENCODER = json.JSONEncoder(check_circular=False, default=lambda matrix: None)


def _emit(doc: dict) -> None:
    """Write ``doc`` as an indented report.  A report holding an int past the
    int-str limit, which could not be printed, is refused before its first
    byte is written: the probe encoding raises ValueError where printing would.
    Matrix entries are atom data, already bounded."""
    try:
        _PROBE_ENCODER.encode(doc)
    except ValueError:
        raise CapacityError("the report holds a number with more than "
                            f"{int_str_limit()} digits") from None
    write = sys.stdout.write
    for chunk in _indented(doc):
        write(chunk)
    write("\n")


def _cmd_catalog(args: argparse.Namespace) -> int:
    env = _load_env(args) or {}
    if args.id is None:
        _emit({"version": REPORT_VERSION, "kind": "catalog-list",
               "ids": [*catalog.catalog_ids(), *env]})
        return EXIT_OK
    # a user name shadows a built-in, as an expression atom does
    m = env[args.id] if args.id in env else catalog.catalog_get(args.id)
    _emit({"version": REPORT_VERSION, "kind": "manifold",
           "manifold": catalog.manifold_to_json(m)})
    return EXIT_OK


def _cmd_build(args: argparse.Namespace) -> int:
    m = _evaluate(args, args.expr)
    _emit({"version": REPORT_VERSION, "kind": "manifold",
           "manifold": catalog.manifold_to_json(m)})
    return EXIT_OK


def _beta2_report(split: surgery.Split) -> dict:
    try:
        orbit = monopole.monopole_classes_for_sum(split)
    except FourfoldError as exc:
        return {"inconclusive": str(exc)}
    value, witness = monopole.beta_squared_with_witness(orbit)
    return {
        "value": str(value),
        "witness": [str(x) for x in witness],
        "classes": 2 ** orbit.rank,
        "gram_diagonal": list(orbit.squares),
    }


def _cmd_invariants(args: argparse.Namespace) -> int:
    m = _evaluate(args, args.expr)
    k = _rational(args.k, "--k")
    c4 = _c4(args)
    # the derived values print what the sum's size gives, such as b+ of a piece
    _emit(_rendered("a number in the invariants report",
                    lambda: _invariants_report(args, m, k, c4)))
    return EXIT_OK


def _invariants_report(args: argparse.Namespace, m: Manifold, k: Fraction,
                       c4: Fraction) -> dict:
    approx = args.approx
    doc: dict = {
        "version": REPORT_VERSION,
        "kind": "invariants",
        "expr": args.expr,
        "manifold": m.name,
        "chi": m.euler(),
        "tau": m.signature(),
        "b1": m.char.b1,
        "b_plus": m.char.b_plus,
        "b_minus": m.char.b_minus,
        "is_spin": m.char.is_spin,
        "is_simply_connected": m.char.is_simply_connected,
    }
    dims = []
    for g in m.spinc_structures:
        try:
            dims.append(moduli_dimension(m, g))
        except FourfoldError as exc:
            dims.append(str(exc))
    doc["moduli_dimensions"] = dims

    split = surgery.split_blowdown(m)
    inv = monopole.invariant_Is_Y_K(split)
    if isinstance(inv, Inconclusive):
        doc["Is"] = doc["Y"] = doc["K"] = {"inconclusive": inv.reason}
    else:
        doc["Is"] = _sym_json(inv.Is, approx)
        doc["Y"] = _sym_json(inv.Y, approx)
        doc["K"] = _sym_json(inv.K, approx)
    lam = monopole.lambda_bar_k(m, inv, k)
    doc["lambda_k"] = {"k": str(k),
                       "value": _rendered("lambda_k", lambda: _sym_json(lam, approx),
                                          "--k", args.k)}
    doc["Ir"] = _sym_json(monopole.invariant_Ir(split), approx)

    doc["beta_squared"] = _beta2_report(split)

    sv = einstein.simplicial_volume(m, c4)
    doc["sv_interval"] = ({"inconclusive": sv.reason} if isinstance(sv, Inconclusive)
                          else _rendered("an end of the simplicial-volume interval",
                                         sv.to_json, "--c4", args.c4))
    return doc


def _cmd_check(args: argparse.Namespace) -> int:
    theorem = args.theorem
    m = None if theorem == "exotic" else _evaluate(args, args.expr)
    extra: dict = {}

    def certificate() -> Certificate:
        if theorem == "bauer":
            return check_bauer(m)
        if theorem in ("theorem-a", "theorem-b"):
            require_part_count(theorem, m.piece_count())
            check = check_theorem_A if theorem == "theorem-a" else check_theorem_B
            return check(list(m.pieces()))
        if theorem == "hitchin-thorpe":
            return einstein.hitchin_thorpe(m.euler(), m.signature())
        if theorem == "ght":
            return einstein.ght(m.euler(), m.signature(),
                                einstein.simplicial_volume(m, _c4(args)),
                                strict=not args.non_strict)
        if theorem == "einstein":
            return einstein.einstein_obstruction(m)
        if theorem == "decomposition":
            extra["bound"], cert = einstein.decomposition_certificate(m)
            return cert
        return _exotic(args)  # the last of CHECK_IDS, which argparse enforces

    # a witness prints what the certificate derives, such as b+ of the sum
    cert = _rendered(f"a number in the {theorem} certificate", certificate)
    doc = {"version": REPORT_VERSION, "kind": "check", "expr": args.expr,
           "theorem": theorem, "certificate": cert.to_json(),
           "verdict": cert.verdict.value}
    doc.update(extra)
    _emit(doc)
    return EXIT_INCONCLUSIVE if cert.verdict is Verdict.INCONCLUSIVE else EXIT_OK


def _cmd_beta2(args: argparse.Namespace) -> int:
    m = _evaluate(args, args.expr)
    beta = _rendered("a number in the beta2 report",
                     lambda: _beta2_report(surgery.split_blowdown(m)))
    _emit({"version": REPORT_VERSION, "kind": "beta2", "expr": args.expr,
           "beta_squared": beta})
    return EXIT_INCONCLUSIVE if "inconclusive" in beta else EXIT_OK


def _cmd_search(args: argparse.Namespace) -> int:
    _load_env(args)  # a bad --catalog fails here too; the search sums built-ins only
    c4 = _c4(args)
    fn = (einstein.search_spin_examples if args.mode == "spin"
          else einstein.search_nonspin_examples)
    write = sys.stdout.write
    # The search hands on each hit's finished line before it certifies the
    # next hit, so the line is written as the scan runs; the ties follow.
    outcome = fn(args.g, args.h, args.mmax, args.nmax, c4, emit=write)
    for m, n, l in outcome.inconclusive:
        write(_LINE_ENCODER.encode({"version": REPORT_VERSION, "kind": "search-inconclusive",
                                    "mode": args.mode, "m": m, "n": n, "l": l,
                                    "reason": "pi^2 enclosure tie"}) + "\n")
    return EXIT_INCONCLUSIVE if outcome.inconclusive else EXIT_OK


_COMMANDS = {
    "catalog": _cmd_catalog,
    "build": _cmd_build,
    "invariants": _cmd_invariants,
    "check": _cmd_check,
    "beta2": _cmd_beta2,
    "search": _cmd_search,
}


def _detach_stdout() -> None:
    """Point stdout at the null device, so the interpreter's final flush of
    output the reader never took does not raise again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, sys.stdout.fileno())
    except (AttributeError, OSError, ValueError):
        pass  # stdout is not a file descriptor (e.g. captured in process)
    finally:
        os.close(devnull)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        # The parser is shared by every call; each parse fills a fresh Namespace.
        # parse_args would list every unrecognized argument: name at most 5, cut
        args, extra = _build_argparser().parse_known_args(argv)
        if extra:
            more = f" and {len(extra) - 5} more" if len(extra) > 5 else ""
            raise FourfoldError("unrecognized arguments: "
                                + " ".join(map(errors.shown, extra[:5])) + more)
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # The reader closed the pipe early (e.g. `fourfold search ... | head`):
        # stop quietly, as a filter killed by SIGPIPE does.
        _detach_stdout()
        return EXIT_USAGE
    except (FourfoldError, ValueError, ZeroDivisionError) as exc:
        print(f"fourfold: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
