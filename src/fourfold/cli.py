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
closes the output pipe early.  The FOURFOLD_C4 environment variable
overrides the default simplicial-volume product constant c4 = 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence, Union

from fourfold import catalog, einstein, monopole, parser, surgery
from fourfold.certify import (
    Certificate,
    Verdict,
    check_bauer,
    check_theorem_A,
    check_theorem_B,
    moduli_dimension,
    require_part_count,
)
from fourfold.errors import FourfoldError
from fourfold.model import Manifold, validate
from fourfold.monopole import Inconclusive
from fourfold.symbolic import SymbolicValue

REPORT_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONCLUSIVE = 2

CHECK_IDS = ("bauer", "theorem-a", "theorem-b", "hitchin-thorpe", "ght",
             "einstein", "decomposition", "exotic")


class _CliParser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise FourfoldError(message)


def _default_c4() -> Fraction:
    raw = os.environ.get("FOURFOLD_C4")
    if raw is None:
        return Fraction(1)
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise FourfoldError(f"bad FOURFOLD_C4 value {raw!r}: {exc}") from exc


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

    p = sub.add_parser("search", help="geography search for Einstein-obstructed sums")
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


def _evaluate(args: argparse.Namespace, expr: str) -> Manifold:
    m = parser.parse_and_evaluate(expr, _load_env(args))
    problems = validate(m)
    if problems:
        raise FourfoldError("invalid manifold: " + "; ".join(problems))
    return m


def _c4(args: argparse.Namespace) -> Fraction:
    raw = getattr(args, "c4", None)
    if raw is None:
        return _default_c4()
    return Fraction(raw)


def _sym_json(value: Union[SymbolicValue, Inconclusive],
              approx: bool) -> dict:
    if isinstance(value, Inconclusive):
        return {"inconclusive": value.reason}
    doc = value.to_json()
    doc["text"] = str(value)
    if approx:
        doc["approx_non_authoritative"] = value.approx()
    return doc


def _emit(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _cmd_catalog(args: argparse.Namespace) -> int:
    if args.id is None:
        _emit({"version": REPORT_VERSION, "kind": "catalog-list",
               "ids": list(catalog.catalog_ids())})
        return EXIT_OK
    m = catalog.catalog_get(args.id)
    _emit({"version": REPORT_VERSION, "kind": "manifold",
           "manifold": catalog.manifold_to_json(m)})
    return EXIT_OK


def _cmd_build(args: argparse.Namespace) -> int:
    m = _evaluate(args, args.expr)
    _emit({"version": REPORT_VERSION, "kind": "manifold",
           "manifold": catalog.manifold_to_json(m)})
    return EXIT_OK


def _beta2_report(m: Manifold) -> Union[dict, Inconclusive]:
    parts, n_part = surgery.split_blowdown(m)
    try:
        orbit = monopole.monopole_classes_for_sum(parts, n_part)
    except FourfoldError as exc:
        return Inconclusive(str(exc))
    value, witness = monopole.beta_squared_with_witness(orbit)
    return {
        "value": str(value),
        "witness": [str(x) for x in witness],
        "classes": 2 ** orbit.rank,
        "gram_diagonal": list(orbit.squares),
    }


def _cmd_invariants(args: argparse.Namespace) -> int:
    m = _evaluate(args, args.expr)
    approx = args.approx
    k = Fraction(args.k)
    c4 = _c4(args)
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

    inv = monopole.invariant_Is_Y_K(m)
    if isinstance(inv, Inconclusive):
        doc["Is"] = doc["Y"] = doc["K"] = {"inconclusive": inv.reason}
    else:
        doc["Is"] = _sym_json(inv.Is, approx)
        doc["Y"] = _sym_json(inv.Y, approx)
        doc["K"] = _sym_json(inv.K, approx)
    doc["lambda_k"] = {"k": str(k),
                       "value": _sym_json(monopole.lambda_bar_k(m, k), approx)}
    doc["Ir"] = _sym_json(monopole.invariant_Ir(m), approx)

    beta = _beta2_report(m)
    doc["beta_squared"] = {"inconclusive": beta.reason} if isinstance(beta, Inconclusive) else beta

    sv = einstein.simplicial_volume(m, c4)
    doc["sv_interval"] = ({"inconclusive": sv.reason}
                          if isinstance(sv, Inconclusive) else sv.to_json())
    _emit(doc)
    return EXIT_OK


def _verdict_exit(verdict: Verdict) -> int:
    return EXIT_INCONCLUSIVE if verdict is Verdict.INCONCLUSIVE else EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    m = _evaluate(args, args.expr)
    theorem = args.theorem
    extra: dict = {}
    if theorem == "bauer":
        cert = check_bauer(list(m.pieces()))
    elif theorem in ("theorem-a", "theorem-b"):
        require_part_count(theorem, m.piece_count())
        check = check_theorem_A if theorem == "theorem-a" else check_theorem_B
        cert = check(list(m.pieces()))
    elif theorem == "hitchin-thorpe":
        cert = einstein.hitchin_thorpe(m)
    elif theorem == "ght":
        cert = einstein.ght(m, _c4(args), strict=not args.non_strict)
    elif theorem == "einstein":
        cert = einstein.einstein_obstruction(m)
    elif theorem == "decomposition":
        bound, cert = einstein.decomposition_certificate(m)
        extra["bound"] = bound
    elif theorem == "exotic":
        # The first '#'-term of the expression is the candidate x; evaluation
        # normalizes atom order, so split at the syntax level.
        ast = parser.parse(args.expr)
        if not isinstance(ast, parser.Sum) or len(ast.parts) < 2:
            raise FourfoldError(
                "exotic check needs an expression 'X # <1 or 2 parts>'")
        env = _load_env(args)
        x = parser.evaluate(ast.parts[0], env)
        xprime = parser.evaluate(parser.Sum(ast.parts[1:]), env)
        cert = einstein.exotic_pair(x, xprime)
    else:  # pragma: no cover - argparse restricts choices
        raise FourfoldError(f"unknown theorem id {theorem!r}")
    doc = {"version": REPORT_VERSION, "kind": "check", "expr": args.expr,
           "theorem": theorem, "certificate": cert.to_json(),
           "verdict": cert.verdict.value}
    doc.update(extra)
    _emit(doc)
    return _verdict_exit(cert.verdict)


def _cmd_beta2(args: argparse.Namespace) -> int:
    m = _evaluate(args, args.expr)
    beta = _beta2_report(m)
    if isinstance(beta, Inconclusive):
        _emit({"version": REPORT_VERSION, "kind": "beta2", "expr": args.expr,
               "beta_squared": {"inconclusive": beta.reason}})
        return EXIT_INCONCLUSIVE
    _emit({"version": REPORT_VERSION, "kind": "beta2", "expr": args.expr,
           "beta_squared": beta})
    return EXIT_OK


def _cmd_search(args: argparse.Namespace) -> int:
    c4 = _c4(args)
    fn = (einstein.search_spin_examples if args.mode == "spin"
          else einstein.search_nonspin_examples)
    outcome = fn(args.g, args.h, args.mmax, args.nmax, c4)
    for hit in outcome.hits:
        doc = hit.to_json()
        doc["version"] = REPORT_VERSION
        doc["kind"] = "search-hit"
        sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
    for m, n, l in outcome.inconclusive:
        sys.stdout.write(json.dumps(
            {"version": REPORT_VERSION, "kind": "search-inconclusive",
             "mode": args.mode, "m": m, "n": n, "l": l,
             "reason": "pi^2 enclosure tie"}, sort_keys=True) + "\n")
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
        args = _build_argparser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # The reader closed the pipe early (e.g. `fourfold search ... | head`):
        # stop quietly, as a filter killed by SIGPIPE does.
        _detach_stdout()
        return EXIT_USAGE
    except FourfoldError as exc:
        print(f"fourfold: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ZeroDivisionError) as exc:
        print(f"fourfold: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
