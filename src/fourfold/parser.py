"""Manifold expression language.

Grammar (whitespace-insensitive)::

    expr   := term ('#' term)*
    term   := INT '*' term | factor
    factor := IDENT | IDENT '(' INT (',' INT)* ')' | '(' expr ')'

'#' is the connected sum and parses left-associatively; '*' binds tighter.
Atoms are the catalog names (K3, T4, CP2, CP2bar, S1xS3, Kodaira) and the
parametric families Sigma(g,h), Y(l), Gompf(a,b), plus any names supplied by
a user catalog.

Diagnostics carry the offset of the offending character (a ``str`` index)
and the expected-token set.  Nesting (parentheses and repetition prefixes
together) is capped at ``MAX_NESTING`` levels; deeper input raises ExprError
at the offending token instead of exhausting the interpreter stack.
Evaluation normalizes the expression to a sorted multiset of atoms before
summing, so textual order never changes the result; an atom count that could
pass the interpreter's int-str limit, as nested counts can, is refused there.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

from fourfold.catalog import IDENTIFIER, catalog_get
from fourfold.errors import CapacityError, FourfoldError, digit_bound, int_str_limit, shown
from fourfold.model import Manifold
from fourfold.surgery import connected_sum


# Each level costs a few interpreter frames in the parser and one in
# evaluation; 100 levels stay far below the default recursion limit.
MAX_NESTING = 100


class ExprError(FourfoldError):
    """Syntax or range error in a manifold expression."""

    def __init__(self, message: str, offset: int,
                 expected: tuple[str, ...] = ()) -> None:
        detail = f"{message} at offset {offset}"
        if expected:
            detail += " (expected " + " or ".join(expected) + ")"
        super().__init__(detail)
        self.offset = offset
        self.expected = expected


# -- AST --------------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    name: str
    args: tuple[int, ...] = ()

    def display(self) -> str:
        if self.args:
            return f"{self.name}({','.join(str(a) for a in self.args)})"
        return self.name


@dataclass(frozen=True)
class Repeat:
    count: int
    inner: "Node"


@dataclass(frozen=True)
class Sum:
    parts: tuple["Node", ...]


Node = Union[Atom, Repeat, Sum]


# -- tokenizer --------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str            # IDENT | INT | '#' | '*' | '(' | ')' | ',' | EOF
    text: str
    offset: int


# One named group per token kind, tried in order at each position; "BAD" takes
# the one character that starts no token.
_TOKEN_RE = re.compile(rf"(?P<SPACE>\s+)|(?P<IDENT>{IDENTIFIER})|(?P<INT>\d+)"
                       r"|(?P<OP>[#*(),])|(?P<BAD>.)", re.DOTALL)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind, lexeme, pos = m.lastgroup, m.group(), m.start()
        if kind == "SPACE":
            continue
        if kind == "BAD":
            raise ExprError(f"unexpected character {lexeme!r}", pos,
                            ("identifier", "integer", "'#'", "'*'", "'('"))
        tokens.append(_Token(lexeme if kind == "OP" else kind, lexeme, pos))
    tokens.append(_Token("EOF", "", len(text)))
    return tokens


# -- recursive descent ------------------------------------------------------


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.cur
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        if self.cur.kind != kind:
            raise ExprError(f"found {shown(repr(self.cur.text or 'end of input'))}",
                            self.cur.offset, (what,))
        return self.advance()

    def integer(self, tok: _Token) -> int:
        try:
            return int(tok.text)
        except ValueError:  # past the interpreter's int-str limit
            raise ExprError(f"integer of {len(tok.text)} digits, over the limit of "
                            f"{int_str_limit()}", tok.offset) from None

    def parse(self) -> Node:
        node = self.expr()
        if self.cur.kind != "EOF":
            raise ExprError(f"trailing input {shown(repr(self.cur.text))}",
                            self.cur.offset, ("'#'", "end of input"))
        return node

    def expr(self) -> Node:
        parts = [self.term()]
        while self.cur.kind == "#":
            self.advance()
            parts.append(self.term())
        if len(parts) == 1:
            return parts[0]
        return Sum(tuple(parts))

    def nest(self, tok: _Token) -> None:
        """Enter one nesting level ('(' or 'k*') at ``tok``."""
        if self.depth == MAX_NESTING:
            raise ExprError(f"nesting deeper than {MAX_NESTING} levels", tok.offset)
        self.depth += 1

    def term(self) -> Node:
        if self.cur.kind == "INT":
            count_tok = self.advance()
            self.expect("*", "'*'")
            count = self.integer(count_tok)
            if count < 1:
                raise ExprError(f"repetition count must be >= 1, got {count}",
                                count_tok.offset)
            self.nest(count_tok)
            inner = self.term()
            self.depth -= 1
            return Repeat(count, inner)
        return self.factor()

    def factor(self) -> Node:
        tok = self.cur
        if tok.kind == "(":
            self.nest(tok)
            self.advance()
            node = self.expr()
            self.expect(")", "')'")
            self.depth -= 1
            return node
        if tok.kind != "IDENT":
            raise ExprError(f"found {shown(repr(tok.text or 'end of input'))}", tok.offset,
                            ("integer", "identifier", "'('"))
        self.advance()
        if self.cur.kind != "(":
            return Atom(tok.text)
        self.advance()
        args = [self.integer(self.expect("INT", "integer"))]
        while self.cur.kind == ",":
            self.advance()
            args.append(self.integer(self.expect("INT", "integer")))
        self.expect(")", "')'")
        return Atom(tok.text, tuple(args))


def parse(text: str) -> Node:
    """Parse a manifold expression; raises ExprError with offset and
    expected-token diagnostics."""
    return _Parser(text).parse()


# -- evaluation -------------------------------------------------------------


def _atom_counts(node: Node, multiplier: int,
                 counts: dict[Atom, int]) -> None:
    if isinstance(node, Atom):
        counts[node] = counts.get(node, 0) + multiplier
    elif isinstance(node, Repeat):
        _atom_counts(node.inner, multiplier * node.count, counts)
    else:
        for p in node.parts:
            _atom_counts(p, multiplier, counts)


def _resolve(atom: Atom, env: Optional[dict[str, Manifold]]) -> Manifold:
    """A user atom of the name (it shadows a built-in), else the built-in.
    User names are identifiers, so an atom with parameters is a built-in."""
    if env and not atom.args and atom.name in env:
        return env[atom.name]
    return catalog_get(atom.display())


def evaluate(node: Node, env: Optional[dict[str, Manifold]] = None) -> Manifold:
    """Evaluate an expression to a manifold.  Nothing is validated here: the
    built-in atoms are valid as built, ``catalog.load_catalog_file`` checks
    the atoms of ``env``, and ``cli._validated`` checks the sum.

    The expression is reduced to its atom multiset first, each distinct atom
    is resolved once, and the sum is taken with counts, so any textual
    ordering of the same atoms evaluates to the identical manifold value and
    repetition counts cost nothing.
    """
    counts: dict[Atom, int] = {}
    _atom_counts(node, 1, counts)
    # the sum's name prints the count of each atom name, and two atoms may
    # share one (Y(0) is K3): bound their total by what str() can print
    total, limit = sum(counts.values()), int_str_limit()
    if digit_bound(total) > limit and total >= 10 ** limit:
        raise CapacityError(f"the expression sums {shown(total)} atoms, a count of "
                            f"more than {limit} digits")
    atoms = sorted(counts, key=lambda a: (a.name, a.args))
    return connected_sum([_resolve(atom, env) for atom in atoms],
                         [counts[atom] for atom in atoms])
