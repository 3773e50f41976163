"""Manifold expression language.

Grammar (whitespace-insensitive)::

    expr   := term ('#' term)*
    term   := INT '*' term | factor
    factor := IDENT | IDENT '(' INT (',' INT)* ')' | '(' expr ')'

'#' is the connected sum and parses left-associatively; '*' binds tighter.
Atoms are the catalog names (K3, T4, CP2, CP2bar, S1xS3, Kodaira) and the
parametric families Sigma(g,h), Y(l), Gompf(a,b), plus any names supplied by
a user catalog.

Diagnostics carry the byte offset and the expected-token set.  Nesting
(parentheses and repetition prefixes together) is capped at ``MAX_NESTING``
levels; deeper input raises ExprError at the offending token instead of
exhausting the interpreter stack.  Evaluation normalizes the expression to
a sorted multiset of atoms before summing, so textual order never changes
the result.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

from fourfold.catalog import catalog_get
from fourfold.errors import CatalogError, FourfoldError
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


def to_text(node: Node) -> str:
    """Canonical rendering; parse(to_text(ast)) == ast."""
    if isinstance(node, Atom):
        return node.display()
    if isinstance(node, Repeat):
        inner = to_text(node.inner)
        if isinstance(node.inner, Sum):
            inner = f"({inner})"
        return f"{node.count}*{inner}"
    return " # ".join(
        f"({to_text(p)})" if isinstance(p, Sum) else to_text(p)
        for p in node.parts)


# -- tokenizer --------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str            # IDENT | INT | '#' | '*' | '(' | ')' | ',' | EOF
    text: str
    offset: int


_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*|\d+|[#*(),]")


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ExprError(f"unexpected character {ch!r}", pos,
                            ("identifier", "integer", "'#'", "'*'", "'('"))
        lexeme = m.group(0)
        if lexeme[0].isalpha():
            kind = "IDENT"
        elif lexeme[0].isdigit():
            kind = "INT"
        else:
            kind = lexeme
        tokens.append(_Token(kind, lexeme, pos))
        pos = m.end()
    tokens.append(_Token("EOF", "", n))
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
            raise ExprError(f"found {self.cur.text or 'end of input'!r}",
                            self.cur.offset, (what,))
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        if self.cur.kind != "EOF":
            raise ExprError(f"trailing input {self.cur.text!r}",
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
            count = int(count_tok.text)
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
            raise ExprError(f"found {tok.text or 'end of input'!r}", tok.offset,
                            ("integer", "identifier", "'('"))
        self.advance()
        if self.cur.kind != "(":
            return Atom(tok.text)
        self.advance()
        args = [int(self.expect("INT", "integer").text)]
        while self.cur.kind == ",":
            self.advance()
            args.append(int(self.expect("INT", "integer").text))
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
    name = atom.display()
    if env:
        if name in env:
            if atom.args:
                raise CatalogError(f"custom atom {atom.name!r} takes no parameters")
            return env[name]
        if not atom.args and atom.name in env:
            return env[atom.name]
    return catalog_get(name)


def evaluate(node: Node, env: Optional[dict[str, Manifold]] = None) -> Manifold:
    """Evaluate an expression to a validated manifold.

    The expression is reduced to its atom multiset first, each distinct atom
    is resolved once, and the sum is taken with counts, so any textual
    ordering of the same atoms evaluates to the identical manifold value and
    repetition counts cost nothing.
    """
    counts: dict[Atom, int] = {}
    _atom_counts(node, 1, counts)
    atoms = sorted(counts, key=lambda a: (a.name, a.args))
    return connected_sum([_resolve(atom, env) for atom in atoms],
                         [counts[atom] for atom in atoms])


def parse_and_evaluate(text: str,
                       env: Optional[dict[str, Manifold]] = None) -> Manifold:
    return evaluate(parse(text), env)
