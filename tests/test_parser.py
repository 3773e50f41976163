import random

import pytest

from fourfold.catalog import catalog_get, manifold_to_json
from fourfold.errors import CatalogError
from fourfold.parser import (
    MAX_NESTING,
    Atom,
    ExprError,
    Node,
    Repeat,
    Sum,
    evaluate,
    parse,
)

from oracles import to_text

# ---------------------------------------------------------------------------
# grammar corpus: (text, expected atom count) for valid cases

VALID_CASES = [
    ("K3", 1),
    ("T4", 1),
    ("CP2", 1),
    ("CP2bar", 1),
    ("S1xS3", 1),
    ("Kodaira", 1),
    ("Sigma(3,3)", 1),
    ("Sigma(1,1)", 1),
    ("Y(0)", 1),
    ("Y(7)", 1),
    ("Gompf(2,0)", 1),
    ("Gompf(10,3)", 1),
    ("K3 # K3", 2),
    ("K3#K3", 2),
    ("  K3   #  T4 ", 2),
    ("2*K3", 2),
    ("1*K3", 1),
    ("17*CP2bar", 17),
    ("2*Sigma(3,3) # 18*CP2bar", 20),
    ("Gompf(2,1) # Y(3) # Sigma(3,3) # 12*S1xS3", 15),
    ("K3 # T4 # Kodaira", 3),
    ("3*(K3 # T4)", 6),
    ("2*(K3 # 2*T4)", 6),
    ("(K3)", 1),
    ("((K3))", 1),
    ("(K3 # T4) # Kodaira", 3),
    ("K3 # (T4 # Kodaira)", 3),
    ("2*2*K3", 4),
    ("Sigma( 3 , 5 )", 1),
    ("4*S1xS3 # Sigma(5,3)", 5),
    ("10*K3", 10),
    ("2*Y(2) # 2*Y(3)", 4),
    ("Kodaira # Kodaira # Kodaira", 3),
    ("Sigma(1,1) # Sigma(1,1)", 2),
    ("Gompf(2,2) # Y(1) # Sigma(3,3) # 1*S1xS3", 4),
    ("CP2 # 2*CP2bar", 3),
    ("(2*K3) # (3*T4)", 5),
    ("7*(Sigma(3,3))", 7),
    ("2*(2*(K3 # K3))", 8),
    ("K3 # 2*(T4 # Kodaira) # CP2", 6),
    ("3*2*K3", 6),
    ("2*3*(K3 # T4)", 12),
    ("Y(12)", 1),
    ("Sigma(9,9)", 1),
    ("Gompf(2,15)", 1),
    ("K3 # K3 # K3 # K3", 4),
    ("5*S1xS3 # 5*S1xS3", 10),
    ("(Sigma(3,3) # Sigma(3,3)) # 18*CP2bar", 20),
    ("1*(K3 # T4)", 2),
    ("2 * Sigma( 3, 3 )", 2),
    ("CP2bar # CP2bar # CP2bar", 3),
    ("Y(1) # Y(1)", 2),
    ("Gompf(3,2) # Gompf(2,3)", 2),
    ("6*Kodaira", 6),
    ("2*(Sigma(1,1))", 2),
    ("K3#T4#CP2#CP2bar#S1xS3#Kodaira", 6),
]

# (text, expected error offset)
INVALID_CASES = [
    ("", 0),
    ("   ", 3),
    ("#", 0),
    ("# K3", 0),
    ("K3 # # T4", 5),
    ("K3 #", 4),
    ("K3 T4", 3),
    ("2K3", 1),
    ("2 K3", 2),
    ("*K3", 0),
    ("2*", 2),
    ("2**K3", 2),
    ("K3 # 2*", 7),
    ("Sigma(", 6),
    ("Sigma(3", 7),
    ("Sigma(3,", 8),
    ("Sigma(3,)", 8),
    ("Sigma 3,3)", 6),
    ("Sigma(3 3)", 8),
    ("(K3", 3),
    ("K3)", 2),
    ("()", 1),
    ("(# K3)", 1),
    ("K3 ## T4", 4),
    ("K3 @ T4", 3),
    ("K3 # T4 #", 9),
    ("3 * * K3", 4),
    ("Y(3,4", 5),
    ("K3 # (T4", 8),
    ("0*K3", 0),
    ("K3 # 0*T4", 5),
    ("2*(K3 # T4", 10),
    ("K3 extra", 3),
    ("Sigma(,3)", 6),
    ("5", 1),
    ("5 # K3", 2),
    ("K3 # 5", 6),
    ("Sigma((3,3))", 6),
    ("K3 # (T4))", 9),
    ("-2*K3", 0),
    ("K3 + T4", 3),
    ("2*#K3", 2),
    ("Sigma)3,3(", 5),
    ("Y()", 2),
    ("K3 # T4 K3", 8),
    ("3*", 2),
    ("((K3)", 5),
    ("K3 # (T4 # )", 11),
    ("Sigma(3,,3)", 8),
    ("2 * * K3", 4),
]


@pytest.mark.parametrize("text,atoms", VALID_CASES)
def test_valid_corpus(text, atoms):
    ast = parse(text)
    m = evaluate(ast)
    assert len(m.pieces()) == atoms
    # canonical printing re-parses to the same AST
    assert parse(to_text(ast)) == ast


@pytest.mark.parametrize("text,offset", INVALID_CASES)
def test_invalid_corpus(text, offset):
    with pytest.raises(ExprError) as exc:
        parse(text)
    assert exc.value.offset == offset


@pytest.mark.parametrize("text, offset", [
    ("7" * 5000 + "*K3", 0),
    ("K3 # Sigma(" + "7" * 5000 + ",3)", 11),
], ids=["count", "argument"])
def test_an_integer_past_the_int_str_limit_is_an_expr_error(text, offset):
    with pytest.raises(ExprError) as exc:
        parse(text)
    assert exc.value.offset == offset
    assert "set_int_max_str_digits" not in str(exc.value)


def test_corpus_is_at_least_100_cases():
    assert len(VALID_CASES) + len(INVALID_CASES) >= 100


def test_unknown_atom_and_bad_parameters():
    with pytest.raises(CatalogError):
        evaluate(parse("E8"))
    with pytest.raises(CatalogError):
        evaluate(parse("Sigma(0,3)"))
    with pytest.raises(CatalogError):
        evaluate(parse("Gompf(1,1)"))


def test_precedence():
    ast = parse("2*K3 # T4")
    assert isinstance(ast, Sum)
    assert ast.parts[0] == Repeat(2, Atom("K3"))
    assert ast.parts[1] == Atom("T4")


def test_left_associative_flatten():
    ast = parse("K3 # T4 # Kodaira")
    assert isinstance(ast, Sum)
    assert len(ast.parts) == 3


def test_expected_token_sets():
    with pytest.raises(ExprError) as exc:
        parse("K3 # # T4")
    assert "identifier" in str(exc.value)
    assert exc.value.expected


# ---------------------------------------------------------------------------
# random AST round trips


def _random_ast(rng: random.Random, depth: int = 0) -> Node:
    atoms = [Atom("K3"), Atom("T4"), Atom("CP2bar"), Atom("Kodaira"),
             Atom("S1xS3"), Atom("Sigma", (rng.randint(1, 9), rng.randint(1, 9))),
             Atom("Y", (rng.randint(0, 9),)),
             Atom("Gompf", (rng.randint(2, 9), rng.randint(0, 9)))]
    roll = rng.random()
    if depth >= 3 or roll < 0.45:
        return rng.choice(atoms)
    if roll < 0.7:
        return Repeat(rng.randint(1, 9), _random_ast(rng, depth + 1))
    k = rng.randint(2, 4)
    parts = []
    for _ in range(k):
        child = _random_ast(rng, depth + 1)
        # canonical sums are flattened: splice nested sums in
        if isinstance(child, Sum):
            parts.extend(child.parts)
        else:
            parts.append(child)
    return Sum(tuple(parts))


def test_round_trip_random_asts():
    rng = random.Random(4242)
    for _ in range(1000):
        ast = _random_ast(rng)
        assert parse(to_text(ast)) == ast


def test_normalization_order_independence():
    a = evaluate(parse("2*Sigma(3,3) # 18*CP2bar"))
    b = evaluate(parse("9*CP2bar # Sigma(3,3) # 9*CP2bar # Sigma(3,3)"))
    assert a == b
    assert a.euler() == 48 and a.signature() == -18


def test_evaluate_with_custom_env(tmp_path):
    import json
    from fourfold.catalog import load_catalog_file
    from oracles import plain
    doc = plain(manifold_to_json(catalog_get("K3")))
    doc["name"] = "MyBlock"
    path = tmp_path / "cat.json"
    path.write_text(json.dumps({"version": 1, "manifolds": [doc]}))
    env = load_catalog_file(str(path))
    m = evaluate(parse("MyBlock # K3"), env)
    assert m.euler() == 46


@pytest.mark.parametrize("opener,closer,levels", [
    ("(", ")", 1), ("2*", "", 1), ("2*(", ")", 2)])
def test_nesting_cap(opener, closer, levels):
    """Parentheses and repetition prefixes both count as nesting levels; the
    error points at the token that opens level MAX_NESTING + 1."""
    deep = opener * 3000 + "K3" + closer * 3000
    with pytest.raises(ExprError) as exc:
        parse(deep)
    assert f"deeper than {MAX_NESTING}" in str(exc.value)
    assert exc.value.offset == len(opener) * (MAX_NESTING // levels)
    n = MAX_NESTING // levels
    ok = parse(opener * n + "K3" + closer * n)
    assert evaluate(ok).piece_count() == (2 ** n if "2" in opener else 1)


def test_nesting_cap_in_cli(capsys):
    from fourfold.cli import main
    assert main(["build", "(" * 3000 + "K3" + ")" * 3000]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "at offset 100" in err
