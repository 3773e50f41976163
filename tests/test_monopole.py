import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fourfold import monopole
from fourfold.catalog import catalog_get
from fourfold.cli import main
from fourfold.errors import PremiseError
from fourfold.exact import quadratic_form
from fourfold.monopole import (
    Inconclusive,
    MonopoleClassSet,
    beta_squared_with_witness,
    invariant_Ir,
    invariant_Is_Y_K,
    lambda_bar_k,
    monopole_classes_for_sum,
)
from fourfold.surgery import connected_sum, split_blowdown
from fourfold.symbolic import SymbolicValue

from oracles import (
    FULL_MESH_POINT_CAP,
    MESH_DEN,
    beta_squared_faces,
    beta_squared_support_sets,
    box_mesh_max,
    box_mesh_sample_max,
    mesh_error_bound,
    sign_orbit,
    sign_vector,
)

K3 = catalog_get("K3")
SIGMA33 = catalog_get("Sigma(3,3)")
CP2BAR = catalog_get("CP2bar")
S1XS3 = catalog_get("S1xS3")


def _classes(parts, rest=None):
    """The monopole classes of the sum of parts and the b+ = 0 rest."""
    whole = connected_sum(parts + [rest] * (rest is not None))
    return monopole_classes_for_sum(split_blowdown(whole))


def _vectors(s: MonopoleClassSet) -> list[tuple[int, ...]]:
    """The sign vectors of the classes ``s.classes`` numbers."""
    return [sign_vector(i, s.rank) for i in s.classes]


def test_monopole_classes_for_sum():
    s = _classes([SIGMA33, SIGMA33])
    assert len(s.classes) == 4 and s.classes == range(4)
    assert s.squares == (32, 32)
    assert _vectors(s) == [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    s2 = _classes([SIGMA33, SIGMA33], CP2BAR)
    assert len(s2.classes) == 8 and s2.rank == 3
    vectors = _vectors(s2)
    assert (1, 1, 1) in vectors and (1, 1, -1) in vectors
    assert (1, 0, 1) not in vectors and (1, 1) not in vectors
    assert [1, 1, 1] not in vectors  # classes are tuples
    assert s2.squares == (32, 32, -1)
    # the bit rule numbers the classes in itertools.product order
    assert tuple(vectors) == sign_orbit([32, 32, -1])[0]
    for d in range(7):
        assert tuple(_vectors(MonopoleClassSet((1,) * d))) == sign_orbit([1] * d)[0]


def test_monopole_classes_premises():
    with pytest.raises(PremiseError, match="got n = 0"):
        _classes([CP2BAR])
    # a split's rest has b+ = 0 by construction: K3 is a third piece, and
    # a fourth piece fails the part count
    with pytest.raises(PremiseError, match="got n = 4"):
        _classes([SIGMA33, SIGMA33, K3, K3])
    with pytest.raises(PremiseError, match="non-vanishing premises fail"):
        _classes([catalog_get("CP2"), K3])


def _forbid_enumeration(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sign vectors were enumerated")
    assert not hasattr(monopole, "itertools")
    monkeypatch.setattr(itertools, "product", refuse)


def test_no_sign_vector_enumeration_in_cli(monkeypatch, capsys):
    _forbid_enumeration(monkeypatch)
    expr = "2*Sigma(3,3) # 18*CP2bar"
    for command in ("beta2", "invariants"):
        assert main([command, expr]) == 0
        beta = json.loads(capsys.readouterr().out)["beta_squared"]
        assert beta["value"] == "64"
        assert beta["classes"] == 1048576
        assert len(beta["witness"]) == 20


def test_no_sign_vector_enumeration_in_library(monkeypatch):
    _forbid_enumeration(monkeypatch)
    remainder = connected_sum([CP2BAR] * 200)
    s = _classes([SIGMA33, SIGMA33], remainder)
    assert s.rank == 202
    assert s.squares == (32, 32) + (-1,) * 200
    value, witness = beta_squared_with_witness(s)
    assert value == 64
    assert witness == (Fraction(-1),) * 2 + (Fraction(0),) * 200
    assert sign_vector(s.classes[0], s.rank) == (1,) * 202 and 2 ** 202 not in s.classes


def test_beta_squared_examples():
    assert beta_squared_with_witness(MonopoleClassSet((32, 32)))[0] == 64
    assert beta_squared_with_witness(MonopoleClassSet((32, 32, -1)))[0] == 64
    # a null class outside any sign orbit, solved by the oracle alone
    assert beta_squared_faces(((2, 0), (-2, 0)), ((0, 1), (1, 0)))[0] == 0


def test_beta_squared_witness_is_lex_least():
    value, witness = beta_squared_with_witness(MonopoleClassSet((32, 32, -1)))
    assert value == 64
    assert witness == (Fraction(-1), Fraction(-1), Fraction(0))
    assert beta_squared_faces(*sign_orbit([32, 32, -1])) == (value, witness)


def test_beta_squared_rejects_asymmetric():
    with pytest.raises(ValueError):
        beta_squared_faces(((1, 1), (1, -1), (-1, 1)), ((1, 0), (0, 1)))


def test_beta_squared_empty():
    with pytest.raises(ValueError):
        beta_squared_faces((), ())
    # no generators: the orbit is the single zero class
    s = MonopoleClassSet(())
    assert _vectors(s) == [()] and beta_squared_with_witness(s) == (0, ())


@given(st.integers(1, 5), st.integers())
@settings(max_examples=60, deadline=None)
def test_box_equals_faces_equals_positive_sum(d, seed):
    rng = random.Random(seed)
    diag = [rng.randint(-64, 64) for _ in range(d)]
    expected = sum(x for x in diag if x > 0)
    box_val, box_wit = beta_squared_with_witness(MonopoleClassSet(tuple(diag)))
    face_val, face_wit = beta_squared_faces(*sign_orbit(diag))
    assert box_val == expected
    assert face_val == expected
    assert box_wit == face_wit


def test_support_set_solver_agrees_on_small_orbits():
    rng = random.Random(7)
    for d in (1, 2, 3):
        for _ in range(10):
            diag = [rng.randint(-64, 64) for _ in range(d)]
            general_val, _ = beta_squared_support_sets(*sign_orbit(diag))
            assert general_val == sum(x for x in diag if x > 0)


def test_non_diagonal_sign_orbit():
    gram = ((2, 1), (1, 2))
    classes = tuple(itertools.product((1, -1), repeat=2))
    face_val, _ = beta_squared_faces(classes, gram)
    general_val, _ = beta_squared_support_sets(classes, gram)
    assert face_val == general_val == 6
    assert face_val >= box_mesh_max(gram)


def test_general_solver_interior_maximum():
    # max of a negative-definite form over any hull is 0 at the origin
    pts = ((1, 0), (-1, 0), (0, 1), (0, -1))
    val, wit = beta_squared_faces(pts, ((-2, 0), (0, -3)))
    assert val == 0
    assert wit == (Fraction(0), Fraction(0))


@pytest.mark.parametrize("d,seed", [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2),
                                    (3, 0), (3, 1), (3, 2), (4, 0), (4, 1)])
def test_mesh_oracle_bounds_solver(d, seed):
    rng = random.Random(seed)
    diag = [rng.randint(-64, 64) for _ in range(d)]
    _, gram = sign_orbit(diag)
    solver = beta_squared_with_witness(MonopoleClassSet(tuple(diag)))[0]
    mesh = box_mesh_max(gram)
    assert solver >= mesh
    assert solver - mesh <= mesh_error_bound(gram)


def test_mesh_sample_lower_bounds_rank5():
    rng = random.Random(99)
    diag = [rng.randint(-64, 64) for _ in range(5)]
    _, gram = sign_orbit(diag)
    solver = beta_squared_with_witness(MonopoleClassSet(tuple(diag)))[0]
    sample = box_mesh_sample_max(gram, rng, count=50_000)
    assert solver >= sample
    assert (2 * MESH_DEN + 1) ** 5 > FULL_MESH_POINT_CAP  # full mesh out of reach


@given(st.integers(1, 4), st.integers())
@settings(max_examples=60, deadline=None)
def test_beta_squared_symmetry_and_midpoints(d, seed):
    rng = random.Random(seed)
    diag = [rng.randint(-64, 64) for _ in range(d)]
    orbit = MonopoleClassSet(tuple(diag))
    val = beta_squared_with_witness(orbit)[0]
    _, gram = sign_orbit(diag)
    vectors = _vectors(orbit)
    for v in vectors:
        assert tuple(-x for x in v) in vectors
    for v, w in itertools.combinations(vectors, 2):
        mid = [Fraction(a + b, 2) for a, b in zip(v, w)]
        assert val >= quadratic_form(gram, mid)


def test_beta_squared_lower_bound_sum_c1sq():
    s2 = _classes([SIGMA33, SIGMA33], CP2BAR)
    assert beta_squared_with_witness(s2)[0] >= 32 + 32


def test_curvature_bounds():
    # The scalar bound 32 pi^2 beta^2 and the Ricci bound
    # 8 pi^2 [4n - (2chi+3tau)(N) + sum c1^2] are the reported Is and Ir.
    y = catalog_get("Y(2)")
    for parts, rest in (([SIGMA33, SIGMA33], None), ([SIGMA33, SIGMA33], CP2BAR), ([y, y], None)):
        m = connected_sum(parts + [rest] * (rest is not None))
        b2, _ = beta_squared_with_witness(_classes(parts, rest))
        assert invariant_Is_Y_K(split_blowdown(m)).Is == SymbolicValue(32 * b2, 2)
    assert (invariant_Ir(split_blowdown(connected_sum([SIGMA33, SIGMA33])))
            == SymbolicValue(8 * (8 - 4 + 64), 2))
    assert (invariant_Ir(split_blowdown(connected_sum([SIGMA33, SIGMA33, CP2BAR])))
            == SymbolicValue(552, 2))


def test_curvature_ricci_inconclusive_without_decomposition():
    ir = invariant_Ir(split_blowdown(catalog_get("K3")))
    assert isinstance(ir, Inconclusive) and "2 or 3 positive-b+ pieces" in ir.reason


def test_invariant_is_y_k():
    m = connected_sum([SIGMA33, SIGMA33])
    inv = invariant_Is_Y_K(split_blowdown(m))
    assert inv.Is == SymbolicValue(2048, 2)
    assert inv.Y == SymbolicValue(-32, 1, 2)
    assert inv.K == inv.Y
    # Is = |Y|^2: (q pi sqrt(s))^2 = q^2 s pi^2
    assert (inv.Y.q ** 2 * inv.Y.radicand, 2 * inv.Y.pi_power, 1) == (
        inv.Is.q, inv.Is.pi_power, inv.Is.radicand)
    m3 = connected_sum([SIGMA33, SIGMA33, SIGMA33, S1XS3])
    inv3 = invariant_Is_Y_K(split_blowdown(m3))
    assert inv3.Is == SymbolicValue(32 * 96, 2)
    # total c1^2 = 0: the formula degenerates to zero
    y = catalog_get("Y(2)")
    inv0 = invariant_Is_Y_K(split_blowdown(connected_sum([y, y])))
    assert inv0.Is == SymbolicValue(0)
    assert inv0.Y == SymbolicValue(0)


def test_invariant_is_y_k_premises():
    kod = catalog_get("Kodaira")
    # Kodaira is not Kaehler
    res = invariant_Is_Y_K(split_blowdown(connected_sum([kod, kod])))
    assert isinstance(res, Inconclusive)
    assert "MinimalKaehler" in res.reason
    # a lone manifold is not a 2-3 piece sum
    assert isinstance(invariant_Is_Y_K(split_blowdown(K3)), Inconclusive)


def test_lambda_bar_k():
    m = connected_sum([SIGMA33, SIGMA33])
    inv = invariant_Is_Y_K(split_blowdown(m))
    y = inv.Y
    assert lambda_bar_k(m, inv, Fraction(1)) == y
    assert lambda_bar_k(m, inv, Fraction(2, 3)) == y.scale(Fraction(2, 3))
    assert lambda_bar_k(m, inv, Fraction(2, 3)) == SymbolicValue(Fraction(-64, 3), 1, 2)
    assert isinstance(lambda_bar_k(m, inv, Fraction(1, 2)), Inconclusive)
    cp2 = catalog_get("CP2")
    inv_cp2 = invariant_Is_Y_K(split_blowdown(cp2))
    assert lambda_bar_k(cp2, inv_cp2, Fraction(1)) == SymbolicValue.plus_infinity()
    assert lambda_bar_k(cp2, inv_cp2, Fraction(1, 10)) == SymbolicValue.plus_infinity()
    assert isinstance(lambda_bar_k(cp2, inv_cp2, Fraction(0)), Inconclusive)


def test_invariant_ir():
    m = connected_sum([SIGMA33, SIGMA33, CP2BAR])
    assert invariant_Ir(split_blowdown(m)) == SymbolicValue(552, 2)
    m0 = connected_sum([SIGMA33, SIGMA33])
    assert invariant_Ir(split_blowdown(m0)) == SymbolicValue(544, 2)
    # strict gap Ir > Is/4, both multiples of pi^2
    inv = invariant_Is_Y_K(split_blowdown(m0))
    ir, quarter_is = invariant_Ir(split_blowdown(m0)), inv.Is.scale(Fraction(1, 4))
    assert ir.pi_power == quarter_is.pi_power == 2 and ir.q > quarter_is.q
    # c1^2 = 0 parts rejected
    y = catalog_get("Y(2)")
    assert isinstance(invariant_Ir(split_blowdown(connected_sum([y, y]))), Inconclusive)


def test_invariant_ir_gap_property():
    # Ir > Is/4 whenever both are defined and 2chi+3tau(N) <= 4
    cases = [
        connected_sum([SIGMA33, SIGMA33]),
        connected_sum([SIGMA33, SIGMA33, CP2BAR]),
        connected_sum([SIGMA33, catalog_get("Sigma(3,5)"), CP2BAR, CP2BAR, S1XS3]),
        connected_sum([SIGMA33, SIGMA33, SIGMA33, S1XS3, S1XS3]),
    ]
    for m in cases:
        ir = invariant_Ir(split_blowdown(m))
        inv = invariant_Is_Y_K(split_blowdown(m))
        assert not isinstance(ir, Inconclusive)
        quarter_is = inv.Is.scale(Fraction(1, 4))
        assert ir.pi_power == quarter_is.pi_power == 2 and ir.q > quarter_is.q


def test_invariant_ir_specialized_formula():
    # N = k CP2bar # l (S1xS3): bracket = k + 4(n + l - 1) + sum c1^2
    for k, l in ((1, 0), (2, 3), (0, 2)):
        m = connected_sum([SIGMA33, SIGMA33] + [CP2BAR] * k + [S1XS3] * l)
        expected = SymbolicValue(8 * (k + 4 * (2 + l - 1) + 64), 2)
        assert invariant_Ir(split_blowdown(m)) == expected
