"""Lie algebras, Poisson matrices, stabilizers, polarizations."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

import orbitkit
from orbitkit.exactnum import ExactMatrix, GaussRational
from orbitkit.liealg import (
    Covector,
    MAX_DIM,
    InputError,
    LieAlgebra,
    abelian,
    aff1,
    check_jacobi,
    check_polarization,
    heisenberg,
    poisson_matrix,
    sl2,
    stabilizer,
)
from subspaces import spanned_by


def test_jacobi_holds_on_standard_algebras():
    for L in (heisenberg(), aff1(), sl2(), abelian(4)):
        ok, witness = check_jacobi(L)
        assert ok and witness is None


def test_jacobi_fails_with_first_violating_triple():
    # [X,Y] = X together with [X,Z] = Y feeds X back into the bracket
    # and the cyclic sum over (X, Y, Z) picks it up.
    L = LieAlgebra.from_brackets(
        3,
        {(0, 1): {0: 1}, (0, 2): {1: 1}, (1, 2): {}},
    )
    ok, witness = check_jacobi(L)
    assert not ok
    assert witness == (0, 1, 2)


def _dense_bracket(L, u, v):
    """[u, v] read from the dense constants c[i][j][k], every k scanned."""
    out = [Fraction(0)] * L.dim
    for i, j in itertools.product(range(L.dim), repeat=2):
        if u[i] and v[j]:
            for k in range(L.dim):
                out[k] += u[i] * v[j] * L.c[i][j][k]
    return out


def _jacobi_oracle(L):
    """Jacobi over every ordered basis triple, by nested brackets."""
    e = [[Fraction(int(t == i)) for t in range(L.dim)] for i in range(L.dim)]
    for i, j, k in itertools.product(range(L.dim), repeat=3):
        lhs = [Fraction(0)] * L.dim
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            outer = _dense_bracket(L, _dense_bracket(L, e[a], e[b]), e[c])
            lhs = [x + y for x, y in zip(lhs, outer)]
        if any(lhs):
            return False, (i, j, k)
    return True, None


def _dense_poisson(L, F):
    return ExactMatrix(
        [[sum(c * f for c, f in zip(L.c[i][j], F.coords)) for j in range(L.dim)]
         for i in range(L.dim)]
    )


def _stabilizer_oracle(L, F):
    """ker B, or None when some [u, v] raises the rank of the kernel basis."""
    vectors = _dense_poisson(L, F).kernel_basis()
    for u in vectors:
        for v in vectors:
            if ExactMatrix(vectors + [_dense_bracket(L, u, v)]).rank() != len(vectors):
                return None
    return vectors


def test_sparse_table_agrees_with_the_dense_oracles():
    # random antisymmetric tables, most of which break Jacobi
    rng = random.Random(18)
    outcomes = Counter()
    for _ in range(450):
        n = rng.randint(1, 6)
        density = rng.choice((0.2, 0.4, 0.7))
        brackets = {
            (i, j): {
                rng.randrange(n): Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2)))
                for _ in range(rng.randint(1, 2))
            }
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < density
        }
        L = LieAlgebra.from_brackets(n, brackets)
        verdict = check_jacobi(L)
        assert verdict == _jacobi_oracle(L), brackets
        u, v = ([Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)] for _ in "uv")
        assert list(L.bracket(u, v)) == _dense_bracket(L, u, v)
        F = Covector(tuple(Fraction(rng.choice((0, 0, 0, 1, -2))) for _ in range(n)))
        assert poisson_matrix(L, F).rows == _dense_poisson(L, F).rows
        expected = _stabilizer_oracle(L, F)
        if expected is None:
            with pytest.raises(InputError, match="not closed under the bracket"):
                stabilizer(L, F)
        else:
            assert stabilizer(L, F) == expected
        outcomes[verdict[0], expected is None] += 1
    assert outcomes[True, True] == 0
    assert min(outcomes[True, False], outcomes[False, False], outcomes[False, True]) >= 25, outcomes


def test_bracket_extends_bilinearly_to_the_complexification():
    rng = random.Random(3)
    for L in (heisenberg(), aff1(), sl2()):
        for _ in range(20):
            a, b, c, d = (
                [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(L.dim)]
                for _ in range(4)
            )
            assert all(type(x) is Fraction for x in L.bracket(a, c))
            re = [x - y for x, y in zip(L.bracket(a, c), L.bracket(b, d))]
            im = [x + y for x, y in zip(L.bracket(a, d), L.bracket(b, c))]
            u = [GaussRational(x, y) for x, y in zip(a, b)]
            v = [GaussRational(x, y) for x, y in zip(c, d)]
            assert L.bracket(u, v) == tuple(GaussRational(x, y) for x, y in zip(re, im))


def test_constructor_rejects_constants_that_are_not_antisymmetric():
    z, one = Fraction(0), Fraction(1)
    symmetric = (((z, z), (z, one)), ((z, one), (z, z)))  # [X0, X1] = [X1, X0] = X1
    with pytest.raises(InputError, match=r"not antisymmetric at \(0,1\)"):
        LieAlgebra(2, ("a", "b"), symmetric)
    diagonal = (((z, one), (z, z)), ((z, z), (z, z)))  # [X0, X0] = X1
    with pytest.raises(InputError, match=r"not antisymmetric at \(0,0\)"):
        LieAlgebra(2, ("a", "b"), diagonal)


def test_loader_rejects_inconsistent_orientations():
    with pytest.raises(InputError):
        LieAlgebra.from_brackets(2, {(0, 1): {1: 1}, (1, 0): {1: 1}})


def test_loader_round_trip_and_antisymmetric_completion():
    L = heisenberg()
    again = LieAlgebra.from_json(L.to_json())
    assert again.c == L.c
    assert again.c[1][0][2] == -1  # filled from the (0,1) entry


def test_input_error_is_the_package_class():
    assert InputError is orbitkit.InputError


def test_loader_checks_the_file_before_building_the_table(monkeypatch):
    assert LieAlgebra.from_json({"dim": MAX_DIM}).dim == MAX_DIM

    def forbidden(*args, **kwargs):
        raise AssertionError("table built before the file was checked")

    monkeypatch.setattr(LieAlgebra, "from_brackets", forbidden)
    for obj in (
        {"dim": MAX_DIM + 1},
        {"dim": 2.7},
        {"dim": True},
        {"dim": 2, "basis": 5},
        {"dim": 2, "brackets": 5},
        {"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": [1]}]},
    ):
        with pytest.raises(InputError):
            LieAlgebra.from_json(obj)


def test_poisson_matrix_heisenberg_center():
    B = poisson_matrix(heisenberg(), Covector.of(0, 0, 1))
    assert B.rows[0][1] == 1 and B.rows[1][0] == -1
    assert all(type(x) is Fraction for row in B.rows for x in row)
    assert B.rank() == 2


def test_poisson_matrix_aff1():
    B = poisson_matrix(aff1(), Covector.of(0, 1))
    expected = [[0, 1], [-1, 0]]
    for i in range(2):
        for j in range(2):
            assert B.rows[i][j] == Fraction(expected[i][j])


def test_poisson_matrix_zero_covector():
    B = poisson_matrix(sl2(), Covector.of(0, 0, 0))
    assert B.rank() == 0


def test_poisson_antisymmetry_and_even_rank_sampled():
    rng = random.Random(5)
    for L in (heisenberg(), aff1(), sl2()):
        for _ in range(100):
            F = Covector(
                tuple(Fraction(rng.randint(-8, 8), 4) for _ in range(L.dim))
            )
            B = poisson_matrix(L, F)
            for i in range(L.dim):
                for j in range(L.dim):
                    assert B.rows[i][j] == -B.rows[j][i]
            assert B.rank() % 2 == 0
            assert B.rank() + len(stabilizer(L, F)) == L.dim


def test_orbit_dimensions_match_known_values():
    assert poisson_matrix(heisenberg(), Covector.of(0, 0, 1)).rank() == 2
    assert poisson_matrix(heisenberg(), Covector.of(1, 1, 0)).rank() == 0
    assert poisson_matrix(aff1(), Covector.of(0, 1)).rank() == 2


def test_stabilizer_heisenberg_is_center():
    basis = stabilizer(heisenberg(), Covector.of(0, 0, 1))
    assert len(basis) == 1
    direction = basis[0]
    assert direction[0] == 0 and direction[1] == 0 and direction[2] != 0


def test_stabilizer_trivial_and_full_cases():
    assert stabilizer(aff1(), Covector.of(0, 1)) == []
    full = stabilizer(sl2(), Covector.of(0, 0, 0))
    assert len(full) == 3


def test_poisson_matrix_is_antisymmetric_at_sampled_covectors():
    # the foliation report rests on B = -B^T: row space equals image
    rng = random.Random(9)
    for L in (heisenberg(), aff1(), sl2()):
        for _ in range(50):
            F = Covector(tuple(Fraction(rng.randint(-6, 6)) for _ in range(L.dim)))
            B = poisson_matrix(L, F)
            assert tuple(zip(*B.rows)) == tuple(tuple(-x for x in row) for row in B.rows)


def test_polarization_real_heisenberg():
    L = heisenberg()
    p = spanned_by([[0, 0, 1], [1, 0, 0]], 3)
    report = check_polarization(L, Covector.of(0, 0, 1), p)
    assert report.passed
    assert report.mixed_type == (1, 0, 1)


def test_polarization_complex_heisenberg():
    L = heisenberg()
    i = GaussRational.i()
    p = spanned_by([[0, 0, 1], [1, i, 0]], 3)
    report = check_polarization(L, Covector.of(0, 0, 1), p)
    assert report.passed
    assert report.mixed_type == (0, 1, 0)


def test_polarization_missing_stabilizer_fails_condition_a():
    L = heisenberg()
    p = spanned_by([[1, 0, 0]], 3)
    report = check_polarization(L, Covector.of(0, 0, 1), p)
    assert not report.subalgebra
    assert not report.passed


def test_full_complexification_is_always_a_polarization():
    for L in (heisenberg(), aff1(), sl2()):
        span = [[1 if c == r else 0 for c in range(L.dim)] for r in range(L.dim)]
        p = spanned_by(span, L.dim)
        for coords in ([0] * L.dim, [1] + [0] * (L.dim - 1)):
            report = check_polarization(L, Covector.of(*coords), p)
            assert report.subalgebra and report.passed
            assert set(report.to_json()) == {
                "subalgebra", "mixed_type", "dims", "not_evaluated", "passed"
            }


def test_polarization_dimension_mismatch_rejected():
    L = heisenberg()
    p = spanned_by([[1, 0]], 2)
    with pytest.raises(InputError):
        check_polarization(L, Covector.of(0, 0, 1), p)
