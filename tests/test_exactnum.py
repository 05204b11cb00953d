"""Exact scalar and matrix layer: arithmetic laws, rank, kernels."""

import random
from fractions import Fraction

import pytest

from orbitkit.exactnum import (
    ExactMatrix,
    GaussRational,
    HbarPoly,
    rational_from_str,
    rational_to_str,
)


def test_rational_string_round_trip():
    for text in ["0", "7", "-3", "2/3", "-11/4"]:
        assert rational_to_str(rational_from_str(text)) == text
    assert rational_from_str("4/8") == Fraction(1, 2)


def test_gauss_field_axioms_on_random_samples():
    rng = random.Random(11)

    def draw():
        return GaussRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
        )

    for _ in range(200):
        x, y, z = draw(), draw(), draw()
        assert (x + y) * z == x * z + y * z
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        if not x.is_zero():
            assert x * x.inverse() == GaussRational.one()


def test_gauss_i_squares_to_minus_one():
    i = GaussRational.i()
    assert i * i == -GaussRational.one()
    assert i**4 == GaussRational.one()
    assert str(i * i) == "-1"


def test_gauss_coercion_with_ints_and_fractions():
    x = GaussRational.from_rational(Fraction(1, 2))
    assert x * 2 == GaussRational.one()
    assert 1 - x == x


def test_gauss_json_accepts_scalar_and_dict_forms():
    assert GaussRational.from_json(3) == GaussRational.from_int(3)
    assert GaussRational.from_json("2/3") == GaussRational.from_rational(Fraction(2, 3))
    x = GaussRational.from_json({"re": "1/2", "im": "-2"})
    assert x.re == Fraction(1, 2) and x.im == Fraction(-2)
    assert GaussRational.from_json(x.to_json()) == x


def test_hbar_poly_arithmetic_and_division():
    h = HbarPoly.hbar()
    p = h * h + h * 2
    assert p.degree() == 2
    assert p.coefficient(1) == GaussRational.from_int(2)
    q = p.divide_by_hbar()
    assert q == h + HbarPoly.constant(2)
    assert (p - p).is_zero()


def test_hbar_poly_divide_without_constant_term_only():
    with pytest.raises(ValueError):
        HbarPoly.constant(1).divide_by_hbar()


def test_matrix_rank_and_kernel_exact():
    m = ExactMatrix.from_rows(
        [
            [1, 2, 3],
            [2, 4, 6],
            [0, 1, 1],
        ]
    )
    assert m.rank() == 2
    kernel = m.kernel_basis()
    assert len(kernel) == 1
    for row in range(3):
        total = GaussRational.zero()
        for col in range(3):
            total = total + m[row, col] * kernel[0][col]
        assert total.is_zero()


def test_matrix_rank_over_gaussian_entries():
    i = GaussRational.i()
    m = ExactMatrix.from_rows([[1, i], [i, -1]])
    # second row is i times the first
    assert m.rank() == 1
    assert len(m.kernel_basis()) == 1


def test_matrix_product_and_conjugate_transpose():
    i = GaussRational.i()
    a = ExactMatrix.from_rows([[1, i], [0, 1]])
    b = ExactMatrix.from_rows([[1, 0], [i, 1]])
    prod = a @ b
    assert prod[0, 0] == i * i + 1
    star = a.conjugate_transpose()
    assert star[1, 0] == -i


def test_identity_rank_and_fraction_pivot_scaling():
    n = 5
    assert ExactMatrix.identity(n).rank() == n
    rng = random.Random(3)
    rows = [
        [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(4)]
        for _ in range(4)
    ]
    m = ExactMatrix.from_rows(rows)
    assert m.rank() + len(m.kernel_basis()) == 4


def test_determinant_tracks_swaps_and_pivots():
    assert ExactMatrix.from_rows([[0, 1], [1, 0]]).determinant() == GaussRational.from_int(-1)
    assert ExactMatrix.from_rows([[2, 4], [1, 2]]).determinant().is_zero()
    assert ExactMatrix.identity(0).determinant() == GaussRational.one()
    i = GaussRational.i()
    assert ExactMatrix.from_rows([[i, 0], [0, i]]).determinant() == GaussRational.from_int(-1)
    with pytest.raises(ValueError):
        ExactMatrix.zero(2, 3).determinant()


def _random_matrix(rng, nrows, ncols, gaussian):
    def entry():
        re = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        im = Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if gaussian else Fraction(0)
        return GaussRational(re, im)

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    # make some matrices rank-deficient: a row repeats a combination of two others
    if nrows >= 3 and rng.random() < 0.5:
        a, b = rng.sample(range(nrows - 1), 2)
        c = entry()
        rows[-1] = [x + c * y for x, y in zip(rows[a], rows[b])]
    return ExactMatrix(rows)


def _sympy_scalar(sympy, x):
    re = sympy.Rational(x.re.numerator, x.re.denominator)
    return re + sympy.I * sympy.Rational(x.im.numerator, x.im.denominator)


def _to_sympy(sympy, m):
    return sympy.Matrix(m.nrows, m.ncols, [_sympy_scalar(sympy, x) for r in m.rows for x in r])


@pytest.mark.parametrize("gaussian", [False, True])
def test_elimination_matches_sympy(gaussian):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(21 if gaussian else 20)
    for _ in range(40):
        n, k = rng.randint(1, 5), rng.randint(1, 5)
        m = _random_matrix(rng, n, k, gaussian)
        ref = _to_sympy(sympy, m)
        assert m.rank() == ref.rank()
        kernel = m.kernel_basis()
        assert len(kernel) == len(ref.nullspace())
        if kernel:
            K = _to_sympy(sympy, ExactMatrix(kernel).transpose())
            assert (ref * K).expand() == sympy.zeros(n, len(kernel))
            assert K.rank() == len(kernel)
        square = _random_matrix(rng, n, n, gaussian)
        det = _sympy_scalar(sympy, square.determinant())
        assert sympy.expand(det - _to_sympy(sympy, square).det()) == 0
