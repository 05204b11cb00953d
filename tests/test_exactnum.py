"""Exact scalar and matrix layer: arithmetic laws, rank, kernels."""

import copy
import random
import sys
from fractions import Fraction

import pytest

from orbitkit.exactnum import (
    ExactMatrix,
    GaussRational,
    gauss_rank,
    rational_from_str,
    rational_to_str,
    reduce_column,
)


def test_rational_string_round_trip():
    for text in ["0", "7", "-3", "2/3", "-11/4"]:
        assert rational_to_str(rational_from_str(text)) == text
    assert rational_from_str("4/8") == Fraction(1, 2)


def test_decimal_exponents_stop_at_the_int_string_limit():
    # 10**e has e + 1 digits; the limit is Python's, 4300 by default
    limit = sys.get_int_max_str_digits()
    assert rational_from_str(f"1e{limit - 1}") == 10 ** (limit - 1)
    assert rational_from_str(f"2.5E-{limit - 2} ") == Fraction(5, 2 * 10 ** (limit - 2))
    assert rational_from_str("1e+0_0") == 1
    for text in (f"1e{limit + 1}", f"1e-{limit + 1}", f"1E+00{limit + 1}", "1e100000000"):
        with pytest.raises(ValueError, match=f"decimal exponent above {limit}"):
            rational_from_str(text)


def test_parts_that_could_not_be_written_back_are_rejected():
    # str() of an int with more digits than the limit raises, so
    # rational_to_str could not serialize such a value
    limit = sys.get_int_max_str_digits()
    longest = "9" * limit
    assert rational_to_str(rational_from_str(longest)) == longest
    assert rational_to_str(rational_from_str(f"1/{longest}")) == f"1/{longest}"
    many = "1" * (limit * 2 // 3)
    for text in (f"1e{limit}", f"3e-{limit}", f"{many}.{many}", f"-{many}e{limit // 2}"):
        with pytest.raises(ValueError, match=f"above {limit} digits"):
            rational_from_str(text)


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


def test_gauss_i_squares_to_minus_one():
    i = GaussRational.i()
    assert i * i == -GaussRational.one()
    assert i * i * i * i == GaussRational.one()
    assert str(i * i) == "-1"


def test_gauss_coercion_with_ints_and_fractions():
    x = GaussRational.from_rational(Fraction(1, 2))
    assert x * 2 == GaussRational.one()
    assert 1 - x == x


def test_gauss_json_accepts_scalar_and_dict_forms():
    assert GaussRational.from_json(3) == GaussRational.from_rational(3)
    assert GaussRational.from_json("2/3") == GaussRational.from_rational(Fraction(2, 3))
    x = GaussRational.from_json({"re": "1/2", "im": "-2"})
    assert x.re == Fraction(1, 2) and x.im == Fraction(-2)
    assert GaussRational.from_json(x.to_json()) == x


def test_matrix_rank_and_kernel_exact():
    m = ExactMatrix(
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
        assert sum(m.rows[row][col] * kernel[0][col] for col in range(3)) == 0


def test_matrix_entries_are_rational_only():
    m = ExactMatrix([[1, Fraction(1, 2)]])
    assert m.rows == ((Fraction(1), Fraction(1, 2)),)
    assert all(type(x) is Fraction for x in m.rows[0])
    with pytest.raises(TypeError):
        ExactMatrix([[GaussRational.one()]])
    with pytest.raises(TypeError):
        ExactMatrix([[1.5]])


def test_matrix_rank_over_gaussian_entries():
    i = GaussRational.i()
    # second row is i times the first
    assert gauss_rank([[1, i], [i, -1]]) == 1
    assert gauss_rank([[1, i], [i, 1]]) == 2
    assert gauss_rank([[1, i]]) == 1
    assert gauss_rank([]) == 0
    assert gauss_rank([[Fraction(1, 2), 1], [1, 2]]) == 1
    with pytest.raises(ValueError, match="ragged rows"):
        gauss_rank([[1, i], [1]])
    with pytest.raises(TypeError):
        gauss_rank([[1.5]])


def test_identity_rank_and_fraction_pivot_scaling():
    n = 5
    identity = ExactMatrix([[int(i == j) for j in range(n)] for i in range(n)])
    assert identity.rank() == n
    assert identity.determinant() == 1
    rng = random.Random(3)
    rows = [
        [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(4)]
        for _ in range(4)
    ]
    m = ExactMatrix(rows)
    assert m.rank() + len(m.kernel_basis()) == 4


def test_determinant_tracks_swaps_and_pivots():
    assert ExactMatrix([[0, 1], [1, 0]]).determinant() == -1
    assert ExactMatrix([[2, 4], [1, 2]]).determinant() == 0
    assert ExactMatrix([]).determinant() == 1
    assert type(ExactMatrix([[3]]).determinant()) is Fraction
    with pytest.raises(ValueError):
        ExactMatrix([[0, 0, 0], [0, 0, 0]]).determinant()


def _random_entry(rng):
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def _random_rows(rng, nrows, ncols, entry):
    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    # make some matrices rank-deficient: a row repeats a combination of two others
    if nrows >= 3 and rng.random() < 0.5:
        a, b = rng.sample(range(nrows - 1), 2)
        c = entry()
        rows[-1] = [x + c * y for x, y in zip(rows[a], rows[b])]
    return rows


def _to_sympy(sympy, rows, ncols):
    def scalar(x):
        x = x if isinstance(x, GaussRational) else GaussRational.from_rational(x)
        re = sympy.Rational(x.re.numerator, x.re.denominator)
        return re + sympy.I * sympy.Rational(x.im.numerator, x.im.denominator)

    return sympy.Matrix(len(rows), ncols, [scalar(x) for r in rows for x in r])


def _rref_kernel(sympy, ref, ncols):
    """One kernel vector per free column, read off sympy's RREF: 1 at the
    free column and minus the RREF entries at the pivot columns."""
    rref, pivots = ref.rref()
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[free] = 1
        for r, p in enumerate(pivots):
            v[p] = -rref[r, free]
        basis.append(tuple(Fraction(int(x.p), int(x.q)) for x in map(sympy.Rational, v)))
    return pivots, basis


def test_elimination_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20)
    for _ in range(80):
        # square, wide and tall shapes, some with zero columns
        n, k = rng.randint(1, 6), rng.randint(1, 6)
        rows = _random_rows(rng, n, k, lambda: _random_entry(rng))
        for c in rng.sample(range(k), rng.randint(0, k // 2)):
            for r in rows:
                r[c] = 0
        m = ExactMatrix(rows)
        ref = _to_sympy(sympy, m.rows, k)
        assert m.rank() == ref.rank()
        pivots, kernel = _rref_kernel(sympy, ref, k)
        assert m.pivot_columns() == pivots
        assert m.kernel_basis() == kernel
        square = ExactMatrix(_random_rows(rng, n, n, lambda: _random_entry(rng)))
        assert square.determinant() == _to_sympy(sympy, square.rows, n).det()
        # a scaled permutation matrix: the pivot rows come in permuted order
        perm = rng.sample(range(n), n)
        scaled = ExactMatrix(
            [[(_random_entry(rng) or 1) if perm[i] == j else 0 for j in range(n)] for i in range(n)]
        )
        assert scaled.determinant() == _to_sympy(sympy, scaled.rows, n).det()


def test_gauss_rank_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(21)

    def entry():
        return GaussRational(_random_entry(rng), _random_entry(rng))

    for _ in range(40):
        n, k = rng.randint(1, 5), rng.randint(1, 5)
        rows = _random_rows(rng, n, k, entry)
        # the same rows as sparse dicts, on spread-out columns
        sparse = [{3 * j + 1: x for j, x in enumerate(r) if x} for r in rows]
        assert gauss_rank(rows) == gauss_rank(sparse) == _to_sympy(sympy, rows, k).rank()


def test_reduce_column_leaves_its_column_and_the_stored_pivots_unchanged():
    # callers keep a column after reducing it, and a pivot may be that column
    rng = random.Random(22)
    for _ in range(200):
        pivots = {}
        for _ in range(rng.randint(1, 12)):
            rows = rng.sample(range(-2, 10), rng.randint(1, 6))
            col = {r: rng.choice((-1, 1)) * rng.randint(1, 6) for r in rows}
            col_before, pivots_before = copy.deepcopy(col), copy.deepcopy(pivots)
            reduce_column(col, pivots)
            assert col == col_before
            assert {p: pivots[p] for p in pivots_before} == pivots_before
