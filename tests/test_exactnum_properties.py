"""Property tests of Gaussian-rational arithmetic and of the rank over Q(i)
(optional: needs hypothesis)."""

import math
from dataclasses import dataclass
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from orbitkit.exactnum import (  # noqa: E402
    ExactMatrix,
    GaussRational,
    gauss_rank,
    rational_from_str,
    rational_to_str,
)

I = GaussRational.i()
SETTINGS = hypothesis.settings(
    max_examples=50, deadline=None, derandomize=True, database=None
)
_PARTS = st.fractions(min_value=-2, max_value=2, max_denominator=2)


@st.composite
def matrices(draw, scalar):
    nrows, ncols = draw(st.integers(0, 4)), draw(st.integers(1, 4))
    return [[draw(scalar) for _ in range(ncols)] for _ in range(nrows)]


def _gaussian():
    # mostly small integers, so that dependent rows turn up often
    return st.builds(GaussRational, st.integers(-1, 1), st.integers(-1, 1)) | st.builds(
        GaussRational, _PARTS, _PARTS
    )


@SETTINGS
@hypothesis.given(matrices(_gaussian()), st.data())
def test_gauss_rank_is_unchanged_by_scaling_rows_by_i(rows, data):
    flips = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    scaled = [[I * x for x in r] if flip else r for r, flip in zip(rows, flips)]
    assert gauss_rank(scaled) == gauss_rank(rows)


@SETTINGS
@hypothesis.given(matrices(_PARTS))
def test_gauss_rank_equals_rational_rank_on_real_rows(rows):
    assert gauss_rank(rows) == ExactMatrix(rows).rank()


@SETTINGS
@hypothesis.given(matrices(_gaussian()))
def test_gauss_rank_is_the_same_for_the_conjugate(rows):
    assert gauss_rank([[x.conjugate() for x in r] for r in rows]) == gauss_rank(rows)


@st.composite
def _gaussian_with_a_zero_part(draw):
    re, im = draw(_PARTS), draw(_PARTS)
    if draw(st.booleans()):  # half the draws get a zero real or imaginary part
        if draw(st.booleans()):
            re = Fraction(0)
        else:
            im = Fraction(0)
    return GaussRational(re, im)


@SETTINGS
@hypothesis.given(_gaussian_with_a_zero_part(), _gaussian_with_a_zero_part())
@hypothesis.example(GaussRational(Fraction(2), Fraction(-1, 2)), GaussRational(Fraction(3), Fraction(0)))
@hypothesis.example(GaussRational(Fraction(-1, 2), Fraction(0)), GaussRational(Fraction(1), Fraction(2)))
@hypothesis.example(GaussRational(Fraction(1), Fraction(1)), GaussRational(Fraction(1, 2), Fraction(-2)))
def test_products_equal_the_four_product_formula(z, w):
    # products with a zero part in either factor follow the general formula
    expected = (z.re * w.re - z.im * w.im, z.re * w.im + z.im * w.re)
    for product in (z * w, w * z):
        assert (product.re, product.im) == expected
        assert isinstance(product.re, Fraction) and isinstance(product.im, Fraction)


# ---------------------------------------------------------------------------
# the integer-triple GaussRational against the two-Fraction one it replaced


@dataclass(frozen=True)
class OracleGauss:
    """A Gaussian rational as two Fractions: the reference implementation."""

    re: Fraction
    im: Fraction

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def conjugate(self):
        return OracleGauss(self.re, -self.im)

    def __add__(self, other):
        return OracleGauss(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return OracleGauss(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return OracleGauss(-self.re, -self.im)

    def __mul__(self, other):
        return OracleGauss(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def to_json(self):
        return {"re": rational_to_str(self.re), "im": rational_to_str(self.im)}

    def __str__(self):
        if self.im == 0:
            return rational_to_str(self.re)
        im = "i" if abs(self.im) == 1 else f"{rational_to_str(abs(self.im))}*i"
        if self.re == 0:
            return im if self.im > 0 else f"-{im}"
        sign = "+" if self.im > 0 else "-"
        return f"{rational_to_str(self.re)}{sign}{im}"


# denominators that share factors, so that sums and products cancel often
_CANCELLING = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6, 12]))
_ORACLE_PARTS = _CANCELLING | st.fractions(max_denominator=30) | st.integers(-3, 3).map(Fraction)
_PAIRS = st.tuples(_ORACLE_PARTS, _ORACLE_PARTS)
_ORACLE_SETTINGS = hypothesis.settings(
    max_examples=300, deadline=None, derandomize=True, database=None
)


def _agrees(z, oracle):
    """z has the oracle's value and a canonical triple."""
    a, b, d = z.triple
    assert d > 0 and math.gcd(a, b, d) == 1
    assert (z.re, z.im) == (oracle.re, oracle.im)
    assert isinstance(z.re, Fraction) and isinstance(z.im, Fraction)


@_ORACLE_SETTINGS
@hypothesis.given(_PAIRS, _PAIRS)
@hypothesis.example((Fraction(1, 6), Fraction(1, 4)), (Fraction(1, 3), Fraction(-1, 4)))
@hypothesis.example((Fraction(1, 2), Fraction(0)), (Fraction(-1, 2), Fraction(0)))
@hypothesis.example((Fraction(2, 3), Fraction(3, 2)), (Fraction(3, 2), Fraction(-2, 3)))
def test_arithmetic_agrees_with_the_two_fraction_oracle(zp, wp):
    z, w = GaussRational(*zp), GaussRational(*wp)
    oz, ow = OracleGauss(*zp), OracleGauss(*wp)
    _agrees(z, oz)
    for got, want in (
        (z + w, oz + ow),
        (z - w, oz - ow),
        (z * w, oz * ow),
        (w * z, ow * oz),
        (-z, -oz),
        (z.conjugate(), oz.conjugate()),
    ):
        _agrees(got, want)
        assert got.is_zero() == want.is_zero()
        assert repr(got) == repr(want).replace("OracleGauss", "GaussRational", 1)
        assert str(got) == str(want)
        assert got.to_json() == want.to_json()
        back = GaussRational.from_json(want.to_json())
        assert back == got and hash(back) == hash(got)
    assert (z == w) == (oz == ow)
    assert z.is_zero() == oz.is_zero()


@_ORACLE_SETTINGS
@hypothesis.given(_PAIRS, _PAIRS)
def test_equal_values_hash_equally(zp, wp):
    z, w = GaussRational(*zp), GaussRational(*wp)
    # the same value reached along other paths: a sum that cancels, parts
    # assembled from reals and i, and a JSON spelling with unreduced parts
    assert (z + w) - w == z and hash((z + w) - w) == hash(z)
    parts = GaussRational.from_rational(zp[0]) + GaussRational.i() * zp[1]
    assert parts == z and hash(parts) == hash(z)
    spelled = GaussRational.from_json(
        {"re": f"{3 * zp[0].numerator}/{3 * zp[0].denominator}", "im": str(zp[1])}
    )
    assert spelled == z and hash(spelled) == hash(z)
    assert rational_from_str(z.to_json()["re"]) == zp[0]


@st.composite
def square_matrices(draw):
    """Rational square matrices: any, symmetric, or Gram matrices B^T B (often definite)."""
    n = draw(st.integers(0, 4))
    rows = [[draw(_PARTS) for _ in range(n)] for _ in range(n)]
    kind = draw(st.sampled_from(["any", "symmetric", "gram"]))
    if kind == "symmetric":
        rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    elif kind == "gram":
        rows = [[sum(r[i] * r[j] for r in rows) for j in range(n)] for i in range(n)]
    return rows


@SETTINGS
@hypothesis.given(square_matrices())
# the pivots are positive, but off the diagonal: D_1 = 0
@hypothesis.example([[0, 1], [1, 0]])
def test_leading_minors_positive_agrees_with_sympy(rows):
    sympy = pytest.importorskip("sympy")
    M = sympy.Matrix(len(rows), len(rows), [sympy.Rational(x.numerator, x.denominator)
                                            for r in rows for x in r])
    expected = all(M[:k, :k].det() > 0 for k in range(1, len(rows) + 1))
    assert ExactMatrix(rows).leading_minors_positive() == expected


def test_leading_minors_positive_needs_a_square_matrix():
    with pytest.raises(ValueError):
        ExactMatrix([[1, 0]]).leading_minors_positive()
