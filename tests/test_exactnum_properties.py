"""Property tests of Gaussian-rational products and of the rank over Q(i)
(optional: needs hypothesis)."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from orbitkit.exactnum import ExactMatrix, GaussRational, gauss_rank  # noqa: E402

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
    # the shortcuts for a real factor must agree with the general formula
    expected = (z.re * w.re - z.im * w.im, z.re * w.im + z.im * w.re)
    for product in (z * w, w * z):
        assert (product.re, product.im) == expected
        assert isinstance(product.re, Fraction) and isinstance(product.im, Fraction)
