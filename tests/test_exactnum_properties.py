"""Property tests of the rank over Q(i) (optional: needs hypothesis)."""

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
