"""Property tests of the shift model's relation residuals (optional: needs hypothesis)."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from orbitkit.qgroup import MAX_TRUNCATION, build_rep_su2, relation_residuals  # noqa: E402
from test_qgroup import _dense_residuals  # noqa: E402

SETTINGS = hypothesis.settings(
    max_examples=150, deadline=None, derandomize=True, database=None
)
EPS = 2.0**-52


@SETTINGS
@hypothesis.given(
    q=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    t=st.one_of(st.just(0.0), st.floats(-2.0 * math.pi, 2.0 * math.pi)),
    N=st.integers(4, 96),
)
@hypothesis.example(q=0.5, t=0.0, N=MAX_TRUNCATION)
@hypothesis.example(q=0.9140625, t=0.63, N=65)
def test_relation_residuals_match_the_dense_oracle(q, t, N):
    report = relation_residuals(build_rep_su2(q, t, N))
    dense = _dense_residuals(q, t, N)
    if t == 0.0:
        # the only angle the CLI passes: bit for bit
        assert report == dense
        return
    # the dense products leave sub-ulp residue where the diagonals commute exactly
    assert report["relations"]["cc*=c*c"] == {"interior": 0.0, "full": 0.0}
    assert list(report["relations"]) == list(dense["relations"])
    for name, windows in dense["relations"].items():
        for window, value in windows.items():
            assert abs(report["relations"][name][window] - value) <= 4 * EPS, (name, window)
    for key in ("interior", "boundary"):
        assert abs(report[key] - dense[key]) <= 4 * EPS
    assert (report["N"], report["q"], report["kind"]) == (N, q, "shift")
