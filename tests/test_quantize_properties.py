"""Property tests of the Dirac residual (optional: needs hypothesis)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from orbitkit.exactnum import GaussRational  # noqa: E402
from orbitkit.quantize import (  # noqa: E402
    Poly,
    PolyOneForm,
    SymplecticModel,
    check_curvature,
    check_dirac,
    check_dirac_pairs,
    monomials,
    parse_one_form,
)

SETTINGS = hypothesis.settings(
    max_examples=40, deadline=None, derandomize=True, database=None
)
# potentials of omega: d alpha = -omega for each, on one conjugate pair
POTENTIALS = ("p{k}*dq{k}", "-q{k}*dp{k}", "1/2*p{k}*dq{k} - 1/2*q{k}*dp{k}")

_PARTS = st.fractions(min_value=-2, max_value=2, max_denominator=2)
# a Gaussian rational and a power of hbar
_SCALARS = st.tuples(st.builds(GaussRational, _PARTS, _PARTS), st.integers(0, 1))


def _poly(draw, model, max_degree, max_size):
    # keys of the monomials end in hbar's exponent 0; a scalar's k replaces it
    exps = st.sampled_from([next(iter(f.terms))[:-1] for _, f in monomials(model, max_degree)])
    terms = draw(st.dictionaries(exps, _SCALARS, max_size=max_size))
    return Poly(model, {m + (k,): c for m, (c, k) in terms.items()})


@st.composite
def alphas(draw):
    """A potential of omega, plus an exact form dh, plus maybe a stray term.

    The first two keep the curvature right; the stray term usually breaks
    it, so both verdicts show up.
    """
    model = SymplecticModel(draw(st.integers(1, 2)))
    h = _poly(draw, model, 3, 3)
    comps = [h.diff(j) for j in range(model.nvars)]
    for k in range(1, model.n + 1):
        potential = parse_one_form(draw(st.sampled_from(POTENTIALS)).format(k=k), model)
        comps = [a + b for a, b in zip(comps, potential.comps)]
    if draw(st.booleans()):
        j = draw(st.integers(0, model.nvars - 1))
        comps[j] = comps[j] + _poly(draw, model, 2, 2)
    return PolyOneForm(model, tuple(comps))


@SETTINGS
@hypothesis.given(st.data(), alphas())
def test_residual_is_antisymmetric_and_vanishes_on_the_diagonal(data, alpha):
    f = _poly(data.draw, alpha.model, 2, 3)
    g = _poly(data.draw, alpha.model, 2, 3)
    assert check_dirac(f, f, alpha) == {"passes": True, "residual": "0"}
    # R is linear in its second slot, so R(g, f) = -R(f, g) = R(f, -g)
    assert check_dirac(g, f, alpha) == check_dirac(f, -g, alpha)


@SETTINGS
@hypothesis.given(alphas(), st.integers(1, 2))
def test_pair_report_lists_check_dirac_on_every_ordered_pair(alpha, max_degree):
    monos = monomials(alpha.model, max_degree)
    report = check_dirac_pairs(alpha, max_degree)
    expected = []
    for name_f, f in monos:
        for name_g, g in monos:
            verdict = check_dirac(f, g, alpha)
            if not verdict["passes"]:
                expected.append({"f": name_f, "g": name_g, "residual": verdict["residual"]})
    assert report["failures"] == expected
    # the coordinate functions are among the monomials once max_degree >= 1,
    # and their fields span every tangent space
    assert report["passes"] == check_curvature(alpha)["passes"]
