"""Property tests of the sparse chain operators, of the weight grading and
of the closed form of separable algebras (optional: needs hypothesis)."""

import itertools
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

import orbitkit.homology as homology_module  # noqa: E402
from orbitkit.cyclic import (  # noqa: E402
    Chain,
    FinAlgebra,
    apply_operator,
    chain_pairing,
    direct_sum,
    dual_numbers,
    gauss_field,
    gauss_field_power,
    Trace,
    hp_homology,
    matrix_algebra,
    verify_trace,
)
from orbitkit.exactnum import GaussRational  # noqa: E402

ZERO, ONE, I = GaussRational.zero(), GaussRational.one(), GaussRational.i()
# u^2 = i and u* = i u: a structure constant off the real line, so the
# adjoint's conjugation shows
GAUSSIAN_LINE = FinAlgebra(
    2,
    (((ONE, ZERO), (ZERO, ONE)), ((ZERO, ONE), (I, ZERO))),
    (ONE, ZERO),
    ((ONE, ZERO), (ZERO, I)),
    ("1", "u"),
)
ALGEBRAS = (gauss_field(), dual_numbers(), matrix_algebra(2), GAUSSIAN_LINE)
SETTINGS = hypothesis.settings(
    max_examples=50, deadline=None, derandomize=True, database=None
)
# kind -> level shift; S needs level >= 2, the others level >= 1
SHIFTS = {"b": -1, "bprime": -1, "lambda": 0, "N": 0, "S": -2}

_PARTS = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_COEFFS = st.builds(GaussRational, _PARTS, _PARTS)


def _chain(draw, A, level):
    word = st.tuples(*[st.integers(0, A.dim - 1)] * (level + 1))
    return Chain(A, level, draw(st.dictionaries(word, _COEFFS, max_size=6)))


@st.composite
def chains(draw, min_level=1):
    A = draw(st.sampled_from(ALGEBRAS))
    return _chain(draw, A, draw(st.integers(min_level, 4)))


@st.composite
def pairing_cases(draw, kind):
    """(x, y) with x a source and y a target chain of `kind` on one algebra."""
    A = draw(st.sampled_from(ALGEBRAS))
    level = draw(st.integers(2 if kind == "S" else 1, 4))
    return _chain(draw, A, level), _chain(draw, A, level + SHIFTS[kind])


@SETTINGS
@hypothesis.given(chains(min_level=2))
def test_b_and_bprime_square_to_zero(x):
    for kind in ("b", "bprime"):
        assert apply_operator(kind, apply_operator(kind, x)).is_zero()


@SETTINGS
@hypothesis.given(chains())
def test_norm_and_one_minus_lambda_compose_to_zero(x):
    lam_x = apply_operator("lambda", x)
    n_x = apply_operator("N", x)
    assert apply_operator("N", x - lam_x).is_zero()
    assert (n_x - apply_operator("lambda", n_x)).is_zero()


@pytest.mark.parametrize("kind", sorted(SHIFTS))
def test_adjoint_matches_pairing(kind):
    @SETTINGS
    @hypothesis.given(pairing_cases(kind))
    def check(case):
        x, y = case
        lhs = chain_pairing(apply_operator(kind, x), y)
        assert lhs == chain_pairing(x, apply_operator(kind, y, adjoint=True))

    check()


@SETTINGS
@hypothesis.given(chains(min_level=0))
def test_dense_view_matches_word_map(x):
    dim, length = x.algebra.dim, x.level + 1
    coords = x.coords
    assert len(coords) == dim**length
    for word in itertools.product(range(dim), repeat=length):
        flat = 0
        for a in word:
            flat = flat * dim + a
        assert x.coefficient(word) == coords[flat]
    assert all(not v.is_zero() for v in x.terms.values())


def _permuted(A, perm):
    """A in the basis order e'_k = e_{perm[k]}."""
    d = range(A.dim)
    return FinAlgebra(
        A.dim,
        tuple(
            tuple(tuple(A.mult[perm[a]][perm[b]][perm[c]] for c in d) for b in d)
            for a in d
        ),
        tuple(A.unit[perm[a]] for a in d),
        tuple(tuple(A.star[perm[a]][perm[c]] for c in d) for a in d),
        tuple(A.basis[perm[a]] for a in d),
    )


@hypothesis.settings(max_examples=20, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    st.sampled_from([2, 3]).flatmap(
        lambda m: st.tuples(st.just(m), st.permutations(range(m * m)))
    )
)
def test_permuted_matrix_units_keep_the_grading_and_hc(case):
    m, perm = case
    A = _permuted(matrix_algebra(m), perm)
    # the idempotents e_ii, numbered in the permuted basis order
    idem = [A.basis[a] for a, v in enumerate(A.unit) if not v.is_zero()]
    for label, (i, j) in zip(A.basis, homology_module._peirce_grading(A)):
        # label is e<row><col>; it lies in e_row,row A e_col,col
        assert (idem[i], idem[j]) == (f"e{label[1]}{label[1]}", f"e{label[2]}{label[2]}")
    truncation = 5 if m == 2 else 4
    assert hp_homology(A, truncation).hc == hp_homology(matrix_algebra(m), truncation).hc


def _rebased(A, U):
    """A in the basis f_a = sum_j U[a][j] e_j, for an upper unitriangular integer U."""
    d = range(A.dim)
    rows = [tuple(GaussRational(x) for x in row) for row in U]

    def coords(x):
        # x = U^T y with U^T lower unitriangular: forward substitution
        y = []
        for a in d:
            y.append(x[a] - sum((U[j][a] * y[j] for j in range(a)), ZERO))
        return tuple(y)

    return FinAlgebra(
        A.dim,
        tuple(tuple(coords(A.mul_coords(rows[a], rows[b])) for b in d) for a in d),
        coords(A.unit),
        tuple(coords(A.star_coords(rows[a])) for a in d),
        tuple(f"f{a}" for a in d),
    )


# (algebra, HC_0): M_r has one trace, Q(i)^k k, and the field Q(i)(u), u^2 = i, two
_SUMMANDS = {
    "M1": (gauss_field(), 1),
    "M2": (matrix_algebra(2), 1),
    "C^2": (gauss_field_power(2), 2),
    "u^2=i": (GAUSSIAN_LINE, 2),
}


@st.composite
def rebased_sums(draw):
    """(A, h, T): a direct sum of one or two separable summands in a random
    unitriangular integer basis, its HC_0, and a truncation."""
    names = draw(st.lists(st.sampled_from(sorted(_SUMMANDS)), min_size=1, max_size=2))
    A, h = _SUMMANDS[names[0]]
    for name in names[1:]:
        A, h = direct_sum(A, _SUMMANDS[name][0]), h + _SUMMANDS[name][1]
    entries = st.integers(-2, 2)
    U = [[1 if a == b else draw(entries) if a < b else 0 for b in range(A.dim)] for a in range(A.dim)]
    # the complex on every letter of an unsplit corner of dim letters has up
    # to dim^(T+1) words; keep that small
    truncation = draw(st.integers(2, 6))
    while A.dim ** (truncation + 1) > 20000:
        truncation -= 1
    return _rebased(A, U), h, truncation


@hypothesis.settings(max_examples=50, deadline=None, derandomize=True, database=None)
@hypothesis.given(rebased_sums())
def test_closed_form_matches_connes_complex_in_random_bases(case):
    A, h, truncation = case
    closed = hp_homology(A, truncation)
    assert closed.boundary_check == "separable"
    assert closed.hc == tuple(0 if m % 2 else h for m in range(truncation))
    grading = homology_module._peirce_grading(A)
    idem = [a for a, v in enumerate(A.unit) if not v.is_zero()]
    corner = homology_module._corner(A._pairs, idem, grading)
    complex_ = homology_module._hp(A, grading, corner, truncation, split=True)
    assert complex_.boundary_check == "full"
    assert complex_ == closed._replace(boundary_check="full")


# ---------------------------------------------------------------------------
# trace positivity, decided on the Gram matrix

_GAUSS_INTS = st.builds(GaussRational, st.integers(-2, 2), st.integers(-2, 2))


def _vectors(n, **kwargs):
    return st.lists(st.lists(_GAUSS_INTS, min_size=n, max_size=n), **kwargs)


def _gram(B, n):
    """B^H B for the n-column matrix B given by its rows."""
    return [[sum((r[a].conjugate() * r[b] for r in B), ZERO) for b in range(n)]
            for a in range(n)]


def _minus(rho, eps, v):
    """rho - eps v v^H."""
    return [[x - eps * v[a] * v[b].conjugate() for b, x in enumerate(row)]
            for a, row in enumerate(rho)]


def _positive(rho) -> bool:
    """verify_trace's positivity of tau(x) = tr(rho x) on M_n.

    tau(e_ij* e_kl) = delta_ik rho_lj, so the Gram matrix is I (x) rho^T,
    and tau is positive exactly when rho is positive semidefinite.
    """
    n = len(rho)
    tau = Trace(tuple(rho[l][j] for j in range(n) for l in range(n)))
    return verify_trace(matrix_algebra(n), tau)["positive"]


@st.composite
def grams_with_a_kernel(draw):
    """(B^H B, v) for a random Gaussian-integer B and a nonzero v with B v = 0."""
    n = draw(st.integers(1, 3))
    v = draw(_vectors(n, min_size=1, max_size=1).filter(lambda vs: any(vs[0])))[0]
    norm = sum((z.conjugate() * z for z in v), ZERO)
    # each row r less its component along v^H: r' = (v^H v) r - (r v) v^H
    B = [[norm * x - sum((y * z for y, z in zip(r, v)), ZERO) * w.conjugate()
          for x, w in zip(r, v)] for r in draw(_vectors(n, max_size=n))]
    return _gram(B, n), v


@SETTINGS
@hypothesis.given(grams_with_a_kernel())
def test_a_gram_matrix_gives_a_positive_trace(case):
    rho, _ = case
    assert _positive(rho)


@SETTINGS
@hypothesis.given(grams_with_a_kernel(), st.fractions(min_value=0, max_value=2,
                                                      max_denominator=100))
def test_less_a_kernel_direction_it_is_not_positive(case, eps):
    rho, v = case
    hypothesis.assume(eps > 0)
    assert not _positive(_minus(rho, GaussRational(eps), v))


@st.composite
def hermitian_matrices(draw):
    """B^H B, positive semidefinite, or half the time B^H B - c w w^H, often indefinite."""
    n = draw(st.integers(1, 3))
    rho = _gram(draw(_vectors(n, max_size=n)), n)
    if draw(st.booleans()):
        w = draw(_vectors(n, min_size=1, max_size=1))[0]
        c = draw(st.fractions(min_value=Fraction(1, 4), max_value=2, max_denominator=4))
        rho = _minus(rho, GaussRational(c), w)
    return rho


@hypothesis.settings(SETTINGS, max_examples=200)
@hypothesis.given(hermitian_matrices())
def test_positivity_agrees_with_the_principal_minors_oracle(rho):
    # a Hermitian matrix is positive semidefinite exactly when every
    # principal minor is nonnegative (Horn and Johnson, 7.1.5 and 7.2.5)
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    QQ_I = sympy.QQ_I
    n = len(rho)
    M = DomainMatrix([[QQ_I(z.re, z.im) for z in row] for row in rho], (n, n), QQ_I)
    minors = [
        M.extract(list(s), list(s)).det()
        for k in range(1, n + 1)
        for s in itertools.combinations(range(n), k)
    ]
    assert all(d.y == 0 for d in minors)
    assert _positive(rho) == all(d.x >= 0 for d in minors)
