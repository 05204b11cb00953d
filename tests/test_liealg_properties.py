"""Property tests of the polarization verdict against a sympy oracle (optional: hypothesis)."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
sympy = pytest.importorskip("sympy")

from sympy.polys.matrices import DomainMatrix  # noqa: E402

from orbitkit.exactnum import GaussRational  # noqa: E402
from orbitkit.liealg import (  # noqa: E402
    Covector,
    LieAlgebra,
    abelian,
    aff1,
    check_polarization,
    heisenberg,
    sl2,
    stabilizer,
)
from subspaces import spanned_by  # noqa: E402

SETTINGS = hypothesis.settings(
    max_examples=300, deadline=None, derandomize=True, database=None
)
QQ, QQ_I = sympy.QQ, sympy.QQ_I


def _free_two_step(n: int) -> LieAlgebra:
    """The free 2-step nilpotent algebra on n generators: [X_i, X_j] = Y_ij for i < j."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return LieAlgebra.from_brackets(
        n + len(pairs), {(i, j): {n + k: 1} for k, (i, j) in enumerate(pairs)}
    )


ALGEBRAS = {
    "heisenberg": heisenberg(),
    "sl2": sl2(),
    "aff1": aff1(),
    "abelian3": abelian(3),
    "free2step3": _free_two_step(3),
}


def _gauss(z: GaussRational):
    return QQ_I(QQ(z.re.numerator, z.re.denominator), QQ(z.im.numerator, z.im.denominator))


def _matrix(rows, ncols, domain) -> DomainMatrix:
    return DomainMatrix(rows, (len(rows), ncols), domain).to_sparse()


def _oracle(L: LieAlgebra, F: Covector, vectors: list) -> dict:
    """Whether span(vectors) is a subalgebra containing g_F, and its dimensions.

    Every bracket [u, v] is the row u (x) v times the n^2 x n table of the
    dense constants c[i][j][k], and a set lies in p when stacking it under
    p leaves the rank over Q(i) unchanged.
    """
    n = L.dim
    table = [[QQ(x) for x in row] for plane in L.c for row in plane]
    poisson = [[sum((QQ(x) * QQ(f) for x, f in zip(row, F.coords)), QQ(0)) for row in plane]
               for plane in L.c]
    stab = _matrix(poisson, n, QQ).nullspace().convert_to(QQ_I)
    p = _matrix([[_gauss(x) for x in v] for v in vectors], n, QQ_I)
    tensors = [[x * y for x in u for y in v] for u in p.to_list() for v in p.to_list()]
    brackets = _matrix(tensors, n * n, QQ_I) * _matrix(table, n, QQ).convert_to(QQ_I)
    conj = _matrix([[QQ_I(x.x, -x.y) for x in w] for w in p.to_list()], n, QQ_I)
    # p + conj(p) is the complex span of the real and imaginary parts
    parts = [[QQ(x.re.numerator, x.re.denominator) for x in w] for w in vectors]
    parts += [[QQ(x.im.numerator, x.im.denominator) for x in w] for w in vectors]
    dim_p = p.rank()
    return {
        "passed": p.vstack(brackets, stab).rank() == dim_p,
        "p_plus_conj": p.vstack(conj).rank(),
        "real_points_sum": _matrix(parts, n, QQ).rank(),
    }


def _complex(x) -> GaussRational:
    return x if isinstance(x, GaussRational) else GaussRational.from_rational(Fraction(x))


ENTRY = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2)])


@st.composite
def cases(draw):
    """An algebra, a covector and a spanning set of Q(i) vectors.

    The set mixes random sparse vectors with basis vectors and, when drawn,
    a rational basis of g_F, so that both verdicts are common.
    """
    name = draw(st.sampled_from(sorted(ALGEBRAS)))
    L = ALGEBRAS[name]
    n = L.dim
    F = Covector(tuple(Fraction(draw(st.integers(-2, 2))) for _ in range(n)))
    unit = st.integers(0, n - 1).map(lambda k: [int(c == k) for c in range(n)])
    random = st.lists(st.builds(GaussRational, ENTRY, ENTRY), min_size=n, max_size=n)
    vectors = draw(st.lists(st.one_of(unit, random), max_size=n + 1))
    if draw(st.booleans()):
        vectors += stabilizer(L, F)
    vectors = draw(st.permutations(vectors))
    return name, L, F, [tuple(_complex(x) for x in v) for v in vectors]


@SETTINGS
@hypothesis.given(case=cases())
def test_polarization_verdict_matches_the_sympy_oracle(case):
    name, L, F, vectors = case
    report = check_polarization(L, F, spanned_by(vectors, L.dim))
    expected = _oracle(L, F, vectors)
    assert report.passed == report.subalgebra == expected["passed"], name
    assert report.dims["real_points_sum"] == report.dims["p_plus_conj"]
    assert report.dims["p_plus_conj"] == expected["p_plus_conj"], name
    assert report.dims["real_points_sum"] == expected["real_points_sum"], name
