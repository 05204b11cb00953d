"""Lie algebras by structure constants and coadjoint-orbit linear algebra.

A Lie algebra is stored as one sparse table of its exact rational
structure constants, (i, j) -> ((k, c_ijk), ...) over the nonzero c_ijk
with ``[X_i, X_j] = sum_k c_ijk X_k``, which the bracket (over Q and
over Q(i)), the Poisson matrix and the Jacobi check read.  The
Jacobiator J(i, j, k) comes straight from
the constants, over i < j < k only: antisymmetry makes J alternating and
zero on a repeated index, so the first violating ordered triple in
lexicographic order is sorted.  Covectors live in the dual with rational
coordinates.  The Poisson matrix of a covector ``F`` is the rational
matrix ``B[i][j] = <F, [X_i, X_j]>``; its rank is the orbit dimension and
its kernel the stabilizer subalgebra, closed under the bracket exactly
when B [u, v] = 0 for its basis vectors u, v.  That B v = 0 is decided
in one place, :func:`annihilates`, which sums each row of B over the
nonzero entries of v; the strata certificates use it too.  A polarization
subspace p of the complexification is checked through the condition
that is decidable at the infinitesimal level, that p is a subalgebra
containing the stabilizer: its dimensions and memberships are ranks over
Q(i), taken by realification, and its real points solve a rational
linear system.  Global and measure-theoretic conditions are reported as
not evaluated.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

from . import InputError
from .exactnum import (
    ExactMatrix,
    GaussRational,
    gauss_rank,
    rational_from_str,
    rational_to_str,
)

__all__ = [
    "LieAlgebra",
    "Covector",
    "ComplexSubspace",
    "PolarizationReport",
    "check_jacobi",
    "poisson_matrix",
    "annihilates",
    "stabilizer",
    "check_polarization",
    "heisenberg",
    "aff1",
    "sl2",
    "abelian",
    "MAX_DIM",
]

# largest dimension a LieAlgebra file may declare; the shipped and benchmark
# algebras have dim at most 8, and the table holds dim^2 rows
MAX_DIM = 64


class LieAlgebra:
    """Finite-dimensional Lie algebra over the rationals.

    ``pairs[i][j]`` is the sparse row of ``[X_i, X_j]``: the (k, c) with
    ``[X_i, X_j] = sum c X_k``, k increasing and c a nonzero Fraction.
    Antisymmetry, ``pairs[j][i]`` the negation of ``pairs[i][j]``, is
    enforced at construction; the Jacobi identity is checked separately
    by :func:`check_jacobi` so that deliberately broken tables can still
    be built for testing.
    """

    def __init__(self, dim: int, basis: tuple, pairs: tuple):
        if len(basis) != dim or len(pairs) != dim or any(len(plane) != dim for plane in pairs):
            raise InputError("structure constant table does not match dim")
        for i in range(dim):
            for j in range(dim):
                if pairs[i][j] != tuple((k, -x) for k, x in pairs[j][i]):
                    raise InputError(
                        f"structure constants not antisymmetric at ({i},{j})"
                    )
        self.dim, self.basis, self._pairs = dim, basis, pairs

    @staticmethod
    def from_brackets(dim: int, brackets: dict, basis: Optional[Sequence[str]] = None) -> "LieAlgebra":
        """Build from a sparse table ``{(i, j): {k: coeff}}``.

        Missing ``(j, i)`` entries are filled by antisymmetry; if both
        orientations are present they must already be consistent.
        """
        names = tuple(basis) if basis else tuple(f"X{i+1}" for i in range(dim))
        table = {}
        for (i, j), coeffs in brackets.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise InputError(f"bracket index ({i},{j}) out of range")
            row = {}
            for k, v in coeffs.items():
                if not 0 <= k < dim:
                    raise InputError(f"bracket target index {k} out of range")
                row[k] = Fraction(v)
            table[i, j] = tuple(sorted((k, x) for k, x in row.items() if x))
        for i, j in sorted(brackets):
            negated = tuple((k, -x) for k, x in table[i, j])
            if table.setdefault((j, i), negated) != negated:
                raise InputError(f"brackets ({i},{j}) and ({j},{i}) are inconsistent")
        return LieAlgebra(
            dim,
            names,
            tuple(tuple(table.get((i, j), ()) for j in range(dim)) for i in range(dim)),
        )

    @staticmethod
    def from_json(obj) -> "LieAlgebra":
        """Load the JSON form ``{"dim": n, "basis": [...], "brackets": [...]}``.

        Each bracket entry is ``{"i": i, "j": j, "coeffs": {"k": "p/q"}}``.
        ``dim`` is a JSON integer from 1 to MAX_DIM, checked before the
        dim^2 table is built; ``i`` and ``j`` are JSON integers too, and
        ``basis`` and ``brackets`` are lists.
        """
        dim = obj.get("dim") if isinstance(obj, dict) else None
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise InputError("algebra file needs an integer 'dim'")
        if dim <= 0:
            raise InputError("'dim' must be positive")
        if dim > MAX_DIM:
            raise InputError(f"'dim' may be at most {MAX_DIM}")
        basis = obj.get("basis") or [f"X{i+1}" for i in range(dim)]
        if not isinstance(basis, list) or not all(isinstance(b, str) for b in basis):
            raise InputError("'basis' must be a list of names")
        if len(basis) != dim:
            raise InputError("'basis' length does not match 'dim'")
        entries = obj.get("brackets", [])
        if not isinstance(entries, list):
            raise InputError("'brackets' must be a list")
        brackets = {}
        for entry in entries:
            try:
                i, j = entry["i"], entry["j"]
                coeffs = {
                    int(k): rational_from_str(str(v))
                    for k, v in entry["coeffs"].items()
                }
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                raise InputError(f"malformed bracket entry {entry!r}") from exc
            if any(not isinstance(x, int) or isinstance(x, bool) for x in (i, j)):
                raise InputError(f"malformed bracket entry {entry!r}")
            key = (i, j)
            if key in brackets:
                raise InputError(f"duplicate bracket entry for ({i},{j})")
            brackets[key] = coeffs
        return LieAlgebra.from_brackets(dim, brackets, basis)

    @staticmethod
    def load(path: str) -> "LieAlgebra":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                obj = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InputError(f"{path}: not valid JSON ({exc})") from exc
        return LieAlgebra.from_json(obj)

    def to_json(self) -> dict:
        entries = [
            {"i": i, "j": j, "coeffs": {str(k): rational_to_str(v) for k, v in row}}
            for i, plane in enumerate(self._pairs)
            for j, row in enumerate(plane)
            if i < j and row
        ]
        return {"dim": self.dim, "basis": list(self.basis), "brackets": entries}

    def bracket(self, u: Sequence, v: Sequence) -> tuple:
        """Bracket of two coordinate vectors, bilinear over Q or over Q(i).

        Coordinates are Fractions, or GaussRationals for the
        complexification, and the result has the coordinates' type.
        """
        out = [x * 0 for x in u]
        vs = [(j, y) for j, y in enumerate(v) if y]
        for i, x in enumerate(u):
            if x:
                row = self._pairs[i]
                for j, y in vs:
                    if row[j]:
                        f = x * y
                        for k, c in row[j]:
                            out[k] = out[k] + f * c
        return tuple(out)


class Covector(NamedTuple):
    """Element of the dual space with exact rational coordinates."""

    coords: tuple

    @staticmethod
    def of(*values) -> "Covector":
        return Covector(tuple(Fraction(v) for v in values))

    @staticmethod
    def from_json(obj) -> "Covector":
        if not isinstance(obj, (list, tuple)):
            raise InputError("covector must be a list of rationals")
        try:
            return Covector(tuple(rational_from_str(str(v)) for v in obj))
        except ValueError as exc:
            raise InputError(f"bad covector entry: {exc}") from None

    def to_json(self) -> list:
        return [rational_to_str(v) for v in self.coords]


class ComplexSubspace:
    """Subspace of the complexified algebra, spanned over the Gaussian rationals.

    Its dimension and membership tests are ranks over Q(i), from
    :func:`~orbitkit.exactnum.gauss_rank`; its own rank is taken once.
    """

    def __init__(self, dim_ambient: int, vectors: tuple):
        self.dim_ambient = dim_ambient
        self.vectors = vectors  # tuple of tuples of GaussRational

    @staticmethod
    def from_json(obj, dim_ambient: int) -> "ComplexSubspace":
        vecs = obj.get("vectors") if isinstance(obj, dict) else obj
        if not isinstance(vecs, list):
            raise InputError("subspace must provide a list of vectors")
        out = []
        for v in vecs:
            if not isinstance(v, list) or len(v) != dim_ambient:
                raise InputError("subspace vector has wrong length")
            try:
                out.append(tuple(GaussRational.from_json(x) for x in v))
            except ValueError as exc:
                raise InputError(f"bad subspace entry: {exc}") from None
        return ComplexSubspace(dim_ambient, tuple(out))

    @cached_property
    def _rank(self) -> int:
        return gauss_rank(self.vectors)

    def dim(self) -> int:
        return self._rank

    def contains(self, vector: Sequence[GaussRational]) -> bool:
        if all(x.is_zero() for x in vector):
            return True
        return gauss_rank(self.vectors + (tuple(vector),)) == self._rank

    def conjugate(self) -> "ComplexSubspace":
        return ComplexSubspace(
            self.dim_ambient,
            tuple(tuple(x.conjugate() for x in v) for v in self.vectors),
        )


def check_jacobi(L: LieAlgebra):
    """Verify the Jacobi identity exactly on the basis.

    Returns ``(True, None)`` or ``(False, (i, j, k))`` with the first
    violating ordered triple in lexicographic order.  The Jacobiator
    J(i, j, k) = [[X_i, X_j], X_k] + [[X_j, X_k], X_i] + [[X_k, X_i], X_j]
    is alternating and zero on a repeated index, so that triple is
    sorted, and only i < j < k are computed, from the constants.
    """
    n, pairs = L.dim, L._pairs
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                J: dict = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for l, x in pairs[a][b]:
                        for m, y in pairs[l][c]:
                            J[m] = J.get(m, 0) + x * y
                if any(J.values()):
                    return False, (i, j, k)
    return True, None


def poisson_matrix(L: LieAlgebra, F: Covector) -> ExactMatrix:
    """Antisymmetric rational matrix ``B[i][j] = <F, [X_i, X_j]>``.

    >>> B = poisson_matrix(heisenberg(), Covector.of(0, 0, 1))
    >>> B.rank()
    2
    """
    n = L.dim
    if len(F.coords) != n:
        raise InputError("covector length does not match algebra dimension")
    zero = Fraction(0)
    rows = []
    for plane in L._pairs:
        row = [zero] * n
        for j, pairs in enumerate(plane):
            if pairs:
                row[j] = sum((c * F.coords[k] for k, c in pairs), zero)
        rows.append(row)
    return ExactMatrix(rows)


def annihilates(B: ExactMatrix, v: Sequence[Fraction]) -> bool:
    """True when B v = 0, each row summed where it and v are both nonzero.

    The one kernel test of the package: `stabilizer` applies it to
    brackets of kernel vectors, and `strata` to the kernel basis that
    certifies a stratum's rank bound.
    """
    w = [(k, x) for k, x in enumerate(v) if x]
    return not any(sum(row[k] * x for k, x in w if row[k]) for row in B.rows)


def stabilizer(L: LieAlgebra, F: Covector) -> list:
    """Rational basis of the stabilizer subalgebra ``ker B``.

    The span is checked to be closed under the bracket: it is ker B
    itself, so [u, v] lies in it exactly when B [u, v] = 0, and by
    antisymmetry unordered pairs of basis vectors suffice.  By the Jacobi
    identity g_F is always a subalgebra, so a failure proves that the
    structure constants break Jacobi, and is an InputError; this costs
    far less than `check_jacobi` on every triple.
    """
    B = poisson_matrix(L, F)
    vectors = B.kernel_basis()
    for a, u in enumerate(vectors):
        for v in vectors[a + 1:]:
            if not annihilates(B, L.bracket(u, v)):
                raise InputError(
                    "the stabilizer of the covector is not closed under the bracket, "
                    "so the structure constants break the Jacobi identity"
                )
    return vectors


class PolarizationReport:
    """Outcome of the infinitesimal polarization condition."""

    def __init__(
        self,
        subalgebra: bool,
        mixed_type: Optional[tuple],
        dims: Optional[dict] = None,
        not_evaluated: tuple = (
            "global_group_invariance",
            "closure_codimension_count",
            "measurable_foliation_smoothness",
        ),
    ):
        self.subalgebra = subalgebra  # closed under bracket and contains the stabilizer
        self.mixed_type = mixed_type  # (k, l, m) when computable
        self.dims = {} if dims is None else dims
        self.not_evaluated = not_evaluated

    @property
    def passed(self) -> bool:
        return self.subalgebra

    def to_json(self) -> dict:
        return {
            "subalgebra": self.subalgebra,
            "mixed_type": list(self.mixed_type) if self.mixed_type else None,
            "dims": dict(self.dims),
            "not_evaluated": list(self.not_evaluated),
            "passed": self.passed,
        }


def _real_points_dimension(space: ComplexSubspace) -> int:
    """Real dimension of ``space`` intersected with g.

    p cap conj(p) is the complexification of p cap g, and p + conj(p) is
    spanned by the real and imaginary parts of p's vectors, so
    dim(p cap g) = 2 dim_C p - rank_Q [Re w; Im w].
    """
    if not space.vectors:
        return 0
    parts = [[x.re for x in w] for w in space.vectors]
    parts += [[x.im for x in w] for w in space.vectors]
    return 2 * space.dim() - ExactMatrix(parts).rank()


def check_polarization(L: LieAlgebra, F: Covector, p: ComplexSubspace) -> PolarizationReport:
    """Run the exactly decidable polarization condition at ``F``.

    Checks, over exact arithmetic, that ``p`` is a subalgebra of the
    complexification containing the complexified stabilizer g_F; that is
    ``passed``.  It implies the infinitesimal invariance [g_F, p] inside p.
    ``p + conj(p)`` is stable under conjugation, so it is always the
    complexification of its real points m, and dim_R m = dim_C (p + conj(p)).
    The mixed-type invariants are ``k = dim g - dim m``,
    ``l = (dim m - dim h)/2`` and ``m = dim h - dim stabilizer`` where
    ``h`` is the real points of ``p``.
    """
    if p.dim_ambient != L.dim:
        raise InputError("subspace ambient dimension does not match algebra")
    stab = stabilizer(L, F)
    closed = all(p.contains(L.bracket(u, v)) for u in p.vectors for v in p.vectors)
    subalgebra = closed and all(
        p.contains(tuple(GaussRational.from_rational(x) for x in v)) for v in stab
    )

    dim_m = ComplexSubspace(L.dim, p.vectors + p.conjugate().vectors).dim()
    dim_h = _real_points_dimension(p)
    dim_stab = len(stab)
    mixed = None
    two_l = dim_m - dim_h
    m_part = dim_h - dim_stab
    if two_l % 2 == 0 and m_part >= 0:
        mixed = (L.dim - dim_m, two_l // 2, m_part)

    return PolarizationReport(
        subalgebra=subalgebra,
        mixed_type=mixed,
        dims={
            "ambient": L.dim,
            "p": p.dim(),
            "p_plus_conj": dim_m,
            "real_points_sum": dim_m,
            "real_points_p": dim_h,
            "stabilizer": dim_stab,
        },
    )


# ---------------------------------------------------------------------------
# Stock algebras used across tests and fixtures.


def heisenberg() -> LieAlgebra:
    """Three-dimensional algebra with [X, Y] = Z, Z central."""
    return LieAlgebra.from_brackets(
        3, {(0, 1): {2: Fraction(1)}}, basis=("X", "Y", "Z")
    )


def aff1() -> LieAlgebra:
    """Two-dimensional algebra of the affine line: [X, Y] = Y."""
    return LieAlgebra.from_brackets(
        2, {(0, 1): {1: Fraction(1)}}, basis=("X", "Y")
    )


def sl2() -> LieAlgebra:
    """Split rank-one simple algebra: [H,E]=2E, [H,F]=-2F, [E,F]=H."""
    return LieAlgebra.from_brackets(
        3,
        {
            (0, 1): {1: Fraction(2)},
            (0, 2): {2: Fraction(-2)},
            (1, 2): {0: Fraction(1)},
        },
        basis=("H", "E", "F"),
    )


def abelian(n: int) -> LieAlgebra:
    """Abelian algebra of dimension n."""
    return LieAlgebra.from_brackets(n, {})
