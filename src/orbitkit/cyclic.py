"""Cyclic chain operators, traces and the constructors of finite *-algebras.

Direct sums, tensor products and M_r are each built from one sparse
product rule (`_from_rule`) as `homology.FinAlgebra`s, and
M_r(A) = M_r (x) A.  Chains of level n are elements of the (n+1)-fold
tensor power, stored as maps from words of basis indices to nonzero
coefficients, with the dense coordinate vector as the `coords` view.
The standard operators b, b', lambda, N, S act on them through
`apply_operator`, built from `homology._op_terms`, the one word-level
expansion that also gives the boundary of Connes' complex.  The adjoint
(conjugate transpose under the pairing) is pulled only over the words
that can reach the chain's support, read off an inverse product table
(`_op_sources`), so it costs the support times the level times the
preimages per letter, not dim^(n+1).

`verify_trace` decides the four trace axioms (normalization, positivity
and strict positivity on the Gram matrix, ad-invariance), with
tau(1) = 1 standing in for the norm condition.  `morita_check` reduces
Connes' complex of the amplified side M_m(A) on every letter, so it stays
an independent check of Morita invariance rather than a comparison of
A's corner with itself; on a separable A it compares the closed form
(the base) with the complex (the amplified side).

Cyclic homology lives in `orbitkit.homology` and entirety in
`orbitkit.entire`, so that `cyclic hp` and `cyclic entire` compile
neither this module nor each other; this module re-exports `FinAlgebra`,
`hp_homology`, `entirety` and `parse_norm_pattern`.
"""

from __future__ import annotations

import itertools
import json
import random
from typing import NamedTuple

from . import InputError

# entirety and parse_norm_pattern are imported only to be re-exported;
# FinAlgebra and hp_homology are used here and re-exported too
from .entire import entirety, parse_norm_pattern
from .exactnum import ExactMatrix, GaussRational, gauss_reader
from .homology import (
    _ONE,
    _ZERO,
    FinAlgebra,
    _hp,
    _nonzero,
    _op_terms,
    _peirce_grading,
    hp_homology,
)

# ---------------------------------------------------------------------------
# algebras


def _from_rule(basis: tuple, product, star, unit) -> FinAlgebra:
    """The algebra on ``basis`` given by a sparse product rule.

    ``product(a, b)`` lists the (c, v) with e_a e_b = sum v e_c,
    ``star(a)`` the (c, v) with e_a^* = sum v e_c, and ``unit`` the (a, v)
    with 1 = sum v e_a.  The `FinAlgebra` constructor validates the result
    as it validates a loaded algebra.
    """
    d = len(basis)
    zero = (_ZERO,) * d  # every zero row is this one tuple, as in a loaded algebra

    def dense(pairs) -> tuple:
        row = list(zero)
        for c, v in pairs:
            row[c] = v
        row = tuple(row)
        return zero if row == zero else row

    mult = tuple(tuple(dense(product(a, b)) for b in range(d)) for a in range(d))
    return FinAlgebra(d, mult, dense(unit), tuple(dense(star(a)) for a in range(d)), basis)


def gauss_field() -> FinAlgebra:
    """The ground field as a one-dimensional algebra."""
    return FinAlgebra(1, (((_ONE,),),), (_ONE,), ((_ONE,),), ("1",))


def dual_numbers() -> FinAlgebra:
    """Q(i)[eps] with eps^2 = 0 and eps self-adjoint."""
    mult = (
        ((_ONE, _ZERO), (_ZERO, _ONE)),
        ((_ZERO, _ONE), (_ZERO, _ZERO)),
    )
    ident = ((_ONE, _ZERO), (_ZERO, _ONE))
    return FinAlgebra(2, mult, (_ONE, _ZERO), ident, ("1", "eps"))


def direct_sum(left: FinAlgebra, right: FinAlgebra) -> FinAlgebra:
    """A + B: the two bases side by side, and e_a e_b = 0 across them."""
    dl = left.dim
    # (summand, offset) of each basis element
    part = [(left, 0)] * dl + [(right, dl)] * right.dim

    def shifted(pairs, s):
        return tuple((c + s, v) for c, v in pairs)

    def product(a, b):
        (A, s), t = part[a], part[b][1]
        return shifted(A.basis_product(a - s, b - s), s) if s == t else ()

    return _from_rule(
        tuple(f"({n},0)" for n in left.basis) + tuple(f"(0,{n})" for n in right.basis),
        product,
        lambda a: shifted(part[a][0]._star_pairs[a - part[a][1]], part[a][1]),
        _nonzero(left.unit) + shifted(_nonzero(right.unit), dl),
    )


def gauss_field_power(k: int) -> FinAlgebra:
    """Direct sum of k copies of the ground field."""
    if k < 1:
        raise InputError("field power needs k >= 1")
    out = gauss_field()
    for _ in range(k - 1):
        out = direct_sum(out, gauss_field())
    return out


def tensor_product(left: FinAlgebra, right: FinAlgebra) -> FinAlgebra:
    """A (x) B with e_a (x) e_u at index a * dim B + u, labelled "a*u"."""
    return _tensor(left, right, tuple(f"{n}*{m}" for n in left.basis for m in right.basis))


def _tensor(left: FinAlgebra, right: FinAlgebra, basis: tuple) -> FinAlgebra:
    """(x (x) u)(y (x) v) = xy (x) uv and (x (x) u)^* = x^* (x) u^*, on ``basis``."""
    dr = right.dim

    def pairs(x, u):
        """x (x) u for sparse x and u."""
        return tuple((c * dr + w, s * t) for c, s in x for w, t in u)

    def product(p, q):
        (a, u), (b, v) = divmod(p, dr), divmod(q, dr)
        return pairs(left.basis_product(a, b), right.basis_product(u, v))

    return _from_rule(
        basis,
        product,
        lambda p: pairs(left._star_pairs[p // dr], right._star_pairs[p % dr]),
        pairs(_nonzero(left.unit), _nonzero(right.unit)),
    )


def matrix_algebra(r: int) -> FinAlgebra:
    """Full r-by-r matrix algebra: e_ij e_kl = delta_jk e_il and e_ij^* = e_ji."""
    if r < 1:
        raise InputError("matrix amplification needs r >= 1")
    # e_ij is basis element i r + j
    return _from_rule(
        tuple(f"e{i + 1}{j + 1}" for i in range(r) for j in range(r)),
        lambda p, q: ((p // r * r + q % r, _ONE),) if p % r == q // r else (),
        lambda p: ((p % r * r + p // r, _ONE),),
        tuple((i * r + i, _ONE) for i in range(r)),
    )


def matrix_amplification(base: FinAlgebra, r: int) -> FinAlgebra:
    """M_r(A) = M_r (x) A, labelled e_ij when A has dimension 1 and e_ij*x otherwise."""
    units = matrix_algebra(r)
    return _tensor(units, base, units.basis) if base.dim == 1 else tensor_product(units, base)


# ---------------------------------------------------------------------------
# traces


class Trace(NamedTuple):
    """Linear functional given by its values on the basis."""

    coords: tuple

    def __call__(self, x) -> GaussRational:
        return sum((t * v for t, v in zip(self.coords, x)), _ZERO)

    def to_json(self) -> dict:
        return {"coords": [v.to_json() for v in self.coords]}

    @staticmethod
    def from_json(data: dict) -> "Trace":
        try:
            coords = tuple(map(gauss_reader(), data["coords"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad trace description: {exc}") from None
        return Trace(coords)

    @staticmethod
    def load(path) -> "Trace":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InputError(f"bad trace file: {exc}") from None
        return Trace.from_json(data)


def verify_trace(A: FinAlgebra, tau: Trace) -> dict:
    """Decide the four trace axioms; failures are listed, never raised.

    Normalization tau(1) = 1 stands in for the norm condition, and
    ad-invariance tau(xy) = tau(yx) is checked on all basis pairs, which
    decides it by bilinearity.  As tau(x* x) = x^H G x for the Gram matrix
    G[a][b] = tau(e_a* e_b), tau is positive exactly when G's realification
    S = [[Re G, -Im G], [Im G, Re G]] is symmetric and positive definite on
    its pivot columns C, and faithful exactly when S has full rank (Horn
    and Johnson, Matrix Analysis, 7.1-7.2).
    """
    if len(tau.coords) != A.dim:
        raise InputError("trace coordinate count does not match the algebra")
    normalized = tau(A.unit) == _ONE
    gram = [
        [tau(A._dense(A._mul(A._star_pairs[a], ((b, _ONE),)))) for b in range(A.dim)]
        for a in range(A.dim)
    ]
    S = ExactMatrix(
        [[z.re for z in row] + [-z.im for z in row] for row in gram]
        + [[z.im for z in row] + [z.re for z in row] for row in gram]
    )
    C = S.pivot_columns()
    corner = ExactMatrix([[S.rows[r][c] for c in C] for r in C])
    positive = S.rows == tuple(zip(*S.rows)) and corner.leading_minors_positive()
    faithful = len(C) == 2 * A.dim
    tracial = all(
        tau(A.mult[a][b]) == tau(A.mult[b][a]) for a in range(A.dim) for b in range(A.dim)
    )
    checks = {
        "normalized": normalized,
        "positive": positive,
        "faithful": faithful,
        "tracial": tracial,
    }
    failures = [name for name, ok in checks.items() if not ok]
    return {
        **checks,
        "failures": failures,
        "passed": not failures,
        "norm_note": "tau(1) = 1 stands in for the norm-one condition",
    }


# ---------------------------------------------------------------------------
# chains and operators


class Chain:
    """Element of C_n(A) = A^{tensor (n+1)} as a sparse word map.

    ``terms`` maps each word (a_0, ..., a_n) of basis indices to its
    nonzero coefficient; the constructor drops zero coefficients and
    rejects words of the wrong length or with an index outside
    0..dim-1.  Operator results and chain arithmetic are built by
    `_derived`, which skips the word checks.  ``coords`` is the dense
    view: the flat coordinate vector of length dim^(n+1), indexed
    row-major by words and built on demand.
    """

    def __init__(self, algebra: FinAlgebra, level: int, terms: dict):
        if level < 0:
            raise InputError("chain level must be nonnegative")
        n, dim = level + 1, algebra.dim
        for word in terms:
            if not (
                isinstance(word, tuple)
                and len(word) == n
                and all(isinstance(a, int) and 0 <= a < dim for a in word)
            ):
                raise InputError(
                    f"word {word} is not a word of length {n} in basis indices "
                    f"0..{dim - 1}"
                )
        self.algebra, self.level = algebra, level
        self.terms = {w: v for w, v in terms.items() if not v.is_zero()}

    @staticmethod
    def _derived(algebra: FinAlgebra, level: int, terms: dict) -> "Chain":
        """The chain of these terms, without the word checks.

        For words derived from the words of validated chains and from
        product-table indices in range(dim), where those checks cannot
        fail; zero coefficients are still dropped.
        """
        chain = Chain.__new__(Chain)
        chain.algebra, chain.level = algebra, level
        chain.terms = {w: v for w, v in terms.items() if not v.is_zero()}
        return chain

    def __eq__(self, other):
        return (
            isinstance(other, Chain)
            and (self.algebra, self.level, self.terms) == (other.algebra, other.level, other.terms)
        )

    def __hash__(self):
        return hash((self.algebra, self.level))

    @property
    def coords(self) -> tuple:
        words = itertools.product(range(self.algebra.dim), repeat=self.level + 1)
        return tuple(self.terms.get(w, _ZERO) for w in words)

    @staticmethod
    def zero(algebra: FinAlgebra, level: int) -> "Chain":
        return Chain(algebra, level, {})

    @staticmethod
    def from_words(algebra: FinAlgebra, level: int, terms: dict) -> "Chain":
        return Chain(
            algebra,
            level,
            {
                w: c if isinstance(c, GaussRational) else GaussRational.from_rational(c)
                for w, c in terms.items()
            },
        )

    @staticmethod
    def random(
        algebra: FinAlgebra, level: int, rng: random.Random, entries: int = 4
    ) -> "Chain":
        size = algebra.dim ** (level + 1)
        terms = {}
        for _ in range(min(entries, size)):
            word = _unflatten(rng.randrange(size), algebra.dim, level + 1)
            terms[word] = GaussRational(rng.randint(-3, 3), rng.randint(-3, 3))
        return Chain(algebra, level, terms)

    def coefficient(self, word) -> GaussRational:
        return self.terms.get(tuple(word), _ZERO)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Chain") -> "Chain":
        if self.algebra != other.algebra or self.level != other.level:
            raise InputError("chain addition needs matching algebra and level")
        terms = dict(self.terms)
        for w, v in other.terms.items():
            terms[w] = terms[w] + v if w in terms else v
        return Chain._derived(self.algebra, self.level, terms)

    def __neg__(self) -> "Chain":
        return Chain._derived(self.algebra, self.level, {w: -v for w, v in self.terms.items()})

    def __sub__(self, other: "Chain") -> "Chain":
        return self + (-other)

    def scale(self, c) -> "Chain":
        cc = c if isinstance(c, GaussRational) else GaussRational.from_rational(c)
        return Chain._derived(
            self.algebra, self.level, {w: cc * v for w, v in self.terms.items()}
        )


def _unflatten(index: int, dim: int, length: int) -> tuple:
    out = []
    for _ in range(length):
        index, r = divmod(index, dim)
        out.append(r)
    return tuple(reversed(out))


_MIN_LEVEL = {"b": 1, "bprime": 1, "lambda": 1, "N": 1, "S": 2}
_LEVEL_SHIFT = {"b": -1, "bprime": -1, "lambda": 0, "N": 0, "S": -2}
_ALIASES = {"b'": "bprime", "λ": "lambda", "lam": "lambda"}



def _op_sources(inverse, kind: str, word) -> list:
    """Candidate words whose `_op_terms` expansion can contain ``word``.

    A superset of the true sources, read off how each operator changes a
    word: b and b' merge two neighbouring letters into one, so a source
    splits one letter c into a pair (a, b) from ``inverse[c]`` (for b also
    the wrap split (b, w_1, ..., w_{n-1}, a) of the first letter); lambda
    is undone by the inverse rotation, N by any rotation, and S merges the
    first three letters, so its sources split the first letter twice.
    """
    m = len(word)
    if kind == "b" or kind == "bprime":
        out = [word[:j] + ab + word[j + 1 :] for j in range(m) for ab in inverse[word[j]]]
        if kind == "b":
            out += [(b,) + word[1:] + (a,) for a, b in inverse[word[0]]]
        return out
    if kind == "lambda":
        return [word[1:] + word[:1]]
    if kind == "N":
        return [word[j:] + word[:j] for j in range(m)]
    return [ab + (c,) + word[1:] for x, c in inverse[word[0]] for ab in inverse[x]]


def apply_operator(kind: str, x: Chain, adjoint: bool = False) -> Chain:
    """Apply b, b', lambda, N, or S (or its adjoint) to a chain.

    The adjoint is the conjugate-transpose of the operator matrix in the
    word basis, matching the pairing <e_u, e_v> = delta.  Levels: b and b'
    need level >= 1, lambda and N level >= 1, S level >= 2; the adjoint of
    a level-lowering operator raises the level accordingly.

    The adjoint is pulled only over the source words that can reach a word
    of ``x.terms`` (`_op_sources`, from the inverse product table); each
    candidate's coefficient still comes from the `_op_terms` expansion.  It
    costs the support of x times the level times the preimages per letter,
    not dim^(n+1).  In M4 at level 7 the zero chain pulls over no word and
    e11 tensored 8 times over 28 candidates, where the dense pull took 16^9:

    >>> A = matrix_algebra(4)
    >>> apply_operator("b", Chain.zero(A, 7), adjoint=True).is_zero()
    True
    >>> e11 = Chain.from_words(A, 7, {(0,) * 8: 1})
    >>> len(apply_operator("b", e11, adjoint=True).terms)
    28
    """
    kind = _ALIASES.get(kind, kind)
    if kind not in _MIN_LEVEL:
        raise InputError(f"unknown operator {kind!r}")
    A = x.algebra
    terms = {}
    if not adjoint:
        if x.level < _MIN_LEVEL[kind]:
            raise InputError(
                f"operator {kind} needs level >= {_MIN_LEVEL[kind]}, got {x.level}"
            )
        for word, coeff in x.terms.items():
            for w, v in _op_terms(A._pairs, _ONE, kind, word):
                cv = coeff * v
                terms[w] = terms[w] + cv if w in terms else cv
        return Chain._derived(A, x.level + _LEVEL_SHIFT[kind], terms)
    src_level = x.level - _LEVEL_SHIFT[kind]
    if src_level < _MIN_LEVEL[kind]:
        raise InputError(
            f"adjoint of {kind} from level {x.level} would transpose an "
            f"operator below its level range"
        )
    sources = dict.fromkeys(
        s for w in x.terms for s in _op_sources(A._inverse_pairs, kind, w)
    )
    for word in sources:
        acc = _ZERO
        for w, v in _op_terms(A._pairs, _ONE, kind, word):
            t = x.terms.get(w)
            if t is not None:
                acc = acc + v.conjugate() * t
        terms[word] = acc
    return Chain._derived(A, src_level, terms)


def chain_pairing(x: Chain, y: Chain) -> GaussRational:
    """Sesquilinear pairing, conjugate in the first slot."""
    if x.algebra != y.algebra or x.level != y.level:
        raise InputError("pairing needs matching algebra and level")
    out = _ZERO
    for w, a in x.terms.items():
        b = y.terms.get(w)
        if b is not None:
            out = out + a.conjugate() * b
    return out


def morita_check(A: FinAlgebra, m: int = 2, truncation: int = 6) -> dict:
    """Compare hp_homology of A and of M_m(A) at the same truncation.

    Verdict is "pass"/"fail" on the component-wise comparison when both
    sides stabilized, and "not stabilized" otherwise.  The base is
    `hp_homology`, which takes the closed form on a separable corner.  The
    amplified side always reduces Connes' complex (`homology._hp`), on
    every letter of M_m(A), not on its corner: that corner is A's own, so
    the check would compare A's corner with itself; nor is it split into
    idempotent blocks.
    """
    if m < 2:
        raise InputError("morita check needs amplification size m >= 2")
    base = hp_homology(A, truncation)
    M = matrix_amplification(A, m)
    amplified = _hp(M, _peirce_grading(M), tuple(range(M.dim)), truncation)
    if not (base.stabilized and amplified.stabilized):
        verdict = "not stabilized"
    elif (base.hp0, base.hp1) == (amplified.hp0, amplified.hp1):
        verdict = "pass"
    else:
        verdict = "fail"
    return {
        "verdict": verdict,
        "m": m,
        "truncation": truncation,
        "base": [base.hp0, base.hp1],
        "amplified": [amplified.hp0, amplified.hp1],
        "base_stabilized": base.stabilized,
        "amplified_stabilized": amplified.stabilized,
    }
