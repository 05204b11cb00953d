"""Cyclic chain operators and truncated periodic homology over exact scalars.

A `FinAlgebra` is a finite-dimensional unital *-algebra over the Gaussian
rationals, given by structure constants.  Direct sums, tensor products and
M_r are each built from one sparse product rule (`_from_rule`), and
M_r(A) = M_r (x) A.  Chains of level n are elements of the (n+1)-fold
tensor power, stored as maps from words of basis indices to nonzero
coefficients, with the dense coordinate vector as the `coords` view.
The standard operators b, b', lambda, N, S act on them through
`apply_operator`.  `_op_terms` is the one word-level expansion of these
operators: `apply_operator` and the boundary of Connes' complex are both
built from it.  The adjoint (conjugate transpose under the pairing) is
pulled only over the words that can reach the chain's support, read off
an inverse product table (`_op_sources`), so it costs the support times
the level times the preimages per letter, not dim^(n+1).  `hp_homology`
computes cyclic homology in characteristic 0 as the homology of Connes'
complex

    C^lambda_n = C_n(A) / (1 - lambda),   differential b,

whose cells are the rotation classes of words that are not killed (a class
is killed when a rotation returns its word with sign -1).  A cell is
listed once, as a necklace (the least rotation of its words) with its
least period p, and it is killed exactly when n p is odd.  Only the
weight-0 block of C^lambda is reduced.  When the unit is a sum of basis
elements e_i (coefficient 1 each) that are orthogonal idempotents and every
basis element lies in exactly one Peirce space e_i A e_j, that element has
weight eps_i - eps_j and a word the sum over its letters.  b and lambda
preserve weight, the inner derivation ad(sum t_i e_i) acts on weight w by
<t, w>, and inner derivations act by zero on HC (Loday, Cyclic Homology,
section 4.1), so HC lies in weight 0 and the block gives all of it.  Any
other algebra gets the trivial grading, in which every word has weight 0.

The grading is that of a full corner eAe, with e a sum of Peirce
idempotents and AeA = A.  Cyclic homology is Morita invariant, so
HC(eAe) = HC(A) (Loday, Cyclic Homology, sections 1.2 and 2.2).  The
certificate is exact and read off the product table: e_j is dropped when
letters x of e_j A e_i and y of e_i A e_j, with e_i kept, multiply to
c e_j with c != 0, for then e_j = c^-1 x e_i y lies in A e_i A.  M_r
falls to one letter e_ii.  C^3 keeps its three idempotents, which
are not conjugate: a corner that dropped one would report HC_0 = 1
instead of 3.  An algebra with the trivial grading keeps every letter.
`morita_check` reduces the amplified side M_m(A) on every letter, so it
stays an independent check of this invariance rather than a comparison
of A's corner with itself.  The report lists the top even/odd homology
dimensions and whether they agree with the pair two degrees down, which is
the computable surrogate for the stabilization of the periodic theory.

The product of a corner of two or more letters is then rewritten in a
basis of Peirce spaces of orthogonal idempotents (`blocks.split_corner`),
and cut again: the Pauli basis of M2 falls to one letter, and Q(i)[S3]
from 6 letters to 3, one per block of Q(i)^2 + M2.  Connes' complex
reads only products, never the involution, so it is built from a product
table and its Peirce grading, whether loaded or split.

Ranks are computed exactly by streaming each column of b through
`exactnum.reduce_column`, the package's one integer column reduction: b is
linear in the structure constants, so it runs on one integer table built
on the corner's letters and scaled by the lcm of their products'
denominators (`_int_table`), and a corner with imaginary products is
realified (rank over Q(i) is half the real rank of the doubled matrix).
Each degree is reduced in one pass: a cell's columns are built once,
checked for b o b = 0 against the kept columns of the degree below, and
then reduced.

`verify_trace` checks the four trace axioms (normalization, positivity on
samples, strict positivity via the Gram matrix, ad-invariance), with
tau(1) = 1 standing in for the norm condition.  `entirety` classifies
growth descriptors of chain-norm sequences by the root test applied to the
weights c_n = (n!/floor(n/2)!) * ||f_n||.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
from fractions import Fraction
from typing import NamedTuple

from . import InputError
from .exactnum import GaussRational, gauss_rank, gauss_reader, rational_to_str, reduce_column

_ZERO = GaussRational.zero()
_ONE = GaussRational.one()


def _nonzero(x) -> tuple:
    """The (index, coeff) pairs of the nonzero coordinates of x."""
    return tuple((a, v) for a, v in enumerate(x) if not v.is_zero())


def _default_basis(dim: int) -> tuple:
    """Labels e0, e1, ... for an algebra given without basis names."""
    return tuple(f"e{a}" for a in range(dim))


def _combine(terms) -> dict:
    """The sum of s * row over the (s, row) in terms, as {index: coeff}.

    Each row is a sparse vector of (index, coeff) pairs; zero sums are
    dropped.  This is the one sparse product of `FinAlgebra`: products,
    the involution and the validation all reduce to it.
    """
    out = {}
    for s, row in terms:
        for c, v in row:
            sv = s * v
            out[c] = out[c] + sv if c in out else sv
    return {c: v for c, v in out.items() if not v.is_zero()}


# ---------------------------------------------------------------------------
# algebras


class FinAlgebra:
    """Finite-dimensional unital *-algebra over the Gaussian rationals.

    ``mult[a][b]`` holds the coordinates of e_a e_b, ``unit`` the
    coordinates of 1, and ``star`` the matrix of the involution: the
    involution sends sum t_a e_a to sum conj(t_a) star[a][c] e_c, so it is
    conjugate-linear by construction.  The constructor checks the table
    shapes before it allocates anything of size dim, then associativity,
    the unit laws, and the involution axioms on the basis, and raises
    InputError on any failure.

    Loading costs what the file's distinct coefficients and nonzero
    products cost: `from_json` parses each distinct spelling once and
    gives equal values one shared instance, validation compares only the
    basis triples (a, b, c) where e_a e_b or e_b e_c is nonzero, and a
    product by the shared one() is free.  `to_json` serializes each
    shared instance once.
    """

    def __init__(self, dim: int, mult: tuple, unit: tuple, star: tuple, basis: tuple = ()):
        if dim < 1:
            raise InputError("algebra dimension must be positive")
        d = dim
        if basis and len(basis) != d:
            raise InputError("basis label count does not match dim")
        if len(mult) != d or any(
            len(plane) != d or any(len(row) != d for row in plane)
            for plane in mult
        ):
            raise InputError("multiplication table must be dim x dim x dim")
        if len(unit) != d:
            raise InputError("unit vector must have length dim")
        if len(star) != d or any(len(row) != d for row in star):
            raise InputError("involution matrix must be dim x dim")
        self.dim, self.mult, self.unit, self.star = dim, mult, unit, star
        self.basis = basis or _default_basis(d)
        self._pairs = pairs = tuple(tuple(_nonzero(row) for row in plane) for plane in mult)
        # inverse[c] lists the (a, b) whose product e_a e_b has a nonzero e_c
        # coefficient: the letter pairs that b, b' and S can merge into c
        inverse = [[] for _ in range(d)]
        for a in range(d):
            for b in range(d):
                for c, _ in pairs[a][b]:
                    inverse[c].append((a, b))
        self._inverse_pairs = tuple(map(tuple, inverse))
        self._star_pairs = tuple(_nonzero(row) for row in star)
        self._validate()

    def _key(self) -> tuple:
        return self.dim, self.mult, self.unit, self.star, self.basis

    def __eq__(self, other):
        return isinstance(other, FinAlgebra) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _validate(self):
        d = self.dim
        unit = _nonzero(self.unit)
        for b in range(d):
            e_b = ((b, _ONE),)
            if self._mul(unit, e_b) != dict(e_b):
                raise InputError(f"left unit law fails on basis vector {b}")
            if self._mul(e_b, unit) != dict(e_b):
                raise InputError(f"right unit law fails on basis vector {b}")
        # reach[k] holds the c with e_k e_c nonzero.  (e_a e_b) e_c and
        # e_a (e_b e_c) are both 0 unless c is in reach[b] or in reach[k] for
        # some e_k in the support of e_a e_b
        reach = [{c for c, row in enumerate(plane) if row} for plane in self._pairs]
        for a in range(d):
            for b in range(d):
                ab = self._pairs[a][b]
                for c in sorted(reach[b].union(*(reach[k] for k, _ in ab))):
                    left = self._mul(ab, ((c, _ONE),))
                    if left != self._mul(((a, _ONE),), self._pairs[b][c]):
                        raise InputError(
                            f"associativity fails on basis triple ({a}, {b}, {c})"
                        )
        for a in range(d):
            if self._star(self._star_pairs[a]) != {a: _ONE}:
                raise InputError(f"involution is not involutive on basis vector {a}")
        if self._star(unit) != dict(unit):
            raise InputError("involution does not fix the unit")
        for a in range(d):
            for b in range(d):
                left = self._star(self._pairs[a][b])
                right = self._mul(self._star_pairs[b], self._star_pairs[a])
                if left != right:
                    raise InputError(
                        f"involution is not an anti-automorphism on pair ({a}, {b})"
                    )

    def basis_product(self, a: int, b: int):
        """Sparse coordinates [(c, coeff)] of the product e_a e_b."""
        return self._pairs[a][b]

    def _mul(self, x, y) -> dict:
        """x y for sparse x and y, given as (index, coeff) pairs."""
        return _combine(
            (s * t, row) for a, s in x for b, t in y if (row := self._pairs[a][b])
        )

    def _star(self, x) -> dict:
        """x^* for sparse x, given as (index, coeff) pairs."""
        return _combine((s.conjugate(), self._star_pairs[a]) for a, s in x)

    def mul_coords(self, x, y) -> tuple:
        return self._dense(self._mul(_nonzero(x), _nonzero(y)))

    def star_coords(self, x) -> tuple:
        return self._dense(self._star(_nonzero(x)))

    def _dense(self, x: dict) -> tuple:
        return tuple(x.get(c, _ZERO) for c in range(self.dim))

    def to_json(self) -> dict:
        """The JSON form; entries holding one shared instance share one dict."""
        text = {}

        def entry(v):
            out = text.get(id(v))
            if out is None:
                out = text[id(v)] = v.to_json()
            return out

        return {
            "dim": self.dim,
            "basis": list(self.basis),
            "mult": [[list(map(entry, row)) for row in plane] for plane in self.mult],
            "unit": list(map(entry, self.unit)),
            "star": [list(map(entry, row)) for row in self.star],
        }

    @staticmethod
    def from_json(data: dict) -> "FinAlgebra":
        dim = data.get("dim") if isinstance(data, dict) else None
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise InputError("algebra file needs an integer 'dim'")
        read = gauss_reader()
        try:
            mult = tuple(
                tuple(tuple(map(read, row)) for row in plane) for plane in data["mult"]
            )
            unit = tuple(map(read, data["unit"]))
            star = tuple(tuple(map(read, row)) for row in data["star"])
            basis = data.get("basis", [])
            if not isinstance(basis, list) or not all(isinstance(b, str) for b in basis):
                raise TypeError("'basis' must be a list of names")
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad algebra description: {exc}") from None
        return FinAlgebra(dim, mult, unit, star, tuple(basis))

    @staticmethod
    def load(path) -> "FinAlgebra":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InputError(f"bad algebra file: {exc}") from None
        return FinAlgebra.from_json(data)


def _from_rule(basis: tuple, product, star, unit) -> FinAlgebra:
    """The algebra on ``basis`` given by a sparse product rule.

    ``product(a, b)`` lists the (c, v) with e_a e_b = sum v e_c,
    ``star(a)`` the (c, v) with e_a^* = sum v e_c, and ``unit`` the (a, v)
    with 1 = sum v e_a.  The `FinAlgebra` constructor validates the result
    as it validates a loaded algebra.
    """
    d = len(basis)

    def dense(pairs) -> tuple:
        row = [_ZERO] * d
        for c, v in pairs:
            row[c] = v
        return tuple(row)

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


def _random_element(A: FinAlgebra, rng: random.Random) -> tuple:
    return tuple(
        GaussRational(
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
        )
        for _ in range(A.dim)
    )


# verify_trace's largest positivity sample count, checked before the first
# sample; a sample of M2 takes about 0.5 ms
MAX_TRACE_SAMPLES = 10**5


def verify_trace(A: FinAlgebra, tau: Trace, samples: int = 64, seed: int = 0) -> dict:
    """Check the four trace axioms; failures are listed, never raised.

    Normalization tau(1) = 1 stands in for the norm condition, positivity
    is sampled on random rational elements, strict positivity is the exact
    nondegeneracy of the Gram matrix G[a][b] = tau(e_a* e_b), and
    ad-invariance tau(xy) = tau(yx) is checked on all basis pairs, which
    decides it by bilinearity.  A sample count below 1 or above
    MAX_TRACE_SAMPLES is an InputError.
    """
    if samples < 1:
        raise InputError("samples must be at least 1")
    if samples > MAX_TRACE_SAMPLES:
        raise InputError(f"samples may be at most {MAX_TRACE_SAMPLES}")
    if len(tau.coords) != A.dim:
        raise InputError("trace coordinate count does not match the algebra")
    normalized = tau(A.unit) == _ONE
    rng = random.Random(seed)
    positive = True
    for _ in range(samples):
        x = _random_element(A, rng)
        v = tau(A.mul_coords(A.star_coords(x), x))
        if v.im != 0 or v.re < 0:
            positive = False
            break
    gram = [
        [tau(A._dense(A._mul(A._star_pairs[a], ((b, _ONE),)))) for b in range(A.dim)]
        for a in range(A.dim)
    ]
    faithful = gauss_rank(gram) == A.dim
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
        "samples": samples,
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
        chain = Chain(algebra, level, {})
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


def _op_terms(pairs, one, kind: str, word) -> list:
    """Expand b, b', lambda, N or S on a basis word into [(word, coeff)].

    This is the one word-level expansion of the operators: `apply_operator`
    calls it with the Gaussian-rational table, and Connes' complex with
    the integer table `_int_table`.  ``pairs[a][b]`` lists the
    (c, v) with e_a e_b = sum v e_c and ``one`` is the unit of the
    coefficient ring.  Terms are not collected, so one word may appear more
    than once.
    """
    n = len(word) - 1
    out = []
    if kind == "b" or kind == "bprime":
        for j in range(n):
            for c, v in pairs[word[j]][word[j + 1]]:
                out.append((word[:j] + (c,) + word[j + 2 :], -v if j % 2 else v))
        if kind == "b":
            for c, v in pairs[word[n]][word[0]]:
                out.append(((c,) + word[1:n], -v if n % 2 else v))
    elif kind == "lambda":
        out.append(((word[n],) + word[:n], -one if n % 2 else one))
    elif kind == "N":
        cur, neg = word, False
        for _ in range(n + 1):
            out.append((cur, -one if neg else one))
            cur = (cur[n],) + cur[:n]
            neg = neg != (n % 2 == 1)
    elif kind == "S":
        for x, c1 in pairs[word[0]][word[1]]:
            for y, c2 in pairs[x][word[2]]:
                out.append(((y,) + word[3:], c1 * c2))
    else:
        raise InputError(f"unknown operator {kind!r}")
    return out


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
                terms[w] = terms[w] + coeff * v if w in terms else coeff * v
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


# ---------------------------------------------------------------------------
# Connes' complex


def _flat(word, dim: int) -> int:
    r = 0
    for a in word:
        r = r * dim + a
    return r


def _peirce_grading(A: FinAlgebra) -> tuple:
    """Peirce indices (i, j) of each basis element x, with x in e_i A e_j.

    The grading applies when the unit is a sum of basis elements
    e_0..e_{k-1} (numbered in basis order) with coefficient 1 each that are
    orthogonal idempotents, and each basis element x has exactly one
    nonzero product e_i x and exactly one nonzero x e_j; by the unit law
    those products are x.  Every other algebra gets the trivial grading,
    (0, 0) on every basis element.
    """
    trivial = ((0, 0),) * A.dim
    # the basis elements in the support of the unit; once they are
    # orthogonal idempotents, e = e 1 forces each coefficient to be 1
    idem = [a for a, v in enumerate(A.unit) if not v.is_zero()]
    for e in idem:
        for f in idem:
            if A.basis_product(e, f) != (((e, _ONE),) if e == f else ()):
                return trivial
    grading = []
    for x in range(A.dim):
        left = [i for i, e in enumerate(idem) if A.basis_product(e, x)]
        right = [j for j, e in enumerate(idem) if A.basis_product(x, e)]
        if len(left) != 1 or len(right) != 1:
            return trivial
        grading.append((left[0], right[0]))
    return tuple(grading)


def _letter_weights(grading: tuple, length: int) -> tuple:
    """The weight eps_i - eps_j of each letter, as one integer.

    A sum of at most `length` letter weights has coordinates in
    [-length, length], so it is determined by its value in the balanced
    base 2 * length + 1; a word of at most `length` letters has weight 0
    exactly when its letter weights sum to 0.
    """
    base = 2 * length + 1
    return tuple(base**i - base**j for i, j in grading)


def _weight_zero_words(weights: tuple, length: int) -> int:
    """The number of words of `length` letters whose weights sum to 0.

    The sums of each half of a word are counted separately and paired by
    opposite value.
    """
    letters = {}
    for w in weights:
        letters[w] = letters.get(w, 0) + 1
    sums = [{0: 1}]
    for _ in range((length + 1) // 2):
        step = {}
        for s, k in sums[-1].items():
            for w, m in letters.items():
                step[s + w] = step.get(s + w, 0) + k * m
        sums.append(step)
    tail = sums[(length + 1) // 2]
    return sum(k * tail.get(-s, 0) for s, k in sums[length // 2].items())


def _corner(pairs, idem: list, grading: tuple) -> tuple:
    """The letters of a full corner eAe, in basis order.

    ``pairs[a][b]`` lists the (c, v) with e_a e_b = sum v e_c, ``grading``
    gives each letter's Peirce indices, and ``idem[i]`` is the letter of
    e_i.  e is the sum of the Peirce idempotents that are kept.
    Idempotent e_j is dropped, last index first, when letters x of e_j A e_i and y of
    e_i A e_j, with e_i kept, multiply to exactly c e_j with c != 0: then
    e_j = c^-1 x e_i y lies in A e_i A, and each dropped idempotent lies in
    AeA by induction over the drops, so AeA = A.  The letters of eAe are
    those whose two Peirce indices are both kept; products of such letters
    stay among them.  The trivial grading has one index, so every letter
    is kept.
    """
    space = {}
    for a, pq in enumerate(grading):
        space.setdefault(pq, []).append(a)
    kept = {i for i, _ in grading}
    for j in sorted(kept, reverse=True):
        if any(
            [c for c, _ in pairs[x][y]] == [idem[j]]
            for i in kept - {j}
            for x in space.get((j, i), ())
            for y in space.get((i, j), ())
        ):
            kept.discard(j)
    return tuple(a for a, (i, j) in enumerate(grading) if i in kept and j in kept)


def _cell(word, dim: int):
    """(row, negate) of the cell of `word` in C^lambda_n, or None when killed.

    The cell's word is the least rotation of `word`; rotating k letters to
    the left reaches it, and in C^lambda_n the word is (-1)^(nk) times it.
    Two such k of opposite parity when n is odd mean a rotation sends the
    cell to its negative, and the cell is killed.  The row is the flat
    index of the least rotation.
    """
    n = len(word) - 1
    turns = [word[k:] + word[:k] for k in range(n + 1)]
    rep = min(turns)
    ks = [k for k, w in enumerate(turns) if w == rep]
    if n % 2 and any((k - ks[0]) % 2 for k in ks):
        return None
    return _flat(rep, dim), (n * ks[0]) % 2 == 1


class _Lookup(dict):
    """Cells of the words of one degree, computed on first lookup."""

    def __init__(self, dim: int):
        super().__init__()
        self.dim = dim

    def __missing__(self, word):
        cell = self[word] = _cell(word, self.dim)
        return cell


def _classes(dim: int) -> dict:
    """An empty memo, word -> `_cell`, for the words of one degree."""
    return _Lookup(dim)


def _necklaces(weights: tuple, length: int):
    """(word, p) for each least rotation of a weight-0 word of `length` letters, in word order.

    ``weights[a]`` is the weight of letter a.  The FKM algorithm
    (Fredricksen-Kessler-Maiorana) extends a prenecklace of period p by
    its letter p places back, keeping the period, or by a larger letter,
    which makes the whole prefix the period; a prenecklace whose period
    divides the length is the least rotation of its class, and p is then
    its least period (Cattell, Ruskey, Sawada, Serra and Miers,
    J. Algorithms 37, 2000).  A prefix is pruned when no word of the
    remaining length has the opposite weight.
    """
    dim, letters = len(weights), set(weights)
    # reach[r] holds the weights of the words of r letters
    reach = [{0}]
    for _ in range(length - 1):
        reach.append({s + w for s in reach[-1] for w in letters})
    word = [0] * (length + 1)  # word[0] stands before the first letter

    def extend(t: int, p: int, total: int):
        if t > length:
            if length % p == 0:
                yield tuple(word[1:]), p
            return
        need = reach[length - t]
        back = word[t - p]
        for a in range(back, dim):
            s = total + weights[a]
            if -s in need:
                word[t] = a
                yield from extend(t + 1, p if a == back else t, s)

    return extend(1, 1, 0)


def _cells(weights: tuple, n: int):
    """The least word of each weight-0 cell of C^lambda_n that is not killed, in word order.

    A necklace of least period p is fixed by the rotations by multiples of
    p, and rotating by p letters multiplies it by (-1)^(np) in
    C^lambda_n, so it is killed exactly when n p is odd (as `_cell` finds
    from all of its rotations).
    """
    return (word for word, p in _necklaces(weights, n + 1) if n * p % 2 == 0)


def _columns(tables: tuple, n: int, word, classes) -> list:
    """Integer columns of L * b on `word`, from C_n to C^lambda_{n-1}.

    ``tables`` is an integer table (re, im) from `_int_table` and
    ``classes`` maps each word of C_{n-1} to (row, negate), or None when
    killed.  A real algebra gives one column; a Gaussian one gives the two
    real columns of the realification (the images of the word and of i
    times it), with imaginary parts in rows shifted by dim^n.
    """
    parts = []
    for pairs in tables:
        if pairs is None:
            continue
        col = {}
        for w, v in _op_terms(pairs, 1, "b", word):
            cell = classes[w]
            if cell is not None:
                r, negate = cell
                col[r] = col.get(r, 0) + (-v if negate else v)
        parts.append({r: v for r, v in col.items() if v})
    if len(parts) == 1:
        return parts
    re_col, im_col = parts
    shift = len(tables[0]) ** n
    return [
        {**re_col, **{r + shift: v for r, v in im_col.items()}},
        {**{r + shift: v for r, v in re_col.items()}, **{r: -v for r, v in im_col.items()}},
    ]


def _reduce_degree(tables: tuple, n: int, cells: list, classes, below: dict, keep: bool):
    """(rank, mode, columns) of b: C^lambda_n -> C^lambda_{n-1} on the given cells.

    Each cell's columns (`_columns`, with ``classes`` the degree-(n-1)
    memo) are built once.  For n >= 2 they are first checked for
    b o b = 0 against ``below``, the columns of degree n-1 keyed by the
    flat index of each cell's least word, which is the row that cell has
    here; a realified column's row past dim^n is the image of i times
    that cell, the cell's second column.  The check runs on every cell
    when there are at most `_SQUARE_CHECK_LIMIT` of them, and otherwise on
    64 random ones; mode says which.  The columns are then reduced by
    `reduce_column`, which leaves them unchanged, so with ``keep`` they
    are returned, keyed the same way, for the check of degree n+1.
    """
    dim = len(tables[0])
    shift = dim**n
    sampled = len(cells) > _SQUARE_CHECK_LIMIT
    checked = set(random.Random(2026 * n + dim).sample(cells, 64)) if sampled else None
    pivots, kept = {}, {}
    for word in cells:
        cols = _columns(tables, n, word, classes)
        if n >= 2 and (checked is None or word in checked):
            acc = {}
            for r, v in cols[0].items():
                for r2, v2 in below[r % shift][r // shift].items():
                    acc[r2] = acc.get(r2, 0) + v * v2
            if any(acc.values()):
                raise RuntimeError(f"b o b is nonzero at level {n} on word {word}")
        if keep:
            kept[_flat(word, dim)] = cols
        for col in cols:
            if col:
                reduce_column(col, pivots)
    rank = len(pivots)
    if tables[1] is not None:
        if rank % 2:
            raise RuntimeError("realified rank is odd; exact reduction is broken")
        rank //= 2
    return rank, "sampled" if sampled else "full", kept


_SQUARE_CHECK_LIMIT = 50000

# Degree T of the chain complex has this many weight-0 words at most, in
# the corner's letters before it is split; past it, hp_homology is an
# input error.  Words are a loose proxy for the cost, which is elimination
# fill-in on the cells that survive the reductions.  On one pinned CPU
# (2 vCPUs, Python 3.11.7) the slowest admitted run known is the u^2 = i
# algebra at T = 18 (2^19 words, realified), about 52 s, against 1.5 s
# for dual numbers at T = 18; once split, Q(i)[Z/5] at T = 7 (5^8 words)
# takes about 3.5 s and Q(i)[S3] at T = 6 (6^7 words) under 10 ms.
MAX_CHAIN_WORDS = 2**19

# A corner of one letter (M_r, the ground field) has one word per degree,
# so the word bound never fires; its columns have n terms of n letters,
# and the work grows like T^3.  From two letters on, MAX_CHAIN_WORDS binds
# first (at T = 19 at the latest): two weight-0 letters alone make 2^(T+1)
# weight-0 words.
MAX_TRUNCATION = 64


def _int_table(pairs, letters: tuple) -> tuple:
    """b's integer table (re, im) on the letters ``letters``, renumbered in their order.

    ``pairs[a][b]`` lists the (c, v) with e_a e_b = sum v e_c.  b is
    linear in the structure constants, so L * b has the rank of b,
    with L the lcm of the denominators of the letters' products; their
    products must stay among them.  A constant (a + b i)/d becomes
    a L/d in re and b L/d in im.  im is None when those products are all
    real, and the complex is then not realified.
    """
    new = {a: k for k, a in enumerate(letters)}
    products = [[pairs[a][b] for b in letters] for a in letters]
    triples = [v.triple for row in products for p in row for _, v in p]
    scale = math.lcm(*(t[2] for t in triples))

    def table(part):
        return tuple(
            tuple(
                tuple((new[c], t[part] * (scale // t[2])) for c, v in p if (t := v.triple)[part])
                for p in row
            )
            for row in products
        )

    return table(0), table(1) if any(t[1] for t in triples) else None


def _rank_table(pairs, letters: tuple, weights: tuple, truncation: int):
    """Ranks of b, cell counts and the square-check mode of weight-0 C^lambda up to T.

    The complex is built on the letters ``letters`` of the product table
    ``pairs`` alone (`_int_table`), with ``weights`` their letter weights.
    Each degree is one pass (`_reduce_degree`): its cells come from the necklaces and
    their periods, and each cell's columns of b serve both the b o b check
    and the rank.  The memo of degree n-1 (`_classes`) and the columns of
    degree n-1 live only while degree n is reduced.
    """
    tables = _int_table(pairs, letters)
    ranks, cells, modes, below = [0], [], [], {}
    for n in range(truncation + 1):
        words = list(_cells(weights, n))
        cells.append(len(words))
        # b vanishes on C_0
        if n:
            rank, mode, below = _reduce_degree(
                tables, n, words, _classes(len(letters)), below, n < truncation
            )
            ranks.append(rank)
            if n >= 2:
                modes.append(mode)
    mode = "full" if all(m == "full" for m in modes) else "sampled"
    return tuple(ranks), tuple(cells), mode


class HPReport(NamedTuple):
    """Truncated periodic homology report: top even/odd dimensions."""

    truncation: int
    hp0: int
    hp1: int
    hc: tuple
    stabilized: bool
    previous: tuple
    boundary_check: str

    def to_json(self) -> dict:
        return {
            "truncation": self.truncation,
            "hp0": self.hp0,
            "hp1": self.hp1,
            "hc": list(self.hc),
            "stabilized": self.stabilized,
            "previous": list(self.previous) if self.previous else None,
            "boundary_check": self.boundary_check,
        }


def hp_homology(A: FinAlgebra, truncation: int = 6) -> HPReport:
    """Cyclic homology HC_0..HC_{T-1} of A, with T = `truncation`.

    HC_n is the homology of Connes' complex C^lambda (Loday, Cyclic
    Homology, Thm 2.1.5), so it needs the ranks of b up to degree T.  A is
    first cut to a full corner eAe (`_corner`), which has the same cyclic
    homology by Morita invariance (Loday, sections 1.2 and 2.2), and only
    the weight-0 block of the corner's Peirce grading is reduced (see the
    module docstring); an algebra without such a grading keeps every
    letter and gets the trivial grading through the same code.  The product
    of a corner of two or more letters is then rewritten in a basis of
    Peirce spaces of orthogonal idempotents (`blocks.split_corner`), and
    cut again: Q(i)[S3] falls from 6 letters to 3.  The report's
    (hp0, hp1) are the homology dimensions in the top even and odd degrees
    below T;
    `stabilized` records whether they agree with the pair two degrees
    down, which is the same comparison as rerunning at T - 2.
    `boundary_check` says whether b o b = 0 was verified on every cell of
    each C^lambda_n (n >= 2) or, past `_SQUARE_CHECK_LIMIT` cells, on 64
    sampled ones.  T above `MAX_TRUNCATION`, or more than `MAX_CHAIN_WORDS`
    words of weight 0 in degree T of the corner (counted before the split
    and before any table is built), is an InputError.
    """
    grading = _peirce_grading(A)
    idem = [a for a, v in enumerate(A.unit) if not v.is_zero()]
    return _hp(A, grading, _corner(A._pairs, idem, grading), truncation, split=True)


def _hp(
    A: FinAlgebra, grading: tuple, letters: tuple, truncation: int, split: bool = False
) -> HPReport:
    """The `hp_homology` report of A, computed on the basis letters ``letters``.

    ``grading`` is A's `_peirce_grading`, and ``letters`` spans a full
    corner of A, or is every letter of A.  With ``split``, a corner of two
    or more letters that passes the size guards is replaced by the full
    corner of `blocks.split_corner`'s product table, whose idempotents are
    the first letters of their (i, i) spaces.
    """
    if truncation < 2:
        raise InputError("truncation must be at least 2")
    if truncation > MAX_TRUNCATION:
        raise InputError(f"truncation {truncation} is above {MAX_TRUNCATION}")
    length = truncation + 1
    weights = _letter_weights(tuple(grading[a] for a in letters), length)
    # weights.count(0)^length <= count <= len(letters)^length bound the exact count
    if weights.count(0) ** length > MAX_CHAIN_WORDS or (
        len(letters) ** length > MAX_CHAIN_WORDS
        and _weight_zero_words(weights, length) > MAX_CHAIN_WORDS
    ):
        raise InputError(
            f"more than {MAX_CHAIN_WORDS} chain words of weight 0 in degree "
            f"{truncation}, on {len(letters)} of the {A.dim} basis letters"
        )
    pairs = A._pairs
    if split and len(letters) > 1:
        from .blocks import split_corner

        blocks = split_corner(A, letters, grading)
        if blocks is not None:
            pairs, grading = blocks
            idem = [grading.index((i, i)) for i in sorted({i for i, _ in grading})]
            letters = _corner(pairs, idem, grading)
            weights = _letter_weights(tuple(grading[a] for a in letters), length)
    ranks, cells, mode = _rank_table(pairs, letters, weights, truncation)
    hc = []
    for m in range(truncation):
        h = cells[m] - ranks[m] - ranks[m + 1]
        if h < 0:
            raise RuntimeError(f"negative homology dimension at degree {m}")
        hc.append(h)
    top = truncation - 1
    e = top if top % 2 == 0 else top - 1
    o = top if top % 2 == 1 else top - 1
    hp0, hp1 = hc[e], hc[o]
    if e - 2 >= 0 and o - 2 >= 0:
        previous = (hc[e - 2], hc[o - 2])
        stabilized = (hp0, hp1) == previous
    else:
        previous = ()
        stabilized = False
    return HPReport(truncation, hp0, hp1, tuple(hc), stabilized, previous, mode)


def morita_check(A: FinAlgebra, m: int = 2, truncation: int = 6) -> dict:
    """Compare hp_homology of A and of M_m(A) at the same truncation.

    Verdict is "pass"/"fail" on the component-wise comparison when both
    sides stabilized, and "not stabilized" otherwise.  The amplified side
    is reduced on every letter of M_m(A), not on its corner: that corner is
    A's own, so the check would compare A's corner with itself; nor is it
    split into idempotent blocks.
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


# ---------------------------------------------------------------------------
# entire growth


class NormSequence:
    """Descriptor of a chain-norm sequence n -> ||f_n||.

    kind "finite": the values tuple lists the norms, zero beyond it.
    kind "closed-form": ||f_n|| = scale * base^n * (n!)^fact_exponent
    * (floor(n/2)!)^half_fact_exponent.
    kind "samples": a measured prefix with unknown tail; only the numeric
    trend heuristic applies.
    """

    def __init__(
        self,
        kind: str,
        values: tuple = (),
        fact_exponent: int = 0,
        half_fact_exponent: int = 0,
        scale: Fraction = Fraction(1),
        geometric_base: Fraction = Fraction(1),
    ):
        if kind not in ("finite", "closed-form", "samples"):
            raise InputError(f"unknown norm sequence kind {kind!r}")
        if any(v < 0 for v in values):
            raise InputError("norm values must be nonnegative")
        if scale < 0:
            raise InputError("scale must be nonnegative")
        if geometric_base <= 0:
            raise InputError("geometric base must be positive")
        self.kind, self.values, self.scale, self.geometric_base = kind, values, scale, geometric_base
        self.fact_exponent, self.half_fact_exponent = fact_exponent, half_fact_exponent

    def norm_at(self, n: int) -> Fraction:
        if self.kind in ("finite", "samples"):
            return Fraction(self.values[n]) if n < len(self.values) else Fraction(0)
        value = self.scale * self.geometric_base**n
        if self.fact_exponent:
            value *= Fraction(math.factorial(n)) ** self.fact_exponent
        if self.half_fact_exponent:
            value *= Fraction(math.factorial(n // 2)) ** self.half_fact_exponent
        return value


_GEOM_TOKEN = re.compile(r"^(\d+)\^n$")


def parse_norm_pattern(text: str) -> NormSequence:
    """Parse a norm-sequence pattern.

    >>> parse_norm_pattern("1/fact").fact_exponent
    -1
    >>> parse_norm_pattern("floor-half-fact/fact").half_fact_exponent
    1
    >>> parse_norm_pattern("finite:1,2,3").kind
    'finite'
    """
    text = text.strip()
    if text.startswith("finite:"):
        body = text[len("finite:") :]
        try:
            values = tuple(Fraction(part.strip()) for part in body.split(",") if part.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad finite pattern: {exc}") from None
        return NormSequence("finite", values=values)
    parts = text.split("/")
    if len(parts) > 2 or not parts[0]:
        raise InputError(f"bad pattern {text!r}: use numerator or numerator/denominator")
    fact = 0
    half = 0
    scale = Fraction(1)
    base = Fraction(1)
    for side, sign in zip(parts, (1, -1)):
        for token in side.split("*"):
            token = token.strip()
            if not token:
                raise InputError(f"empty factor in pattern {text!r}")
            if token == "fact":
                fact += sign
            elif token == "floor-half-fact":
                half += sign
            elif token.isdecimal():
                if sign < 0 and int(token) == 0:
                    raise InputError("zero factor in the denominator")
                scale = scale * Fraction(int(token)) ** sign
            elif _GEOM_TOKEN.match(token):
                k = int(_GEOM_TOKEN.match(token).group(1))
                if k == 0:
                    raise InputError("geometric base must be positive")
                base = base * Fraction(k) ** sign
            else:
                raise InputError(f"unknown pattern factor {token!r}")
    if scale == 0:
        return NormSequence("finite", values=())
    return NormSequence(
        "closed-form",
        fact_exponent=fact,
        half_fact_exponent=half,
        scale=scale,
        geometric_base=base,
    )


def entirety(s: NormSequence, horizon: int = 40) -> dict:
    """Root-test classification of the weighted series sum c_n z^n.

    The weights are c_n = (n!/floor(n/2)!) * ||f_n||.  Closed-form
    descriptors are decided symbolically: with combined exponents
    E_f = fact_exponent + 1 and E_h = half_fact_exponent - 1 the n-th root
    of c_n grows like n^(E_f + E_h/2), so the sign of that degree decides,
    and at degree zero the limit is base * 2^(-E_h/2).  Sampled sequences
    fall back to the numeric trend of c_n^(1/n) over the horizon and are
    inconclusive unless the tail trend is monotone.
    """
    if horizon < 8:
        raise InputError("horizon must be at least 8")
    if s.kind == "finite":
        return {
            "verdict": "entire",
            "method": "finite-support",
            "radius": "inf",
        }
    if s.kind == "closed-form":
        if s.scale == 0:
            return {"verdict": "entire", "method": "root-test", "radius": "inf"}
        e_f = s.fact_exponent + 1
        e_h = s.half_fact_exponent - 1
        degree = Fraction(e_f) + Fraction(e_h, 2)
        report = {
            "method": "root-test",
            "growth_degree": rational_to_str(degree),
        }
        if degree < 0:
            report.update({"verdict": "entire", "radius": "inf"})
        elif degree > 0:
            report.update({"verdict": "not-entire", "radius": "0"})
        else:
            # limit of c_n^(1/n): the scale washes out, 2^(-E_h/2) survives
            if e_h % 2 == 0:
                limit = s.geometric_base * Fraction(2) ** (-e_h // 2)
                radius = rational_to_str(1 / limit)
                radius_value = float(1 / limit)
            else:
                limit_value = float(s.geometric_base) * 2.0 ** (-e_h / 2)
                radius = f"2^({e_h}/2)/{rational_to_str(s.geometric_base)}"
                radius_value = 1.0 / limit_value
            report.update(
                {
                    "verdict": "not-entire",
                    "radius": radius,
                    "radius_value": radius_value,
                }
            )
        return report
    roots = []
    for n in range(1, min(horizon + 1, len(s.values))):
        c = Fraction(math.factorial(n), math.factorial(n // 2)) * s.norm_at(n)
        roots.append(float(c) ** (1.0 / n) if c > 0 else 0.0)
    if len(roots) < 4:
        return {"verdict": "inconclusive", "method": "numeric-horizon", "reason": "too few samples"}
    tail = roots[len(roots) // 2 :]
    increasing = all(a < b for a, b in zip(tail, tail[1:]))
    decreasing = all(a > b for a, b in zip(tail, tail[1:]))
    if increasing:
        verdict = "not-entire"
    elif decreasing:
        verdict = "entire"
    else:
        verdict = "inconclusive"
    return {
        "verdict": verdict,
        "method": "numeric-horizon",
        "heuristic": True,
        "tail": tail[-4:],
    }
