"""Finite *-algebras and their truncated cyclic homology.

A `FinAlgebra` is a finite-dimensional unital *-algebra over the Gaussian
rationals, held as one sparse table of its structure constants: each
product e_a e_b, the unit and each e_a^* as the (index, coeff) pairs of
its nonzero coordinates, which every computation reads; only `to_json`
writes the dense form of the algebra files.  `_op_terms` is the one
word-level expansion of the operators b, b', lambda, N and S: the
boundary of Connes' complex (`orbitkit.connes`) and
`cyclic.apply_operator` are both built from it.

`hp_homology` first cuts A to a full corner eAe, with e a sum of Peirce
idempotents and AeA = A.  Cyclic homology is Morita invariant, so
HC(eAe) = HC(A) (Loday, Cyclic Homology, sections 1.2 and 2.2).  When
the unit is a sum of basis elements e_i (coefficient 1 each) that are
orthogonal idempotents and every basis element lies in exactly one
Peirce space e_i A e_j, the certificate is exact and read off the product
table: e_j is dropped when letters x of e_j A e_i and y of e_i A e_j,
with e_i kept, multiply to c e_j with c != 0, for then e_j = c^-1 x e_i y
lies in A e_i A.  M_r falls to one letter e_ii.  C^3 keeps its three
idempotents, which are not conjugate: a corner that dropped one would
report HC_0 = 1 instead of 3.  An algebra with no such basis gets the
trivial grading and keeps every letter.

A separable corner, one whose trace form is nondegenerate, has cyclic
homology in closed form, (h, 0, h, 0, ...) with h = HC_0, from two exact
ranks on its letters (`_separable_hc0`).  Every group algebra Q(i)[G] is
one, as are M_r, Q(i)^k and their sums.  Any other corner goes to
Connes' complex (`_hp`), which `orbitkit.connes` builds and reduces on
the weight-0 block of the Peirce grading: an element of e_i A e_j has
weight eps_i - eps_j, and a word the sum over its letters.  b and lambda
preserve weight, the inner derivation ad(sum t_i e_i) acts on weight w by
<t, w>, and inner derivations act by zero on HC (Loday, section 4.1), so
HC lies in weight 0 and the block gives all of it.  Before it is reduced,
a corner of two or more letters is rewritten in a basis of Peirce spaces
of orthogonal idempotents (`blocks.split_corner`), and cut again; the
complex reads only products, never the involution, so it is built from a
product table and its Peirce grading, whether loaded or split.  The
report's (hp0, hp1) are the top even and odd HC dimensions, with whether
they agree with the pair two degrees down.  They are not HP for an
algebra that is not semisimple: the dual numbers report hp0 = 2, but HP
is invariant under nilpotent extensions and HP_0 of the dual numbers is
1.

`cyclic hp` imports this module and not `cyclic`, so it compiles neither
the chains nor the constructors nor `entire`; a separable corner compiles
neither `connes` nor `blocks` either.
"""

from __future__ import annotations

import json
from functools import cache
from itertools import compress, repeat
from operator import ne
from typing import NamedTuple

from . import InputError
from .exactnum import GaussRational, gauss_rank, gauss_reader

_ZERO = GaussRational.zero()
_ONE = GaussRational.one()


def _check_row(row, dim: int, name: str) -> None:
    """Raise InputError, naming the row ``name``, unless it is a sparse row (see `FinAlgebra`)."""
    indices = [c for c, _ in row]
    if indices != sorted(set(indices)):
        raise InputError(f"{name} has indices out of increasing order")
    if indices and not 0 <= indices[0] <= indices[-1] < dim:
        raise InputError(f"{name} has an index outside 0..{dim - 1}")
    if any(v.is_zero() for _, v in row):
        raise InputError(f"{name} has a zero coefficient")


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

    The algebra is held as sparse rows, each a tuple of (c, v) pairs with
    c strictly increasing in 0..dim-1 and v nonzero: ``products[a][b]``
    lists the (c, v) with e_a e_b = sum v e_c, ``unit`` the (a, v) with
    1 = sum v e_a, and ``star[a]`` the (c, v) with e_a^* = sum v e_c,
    kept as `_pairs`, `unit` and `_star_pairs`; the involution is
    conjugate-linear, sum t_a e_a |-> sum conj(t_a) e_a^*.  The
    constructor checks the shapes before it allocates anything of size
    dim (`from_json` passes a row that is not dim entries long as None),
    then that every row is sparse, then associativity, the unit laws and
    the involution axioms on the basis, and raises InputError on any
    failure.

    `from_json` reads only the entries that differ from the JSON zero and
    parses each distinct spelling once.  Validation compares only the
    basis triples (a, b, c) where e_a e_b or e_b e_c is nonzero, passes a
    pair (a, b) with e_a e_b = 0 at once when e_a kills every e_m that a
    product e_b e_c reaches, compares two one-term sides with equal
    coefficients by their rows, and a product by the shared one() is
    free.
    """

    def __init__(self, dim: int, products: tuple, unit: tuple, star: tuple, basis: tuple = ()):
        if dim < 1:
            raise InputError("algebra dimension must be positive")
        d = dim
        if basis and len(basis) != d:
            raise InputError("basis label count does not match dim")
        if len(products) != d or any(len(plane) != d or None in plane for plane in products):
            raise InputError("multiplication table must be dim x dim x dim")
        if unit is None:
            raise InputError("unit vector must have length dim")
        if len(star) != d or None in star:
            raise InputError("involution matrix must be dim x dim")
        _check_row(unit, d, "unit")
        for a, row in enumerate(star):
            _check_row(row, d, f"involution of e_{a}")
        # inverse[c] lists the (a, b) whose product e_a e_b has a nonzero e_c
        # coefficient: the letter pairs that b, b' and S can merge into c
        inverse = [[] for _ in range(d)]
        for a, plane in enumerate(products):
            for b, row in enumerate(plane):
                if row:
                    _check_row(row, d, f"product e_{a} e_{b}")
                    for c, _ in row:
                        inverse[c].append((a, b))
        self._inverse_pairs = tuple(map(tuple, inverse))
        self.dim, self._pairs, self.unit, self._star_pairs = dim, products, unit, star
        self.basis = basis or _default_basis(d)
        self._validate()

    def _key(self) -> tuple:
        return self.dim, self._pairs, self.unit, self._star_pairs, self.basis

    def __eq__(self, other):
        return isinstance(other, FinAlgebra) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _validate(self):
        d, pairs, star, unit = self.dim, self._pairs, self._star_pairs, self.unit
        for b in range(d):
            e_b = {b: _ONE}
            if _combine((s, pairs[k][b]) for k, s in unit) != e_b:
                raise InputError(f"left unit law fails on basis vector {b}")
            if _combine((s, pairs[b][k]) for k, s in unit) != e_b:
                raise InputError(f"right unit law fails on basis vector {b}")
        # reach[k] holds the c with e_k e_c nonzero.  (e_a e_b) e_c and
        # e_a (e_b e_c) are both 0 unless c is in reach[b] or in reach[k] for
        # some e_k in the support of e_a e_b
        reach = [{c for c, row in enumerate(plane) if row} for plane in pairs]
        # image[b] holds the m with an e_m term in some e_b e_c: when e_a e_b
        # is 0 and e_a e_m is 0 for all of them, every triple (a, b, c) holds
        image = [{m for row in plane for m, _ in row} for plane in pairs]
        for a in range(d):
            pa = pairs[a]
            for b in range(d):
                ab, pb = pa[b], pairs[b]
                if not ab and reach[a].isdisjoint(image[b]):
                    continue
                # e_a e_b = s e_k, when it has one term
                k, s = ab[0] if len(ab) == 1 else (None, None)
                for c in sorted(reach[b].union(*(reach[x] for x, _ in ab))):
                    bc = pb[c]
                    # with e_b e_c = t e_m (or 0), s e_k e_c and t e_a e_m are
                    # equal when their rows are, and both are 0 or s = t
                    if len(ab) <= 1 and len(bc) <= 1:
                        left = pairs[k][c] if ab else ()
                        right = pa[bc[0][0]] if bc else ()
                        if left == right and (not left or s == bc[0][1]):
                            continue
                    left = _combine((v, pairs[x][c]) for x, v in ab)
                    if left != _combine((v, pa[x]) for x, v in bc):
                        raise InputError(
                            f"associativity fails on basis triple ({a}, {b}, {c})"
                        )
        for a in range(d):
            if self._star(star[a]) != {a: _ONE}:
                raise InputError(f"involution is not involutive on basis vector {a}")
        if self._star(unit) != dict(unit):
            raise InputError("involution does not fix the unit")
        for a in range(d):
            pa, sa = pairs[a], star[a]
            for b in range(d):
                sb = star[b]
                # for one-term e_b^* = s e_q and e_a^* = t e_p (s t != 0), a
                # zero e_a e_b holds when e_q e_p is 0
                if not pa[b] and len(sa) == len(sb) == 1 and not pairs[sb[0][0]][sa[0][0]]:
                    continue
                left = self._star(pa[b])
                right = self._mul(sb, sa)
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

    def to_json(self) -> dict:
        """The dense JSON form: one dict per distinct coefficient, and one list for every zero row."""
        entry = cache(GaussRational.to_json)
        zero = [entry(_ZERO)] * self.dim

        def row(pairs):
            out = list(zero) if pairs else zero
            for c, v in pairs:
                out[c] = entry(v)
            return out

        return {
            "dim": self.dim,
            "basis": list(self.basis),
            "mult": [list(map(row, plane)) for plane in self._pairs],
            "unit": row(self.unit),
            "star": list(map(row, self._star_pairs)),
        }

    @staticmethod
    def from_json(data: dict) -> "FinAlgebra":
        dim = data.get("dim") if isinstance(data, dict) else None
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise InputError("algebra file needs an integer 'dim'")
        read = gauss_reader()
        zero = {"im": "0", "re": "0"}

        def row(entries):
            # the sparse row of a dense one, or None when it is not dim entries
            # long; only the entries that differ from the JSON zero are read, in
            # order, so the first bad entry raises as in a read of every entry
            if not isinstance(entries, list):
                raise TypeError("'mult', 'unit', 'star' and their rows must be JSON arrays")
            nonzero = compress(range(len(entries)), map(ne, entries, repeat(zero)))
            out = tuple((c, v) for c in nonzero if (v := read(entries[c])) is not _ZERO)
            return out if len(entries) == dim else None

        try:
            mult = tuple(tuple(map(row, plane)) for plane in data["mult"])
            unit = row(data["unit"])
            star = tuple(map(row, data["star"]))
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


# ---------------------------------------------------------------------------
# the word-level expansion of the operators


def _op_terms(pairs, one, kind: str, word) -> list:
    """Expand b, b', lambda, N or S on a basis word into [(word, coeff)].

    This is the one word-level expansion of the operators:
    `cyclic.apply_operator` calls it with the Gaussian-rational table, and
    Connes' complex with the integer table `connes._int_table`.  ``pairs[a][b]``
    lists the (c, v) with e_a e_b = sum v e_c and ``one`` is the unit of
    the coefficient ring.  Terms are not collected, so one word may appear
    more than once.
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


# ---------------------------------------------------------------------------
# corners, and the closed form of a separable one


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
    idem = [a for a, _ in A.unit]
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


def _separable_hc0(pairs, letters: tuple):
    """HC_0 of the corner spanned by ``letters`` when the corner is separable, else None.

    ``pairs[a][b]`` lists the (c, v) with e_a e_b = sum v e_c, and the
    letters' products stay among them.  By Dickson's criterion the radical
    of a finite-dimensional algebra in characteristic 0 is the kernel of
    its trace form t(x, y) = tr L_{xy}, with L the left multiplication
    (Curtis and Reiner, 1962), so the corner is semisimple exactly when t
    has full rank on its letters; Q(i) is perfect, so it is then
    separable.  HC_0 = HH_0 is the corner modulo its commutators, of
    dimension the letters minus the rank of the e_a e_b - e_b e_a.  Both
    ranks are `exactnum.gauss_rank`'s, on sparse rows.
    """
    # trace[x] = tr L_{e_x}, the sum over the letters y of the e_y coefficient of e_x e_y
    trace = {x: sum((v for y in letters for c, v in pairs[x][y] if c == y), _ZERO) for x in letters}
    form = (
        {b: t for b in letters if (t := sum((v * trace[c] for c, v in pairs[a][b]), _ZERO))}
        for a in letters
    )
    if gauss_rank(form) < len(letters):
        return None
    commutators = (
        _combine(((_ONE, pairs[a][b]), (-_ONE, pairs[b][a])))
        for a in letters
        for b in letters
        if a < b and pairs[a][b] != pairs[b][a]
    )
    return len(letters) - gauss_rank(commutators)


# Degree T of Connes' complex has this many weight-0 words at most, in the
# corner's letters before it is split; past it, hp_homology is an input
# error on a corner that is not separable.  Elimination fill-in, not the
# word count, sets the cost: on one pinned CPU (2 vCPUs, Python 3.11.7)
# dual numbers at T = 18 (2^19 words) take 1.5-2.3 s, but k[x]/(x^10) in
# the basis 1, x + x^2, ..., x^8 + x^9, x^9 takes 127 s at T = 4 (10^5 words).
# A separable corner, such as the u^2 = i algebra or Q(i)[Z/5], never
# reaches the complex and is admitted at every T up to MAX_TRUNCATION.
MAX_CHAIN_WORDS = 2**19

# A separable corner costs two ranks on its letters at every T, and the
# closed form writes T numbers.  A corner that is not separable has two
# letters or more (a one-letter corner is Q(i)), so MAX_CHAIN_WORDS binds
# first there (at T = 19 at the latest): two weight-0 letters alone make
# 2^(T+1) weight-0 words.
MAX_TRUNCATION = 64


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

    A is first cut to a full corner eAe (`_corner`), which has the same
    cyclic homology by Morita invariance (Loday, Cyclic Homology, sections
    1.2 and 2.2).  When the corner is separable (`_separable_hc0`), as
    every group algebra Q(i)[G] is by Maschke's theorem, HH_n vanishes for
    n > 0, so Connes' SBI sequence gives HC_n = HC_{n-2} for n >= 2 and
    HC_1 = 0: hc is (h, 0, h, 0, ...) with h = HC_0, and no complex is
    built.  Otherwise HC_n is the homology of Connes' complex C^lambda
    (Loday, Thm 2.1.5), reduced by `_hp` up to degree T on the weight-0
    block of the corner's Peirce grading (see the module docstring).  The
    report's (hp0, hp1) are the homology dimensions in the top even and
    odd degrees below T; `stabilized` records whether they agree with the
    pair two degrees down, which is the same comparison as rerunning at
    T - 2.  `boundary_check` is "separable" when the closed form gave hc,
    and "full" when Connes' complex gave it, for b o b = 0 is then checked
    on every cell of each C^lambda_n (n >= 2).  T below 2 or above
    `MAX_TRUNCATION` is an InputError, checked before anything else.
    """
    if truncation < 2:
        raise InputError("truncation must be at least 2")
    if truncation > MAX_TRUNCATION:
        raise InputError(f"truncation {truncation} is above {MAX_TRUNCATION}")
    grading = _peirce_grading(A)
    idem = [a for a, _ in A.unit]
    letters = _corner(A._pairs, idem, grading)
    h = _separable_hc0(A._pairs, letters)
    if h is not None:
        return _report(tuple(0 if m % 2 else h for m in range(truncation)), "separable")
    return _hp(A, grading, letters, truncation, split=True)


def _hp(
    A: FinAlgebra, grading: tuple, letters: tuple, truncation: int, split: bool = False
) -> HPReport:
    """The `hp_homology` report of A from Connes' complex on the basis letters ``letters``.

    ``grading`` is A's `_peirce_grading`, ``letters`` spans a full corner
    of A, or is every letter of A, and ``truncation`` is one that
    `hp_homology` admits.  More than `MAX_CHAIN_WORDS` words of weight 0
    in degree T on ``letters`` is an InputError, raised before any table
    is built.  With ``split``, a corner of two or more letters that passes
    the word bound is replaced by the full corner of
    `blocks.split_corner`'s product table, whose idempotents are the first
    letters of their (i, i) spaces.  `connes` is imported here, so only a
    command that reduces the complex compiles it.
    """
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
    from .connes import _rank_table

    ranks, cells = _rank_table(pairs, letters, weights, truncation)
    hc = []
    for m in range(truncation):
        h = cells[m] - ranks[m] - ranks[m + 1]
        if h < 0:
            raise RuntimeError(f"negative homology dimension at degree {m}")
        hc.append(h)
    return _report(tuple(hc), "full")


def _report(hc: tuple, mode: str) -> HPReport:
    """The report of HC_0..HC_{T-1} = hc, with T = len(hc) and boundary check ``mode``."""
    top = len(hc) - 1
    e = top if top % 2 == 0 else top - 1
    o = top if top % 2 == 1 else top - 1
    hp0, hp1 = hc[e], hc[o]
    if e - 2 >= 0 and o - 2 >= 0:
        previous = (hc[e - 2], hc[o - 2])
        stabilized = (hp0, hp1) == previous
    else:
        previous = ()
        stabilized = False
    return HPReport(len(hc), hp0, hp1, hc, stabilized, previous, mode)
