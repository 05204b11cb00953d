"""Splitting a corner of a finite algebra into idempotent blocks.

`homology.hp_homology` imports this module only for a corner of two or more
letters that is not separable, so the commands that never split compile
none of it.  Such a corner can still hold orthogonal idempotents that its
basis does not show, as Pauli M2 (x) dual numbers = M2(dual numbers)
does; in their Peirce basis the corner is cut again, and cyclic homology,
Morita invariant and additive over blocks (Loday, Cyclic Homology,
sections 1.2 and 2.2), depends only on the product, so the split reads
no involution.  `split_corner` refines the corner's unit into orthogonal
idempotents, first into the terms of its basis expansion, then into the
eigen-idempotents of f z f for each kept idempotent f and each letter z:
polynomials in f z f, one for each simple root of its minimal polynomial
in Q(i), and one remainder for the factors with no root, with no
polynomial factoring.  Each refinement is kept only once its pieces are
checked exactly to be idempotents summing to f, which makes them
orthogonal.  The corner's product is then rewritten in a basis of the
Peirce spaces e_i A e_j, through the exact inverse of the change of
basis.  Each step is exact, so a homology computed on the result is
still a theorem.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .homology import FinAlgebra, _combine
from .exactnum import GaussRational, gauss_columns, reduce_column

_ZERO = GaussRational.zero()
_ONE = GaussRational.one()


class _Span:
    """A basis over Q(i) of sparse vectors, grown by `reduce_column` on realified columns.

    Basis vector t enters as two integer columns, v and i v, scaled by the
    lcm L of v's denominators (`exactnum.gauss_columns`), with rows r and
    r + ``shift`` holding the real and imaginary parts of coordinate r and
    L in tag rows -1-2t and -2-2t; every column's data rows are then the
    sum of tag_t times the unscaled column t.
    """

    def __init__(self, shift: int):
        self.shift, self.pivots, self.size = shift, {}, 0

    def add(self, v: dict):
        """Add v and return None when it is independent, else its coordinates {t: c}."""
        t = self.size
        scale, col, icol = gauss_columns(v, self.shift)
        col[-1 - 2 * t] = scale
        left = reduce_column(col, self.pivots)
        if left is not None:
            own = -left.pop(-1 - 2 * t)
            tags = ((s, left.get(-1 - 2 * s, 0), left.get(-2 - 2 * s, 0)) for s in range(t))
            return {
                s: GaussRational(Fraction(x, own), Fraction(y, own)) for s, x, y in tags if x or y
            }
        icol[-2 - 2 * t] = scale
        reduce_column(icol, self.pivots)
        self.size += 1
        return None


def _eigen_idempotents(A: FinAlgebra, f: dict, w: dict) -> list:
    """The eigen-idempotents of w in fAf for its simple roots in Q(i), then one remainder.

    The minimal polynomial p of w over Q(i) comes from its exact powers
    f, w, w^2, ... (`_Span`).  s^m p(y / s), with s the lcm of p's
    denominators, is monic over Z[i], so its roots in Q(i) are Gaussian
    integers that divide its lowest nonzero coefficient; each candidate
    is tested by Horner's rule, which also gives g = p / (t - root).  A
    simple root has g(root) != 0, and g(w) / g(root) is its idempotent.
    f minus their sum covers the factors with no root.  Returns [f] when
    this gives fewer than two nonzero pieces, or when the lowest
    coefficient's norm is above `_MAX_ROOT_NORM`.
    """
    span, powers, x = _Span(A.dim), [], f
    while (coords := span.add(x)) is None:
        powers.append(x)
        x = A._mul(x.items(), w.items())
    m = len(powers)
    if m < 2:
        return [f]
    p = [-coords.get(t, _ZERO) for t in range(m)] + [_ONE]
    s = math.lcm(*(c.triple[2] for c in p))
    a, b, _ = next(c for c in (c * s ** (m - j) for j, c in enumerate(p)) if c).triple
    norm = a * a + b * b
    if norm > _MAX_ROOT_NORM:
        return [f]
    r, pieces = math.isqrt(norm), []
    for a, b in itertools.product(range(-r, r + 1), repeat=2):
        if norm % (a * a + b * b) if a or b else not p[0].is_zero():
            continue
        root = GaussRational(Fraction(a, s), Fraction(b, s))
        g = _horner(p[::-1], root)
        if g.pop().is_zero() and (value := _horner(g, root)[-1]):
            u, v, d = value.triple
            inv = GaussRational(Fraction(u * d, u * u + v * v), Fraction(-v * d, u * u + v * v))
            pieces.append(_combine((c * inv, powers[j].items()) for j, c in enumerate(g[::-1])))
    rest = _combine([(_ONE, f.items())] + [(-_ONE, q.items()) for q in pieces])
    pieces += [rest] if rest else []
    return pieces if len(pieces) > 1 else [f]


def _horner(coeffs: list, x) -> list:
    """Horner's partial sums on coefficients listed high to low.

    The last is the value at x; the others are the coefficients of the
    quotient by (t - x), high to low.
    """
    out, value = [], _ZERO
    for c in coeffs:
        value = value * x + c
        out.append(value)
    return out


# `_eigen_idempotents` tries the Gaussian integers of norm up to this many
# as roots; a minimal polynomial with a larger lowest coefficient is left
# unsplit.  A group element's is 1.
_MAX_ROOT_NORM = 1024


def split_corner(A: FinAlgebra, letters: tuple, grading: tuple):
    """The product of the corner spanned by ``letters`` in a basis of Peirce spaces, or None.

    The corner's unit e is refined into orthogonal idempotents: first
    into the terms of its basis expansion, then, letter z by letter z,
    each idempotent f into the eigen-idempotents of f z f in fAf
    (`_eigen_idempotents`).  A refinement is kept only when its pieces
    are checked exactly to be idempotent and to sum to f; that makes them
    pairwise orthogonal.  The new basis is, for each e_i, a basis of each
    e_i A e_j picked from the products e_i x e_j, with e_i the first
    letter of (i, i).  P, the matrix of its vectors, has independent
    columns that span the corner, and is inverted once (`_Span`).
    Returns (table, side): ``table[a][b]`` lists the (c, v) with
    P^-1 (P_a P_b) = sum v e_c, an exact copy of the corner's product,
    and ``side[a]`` is the (i, j) of letter a.  None when the refinement
    finds no idempotent beyond the grading's.
    """
    e = {a: v for a, v in A.unit if a in letters}

    def mul(x, y):
        return A._mul(x.items(), y.items())

    def refine(f, pieces):
        # idempotents q_i summing to the idempotent f are orthogonal: with L_x
        # the left multiplication on A, rank L_f = tr L_f = sum tr L_q = sum
        # rank L_q in characteristic 0, so the images q_i A form a direct
        # sum, and q_i q_j = L_q_i L_q_j 1 = 0 for i != j
        exact = len(pieces) > 1 and _combine((_ONE, q.items()) for q in pieces) == f and all(
            mul(q, q) == q for q in pieces
        )
        return pieces if exact else [f]

    idempotents = refine(e, [{a: v} for a, v in e.items()])
    for z in letters:
        idempotents = [
            q
            for f in idempotents
            for q in refine(f, _eigen_idempotents(A, f, mul(mul(f, {z: _ONE}), f)))
        ]
    if len(idempotents) == len({i for a in letters for i in grading[a]}):
        return None
    # basis[a] lies in e_i A e_j for (i, j) = side[a], and e_i comes first there
    span, basis, side = _Span(A.dim), [], []
    for i, f in enumerate(idempotents):
        left, rows = _Span(A.dim), []
        for x in [f] + [mul(f, {z: _ONE}) for z in letters]:
            if left.add(x) is None:
                rows.append(x)
        for j, g in enumerate(idempotents):
            space = [y for y in (mul(x, g) for x in rows) if span.add(y) is None]
            basis += space
            side += [(i, j)] * len(space)
    # each corner letter z = sum e_i z e_j lies in the span, so it has coordinates
    inverse = {c: span.add({c: _ONE}) for c in letters}

    def product(a, b):
        if side[a][1] != side[b][0]:
            return ()
        x = mul(basis[a], basis[b])
        return tuple(sorted(_combine((v, inverse[c].items()) for c, v in x.items()).items()))

    return [[product(a, b) for b in range(len(basis))] for a in range(len(basis))], side
