"""Connes' complex of a product table: its cells, the columns of b and their ranks.

`homology._hp` imports this module only when it reduces the complex, so a
`cyclic hp` whose corner is separable compiles none of it.  HC is computed
in characteristic 0 as the homology of

    C^lambda_n = C_n(A) / (1 - lambda),   differential b,

whose cells are the rotation classes of words that are not killed (a class
is killed when a rotation returns its word with sign -1).  A cell is
listed once, as a necklace (the least rotation of its words) with its
least period p, and it is killed exactly when n p is odd.  Only the
weight-0 block of the corner's Peirce grading is reduced (see
`homology`).

Ranks are computed exactly by streaming each column of b through
`exactnum.reduce_column`, the package's one integer column reduction: b is
linear in the structure constants, so it runs on one integer table built
on the corner's letters and scaled by the lcm of their products'
denominators (`_int_table`), and a corner with imaginary products is
realified in `exactnum.realify`'s layout (rank over Q(i) is half the
real rank of the doubled matrix).  Each degree is reduced in one pass:
a cell's columns are built once, checked for b o b = 0 (Loday, Cyclic
Homology, section 2.1) against the kept columns of the degree below,
and then reduced; every cell is checked.
"""

from __future__ import annotations

import math

from .exactnum import realify, reduce_column
from .homology import _op_terms


def _flat(word, dim: int) -> int:
    r = 0
    for a in word:
        r = r * dim + a
    return r

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


def _columns(tables: tuple, n: int, word, classes) -> list | tuple:
    """Integer columns of L * b on `word`, from C_n to C^lambda_{n-1}.

    ``tables`` is an integer table (re, im) from `_int_table` and
    ``classes`` maps each word of C_{n-1} to (row, negate), or None when
    killed.  A real algebra gives one column; a Gaussian one gives the two
    real columns of the realification (the images of the word and of i
    times it, `exactnum.realify`), with imaginary parts in rows shifted by
    dim^n.
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
    return realify(*parts, len(tables[0]) ** n)


def _reduce_degree(tables: tuple, n: int, cells: list, classes, below: dict, keep: bool):
    """(rank, columns) of b: C^lambda_n -> C^lambda_{n-1} on the given cells.

    Each cell's columns (`_columns`, with ``classes`` the degree-(n-1)
    memo) are built once.  For n >= 2 every cell's columns are first
    checked for b o b = 0 against ``below``, the columns of degree n-1
    keyed by the flat index of each cell's least word, which is the row
    that cell has here; a realified column's row past dim^n is the image
    of i times that cell, the cell's second column.  A nonzero b o b is a
    RuntimeError.  The columns are then reduced by `reduce_column`, which
    leaves them unchanged, so with ``keep`` they are returned, keyed the
    same way, for the check of degree n+1.
    """
    dim = len(tables[0])
    shift = dim**n
    pivots, kept = {}, {}
    for word in cells:
        cols = _columns(tables, n, word, classes)
        if n >= 2:
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
    return rank, kept


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
    """Ranks of b and cell counts of weight-0 C^lambda up to T.

    The complex is built on the letters ``letters`` of the product table
    ``pairs`` alone (`_int_table`), with ``weights`` their letter weights.
    Each degree is one pass (`_reduce_degree`): its cells come from the necklaces and
    their periods, and each cell's columns of b serve both the b o b check
    and the rank.  The memo of degree n-1 (`_Lookup`) and the columns of
    degree n-1 live only while degree n is reduced.
    """
    tables = _int_table(pairs, letters)
    ranks, cells, below = [0], [], {}
    for n in range(truncation + 1):
        words = list(_cells(weights, n))
        cells.append(len(words))
        # b vanishes on C_0
        if n:
            rank, below = _reduce_degree(
                tables, n, words, _Lookup(len(letters)), below, n < truncation
            )
            ranks.append(rank)
    return tuple(ranks), tuple(cells)
