"""Exact scalar types and dense exact linear algebra.

Scalars are Gaussian rationals ``(a + b*i)/d``, each held as one
canonical triple of Python ints (d > 0, gcd(a, b, d) = 1), so arithmetic
costs integer operations and at most one gcd per result (Knuth, TAOCP
Vol. 2, section 4.5.1); their parts read back as
:class:`fractions.Fraction`.  The package's one elimination is
:func:`reduce_column`, a sparse column reduction over the integers, run
by Connes' complex and by :class:`ExactMatrix` over Q, whose every query
is read off a reduction of its tagged columns.  A Gaussian vector enters
it as the two columns of :func:`realify`, the one realified layout;
:func:`gauss_rank`, the rank over Q(i), is half the rank they give.  No
floating point is involved anywhere in this module.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from fractions import Fraction
from typing import Callable, Sequence, Union

__all__ = [
    "GaussRational",
    "ExactMatrix",
    "gauss_columns",
    "gauss_rank",
    "gauss_reader",
    "realify",
    "reduce_column",
    "rational_to_str",
    "rational_from_str",
]

RationalLike = Union[int, Fraction]


def rational_to_str(x: Fraction) -> str:
    """Serialize a rational number as ``"p"`` or ``"p/q"``.

    >>> rational_to_str(Fraction(3, 4))
    '3/4'
    >>> rational_to_str(Fraction(-2))
    '-2'
    """
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# the decimal exponent of a Fraction literal such as "1.5e-3"
_EXPONENT = re.compile(r"e[-+]?(\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def rational_from_str(s: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"`` back to a Fraction.

    Any literal :class:`~fractions.Fraction` accepts is read, but a
    decimal exponent above Python's int-string digit limit (4300 by
    default) is a ValueError, because ``10**e`` would take minutes to
    build, and so is a numerator or denominator with more digits than
    the limit, because `rational_to_str` could not write it back.

    >>> rational_from_str("3/4")
    Fraction(3, 4)
    >>> rational_from_str("-2")
    Fraction(-2, 1)
    """
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    exponent = _EXPONENT.search(s)
    if exponent:
        digits = exponent[1].replace("_", "").lstrip("0")
        if len(digits) > len(str(limit)) or int(digits or 0) > limit:
            raise ValueError(f"decimal exponent above {limit} in {s!r}")
    try:
        x = Fraction(s.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None
    # 8**limit < 10**limit, so only a part longer than 3 * limit bits can
    # reach 10**limit, the least number with limit + 1 digits
    big = max(abs(x.numerator), x.denominator)
    if big.bit_length() > 3 * limit and big >= 10**limit:
        raise ValueError(f"numerator or denominator above {limit} digits in {s!r}")
    return x


class GaussRational:
    """A Gaussian rational ``(a + b*i)/d``, held as one triple of ints.

    The triple is canonical: d > 0 and gcd(a, b, d) = 1, so equal values
    have equal triples, and ``==`` and ``hash`` compare triples.  Sums and
    products take integer operations and at most one `math.gcd` per
    result, and none when both denominators are 1 (Gaussian integers).
    ``re`` and ``im`` are the parts as Fractions.  As with Fraction, no
    method changes a value once it is built.

    >>> z = GaussRational(Fraction(1, 2), Fraction(-1, 3))
    >>> z.triple
    (3, -2, 6)
    >>> z * z.conjugate()
    GaussRational(re=Fraction(13, 36), im=Fraction(0, 1))
    >>> GaussRational.i() * GaussRational.i() == -GaussRational.one()
    True
    """

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, re: RationalLike = 0, im: RationalLike = 0):
        if not isinstance(re, (int, Fraction)) or not isinstance(im, (int, Fraction)):
            raise TypeError(
                f"Gaussian rational parts are rational, not "
                f"{type(re).__name__} and {type(im).__name__}"
            )
        # both parts are in lowest terms, so the triple over their lcm is too
        d = math.lcm(re.denominator, im.denominator)
        a, b = re.numerator * (d // re.denominator), im.numerator * (d // im.denominator)
        return _gauss(a, b, d)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @property
    def triple(self) -> tuple:
        """The canonical (a, b, d) of ``(a + b*i)/d``."""
        return self._a, self._b, self._d

    @staticmethod
    def from_rational(x: RationalLike) -> "GaussRational":
        x = Fraction(x)
        return _gauss(x.numerator, 0, x.denominator)

    @staticmethod
    def i() -> "GaussRational":
        return _gauss(0, 1, 1)

    @staticmethod
    def zero() -> "GaussRational":
        return _ZERO

    @staticmethod
    def one() -> "GaussRational":
        return _ONE

    def is_zero(self) -> bool:
        return not (self._a or self._b)

    def __bool__(self) -> bool:
        # true when nonzero, as for Fraction, so sparse loops serve both
        return bool(self._a or self._b)

    def conjugate(self) -> "GaussRational":
        return _gauss(self._a, -self._b, self._d) if self._b else self

    def __eq__(self, other) -> bool:
        if other.__class__ is not GaussRational:
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._d))

    def __add__(self, other) -> "GaussRational":
        if other.__class__ is not GaussRational:
            other = _coerce(other)
        d, e = self._d, other._d
        if d == e:
            return _reduced(self._a + other._a, self._b + other._b, d)
        return _reduced(self._a * e + other._a * d, self._b * e + other._b * d, d * e)

    __radd__ = __add__

    def __neg__(self) -> "GaussRational":
        return _gauss(-self._a, -self._b, self._d)

    def __sub__(self, other) -> "GaussRational":
        return self + -_coerce(other)

    def __rsub__(self, other) -> "GaussRational":
        return _coerce(other) - self

    def __mul__(self, other) -> "GaussRational":
        # the shared one() is free
        if other is _ONE:
            return self
        if other.__class__ is not GaussRational:
            other = _coerce(other)
        if self is _ONE:
            return other
        a, b, c, e = self._a, self._b, other._a, other._b
        return _reduced(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"GaussRational(re={self.re!r}, im={self.im!r})"

    def to_json(self) -> dict:
        return {"re": rational_to_str(self.re), "im": rational_to_str(self.im)}

    @staticmethod
    def from_json(obj) -> "GaussRational":
        return GaussRational(*map(rational_from_str, _json_parts(obj)))

    def __str__(self) -> str:
        re, im = self.re, self.im
        if im == 0:
            return rational_to_str(re)
        text = "i" if abs(im) == 1 else f"{rational_to_str(abs(im))}*i"
        if re == 0:
            return text if im > 0 else f"-{text}"
        sign = "+" if im > 0 else "-"
        return f"{rational_to_str(re)}{sign}{text}"


_new = object.__new__


def _gauss(a: int, b: int, d: int) -> GaussRational:
    """The GaussRational of a triple that is already canonical."""
    z = _new(GaussRational)
    z._a = a
    z._b = b
    z._d = d
    return z


def _reduced(a: int, b: int, d: int) -> GaussRational:
    """The GaussRational (a + b*i)/d for d > 0, with one gcd when d > 1."""
    if d != 1:
        g = math.gcd(a, b, d)
        if g != 1:
            return _gauss(a // g, b // g, d // g)
    return _gauss(a, b, d)


# every zero() and one() is the same instance
_ZERO = _gauss(0, 0, 1)
_ONE = _gauss(1, 0, 1)


def _json_parts(obj) -> tuple:
    """The strings `GaussRational.from_json` parses: str() of re and im.

    A JSON Gaussian rational is an int, a string or a dict with optional
    "re" and "im"; anything else is a ValueError.
    """
    if isinstance(obj, (int, str)):
        return str(obj), "0"
    if isinstance(obj, dict):
        return str(obj.get("re", "0")), str(obj.get("im", "0"))
    raise ValueError(
        f"a Gaussian rational is an int, a string or an object with 're' and 'im', "
        f"not {type(obj).__name__}"
    )


def gauss_reader() -> Callable[[object], GaussRational]:
    """A `GaussRational.from_json` that parses each distinct string once.

    One reader serves one file: it remembers every (re, im) spelling it
    has read and every string it has parsed, and equal values share one
    instance, zero() and one() included.  A file of n coefficients with
    k distinct spellings costs n dict lookups and at most 2k parses.

    >>> read = gauss_reader()
    >>> read({"re": "2/4"}) is read("1/2") is read({"re": "0.5", "im": "-0"})
    True
    >>> read(1) is GaussRational.one()
    True
    """
    by_spelling = {}
    by_string = {}
    by_value = {_ZERO: _ZERO, _ONE: _ONE}

    def part(s: str) -> Fraction:
        x = by_string.get(s)
        if x is None:
            x = by_string[s] = rational_from_str(s)
        return x

    def read(obj) -> GaussRational:
        key = _json_parts(obj)
        z = by_spelling.get(key)
        if z is None:
            z = GaussRational(part(key[0]), part(key[1]))
            z = by_spelling[key] = by_value.setdefault(z, z)
        return z

    return read


def _coerce(x) -> GaussRational:
    if isinstance(x, GaussRational):
        return x
    if isinstance(x, (int, Fraction)):
        return _gauss(x.numerator, 0, x.denominator)
    raise TypeError(f"cannot coerce {type(x).__name__} to GaussRational")


def _rational(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"matrix entries are rational, not {type(x).__name__}")


def reduce_column(col: dict, pivots: dict) -> dict | None:
    """Reduce a sparse integer column against stored pivot columns.

    ``col`` maps rows to nonzero ints; ``pivots`` maps each pivot row to
    the stored column whose greatest row it is.  While the column's
    greatest row p is a pivot row, the least integer combination with
    pivots[p] clears it (the persistence reduction; Edelsbrunner and
    Harer, Computational Topology, VII.1).  Rows below 0 are tags, which
    are carried along but never become pivots.  A new pivot is stored
    divided by the gcd of its entries, and None is returned; otherwise
    the column left, tags only, is returned.  Neither ``col`` nor a stored
    pivot is changed, so a caller may keep ``col`` after the call; a new
    pivot may be ``col`` itself, which the caller must then not change.
    """
    while col:
        p = max(col)
        if p < 0:
            break
        if p not in pivots:
            g = math.gcd(*col.values())
            pivots[p] = {r: v // g for r, v in col.items()} if g > 1 else col
            return None
        piv = pivots[p]
        g = math.gcd(col[p], piv[p])
        ca, cb = piv[p] // g, col[p] // g
        new = {r: ca * v for r, v in col.items()}
        for r, v in piv.items():
            acc = new.get(r, 0) - cb * v
            if acc:
                new[r] = acc
            else:
                del new[r]
        col = new
    return col


class ExactMatrix:
    """Dense matrix over Q with exact elimination.

    Entries are Fractions, read through ``rows``; ints are converted, and
    anything else, Gaussian rationals included, is a TypeError.  The
    matrix answers five reduction queries (rank, pivot columns,
    determinant, the signs of the leading minors, kernel basis) and has
    no arithmetic.  The rank over Q(i) of a Gaussian-rational matrix is
    :func:`gauss_rank`, by realification.

    >>> m = ExactMatrix([[1, 2], [2, 4]])
    >>> m.rank()
    1
    >>> [str(v[0]) + "," + str(v[1]) for v in m.kernel_basis()]
    ['-2,1']
    """

    def __init__(self, rows: Sequence[Sequence[RationalLike]]):
        self.rows = tuple(tuple(_rational(x) for x in r) for r in rows)
        if self.rows:
            w = len(self.rows[0])
            if any(len(r) != w for r in self.rows):
                raise ValueError("ragged rows")
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        self._reduced = None

    def _reduce(self) -> tuple:
        """(pivots, free) of one cached `reduce_column` pass over the columns.

        Column j enters scaled to integers by the lcm s of its denominators,
        with tag row -1-j holding s, so every column kept or left has data
        rows sum_k t_k * column k, where t_k is its entry in row -1-k.
        ``free`` maps each column that reduces to zero to its leftover tags.
        """
        if self._reduced is None:
            pivots, free = {}, {}
            for j, entries in enumerate(zip(*self.rows)):
                s = math.lcm(*(x.denominator for x in entries))
                col = {i: x.numerator * (s // x.denominator) for i, x in enumerate(entries) if x}
                col[-1 - j] = s
                left = reduce_column(col, pivots)
                if left is not None:
                    free[j] = left
            self._reduced = pivots, free
        return self._reduced

    def rank(self) -> int:
        return len(self._reduce()[0])

    def pivot_columns(self) -> tuple:
        """Indices of the first maximal linearly independent set of columns.

        Column j is a pivot exactly when it is not in the span of the
        columns before it, so there are rank() of them.
        """
        free = self._reduce()[1]
        return tuple(j for j in range(self.ncols) if j not in free)

    def determinant(self) -> Fraction:
        """Exact determinant of a square matrix.

        Ordered by pivot row, the stored columns are upper triangular, and
        each is its own column times its own (least) tag plus earlier ones.

        >>> ExactMatrix([[0, 2], [3, 4]]).determinant()
        Fraction(-6, 1)
        """
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        pivots, free = self._reduce()
        if free:
            return Fraction(0)
        # the pivot rows in column order; column j's own tag is -1-j
        order = [p for _, p in sorted((-min(c), p) for p, c in pivots.items())]
        swaps = sum(a > b for a, b in itertools.combinations(order, 2))
        num = math.prod(c[p] for p, c in pivots.items())
        den = math.prod(c[min(c)] for c in pivots.values())
        return Fraction(-num if swaps % 2 else num, den)

    def leading_minors_positive(self) -> bool:
        """Whether every leading principal minor of a square matrix is positive.

        For a symmetric matrix that is positive definiteness (Sylvester's
        criterion; Horn and Johnson, Matrix Analysis, 7.2.5).  Fed with its
        rows reversed, the reduction clears column j on the pivot rows of
        the columns before it, from the top down; while the minors D_k are
        nonzero, that leaves column j's pivot on its own diagonal row, and
        pivot / own tag, the quantities `determinant` multiplies, is
        D_{j+1} / D_j.

        >>> ExactMatrix([[2, -1], [-1, 2]]).leading_minors_positive()
        True
        >>> ExactMatrix([[1, 2], [2, 1]]).leading_minors_positive()
        False
        """
        if self.nrows != self.ncols:
            raise ValueError("leading minors of a non-square matrix")
        pivots, free = ExactMatrix(self.rows[::-1])._reduce()
        # column j's own tag is -1-j, and its diagonal row, reversed, is n-1-j
        n = self.nrows
        return not free and all(p == n + min(c) and c[p] * c[min(c)] > 0 for p, c in pivots.items())

    def kernel_basis(self) -> list:
        """Basis of the right kernel, one vector per free column.

        Free column j's vector, its tags over its own, is 1 at j and zero
        past it: the reduced-echelon kernel vector.  Satisfies
        rank + len(kernel_basis()) == ncols.
        """
        basis = []
        for j, tags in self._reduce()[1].items():
            own = tags[-1 - j]
            v = [Fraction(0)] * self.ncols
            for t, x in tags.items():
                v[-1 - t] = Fraction(x, own)
            basis.append(tuple(v))
        return basis

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(x) for x in r) for r in self.rows)
        return f"ExactMatrix[{body}]"


def realify(re: dict, im: dict, shift: int) -> tuple:
    """The integer columns (v, i v) over Q of v = re + i im, nonzero parts in rows below ``shift``.

    Real parts go in row r and imaginary parts in row r + ``shift``; i v
    has real part -im and imaginary part re.

    >>> realify({0: 1}, {1: 2}, 10)
    ({0: 1, 11: 2}, {10: 1, 1: -2})
    """
    return (
        {**re, **{r + shift: b for r, b in im.items()}},
        {**{r + shift: a for r, a in re.items()}, **{r: -b for r, b in im.items()}},
    )


def gauss_columns(v: dict, shift: int) -> tuple:
    """(L, col, icol) for a sparse Gaussian-rational v = {row: coeff}, rows below ``shift``.

    L is the lcm of v's denominators, and (col, icol) is `realify` of L v.
    """
    parts = [(r, *x.triple) for r, x in v.items()]
    scale = math.lcm(*(d for *_, d in parts))
    re = {r: a * (scale // d) for r, a, _, d in parts if a}
    im = {r: b * (scale // d) for r, _, b, d in parts if b}
    return (scale, *realify(re, im, shift))


def gauss_rank(rows) -> int:
    """Rank over Q(i) of the Gaussian-rational matrix with these rows.

    A row is a sequence or a sparse dict {column >= 0: entry}, of Gaussian
    rationals, ints or Fractions.  Each row v enters `reduce_column` as
    the integer columns of v and i v (`gauss_columns`), which span M's row
    space over Q(i) as a space over Q, so their rank is twice M's.

    >>> i = GaussRational.i()
    >>> gauss_rank([[1, i], [i, -1]])
    1
    >>> gauss_rank([{0: 1, 5: i}, {0: i, 5: -1}])
    1
    """
    rows = list(rows)
    vectors = [
        {j: z for j, x in (r.items() if isinstance(r, dict) else enumerate(r)) if (z := _coerce(x))}
        for r in rows
    ]
    if len({len(r) for r in rows if not isinstance(r, dict)}) > 1:
        raise ValueError("ragged rows")
    shift = 1 + max((max(v) for v in vectors if v), default=0)
    pivots = {}
    for v in vectors:
        for col in gauss_columns(v, shift)[1:]:
            if col:
                reduce_column(col, pivots)
    return len(pivots) // 2
