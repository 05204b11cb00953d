"""Test helper: algebras written as dense tables and read through the real loaders.

`fin_algebra` and `lie_algebra` write dense tables as the JSON of the
algebra files and load them, so every test algebra passes the same
parsing and validation as a file.  `dense` and `mul` / `star` give the
dense coordinate view of a loaded `FinAlgebra` that tests compare.
"""

import json
from fractions import Fraction

from orbitkit.exactnum import GaussRational
from orbitkit.homology import FinAlgebra
from orbitkit.liealg import LieAlgebra

_ZERO = GaussRational.zero()


def _gauss(x) -> GaussRational:
    return x if isinstance(x, GaussRational) else GaussRational.from_rational(x)


def fin_algebra(mult, unit, star, basis=()) -> FinAlgebra:
    """The FinAlgebra of dense tables, read by `FinAlgebra.from_json`.

    ``mult[a][b]`` holds the coordinates of e_a e_b, ``unit`` those of 1
    and ``star[a]`` those of e_a^*; entries are ints, Fractions or
    Gaussian rationals.
    """

    def row(coords):
        return [_gauss(x).to_json() for x in coords]

    data = {
        "dim": len(unit),
        "mult": [list(map(row, plane)) for plane in mult],
        "unit": row(unit),
        "star": list(map(row, star)),
    }
    if basis:
        data["basis"] = list(basis)
    return FinAlgebra.from_json(json.loads(json.dumps(data)))


def _coords(A: FinAlgebra, pairs) -> tuple:
    """The dense coordinates of sparse (index, coeff) pairs or an {index: coeff} map."""
    values = dict(pairs)
    return tuple(values.get(c, _ZERO) for c in range(A.dim))


def dense(A: FinAlgebra) -> tuple:
    """(mult, unit, star): A's tables as dense coordinate tuples."""
    mult = tuple(tuple(_coords(A, row) for row in plane) for plane in A._pairs)
    return mult, _coords(A, A.unit), tuple(_coords(A, row) for row in A._star_pairs)


def _sparse(x) -> tuple:
    return tuple((c, v) for c, v in enumerate(x) if not v.is_zero())


def mul(A: FinAlgebra, x, y) -> tuple:
    """The coordinates of x y, for x and y given by their coordinates."""
    return _coords(A, A._mul(_sparse(x), _sparse(y)))


def star(A: FinAlgebra, x) -> tuple:
    """The coordinates of x^*, for x given by its coordinates."""
    return _coords(A, A._star(_sparse(x)))


def lie_algebra(c, basis=None) -> LieAlgebra:
    """The LieAlgebra of dense constants, read by `LieAlgebra.from_json`.

    ``c[i][j][k]`` is the coefficient of X_k in [X_i, X_j], an int or a
    Fraction; both orientations of every nonzero bracket are written, so
    the loader also checks them against each other.
    """
    dim = len(c)
    brackets = [
        {"i": i, "j": j, "coeffs": {str(k): str(Fraction(x)) for k, x in enumerate(row) if x}}
        for i, plane in enumerate(c)
        for j, row in enumerate(plane)
        if any(row)
    ]
    data = {"dim": dim, "brackets": brackets}
    if basis:
        data["basis"] = list(basis)
    return LieAlgebra.from_json(json.loads(json.dumps(data)))
