"""Test helper: complex subspaces spanned by vectors written as plain numbers."""

from orbitkit.exactnum import GaussRational
from orbitkit.liealg import ComplexSubspace


def spanned_by(vectors, dim_ambient: int) -> ComplexSubspace:
    """The span of ``vectors``, whose entries are ints, Fractions or Gaussian rationals."""
    assert all(len(v) == dim_ambient for v in vectors), "spanning vector has wrong length"
    return ComplexSubspace(
        dim_ambient,
        tuple(
            tuple(x if isinstance(x, GaussRational) else GaussRational.from_rational(x) for x in v)
            for v in vectors
        ),
    )
