"""Chern-character coefficient data for compact classical groups.

The function phi(n, k, q) is the alternating binomial sum whose values fill
the Chern-character matrices: for SU(m) the square matrix taking the
K-theory exterior generators beta(rho_k) to the odd cohomology generators
x_{2i+1}, and for SO(2n+1) the rows for beta(lambda_1..lambda_{n-1})
together with the spin row for eps_{2n+1} against x_3, x_7, ..., x_{4n-1}.
Everything is exact: big-integer binomials and Fraction matrix entries,
with determinant and rank from the one integer column reduction of
:class:`~orbitkit.exactnum.ExactMatrix`.

For SU the determinant is computed and invertibility over Q reported.  For
SO_odd the displayed row family stops at k = n - 1, so the matrix's rank is
reported instead of an invertibility verdict.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import InputError
from .exactnum import ExactMatrix

FAMILIES = ("SU", "SO_odd")
# chern_matrix's largest rank, checked before any entry is computed
MAX_RANK = 64
# phi's largest result, bounded before summing: 14,000 bits stay within
# the 4300 decimal digits Python renders by default
MAX_PHI_BITS = 14_000


def phi(n: int, k: int, q: int) -> int:
    """Alternating binomial sum over i = 1..k of (-1)^(i-1) C(n, k-i) i^(q-1).

    C(n, k-i) vanishes for k - i > n, so only i >= k - n is summed.  Each
    term is at most max_j C(n, j) <= min(2^n, n^j) times k^(q-1); when the
    terms' count times that bound exceeds MAX_PHI_BITS bits, the input is
    rejected before any term is computed.

    >>> phi(2, 1, 2)
    1
    >>> phi(3, 2, 2)
    1
    >>> phi(3, 2, 3)
    -1
    >>> all(phi(n, 1, q) == 1 for n in range(13) for q in range(1, 9))
    True
    """
    if n < 0 or k < 1 or q < 1:
        raise InputError("phi needs n >= 0, k >= 1, q >= 1")
    low = max(1, k - n)
    j = min(k - low, n // 2)  # C(n, j) is the largest binomial summed
    bits = (
        (k - low + 1).bit_length()
        + min(n, j * n.bit_length())
        + (q - 1) * k.bit_length()
    )
    if bits > MAX_PHI_BITS:
        raise InputError(f"phi may have at most {MAX_PHI_BITS} bits")
    total = 0
    for i in range(low, k + 1):
        term = math.comb(n, k - i) * i ** (q - 1)
        total += -term if (i - 1) % 2 else term
    return total


def _check_family(family: str, rank: int) -> None:
    if family not in FAMILIES:
        raise InputError(f"unsupported family {family!r}; choose from {FAMILIES}")
    if rank > MAX_RANK:
        raise InputError(f"rank may be at most {MAX_RANK}")
    if family == "SU":
        if rank < 2:
            raise InputError("SU needs rank m >= 2")
    elif rank < 1:
        raise InputError(f"{family} needs rank n >= 1")


class ChernMatrix(NamedTuple):
    """Exact rational Chern-character coefficient matrix."""

    family: str
    rank: int
    rows: tuple
    row_labels: tuple
    col_labels: tuple
    determinant: Fraction | None  # None for SO_odd: rank is reported instead
    matrix_rank: int
    invertible: bool | None

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "rank": self.rank,
            "rows": [[str(v) for v in row] for row in self.rows],
            "row_labels": list(self.row_labels),
            "col_labels": list(self.col_labels),
            "determinant": str(self.determinant)
            if self.determinant is not None
            else None,
            "matrix_rank": self.matrix_rank,
            "invertible": self.invertible,
        }


def chern_matrix(family: str, rank: int) -> ChernMatrix:
    """Assemble the Chern-character matrix for SU(m) or SO(2n+1).

    SU(m): entry (k, i) is ((-1)^i / i!) phi(m, k, i+1) for k, i = 1..m-1;
    the determinant and the invertibility verdict over Q are exact.

    SO_odd at parameter n: rows are the beta(lambda_k) formulas for
    k = 1..n-1 with entries ((-1)^(i-1) 2 / (2i-1)!) phi(2n+1, k, 2i), plus
    the spin row ((-1)^(i-1) / (2^(n-1) (2i-1)!)) sum over k = 1..n of
    phi(2n+1, k, 2i), for i = 1..n.  The displayed row family is one short
    of a full basis on the K side, so the result carries the matrix rank
    and no invertibility claim.

    >>> chern_matrix("SU", 2).rows
    ((Fraction(-1, 1),),)
    >>> chern_matrix("SU", 3).determinant
    Fraction(1, 1)
    """
    _check_family(family, rank)
    if family == "SU":
        m = rank
        rows = tuple(
            tuple(
                Fraction((-1) ** i * phi(m, k, i + 1), math.factorial(i))
                for i in range(1, m)
            )
            for k in range(1, m)
        )
        # the determinant and the rank share the matrix's one reduction
        matrix = ExactMatrix(rows)
        det = matrix.determinant()
        labels_k = tuple(f"beta(rho_{k})" for k in range(1, m))
        labels_h = tuple(f"x_{2 * i + 1}" for i in range(1, m))
        return ChernMatrix(
            family, rank, rows, labels_k, labels_h, det, matrix.rank(), det != 0
        )
    n = rank
    rows = []
    labels = []
    for k in range(1, n):
        rows.append(
            tuple(
                Fraction((-1) ** (i - 1) * 2 * phi(2 * n + 1, k, 2 * i), math.factorial(2 * i - 1))
                for i in range(1, n + 1)
            )
        )
        labels.append(f"beta(lambda_{k})")
    spin = tuple(
        Fraction(
            (-1) ** (i - 1) * sum(phi(2 * n + 1, k, 2 * i) for k in range(1, n + 1)),
            2 ** (n - 1) * math.factorial(2 * i - 1),
        )
        for i in range(1, n + 1)
    )
    rows.append(spin)
    labels.append(f"eps_{2 * n + 1}")
    rows = tuple(rows)
    labels_h = tuple(f"x_{4 * i - 1}" for i in range(1, n + 1))
    matrix_rank = ExactMatrix(rows).rank()
    return ChernMatrix(
        family, rank, rows, tuple(labels), labels_h, None, matrix_rank, None
    )
