"""Weyl combinatorics and a truncated operator model of quantized SU(2).

`weyl_group` enumerates type A (symmetric group) and type B (signed
permutation) Weyl groups by breadth-first search over right multiplication
by simple reflections, so each element's graph distance from the identity
is its Coxeter length; one reduced word per element is then read off by
greedy descent.  `rep_catalog` lists the irreducible representations
rho_{w,t} over a sampled torus with the dimension dichotomy: dimension 1
exactly for w = e, infinite otherwise.

`build_rep_su2` gives the truncated infinite-dimensional model on basis
e_0..e_{N-1},

    a e_n = sqrt(1 - q^(2n)) e_{n-1},    c e_n = e^{it} q^n e_n,

as its two diagonals: a's superdiagonal weights and c's diagonal.  No
N x N matrix is built.  `relation_residuals` checks the five defining
relations numerically, each on the one diagonal where it lives, in O(N);
the truncation only disturbs the relation a a* + q^2 c c* = 1 in its last
diagonal entry, so the interior window (all but the last entry of each
diagonal) is clean to rounding while the boundary defect is order one and
reported separately.  The characters (w = e) are treated analytically by
`character_constraints` and evaluated directly in the joint-kernel stack.

`joint_kernel_rank` stacks the evaluations of all PBW monomials of bounded
degree under sampled representations and characters and reports the
numerical rank; full rank is the desk-scale witness that only zero lies in
every kernel.  In the shift model a^j c^k c*^l lies on superdiagonal j
and a*^j c^k c*^l on subdiagonal j, so only those N - j entries per
monomial and angle are stacked, never an N x N image.  Dropping columns
that are zero in every row leaves the singular values unchanged, so the
rank is that of the dense stacked matrix: the singular values above
S.max() * max(rows, dense width) * eps, numpy's `matrix_rank` tolerance
taken at the dense width t_samples * (N^2 + 1).
"""

from __future__ import annotations

import math
from collections import deque
from typing import NamedTuple

from . import InputError

_GROUP_SIZE_GUARD = 10**4
# rep_catalog's largest size, group order times t_samples, checked before
# the group is enumerated
MAX_CATALOG = 10**5
# truncation N of the shift model; larger N is an input error
MAX_TRUNCATION = 1024
# entries of the stacked matrix that joint_kernel_rank allocates (monomials
# x t_samples x (the `_blocks` width + 1)), counted before anything is built;
# more is an input error.  Its SVD copies it, so a run takes about 32 bytes
# per entry above start-up; the relation residuals hold O(N).  On one
# pinned CPU (2 vCPUs, max RSS from wait4) `qgroup verify --truncation 4
# --degree 4` peaks at 93 MB at --t-samples 2242, the most this admits,
# and --truncation 1024 at 30.5 MB with --degree 1 --t-samples 3 and
# about 90 MB with --degree 4 --t-samples 4.
MAX_STACKED_ENTRIES = 2**21


# ---------------------------------------------------------------------------
# Weyl groups


class WeylElement(NamedTuple):
    """Group element with one reduced word and its Coxeter length.

    Type A datum is a permutation of 0..rank in one-line notation; type B
    datum is a signed permutation of 1..rank.  Simple reflections are
    numbered 1..rank; in type B the last one flips the sign of the final
    slot.
    """

    family: str
    rank: int
    datum: tuple
    word: tuple
    length: int

    def is_identity(self) -> bool:
        return self.length == 0

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "rank": self.rank,
            "datum": list(self.datum),
            "word": list(self.word),
            "length": self.length,
        }


def _identity_datum(family: str, rank: int) -> tuple:
    if family == "A":
        return tuple(range(rank + 1))
    return tuple(range(1, rank + 1))


def _apply_reflection(family: str, datum: tuple, i: int) -> tuple:
    """Right multiplication by the simple reflection s_i."""
    out = list(datum)
    if family == "A" or i < len(datum):
        out[i - 1], out[i] = out[i], out[i - 1]
    else:
        out[-1] = -out[-1]
    return tuple(out)


def _checked_order(family: str, rank: int) -> int:
    """The order of the Weyl group, after checking family, rank and guard.

    Both orders pass the guard from rank 7 on (8! and 2^7 7!), so the
    factorial of a larger rank is never taken.
    """
    if family not in ("A", "B"):
        raise InputError(f"unsupported family {family!r}; choose A or B")
    if rank < 1:
        raise InputError("rank must be at least 1")
    r = min(rank, 7)
    order = math.factorial(r + 1) if family == "A" else 2**r * math.factorial(r)
    if order > _GROUP_SIZE_GUARD:
        raise InputError(
            f"Weyl group of {family}{rank} has at least {order} elements, "
            f"over the {_GROUP_SIZE_GUARD} guard"
        )
    return order


def evaluate_word(family: str, rank: int, word) -> tuple:
    """Multiply out a word of simple reflections from the identity."""
    datum = _identity_datum(family, rank)
    for i in word:
        if not 1 <= i <= rank:
            raise InputError(f"reflection index {i} out of range 1..{rank}")
        datum = _apply_reflection(family, datum, i)
    return datum


def weyl_group(family: str, rank: int):
    """Enumerate the Weyl group with lengths and one reduced word each.

    The search guard rejects groups larger than 10^4 elements.  Output is
    sorted by (length, datum), identity first.
    """
    order = _checked_order(family, rank)
    identity = _identity_datum(family, rank)
    dist = {identity: 0}
    queue = deque([identity])
    while queue:
        cur = queue.popleft()
        for i in range(1, rank + 1):
            nxt = _apply_reflection(family, cur, i)
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                queue.append(nxt)
    if len(dist) != order:
        raise RuntimeError("enumeration did not reach the whole group")
    elements = []
    for datum in dist:
        # greedy descent: repeatedly strip the first length-lowering
        # reflection; collected indices reversed give a reduced word
        rev = []
        cur = datum
        while dist[cur] > 0:
            for i in range(1, rank + 1):
                nxt = _apply_reflection(family, cur, i)
                if dist[nxt] < dist[cur]:
                    rev.append(i)
                    cur = nxt
                    break
            else:
                raise RuntimeError("no descent found below a nonidentity element")
        word = tuple(reversed(rev))
        elements.append(WeylElement(family, rank, datum, word, dist[datum]))
    elements.sort(key=lambda w: (w.length, w.datum))
    return elements


# ---------------------------------------------------------------------------
# representation catalog


class RepDescriptor(NamedTuple):
    """One rho_{w,t}: its Weyl element, torus angle, and dimension."""

    element: WeylElement
    t: float
    dimension: float  # 1 or math.inf

    def to_json(self) -> dict:
        return {
            "element": self.element.to_json(),
            "t": self.t,
            "dimension": 1 if self.dimension == 1 else "inf",
        }


def rep_catalog(family: str, rank: int, t_samples: int):
    """All (w, t_j) descriptors with t_j = 2 pi j / t_samples.

    Dimension is 1 exactly when w is the identity and infinite otherwise.
    A catalog of more than MAX_CATALOG entries is an InputError.
    """
    if t_samples < 1:
        raise InputError("t_samples must be at least 1")
    if _checked_order(family, rank) * t_samples > MAX_CATALOG:
        raise InputError(f"a catalog may have at most {MAX_CATALOG} entries")
    catalog = []
    for element in weyl_group(family, rank):
        for j in range(t_samples):
            t = 2.0 * math.pi * j / t_samples
            dim = 1 if element.is_identity() else math.inf
            catalog.append(RepDescriptor(element, t, dim))
    return catalog


# ---------------------------------------------------------------------------
# truncated operator model


class TruncatedRep(NamedTuple):
    """The shift model at truncation N as the two diagonals of its generators.

    w[n] = sqrt(1 - q^(2n)) is entry (n - 1, n) of a, so w[0] = 0 and a
    is the superdiagonal w[1:]; d[n] = e^{it} q^n is entry (n, n) of c.
    """

    q: float
    t: float
    N: int
    w: np.ndarray
    d: np.ndarray


def build_rep_su2(q: float, t: float, N: int) -> TruncatedRep:
    """The infinite-dimensional model of quantized SU(2) cut to e_0..e_{N-1}.

    a e_n = w_n e_{n-1} and c e_n = d_n e_n; q and N are checked first.
    """
    import numpy as np

    weights = np.array(_shift_weights(q, N))
    return TruncatedRep(q, t, N, weights, np.array(_diagonal(q, t, N)))


def _shift_weights(q: float, N: int) -> list:
    """w_n = sqrt(1 - q^(2n)) for n < N, the shift model's a e_n = w_n e_{n-1}.

    q and the truncation N are checked first.
    """
    if not 0.0 < q < 1.0:
        raise InputError("q must lie strictly between 0 and 1")
    if N < 4:
        raise InputError("truncation N must be at least 4")
    if N > MAX_TRUNCATION:
        raise InputError(f"truncation N may be at most {MAX_TRUNCATION}")
    return [math.sqrt(1.0 - q ** (2 * n)) for n in range(N)]


def _diagonal(q: float, t: float, N: int) -> list:
    """d_n = e^{it} q^n for n < N, the shift model's c e_n = d_n e_n."""
    import numpy as np

    phase = np.exp(1j * t)
    return [phase * q**n for n in range(N)]


def relation_residuals(rep: TruncatedRep) -> dict:
    """Max-entry residuals of the five relations, interior and full.

    Each relation's residual lies on one diagonal: a c - q c a and
    a c* - q c* a on the superdiagonal, the rest on the diagonal, where
    c c* - c* c vanishes exactly.  Each is formed as the dense matrix
    product rounds it, so the residuals are those of the N x N matrices.
    The interior window drops the last row and column, that is, the last
    entry of each diagonal, where the truncation makes a a* + q^2 c c*
    fall short of the identity by an order-one amount; that boundary
    defect is reported separately.
    """
    import numpy as np

    w, d, q = rep.w, rep.d, rep.q
    modulus = d.real**2 + d.imag**2
    diagonals = {
        "ac=qca": w[1:] * d[1:] - q * (d[:-1] * w[1:]),
        "ac*=qc*a": w[1:] * d[1:].conj() - q * (d[:-1].conj() * w[1:]),
        "cc*=c*c": np.zeros(rep.N),
        "a*a+c*c=1": w * w + modulus - 1,
        "aa*+q^2cc*=1": np.append(w[1:] * w[1:], 0) + q * q * modulus - 1,
    }
    per_relation = {}
    for name, diagonal in diagonals.items():
        residual = np.abs(diagonal)
        per_relation[name] = {"interior": float(residual[:-1].max()), "full": float(residual.max())}
    return {
        "interior": max(r["interior"] for r in per_relation.values()),
        "boundary": max(r["full"] for r in per_relation.values()),
        "relations": per_relation,
        "N": rep.N,
        "q": rep.q,
        "kind": "shift",
    }


def character_constraints(q: float) -> dict:
    """Constraints on 1-dimensional representations a -> alpha, c -> gamma.

    Subtracting the two sphere relations leaves (1 - q^2)|gamma|^2 = 0, so
    away from q = 1 every character kills c and sends a to the unit
    circle: the character space is the torus.  At q = 1 the coefficient
    degenerates and the verdict is inconclusive.
    """
    if not 0.0 < q <= 1.0:
        raise InputError("q must lie in (0, 1]")
    coefficient = 1.0 - q * q
    if coefficient == 0.0:
        return {
            "verdict": "inconclusive",
            "coefficient": 0.0,
            "reason": "1 - q^2 vanishes; the constraint no longer forces gamma = 0",
        }
    return {
        "verdict": "pass",
        "coefficient": coefficient,
        "gamma": 0.0,
        "alpha_modulus": 1.0,
        "derivation": [
            "(a*a + c*c - 1) - (aa* + q^2 cc* - 1) = (1 - q^2)|gamma|^2 for scalars",
            "coefficient nonzero, so gamma = 0",
            "a*a + c*c = 1 then reads |alpha|^2 = 1",
        ],
    }


# ---------------------------------------------------------------------------
# joint-kernel faithfulness witness


def pbw_monomials(degree: int):
    """PBW exponent triples: (sign, j, k, l) for a^j c^k c*^l, j+k+l <= d.

    sign "+" uses powers of a, sign "-" powers of a*; the a*-family is
    listed only for j >= 1 since j = 0 coincides with the a-family.
    """
    if degree < 0:
        raise InputError("degree must be nonnegative")
    out = []
    for j in range(degree + 1):
        for k in range(degree + 1 - j):
            for l in range(degree + 1 - j - k):
                out.append(("+", j, k, l))
                if j >= 1:
                    out.append(("-", j, k, l))
    return out


def _diagonal_images(q: float, angles, N: int, monomials):
    """Each monomial's image under the shift model, as its one diagonal.

    a^j c^k c*^l maps e_n to a multiple of e_{n-j}, so its image lies on
    superdiagonal j, and a*^j c^k c*^l lies on subdiagonal j.  Yields one
    array per monomial whose row i holds the N - j diagonal entries at
    angles[i], in column order; the factors are multiplied in the
    monomial's order.  Each array is made only when it is asked for, so a
    caller that copies it and lets it go holds one at a time.
    """
    import numpy as np

    weights = np.array(_shift_weights(q, N))
    diagonals = np.empty((len(angles), N), dtype=complex)
    for row, t in zip(diagonals, angles):
        row[:] = _diagonal(q, t, N)
    # shifts[j][i] = w_{i+1} ... w_{i+j} is entry (i, i + j) of a^j and
    # entry (i + j, i) of a*^j, its transpose
    shifts = [np.ones(N)]
    for j in range(1, max(m[1] for m in monomials) + 1):
        shifts.append(shifts[-1][:-1] * weights[j:])
    for sign, j, k, l in monomials:
        cols = slice(j, N) if sign == "+" else slice(0, N - j)
        image = np.broadcast_to(shifts[j], (len(angles), N - j))
        for _ in range(k):
            image = image * diagonals[:, cols]
        for _ in range(l):
            image = image * diagonals[:, cols].conj()
        yield image


def _blocks(monomials, N: int) -> tuple:
    """({(sign, j): first column}, width) of the diagonals in one angle's columns.

    Diagonal (sign, j) is N - j columns wide, and the diagonals are laid
    out in the order the monomials first reach them.  `_stacked_matrix`
    allocates this layout, and `joint_kernel_rank` counts it before
    anything is built.
    """
    blocks, width = {}, 0
    for sign, j, _, _ in monomials:
        if (sign, j) not in blocks:
            blocks[sign, j] = width
            width += N - j
    return blocks, width


def _stacked_matrix(q: float, monomials, angles, N: int):
    """The stacked evaluations, restricted to the columns that can be nonzero.

    Each angle contributes one block of columns: the diagonals the
    monomials reach under the shift model (`_blocks`), then the character
    value.  Every other column of the dense stacked matrix is zero in
    every row.  Each monomial's image is made as it is written into the
    stack, so the images are never all held beside it.
    """
    import numpy as np

    images = _diagonal_images(q, angles, N, monomials)
    blocks, width = _blocks(monomials, N)
    matrix = np.zeros((len(monomials), len(angles), width + 1), dtype=complex)
    for row, (sign, j, _, _), image in zip(matrix, monomials, images):
        row[:, blocks[sign, j] : blocks[sign, j] + N - j] = image
    for row, (sign, j, k, l) in zip(matrix, monomials):
        if k == 0 and l == 0:
            for n, t in enumerate(angles):
                alpha = np.exp(1j * t) if sign == "+" else np.exp(-1j * t)
                row[n, width] = alpha**j
    return matrix.reshape(len(monomials), -1)


def joint_kernel_rank(
    q: float,
    degree: int = 2,
    t_samples: int = 5,
    N: int = 16,
) -> dict:
    """Numerical rank of the stacked monomial evaluations.

    Rows are the PBW monomials of degree <= `degree`; the dense columns
    concatenate, for each sampled angle, the flattened truncated
    representation image and the character value.  Only the entries on
    the diagonals the monomials reach are stacked (`_stacked_matrix`);
    the rank counts the singular values above numpy's `matrix_rank`
    tolerance S.max() * max(rows, dense width) * eps, the dense width
    being t_samples * (N^2 + 1).  The report states that tolerance, the
    smallest singular value kept and the largest dropped (None at full
    rank).  Full rank is the desk-scale faithfulness
    witness: the characters alone kill every monomial containing c, so
    the infinite-dimensional representations carry the rank.  q and N are
    checked first; then a stacked matrix of more than MAX_STACKED_ENTRIES
    entries, counted on the `_blocks` layout before anything is built, is
    an InputError.
    """
    import numpy as np

    _shift_weights(q, N)  # checks q and N first, as build_rep_su2 does
    if degree > 4:
        raise InputError("degree is capped at 4")
    if t_samples < 3:
        raise InputError("need at least 3 torus samples")
    monomials = pbw_monomials(degree)
    entries = len(monomials) * t_samples * (_blocks(monomials, N)[1] + 1)
    if entries > MAX_STACKED_ENTRIES:
        raise InputError(f"the stacked matrix would have more than {MAX_STACKED_ENTRIES} entries")
    angles = [2.0 * math.pi * i / t_samples for i in range(t_samples)]
    matrix = _stacked_matrix(q, monomials, angles, N)
    singular = np.linalg.svd(matrix, compute_uv=False)
    width = t_samples * (N * N + 1)
    tol = singular.max() * (max(len(monomials), width) * np.finfo(singular.dtype).eps)
    rank = int(np.count_nonzero(singular > tol))
    # svd sorts the singular values in descending order, and the rank is
    # at least 1: the monomial 1 maps to the identity
    return {
        "rank": rank,
        "monomials": len(monomials),
        "full": rank == len(monomials),
        "tolerance": float(tol),
        "smallest_kept": float(singular[rank - 1]),
        "largest_dropped": float(singular[rank]) if rank < len(singular) else None,
        "degree": degree,
        "t_samples": t_samples,
        "N": N,
        "q": q,
    }
