"""Orbit-dimension stratification of the dual by exact sampled ranks.

Covectors are drawn from a seeded rational grid; each distinct sample's
Poisson matrix B is ranked exactly once, samples are grouped into strata
of constant (even) rank r, and each stratum carries certificates: an
r x r minor that is nonzero at the sample (rank >= r) and, where
(r+2)-minors exist, a kernel basis of d - r vectors v, each with B v = 0
by `liealg.annihilates` over the nonzero entries of v (rank <= r, so
every (r+2)-minor vanishes).  The minor is principal: B is
antisymmetric, so its r pivot columns C index rows that span its row
space, and B[C, C] is nonsingular.  The top stratum's minor feeds a
symbolic generic-rank certificate, built from the algebra's sparse table
of structure constants on the minor's rows and columns only; its
determinant is expanded only when the product of its rows' term counts,
which bounds that work, is at most MAX_MINOR_TERMS.  The strata feed a
constant-rank foliation report and a structural report of the resulting
tower of extensions.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import NamedTuple, Sequence

from . import InputError
from .exactnum import ExactMatrix, rational_to_str
from .liealg import Covector, LieAlgebra, annihilates, poisson_matrix

__all__ = [
    "MAX_SAMPLES",
    "MAX_MINOR_TERMS",
    "SamplerConfig",
    "Stratum",
    "TowerReport",
    "stratify",
    "generic_rank",
    "foliation_check",
    "extension_tower",
]

# stratify draws every sample up front; more than this is an input error
MAX_SAMPLES = 10**6
# generic_rank expands a minor only when it can have at most this many terms
MAX_MINOR_TERMS = 10**7


class SamplerConfig(NamedTuple):
    """Deterministic rational sampling plan for the dual space."""

    seed: int = 0
    samples: int = 1000
    coordinate_range: int = 3

    def draw(self, dim: int) -> list:
        """Covectors with coordinates on the quarter-integer grid.

        The same (seed, samples, range, dim) always produces the same
        list, which is what makes CLI reports reproducible.
        """
        rng = random.Random(self.seed)
        r = 4 * self.coordinate_range
        out = []
        for _ in range(self.samples):
            out.append(
                Covector(
                    tuple(Fraction(rng.randint(-r, r), 4) for _ in range(dim))
                )
            )
        return out


class Stratum(NamedTuple):
    """Samples sharing one exact orbit dimension, with certificates."""

    orbit_dimension: int
    sample_count: int
    witness: Covector
    minors_used: tuple          # distinct (rows, cols) index pairs certifying rank
    higher_minors_vanish: bool  # B v = 0 on d - r kernel vectors, at every sample

    def to_json(self) -> dict:
        return {
            "orbit_dimension": self.orbit_dimension,
            "sample_count": self.sample_count,
            "witness": self.witness.to_json(),
            "minors_used": [
                {"rows": list(r), "cols": list(c)} for r, c in self.minors_used
            ],
            "higher_minors_vanish": self.higher_minors_vanish,
        }


def _certify(L: LieAlgebra, F: Covector) -> tuple:
    """(rank, certifying minor, kernel certificate) of B at one covector.

    The minor sits on the pivot columns C of B, its first r = rank B
    independent columns.  B is antisymmetric, so the rows C are the
    columns C negated: they span the row space, and B[C, C] is
    nonsingular.  Where (r+2)-minors exist, the certificate holds when
    the kernel basis has d - r vectors and `annihilates` each; they are
    independent by construction (each is 1 at its own free column and 0
    at the others), so rank B <= r and every (r+2)-minor vanishes.
    """
    B = poisson_matrix(L, F)
    cols = B.pivot_columns()
    r = len(cols)
    if r % 2 != 0:
        raise RuntimeError("internal error: odd rank of an antisymmetric matrix")
    if ExactMatrix([[B.rows[i][j] for j in cols] for i in cols]).determinant() == 0:
        raise RuntimeError("internal error: certifying minor vanished")
    kernel_ok = r + 2 > L.dim
    if not kernel_ok:
        K = B.kernel_basis()
        kernel_ok = len(K) == B.ncols - r and all(annihilates(B, v) for v in K)
    return r, (cols, cols), kernel_ok


def _certified(L: LieAlgebra, config: SamplerConfig):
    """Each drawn covector with its `_certify` result, certifying each distinct one once."""
    if config.samples < 1:
        raise InputError("sampler needs at least one sample")
    if config.samples > MAX_SAMPLES:
        raise InputError(f"more than {MAX_SAMPLES} samples")
    if config.coordinate_range < 0:
        raise InputError("coordinate range must be nonnegative")
    certified: dict = {}
    for F in config.draw(L.dim):
        if F.coords not in certified:
            certified[F.coords] = _certify(L, F)
        yield F, certified[F.coords]


def stratify(L: LieAlgebra, config: SamplerConfig = SamplerConfig()) -> list:
    """Group sampled covectors by exact orbit dimension.

    Returns strata sorted by decreasing orbit dimension.  Each distinct
    covector is certified once, however often it is drawn: one
    nonvanishing 2n-minor (recorded), and where (2n+2)-minors exist, the
    kernel certificate that makes them all vanish.

    No orbit dimension exceeds the number of basis elements X with ad X
    nonzero, rounded down to even.  The first sample of that rank is the
    top stratum's witness, whose minor `generic_rank` expands; a minor
    over MAX_MINOR_TERMS is the same InputError here, raised before the
    remaining samples are certified.
    """
    samples = _certified(L, config)
    largest = sum(1 for plane in L._pairs if any(plane)) // 2 * 2
    head = []
    for sample in samples:
        head.append(sample)
        r, minor, _ = sample[1]
        if r == largest:
            _minor_entries(L, r, minor)
            break
    return _grouped(itertools.chain(head, samples))


def _grouped(samples) -> list:
    """Strata, by decreasing orbit dimension, of (covector, certificate) pairs."""
    by_rank: dict = {}
    for F, (r, minor, kernel_ok) in samples:
        by_rank.setdefault(r, []).append((F, minor, kernel_ok))
    strata = []
    for r in sorted(by_rank, reverse=True):
        entries = by_rank[r]
        strata.append(
            Stratum(
                orbit_dimension=r,
                sample_count=len(entries),
                witness=entries[0][0],
                minors_used=tuple(dict.fromkeys(minor for _, minor, _ in entries)),
                higher_minors_vanish=all(ok for _, _, ok in entries),
            )
        )
    return strata


# -- tiny multivariate polynomials over Fraction, just enough for minors -----


def _poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, Fraction(0)) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            s = out.get(m, Fraction(0)) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def _poly_neg(a: dict) -> dict:
    return {m: -c for m, c in a.items()}


def _poly_det(rows: list) -> dict:
    """Laplace expansion along the first row, over its nonzero entries."""
    n = len(rows)
    if n == 0:
        return {(): Fraction(1)}
    if n == 1:
        return rows[0][0]
    out: dict = {}
    for j in range(n):
        entry = rows[0][j]
        if not entry:
            continue
        sub = [[r[jj] for jj in range(n) if jj != j] for r in rows[1:]]
        term = _poly_mul(entry, _poly_det(sub))
        out = _poly_add(out, term if j % 2 == 0 else _poly_neg(term))
    return out


def _poly_eval(p: dict, point: Sequence[Fraction]) -> Fraction:
    total = Fraction(0)
    for m, c in p.items():
        v = c
        for var, e in enumerate(m):
            for _ in range(e):
                v *= point[var]
        total += v
    return total


def _poly_str(p: dict, names: Sequence[str]) -> str:
    if not p:
        return "0"
    parts = []
    for m in sorted(p, key=lambda mm: (sum(mm), mm), reverse=True):
        c = p[m]
        factors = []
        for var, e in enumerate(m):
            if e == 1:
                factors.append(names[var])
            elif e > 1:
                factors.append(f"{names[var]}^{e}")
        body = "*".join(factors)
        if not body:
            parts.append(rational_to_str(c))
        elif c == 1:
            parts.append(body)
        elif c == -1:
            parts.append(f"-{body}")
        else:
            parts.append(f"{rational_to_str(c)}*{body}")
    return " + ".join(parts).replace("+ -", "- ")


def _minor_entries(L: LieAlgebra, r: int, minor: tuple) -> list:
    """The entries of the symbolic r-minor on ``minor``'s (rows, cols).

    Entry (i, j) is the linear polynomial sum_k c[i][j][k] F_k.  A minor
    whose rows' term counts multiply to more than MAX_MINOR_TERMS is an
    InputError.
    """
    rows, cols = minor
    var = [tuple(int(t == k) for t in range(L.dim)) for k in range(L.dim)]
    sub = [[{var[k]: c for k, c in L._pairs[i][j]} for j in cols] for i in rows]
    if math.prod(sum(map(len, row)) for row in sub) > MAX_MINOR_TERMS:
        raise InputError(
            f"the generic-rank {r}-minor could expand to more than {MAX_MINOR_TERMS} terms"
        )
    return sub


def generic_rank(L: LieAlgebra, strata: Sequence[Stratum]) -> dict:
    """Maximal sampled orbit dimension with a symbolic certificate.

    ``strata`` is the output of :func:`stratify`; nothing is sampled or
    ranked again.  The top stratum's first recorded minor is the
    witness's, and the report includes it as a 2n-minor of the symbolic
    Poisson matrix that is nonzero as a polynomial in the dual
    coordinates and evaluates to a nonzero rational at the witness.
    A minor whose rows' term counts multiply to more than
    MAX_MINOR_TERMS is an InputError, raised before the expansion.
    """
    top = strata[0]
    r = top.orbit_dimension
    if r == 0:
        return {
            "rank": 0,
            "witness": top.witness.to_json(),
            "minor": None,
            "minor_polynomial": "1",
        }
    rows, cols = top.minors_used[0]
    det_poly = _poly_det(_minor_entries(L, r, (rows, cols)))
    if not det_poly:
        raise RuntimeError("internal error: symbolic certifying minor is zero")
    value = _poly_eval(det_poly, top.witness.coords)
    if value == 0:
        raise RuntimeError("internal error: symbolic minor vanishes at witness")
    names = [f"F{k+1}" for k in range(L.dim)]
    return {
        "rank": r,
        "witness": top.witness.to_json(),
        "minor": {"rows": list(rows), "cols": list(cols)},
        "minor_polynomial": _poly_str(det_poly, names),
        "minor_value_at_witness": rational_to_str(value),
    }


def foliation_check(stratum: Stratum) -> dict:
    """Constant-rank report of the orbit distribution on one stratum.

    The Hamiltonian directions at a sample are the rows of its Poisson
    matrix B.  Every member of a stratum has rank r by construction, so
    they span exactly r dimensions at each sample, and B = -B^T, so the
    row space of B is its image.  The report therefore follows from the
    stratum and needs no elimination.
    """
    if stratum.sample_count < 1:
        raise InputError("stratum has no samples to check")
    return {
        "constant_rank": True,
        "distribution_is_image": True,
        "samples_checked": stratum.sample_count,
        "failure": None,
    }


class TowerReport(NamedTuple):
    """Structural description of the stratification's tower of extensions."""

    stages: tuple
    terminal: str
    strictly_decreasing: bool
    strata: tuple = ()

    def to_json(self) -> dict:
        return {
            "stages": [dict(s) for s in self.stages],
            "terminal": self.terminal,
            "strictly_decreasing": self.strictly_decreasing,
            "strata": [s.to_json() for s in self.strata],
        }

    def to_table(self) -> str:
        lines = ["stage  orbit_dim  ideal          quotient"]
        for s in self.stages:
            lines.append(
                f"{s['stage']:<6} {s['orbit_dimension']:<10} "
                f"{s['ideal']:<14} {s['quotient']}"
            )
        lines.append(f"terminal: {self.terminal}")
        return "\n".join(lines)


def extension_tower(L: LieAlgebra, config: SamplerConfig = SamplerConfig()) -> TowerReport:
    """One extension stage per positive-dimension stratum, largest first.

    Stage i is the short exact sequence with ideal the algebra over the
    open stratum V_{2n_i} and quotient the next-stage algebra; the
    terminal quotient has the character space as its spectrum.  The
    strata are `stratify`'s, but no minor is expanded, so its
    MAX_MINOR_TERMS check does not apply.
    """
    strata = _grouped(_certified(L, config))
    positive = [s for s in strata if s.orbit_dimension > 0]
    dims = [s.orbit_dimension for s in positive]
    decreasing = all(a > b for a, b in zip(dims, dims[1:])) and all(d > 0 for d in dims)
    stages = []
    for idx, s in enumerate(positive):
        stages.append(
            {
                "stage": idx + 1,
                "orbit_dimension": s.orbit_dimension,
                "ideal": f"C*(V_{s.orbit_dimension})",
                "quotient": f"A_{idx + 1}",
                "sample_count": s.sample_count,
            }
        )
    if positive:
        terminal = (
            f"A_{len(positive)} has spectrum the character space of the group"
        )
    else:
        terminal = "abelian case: the algebra itself has spectrum the character space"
    return TowerReport(
        stages=tuple(stages),
        terminal=terminal,
        strictly_decreasing=decreasing,
        strata=tuple(strata),
    )

