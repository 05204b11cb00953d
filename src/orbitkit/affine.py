"""The ax+b group acting on a logarithmic grid, with exact dilation shifts.

Group elements compose as (a1, b1)(a2, b2) = (a1 a2, a1 b2 + b1).  The
grid discretizes the two half-lines x = s e^u, s = +-1, with u running
over -L..L in steps of h, so the invariant measure dx/|x| = du becomes the
constant quadrature weight h.  A dilation a = +-e^{mh} then acts as an
exact index shift by m on each sign branch, wrapping periodically at the
edge; the wrap keeps the discrete model exactly unitary and stands in for
the infinite line.

The representation is (S_g f)(x) = e^{ibx} f(ax).  Phases are evaluated in
extended precision (the arguments b x reach a few thousand, where double
rounding alone would eat the 1e-12 budget) and the verification routines
report max residuals over random trials; a NaN residual propagates
through the max instead of reading as 0.  The one-dimensional characters
U_lambda^eps(g) = |a|^{i lambda} (sgn a)^eps and the recorded index pair
(1, 1) complete the catalog.

Every residual is bit for bit what drawing and evaluating one value at a
time gives.  A random grid function is one ``getrandbits`` call: its
32-bit Mersenne Twister words are the ones ``rng.uniform(-1, 1)`` would
consume, in the same order, and each pair becomes a double by CPython's
own exact formula for ``random()``.  The magnitudes e^u are computed once
per grid, the phases on the s = +1 branch only (b(-x) = -(bx) exactly,
cos is even and sin odd, so the s = -1 row is cos - i sin of the same
values), and the last two phase rows are kept, so a trial's unitarity
check reuses g1's phases from its homomorphism check.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import InputError

# nodes per sign branch, 2 L/h + 1; a larger grid is an input error
MAX_BRANCH_NODES = 10**6
# worst_residuals' largest trials x (branch_size + TRIAL_OVERHEAD_NODES),
# checked before the first trial.  A trial costs about 0.27 ms plus 1.35 us
# per branch node, and 0.27 ms is the price of 200 nodes, so every admitted
# run is capped near 27 s: 33 trials on the largest grid (600,001 nodes),
# 43,763 on a 257-node branch
MAX_TRIAL_NODES = 2 * 10**7
TRIAL_OVERHEAD_NODES = 200


@dataclass(frozen=True)
class AffineElement:
    """One affine map x -> ax + b with a nonzero."""

    a: float
    b: float

    def __post_init__(self):
        if self.a == 0:
            raise InputError("dilation part must be nonzero")

    @staticmethod
    def identity() -> "AffineElement":
        return AffineElement(1.0, 0.0)

    def compose(self, other: "AffineElement") -> "AffineElement":
        # Extended precision: the b part is later multiplied by coordinates
        # as large as e^L, which amplifies double rounding past 1e-12.
        a1, b1 = np.longdouble(self.a), np.longdouble(self.b)
        a2, b2 = np.longdouble(other.a), np.longdouble(other.b)
        return AffineElement(a1 * a2, a1 * b2 + b1)

    def inverse(self) -> "AffineElement":
        a, b = np.longdouble(self.a), np.longdouble(self.b)
        return AffineElement(1 / a, -b / a)

    def to_json(self) -> dict:
        return {"a": float(self.a), "b": float(self.b)}


@dataclass(frozen=True)
class LogGrid:
    """Two-branch log grid: nodes s e^u, u = -L..L step h, weight h each."""

    L: float
    h: float

    def __post_init__(self):
        if not (self.L > 0 and self.h > 0):  # NaN fails both
            raise InputError("grid needs L > 0 and h > 0")
        steps = self.L / self.h
        if 2 * steps + 1 > MAX_BRANCH_NODES:
            raise InputError(f"a grid branch may have at most {MAX_BRANCH_NODES} nodes")
        if abs(steps - round(steps)) > 1e-9:
            raise InputError("L must be an integer multiple of h")

    @property
    def branch_size(self) -> int:
        return 2 * round(self.L / self.h) + 1

    @property
    def node_count(self) -> int:
        return 2 * self.branch_size

    def log_values(self) -> np.ndarray:
        """The u values, in extended precision."""
        m = round(self.L / self.h)
        return (np.arange(-m, m + 1, dtype=np.longdouble)) * np.longdouble(self.h)

    @cached_property
    def magnitudes(self) -> np.ndarray:
        """The s = +1 node coordinates e^u, read-only; s = -1 is their negative."""
        mag = np.exp(self.log_values())
        mag.flags.writeable = False
        return mag

    def random_function(self, rng: random.Random) -> np.ndarray:
        """A grid function with real, then imaginary, parts row by row from
        rng.uniform(-1, 1), bit for bit and leaving rng in the same state.

        random() is ((a >> 5) 2^26 + (b >> 6)) / 2^53 on two consecutive
        32-bit words, and getrandbits(64 n) returns 2n such words, first
        drawn least significant; every step below is exact or the IEEE
        operation uniform itself performs.
        """
        size = self.branch_size
        count = 4 * size
        words = np.frombuffer(
            rng.getrandbits(64 * count).to_bytes(8 * count, "little"), dtype="<u4"
        )
        r = ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) / 9007199254740992.0
        re, im = (-1.0 + 2.0 * r).reshape(2, 2, size)
        return re + 1j * im

    def norm_squared(self, f: np.ndarray) -> float:
        return float(self.h * np.sum(np.abs(f) ** 2))

    def shift_steps(self, a: float) -> int:
        """The integer m with |a| = e^{mh}, or an input error naming the
        nearest aligned dilation."""
        u = math.log(_double_magnitude(a))
        m = u / self.h
        m_round = round(m)
        if abs(m - m_round) > 1e-9:
            nearest = math.exp(m_round * self.h)
            raise InputError(
                f"dilation a = {a} is not grid-aligned; nearest aligned "
                f"magnitude is e^({m_round}*h) = {nearest}"
            )
        return m_round


def _double_magnitude(a) -> float:
    """|a| as a double; an input error when it is not finite and nonzero."""
    magnitude = abs(float(a))
    if not 0.0 < magnitude < math.inf:
        raise InputError(f"dilation |a| = {abs(a)!s} is not a finite nonzero double")
    return magnitude


@lru_cache(maxsize=2)
def _phases(b, grid: LogGrid) -> np.ndarray:
    """e^{ibx} on both branches, shape (2, branch_size), read-only.

    The argument is reduced in extended precision on the s = +1 branch
    only: b(-x) = -(bx) exactly, cos is even and sin odd, so the s = -1
    row is cos - i sin of the same values.  Each part is rounded to double
    as cos + i sin in complex extended precision would be: the imaginary
    parts are 0 + sin and 0 - sin, which turn a zero sine into +0 on both
    rows.  Two entries suffice for a trial of worst_residuals to evaluate
    g1's phases once: the homomorphism check asks for g2, g1 and g1 g2,
    then the unitarity check for g1.
    """
    theta = np.longdouble(b) * grid.magnitudes
    sin = np.sin(theta)
    phases = np.empty((2, grid.branch_size), dtype=complex)
    phases.real = np.cos(theta)
    phases.imag[0] = 0.0 + sin
    phases.imag[1] = 0.0 - sin
    phases.flags.writeable = False
    return phases


def rep_S(g: AffineElement, grid: LogGrid, f: np.ndarray) -> np.ndarray:
    """(S_g f)(x) = e^{ibx} f(ax) on the grid.

    The dilation must be grid-aligned: |a| = e^{mh} shifts indices by m
    with periodic wrap, and a < 0 additionally swaps the sign branches.
    """
    f = np.asarray(f)
    if f.shape != (2, grid.branch_size):
        raise InputError(
            f"grid function must have shape (2, {grid.branch_size})"
        )
    m = grid.shift_steps(g.a)
    shifted = np.roll(f, -m, axis=1)
    if g.a < 0:
        shifted = shifted[::-1]
    return _phases(g.b, grid) * shifted


def seam_free_window(grid: LogGrid, m1: int, m2: int) -> np.ndarray:
    """Indices whose composite shift never crosses the periodic seam.

    The wrap keeps each single S_g unitary, but a wrapped node sits at the
    coordinate on the far end of the grid, so the phase the inner factor
    contributed there is not the phase of the point a1 x; the composition
    identity holds only where neither the inner shift m1 nor the total
    shift m1 + m2 wraps.
    """
    size = grid.branch_size
    k = np.arange(size)
    inner = k + m1
    total = k + m1 + m2
    return k[(inner >= 0) & (inner < size) & (total >= 0) & (total < size)]


def _nanmax(worst: float, value: float) -> float:
    """max(worst, value), except that a NaN on either side is kept."""
    return value if math.isnan(value) or value > worst else worst


def verify_homomorphism(
    g1: AffineElement,
    g2: AffineElement,
    grid: LogGrid,
    trials: int = 100,
    seed: int = 0,
    include_seam: bool = False,
) -> float:
    """Max over trials of the sup-norm gap S_{g1} S_{g2} f - S_{g1 g2} f.

    By default the gap is measured on the seam-free window, where it is
    pure rounding; with include_seam=True the wrapped nodes are kept, and
    their order-one phase mismatch dominates.
    """
    rng = random.Random(seed)
    composed = g1.compose(g2)
    window = seam_free_window(grid, grid.shift_steps(g1.a), grid.shift_steps(g2.a))
    worst = 0.0
    for _ in range(trials):
        f = grid.random_function(rng)
        lhs = rep_S(g1, grid, rep_S(g2, grid, f))
        rhs = rep_S(composed, grid, f)
        gap = np.abs(lhs - rhs)
        if not include_seam:
            gap = gap[:, window]
        if gap.size:
            worst = _nanmax(worst, float(np.max(gap)))
    return worst


def verify_unitarity(
    g: AffineElement, grid: LogGrid, trials: int = 100, seed: int = 0
) -> float:
    """Max over trials of the quadrature-norm-squared deviation under S_g."""
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(trials):
        f = grid.random_function(rng)
        worst = _nanmax(
            worst,
            abs(grid.norm_squared(rep_S(g, grid, f)) - grid.norm_squared(f)),
        )
    return worst


def character_U(lam: float, eps: int, g: AffineElement) -> complex:
    """U_lambda^eps(g) = |a|^{i lambda} (sgn a)^eps, a unit complex number."""
    if eps not in (0, 1):
        raise InputError("eps must be 0 or 1")
    value = complex(np.exp(1j * lam * math.log(abs(g.a))))
    if eps == 1 and g.a < 0:
        value = -value
    return value


def random_aligned_element(
    grid: LogGrid, rng: random.Random, max_steps: int = 32
) -> AffineElement:
    """Random group element whose dilation the grid can shift exactly."""
    m = rng.randint(-max_steps, max_steps)
    sign = rng.choice((1.0, -1.0))
    with np.errstate(over="ignore", under="ignore"):
        a = np.longdouble(sign) * np.exp(np.longdouble(m) * np.longdouble(grid.h))
    _double_magnitude(a)
    return AffineElement(a, rng.uniform(-3.0, 3.0))


def worst_residuals(grid: LogGrid, trials: int, seed: int) -> dict:
    """Worst homomorphism, unitarity and character residuals on the grid.

    Each trial draws a random aligned pair (g1, g2) and measures one
    random function under S_{g1} S_{g2} = S_{g1 g2}, one under unitarity
    of S_{g1}, and one random character U_lambda^eps on the pair.  A grid
    whose edge coordinate e^L overflows extended precision, a dilation
    outside the double range, and a non-finite residual (overflowing
    phases) are input errors, as is a trial count below 1, or
    trials x (branch_size + TRIAL_OVERHEAD_NODES) above MAX_TRIAL_NODES.
    """
    if trials < 1:
        raise InputError("trials must be at least 1")
    if trials * (grid.branch_size + TRIAL_OVERHEAD_NODES) > MAX_TRIAL_NODES:
        raise InputError(
            f"trials x (branch nodes + {TRIAL_OVERHEAD_NODES}) may be at most "
            f"{MAX_TRIAL_NODES}, got {trials} x ({grid.branch_size} + "
            f"{TRIAL_OVERHEAD_NODES})"
        )
    with np.errstate(over="ignore"):
        if not np.isfinite(np.exp(np.longdouble(grid.L))):
            raise InputError(f"non-finite grid: e^L overflows extended precision at L = {grid.L}")
    rng = random.Random(seed)
    worst_hom = worst_unit = worst_char = 0.0
    for _ in range(trials):
        g1 = random_aligned_element(grid, rng)
        g2 = random_aligned_element(grid, rng)
        worst_hom = _nanmax(
            worst_hom,
            verify_homomorphism(g1, g2, grid, trials=1, seed=rng.randrange(1 << 30)),
        )
        worst_unit = _nanmax(
            worst_unit,
            verify_unitarity(g1, grid, trials=1, seed=rng.randrange(1 << 30)),
        )
        lam = rng.uniform(-2.0, 2.0)
        eps = rng.choice((0, 1))
        gap = abs(
            character_U(lam, eps, g1.compose(g2))
            - character_U(lam, eps, g1) * character_U(lam, eps, g2)
        )
        worst_char = _nanmax(worst_char, gap)
    residuals = {
        "homomorphism_residual": worst_hom,
        "unitarity_residual": worst_unit,
        "character_residual": worst_char,
    }
    bad = sorted(name for name, value in residuals.items() if not math.isfinite(value))
    if bad:
        raise InputError(
            f"non-finite {', '.join(bad)} on the grid L = {grid.L}, h = {grid.h}: "
            "its coordinates or phases overflow floating point"
        )
    return residuals


def index_metadata() -> dict:
    """The recorded index pair and extension labels; nothing is computed."""
    return {
        "index": (1, 1),
        "ext_group": "Ext(S¹ ∨ S¹)",
        "ext_group_value": "Z ⊕ Z",
        "quotient": "C(S¹ ∨ S¹)",
    }
