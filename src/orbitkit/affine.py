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
values).

Trials are evaluated in blocks of as many as fit BLOCK_NODES branch
nodes.  A block's draws are made trial by trial in the order one trial at
a time would make them; then each step is one numpy call over the whole
block: one ``frombuffer`` over the concatenated ``getrandbits`` bytes, one
extended-precision sin/cos over the g2, g1 and g1 g2 phase rows (g1's
rows serve both the homomorphism and the unitarity check), index-array
shifts, and masked seam-free maxima.  Every operation on an entry is the
one a single trial performs, so the maxima are the same floats.
"""

from __future__ import annotations

import math
import random
from functools import cached_property

import numpy as np

from . import InputError

# nodes per sign branch, 2 L/h + 1; a larger grid is an input error
MAX_BRANCH_NODES = 10**6
# worst_residuals' largest trials x (branch_size + TRIAL_OVERHEAD_NODES),
# checked before the first trial.  On one pinned CPU a trial costs about
# 0.06 ms plus 1 us per branch node (0.25 ms on 257 nodes, 0.58 s on
# 600,001), so 200 nodes more than cover the fixed part and every admitted
# run is capped near 20 s: 33 trials on the largest grid (600,001 nodes),
# 43,763 on a 257-node branch (about 11 s)
MAX_TRIAL_NODES = 2 * 10**7
TRIAL_OVERHEAD_NODES = 200
# trials per block: as many as fit this many branch nodes, and at least
# one; phase rows are reduced three per trial of such a block at a time,
# so a larger grid takes them one or two rows at a time
BLOCK_NODES = 2**12


class AffineElement:
    """One affine map x -> ax + b with a nonzero."""

    def __init__(self, a: float, b: float):
        if a == 0:
            raise InputError("dilation part must be nonzero")
        self.a, self.b = a, b

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


class LogGrid:
    """Two-branch log grid: nodes s e^u, u = -L..L step h, weight h each."""

    def __init__(self, L: float, h: float):
        if not (L > 0 and h > 0):  # NaN fails both
            raise InputError("grid needs L > 0 and h > 0")
        steps = L / h
        if 2 * steps + 1 > MAX_BRANCH_NODES:
            raise InputError(f"a grid branch may have at most {MAX_BRANCH_NODES} nodes")
        if abs(steps - round(steps)) > 1e-9:
            raise InputError("L must be an integer multiple of h")
        self.L, self.h = L, h

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

    def norm_squared(self, f: np.ndarray):
        """h sum |f|^2 over the last two axes: one value per grid function."""
        return self.h * np.sum(np.abs(f) ** 2, axis=(-2, -1))

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


def _random_functions(grid: LogGrid, rngs) -> np.ndarray:
    """One grid function per generator, shape (len(rngs), 2, branch_size),
    from one frombuffer over their concatenated getrandbits bytes.

    random() is ((a >> 5) 2^26 + (b >> 6)) / 2^53 on two consecutive
    32-bit words, and getrandbits(64 n) returns 2n such words, first drawn
    least significant; a generator listed twice draws twice, in turn.
    Every step below is exact or the IEEE operation uniform itself
    performs, and the parts are stored as drawn: re + 1j im would only add
    signed zeros to them.
    """
    size = grid.branch_size
    count = 4 * size
    words = np.frombuffer(
        b"".join(rng.getrandbits(64 * count).to_bytes(8 * count, "little") for rng in rngs),
        dtype="<u4",
    )
    r = ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) / 9007199254740992.0
    parts = (-1.0 + 2.0 * r).reshape(-1, 2, 2, size)
    f = np.empty((len(parts), 2, size), dtype=complex)
    f.real = parts[:, 0]
    f.imag = parts[:, 1]
    return f


def _phase_rows(grid: LogGrid, bs) -> np.ndarray:
    """e^{ibx} on both branches for each b, shape (len(bs), 2, branch_size).

    The argument is reduced in extended precision on the s = +1 branch
    only: b(-x) = -(bx) exactly, cos is even and sin odd, so the s = -1
    row is cos - i sin of the same values.  Each part is rounded to double
    as cos + i sin in complex extended precision would be: the imaginary
    parts are 0 + sin and 0 - sin, which turn a zero sine into +0 on both
    rows.  One sin/cos reduces a block's three rows per trial at a time.
    """
    size = grid.branch_size
    bs = np.array(bs, dtype=np.longdouble)
    phases = np.empty((len(bs), 2, size), dtype=complex)
    step = max(1, 3 * BLOCK_NODES // size)
    for start in range(0, len(bs), step):
        theta = bs[start : start + step, None] * grid.magnitudes
        sin = np.sin(theta)
        rows = phases[start : start + step]
        rows.real = np.cos(theta)[:, None]
        rows.imag[:, 0] = 0.0 + sin
        rows.imag[:, 1] = 0.0 - sin
    return phases


def _apply(role, f: np.ndarray) -> np.ndarray:
    """S_g f on a block of functions f, shape (count, 2, branch_size).

    A role holds the phase rows, shift steps and signs of its elements,
    one per function or one for all.  f(ax) is f at flat indices: |a| =
    e^{mh} shifts indices by m with periodic wrap, and a < 0 swaps the
    sign branches.  The phases stay the left factor: numpy's complex
    product is not commutative bit for bit, and ``phases * np.take(...)``
    on a large block would let numpy swap the factors to reuse the
    temporary.
    """
    phases, steps, negative = role
    count, _, size = f.shape
    rows = 2 * np.arange(count)[:, None] + (np.array(negative, dtype=np.intp)[:, None] ^ [0, 1])
    cols = (np.arange(size) + np.array([m % size for m in steps])[:, None]) % size
    out = np.take(f, rows[:, :, None] * size + cols[:, None, :])
    return np.multiply(phases, out, out=out)


def _role(grid: LogGrid, g: AffineElement) -> tuple:
    """The role of one element for every function of a block."""
    return _phase_rows(grid, [g.b]), [grid.shift_steps(g.a)], [g.a < 0]


def seam_free_window(grid: LogGrid, m1, m2) -> np.ndarray:
    """Whether each index's composite shift never crosses the periodic seam.

    The wrap keeps each single S_g unitary, but a wrapped node sits at the
    coordinate on the far end of the grid, so the phase the inner factor
    contributed there is not the phase of the point a1 x; the composition
    identity holds only where neither the inner shift m1 nor the total
    shift m1 + m2 wraps.  The mask has one entry per branch index; m1 and
    m2 broadcast against the indices, so columns of shifts give one row
    per pair.
    """
    size = grid.branch_size
    k = np.arange(size)
    inner = k + m1
    total = inner + m2
    return (inner >= 0) & (inner < size) & (total >= 0) & (total < size)


def _nanmax(worst: float, value: float) -> float:
    """max(worst, value), except that a NaN on either side is kept."""
    return value if math.isnan(value) or value > worst else worst


def _block_sizes(trials: int, size: int) -> list:
    """Trials per block: as many as fit BLOCK_NODES branch nodes, at least one."""
    per_block = max(1, BLOCK_NODES // size)
    return [min(per_block, trials - start) for start in range(0, trials, per_block)]


def _pair_roles(grid: LogGrid, pairs) -> tuple:
    """The g2, g1 and g1 g2 roles of a block, and its seam-free mask.

    pairs holds (g1, g2, g1 g2, m1, m2, m12) with the shift steps, one per
    function or one for all.
    """
    g1, g2, g12, m1, m2, m12 = zip(*pairs)
    elements = g2 + g1 + g12
    phases = _phase_rows(grid, [g.b for g in elements])
    phases = phases.reshape(3, len(pairs), 2, grid.branch_size)
    negative = np.array([g.a < 0 for g in elements]).reshape(3, len(pairs))
    roles = list(zip(phases, (m2, m1, m12), negative))
    return roles, seam_free_window(grid, np.array(m1)[:, None], np.array(m2)[:, None])


def _homomorphism_gap(f: np.ndarray, roles, inside) -> float:
    """Max over a block of |S_{g1} S_{g2} f - S_{g1 g2} f| where the mask
    inside holds; a NaN there is kept."""
    g2, g1, g12 = roles
    gap = np.abs(_apply(g1, _apply(g2, f)) - _apply(g12, f))
    np.copyto(gap, 0.0, where=~inside[:, None])
    return float(np.max(gap))


def _unitarity_gap(grid: LogGrid, f: np.ndarray, role) -> float:
    """Max over a block of the norm-squared deviation under S_g; a NaN is kept."""
    return float(np.max(np.abs(grid.norm_squared(_apply(role, f)) - grid.norm_squared(f))))


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
    steps = [grid.shift_steps(g.a) for g in (g1, g2, composed)]
    roles, inside = _pair_roles(grid, [(g1, g2, composed, *steps)])
    worst = 0.0
    for count in _block_sizes(trials, grid.branch_size):
        f = _random_functions(grid, [rng] * count)
        worst = _nanmax(worst, _homomorphism_gap(f, roles, inside | include_seam))
    return worst


def verify_unitarity(
    g: AffineElement, grid: LogGrid, trials: int = 100, seed: int = 0
) -> float:
    """Max over trials of the quadrature-norm-squared deviation under S_g."""
    rng = random.Random(seed)
    role = _role(grid, g)
    worst = 0.0
    for count in _block_sizes(trials, grid.branch_size):
        f = _random_functions(grid, [rng] * count)
        worst = _nanmax(worst, _unitarity_gap(grid, f, role))
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
    for count in _block_sizes(trials, grid.branch_size):
        pairs, hom_rngs, unit_rngs = [], [], []
        for _ in range(count):
            g1 = random_aligned_element(grid, rng)
            g2 = random_aligned_element(grid, rng)
            hom_rngs.append(random.Random(rng.randrange(1 << 30)))
            composed = g1.compose(g2)
            # a composite outside the double range fails before the next draw
            steps = [grid.shift_steps(g.a) for g in (g1, g2, composed)]
            pairs.append((g1, g2, composed, *steps))
            unit_rngs.append(random.Random(rng.randrange(1 << 30)))
            lam = rng.uniform(-2.0, 2.0)
            eps = rng.choice((0, 1))
            gap = abs(
                character_U(lam, eps, composed)
                - character_U(lam, eps, g1) * character_U(lam, eps, g2)
            )
            worst_char = _nanmax(worst_char, gap)
        roles, inside = _pair_roles(grid, pairs)
        worst_hom = _nanmax(
            worst_hom, _homomorphism_gap(_random_functions(grid, hom_rngs), roles, inside)
        )
        worst_unit = _nanmax(
            worst_unit, _unitarity_gap(grid, _random_functions(grid, unit_rngs), roles[1])
        )
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
