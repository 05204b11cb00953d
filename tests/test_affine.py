"""The ax+b group on the log grid: shifts, phases, characters, index data."""

import math
import random
import re

import numpy as np
import pytest

import orbitkit.affine as affine_module
from orbitkit.affine import (
    MAX_BRANCH_NODES,
    MAX_TRIAL_NODES,
    AffineElement,
    LogGrid,
    _apply,
    _phase_rows,
    _random_functions,
    _role,
    character_U,
    index_metadata,
    random_aligned_element,
    seam_free_window,
    verify_homomorphism,
    verify_unitarity,
    worst_residuals,
)
from orbitkit.liealg import InputError

GRID = LogGrid(L=8.0, h=2.0**-4)


def _rep(g, grid, f):
    """(S_g f)(x) = e^{ibx} f(ax) on one grid function, by the block kernel."""
    return _apply(_role(grid, g), f[None])[0]


def _draw(grid, rng):
    """One grid function drawn by the block draw."""
    return _random_functions(grid, [rng])[0]


def test_identity_and_composition():
    e = AffineElement.identity()
    g = AffineElement(2.0, 3.0)
    assert g.compose(e).to_json() == g.to_json()
    assert e.compose(g).to_json() == g.to_json()
    gh = AffineElement(2.0, 3.0).compose(AffineElement(5.0, 7.0))
    assert gh.to_json() == {"a": 10.0, "b": 17.0}


def test_inverse_composes_to_identity():
    g = AffineElement(math.exp(3 * GRID.h), -1.25)
    back = g.compose(g.inverse())
    assert back.a == pytest.approx(1.0, abs=1e-15)
    assert back.b == pytest.approx(0.0, abs=1e-15)


def test_zero_dilation_rejected():
    with pytest.raises(InputError):
        AffineElement(0.0, 1.0)


def test_grid_sizes():
    assert GRID.branch_size == 257
    assert GRID.node_count == 514
    u = GRID.log_values()
    assert float(u[0]) == -8.0 and float(u[-1]) == 8.0
    mag = np.exp(GRID.log_values())
    nodes = np.stack([mag, -mag])
    assert nodes.shape == (2, 257)
    assert np.all(nodes[0] > 0) and np.all(nodes[1] < 0)


def test_grid_guards():
    with pytest.raises(InputError):
        LogGrid(L=0.0, h=0.5)
    with pytest.raises(InputError):
        LogGrid(L=1.0, h=-0.5)
    with pytest.raises(InputError):
        LogGrid(L=1.0, h=0.3)


def test_grid_node_guard_fires_before_allocating(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("grid allocated before the size guard fired")

    monkeypatch.setattr(np, "arange", forbidden)
    monkeypatch.setattr(np, "zeros", forbidden)
    assert LogGrid(L=249999.5, h=0.5).branch_size == MAX_BRANCH_NODES - 1
    for L, h in ((250000.0, 0.5), (30.0, 1e-7), (1e308, 1e-308)):
        with pytest.raises(InputError, match=f"at most {MAX_BRANCH_NODES} nodes"):
            LogGrid(L=L, h=h)


def test_shift_steps():
    assert GRID.shift_steps(1.0) == 0
    assert GRID.shift_steps(math.exp(3 * GRID.h)) == 3
    assert GRID.shift_steps(-math.exp(2 * GRID.h)) == 2
    with pytest.raises(InputError, match="nearest aligned"):
        GRID.shift_steps(2.0)


def test_quadrature_norm():
    f = np.ones((2, GRID.branch_size), dtype=complex)
    assert GRID.norm_squared(f) == pytest.approx(GRID.h * GRID.node_count)


def test_rep_pure_phase():
    g = AffineElement(1.0, 0.5)
    f = np.ones((2, GRID.branch_size), dtype=complex)
    out = _rep(g, GRID, f)
    mag = np.exp(GRID.log_values())
    x = np.asarray(np.stack([mag, -mag]), dtype=float)
    assert np.allclose(out, np.exp(1j * 0.5 * x), atol=1e-14)


def test_rep_pure_shift_is_exact():
    g = AffineElement(math.exp(GRID.h), 0.0)
    f = _draw(GRID, random.Random(1))
    assert np.array_equal(_rep(g, GRID, f), np.roll(f, -1, axis=1))
    assert verify_homomorphism(g, g, GRID, trials=5) == 0.0


def test_negative_dilation_swaps_branches():
    g = AffineElement(-1.0, 0.0)
    f = _draw(GRID, random.Random(2))
    assert np.array_equal(_rep(g, GRID, f), f[::-1])


def test_seam_free_window_shapes():
    inside = seam_free_window(GRID, 1, 2)
    assert np.flatnonzero(inside).tolist() == list(range(GRID.branch_size - 3))
    assert seam_free_window(GRID, -2, 5).sum() == GRID.branch_size - 5
    assert seam_free_window(GRID, 0, 0).all()
    pairs = seam_free_window(GRID, np.array([[1], [-2]]), np.array([[2], [5]]))
    assert pairs.shape == (2, GRID.branch_size)
    assert pairs.sum(axis=1).tolist() == [GRID.branch_size - 3, GRID.branch_size - 5]


def test_homomorphism_on_window():
    g1 = AffineElement(math.exp(GRID.h), 1.0)
    g2 = AffineElement(math.exp(2 * GRID.h), -2.0)
    assert verify_homomorphism(g1, g2, GRID) <= 1e-12
    assert verify_homomorphism(g1, g1.inverse(), GRID) <= 1e-12


def test_wrapped_nodes_break_the_identity():
    g1 = AffineElement(math.exp(GRID.h), 1.0)
    g2 = AffineElement(math.exp(2 * GRID.h), -2.0)
    assert verify_homomorphism(g1, g2, GRID, include_seam=True) > 1e-3


def test_homomorphism_over_random_aligned_pairs():
    rng = random.Random(0)
    worst = 0.0
    for _ in range(20):
        g1 = random_aligned_element(GRID, rng)
        g2 = random_aligned_element(GRID, rng)
        worst = max(
            worst,
            verify_homomorphism(g1, g2, GRID, trials=5, seed=rng.randrange(1 << 30)),
        )
    assert worst <= 1e-12


def test_unitarity():
    assert verify_unitarity(AffineElement(math.exp(GRID.h), 1.0), GRID) <= 1e-12
    assert verify_unitarity(AffineElement(-math.exp(5 * GRID.h), -2.5), GRID) <= 1e-12


def test_worst_residuals_within_tolerance():
    residuals = worst_residuals(GRID, 20, 0)
    assert sorted(residuals) == [
        "character_residual",
        "homomorphism_residual",
        "unitarity_residual",
    ]
    assert all(0.0 <= v <= 1e-12 for v in residuals.values())


def test_trial_node_bound_fires_before_the_first_trial(monkeypatch):
    class Admitted(Exception):
        pass

    def forbidden(*args):
        raise AssertionError("grid function drawn before the trial bound fired")

    def admitted(*args):
        raise Admitted

    monkeypatch.setattr(affine_module, "_random_functions", forbidden)
    grid = LogGrid(L=30.0, h=1e-4)
    assert grid.branch_size == 600001
    with pytest.raises(
        InputError, match=re.escape(f"at most {MAX_TRIAL_NODES}, got 34 x (600001 + 200)")
    ):
        worst_residuals(grid, 34, 0)
    # on a small grid the fixed cost of a trial binds: 257 + 200 nodes each
    assert GRID.branch_size == 257
    with pytest.raises(InputError, match=re.escape("got 43764 x (257 + 200)")):
        worst_residuals(GRID, 43764, 0)
    monkeypatch.setattr(affine_module, "random_aligned_element", admitted)
    with pytest.raises(Admitted):
        worst_residuals(grid, 33, 0)
    with pytest.raises(Admitted):
        worst_residuals(GRID, 43763, 0)


def test_overflowing_grid_residuals_are_nan_not_zero():
    # e^12000 overflows: coordinates become inf and the phases NaN
    grid = LogGrid(L=12000.0, h=1.0)
    g = AffineElement(math.e, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(verify_homomorphism(g, g, grid, trials=1))
        assert math.isnan(verify_unitarity(g, grid, trials=1))
        with pytest.raises(InputError, match="non-finite"):
            worst_residuals(grid, 2, 0)


def test_non_finite_grids_and_dilations_are_input_errors():
    # e^12000 overflows extended precision; e^(m*400) leaves the double
    # range for |m| >= 2, which the first trials draw
    with pytest.raises(InputError, match="non-finite grid"):
        worst_residuals(LogGrid(L=12000.0, h=4000.0), 1, 0)
    with pytest.raises(InputError, match="finite nonzero double"):
        worst_residuals(LogGrid(L=8000.0, h=400.0), 5, 0)
    for a in (math.inf, -math.inf, 0.0, math.nan, np.exp(np.longdouble(1000))):
        with pytest.raises(InputError, match="finite nonzero double"):
            GRID.shift_steps(a)


def test_random_aligned_elements_are_aligned():
    rng = random.Random(3)
    for _ in range(50):
        g = random_aligned_element(GRID, rng)
        GRID.shift_steps(g.a)  # must not raise
        assert -3.0 <= g.b <= 3.0


def test_characters_multiply():
    rng = random.Random(4)
    for eps in (0, 1):
        for _ in range(30):
            g1 = random_aligned_element(GRID, rng)
            g2 = random_aligned_element(GRID, rng)
            lam = rng.uniform(-4.0, 4.0)
            lhs = character_U(lam, eps, g1.compose(g2))
            rhs = character_U(lam, eps, g1) * character_U(lam, eps, g2)
            assert abs(lhs - rhs) <= 1e-12
            assert abs(abs(lhs) - 1.0) <= 1e-12


def test_character_sign_factor():
    g = AffineElement(-1.0, 0.0)
    assert character_U(0.0, 0, g) == pytest.approx(1.0)
    assert character_U(0.0, 1, g) == pytest.approx(-1.0)


def test_character_guard():
    with pytest.raises(InputError):
        character_U(1.0, 2, AffineElement.identity())


def test_index_metadata_is_fixed():
    data = index_metadata()
    assert data["index"] == (1, 1)
    assert data["ext_group_value"] == "Z ⊕ Z"


def _uniform_function(grid, rng):
    """The call-by-call draw: real rows, then imaginary rows."""
    size = grid.branch_size
    re = np.array([[rng.uniform(-1, 1) for _ in range(size)] for _ in range(2)])
    im = np.array([[rng.uniform(-1, 1) for _ in range(size)] for _ in range(2)])
    return re + 1j * im


@pytest.mark.parametrize("seed", [0, 2**40 + 3, -5])
@pytest.mark.parametrize("pending_gauss", [False, True])
def test_bulk_draw_matches_uniform_bit_for_bit(seed, pending_gauss):
    for grid in (GRID, LogGrid(L=2.0, h=0.25)):
        bulk, loop = random.Random(seed), random.Random(seed)
        if pending_gauss:
            bulk.gauss(0.0, 1.0)
            loop.gauss(0.0, 1.0)
        expected = _uniform_function(grid, loop)
        assert _draw(grid, bulk).tobytes() == expected.tobytes()
        assert bulk.getstate() == loop.getstate()


def _two_row_phases(b, grid):
    """e^{ibx} evaluated on both signed branches."""
    mag = np.exp(grid.log_values())
    theta = np.longdouble(b) * np.stack([mag, -mag])
    return (np.cos(theta) + 1j * np.sin(theta)).astype(complex)


def test_conjugate_branch_phases_match_two_row_evaluation_bit_for_bit():
    rng = random.Random(6)
    composed = AffineElement(-math.exp(GRID.h), 2.5).compose(AffineElement(1.0, -1.75))
    # e^8 b reaches about 10^4 at b = 3.4
    bs = [0.0, -0.0, -2.5, -3.0, 3.4, composed.b, 5e-324, -1e-300]
    bs += [rng.uniform(-3.4, 3.4) for _ in range(40)]
    # 5121 nodes a row: the rows are reduced two at a time
    for grid in (GRID, LogGrid(L=2.0, h=0.25), LogGrid(L=2.5, h=2.0**-10)):
        phases = _phase_rows(grid, bs)
        for b, row in zip(bs, phases):
            assert row.tobytes() == _two_row_phases(b, grid).tobytes(), b
    assert np.max(np.abs(np.longdouble(3.4) * GRID.magnitudes)) > 1e4


GOLDEN = {
    (8.0, 2.0**-4, 1000, 7): (
        "1.542371118540254e-15", "7.105427357601002e-15", "7.108895957933346e-16"
    ),
    (8.0, 2.0**-4, 1000, 701): (
        "1.2947314098277873e-15", "7.105427357601002e-15", "8.886119947416683e-16"
    ),
    (2.0, 0.25, 20, 7): (
        "2.2887833992611187e-16", "1.7763568394002505e-15", "9.42055475210265e-16"
    ),
    (2.0, 0.25, 20, 701): (
        "2.2887833992611187e-16", "8.881784197001252e-16", "1.790180836524724e-15"
    ),
    # 9 nodes a branch, so most shifts wrap past the whole grid; 455 trials a block
    (1.0, 0.25, 500, 3): (
        "4.440892098500626e-16", "1.3322676295501878e-15", "2.612122624796757e-15"
    ),
    # 5121 nodes a branch: one trial a block, its phase rows two at a time
    (2.5, 2.0**-10, 4, 9): (
        "4.577566798522237e-16", "8.881784197001252e-16", "1.944128986425528e-16"
    ),
}


@pytest.mark.parametrize("L, h, trials, seed", sorted(GOLDEN))
def test_worst_residuals_golden_floats(L, h, trials, seed):
    residuals = worst_residuals(LogGrid(L=L, h=h), trials, seed)
    names = ("homomorphism_residual", "unitarity_residual", "character_residual")
    assert tuple(repr(residuals[name]) for name in names) == GOLDEN[L, h, trials, seed]


# -- the per-trial path, the oracle of the block kernel -----------------------


def _nanmax(worst, value):
    return value if math.isnan(value) or value > worst else worst


def _oracle_rep(g, grid, f):
    """S_g f for one function: np.roll, a branch swap, then the phases."""
    shifted = np.roll(f, -grid.shift_steps(g.a), axis=1)
    if g.a < 0:
        shifted = shifted[::-1]
    return _two_row_phases(g.b, grid) * shifted


def _oracle_homomorphism(g1, g2, grid, f, include_seam=False):
    lhs = _oracle_rep(g1, grid, _oracle_rep(g2, grid, f))
    gap = np.abs(lhs - _oracle_rep(g1.compose(g2), grid, f))
    if not include_seam:
        m1, m2, size = grid.shift_steps(g1.a), grid.shift_steps(g2.a), grid.branch_size
        gap = gap[:, max(0, -m1, -m1 - m2) : max(0, min(size, size - m1, size - m1 - m2))]
    return float(np.max(gap)) if gap.size else 0.0


def _oracle_unitarity(g, grid, f):
    def norm_squared(v):
        return float(grid.h * np.sum(np.abs(v) ** 2))

    return abs(norm_squared(_oracle_rep(g, grid, f)) - norm_squared(f))


def _oracle_residuals(grid, trials, seed):
    """worst_residuals one trial at a time, and how many trials drew a
    negative dilation and a shift pair that wraps some node."""
    rng = random.Random(seed)
    hom = unit = char = 0.0
    negative = wrapped = 0
    for _ in range(trials):
        g1 = random_aligned_element(grid, rng)
        g2 = random_aligned_element(grid, rng)
        f = _draw(grid, random.Random(rng.randrange(1 << 30)))
        hom = _nanmax(hom, _oracle_homomorphism(g1, g2, grid, f))
        f = _draw(grid, random.Random(rng.randrange(1 << 30)))
        unit = _nanmax(unit, _oracle_unitarity(g1, grid, f))
        lam = rng.uniform(-2.0, 2.0)
        eps = rng.choice((0, 1))
        gap = abs(
            character_U(lam, eps, g1.compose(g2))
            - character_U(lam, eps, g1) * character_U(lam, eps, g2)
        )
        char = _nanmax(char, gap)
        negative += g1.a < 0 or g2.a < 0
        wrapped += not seam_free_window(grid, grid.shift_steps(g1.a), grid.shift_steps(g2.a)).all()
    return (hom, unit, char), negative, wrapped


@pytest.mark.parametrize(
    "L, h, trials, seed",
    [
        (8.0, 2.0**-4, 40, 3),  # 15 trials a block: two full blocks, then 10
        (1.0, 0.25, 500, 3),  # 455 trials a block; shifts reach past all 9 nodes
        (2.5, 2.0**-10, 3, 9),  # 5121 nodes: one trial a block, over the budget
    ],
)
def test_block_kernel_matches_the_per_trial_oracle(L, h, trials, seed):
    grid = LogGrid(L=L, h=h)
    expected, negative, wrapped = _oracle_residuals(grid, trials, seed)
    assert negative and wrapped
    residuals = worst_residuals(grid, trials, seed)
    names = ("homomorphism_residual", "unitarity_residual", "character_residual")
    assert [repr(residuals[name]) for name in names] == [repr(value) for value in expected]


def test_verify_functions_match_the_per_trial_oracle():
    rng = random.Random(8)
    # 23 trials on 257 nodes end in a partial block; 5121 nodes exceed one
    for grid, trials in ((GRID, 23), (LogGrid(L=2.5, h=2.0**-10), 2)):
        def element(sign, steps, b):
            return AffineElement(sign * math.exp(steps * grid.h), b)

        # a negative dilation, and a composite shift of -4 with wrapped nodes
        pairs = [(element(-1, 5, 1.25), element(1, -9, -2.5))]
        for _ in range(3):
            pairs.append(tuple(
                element(rng.choice((1, -1)), rng.randint(-40, 40), rng.uniform(-3.0, 3.0))
                for _ in range(2)
            ))
        for k, (g1, g2) in enumerate(pairs):
            f = _draw(grid, random.Random(k))
            assert _rep(g1, grid, f).tobytes() == _oracle_rep(g1, grid, f).tobytes()
            for include_seam in (False, True):
                draws = random.Random(k)
                expected = 0.0
                for _ in range(trials):
                    gap = _oracle_homomorphism(
                        g1, g2, grid, _draw(grid, draws), include_seam
                    )
                    expected = _nanmax(expected, gap)
                got = verify_homomorphism(g1, g2, grid, trials, k, include_seam)
                assert repr(got) == repr(expected)
            draws = random.Random(k)
            expected = 0.0
            for _ in range(trials):
                expected = _nanmax(
                    expected, _oracle_unitarity(g1, grid, _draw(grid, draws))
                )
            assert repr(verify_unitarity(g1, grid, trials, k)) == repr(expected)
