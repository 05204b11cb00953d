"""Stratification, certificates, foliation reports, extension tower."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from orbitkit.exactnum import ExactMatrix

from orbitkit.liealg import (
    Covector,
    InputError,
    LieAlgebra,
    abelian,
    aff1,
    heisenberg,
    poisson_matrix,
    sl2,
)
from orbitkit.strata import (
    MAX_MINOR_TERMS,
    MAX_SAMPLES,
    SamplerConfig,
    Stratum,
    _certify,
    extension_tower,
    foliation_check,
    generic_rank,
    stratify,
)

CONFIG = SamplerConfig(seed=0, samples=1000, coordinate_range=3)


def test_heisenberg_strata_dimensions():
    strata = stratify(heisenberg(), CONFIG)
    assert [s.orbit_dimension for s in strata] == [2, 0]
    assert sum(s.sample_count for s in strata) == CONFIG.samples
    # the top stratum is exactly the samples with F_Z != 0
    assert poisson_matrix(heisenberg(), strata[0].witness).rank() == 2


def test_aff1_strata_dimensions():
    strata = stratify(aff1(), CONFIG)
    assert [s.orbit_dimension for s in strata] == [2, 0]


def test_abelian_single_zero_stratum():
    strata = stratify(abelian(3), CONFIG)
    assert [s.orbit_dimension for s in strata] == [0]
    assert strata[0].sample_count == CONFIG.samples


def test_stratify_needs_at_least_one_sample():
    with pytest.raises(InputError):
        stratify(heisenberg(), SamplerConfig(seed=0, samples=0))


def test_sample_count_guard_fires_before_drawing(monkeypatch):
    def forbidden(self, dim):
        raise AssertionError("samples drawn before the size guard fired")

    monkeypatch.setattr(SamplerConfig, "draw", forbidden)
    too_many = SamplerConfig(seed=0, samples=MAX_SAMPLES + 1)
    for run in (stratify, extension_tower):
        with pytest.raises(InputError, match=f"more than {MAX_SAMPLES} samples"):
            run(heisenberg(), too_many)
    monkeypatch.setattr(SamplerConfig, "draw", lambda self, dim: [Covector.of(0, 0, 1)])
    found = stratify(heisenberg(), SamplerConfig(seed=0, samples=MAX_SAMPLES))
    assert [s.orbit_dimension for s in found] == [2]


def test_every_stratum_dimension_is_even():
    for L in (heisenberg(), aff1(), sl2(), abelian(2)):
        for s in stratify(L, CONFIG):
            assert s.orbit_dimension % 2 == 0
            assert s.higher_minors_vanish


def test_generic_rank_values_and_certificates():
    for L, expected in ((heisenberg(), 2), (aff1(), 2), (sl2(), 2), (abelian(3), 0)):
        report = generic_rank(L, stratify(L, CONFIG))
        assert report["rank"] == expected
        if expected:
            assert report["minor"] is not None
            assert report["minor_value_at_witness"] != "0"


def test_generic_rank_monotone_in_sample_count():
    small = generic_rank(sl2(), stratify(sl2(), SamplerConfig(seed=0, samples=20)))
    large = generic_rank(sl2(), stratify(sl2(), SamplerConfig(seed=0, samples=400)))
    assert large["rank"] >= small["rank"]


def test_sl2_known_witness_rank():
    assert poisson_matrix(sl2(), Covector.of(0, 1, 1)).rank() == 2


def test_foliation_check_passes_everywhere():
    for L in (heisenberg(), aff1(), sl2(), abelian(2)):
        for s in stratify(L, CONFIG):
            verdict = foliation_check(s)
            assert verdict["constant_rank"]
            assert verdict["distribution_is_image"]
            assert verdict["failure"] is None
            assert verdict["samples_checked"] == s.sample_count


def test_foliation_check_rejects_empty_stratum():
    ghost = Stratum(
        orbit_dimension=2,
        sample_count=0,
        witness=Covector.of(0, 0, 0),
        minors_used=(),
        higher_minors_vanish=True,
    )
    with pytest.raises(InputError):
        foliation_check(ghost)


def test_tower_heisenberg_single_stage():
    report = extension_tower(heisenberg(), CONFIG)
    assert len(report.stages) == 1
    assert report.stages[0]["orbit_dimension"] == 2
    assert report.strictly_decreasing
    assert "A_1" in report.to_table()


def test_tower_abelian_is_empty_with_character_note():
    report = extension_tower(abelian(3), CONFIG)
    assert report.stages == ()
    assert "character space" in report.terminal


def test_tower_reports_stage_per_positive_stratum():
    report = extension_tower(sl2(), CONFIG)
    dims = [stage["orbit_dimension"] for stage in report.stages]
    assert dims == sorted(dims, reverse=True)
    assert all(d > 0 for d in dims)


def _greedy_submatrix(B, r):
    """Reference certifying minor: greedy left-to-right columns, then rows."""
    cols = []
    for j in range(B.ncols):
        trial = cols + [j]
        if ExactMatrix([[row[jj] for jj in trial] for row in B.rows]).rank() == len(trial):
            cols = trial
            if len(cols) == r:
                break
    rows = []
    for i in range(B.nrows):
        trial = rows + [i]
        if ExactMatrix([[B.rows[ii][jj] for jj in cols] for ii in trial]).rank() == len(trial):
            rows = trial
            if len(rows) == r:
                break
    return tuple(rows), tuple(cols)


def test_invertible_submatrix_matches_greedy_choice():
    rng = random.Random(5)
    for _ in range(150):
        d = rng.randint(1, 6)
        # a sum of k random rank-2 blocks u v^T - v u^T, often rank-deficient
        B = [[Fraction(0)] * d for _ in range(d)]
        for _ in range(rng.randint(0, 3)):
            u = [Fraction(rng.randint(-2, 2)) for _ in range(d)]
            v = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(d)]
            for i in range(d):
                for j in range(d):
                    B[i][j] += u[i] * v[j] - v[i] * u[j]
        m = ExactMatrix(B)
        r = m.rank()
        cols = m.pivot_columns()
        greedy_rows, greedy_cols = _greedy_submatrix(m, r)
        # antisymmetric B: the greedy rows are the pivot columns, which
        # `_certify` takes for both the rows and the columns of its minor
        assert greedy_rows == greedy_cols == cols
        if r:
            minor = ExactMatrix([[m.rows[i][j] for j in cols] for i in cols])
            assert minor.determinant() != 0


def test_h3_h3_q2_strata_pinned():
    L = LieAlgebra.from_brackets(8, {(0, 1): {2: 1}, (3, 4): {5: 1}})
    found = stratify(L, SamplerConfig(seed=0, samples=40))
    assert [(s.orbit_dimension, s.sample_count) for s in found] == [(4, 37), (2, 3)]
    assert found[0].minors_used == (((0, 1, 3, 4), (0, 1, 3, 4)),)
    assert found[1].minors_used == (((3, 4), (3, 4)), ((0, 1), (0, 1)))
    assert all(s.higher_minors_vanish for s in found)
    assert [str(x) for x in found[0].witness.coords] == [
        "0", "3", "1/4", "-11/4", "-1", "1", "3/4", "0"
    ]
    assert generic_rank(L, found) == {
        "rank": 4,
        "witness": ["0", "3", "1/4", "-11/4", "-1", "1", "3/4", "0"],
        "minor": {"rows": [0, 1, 3, 4], "cols": [0, 1, 3, 4]},
        "minor_polynomial": "F3^2*F6^2",
        "minor_value_at_witness": "1/16",
    }


def _free_two_step(k):
    """Free 2-step nilpotent algebra on k generators: [X_a, X_b] = Z_ab."""
    pairs = itertools.combinations(range(k), 2)
    return LieAlgebra.from_brackets(
        k + k * (k - 1) // 2, {(a, b): {k + z: 1} for z, (a, b) in enumerate(pairs)}
    )


def test_generic_rank_bounds_the_minor_before_expanding_it(monkeypatch):
    # k = 10: ten rows of nine terms bound the 10-minor by 9^10 terms
    L = _free_two_step(10)
    top = Stratum(
        orbit_dimension=10,
        sample_count=1,
        witness=Covector(tuple(Fraction(1) for _ in range(L.dim))),
        minors_used=((tuple(range(10)), tuple(range(10))),),
        higher_minors_vanish=True,
    )

    def forbidden(*args):
        raise AssertionError("the minor was expanded before the bound was checked")

    monkeypatch.setattr("orbitkit.strata._poly_det", forbidden)
    with pytest.raises(InputError, match=f"more than {MAX_MINOR_TERMS} terms"):
        generic_rank(L, [top])


def test_generic_rank_admits_a_minor_at_the_bound(monkeypatch):
    # k = 4: the 4-minor has four rows of three terms, 81 in all
    L = _free_two_step(4)
    found = stratify(L, SamplerConfig(seed=0, samples=5))
    monkeypatch.setattr("orbitkit.strata.MAX_MINOR_TERMS", 81)
    report = generic_rank(L, found)
    assert report["rank"] == 4
    # the square of the Pfaffian F5*F10 - F6*F9 + F7*F8
    assert report["minor_polynomial"] == (
        "F5^2*F10^2 - 2*F5*F6*F9*F10 + 2*F5*F7*F8*F10 + F6^2*F9^2 - 2*F6*F7*F8*F9 + F7^2*F8^2"
    )
    monkeypatch.setattr("orbitkit.strata.MAX_MINOR_TERMS", 80)
    with pytest.raises(InputError, match="more than 80 terms"):
        generic_rank(L, found)


def test_stratify_rejects_the_minor_at_the_first_sample_of_the_largest_rank(monkeypatch):
    # k = 10: no covector has rank above 10, the number of generators, so
    # the first sample of rank 10 fixes the 10-minor of 9^10 terms; the
    # default 1000 samples took seconds to certify before the error
    L = _free_two_step(10)
    calls = []

    def counted(*args):
        calls.append(args)
        return _certify(*args)

    monkeypatch.setattr("orbitkit.strata._certify", counted)
    with pytest.raises(InputError, match=f"more than {MAX_MINOR_TERMS} terms"):
        stratify(L, SamplerConfig())
    assert 1 <= len(calls) <= 3
    # the tower expands no minor, so the bound does not apply to it
    tower = extension_tower(L, SamplerConfig(samples=3))
    assert [s["orbit_dimension"] for s in tower.stages] == [10]


def _dense_kernel_certificate(B, r):
    """Reference kernel certificate: the dense product B K against zero.

    K holds the kernel basis as columns; the certificate needs d - r of
    them and every entry of B K, d * d * (d - r) products, to vanish.
    """
    K = B.kernel_basis()
    BK = [[sum((a * b for a, b in zip(row, v)), Fraction(0)) for v in K] for row in B.rows]
    return len(K) == B.ncols - r and all(x == 0 for row in BK for x in row)


_HONEST_KERNEL = ExactMatrix.kernel_basis


def _tampered_kernel(mode, column=0):
    """A kernel_basis that leaves one vector out, or moves one off the kernel."""

    def kernel_basis(self):
        vectors = _HONEST_KERNEL(self)
        if mode == "short":
            return vectors[1:]
        if mode == "shifted" and vectors and self.pivot_columns():
            # B (v + e_p) = B e_p, a nonzero pivot column
            p = self.pivot_columns()[0]
            vectors[0] = tuple(x + (k == p) for k, x in enumerate(vectors[0]))
        if mode == "bump" and vectors:
            # v + e_j stays in ker B exactly when column j of B is zero
            j = column % self.ncols
            vectors[-1] = tuple(x + (k == j) for k, x in enumerate(vectors[-1]))
        return vectors

    return kernel_basis


def test_sparse_kernel_certificate_agrees_with_the_dense_product(monkeypatch):
    # random antisymmetric tables, many of them rank-deficient or breaking
    # Jacobi, against honest and tampered kernel bases
    rng = random.Random(19)
    outcomes = Counter()
    for trial in range(480):
        n = rng.randint(3, 7)
        density = rng.choice((0.15, 0.4, 0.7))
        brackets = {
            (i, j): {
                rng.randrange(n): Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2)))
                for _ in range(rng.randint(1, 2))
            }
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < density
        }
        L = LieAlgebra.from_brackets(n, brackets)
        F = Covector(tuple(Fraction(rng.choice((0, 0, 1, -2, 3)), rng.choice((1, 4))) for _ in range(n)))
        mode = rng.choice(("honest", "short", "shifted", "bump"))
        monkeypatch.setattr(ExactMatrix, "kernel_basis", _tampered_kernel(mode, trial))
        r, _, sparse = _certify(L, F)
        B = poisson_matrix(L, F)
        dense = r + 2 > n or _dense_kernel_certificate(B, r)
        assert sparse == dense, (brackets, F, mode)
        if r + 2 <= n:
            outcomes[mode, r > 0, sparse] += 1
    monkeypatch.undo()
    # only B = 0 keeps a shifted vector in the kernel, and bumped vectors
    # both stayed in the kernel and left it
    assert not any(ok for (mode, _, ok) in outcomes if mode == "short")
    assert not any(not ok for (mode, _, ok) in outcomes if mode == "honest")
    assert outcomes["shifted", True, True] == 0
    for key in (("honest", True, True), ("short", True, False), ("shifted", True, False),
                ("bump", True, True), ("bump", True, False)):
        assert outcomes[key] >= 10, outcomes


@pytest.mark.parametrize("mode", ["short", "shifted"])
def test_tampered_kernel_basis_fails_the_certificate(monkeypatch, mode):
    L = _free_two_step(3)
    config = SamplerConfig(seed=0, samples=20)
    assert all(s.higher_minors_vanish for s in stratify(L, config))
    monkeypatch.setattr(ExactMatrix, "kernel_basis", _tampered_kernel(mode))
    found = stratify(L, config)
    assert found[0].orbit_dimension == 2
    assert not any(s.higher_minors_vanish for s in found if s.orbit_dimension or mode == "short")


def test_free_two_step_on_eight_generators_is_certified():
    # dim 36, rank 8: the dense B K took 36 * 36 * 28 products a sample
    found = stratify(_free_two_step(8), SamplerConfig(seed=0, samples=5))
    assert [(s.orbit_dimension, s.sample_count, s.higher_minors_vanish) for s in found] == [
        (8, 5, True)
    ]
