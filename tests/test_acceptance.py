"""Acceptance gate: one test and one printed verdict line per criterion."""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from orbitkit import affine, chern, cyclic, qgroup, quantize, strata
from orbitkit.exactnum import GaussRational
from orbitkit.liealg import Covector, LieAlgebra, check_polarization
from subspaces import spanned_by

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CONFIG = strata.SamplerConfig(seed=0, samples=1000, coordinate_range=3)


def _verdict(number: int, label: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    line = f"{status} criterion {number}: {label}"
    if failures:
        line += " [" + "; ".join(failures) + "]"
    print(line)
    assert not failures, line


def _check(failures: list, ok: bool, name: str) -> None:
    if not ok:
        failures.append(name)


def test_criterion_01_chern_coefficients():
    failures = []
    t0 = time.perf_counter()
    _check(
        failures,
        all(chern.phi(n, 1, q) == 1 for n in range(13) for q in range(1, 9)),
        "phi(n,1,q) != 1 somewhere",
    )
    _check(failures, chern.phi(3, 2, 2) == 1, "phi(3,2,2)")
    _check(failures, chern.phi(3, 2, 3) == -1, "phi(3,2,3)")
    su2 = chern.chern_matrix("SU", 2)
    _check(failures, su2.rows == ((Fraction(-1),),), "SU(2) matrix")
    su3 = chern.chern_matrix("SU", 3)
    _check(
        failures,
        su3.rows
        == ((Fraction(-1), Fraction(1, 2)), (Fraction(-1), Fraction(-1, 2))),
        "SU(3) matrix",
    )
    _check(failures, su3.determinant == 1, "SU(3) determinant")
    _check(
        failures,
        all(chern.chern_matrix("SU", n).invertible for n in range(2, 7)),
        "SU(n) invertibility",
    )
    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s")
    _verdict(1, "Chern coefficients and matrices", failures)


def test_criterion_02_cyclic_homology():
    failures = []
    t0 = time.perf_counter()
    # morita_check at the default truncation 6 computes HP of the scalars
    # and of the 2x2 matrix amplification, each with the flag comparing
    # against truncation 4
    verdict = cyclic.morita_check(cyclic.gauss_field(), 2)
    _check(failures, verdict["base"] == [1, 0], "HP of the scalar line")
    _check(failures, verdict["base_stabilized"], "scalar stabilization 4 -> 6")
    _check(failures, verdict["amplified"] == [1, 0], "HP of the 2x2 matrices")
    _check(
        failures, verdict["amplified_stabilized"], "matrix stabilization 4 -> 6"
    )
    _check(failures, verdict["verdict"] == "pass", "morita verdict")
    pair = cyclic.hp_homology(cyclic.gauss_field_power(2), truncation=6)
    _check(failures, (pair.hp0, pair.hp1) == (2, 0), "HP of the doubled scalars")
    _check(failures, pair.stabilized, "doubled-scalar stabilization 4 -> 6")
    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 60.0, f"took {elapsed:.2f}s, budget 60s")
    _verdict(2, "truncated periodic cyclic homology", failures)


def test_criterion_03_operator_identities():
    failures = []
    rng = random.Random(0)
    algebras = [
        cyclic.FinAlgebra.load(FIXTURES / name)
        for name in ("qi.json", "qi2.json", "m2.json")
    ]
    for A in algebras:
        for level in range(1, 6):
            for _ in range(100):
                x = cyclic.Chain.random(A, level, rng)
                lam = cyclic.apply_operator("lambda", x)
                n_x = cyclic.apply_operator("N", x)
                if not cyclic.apply_operator("N", x - lam).is_zero():
                    failures.append(f"N(1-lambda) != 0 at level {level}")
                if not (n_x - cyclic.apply_operator("lambda", n_x)).is_zero():
                    failures.append(f"(1-lambda)N != 0 at level {level}")
                bx = cyclic.apply_operator("b", x - lam)
                if level >= 2:
                    bp = cyclic.apply_operator("bprime", x)
                    rhs = bp - cyclic.apply_operator("lambda", bp)
                else:
                    rhs = cyclic.Chain.zero(A, 0)
                if not (bx - rhs).is_zero():
                    failures.append(f"b(1-lambda) != (1-lambda)b' at level {level}")
                if level >= 2:
                    bb = cyclic.apply_operator("b", cyclic.apply_operator("b", x))
                    if not bb.is_zero():
                        failures.append(f"b^2 != 0 at level {level}")
                    pp = cyclic.apply_operator(
                        "bprime", cyclic.apply_operator("bprime", x)
                    )
                    if not pp.is_zero():
                        failures.append(f"b'^2 != 0 at level {level}")
                if failures:
                    break
            if failures:
                break
        if failures:
            break
    _verdict(3, "bicomplex operator identities, exact", failures)


def test_criterion_04_quantization_equivalence():
    failures = []
    t0 = time.perf_counter()
    model = quantize.SymplecticModel(1)
    monomials = []
    for i in range(4):
        for j in range(4 - i):
            poly = quantize.Poly.constant(model, 1)
            for _ in range(i):
                poly = poly * quantize.Poly.variable(model, 0)
            for _ in range(j):
                poly = poly * quantize.Poly.variable(model, 1)
            monomials.append(poly)
    good = quantize.parse_one_form("p1*dq1", model)
    _check(failures, quantize.check_curvature(good)["passes"], "curvature for p dq")
    bad_pairs = sum(
        0 if quantize.check_dirac(f, g, good)["passes"] else 1
        for f in monomials
        for g in monomials
    )
    _check(failures, bad_pairs == 0, f"{bad_pairs} bracket pairs fail for p dq")
    scaled = quantize.parse_one_form("2*p1*dq1", model)
    _check(
        failures,
        not quantize.check_curvature(scaled)["passes"],
        "curvature should fail for 2p dq",
    )
    q_poly = quantize.Poly.variable(model, 0)
    p_poly = quantize.Poly.variable(model, 1)
    _check(
        failures,
        not quantize.check_dirac(q_poly, p_poly, scaled)["passes"],
        "bracket identity should fail for 2p dq",
    )
    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s")
    _verdict(4, "quantization equivalence on monomial pairs", failures)


def test_criterion_05_stratification():
    failures = []
    t0 = time.perf_counter()
    loaded = {
        name: LieAlgebra.load(FIXTURES / f"{name}.json")
        for name in ("heisenberg", "aff1", "sl2", "abelian3")
    }
    expected_dims = {"heisenberg": {2, 0}, "aff1": {2, 0}, "abelian3": {0}}
    stratified = {}
    for name, L in loaded.items():
        found = stratified[name] = strata.stratify(L, CONFIG)
        dims = {s.orbit_dimension for s in found}
        if name in expected_dims and dims != expected_dims[name]:
            failures.append(f"{name} strata dims {sorted(dims)}")
        if any(s.orbit_dimension % 2 for s in found):
            failures.append(f"{name} has an odd orbit dimension")
        for s in found:
            report = strata.foliation_check(s)
            if not (report["constant_rank"] and report["distribution_is_image"]):
                failures.append(f"{name} foliation fails on dim {s.orbit_dimension}")
    for name in ("heisenberg", "aff1", "sl2"):
        rank = strata.generic_rank(loaded[name], stratified[name])["rank"]
        if rank != 2:
            failures.append(f"{name} generic rank {rank}")
    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s")
    _verdict(5, "orbit-dimension stratification", failures)


def test_criterion_06_polarizations():
    failures = []
    h3 = LieAlgebra.load(FIXTURES / "heisenberg.json")
    F = Covector.of(0, 0, 1)
    i = GaussRational.i()
    real = check_polarization(
        h3, F, spanned_by([[0, 0, 1], [1, 0, 0]], 3)
    )
    _check(failures, real.passed, "real polarization span{Z, X}")
    _check(
        failures, real.mixed_type == (1, 0, 1), f"real mixed type {real.mixed_type}"
    )
    cplx = check_polarization(
        h3, F, spanned_by([[0, 0, 1], [1, i, 0]], 3)
    )
    _check(failures, cplx.passed, "complex polarization span{Z, X+iY}")
    _check(
        failures, cplx.mixed_type == (0, 1, 0), f"complex mixed type {cplx.mixed_type}"
    )
    lone = check_polarization(h3, F, spanned_by([[1, 0, 0]], 3))
    _check(failures, not lone.subalgebra, "span{X} should fail condition (a)")
    _verdict(6, "polarization conditions on the Heisenberg algebra", failures)


def test_criterion_07_affine_group():
    failures = []
    t0 = time.perf_counter()
    grid = affine.LogGrid(L=8.0, h=2.0**-4)
    residuals = affine.worst_residuals(grid, 1000, 0)
    worst_hom = residuals["homomorphism_residual"]
    worst_unit = residuals["unitarity_residual"]
    worst_char = residuals["character_residual"]
    _check(failures, worst_hom <= 1e-12, f"homomorphism residual {worst_hom:.2e}")
    _check(failures, worst_unit <= 1e-12, f"unitarity residual {worst_unit:.2e}")
    _check(failures, worst_char <= 1e-12, f"character residual {worst_char:.2e}")
    _check(
        failures,
        affine.index_metadata()["index"] == (1, 1),
        "index pair",
    )
    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s")
    _verdict(7, "affine group representation residuals and index", failures)


def test_criterion_08_quantum_group():
    failures = []
    t0 = time.perf_counter()
    a2 = qgroup.weyl_group("A", 2)
    b2 = qgroup.weyl_group("B", 2)
    _check(failures, len(a2) == 6, "order of W(A2)")
    _check(failures, len(b2) == 8, "order of W(B2)")
    for family, rank, group in (("A", 2, a2), ("B", 2, b2)):
        for w in group:
            if (
                qgroup.evaluate_word(family, rank, w.word) != w.datum
                or len(w.word) != w.length
            ):
                failures.append(f"invalid reduced word in {family}{rank}")
                break
    catalog = qgroup.rep_catalog("A", 2, 3)
    _check(
        failures,
        all(
            (rep.dimension == 1) == rep.element.is_identity() for rep in catalog
        ),
        "dimension dichotomy",
    )
    for q in (0.3, 0.5, 0.8):
        interior = qgroup.relation_residuals(qgroup.build_rep_su2(q, 0.0, 32))[
            "interior"
        ]
        if interior > 1e-10:
            failures.append(f"interior residual {interior:.2e} at q={q}")
    character = qgroup.character_constraints(0.5)
    _check(
        failures,
        character["verdict"] == "pass"
        and character["gamma"] == 0.0
        and character["alpha_modulus"] == 1.0,
        "character constraints",
    )
    ranks = qgroup.joint_kernel_rank(0.5, degree=2, t_samples=5)
    _check(failures, ranks["full"], "joint kernel rank not full")
    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s")
    _verdict(8, "quantum-group catalog and truncated model", failures)


def test_criterion_09_entirety():
    failures = []
    t0 = time.perf_counter()
    cases = (
        ("finite:1,5,2", "entire"),
        ("1/fact", "entire"),
        ("floor-half-fact/fact", "not-entire"),
    )
    for pattern, expected in cases:
        got = cyclic.entirety(cyclic.parse_norm_pattern(pattern))["verdict"]
        if got != expected:
            failures.append(f"{pattern} -> {got}, expected {expected}")
    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s")
    _verdict(9, "entirety classification", failures)


def test_criterion_10_cli_determinism():
    failures = []
    commands = [
        ["lie", "check", "--algebra", str(FIXTURES / "heisenberg.json")],
        ["lie", "strata", "--algebra", str(FIXTURES / "sl2.json"), "--samples", "200"],
        [
            "lie",
            "polarize",
            "--algebra",
            str(FIXTURES / "heisenberg.json"),
            "--covector",
            "[0, 0, 1]",
            "--subspace",
            "[[1, 0, 0], [0, 0, 1]]",
        ],
        ["quantize", "verify", "--alpha", "p1*dq1", "--max-degree", "2"],
        ["cyclic", "hp", "--algebra", str(FIXTURES / "qi.json"), "--truncation", "4"],
        ["cyclic", "entire", "--pattern", "floor-half-fact/fact"],
        [
            "cyclic",
            "trace",
            "--algebra",
            str(FIXTURES / "m2.json"),
            "--trace",
            str(FIXTURES / "m2_trace.json"),
        ],
        ["chern", "phi", "3", "2", "2"],
        ["chern", "matrix", "--family", "SU", "--rank", "3"],
        ["qgroup", "reps", "--family", "A", "--rank", "2", "--t-samples", "2"],
        ["qgroup", "verify", "--q", "0.5", "--truncation", "8", "--t-samples", "3"],
        ["affine", "verify", "--l", "2.0", "--h", "0.25", "--trials", "20"],
        [
            "tower",
            "report",
            "--algebra",
            str(FIXTURES / "heisenberg.json"),
            "--samples",
            "200",
        ],
    ]
    for argv in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "orbitkit.cli", "--seed", "7", *argv],
                capture_output=True,
            )
            for _ in range(2)
        ]
        if any(proc.returncode != 0 for proc in runs):
            failures.append(f"{' '.join(argv[:2])} exited nonzero")
            continue
        if runs[0].stdout != runs[1].stdout:
            failures.append(f"{' '.join(argv[:2])} output differs across runs")
        else:
            json.loads(runs[0].stdout)
    _verdict(10, "byte-identical CLI reports", failures)
