"""Symbolic prequantization: fields, brackets, operators, cocycles."""

import random
from fractions import Fraction

from orbitkit.exactnum import GaussRational, HbarPoly
from orbitkit.liealg import abelian, heisenberg
from orbitkit.quantize import (
    Poly,
    SymplecticModel,
    action_cocycle,
    check_curvature,
    check_dirac,
    check_dirac_pairs,
    hamiltonian_field,
    monomials,
    parse_one_form,
    parse_poly,
    poisson,
    quantize_op,
)

MODEL = SymplecticModel(1)
Q = Poly.variable(MODEL, 0)
P = Poly.variable(MODEL, 1)
ALPHA = parse_one_form("p1*dq1", MODEL)


def _monomials(max_degree):
    # the library's order: 1, then q1^a p1^b by a, then b
    return [f for _, f in monomials(MODEL, max_degree)]


def test_parse_round_trips_through_arithmetic():
    f = parse_poly("q1^2*p1 - 3/2*q1 + i", MODEL)
    assert f == Q * Q * P - Q * Fraction(3, 2) + Poly.constant(MODEL, GaussRational.i())


def test_hamiltonian_field_of_coordinates():
    xi_q = hamiltonian_field(Q)
    assert xi_q.comps[0].is_zero()        # no d/dq part
    assert xi_q.comps[1] == Poly.constant(MODEL, 1)
    xi_p = hamiltonian_field(P)
    assert xi_p.comps[0] == Poly.constant(MODEL, -1)
    assert xi_p.comps[1].is_zero()
    assert all(c.is_zero() for c in hamiltonian_field(Poly.constant(MODEL, 1)).comps)


def test_poisson_normalization_and_examples():
    assert poisson(Q, P) == Poly.constant(MODEL, 1)
    assert poisson(Q * Q, P) == Q * 2
    assert poisson(P, P).is_zero()


def test_poisson_antisymmetry_and_jacobi_exhaustive():
    monos = _monomials(4)
    for f in monos:
        for g in monos:
            assert (poisson(f, g) + poisson(g, f)).is_zero()
    for f in monos[:8]:
        for g in monos[:8]:
            for h in monos[:8]:
                total = (
                    poisson(f, poisson(g, h))
                    + poisson(g, poisson(h, f))
                    + poisson(h, poisson(f, g))
                )
                assert total.is_zero()


def test_quantize_known_operators():
    # Q(q) = q - i hbar d/dp and Q(p) = i hbar d/dq when alpha = p dq
    i_hbar = HbarPoly.from_dict({1: GaussRational.i()})
    op_q = quantize_op(Q, ALPHA)
    op_p = quantize_op(P, ALPHA)
    for g in (Q, P, Q * P, P * P):
        assert op_q.apply(g) == Q * g - g.diff(1) * i_hbar
        assert op_p.apply(g) == g.diff(0) * i_hbar


def test_quantize_unit_gives_identity():
    op = quantize_op(Poly.constant(MODEL, 1), ALPHA)
    for g in _monomials(3):
        assert op.apply(g) == g


def test_quantize_linearity():
    rng = random.Random(2)
    monos = _monomials(3)
    for _ in range(25):
        f, g = rng.choice(monos), rng.choice(monos)
        a, b = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
        left = quantize_op(f * a + g * b, ALPHA)
        right = quantize_op(f, ALPHA).scale(a) + quantize_op(g, ALPHA).scale(b)
        assert (left - right).is_zero()


def test_curvature_accepts_only_the_normalized_form():
    assert check_curvature(ALPHA)["passes"]
    assert not check_curvature(parse_one_form("2*p1*dq1", MODEL))["passes"]
    bad = check_curvature(parse_one_form("0*dq1", MODEL))
    assert not bad["passes"]
    assert bad["deviations"]


def test_dirac_residual_zero_for_normalized_alpha():
    assert check_dirac(Q, P, ALPHA)["passes"]
    assert check_dirac(Q * Q, P, ALPHA)["passes"]


def test_dirac_all_pairs_up_to_degree_three():
    monos = _monomials(3)
    for f in monos:
        for g in monos:
            assert check_dirac(f, g, ALPHA)["passes"]


def test_monomials_are_named_in_lexicographic_exponent_order():
    names = [name for name, _ in monomials(SymplecticModel(2), 2)]
    assert names == [
        "1", "p2", "p2^2", "p1", "p1*p2", "p1^2", "q2", "q2*p2", "q2*p1",
        "q2^2", "q1", "q1*p2", "q1*p1", "q1*q2", "q1^2",
    ]
    assert monomials(MODEL, 2)[4] == ("q1*p1", Q * P)


def test_dirac_pairs_report_failures_by_name():
    assert check_dirac_pairs(ALPHA, 2) == {"pairs": 36, "failures": [], "passes": True}
    report = check_dirac_pairs(parse_one_form("2*p1*dq1", MODEL), 1)
    assert report["pairs"] == 9 and not report["passes"]
    assert ("q1", "p1") in {(f["f"], f["g"]) for f in report["failures"]}
    assert all(f["residual"] != "0" for f in report["failures"])


def test_dirac_fails_for_scaled_alpha():
    bad = parse_one_form("2*p1*dq1", MODEL)
    verdict = check_dirac(Q, P, bad)
    assert not verdict["passes"]
    assert verdict["residual"] != "0"


def test_operator_composition_associative():
    rng = random.Random(4)
    monos = _monomials(2)
    ops = [quantize_op(f, ALPHA) for f in monos]
    for _ in range(20):
        a, b, c = rng.choice(ops), rng.choice(ops), rng.choice(ops)
        assert ((a @ b) @ c - a @ (b @ c)).is_zero()


def test_action_cocycle_flat_moment_map():
    L = heisenberg()
    moment = [Q, P, Poly.constant(MODEL, 1)]
    report = action_cocycle(L, moment)
    assert report["flat"]
    assert all(v == "0" for v in report["table"].values())


def test_action_cocycle_detects_missing_center():
    L = heisenberg()
    moment = [Q, P, Poly.constant(MODEL, 0)]
    report = action_cocycle(L, moment)
    assert not report["flat"]
    assert report["table"]["(X,Y)"] in ("1", "-1")


def test_action_cocycle_abelian_commuting_moments():
    L = abelian(2)
    report = action_cocycle(L, [Q, Q * Q])
    assert report["flat"]
