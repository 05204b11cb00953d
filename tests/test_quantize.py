"""Symbolic prequantization: fields, brackets, the curvature defect and its operator oracle."""

import random
import time
from fractions import Fraction
from math import comb, prod

import pytest

from orbitkit.exactnum import GaussRational
from orbitkit import InputError
from orbitkit.quantize import (
    MAX_DIRAC_PAIRS,
    MAX_NESTING,
    MAX_TERMS,
    Poly,
    SymplecticModel,
    check_curvature,
    check_dirac,
    check_dirac_pairs,
    dirac_pair_count,
    hamiltonian_field,
    monomials,
    parse_one_form,
    parse_poly,
    poisson,
)

MODEL = SymplecticModel(1)
Q = Poly.variable(MODEL, 0)
P = Poly.variable(MODEL, 1)
HBAR = Poly.variable(MODEL, 2)
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
    i_hbar = HBAR * GaussRational.i()
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
    for n, d in ((1, 4), (2, 3), (3, 2)):
        exps = [next(iter(f.terms)) for _, f in monomials(SymplecticModel(n), d)]
        assert exps == sorted(exps) and len(set(exps)) == len(exps)
        assert len(exps) ** 2 == dirac_pair_count(n, d) == comb(d + 2 * n, 2 * n) ** 2


def test_dirac_pairs_report_failures_by_name():
    assert check_dirac_pairs(ALPHA, 2) == {"pairs": 36, "failures": [], "passes": True}
    report = check_dirac_pairs(parse_one_form("2*p1*dq1", MODEL), 1)
    assert report["pairs"] == 9 and not report["passes"]
    assert ("q1", "p1") in {(f["f"], f["g"]) for f in report["failures"]}
    assert all(f["residual"] != "0" for f in report["failures"])


def test_hbar_coefficients_render_by_monomial():
    # hbar and i in alpha: each monomial shows its coefficient as a polynomial in hbar
    model = SymplecticModel(1)
    alpha = parse_one_form("hbar*p1*dq1 + i*q1*dp1 + hbar^2*q1*p1*dp1", model)
    assert check_curvature(alpha) == {
        "passes": False,
        "deviations": {"dq1^dp1": "((1)*hbar^2)*p1 + ((1+i) + (-1)*hbar)"},
    }
    assert check_dirac_pairs(alpha, 1) == {
        "pairs": 9,
        "failures": [
            {"f": "p1", "g": "q1", "residual": "(((1)*hbar^2)*p1 + ((1+i) + (-1)*hbar))"},
            {"f": "q1", "g": "p1", "residual": "(((-1)*hbar^2)*p1 + ((-1-i) + (1)*hbar))"},
        ],
        "passes": False,
    }


def test_dirac_fails_for_scaled_alpha():
    bad = parse_one_form("2*p1*dq1", MODEL)
    verdict = check_dirac(Q, P, bad)
    assert not verdict["passes"]
    assert verdict["residual"] != "0"


# ---------------------------------------------------------------------------
# size guards: each fires before the work it bounds, so a broken guard fails
# the test instead of starting the allocation


def _forbid(monkeypatch, owner, name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} reached before the size guard fired")

    monkeypatch.setattr(owner, name, fail)


def test_parser_rejects_large_powers_before_multiplying(monkeypatch):
    _forbid(monkeypatch, Poly, "__mul__")
    for text in ("q1^99999999*dq1", "q1^65*dq1", "hbar^65*dq1", "2^1000000*dq1"):
        t0 = time.perf_counter()
        with pytest.raises(InputError, match="degree at most 64"):
            parse_one_form(text, MODEL)
        assert time.perf_counter() - t0 < 1.0
    monkeypatch.undo()
    # the degree of a power of a power is bounded too
    with pytest.raises(InputError, match="degree at most 64"):
        parse_one_form("((q1 + hbar)^8)^9*dq1", MODEL)
    assert parse_poly("(q1^8)^8", MODEL) == parse_poly("q1^64", MODEL)
    assert parse_poly("hbar^64", MODEL) == Poly(MODEL, {(0, 0, 64): 1})


def test_parser_bounds_the_terms_of_powers_and_products(monkeypatch):
    # 1, q1, p1, hbar: 4 terms, so the e-th power has comb(e + 3, 3) of them
    assert comb(16 + 3, 3) <= MAX_TERMS < comb(17 + 3, 3)
    _forbid(monkeypatch, Poly, "__mul__")
    for text in ("(1+q1+p1+hbar)^64*dq1", "(1+q1+p1+hbar)^17*dq1"):
        t0 = time.perf_counter()
        with pytest.raises(InputError, match=f"a power may have at most {MAX_TERMS} terms"):
            parse_one_form(text, MODEL)
        assert time.perf_counter() - t0 < 1.0
    monkeypatch.undo()
    wide = "(1+q1+p1+hbar)^8"
    with pytest.raises(InputError, match=f"a product may have at most {MAX_TERMS} terms"):
        parse_one_form(f"{wide}*{wide}*dq1", MODEL)
    with pytest.raises(InputError, match="at most"):
        parse_one_form(f"{wide} {wide}*dq1", MODEL)
    # the bound counts terms that can arise, so a narrow base passes
    assert len(parse_poly("(q1 + p1)^30", MODEL).terms) == 31


def test_parser_bounds_the_nesting_of_parentheses():
    def nested(depth):
        return "(" * depth + "p1" + ")" * depth

    assert parse_one_form(f"{nested(MAX_NESTING)}*dq1", MODEL) == parse_one_form("p1*dq1", MODEL)
    assert parse_poly(f"{nested(MAX_NESTING)}^2", MODEL) == parse_poly("p1^2", MODEL)
    for text in (f"{nested(MAX_NESTING + 1)}*dq1", f"{nested(10**5)}*dq1"):
        with pytest.raises(InputError, match=f"nest at most {MAX_NESTING} deep"):
            parse_one_form(text, MODEL)
    # depth counts open parentheses, not parenthesized groups in sequence
    sequence = " + ".join(["(p1)"] * (MAX_NESTING + 1))
    assert parse_poly(sequence, MODEL) == parse_poly(f"{MAX_NESTING + 1}*p1", MODEL)


def test_pair_count_guard_decides_from_the_sizes_alone():
    assert dirac_pair_count(2, 3) == 1225
    assert dirac_pair_count(1, 12) == 91 ** 2 <= MAX_DIRAC_PAIRS
    assert comb(13 + 2, 2) ** 2 > MAX_DIRAC_PAIRS
    # comb(d + 2n, 2n) of the last two would take long to evaluate
    for n, d in ((1, 13), (3, 4), (10**9, 1), (10**12, 10**12)):
        t0 = time.perf_counter()
        with pytest.raises(InputError, match="monomial pairs"):
            dirac_pair_count(n, d)
        assert time.perf_counter() - t0 < 0.1


def test_dirac_pairs_guard_fires_before_monomials(monkeypatch):
    import orbitkit.quantize as quantize

    _forbid(monkeypatch, quantize, "monomials")
    with pytest.raises(InputError):
        check_dirac_pairs(ALPHA, 10**6)


# ---------------------------------------------------------------------------
# an independent oracle: compose the quantized operators in normal form by
# the Leibniz rule and compare Q({f,g}) with (i/hbar)[Q(f), Q(g)] directly


class PolyDiffOp:
    """Differential operator in normal form: coefficients left, derivatives right.

    A map from derivative multi-indices to nonzero polynomial coefficients,
    so equal operators have equal maps.
    """

    def __init__(self, model, terms=None):
        self.model = model
        self.terms = {tuple(d): c for d, c in (terms or {}).items() if not c.is_zero()}

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for d, c in other.terms.items():
            out[d] = out[d] + c if d in out else c
        return PolyDiffOp(self.model, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return PolyDiffOp(self.model, {d: f * c for d, f in self.terms.items()})

    def apply(self, g):
        out = Poly.zero(self.model)
        for der, f in self.terms.items():
            dg = g
            for idx, e in enumerate(der):
                for _ in range(e):
                    dg = dg.diff(idx)
            out = out + f * dg
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for der in sorted(self.terms, key=lambda dd: (sum(dd), dd)):
            ds = []
            for idx, e in enumerate(der):
                name = self.model.var_name(idx)
                if e == 1:
                    ds.append(f"d/d{name}")
                elif e > 1:
                    ds.append(f"d^{e}/d{name}^{e}")
            parts.append(" ".join([f"({self.terms[der]})", *ds]))
        return " + ".join(parts)


def quantize_op(f, alpha):
    """Q(f) = f + (hbar/i) L_{xi_f} + alpha(xi_f) in normal form."""
    nvars = f.model.nvars
    xi = hamiltonian_field(f)
    minus_i_hbar = Poly.variable(f.model, nvars) * -GaussRational.i()
    potential = Poly.zero(f.model)
    for a_j, xi_j in zip(alpha.comps, xi.comps):
        potential = potential + a_j * xi_j
    terms = {(0,) * nvars: f + potential}
    for j, comp in enumerate(xi.comps):
        terms[tuple(int(t == j) for t in range(nvars))] = comp * minus_i_hbar
    return PolyDiffOp(f.model, terms)


def _submulti(beta):
    """All multi-indices mu with 0 <= mu <= beta, componentwise."""
    if not beta:
        yield ()
        return
    for tail in _submulti(beta[1:]):
        for m in range(beta[0] + 1):
            yield (m,) + tail


def _compose(a, b):
    """a after b, renormalized: D^beta (g D^gamma) = sum_mu C(beta, mu) D^mu(g) D^(beta-mu+gamma)."""
    out = PolyDiffOp(a.model)
    for beta, f in a.terms.items():
        for gamma, g in b.terms.items():
            for mu in _submulti(beta):
                dg = g
                for idx, m in enumerate(mu):
                    for _ in range(m):
                        dg = dg.diff(idx)
                if dg.is_zero():
                    continue
                coeff = prod(comb(x, m) for x, m in zip(beta, mu))
                der = tuple(x - m + c for x, m, c in zip(beta, mu, gamma))
                out = out + PolyDiffOp(a.model, {der: (f * dg) * coeff})
    return out


def _divide_by_hbar(poly):
    """Exact division by hbar, the last exponent of every term."""
    assert all(m[-1] > 0 for m in poly.terms), "not divisible by hbar"
    return Poly(poly.model, {m[:-1] + (m[-1] - 1,): c for m, c in poly.terms.items()})


def _oracle_residual(f, g, alpha):
    qf, qg = quantize_op(f, alpha), quantize_op(g, alpha)
    comm = _compose(qf, qg) - _compose(qg, qf)
    divided = PolyDiffOp(
        f.model, {der: _divide_by_hbar(coeff) for der, coeff in comm.terms.items()}
    )
    return quantize_op(poisson(f, g), alpha) - divided.scale(GaussRational.i())


def test_operator_composition_associative():
    rng = random.Random(4)
    monos = _monomials(2)
    ops = [quantize_op(f, ALPHA) for f in monos]
    for _ in range(20):
        a, b, c = rng.choice(ops), rng.choice(ops), rng.choice(ops)
        assert (_compose(_compose(a, b), c) - _compose(a, _compose(b, c))).is_zero()


@pytest.mark.parametrize(
    "alpha, n, max_degree",
    [
        ("p1*dq1 + p2*dq2", 2, 2),
        ("p1*dq1", 1, 3),
        ("p1*dq1", 2, 2),
        ("2*p1*dq1 + q1^2*dp2", 2, 2),
        ("hbar*p1*dq1 + i*q1*dp1", 1, 3),
        ("hbar*p1*dq1 + i*q1*dp1", 2, 2),
        ("-q1*dp1", 1, 3),
        ("-q1*dp1", 2, 2),
        ("2*p1*dq1", 1, 3),
        ("p1*dq1 + p2*dq2 + p3*dq3 + q1*dp3", 3, 2),
    ],
)
def test_curvature_defect_matches_operator_composition(alpha, n, max_degree):
    model = SymplecticModel(n)
    form = parse_one_form(alpha, model)
    monos = monomials(model, max_degree)
    failures = []
    for name_f, f in monos:
        for name_g, g in monos:
            residual = _oracle_residual(f, g, form)
            verdict = {"passes": residual.is_zero(), "residual": str(residual)}
            assert check_dirac(f, g, form) == verdict, (name_f, name_g)
            if not residual.is_zero():
                failures.append({"f": name_f, "g": name_g, "residual": str(residual)})
    assert check_dirac_pairs(form, max_degree) == {
        "pairs": len(monos) ** 2,
        "failures": failures,
        "passes": not failures,
    }
