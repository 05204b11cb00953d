"""Exact geometric-quantization checks on a flat phase space.

The model is R^{2n} with coordinates q1..qn, p1..pn, symplectic form
``omega = sum dq_i wedge dp_i`` and Poisson bracket fixed by
``{q_i, p_i} = 1``.  Polynomials are over the Gaussian rationals in the
coordinates and a formal ``hbar``, which the calculus treats as a
constant, so every identity below is decided exactly.

The quantization rule assigns to a polynomial observable f the operator

    Q(f) = f + (hbar/i) * L_{xi_f} + alpha(xi_f)

with ``xi_f`` the Hamiltonian field of f and ``alpha`` a polynomial
one-form whose curvature should satisfy ``d alpha = -omega``.  Q(f) is
first order, so the bracket-compatibility residual
``Q({f,g}) - (i/hbar)[Q(f), Q(g)]`` is the multiplication operator by
``-(d alpha + omega)(xi_f, xi_g)`` (the Kostant-Souriau prequantization
condition).  The curvature defect ``d alpha + omega`` is computed once;
`check_curvature` reports its components and `check_dirac` reads each
residual off them, without composing operators.  Both vanish exactly
when alpha is admissible.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import NamedTuple, Optional

from . import InputError
from .exactnum import GaussRational, rational_from_str

__all__ = [
    "Poly",
    "PolyOneForm",
    "SymplecticModel",
    "hamiltonian_field",
    "poisson",
    "check_curvature",
    "check_dirac",
    "monomials",
    "dirac_pair_count",
    "MAX_DIRAC_PAIRS",
    "check_dirac_pairs",
    "parse_poly",
    "parse_one_form",
    "MAX_EXPONENT",
    "MAX_TERMS",
    "MAX_NESTING",
]


class SymplecticModel(NamedTuple):
    """Flat phase space R^{2n}; variable order is q1..qn, p1..pn."""

    n: int

    @property
    def nvars(self) -> int:
        return 2 * self.n

    def var_name(self, idx: int) -> str:
        if idx < self.n:
            return f"q{idx + 1}"
        return f"p{idx - self.n + 1}"

    def var_index(self, name: str) -> int:
        m = re.fullmatch(r"([qp])([0-9]+)", name)
        if not m:
            raise InputError(f"unknown variable {name!r}")
        k = int(m.group(2))
        if not 1 <= k <= self.n:
            raise InputError(f"variable {name!r} outside model with n={self.n}")
        return k - 1 if m.group(1) == "q" else self.n + k - 1


class Poly:
    """Polynomial over Q(i) in q1..qn, p1..pn and hbar.

    ``terms`` maps exponent tuples, the model's variables followed by
    hbar, to nonzero GaussRational coefficients.  Variable index
    ``model.nvars`` is hbar, which `diff` never takes.
    """

    __slots__ = ("model", "terms")

    def __init__(self, model: SymplecticModel, terms: Optional[dict] = None):
        self.model = model
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                if not isinstance(coeff, GaussRational):
                    coeff = GaussRational.from_rational(coeff)
                if not coeff.is_zero():
                    clean[tuple(mono)] = coeff
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(model: SymplecticModel) -> "Poly":
        return Poly(model)

    @staticmethod
    def constant(model: SymplecticModel, c) -> "Poly":
        return Poly(model, {(0,) * (model.nvars + 1): c})

    @staticmethod
    def variable(model: SymplecticModel, idx: int) -> "Poly":
        """The idx-th variable; idx == model.nvars gives hbar."""
        mono = tuple(1 if t == idx else 0 for t in range(model.nvars + 1))
        return Poly(model, {mono: 1})

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out[m] + c if m in out else c
        return Poly(self.model, out)

    def __neg__(self) -> "Poly":
        return Poly(self.model, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction, GaussRational)):
            return Poly(self.model, {m: c * other for m, c in self.terms.items()})
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out[m] + c1 * c2 if m in out else c1 * c2
        return Poly(self.model, out)

    __rmul__ = __mul__

    def diff(self, idx: int) -> "Poly":
        # m -> m - e_idx is injective on the terms it keeps
        out = {}
        for m, c in self.terms.items():
            e = m[idx]
            if e:
                out[m[:idx] + (e - 1,) + m[idx + 1:]] = c * e if e > 1 else c
        return Poly(self.model, out)

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        """Terms grouped by monomial in the variables, each with its hbar coefficient.

        A coefficient with hbar reads ``((c0) + (c1)*hbar + (c2)*hbar^2)``.
        """
        if not self.terms:
            return "0"
        groups: dict = {}
        for m in sorted(self.terms):  # ascending hbar power within each group
            groups.setdefault(m[:-1], []).append((m[-1], self.terms[m]))
        parts = []
        for m in sorted(groups, key=lambda mm: (sum(mm), mm), reverse=True):
            coeffs = groups[m]
            factors = []
            for idx, e in enumerate(m):
                if e == 1:
                    factors.append(self.model.var_name(idx))
                elif e > 1:
                    factors.append(f"{self.model.var_name(idx)}^{e}")
            body = "*".join(factors)
            if coeffs[-1][0] == 0:
                cs = str(coeffs[0][1])
                simple = not ("+" in cs or "-" in cs[1:])
            else:
                cs = " + ".join(
                    f"({c})" + ("" if k == 0 else "*hbar" if k == 1 else f"*hbar^{k}")
                    for k, c in coeffs
                )
                simple = False
            if not body:
                parts.append(cs if simple else f"({cs})")
            elif cs == "1":
                parts.append(body)
            elif cs == "-1":
                parts.append(f"-{body}")
            else:
                parts.append(f"{cs}*{body}" if simple else f"({cs})*{body}")
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


class PolyOneForm(NamedTuple):
    """One-form sum_j comps[j] d(x_j) in the model's variable order."""

    model: SymplecticModel
    comps: tuple  # tuple of Poly, length 2n


class VectorField(NamedTuple):
    """Vector field sum_j comps[j] d/d(x_j)."""

    model: SymplecticModel
    comps: tuple

    def apply(self, g: Poly) -> Poly:
        out = Poly.zero(self.model)
        for j, comp in enumerate(self.comps):
            if not comp.is_zero():
                out = out + comp * g.diff(j)
        return out


# ---------------------------------------------------------------------------


def hamiltonian_field(f: Poly) -> VectorField:
    """Field xi_f with i(xi_f) omega + df = 0.

    Componentwise: -df/dp_i along d/dq_i and +df/dq_i along d/dp_i,
    which pins {q_i, p_i} = +1.
    """
    n = f.model.n
    dq = [f.diff(i) for i in range(n)]
    dp = [f.diff(n + i) for i in range(n)]
    return VectorField(f.model, tuple([-d for d in dp] + dq))


def poisson(f: Poly, g: Poly) -> Poly:
    """Poisson bracket {f, g} := xi_f(g)."""
    return hamiltonian_field(f).apply(g)


def _curvature_defect(alpha: PolyOneForm) -> dict:
    """The nonzero components F_ab of d(alpha) + omega, keyed by (a, b) with a < b.

    F_ab = d_a alpha_b - d_b alpha_a + omega_ab, where omega_ab is 1 on
    the conjugate pairs (q_i, p_i) and 0 elsewhere.

    >>> _curvature_defect(parse_one_form("2*p1*dq1", SymplecticModel(1)))
    {(0, 1): -1}
    """
    model = alpha.model
    defect = {}
    for a in range(model.nvars):
        for b in range(a + 1, model.nvars):
            omega_ab = Poly.constant(model, int(b == a + model.n))
            f_ab = alpha.comps[b].diff(a) - alpha.comps[a].diff(b) + omega_ab
            if not f_ab.is_zero():
                defect[a, b] = f_ab
    return defect


def _residual(defect: dict, xi_f: VectorField, xi_g: VectorField) -> Poly:
    """R(f, g) = -(d alpha + omega)(xi_f, xi_g) = -sum F_ab (xi_f^a xi_g^b - xi_f^b xi_g^a)."""
    out = Poly.zero(xi_f.model)
    for (a, b), f_ab in defect.items():
        out = out - f_ab * (xi_f.comps[a] * xi_g.comps[b] - xi_f.comps[b] * xi_g.comps[a])
    return out


def check_curvature(alpha: PolyOneForm) -> dict:
    """Verify d(alpha) = -omega exactly.

    Each deviation is a nonzero component of the curvature defect
    d(alpha) + omega, named by its coordinate pair.
    """
    name = alpha.model.var_name
    deviations = {
        f"d{name(a)}^d{name(b)}": str(f_ab)
        for (a, b), f_ab in _curvature_defect(alpha).items()
    }
    return {"passes": not deviations, "deviations": deviations}


def check_dirac(f: Poly, g: Poly, alpha: PolyOneForm) -> dict:
    """Residual of Q({f,g}) = (i/hbar) [Q(f), Q(g)], exactly.

    Q(f) = (hbar/i) xi_f + u_f is first order, with u_f = f + alpha(xi_f),
    so (i/hbar)[Q(f), Q(g)] = (hbar/i)[xi_f, xi_g] + xi_f(u_g) - xi_g(u_f).
    As [xi_f, xi_g] = xi_{f,g}, the derivative parts of both sides agree
    and the residual is the multiplication operator by

        R(f, g) = alpha(xi_{f,g}) - {f,g} - xi_f(alpha(xi_g)) + xi_g(alpha(xi_f)),

    which is -(d alpha + omega)(xi_f, xi_g) by Cartan's formula for
    d alpha and omega(xi_f, xi_g) = {f,g}.  R is read off the defect's
    components and the two fields; no operator is composed.
    """
    residual = _residual(_curvature_defect(alpha), hamiltonian_field(f), hamiltonian_field(g))
    text = "0" if residual.is_zero() else f"({residual})"
    return {"passes": residual.is_zero(), "residual": text}


MAX_DIRAC_PAIRS = 10_000


def dirac_pair_count(n: int, max_degree: int) -> int:
    """Ordered pairs `check_dirac_pairs` visits on R^{2n} up to max_degree.

    There are comb(max_degree + 2n, 2n) monomials, at least
    max_degree + 2n when both are positive, so that sum is bounded
    before comb is evaluated.  Over MAX_DIRAC_PAIRS is an InputError.
    """
    if max_degree < 0:
        return 0
    limit = math.isqrt(MAX_DIRAC_PAIRS)
    if max_degree + 2 * n > limit or math.comb(max_degree + 2 * n, 2 * n) > limit:
        raise InputError(f"more than {MAX_DIRAC_PAIRS} monomial pairs")
    return math.comb(max_degree + 2 * n, 2 * n) ** 2


def _exponents(nvars: int, max_degree: int):
    """Exponent tuples of total degree <= max_degree, lexicographically."""
    if nvars == 0:
        yield ()
        return
    for head in range(max_degree + 1):
        for tail in _exponents(nvars - 1, max_degree - head):
            yield (head,) + tail


def monomials(model: SymplecticModel, max_degree: int) -> list:
    """(name, monomial) for all monomials of total degree 0..max_degree.

    Exponent vectors over q1..qn, p1..pn run in lexicographic order, so
    "1" comes first; other names read like "q1^2*p1".
    """
    out = []
    for exps in _exponents(model.nvars, max_degree):
        names = [
            model.var_name(idx) + (f"^{k}" if k > 1 else "")
            for idx, k in enumerate(exps)
            if k
        ]
        out.append(("*".join(names) or "1", Poly(model, {exps + (0,): 1})))
    return out


def check_dirac_pairs(alpha: PolyOneForm, max_degree: int) -> dict:
    """`check_dirac` on every ordered pair of `monomials` up to max_degree.

    The defect d alpha + omega is computed once, xi_f once per monomial,
    and R, read off both, once per unordered pair: R(g, f) = -R(f, g) and
    R(f, f) = 0.  Failures are listed by monomial names in ordered-pair
    order, never raised.
    """
    pairs = dirac_pair_count(alpha.model.n, max_degree)
    monos = monomials(alpha.model, max_degree)
    fields = [hamiltonian_field(f) for _, f in monos]
    defect = _curvature_defect(alpha)
    residuals = {}
    for j in range(len(monos)):
        for k in range(j):
            r = _residual(defect, fields[k], fields[j])
            if not r.is_zero():
                residuals[k, j] = r
                residuals[j, k] = -r
    failures = [
        {"f": monos[j][0], "g": monos[k][0], "residual": f"({r})"}
        for (j, k), r in sorted(residuals.items())
    ]
    return {"pairs": pairs, "failures": failures, "passes": not failures}


# ---------------------------------------------------------------------------
# Parsing.  Grammar, with the usual precedence:
#   expr   := ['+'|'-'] term (('+'|'-') term)*
#   term   := factor ('*' factor)*
#   factor := atom ['^' integer]
#   atom   := rational | 'i' | 'hbar' | variable | '(' expr ')'
# One-forms additionally allow 'dq<k>' / 'dp<k>' atoms; each additive
# term must contain exactly one of them.  A power's degree, the base's
# total degree in the variables and hbar times the exponent, and the
# exponent itself are at most MAX_EXPONENT; larger ones are rejected
# before any multiplication, so nested powers stay bounded too.  A term
# is a monomial in the variables and hbar.  A power of a base with T
# terms has at most comb(T + e - 1, e) of them, and a product at most the
# product of its operands' counts; either bound over MAX_TERMS is rejected
# before multiplying, which bounds the work of every product.  The parser
# recurses once per parenthesis, so parentheses nested deeper than
# MAX_NESTING are rejected before Python's recursion limit is reached.
#
# The reports write integer combinations of the form's coefficients: each
# written value sums products of coefficients with derivative factors of
# the exponents, far fewer and smaller than 10^_DIGIT_MARGIN.  Such a value
# has a denominator dividing the lcm L of the coefficients' denominators
# and a numerator below 10^_DIGIT_MARGIN * M * L, with M the largest
# numerator (real or imaginary part).  So a form whose M * L reaches
# 10^(limit - _DIGIT_MARGIN), with limit Python's int-string digit limit,
# could not be written and is rejected, and so is every product and every
# power step on the way to it, which also bounds the work of powers of
# large constants.

MAX_EXPONENT = 64
MAX_TERMS = 1000
MAX_NESTING = 64
_DIGIT_MARGIN = 32


def _check_digits(polys) -> None:
    """InputError when the coefficients of ``polys`` have M * L past the digit bound."""
    digits = (sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits) - _DIGIT_MARGIN
    top, dens = 0, []
    for poly in polys:
        for c in poly.terms.values():
            a, b, d = c.triple
            top = max(top, abs(a), abs(b))
            dens.append(d)
    size = top * math.lcm(*dens)
    # 2^(3k) < 10^k, so a size of at most 3k bits has at most k digits
    if size.bit_length() > 3 * digits and size >= 10**digits:
        raise InputError(f"the coefficients need more than {digits} digits")


def _product(left: "Poly", right: "Poly") -> "Poly":
    if len(left.terms) * len(right.terms) > MAX_TERMS:
        raise InputError(f"a product may have at most {MAX_TERMS} terms")
    out = left * right
    _check_digits([out])
    return out


_TOKEN = re.compile(
    r"\s*(?:(?P<num>[0-9]+(?:/[0-9]+)?)|(?P<name>d?[qp][0-9]+|hbar|i)"
    r"|(?P<op>[-+*^()]))"
)


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise InputError(f"cannot parse {text!r} at position {pos}")
        if m.group("num"):
            try:
                out.append(("num", rational_from_str(m.group("num"))))
            except ValueError as exc:  # a zero denominator, or past the digit limit
                raise InputError(str(exc)) from None
        elif m.group("name"):
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens, model: SymplecticModel, allow_dvar: bool):
        self.tokens = tokens
        self.k = 0
        self.model = model
        self.allow_dvar = allow_dvar
        self.depth = 0

    def peek(self):
        return self.tokens[self.k] if self.k < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.k += 1
        return tok

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise InputError(f"expected {op!r}")

    # each parse method returns (Poly, dvar_index_or_None)

    def parse_expr(self):
        sign = 1
        kind, val = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            sign = -1 if val == "-" else 1
        poly, dvar = self.parse_term()
        if sign < 0:
            poly = -poly
        acc = [(poly, dvar)]
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                p, d = self.parse_term()
                acc.append(((-p) if val == "-" else p, d))
            else:
                break
        if self.allow_dvar:
            return acc
        if any(d is not None for _, d in acc):
            raise InputError("differential symbol not allowed in a polynomial")
        total = Poly.zero(self.model)
        for p, _ in acc:
            total = total + p
        return [(total, None)]

    def parse_term(self):
        poly, dvar = self.parse_factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.take()
            elif not (kind in ("num", "name") or (kind == "op" and val == "(")):
                return poly, dvar
            # an explicit or an implicit product, e.g. "2 q1"
            p, d = self.parse_factor()
            if d is not None:
                if dvar is not None:
                    raise InputError("two differential symbols in one term")
                dvar = d
            poly = _product(poly, p)

    def parse_factor(self):
        poly, dvar = self.parse_atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            k2, v2 = self.take()
            if k2 != "num" or v2.denominator != 1:
                raise InputError("exponent must be an integer")
            if dvar is not None:
                raise InputError("cannot raise a differential to a power")
            e = int(v2)
            degree = max(map(sum, poly.terms), default=0)
            if max(e, e * degree) > MAX_EXPONENT:
                raise InputError(f"a power may have degree at most {MAX_EXPONENT}")
            terms = len(poly.terms)
            if terms and math.comb(terms + e - 1, e) > MAX_TERMS:
                raise InputError(f"a power may have at most {MAX_TERMS} terms")
            out = Poly.constant(self.model, 1)
            for _ in range(e):
                out = out * poly
                _check_digits([out])
            return out, None
        return poly, dvar

    def parse_atom(self):
        kind, val = self.take()
        if kind == "num":
            return Poly.constant(self.model, Fraction(val)), None
        if kind == "name":
            if val == "i":
                return Poly.constant(self.model, GaussRational.i()), None
            if val == "hbar":
                return Poly.variable(self.model, self.model.nvars), None
            if val.startswith("d") and self.allow_dvar:
                return Poly.constant(self.model, 1), self.model.var_index(val[1:])
            if val.startswith("d"):
                raise InputError("differential symbol not allowed in a polynomial")
            return Poly.variable(self.model, self.model.var_index(val)), None
        if kind == "op" and val == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise InputError(f"parentheses may nest at most {MAX_NESTING} deep")
            acc = self.parse_expr()
            self.expect_op(")")
            self.depth -= 1
            if self.allow_dvar and any(d is not None for _, d in acc):
                raise InputError("differential symbols cannot be grouped")
            total = Poly.zero(self.model)
            for p, _ in acc:
                total = total + p
            return total, None
        raise InputError(f"unexpected token {val!r}")


def parse_poly(text: str, model: SymplecticModel) -> Poly:
    """Parse a polynomial like ``"q1^2*p1 - 3/2*q1 + i*hbar"``.

    Powers of degree above MAX_EXPONENT, powers or products bounded above
    MAX_TERMS terms, parentheses nested deeper than MAX_NESTING, and
    coefficients past the digit bound (`_check_digits`) are an InputError.
    """
    parser = _Parser(_tokenize(text), model, allow_dvar=False)
    acc = parser.parse_expr()
    if parser.k != len(parser.tokens):
        raise InputError(f"trailing input in {text!r}")
    _check_digits([acc[0][0]])
    return acc[0][0]


def parse_one_form(text: str, model: SymplecticModel) -> PolyOneForm:
    """Parse a one-form like ``"p1*dq1"`` or ``"2*p1*dq1 - q1*dp1"``."""
    parser = _Parser(_tokenize(text), model, allow_dvar=True)
    acc = parser.parse_expr()
    if parser.k != len(parser.tokens):
        raise InputError(f"trailing input in {text!r}")
    comps = [Poly.zero(model) for _ in range(model.nvars)]
    for poly, dvar in acc:
        if dvar is None:
            if poly.is_zero():
                continue
            raise InputError("every one-form term needs exactly one dq/dp symbol")
        comps[dvar] = comps[dvar] + poly
    _check_digits(comps)
    return PolyOneForm(model, tuple(comps))
