"""Algebra fixtures, traces, cyclic operators, homology tables, entirety."""

import contextlib
import hashlib
import io
import itertools
import json
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

import orbitkit.blocks as blocks_module
import orbitkit.connes as connes_module
import orbitkit.cyclic as cyclic_module
import orbitkit.exactnum as exactnum
import orbitkit.homology as homology_module
from orbitkit import cli
from orbitkit.cyclic import (
    Chain,
    FinAlgebra,
    Trace,
    apply_operator,
    chain_pairing,
    direct_sum,
    dual_numbers,
    entirety,
    gauss_field,
    gauss_field_power,
    hp_homology,
    matrix_algebra,
    matrix_amplification,
    morita_check,
    parse_norm_pattern,
    tensor_product,
    verify_trace,
)
from orbitkit.entire import NormSequence
from orbitkit.exactnum import GaussRational, gauss_rank, rational_to_str, reduce_column
from orbitkit.homology import MAX_CHAIN_WORDS, MAX_TRUNCATION
from orbitkit.liealg import InputError
from tables import dense, fin_algebra, mul, star

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
ONE = GaussRational.one()
I = GaussRational.i()


def _inverse(z):
    """1/z for a nonzero Gaussian rational, computed on its Fraction parts."""
    norm = z.re * z.re + z.im * z.im
    return GaussRational(z.re / norm, -z.im / norm)


def _normalized_matrix_trace(r):
    """(1/r) * matrix trace on the matrix-unit basis of M_r."""
    coords = [GaussRational.zero()] * (r * r)
    for i in range(r):
        coords[i * r + i] = GaussRational.from_rational(Fraction(1, r))
    return Trace(tuple(coords))


def _unit_chain(A, level, word):
    return Chain.from_words(A, level, {word: ONE})


def _u_squared_i():
    # u^2 = i forces Gaussian structure constants through the rank kit
    zero, one, i = GaussRational.zero(), ONE, I
    mult = (
        ((one, zero), (zero, one)),
        ((zero, one), (i, zero)),
    )
    return fin_algebra(mult, (one, zero), ((one, zero), (zero, i)), ("1", "u"))


# ---------------------------------------------------------------------------
# algebras and validation


def test_fixture_algebras_validate():
    for A in (
        gauss_field(),
        dual_numbers(),
        gauss_field_power(3),
        matrix_algebra(2),
        direct_sum(gauss_field(), dual_numbers()),
        tensor_product(gauss_field(), dual_numbers()),
        matrix_amplification(gauss_field(), 2),
    ):
        A._validate()


def test_gauss_field_is_the_scalar_line():
    A = gauss_field()
    assert A.dim == 1
    assert mul(A, (I,), (I,)) == (-ONE,)


def test_dual_numbers_nilpotent():
    A = dual_numbers()
    eps = (GaussRational.zero(), ONE)
    assert all(v.is_zero() for v in mul(A, eps, eps))


def test_matrix_units_multiply():
    A = matrix_algebra(2)
    # basis order e11, e12, e21, e22
    assert A.basis_product(1, 2) == ((0, ONE),)  # e12 e21 = e11
    assert A.basis_product(1, 1) == ()


def test_star_is_conjugate_linear():
    A = matrix_algebra(2)
    x = [GaussRational.zero()] * 4
    x[1] = I  # i e12
    starred = star(A, tuple(x))
    assert starred[2] == -I  # -i e21
    assert all(starred[k].is_zero() for k in (0, 1, 3))


# ---------------------------------------------------------------------------
# constructors against their defining identities

_FACTORS = {
    "C": gauss_field,
    "dual": dual_numbers,
    "u2=i": _u_squared_i,
    "C^2": lambda: gauss_field_power(2),
    "M2": lambda: matrix_algebra(2),
}


def _basis_vectors(dim):
    zero = GaussRational.zero()
    return [tuple(ONE if c == a else zero for c in range(dim)) for a in range(dim)]


def _kron(x, u):
    """Coordinates of x (x) u, with e_a (x) e_b at index a * len(u) + b."""
    return tuple(s * t for s in x for t in u)


# each identity is checked on every pair of basis elements, which decides
# it by (sesqui)linearity


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("name", _FACTORS)
def test_amplification_obeys_the_matrix_unit_identities(name, r):
    # (e_ij (x) x)(e_kl (x) y) = delta_jk e_il (x) xy, (e_ij (x) x)^* = e_ji (x) x^*
    A = _FACTORS[name]()
    M = matrix_amplification(A, r)
    e = _basis_vectors(r * r)
    basis = [(i, j, x) for i in range(r) for j in range(r) for x in _basis_vectors(A.dim)]
    zero = (GaussRational.zero(),) * M.dim
    for i, j, x in basis:
        left = _kron(e[i * r + j], x)
        assert star(M, left) == _kron(e[j * r + i], star(A, x))
        for k, l, y in basis:
            expected = _kron(e[i * r + l], mul(A, x, y)) if j == k else zero
            assert mul(M, left, _kron(e[k * r + l], y)) == expected
    diagonal = tuple(ONE if p // r == p % r else GaussRational.zero() for p in range(r * r))
    assert dense(M)[1] == _kron(diagonal, dense(A)[1])
    suffix = [""] if A.dim == 1 else [f"*{n}" for n in A.basis]
    assert M.basis == tuple(f"e{i + 1}{j + 1}{s}" for i in range(r) for j in range(r) for s in suffix)


def test_tensor_product_multiplies_factorwise():
    # (x (x) u)(y (x) v) = xy (x) uv and (x (x) u)^* = x^* (x) u^*
    for (m, left), (n, right) in itertools.product(_FACTORS.items(), repeat=2):
        L, R = left(), right()
        T = tensor_product(L, R)
        basis = [(x, u) for x in _basis_vectors(L.dim) for u in _basis_vectors(R.dim)]
        for x, u in basis:
            assert star(T, _kron(x, u)) == _kron(star(L, x), star(R, u))
            for y, v in basis:
                expected = _kron(mul(L, x, y), mul(R, u, v))
                assert mul(T, _kron(x, u), _kron(y, v)) == expected, (m, n)
        assert dense(T)[1] == _kron(dense(L)[1], dense(R)[1])
        assert T.basis == tuple(f"{a}*{b}" for a in L.basis for b in R.basis)


def test_direct_sum_multiplies_blockwise():
    # (x, u)(y, v) = (xy, uv) and (x, u)^* = (x^*, u^*)
    for (m, left), (n, right) in itertools.product(_FACTORS.items(), repeat=2):
        L, R = left(), right()
        S = direct_sum(L, R)
        for z in _basis_vectors(S.dim):
            x, u = z[: L.dim], z[L.dim :]
            assert star(S, z) == star(L, x) + star(R, u)
            for w in _basis_vectors(S.dim):
                y, v = w[: L.dim], w[L.dim :]
                expected = mul(L, x, y) + mul(R, u, v)
                assert mul(S, z, w) == expected, (m, n)
        assert dense(S)[1] == dense(L)[1] + dense(R)[1]
        assert S.basis == tuple(f"({a},0)" for a in L.basis) + tuple(f"(0,{b})" for b in R.basis)


# SHA-256 of json.dumps(A.to_json()), as written before the constructors
# were rebuilt on one sparse product rule
_PINNED_JSON = {
    "M3": (
        lambda: matrix_algebra(3),
        "381a43a45ddf2892b505f4cdc4b91a5a2816a7101c1e1bad6680bdde09f7788d",
    ),
    "M2(dual)": (
        lambda: matrix_amplification(dual_numbers(), 2),
        "341d01bcd432ad47c71ee8d645678a8157736745be262b801f4ce06b27acd74f",
    ),
    "M3(C^2)": (
        lambda: matrix_amplification(gauss_field_power(2), 3),
        "0c57f83f01fa25651ddfa478963f41fe7b349ef801eb9ac5358e27eaec4105f0",
    ),
    "M2(u2=i)": (
        lambda: matrix_amplification(_u_squared_i(), 2),
        "7a4ef0cb3b6e8e330f519fceb48af794650b957ce96f600bf6e2cc310a7709f2",
    ),
    "dual(x)M2": (
        lambda: tensor_product(dual_numbers(), matrix_algebra(2)),
        "72f134a8261020fbdf7ec26c2f31e73b4999dc75322da27d4c2fea68677aa214",
    ),
    "dual(x)dual": (
        lambda: tensor_product(dual_numbers(), dual_numbers()),
        "5e9b07bec1f53a1d43b3e91533295280a5eb02417d0a2a3a80ba7e367f45d058",
    ),
    "M2+dual": (
        lambda: direct_sum(matrix_algebra(2), dual_numbers()),
        "3f73607b2a471987496e44c933ad4a2ce1642a110d060bafb289dab6951dc2ef",
    ),
}


@pytest.mark.parametrize("name", _PINNED_JSON)
def test_constructed_algebras_keep_their_json(name):
    build, digest = _PINNED_JSON[name]
    text = json.dumps(build().to_json())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# the basis e'_a = s_a e_a of `_algebra`: the unit path, where every
# structure constant above is 1, and a basis that moves them off it
UNIT_BASIS = ("1", "1", "1", "1")
SCALED_BASIS = ("2", "1/2", {"im": "1"}, "-3")


def _algebra(dim, products, unit, star, factors=UNIT_BASIS):
    """FinAlgebra loaded from JSON, given integer {(a, b): {c: coeff}},
    {a: coeff} and {a: {c: coeff}} in the basis e_a, in the basis
    e'_a = s_a e_a with s_a read from `factors`.

    A basis element missing from `star` is self-adjoint.  In the basis e'
    e'_a e'_b has e'_c coefficient s_a s_b m_abc / s_c, the unit u_c / s_c
    and e'_a^* has conj(s_a) star_ac / s_c; no axiom check depends on the
    basis, so a broken table fails the same check on the same indices.
    """
    d = range(dim)
    s = [GaussRational.from_json(f) for f in factors[:dim]]

    def coords(sparse, scale):
        return [(scale * sparse.get(c, 0) * _inverse(s[c])).to_json() for c in d]

    return FinAlgebra.from_json(
        {
            "dim": dim,
            "mult": [[coords(products.get((a, b), {}), s[a] * s[b]) for b in d] for a in d],
            "unit": coords(unit, ONE),
            "star": [coords(star.get(a, {a: 1}), s[a].conjugate()) for a in d],
        }
    )


def test_validation_rejects_broken_unit(factors=UNIT_BASIS):
    # e_a e_b = e_a: e_0 is a right unit only; e_a e_b = e_b: a left unit only
    left_zero = {(a, b): {a: 1} for a in range(2) for b in range(2)}
    with pytest.raises(InputError, match="left unit law fails on basis vector 1"):
        _algebra(2, left_zero, {0: 1}, {}, factors)
    right_zero = {(a, b): {b: 1} for a in range(2) for b in range(2)}
    with pytest.raises(InputError, match="right unit law fails on basis vector 1"):
        _algebra(2, right_zero, {0: 1}, {}, factors)


def test_validation_rejects_broken_associativity(factors=UNIT_BASIS):
    # basis 1, x, y with x x = y, x y = y x = x, y y = 0: commutative, so
    # the identity is an involution, but (x x) y = 0 and x (x y) = y
    products = {(0, a): {a: 1} for a in range(3)}
    products.update({(a, 0): {a: 1} for a in range(3)})
    products.update({(1, 1): {2: 1}, (1, 2): {1: 1}, (2, 1): {1: 1}})
    with pytest.raises(InputError, match=r"associativity fails on basis triple \(1, 1, 2\)"):
        _algebra(3, products, {0: 1}, {}, factors)
    # a failing triple where one side's first product is 0: with x x = 0,
    # x y = y fails on (1, 1, 2), where e_a e_b = 0, and y x = y fails on
    # (2, 1, 1), where e_b e_c = 0
    unital = {(0, a): {a: 1} for a in range(3)}
    unital.update({(a, 0): {a: 1} for a in range(3)})
    for product, triple in (((1, 2), r"\(1, 1, 2\)"), ((2, 1), r"\(2, 1, 1\)")):
        with pytest.raises(InputError, match=f"associativity fails on basis triple {triple}"):
            _algebra(3, {**unital, product: {2: 1}}, {0: 1}, {}, factors)
    # M2 with e12 e21 = 2 e11: on (e12, e21, e12) both sides are multiples
    # of e12, by 2 and by 1
    m2 = {(2 * i + j, 2 * j + l): {2 * i + l: 1} for i in (0, 1) for j in (0, 1) for l in (0, 1)}
    with pytest.raises(InputError, match=r"associativity fails on basis triple \(1, 2, 1\)"):
        _algebra(4, {**m2, (1, 2): {0: 2}}, {0: 1, 3: 1}, {1: {2: 1}, 2: {1: 1}}, factors)


def test_validation_rejects_broken_star(factors=UNIT_BASIS):
    field_power = {(a, a): {a: 1} for a in range(3)}
    # a cyclic permutation of the idempotents of C^3 is an automorphism of
    # order 3
    with pytest.raises(InputError, match="involution is not involutive on basis vector 0"):
        _algebra(
            3, field_power, {0: 1, 1: 1, 2: 1}, {0: {1: 1}, 1: {2: 1}, 2: {0: 1}}, factors
        )
    # 1^* = -1 is an involution of Q(i) that moves the unit
    with pytest.raises(InputError, match="involution does not fix the unit"):
        _algebra(1, {(0, 0): {0: 1}}, {0: 1}, {0: {0: -1}}, factors)
    # the identity on the matrix units e11, e12, e21, e22 of M2 is
    # involutive and fixes the unit, but e11 e12 = e12 while e12 e11 = 0
    products = {
        (2 * i + j, 2 * j + l): {2 * i + l: 1} for i in (0, 1) for j in (0, 1) for l in (0, 1)
    }
    with pytest.raises(
        InputError, match=r"involution is not an anti-automorphism on pair \(0, 1\)"
    ):
        _algebra(4, products, {0: 1, 3: 1}, {}, factors)
    # the same with e12 and e11 swapped in the basis: the first pair that
    # fails is now (e12, e11), whose product is 0 while e11 e12 is not
    swap = [1, 0, 2, 3]
    swapped = {(swap[a], swap[b]): {swap[c]: 1} for (a, b), cs in products.items() for c in cs}
    with pytest.raises(
        InputError, match=r"involution is not an anti-automorphism on pair \(0, 1\)"
    ):
        _algebra(4, swapped, {1: 1, 3: 1}, {}, factors)


def test_validation_rejects_breaks_through_coefficients_off_one():
    # the same breaks in the basis 2 e_0, e_1 / 2, i e_2, -3 e_3: the
    # constants 1 become s_a s_b / s_c (x x = y reads x x = -i/4 y), and
    # the checks meet fewer products by the shared one()
    test_validation_rejects_broken_unit(SCALED_BASIS)
    test_validation_rejects_broken_associativity(SCALED_BASIS)
    test_validation_rejects_broken_star(SCALED_BASIS)


@pytest.mark.parametrize(
    "where, row, message",
    [
        ("product", ((1, ONE), (0, ONE)), "product e_1 e_1 has indices out of increasing order"),
        ("product", ((1, ONE), (1, ONE)), "product e_1 e_1 has indices out of increasing order"),
        ("product", ((1, GaussRational.zero()),), "product e_1 e_1 has a zero coefficient"),
        ("product", ((2, ONE),), "product e_1 e_1 has an index outside 0..1"),
        ("product", ((-1, ONE),), "product e_1 e_1 has an index outside 0..1"),
        ("unit", ((0, ONE), (1, GaussRational.zero())), "unit has a zero coefficient"),
        ("star", ((1, ONE), (0, ONE)), "involution of e_1 has indices out of increasing order"),
        ("star", ((5, ONE),), "involution of e_1 has an index outside 0..1"),
    ],
)
def test_constructor_rejects_rows_that_are_not_sparse(where, row, message):
    # the dual numbers with one row replaced: e_1 e_1, the unit, or e_1^*
    A = dual_numbers()
    products, unit, star_rows = A._pairs, A.unit, A._star_pairs
    if where == "product":
        products = (products[0], (products[1][0], row))
    elif where == "unit":
        unit = row
    else:
        star_rows = (star_rows[0], row)
    with pytest.raises(InputError, match=re.escape(message)):
        FinAlgebra(2, products, unit, star_rows, A.basis)
    assert FinAlgebra(2, A._pairs, A.unit, A._star_pairs, A.basis) == A


def test_algebra_json_round_trip():
    for A in (gauss_field(), matrix_algebra(2)):
        again = FinAlgebra.from_json(json.loads(json.dumps(A.to_json())))
        assert again == A


def _per_entry(data):
    """FinAlgebra.from_json with one GaussRational.from_json per entry, every
    entry read: the oracle of the shared parse."""
    dim = data["dim"]

    def row(entries):
        values = [GaussRational.from_json(x) for x in entries]
        pairs = tuple((c, v) for c, v in enumerate(values) if not v.is_zero())
        return pairs if len(values) == dim else None

    return FinAlgebra(
        dim,
        tuple(tuple(map(row, plane)) for plane in data["mult"]),
        row(data["unit"]),
        tuple(map(row, data["star"])),
        tuple(data.get("basis", ())),
    )


def _per_entry_json(A):
    """FinAlgebra.to_json with one GaussRational.to_json per entry."""
    mult, unit, involution = dense(A)
    return {
        "dim": A.dim,
        "basis": list(A.basis),
        "mult": [[[v.to_json() for v in row] for row in plane] for plane in mult],
        "unit": [v.to_json() for v in unit],
        "star": [[v.to_json() for v in row] for row in involution],
    }


def _spellings(x):
    """Spellings of the rational x that parse to x, most of them not
    canonical: padded, signed, unreduced, decimal, exponent, JSON int."""
    text = rational_to_str(x)
    out = [text, f" {text}", f"{text} ", f"{3 * x.numerator}/{3 * x.denominator}"]
    if x >= 0:
        out.append(f"+{text}")
    if x == 0:
        out.append("-0")
    if x.denominator == 1:
        out += [x.numerator, f"{x.numerator}.0", f"{x.numerator}0e-1"]
    if x.denominator in (2, 4, 8):
        out.append(repr(float(x)))  # exact in binary
    return out


def _respelled(A, rng):
    """A.to_json() with every coefficient spelled at random by _spellings,
    as a dict, a dict without 'im' or a bare string or int when it is real."""

    def spell(v):
        re, im = rng.choice(_spellings(v.re)), rng.choice(_spellings(v.im))
        if v.im:
            return {"re": re, "im": im}
        return rng.choice([{"re": re, "im": im}, {"re": re}, re])

    data, (mult, unit, involution) = A.to_json(), dense(A)
    data["mult"] = [[list(map(spell, row)) for row in plane] for plane in mult]
    data["unit"] = list(map(spell, unit))
    data["star"] = [list(map(spell, row)) for row in involution]
    return data


_SPELLED = {
    "M2": lambda: matrix_algebra(2),
    "M2(1/2)": lambda: _rescaled(matrix_algebra(2), [1, "1/2", 2, 1]),
    "u2=i": _u_squared_i,
    "M2 in i e12": lambda: _rescaled(matrix_algebra(2), [1, I, -I, 1]),
}


# spellings of a whole zero row: each entry is the same JSON value
_ZERO_ROW_SPELLINGS = [0, "0", "-0", "0/7", {}, {"re": "0"}]


def _zero_rows_spelled(data, spelling):
    """data with each zero row of its product table written as [spelling] * dim,
    all of them one list."""
    zero, row = [{"im": "0", "re": "0"}] * data["dim"], [spelling] * data["dim"]
    return {**data, "mult": [[row if r == zero else r for r in p] for p in data["mult"]]}


def _hp_stdout(path) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(
            ["cyclic", "hp", "--algebra", str(path), "--truncation", "2"],
            standalone_mode=False,
        )
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(_SPELLED))
def test_shared_parse_and_serialize_match_per_entry(name, tmp_path):
    A = _SPELLED[name]()
    canonical = A.to_json()
    assert canonical == _per_entry_json(A)
    # some row is zero but for its last entry
    zero = [{"im": "0", "re": "0"}] * A.dim
    rows = [r for p in canonical["mult"] for r in p]
    assert any(r[:-1] == zero[1:] and r[-1] != zero[0] for r in rows)
    rng = random.Random(5)
    cases = [canonical] + [_respelled(A, rng) for _ in range(3)]
    cases += [_zero_rows_spelled(canonical, s) for s in _ZERO_ROW_SPELLINGS]
    digests = set()
    for k, data in enumerate(cases):
        loaded = FinAlgebra.from_json(json.loads(json.dumps(data)))
        assert loaded == _per_entry(data) == A
        written = loaded.to_json()
        assert written == _per_entry_json(loaded) == canonical
        # equal coefficients are one instance, and the zero rows are written
        # as one list
        entries = [v for p in loaded._pairs for r in p for _, v in r]
        entries += [v for _, v in loaded.unit] + [v for r in loaded._star_pairs for _, v in r]
        assert len(set(map(id, entries))) == len(set(entries))
        assert len({id(r) for p in written["mult"] for r in p if r == zero}) <= 1
        path = tmp_path / f"{k}.json"
        path.write_text(json.dumps(data))
        code, stdout = _hp_stdout(path)
        assert code == 0
        digests.add(json.loads(stdout)["input_digest"])
    assert len(digests) == 1
    # a row one entry short or long, zero or not, fails as the per-entry
    # read does, with the same error object
    for table, message in (
        ("mult", "multiplication table must be dim x dim x dim"),
        ("star", "involution matrix must be dim x dim"),
    ):
        for row in (zero[1:], zero + zero[:1], rows[-1][1:], rows[-1] + ["0"]):
            data = json.loads(json.dumps(canonical))
            if table == "mult":
                data["mult"][-1][-1] = row
            else:
                data["star"][-1] = row
            for read in (FinAlgebra.from_json, _per_entry):
                with pytest.raises(InputError) as caught:
                    read(data)
                assert str(caught.value) == message
            path = tmp_path / "short.json"
            path.write_text(json.dumps(data))
            error = {"error": {"kind": "input", "message": message, "subcommand": "cyclic hp"}}
            assert _hp_stdout(path) == (2, json.dumps(error, sort_keys=True, indent=2) + "\n")


def _matrix_units_json(m: int) -> dict:
    """M_m in the matrix-unit basis, written from e_ij e_kl = delta_jk e_il."""
    zero, one = {"re": "0", "im": "0"}, {"re": "1", "im": "0"}
    d = m * m

    def coords(*ones):
        return [one if c in ones else zero for c in range(d)]

    return {
        "dim": d,
        "basis": [f"e{i + 1}{j + 1}" for i in range(m) for j in range(m)],
        "mult": [
            [coords(*([i * m + l] if j == k else [])) for k in range(m) for l in range(m)]
            for i in range(m)
            for j in range(m)
        ],
        "unit": coords(*(i * m + i for i in range(m))),
        "star": [coords(j * m + i) for i in range(m) for j in range(m)],
    }


def test_loading_m8_costs_its_distinct_rows(tmp_path):
    data = _matrix_units_json(8)
    path = tmp_path / "m8.json"
    path.write_text(json.dumps(data))
    A = FinAlgebra.load(path)
    # 512 products are nonzero, each of one term; the other 3584 rows are empty
    rows = [r for p in A._pairs for r in p]
    assert (sum(map(len, rows)), rows.count(())) == (512, 4096 - 512)
    written = A.to_json()
    zero = [{"im": "0", "re": "0"}] * 64
    assert len({id(r) for p in written["mult"] for r in p if r == zero}) == 1
    # the algebra read is the constructed one, and its shared JSON and its
    # digest are those of its JSON written entry by entry
    assert A == matrix_algebra(8)
    per_entry = {"algebra": _per_entry_json(A), "truncation": 2}
    assert written == per_entry["algebra"]
    text = json.dumps(
        {"inputs": per_entry, "subcommand": "cyclic hp"}, sort_keys=True, separators=(",", ":")
    )
    code, stdout = _hp_stdout(path)
    assert code == 0
    assert json.loads(stdout)["input_digest"] == hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "build, nonzero",
    [
        (lambda: matrix_algebra(8), 512),
        (lambda: tensor_product(dual_numbers(), dual_numbers()), 9),
        (lambda: direct_sum(matrix_algebra(2), gauss_field()), 9),
    ],
    ids=["M8", "dual(x)dual", "M2+C"],
)
def test_constructed_algebras_share_one_zero_row(build, nonzero):
    A = build()
    rows = [r for p in A._pairs for r in p]
    assert rows.count(()) == A.dim**2 - nonzero
    # the JSON and the digest are those written entry by entry, from fresh objects
    per_entry = _per_entry_json(A)
    assert A.to_json() == per_entry
    text = json.dumps({"inputs": {"algebra": per_entry}}, sort_keys=True, separators=(",", ":"))
    assert cli._digest({"inputs": {"algebra": A.to_json()}}) == (
        hashlib.sha256(text.encode()).hexdigest()
    )


def test_a_list_coefficient_is_an_input_error(tmp_path):
    data = matrix_algebra(2).to_json()
    data["mult"][1][2][0] = [1, 0]
    with pytest.raises(InputError, match="bad algebra description"):
        FinAlgebra.from_json(data)
    path = tmp_path / "list.json"
    path.write_text(json.dumps(data))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["cyclic", "hp", "--algebra", str(path)], standalone_mode=False)
    assert code == 2
    assert json.loads(out.getvalue())["error"]["kind"] == "input"


def test_loading_parses_each_distinct_string_once(monkeypatch, tmp_path):
    path = tmp_path / "m4.json"
    path.write_text(json.dumps(matrix_algebra(4).to_json()))
    data = json.loads(path.read_text())
    entries = [v for p in data["mult"] for r in p for v in r] + data["unit"]
    entries += [v for r in data["star"] for v in r]
    distinct = {part for v in entries for part in (v["re"], v["im"])}
    assert (len(entries), distinct) == (4368, {"0", "1"})
    calls = []
    parse = exactnum.rational_from_str

    def counted(s):
        calls.append(s)
        return parse(s)

    monkeypatch.setattr(exactnum, "rational_from_str", counted)
    assert FinAlgebra.load(path) == matrix_algebra(4)
    assert len(calls) == len(set(calls)) <= len(distinct)


@pytest.mark.parametrize(
    "factors", [[2] * 9, ["1/2"] * 9, [I] * 9, [2, "1/2", I, 1, -3, "2/3", -I, 1, 5]]
)
def test_rescaled_matrix_algebras_load_and_keep_their_homology(factors):
    # every structure constant, unit and star coefficient is off 1 or
    # imaginary, and the JSON load shares them
    M3 = matrix_algebra(3)
    A = _rescaled(M3, factors)
    assert FinAlgebra.from_json(json.loads(json.dumps(A.to_json()))) == A
    assert hp_homology(A, 3).hc == hp_homology(M3, 3).hc


def test_the_u_squared_i_algebra_survives_a_json_load():
    A = _u_squared_i()
    again = FinAlgebra.from_json(json.loads(json.dumps(A.to_json())))
    assert again == A
    assert hp_homology(again, 4).hc == hp_homology(A, 4).hc


# ---------------------------------------------------------------------------
# traces


def test_normalized_matrix_trace_passes_all_axioms():
    report = verify_trace(matrix_algebra(2), _normalized_matrix_trace(2))
    assert report["passed"]
    assert report["failures"] == []


def test_projection_trace_fails_exactly_faithfulness():
    A = gauss_field_power(2)
    coords = [GaussRational.zero()] * A.dim
    coords[0] = ONE  # tau = first component: unital, positive, tracial
    report = verify_trace(A, Trace(tuple(coords)))
    assert report["failures"] == ["faithful"]


def test_zero_trace_fails_normalization_and_faithfulness():
    A = gauss_field()
    report = verify_trace(A, Trace((GaussRational.zero(),) * A.dim))
    assert not report["passed"]
    assert "normalized" in report["failures"]
    assert "faithful" in report["failures"]


def test_a_trace_negative_on_one_projection_is_not_positive():
    # normalized, tracial and faithful, but tau(e_3* e_3) = -1/1000
    A = gauss_field_power(3)
    tau = Trace(tuple(GaussRational(Fraction(n, 1000)) for n in (500, 501, -1)))
    assert verify_trace(A, tau)["failures"] == ["positive"]


def test_a_trace_that_is_not_hermitian_is_not_positive():
    # normalized, tracial and faithful, but tau(e_1* e_1) = (1 + i)/2 is not real
    half = Fraction(1, 2)
    tau = Trace((GaussRational(half, half), GaussRational(half, -half)))
    report = verify_trace(gauss_field_power(2), tau)
    assert report["positive"] is False
    assert report["failures"] == ["positive"]


def test_trace_dimension_mismatch():
    with pytest.raises(InputError):
        verify_trace(gauss_field(), _normalized_matrix_trace(2))


def test_trace_json_round_trip():
    tau = _normalized_matrix_trace(3)
    assert Trace.from_json(tau.to_json()).coords == tau.coords


# ---------------------------------------------------------------------------
# chains and the five operators


def test_chain_from_words_and_coefficient():
    A = dual_numbers()
    x = Chain.from_words(A, 1, {(0, 1): I, (1, 0): ONE})
    assert x.coefficient((0, 1)) == I
    assert x.coefficient((1, 1)).is_zero()
    assert (x - x).is_zero()
    assert (x + x).coefficient((1, 0)) == ONE + ONE


def test_chain_rejects_malformed_words():
    A = matrix_algebra(2)
    # (0, 4) once aliased onto (1, 0) and (1, -1) onto (0, 3)
    for word in ((0, 4), (1, -1), (0,), (0, 1, 2)):
        with pytest.raises(InputError):
            Chain.from_words(A, 1, {word: 1})
        with pytest.raises(InputError):
            Chain(A, 1, {word: ONE})
    x = Chain(A, 1, {(0, 3): ONE, (1, 0): GaussRational.zero()})
    assert x.terms == {(0, 3): ONE}
    assert x.coords[3] == ONE and sum(not v.is_zero() for v in x.coords) == 1


def _revalidated(chain):
    """The chain built again by the checking constructor from its terms."""
    return Chain(chain.algebra, chain.level, dict(chain.terms))


@pytest.mark.parametrize("name", ["dual", "M2", "u2=i"])
def test_derived_chains_equal_the_validated_chains_of_their_terms(name):
    # operator results and chain arithmetic skip the word checks; their
    # words must pass them anyway, and no zero coefficient may survive
    A = _ADJOINT_ALGEBRAS[name]()
    rng = random.Random(17)
    derived = []
    for level in (2, 3):
        x, y = Chain.random(A, level, rng, 6), Chain.random(A, level, rng, 6)
        assert (x - x).terms == {} and x.scale(0).terms == {}
        derived += [x + y, -x, x.scale(I), x - y.scale(2)]
        for kind in ("b", "bprime", "lambda", "N", "S"):
            derived.append(apply_operator(kind, x))
            derived.append(apply_operator(kind, x, adjoint=True))
    for chain in derived:
        assert _revalidated(chain) == chain
        assert all(not v.is_zero() for v in chain.terms.values())
    # the checking constructor still refuses a word no operator derives
    word = next(iter(x.terms))
    for bad in (word + (0,), word[:-1] + (A.dim,), word[:-1] + (-1,)):
        with pytest.raises(InputError):
            Chain(A, 3, {bad: ONE})


def test_bprime_multiplies_down():
    A = matrix_algebra(2)
    x = _unit_chain(A, 1, (1, 2))  # e12 tensor e21
    out = apply_operator("b'", x)
    assert out.coefficient((0,)) == ONE  # e12 e21 = e11
    assert len(out.terms) == 1


def test_b_on_matrix_units_gives_commutator():
    A = matrix_algebra(2)
    out = apply_operator("b", _unit_chain(A, 1, (1, 2)))
    assert out.coefficient((0,)) == ONE   # e11
    assert out.coefficient((3,)) == -ONE  # minus e22


def test_b_vanishes_on_level_one_of_commutative_algebra():
    A = gauss_field()
    rng = random.Random(0)
    for _ in range(10):
        x = Chain.random(A, 1, rng)
        assert apply_operator("b", x).is_zero()


def test_lambda_sign_and_symmetrizer_kill_symmetric_word():
    A = gauss_field()
    x = _unit_chain(A, 1, (0, 0))
    assert apply_operator("lambda", x) == -x
    assert apply_operator("N", x).is_zero()


def test_shift_collapses_front_product():
    A = matrix_algebra(2)
    out = apply_operator("S", _unit_chain(A, 2, (1, 2, 0)))
    # e12 e21 e11 = e11
    assert out.coefficient((0,)) == ONE


def test_operator_level_guards_and_aliases():
    A = gauss_field()
    with pytest.raises(InputError):
        apply_operator("b", Chain.zero(A, 0))
    with pytest.raises(InputError):
        apply_operator("S", Chain.zero(A, 1))
    with pytest.raises(InputError):
        apply_operator("frobenius", Chain.zero(A, 1))
    x = Chain.random(A, 2, random.Random(1))
    assert apply_operator("λ", x) == apply_operator("lambda", x)
    assert apply_operator("b'", x) == apply_operator("bprime", x)


def test_bicomplex_identities_exactly():
    rng = random.Random(7)
    for A in (gauss_field(), dual_numbers(), matrix_algebra(2)):
        for level in range(1, 5):
            for _ in range(8):
                x = Chain.random(A, level, rng)
                lam = apply_operator("lambda", x)
                n_of_x = apply_operator("N", x)
                assert apply_operator("N", x - lam).is_zero()
                assert (n_of_x - apply_operator("lambda", n_of_x)).is_zero()
                bx = apply_operator("b", x - lam)
                bprime = apply_operator("bprime", x)
                if level >= 2:
                    rhs = bprime - apply_operator("lambda", bprime)
                else:
                    rhs = Chain.zero(A, 0)  # rotation is trivial below
                assert (bx - rhs).is_zero()
                if level >= 2:
                    assert apply_operator("b", apply_operator("b", x)).is_zero()
                    assert apply_operator(
                        "bprime", apply_operator("bprime", x)
                    ).is_zero()


def test_adjoints_match_pairing():
    rng = random.Random(3)
    A = matrix_algebra(2)
    for kind, src, dst in (
        ("b", 2, 1),
        ("bprime", 2, 1),
        ("lambda", 2, 2),
        ("N", 2, 2),
        ("S", 3, 1),
    ):
        for _ in range(6):
            x = Chain.random(A, src, rng)
            y = Chain.random(A, dst, rng)
            lhs = chain_pairing(apply_operator(kind, x), y)
            rhs = chain_pairing(x, apply_operator(kind, y, adjoint=True))
            assert lhs == rhs


def _dense_adjoint(kind, y):
    """The adjoint pulled over every source word: the oracle of the sparse pull."""
    A = y.algebra
    src_level = y.level - cyclic_module._LEVEL_SHIFT[kind]
    terms = {}
    for word in itertools.product(range(A.dim), repeat=src_level + 1):
        acc = GaussRational.zero()
        for w, v in homology_module._op_terms(A._pairs, ONE, kind, word):
            t = y.terms.get(w)
            if t is not None:
                acc = acc + v.conjugate() * t
        if not acc.is_zero():
            terms[word] = acc
    return Chain(A, src_level, terms)


_ADJOINT_ALGEBRAS = {
    "C": gauss_field,
    "dual": dual_numbers,
    "M2": lambda: matrix_algebra(2),
    "C3": lambda: gauss_field_power(3),
    "u2=i": _u_squared_i,
    "dual(x)dual": lambda: tensor_product(dual_numbers(), dual_numbers()),
}


@pytest.mark.parametrize("name", sorted(_ADJOINT_ALGEBRAS))
def test_sparse_adjoint_equals_the_dense_pull(name):
    A = _ADJOINT_ALGEBRAS[name]()
    rng = random.Random(13)
    for kind in ("b", "bprime", "lambda", "N", "S"):
        for src_level in (2, 3):
            level = src_level + cyclic_module._LEVEL_SHIFT[kind]
            chains = [Chain.zero(A, level)] + [
                Chain.random(A, level, rng, entries) for entries in (1, 4, 30)
            ]
            for y in chains:
                sparse = apply_operator(kind, y, adjoint=True)
                assert sparse.level == src_level
                assert sparse.terms == _dense_adjoint(kind, y).terms, (kind, y.terms)


def test_adjoint_costs_the_support_not_the_word_count(monkeypatch):
    # the dense pull walked all 16^9 source words of M4 at level 8, even for
    # the zero chain; a budget on word expansions fails fast instead of hanging
    expansions = 0
    op_terms = homology_module._op_terms

    def counted(*args):
        nonlocal expansions
        expansions += 1
        assert expansions <= 10**4, "the adjoint expanded words outside its support"
        return op_terms(*args)

    M4, M3 = matrix_algebra(4), matrix_algebra(3)
    rng = random.Random(7)
    # apply_operator calls the binding its own module imported
    monkeypatch.setattr(cyclic_module, "_op_terms", counted)
    t0 = time.perf_counter()
    assert apply_operator("b", Chain.zero(M4, 7), adjoint=True).is_zero()
    for _ in range(4):
        x = Chain.random(M3, 8, rng)
        bx = apply_operator("b", x)
        # y meets the support of b x, so both sides of the identity are nonzero
        y = Chain.from_words(
            M3, 7, {w: rng.choice((1, -2, 3)) for w in rng.sample(sorted(bx.terms), 4)}
        )
        lhs = chain_pairing(bx, y)
        assert not lhs.is_zero()
        assert lhs == chain_pairing(x, apply_operator("b", y, adjoint=True))
    assert time.perf_counter() - t0 < 1.0
    assert expansions, "the patched expansion was never called"


def _rescaled(A, factors):
    """A in the basis e'_a = s_a e_a for nonzero rationals or Gaussian rationals s_a."""
    s = [
        f if isinstance(f, GaussRational) else GaussRational.from_rational(Fraction(f))
        for f in factors
    ]
    d = range(A.dim)
    inv = [_inverse(x) for x in s]
    mult, unit, involution = dense(A)
    return fin_algebra(
        [[[s[a] * s[b] * mult[a][b][c] * inv[c] for c in d] for b in d] for a in d],
        [unit[c] * inv[c] for c in d],
        [[s[a].conjugate() * involution[a][c] * inv[c] for c in d] for a in d],
        A.basis,
    )


# ---------------------------------------------------------------------------
# an independent oracle: the truncated cyclic bicomplex


def _block_rank(columns):
    """Rank over Q(i) of sparse columns, one dense rank per block of linked rows."""
    root = {}

    def find(r):
        while root.setdefault(r, r) != r:
            r = root[r]
        return r

    for col in columns:
        heads = [find(r) for r in col]
        for r in heads[1:]:
            root[r] = heads[0]
    blocks = {}
    for col in columns:
        if col:
            blocks.setdefault(find(next(iter(col))), []).append(col)
    rank = 0
    for block in blocks.values():
        rows = sorted({r for col in block for r in col})
        rank += gauss_rank([[col.get(r, GaussRational.zero()) for r in rows] for col in block])
    return rank


def _total_boundary_rank(A, n):
    """Rank of Tot_n -> Tot_{n-1}, Tot_n = sum over q <= n of C_q(A).

    The block C_q sits in column p = n - q; even columns carry b
    vertically and N horizontally, odd ones -b' and 1 - lambda, and the
    p = 0 column has no horizontal map.
    """
    columns = []
    for q in range(n + 1):
        p = n - q
        for word in itertools.product(range(A.dim), repeat=q + 1):
            x = _unit_chain(A, q, word)
            images = []
            if q >= 1:
                down = apply_operator("bprime" if p % 2 else "b", x)
                images.append(-down if p % 2 else down)
            if p >= 1:
                if q == 0:
                    # rotation fixes a singleton: 1 - lambda dies, N is 1
                    images.append(Chain.zero(A, 0) if p % 2 else x)
                elif p % 2:
                    images.append(x - apply_operator("lambda", x))
                else:
                    images.append(apply_operator("N", x))
            col = {}
            for image in images:
                for w, v in image.terms.items():
                    key = (image.level, w)
                    col[key] = col.get(key, GaussRational.zero()) + v
            columns.append({k: v for k, v in col.items() if not v.is_zero()})
    return _block_rank(columns)


def _bicomplex_hc(A, truncation):
    ranks = [0] + [_total_boundary_rank(A, n) for n in range(1, truncation + 1)]
    sizes = [sum(A.dim ** (q + 1) for q in range(m + 1)) for m in range(truncation)]
    return tuple(sizes[m] - ranks[m] - ranks[m + 1] for m in range(truncation))


@pytest.mark.parametrize(
    "name, truncation",
    [
        ("gauss_field", 6),
        ("dual_numbers", 4),
        ("u_squared_i", 4),
        ("dual_tensor_dual", 4),
        ("half_field", 4),
    ],
)
def test_bicomplex_oracle_agrees_with_connes_complex(name, truncation):
    A = {
        "gauss_field": gauss_field,
        "dual_numbers": dual_numbers,
        "u_squared_i": _u_squared_i,
        "dual_tensor_dual": lambda: tensor_product(dual_numbers(), dual_numbers()),
        # f = 1/2 * 1: f f = f/2 and the unit is 2 f
        "half_field": lambda: _rescaled(gauss_field(), ["1/2"]),
    }[name]()
    assert _bicomplex_hc(A, truncation) == hp_homology(A, truncation).hc


# ---------------------------------------------------------------------------
# an independent oracle: the quotient-by-rotations complex


def _coinvariant_basis(A, n):
    """Orbit representatives of rotation-with-sign, dropping killed classes."""
    step = -1 if n % 2 else 1
    reps = {}
    killed = set()
    for flat in range(A.dim ** (n + 1)):
        word = tuple((flat // A.dim**k) % A.dim for k in reversed(range(n + 1)))
        cur, sign = word, 1
        orbit = []
        for _ in range(n + 1):
            orbit.append((cur, sign))
            cur = (cur[n],) + cur[:n]
            sign *= step
        seen = {}
        dead = False
        for w, s in orbit:
            if w in seen and seen[w] != s:
                dead = True
                break
            seen[w] = s
        rep = min(seen)
        if dead:
            killed.add(rep)
        elif rep == word:
            reps[rep] = seen
    return [
        (rep, orbit_signs)
        for rep, orbit_signs in sorted(reps.items())
        if rep not in killed
    ]


def _induced_boundary_rank(A, n, src_basis, dst_basis):
    """Exact rank of b on rotation classes, level n -> n - 1."""
    if not src_basis or not dst_basis:
        return 0
    dst_index = {}
    for col, (rep, signs) in enumerate(dst_basis):
        for w, s in signs.items():
            dst_index[w] = (col, s)
    rows = []
    for rep, _ in src_basis:
        out = apply_operator("b", _unit_chain(A, n, rep))
        row = [GaussRational.zero()] * len(dst_basis)
        for w, v in out.terms.items():
            if w in dst_index:
                col, s = dst_index[w]
                row[col] = row[col] + (v if s > 0 else -v)
        rows.append(row)
    return gauss_rank(rows)


def _quotient_complex_hc(A, degrees):
    """Cyclic homology through the rotation-coinvariant complex."""
    top = max(degrees)
    bases = [_coinvariant_basis(A, n) for n in range(top + 2)]
    ranks = [0]
    for n in range(1, top + 2):
        ranks.append(_induced_boundary_rank(A, n, bases[n], bases[n - 1]))
    out = []
    for n in degrees:
        out.append(len(bases[n]) - ranks[n] - ranks[n + 1])
    return out


def test_dense_quotient_complex_agrees_with_sparse_reduction():
    table = hp_homology(gauss_field(), truncation=6)
    assert _quotient_complex_hc(gauss_field(), range(5)) == list(table.hc[:5])
    dual_table = hp_homology(dual_numbers(), truncation=4)
    assert _quotient_complex_hc(dual_numbers(), range(4)) == list(dual_table.hc)


# ---------------------------------------------------------------------------
# the full complex: Connes' complex reduced on every cell, with no weights


def _words(weights, length):
    """Every word of `length` letters whose letter weights sum to 0, in word order."""
    # reach[r] holds the sums of r letter weights
    reach = [{0}]
    for _ in range(length):
        reach.append({s + w for s in reach[-1] for w in weights})

    def extend(prefix, total):
        if len(prefix) == length:
            yield prefix
            return
        for a, w in enumerate(weights):
            if -(total + w) in reach[length - len(prefix) - 1]:
                yield from extend(prefix + (a,), total + w)

    return extend((), 0)


def _full_connes_hc(A, truncation, weight_zero=False):
    """HC from the ranks of b on every cell of C^lambda, with no symmetry group.

    Classes come from the rotations of every word (every weight-0 word, with
    `weight_zero`), not from the library's orbit search; the columns of b
    and their reduction are the library's.
    """
    weights = (0,) * A.dim
    if weight_zero:
        grading = homology_module._peirce_grading(A)
        weights = homology_module._letter_weights(grading, truncation + 1)
    tables, cells = [], []
    for n in range(truncation + 1):
        table, reps = {}, []
        for word in _words(weights, n + 1):
            # word = lambda^k(rep): rep is word rotated k letters to the left
            rots = [word[k:] + word[:k] for k in range(n + 1)]
            rep = min(rots)
            if n * ((n + 1) // rots.count(rep)) % 2:
                table[word] = None
                continue
            row = sum(a * A.dim**e for e, a in enumerate(reversed(rep)))
            table[word] = (row, n * rots.index(rep) % 2 == 1)
            if word == rep:
                reps.append(word)
        tables.append(table)
        cells.append(reps)
    ranks, int_table = [0], connes_module._int_table(A._pairs, tuple(range(A.dim)))
    for n in range(1, truncation + 1):
        pivots = {}
        for word in cells[n]:
            for col in connes_module._columns(int_table, n, word, tables[n - 1]):
                if col:
                    reduce_column(col, pivots)
        ranks.append(len(pivots) // (1 if int_table[1] is None else 2))
    return tuple(len(cells[m]) - ranks[m] - ranks[m + 1] for m in range(truncation))


@pytest.mark.parametrize(
    "name, truncation",
    [
        ("M2", 6),
        ("M3", 4),
        ("M4", 3),
        ("M2(dual)", 4),
        ("M2(C^2)", 4),
        ("M2(u^2=i)", 3),
        ("C^3", 6),
    ],
)
def test_weight_zero_block_agrees_with_the_full_complex(name, truncation):
    # HC_m does not depend on the truncation, so T covers every T' <= T
    A = {
        "M2": lambda: matrix_algebra(2),
        "M3": lambda: matrix_algebra(3),
        "M4": lambda: matrix_algebra(4),
        "M2(dual)": lambda: matrix_amplification(dual_numbers(), 2),
        "M2(C^2)": lambda: matrix_amplification(gauss_field_power(2), 2),
        "M2(u^2=i)": lambda: matrix_amplification(_u_squared_i(), 2),
        "C^3": lambda: gauss_field_power(3),
    }[name]()
    assert len(set(homology_module._peirce_grading(A))) > 1
    assert hp_homology(A, truncation).hc == _full_connes_hc(A, truncation)


def _skew_m2():
    """M2 in the basis e11, e12 + e21, e21, e22, from 2x2 matrices."""
    mats = [((1, 0), (0, 0)), ((0, 1), (1, 0)), ((0, 0), (1, 0)), ((0, 0), (0, 1))]

    def coords(m):
        (a, b), (c, d) = m
        return tuple(GaussRational.from_rational(Fraction(v)) for v in (a, b, c - b, d))

    def matmul(x, y):
        return tuple(
            tuple(sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2))
            for i in range(2)
        )

    return fin_algebra(
        tuple(tuple(coords(matmul(x, y)) for y in mats) for x in mats),
        coords(((1, 0), (0, 1))),
        tuple(coords(tuple(zip(*x))) for x in mats),
        ("e11", "e12+e21", "e21", "e22"),
    )


def test_peirce_grading_of_idempotent_bases():
    grading = homology_module._peirce_grading
    assert grading(matrix_algebra(2)) == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert grading(gauss_field_power(3)) == ((0, 0), (1, 1), (2, 2))
    # the amplified side of a Morita check: e_ij * a lies in e_ii A e_jj
    assert grading(matrix_amplification(dual_numbers(), 2)) == (
        (0, 0), (0, 0), (0, 1), (0, 1), (1, 0), (1, 0), (1, 1), (1, 1)
    )


@pytest.mark.parametrize("name", ["dual", "pauli", "skew", "half_unit"])
def test_algebras_without_a_peirce_basis_get_the_trivial_grading(name):
    A = {
        "dual": dual_numbers,
        "pauli": _pauli_m2,
        # e12 + e21 lies in two Peirce spaces
        "skew": _skew_m2,
        # f = e11 / 2: the unit is 2 f + e22
        "half_unit": lambda: _rescaled(matrix_algebra(2), ["1/2", 1, 1, 1]),
    }[name]()
    assert set(homology_module._peirce_grading(A)) == {(0, 0)}
    assert hp_homology(A, 4).hc == _full_connes_hc(A, 4)


def _permuted(A, perm):
    """A in the basis order e'_k = e_{perm[k]}."""
    d = range(A.dim)
    mult, unit, involution = dense(A)
    return fin_algebra(
        [[[mult[perm[a]][perm[b]][perm[c]] for c in d] for b in d] for a in d],
        [unit[perm[a]] for a in d],
        [[involution[perm[a]][perm[c]] for c in d] for a in d],
        [A.basis[perm[a]] for a in d],
    )


def _two_cycle():
    """e1, e2, x in e1 A e2 and y = x* in e2 A e1, with x y = y x = 0.

    No product of letters is a multiple of e1 or e2 except e1 e1 and
    e2 e2, so the corner keeps every letter; a word of L letters has
    weight 0 when it holds as many x as y, which C(2L, L) words do.
    """
    zero = GaussRational.zero()
    mult = [[[zero] * 4 for _ in range(4)] for _ in range(4)]
    for a, b, c in ((0, 0, 0), (1, 1, 1), (0, 2, 2), (2, 1, 2), (1, 3, 3), (3, 0, 3)):
        mult[a][b][c] = ONE
    return fin_algebra(
        mult,
        (ONE, ONE, zero, zero),
        tuple(tuple(ONE if c == (0, 1, 3, 2)[a] else zero for c in range(4)) for a in range(4)),
        ("e1", "e2", "x", "y"),
    )


_CORNER_CASES = {
    "M2": lambda: matrix_algebra(2),
    "M3": lambda: matrix_algebra(3),
    "M4": lambda: matrix_algebra(4),
    "M2(M2)": lambda: matrix_amplification(matrix_algebra(2), 2),
    "M3 permuted": lambda: _permuted(matrix_algebra(3), [4, 0, 7, 2, 8, 1, 3, 6, 5]),
    # a rescaled letter gives x y = 2 e_j
    "M2 2e12": lambda: _rescaled(matrix_algebra(2), [1, 2, 1, 1]),
    "M3 2e12": lambda: _rescaled(matrix_algebra(3), [1, 2, 1, 1, 1, 1, 1, 1, 1]),
    "M2(dual)": lambda: matrix_amplification(dual_numbers(), 2),
    # e21*1 and e21*eps swapped in basis order
    "M2(dual) reordered": lambda: _permuted(
        matrix_amplification(dual_numbers(), 2), [0, 1, 2, 3, 5, 4, 6, 7]
    ),
    "M2(C^2)": lambda: matrix_amplification(gauss_field_power(2), 2),
    "M2(u^2=i)": lambda: matrix_amplification(_u_squared_i(), 2),
    "M2+C": lambda: direct_sum(matrix_algebra(2), gauss_field()),
    "C^3": lambda: gauss_field_power(3),
    "two cycle": _two_cycle,
    "pauli": lambda: _pauli_m2(),
}


def _corner(A):
    """The corner letters of a loaded algebra, whose idempotents are the unit's support."""
    idem = [a for a, _ in A.unit]
    return homology_module._corner(A._pairs, idem, homology_module._peirce_grading(A))


def _connes(A, truncation):
    """The report of Connes' complex on A's corner, split: `hp_homology` without the closed form."""
    grading = homology_module._peirce_grading(A)
    return homology_module._hp(A, grading, _corner(A), truncation, split=True)


def test_corner_letter_counts():
    counts = {name: len(_corner(make())) for name, make in _CORNER_CASES.items()}
    # every Peirce idempotent of a matrix algebra is conjugate to the first
    for name in ("M2", "M3", "M4", "M2(M2)", "M3 permuted", "M2 2e12", "M3 2e12"):
        assert counts[name] == 1, name
    # the corner of M_2(B) is B, and M2+C keeps e11 and the unit of C
    for name in ("M2(dual)", "M2(dual) reordered", "M2(C^2)", "M2(u^2=i)", "M2+C"):
        assert counts[name] == 2, name
    # no product of letters certifies a drop, or the grading is trivial
    assert counts["C^3"] == 3
    assert counts["two cycle"] == counts["pauli"] == 4
    # the first idempotent in basis order is kept
    permuted = _CORNER_CASES["M3 permuted"]()
    assert [permuted.basis[a] for a in _corner(permuted)] == ["e22"]
    assert _corner(matrix_algebra(3)) == (0,)


def test_c3_keeps_its_three_idempotents():
    # the three points are not conjugate: a corner that dropped one would
    # report HC_0 = 1 instead of 3
    A = gauss_field_power(3)
    assert _corner(A) == (0, 1, 2)
    assert hp_homology(A, 4).hc == (3, 0, 3, 0)


def test_rescaled_and_reordered_bases_shrink_to_their_corner():
    # x y = c e_j with c != 1, and letters whose rank in their Peirce
    # space differs across the pair, still certify the drop
    for name in ("M2 2e12", "M3 2e12", "M2(dual) reordered"):
        A = _CORNER_CASES[name]()
        grading = homology_module._peirce_grading(A)
        kept = {i for a in _corner(A) for i in grading[a]}
        assert kept == {0}, name
    reordered = _CORNER_CASES["M2(dual) reordered"]()
    assert hp_homology(reordered, 4).hc == hp_homology(dual_numbers(), 4).hc


@pytest.mark.parametrize(
    "name, truncation",
    [
        ("M2", 6),
        ("M3", 5),
        ("M4", 4),
        ("M2(dual)", 4),
        ("M2(u^2=i)", 4),
        ("C^3", 6),
        ("M3 permuted", 5),
        ("M2(M2)", 3),
        ("M2 2e12", 6),
        ("M3 2e12", 4),
        ("M2(dual) reordered", 4),
        ("M2(C^2)", 4),
        ("M2+C", 4),
        ("two cycle", 5),
    ],
)
def test_orbit_complex_agrees_with_the_weight_zero_block(name, truncation):
    # the library reduces the rotation orbits of the corner's weight-0
    # words; the oracle those of every weight-0 word of A
    A = _CORNER_CASES[name]()
    assert hp_homology(A, truncation).hc == _full_connes_hc(A, truncation, weight_zero=True)


# ---------------------------------------------------------------------------
# homology tables


def test_hp_gauss_field_frozen_values():
    report = hp_homology(gauss_field(), truncation=6)
    assert (report.hp0, report.hp1) == (1, 0)
    assert report.hc == (1, 0, 1, 0, 1, 0)
    assert report.stabilized
    assert report.previous == (1, 0)
    # a separable corner takes the closed form, and Connes' complex agrees
    assert report.boundary_check == "separable"
    assert _connes(gauss_field(), 6) == report._replace(boundary_check="full")


def test_hp_direct_sums_are_additive():
    assert hp_homology(gauss_field_power(2), truncation=4).hc == (2, 0, 2, 0)
    assert hp_homology(gauss_field_power(3), truncation=4).hc == (3, 0, 3, 0)


def test_hp_dual_numbers():
    report = hp_homology(dual_numbers(), truncation=4)
    assert report.hc == (2, 0, 2, 0)
    assert report.stabilized


def test_hp_matrix_algebra_matches_scalars():
    report = hp_homology(matrix_algebra(2), truncation=4)
    assert (report.hp0, report.hp1) == (1, 0)


def test_hp_realification_path():
    A = _u_squared_i()
    A._validate()
    report = hp_homology(A, truncation=4)
    assert (report.hp0, report.hp1) == (2, 0)


def test_hp_is_independent_of_rational_basis_scaling():
    # constants 1/2, 1/3, 2 and 3: the integer table is scaled by lcm 6,
    # which no single denominator reaches
    A = matrix_algebra(2)
    scaled = _rescaled(A, ["1/2", 1, 1, "1/3"])
    assert {v.re.denominator for p in scaled._pairs for r in p for _, v in r} == {1, 2, 3}
    assert hp_homology(scaled, 4).hc == hp_homology(A, 4).hc == (1, 0, 1, 0)
    dual = _rescaled(dual_numbers(), ["1/2", "2/3"])
    assert hp_homology(dual, 5).hc == hp_homology(dual_numbers(), 5).hc


def _pauli_m2():
    # M_2 in the basis 1, sx, sy, sz: s_a s_b = delta_ab 1 + i eps_abc s_c
    zero = GaussRational.zero()
    mult = [[[zero] * 4 for _ in range(4)] for _ in range(4)]
    for a in range(4):
        mult[0][a][a] = mult[a][0][a] = ONE
    for a in range(1, 4):
        mult[a][a][0] = ONE
    for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        mult[a][b][c], mult[b][a][c] = I, -I
    return fin_algebra(
        mult,
        (ONE, zero, zero, zero),
        tuple(tuple(ONE if a == c else zero for c in range(4)) for a in range(4)),
        ("1", "sx", "sy", "sz"),
    )


def test_hp_pauli_basis_matches_matrix_units():
    # imaginary structure constants: the realified columns and their
    # composite in the square check both see the i
    report = _connes(_pauli_m2(), 6)
    assert report.hc == hp_homology(matrix_algebra(2), truncation=6).hc == (1, 0, 1, 0, 1, 0)
    assert report.boundary_check == "full"
    assert hp_homology(_pauli_m2(), 6) == report._replace(boundary_check="separable")


def _split_idempotents(side):
    """The letter of each e_i in a split table: the first of its (i, i) space."""
    return [side.index((i, i)) for i in sorted({i for i, _ in side})]


def _split_corner(A):
    """`split_corner`'s (table, side) for the corner of A, and the split table's own corner."""
    table, side = blocks_module.split_corner(A, _corner(A), homology_module._peirce_grading(A))
    return table, side, homology_module._corner(table, _split_idempotents(side), side)


def test_pauli_splits_to_a_one_letter_corner():
    # sx squares to 1, so (1 +- sx)/2 are orthogonal idempotents, and the
    # Peirce basis they give is M2's matrix units up to scale
    table, side, corner = _split_corner(_pauli_m2())
    assert len(table) == 4 and len(corner) == 1
    assert side == [(0, 0), (0, 1), (1, 0), (1, 1)]
    # one word per degree, killed in odd degrees
    _, cells = connes_module._rank_table(table, corner, (0,), 6)
    assert cells == (1, 0, 1, 0, 1, 0, 1)


@pytest.mark.parametrize(
    "factors",
    [
        # 2 sx squares to 4 and (1 + i) sz to 2i
        [1, 2, 1, GaussRational(1, 1)],
        # the unit is (1/2) times a letter, so the eigenvalues of 2 sx are +-2
        [2, 2, 1, GaussRational(1, 1)],
    ],
)
def test_rescaled_pauli_units_keep_their_cells_and_homology(factors):
    P = _pauli_m2()
    A = _rescaled(P, factors)
    (table, _, corner), (pauli, _, pauli_corner) = _split_corner(A), _split_corner(P)
    assert len(corner) == len(pauli_corner) == 1
    assert connes_module._rank_table(table, corner, (0,), 5) == (
        connes_module._rank_table(pauli, pauli_corner, (0,), 5)
    )
    assert hp_homology(A, 5).hc == hp_homology(P, 5).hc == (1, 0, 1, 0, 1)


def test_tensor_square_of_pauli_keeps_one_block_in_sixteen():
    P = _pauli_m2()
    A = tensor_product(P, P)
    # M4 in a basis of Pauli products: one letter of sixteen is left
    table, _, corner = _split_corner(A)
    assert (len(table), len(corner)) == (16, 1)
    assert hp_homology(A, 3).hc == (1, 0, 1)


def test_morita_check_on_pauli_keeps_its_amplified_side_independent(monkeypatch):
    # neither side is split: the base takes the closed form, and the
    # amplified side keeps all 16 letters
    split, seen = blocks_module.split_corner, []

    def recorded(A, letters, grading):
        seen.append(A.dim)
        return split(A, letters, grading)

    monkeypatch.setattr(blocks_module, "split_corner", recorded)
    verdict = morita_check(_pauli_m2(), 2, truncation=4)
    assert verdict["verdict"] == "pass"
    assert verdict["base"] == verdict["amplified"] == [1, 0]
    assert seen == []


def _group_algebra(elements):
    """Q(i)[G] on a group of permutation tuples, with star g -> g^-1."""
    index = {g: a for a, g in enumerate(elements)}
    d = len(elements)

    def letter(g):
        return tuple(ONE if c == index[g] else GaussRational.zero() for c in range(d))

    def inverse(g):
        return tuple(sorted(range(len(g)), key=g.__getitem__))

    return fin_algebra(
        tuple(tuple(letter(tuple(g[k] for k in h)) for h in elements) for g in elements),
        letter(tuple(range(len(elements[0])))),
        tuple(letter(inverse(g)) for g in elements),
        tuple("".join(map(str, g)) for g in elements),
    )


def _signed_permutations(n):
    """The hyperoctahedral group B_n as permutations of the 2n points +-1..+-n.

    Point k stands for +(k % n + 1) when k < n and for -(k % n + 1) after;
    a signed permutation moves point k to its image, sign included.  The
    identity comes first.
    """
    return [
        tuple(p[k % n] + n * (k // n ^ s[k % n]) for k in range(2 * n))
        for p in itertools.permutations(range(n))
        for s in itertools.product((0, 1), repeat=n)
    ]


def _cyclic_group(n):
    return [tuple((i + k) % n for i in range(n)) for k in range(n)]


_GROUPS = {
    "S2": lambda: list(itertools.permutations(range(2))),
    "S3": lambda: list(itertools.permutations(range(3))),
    "B2": lambda: _signed_permutations(2),
    **{f"Z/{n}": (lambda n=n: _cyclic_group(n)) for n in range(3, 7)},
}


@pytest.mark.parametrize(
    "elements, truncation, hc",
    [
        # S3: three conjugacy classes
        (list(itertools.permutations(range(3))), 4, (3, 0, 3, 0)),
        # Z/3: commutative, so every element is its own class
        ([(0, 1, 2), (1, 2, 0), (2, 0, 1)], 6, (3, 0, 3, 0, 3, 0)),
        (_GROUPS["S2"](), 6, (2, 0, 2, 0, 2, 0)),
        (_GROUPS["S3"](), 6, (3, 0, 3, 0, 3, 0)),
        # B2, the dihedral group of order 8: five classes
        (_GROUPS["B2"](), 5, (5, 0, 5, 0, 5)),
        (_GROUPS["Z/4"](), 6, (4, 0, 4, 0, 4, 0)),
        (_GROUPS["Z/5"](), 5, (5, 0, 5, 0, 5)),
        (_GROUPS["Z/6"](), 5, (6, 0, 6, 0, 6)),
    ],
)
def test_group_algebras_match_the_conjugacy_class_count(elements, truncation, hc):
    # HC_2m(Q[G]) has the dimension of the conjugacy classes, and HC_odd = 0
    # (Burghelea, Comment. Math. Helv. 60, 1985)
    A = _group_algebra(elements)
    letters = tuple(range(A.dim))
    # every letter is a unit: its product with its inverse is the identity, letter 0
    assert all(
        any(A.basis_product(u, v) == ((0, ONE),) for v in letters) for u in letters
    )
    assert _corner(A) == letters
    assert hp_homology(A, truncation).hc == hc


@pytest.mark.parametrize(
    "name, letters, idempotents",
    [
        # Q(i)^2
        ("S2", 2, 2),
        # Q(i)^2 + M2: the transpositions split M2's unit into two conjugate
        # idempotents, and the corner keeps one
        ("S3", 3, 4),
        # Q(i)^4 + M2: the rotation's eigenvalues +-1, +-i, then a reflection
        ("B2", 5, 6),
        # x^n - 1 has the roots 1 (and -1 for even n) in Q(i), and +-i for
        # n = 4; the remainder is Q(i)(zeta_3) for n = 3 and Q(i)(zeta_5)
        # for n = 5, and for n = 6 Q(i)(zeta_3) + Q(i)(zeta_6), which g^3
        # splits by its eigenvalues +1 and -1
        ("Z/3", 3, 2),
        ("Z/4", 4, 4),
        ("Z/5", 5, 2),
        ("Z/6", 6, 4),
    ],
)
def test_group_algebras_split_into_their_blocks(name, letters, idempotents):
    A = _group_algebra(_GROUPS[name]())
    table, side, corner = _split_corner(A)
    assert len(table) == A.dim
    assert len({i for i, _ in side}) == idempotents
    assert len(corner) == letters
    # every kept block is a field or a matrix corner: letters of distinct
    # idempotents never multiply
    assert all(
        not table[a][b] for a in corner for b in corner if side[a][1] != side[b][0]
    )


def test_eigen_idempotents_of_single_letters():
    eigen = blocks_module._eigen_idempotents
    half = GaussRational.from_rational(Fraction(1, 2))
    third = GaussRational.from_rational(Fraction(1, 3))
    # e11 in M2 has the simple roots 0 and 1: e22 and e11, with no remainder
    M = matrix_algebra(2)
    assert eigen(M, {0: ONE, 3: ONE}, {0: ONE}) == [{3: ONE}, {0: ONE}]
    # a generator of Z/3: root 1 gives the class sum / 3, and the remainder
    # is the field block Q(i)(zeta_3), where x^2 + x + 1 has no root
    Z3 = _group_algebra(_cyclic_group(3))
    average = {0: third, 1: third, 2: third}
    assert eigen(Z3, {0: ONE}, {1: ONE}) == [average, {0: 2 * third, 1: -third, 2: -third}]
    # sx/2 has p = t^2 - 1/4, so s = 4, and the roots +-2 of 16 p(y/4) = y^2 - 4
    # give the eigenvalues +-1/2
    P = _pauli_m2()
    assert eigen(P, {0: ONE}, {1: half}) == [{0: half, 1: -half}, {0: half, 1: half}]
    # eps is nilpotent: 0 is a double root; 64 sx has a constant term of norm
    # 2^24, above the search bound; u^2 = i has no root in Q(i)
    assert eigen(dual_numbers(), {0: ONE}, {1: ONE}) == [{0: ONE}]
    assert eigen(P, {0: ONE}, {1: GaussRational(64)}) == [{0: ONE}]
    assert eigen(_u_squared_i(), {0: ONE}, {1: ONE}) == [{0: ONE}]


def test_the_s3_fixture_is_the_group_algebra_of_s3():
    # written as json.dumps(_group_algebra(S3).to_json(), indent=2, sort_keys=True)
    assert FinAlgebra.load(FIXTURES / "qi_s3.json") == _group_algebra(_GROUPS["S3"]())


def _symplectic_m2():
    """M2 with the involution e11 <-> e22, e12 -> -e12, e21 -> -e21 (the adjugate)."""
    M, zero = matrix_algebra(2), GaussRational.zero()
    images = {0: (3, ONE), 1: (1, -ONE), 2: (2, -ONE), 3: (0, ONE)}
    star = tuple(
        tuple(images[a][1] if c == images[a][0] else zero for c in range(4)) for a in range(4)
    )
    mult, unit, _ = dense(M)
    return fin_algebra(mult, unit, star, M.basis)


def test_a_corner_that_the_involution_leaves_is_split():
    # the corner is e11 (x) Pauli, and its involution lands in e22 (x) Pauli;
    # the split reads only products, so it still falls to one letter
    A = tensor_product(_symplectic_m2(), _pauli_m2())
    assert len(_corner(A)) == 4
    table, _, corner = _split_corner(A)
    assert (len(table), len(corner)) == (4, 1)
    for truncation, hc in ((4, (1, 0, 1, 0)), (7, (1, 0, 1, 0, 1, 0, 1))):
        report = _connes(A, truncation)
        assert (report.hc, report.boundary_check) == (hc, "full")
        assert hp_homology(A, truncation) == report._replace(boundary_check="separable")
    # the word bound refused T = 9 on the corner's 4 letters; the closed form admits it
    assert hp_homology(A, 9).hc == (1, 0) * 4 + (1,)


def _table_product(table, x, y):
    """x y for sparse {letter: coeff} x and y, on a product table."""
    return homology_module._combine(
        (s * t, table[a][b]) for a, s in x.items() for b, t in y.items()
    )


_SPLIT_INPUTS = {
    "Pauli": _pauli_m2,
    "Pauli 2sx": lambda: _rescaled(_pauli_m2(), [1, 2, 1, GaussRational(1, 1)]),
    "Pauli unit/2": lambda: _rescaled(_pauli_m2(), [2, 2, 1, GaussRational(1, 1)]),
    "Pauli(x)Pauli": lambda: tensor_product(_pauli_m2(), _pauli_m2()),
    **{name: (lambda name=name: _group_algebra(_GROUPS[name]())) for name in _GROUPS},
    "symplectic(x)Pauli": lambda: tensor_product(_symplectic_m2(), _pauli_m2()),
}


@pytest.mark.parametrize("name", list(_SPLIT_INPUTS))
def test_split_tables_are_associative_unital_and_peirce_graded(name):
    # the package does not validate a split table as it validates a loaded
    # algebra; this checks exactly that it is one, graded by its sides
    table, side, _ = _split_corner(_SPLIT_INPUTS[name]())
    letters = [{a: ONE} for a in range(len(table))]
    for a, b, c in itertools.product(range(len(table)), repeat=3):
        left = _table_product(table, dict(table[a][b]), letters[c])
        assert left == _table_product(table, letters[a], dict(table[b][c])), (a, b, c)
    idem = _split_idempotents(side)
    unit = {e: ONE for e in idem}
    for x, (i, j) in zip(letters, side):
        assert _table_product(table, unit, x) == x == _table_product(table, x, unit)
        for k, e in enumerate(idem):
            assert _table_product(table, letters[e], x) == (x if k == i else {})
            assert _table_product(table, x, letters[e]) == (x if k == j else {})


@pytest.mark.parametrize("fault", ["halves", "twice"])
def test_refinements_that_fail_the_exact_check_are_dropped(monkeypatch, fault):
    half = GaussRational.from_rational(Fraction(1, 2))

    def wrong(A, f, w):
        # f/2 twice sums to f but is not idempotent; f twice is idempotent
        # but sums to 2 f
        scaled = {a: half * v for a, v in f.items()}
        return {"halves": [scaled, scaled], "twice": [f, f]}[fault]

    monkeypatch.setattr(blocks_module, "_eigen_idempotents", wrong)
    for A in (_pauli_m2(), _group_algebra(_GROUPS["S3"]())):
        grading = homology_module._peirce_grading(A)
        assert blocks_module.split_corner(A, _corner(A), grading) is None
    assert hp_homology(_pauli_m2(), 4).hc == (1, 0, 1, 0)


def test_idempotents_summing_to_an_idempotent_are_orthogonal(monkeypatch):
    # split_corner checks only q q = q and the sum; every refinement it
    # keeps must then be pairwise orthogonal
    kept = []
    eigen = blocks_module._eigen_idempotents

    def recorded(A, f, w):
        pieces = eigen(A, f, w)
        idempotent = all(A._mul(q.items(), q.items()) == q for q in pieces)
        total = homology_module._combine((ONE, q.items()) for q in pieces)
        if len(pieces) > 1 and idempotent and total == f:
            kept.append((A, pieces))
        return pieces

    monkeypatch.setattr(blocks_module, "_eigen_idempotents", recorded)
    for A in (_pauli_m2(), *(_group_algebra(_GROUPS[name]()) for name in ("S3", "B2", "Z/6"))):
        grading = homology_module._peirce_grading(A)
        assert blocks_module.split_corner(A, _corner(A), grading)
    assert len(kept) >= 4
    for A, pieces in kept:
        for q, r in itertools.permutations(pieces, 2):
            assert A._mul(q.items(), r.items()) == {}


# every semisimple algebra of these tests; T = 6 unless the word bound
# refuses the complex on the corner there (16^5 and 8^7 words)
_SEPARABLE = {
    **{
        name: make
        for name, make in _CORNER_CASES.items()
        if name not in ("M2(dual)", "M2(dual) reordered", "two cycle")
    },
    **_SPLIT_INPUTS,
    "C": gauss_field,
    "u^2=i": _u_squared_i,
    "skew M2": _skew_m2,
    "M2 unit/2": lambda: _rescaled(matrix_algebra(2), ["1/2", 1, 1, 1]),
    "M2 i e12": lambda: _rescaled(matrix_algebra(2), [1, I, 1, 1]),
}
_SEPARABLE_TRUNCATION = {"Pauli(x)Pauli": 3, "B2": 5}


@pytest.mark.parametrize("name", list(_SEPARABLE))
def test_closed_form_agrees_with_connes_complex_on_separable_algebras(name):
    A = _SEPARABLE[name]()
    truncation = _SEPARABLE_TRUNCATION.get(name, 6)
    closed = hp_homology(A, truncation)
    assert closed.boundary_check == "separable"
    assert _connes(A, truncation) == closed._replace(boundary_check="full")


def _truncated_polynomials(m):
    """k[x]/(x^m) in the basis 1, x, ..., x^(m-1)."""
    zero = GaussRational.zero()
    return fin_algebra(
        tuple(
            tuple(tuple(ONE if c == a + b else zero for c in range(m)) for b in range(m))
            for a in range(m)
        ),
        tuple(ONE if c == 0 else zero for c in range(m)),
        tuple(tuple(ONE if c == a else zero for c in range(m)) for a in range(m)),
        tuple(f"x^{a}" for a in range(m)),
    )


@pytest.mark.parametrize(
    "name, truncation, agrees",
    [
        ("dual", 6, True),
        ("x^3", 6, True),
        ("x^4", 5, True),
        ("dual(x)dual", 4, False),
        ("two cycle", 5, False),
    ],
)
def test_closed_form_falls_through_on_algebras_that_are_not_semisimple(name, truncation, agrees):
    A = {
        "dual": dual_numbers,
        "x^3": lambda: _truncated_polynomials(3),
        "x^4": lambda: _truncated_polynomials(4),
        "dual(x)dual": lambda: tensor_product(dual_numbers(), dual_numbers()),
        "two cycle": _two_cycle,
    }[name]()
    letters = _corner(A)
    # the trace form has a kernel, the radical, so the corner falls through
    assert homology_module._separable_hc0(A._pairs, letters) is None
    report = hp_homology(A, truncation)
    assert report == _connes(A, truncation)
    assert report.boundary_check == "full"
    # (h, 0, h, ...) with h = dim - rank of the commutators, the closed form
    # without the trace-form test, happens to hold for the truncated
    # polynomial algebras, but not for the other two
    commutators = [
        [x - y for x, y in zip(mul(A, e, f), mul(A, f, e))]
        for e, f in itertools.combinations(
            [tuple(ONE if c == a else GaussRational.zero() for c in range(A.dim)) for a in letters],
            2,
        )
    ]
    h = len(letters) - (gauss_rank(commutators) if commutators else 0)
    unchecked = tuple(0 if m % 2 else h for m in range(truncation))
    assert (report.hc == unchecked) is agrees


def test_the_split_runs_after_the_size_guards_on_corners_of_two_letters(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the corner was split")

    monkeypatch.setattr(blocks_module, "split_corner", forbidden)
    # one-letter corners skip the split
    for A in (matrix_algebra(4), gauss_field(), FinAlgebra.load(FIXTURES / "qi.json")):
        assert hp_homology(A, 4).hc == (1, 0, 1, 0)
    # admission is decided on the corner before the split, with the same
    # message; a separable corner such as Pauli M2 never reaches the split
    message = f"more than {MAX_CHAIN_WORDS} chain words of weight 0 in degree 9, on 4 of the 4"
    with pytest.raises(InputError, match=re.escape(message)):
        hp_homology(tensor_product(dual_numbers(), dual_numbers()), 9)
    assert hp_homology(_pauli_m2(), 9).hc == (1, 0) * 4 + (1,)


def test_hp_truncation_guard():
    with pytest.raises(InputError):
        hp_homology(gauss_field(), truncation=1)


def test_chain_word_guard_fires_before_the_word_tables(monkeypatch):
    def forbidden(*args):
        raise AssertionError("word table built before the size guard fired")

    monkeypatch.setattr(connes_module, "_Lookup", forbidden)
    monkeypatch.setattr(connes_module, "_necklaces", forbidden)
    # the corner cannot shrink these, and none is separable: dual numbers
    # have 2^20 words in degree 19, and their tensor square 4^10 in degree 9
    for A, truncation in (
        (dual_numbers(), 19),
        (tensor_product(dual_numbers(), dual_numbers()), 9),
        (_two_cycle(), 10),
    ):
        with pytest.raises(InputError, match=f"more than {MAX_CHAIN_WORDS} chain words"):
            hp_homology(A, truncation)
    # separable corners take the closed form before the word bound: C^2 at
    # 2^20 words and Pauli M2 at 4^10 build no word table
    assert hp_homology(gauss_field_power(2), 19).hc == (2, 0) * 9 + (2,)
    assert hp_homology(_pauli_m2(), 9).hc == (1, 0) * 4 + (1,)
    # one word per degree never meets the word bound; the truncation bound
    # stops a dim-1 algebra, and a matrix algebra's one-letter corner, instead
    for A in (gauss_field(), matrix_algebra(4)):
        with pytest.raises(InputError, match=f"above {MAX_TRUNCATION}"):
            hp_homology(A, MAX_TRUNCATION + 1)
    # the bound counts weight-0 words only: degree 9 of the two-cycle
    # algebra holds C(20, 10) = 184,756 of its 4^10 words
    monkeypatch.setattr(
        connes_module,
        "_rank_table",
        lambda table, letters, weights, T: ((0,) * (T + 1), (0,) * (T + 1)),
    )
    assert hp_homology(_two_cycle(), 9).hc == (0,) * 9
    assert hp_homology(dual_numbers(), 18).hc == (0,) * 18
    assert hp_homology(tensor_product(dual_numbers(), dual_numbers()), 8).hc == (0,) * 8
    # a one-letter corner is separable, so only Connes' complex called
    # directly reaches the top truncation on it
    assert _connes(gauss_field(), MAX_TRUNCATION).hc == (0,) * MAX_TRUNCATION


def test_weight_zero_word_count_is_exact():
    for A, length in ((matrix_algebra(2), 5), (matrix_algebra(3), 4), (dual_numbers(), 6)):
        weights = homology_module._letter_weights(homology_module._peirce_grading(A), length)
        count = sum(1 for _ in _words(weights, length))
        assert homology_module._weight_zero_words(weights, length) == count
    grading = homology_module._peirce_grading(matrix_algebra(4))
    weights = homology_module._letter_weights(grading, 8)
    assert homology_module._weight_zero_words(weights, 7) == 4951552
    assert homology_module._weight_zero_words(weights, 8) == 65218204


def test_square_check_covers_every_cell_of_a_large_degree():
    # k[x]/(x^22) keeps all 22 letters, and degree 3 holds 58,674 cells;
    # HC of k[x]/(x^m) is (m, 0, m, 0, ...) in characteristic 0
    A = _truncated_polynomials(22)
    assert len(list(connes_module._cells((0,) * 22, 3))) == 58674
    report = hp_homology(A, 3)
    assert (report.hc, report.boundary_check) == ((22, 0, 22), "full")
    # the two-cycle algebra keeps all 4 letters, with 152 weight-0 cells
    # in degree 5; the corner of M2(C^2) is C^2, with 10 cells there
    report = hp_homology(_two_cycle(), 5)
    small = _connes(matrix_amplification(gauss_field_power(2), 2), 5)
    assert (report.hc, report.boundary_check) == ((2, 1, 2, 1, 2), "full")
    assert small.boundary_check == "full"


@pytest.mark.parametrize(
    "dims, lengths, peirce",
    [((1, 2, 3, 4), range(1, 9), False), ((4,), range(1, 9), True)],
    ids=["trivial", "M2-Peirce"],
)
def test_necklace_periods_kill_the_cells_that_rotations_kill(dims, lengths, peirce):
    # a necklace of least period p is killed in degree n exactly when n p is odd
    for dim in dims:
        for length in lengths:
            if peirce:
                grading = homology_module._peirce_grading(matrix_algebra(2))
                weights = homology_module._letter_weights(grading, length)
            else:
                weights = (0,) * dim
            n, kept = length - 1, []
            for word, p in connes_module._necklaces(weights, length):
                cell = connes_module._cell(word, dim)
                assert (n * p % 2 == 1) == (cell is None), (word, p)
                if cell is not None:
                    assert cell == (connes_module._flat(word, dim), False)
                    kept.append(word)
            assert list(connes_module._cells(weights, n)) == kept


# ---------------------------------------------------------------------------
# the two-pass reduction: a reference for `_rank_table`


def _two_pass_rank_table(A, weights, truncation):
    """(ranks, cells) of `_rank_table` on every letter of A, in two passes.

    Cells are the necklaces that `_cell` does not kill, and the square
    check of every cell rebuilds the columns of b that the rank has used,
    and those of the degree below.
    """
    dim, tables = A.dim, connes_module._int_table(A._pairs, tuple(range(A.dim)))
    classes, ranks, cells = [], [], []
    for n in range(truncation + 1):
        classes.append(connes_module._Lookup(dim))
        words = [
            word
            for word, _ in connes_module._necklaces(weights, n + 1)
            if classes[n][word] is not None
        ]
        cells.append(len(words))
        if n == 0:
            ranks.append(0)
            continue
        pivots = {}
        for word in words:
            for col in connes_module._columns(tables, n, word, classes[n - 1]):
                if col:
                    reduce_column(col, pivots)
        ranks.append(len(pivots) // (1 if tables[1] is None else 2))
        if n >= 2:
            _two_pass_square_check(tables, n, words, classes[n - 1], classes[n - 2])
    return tuple(ranks), tuple(cells)


def _two_pass_square_check(tables, n, cells, classes_prev, classes_prev2):
    dim = len(tables[0])
    shift = dim**n
    below = {}
    for word in cells:
        acc = {}
        for r, v in connes_module._columns(tables, n, word, classes_prev)[0].items():
            row = r % shift
            if row not in below:
                prev = cyclic_module._unflatten(row, dim, n)
                below[row] = connes_module._columns(tables, n - 1, prev, classes_prev2)
            for r2, v2 in below[row][r // shift].items():
                acc[r2] = acc.get(r2, 0) + v * v2
        assert not any(acc.values()), (n, word)


@pytest.mark.parametrize(
    "name, truncation, top_cells",
    [
        *(("Pauli", t, None) for t in range(2, 7)),
        ("Pauli(x)Pauli", 3, None),
        ("dual", 10, None),
        ("S3", 4, None),
        ("Z/3", 6, None),
        ("M2(C^2)", 4, None),
        # 152 weight-0 cells in degree 5
        ("two-cycle", 5, 152),
    ],
)
def test_one_pass_reduction_matches_the_two_pass_reference(name, truncation, top_cells):
    A = {
        "Pauli": _pauli_m2,
        "Pauli(x)Pauli": lambda: tensor_product(_pauli_m2(), _pauli_m2()),
        "dual": dual_numbers,
        "S3": lambda: _group_algebra(list(itertools.permutations(range(3)))),
        "Z/3": lambda: _group_algebra([(0, 1, 2), (1, 2, 0), (2, 0, 1)]),
        "M2(C^2)": lambda: matrix_amplification(gauss_field_power(2), 2),
        "two-cycle": _two_cycle,
    }[name]()
    grading = homology_module._peirce_grading(A)
    weights = homology_module._letter_weights(grading, truncation + 1)
    got = connes_module._rank_table(A._pairs, tuple(range(A.dim)), weights, truncation)
    assert got == _two_pass_rank_table(A, weights, truncation)
    assert top_cells in (None, got[1][-1])


@pytest.mark.parametrize(
    "name, truncation, target, stray",
    [
        # a stray e1 e1 e1 e1 e2, whose b is the degree-3 cell e1 e1 e1 e2
        ("two-cycle", 5, (0, 0, 3, 2, 0, 1), (0, 0, 0, 0, 1)),
        # a stray 1 1 x, whose b is x 1 = -(1 x) in degree 1; the target is
        # one of 58,674 cells, so a check of fewer cells would likely miss it
        ("x^22", 3, (0, 0, 0, 1), (0, 0, 1)),
    ],
    ids=["two-cycle", "x^22"],
)
def test_a_nonzero_b_square_is_an_internal_error(
    monkeypatch, tmp_path, name, truncation, target, stray
):
    A = {"two-cycle": _two_cycle, "x^22": lambda: _truncated_polynomials(22)}[name]()
    grading = homology_module._peirce_grading(A)
    weights = homology_module._letter_weights(grading, truncation + 1)
    assert target in connes_module._cells(weights, truncation)
    # the target's column gets the stray cell of the degree below, whose b
    # is nonzero, so b o b is nonzero on the target
    columns = connes_module._columns
    row = connes_module._flat(stray, A.dim)

    def with_stray(tables, n, word, classes):
        cols = columns(tables, n, word, classes)
        if n == truncation and word == target:
            cols[0][row] = cols[0].get(row, 0) + 1
        return cols

    monkeypatch.setattr(connes_module, "_columns", with_stray)
    message = f"b o b is nonzero at level {truncation} on word {target}"
    with pytest.raises(RuntimeError, match=re.escape(message)):
        hp_homology(A, truncation)
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(A.to_json()))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(
            ["cyclic", "hp", "--algebra", str(path), "--truncation", str(truncation)],
            standalone_mode=False,
        )
    assert code == 1
    assert json.loads(out.getvalue())["error"] == {
        "kind": "internal",
        "message": message,
        "subcommand": "cyclic hp",
    }


def test_tensor_square_of_dual_numbers_is_not_stabilized_at_four():
    A = tensor_product(dual_numbers(), dual_numbers())
    report = hp_homology(A, truncation=4)
    assert not report.stabilized
    assert report.hc == (4, 1, 5, 2)


class _Unhashable(FinAlgebra):
    """An algebra that cannot be a dict or cache key."""

    def __hash__(self):
        raise TypeError("unhashable algebra")


def test_hp_homology_keys_nothing_by_the_algebra():
    for A in (_pauli_m2(), matrix_algebra(2), _two_cycle()):
        B = _Unhashable(A.dim, A._pairs, A.unit, A._star_pairs, A.basis)
        with pytest.raises(TypeError):
            hash(B)
        assert hp_homology(B, 4) == hp_homology(A, 4)


def test_a_corner_with_real_products_is_not_realified():
    # e12 replaced by i e12: (i e12) e21 = i e11, but the corner e11 is real
    A = _rescaled(matrix_algebra(2), [1, I, 1, 1])
    grading = homology_module._peirce_grading(A)
    corner, everything = _corner(A), tuple(range(A.dim))
    assert corner == (0,)
    assert connes_module._int_table(A._pairs, corner)[1] is None
    assert connes_module._int_table(A._pairs, everything)[1] is not None
    for truncation in range(2, 6):
        realified = homology_module._hp(A, grading, everything, truncation)
        assert hp_homology(A, truncation).hc == realified.hc


def test_morita_scalars_to_two_by_two():
    verdict = morita_check(gauss_field(), 2, truncation=4)
    assert verdict["verdict"] == "pass"
    assert verdict["base"] == verdict["amplified"] == [1, 0]


def test_morita_amplified_side_is_reduced_on_every_letter(monkeypatch):
    # the corner of M_2(A) is A's, so a corner on both sides would
    # compare A's corner with itself; the base's corner takes the closed
    # form, and the amplified side Connes' complex
    corners, letters, closed = [], {}, {}
    corner, rank_table = homology_module._corner, connes_module._rank_table
    separable = homology_module._separable_hc0

    def recorded_corner(table, idem, grading):
        corners.append(len(table))
        return corner(table, idem, grading)

    def recorded_table(table, used, *args):
        letters[len(table)] = used
        return rank_table(table, used, *args)

    def recorded_closed_form(table, used):
        closed[len(table)] = used
        return separable(table, used)

    monkeypatch.setattr(homology_module, "_corner", recorded_corner)
    monkeypatch.setattr(connes_module, "_rank_table", recorded_table)
    monkeypatch.setattr(homology_module, "_separable_hc0", recorded_closed_form)
    verdict = morita_check(matrix_algebra(2), 2, truncation=4)
    assert verdict["verdict"] == "pass"
    assert corners == [4]
    assert closed == {4: (0,)}
    assert letters == {16: tuple(range(16))}


def test_morita_matrix_base_at_reduced_truncation():
    # dim-16 amplification: truncation 4 keeps this in unit-test budget
    verdict = morita_check(matrix_algebra(2), 2, truncation=4)
    assert verdict["verdict"] == "pass"
    assert verdict["base"] == [1, 0]


def test_morita_reports_unstabilized_tables():
    A = tensor_product(dual_numbers(), dual_numbers())
    verdict = morita_check(A, 2, truncation=2)
    assert verdict["verdict"] == "not stabilized"
    assert not verdict["base_stabilized"]


def test_morita_amplification_guard():
    with pytest.raises(InputError):
        morita_check(gauss_field(), 1)


# ---------------------------------------------------------------------------
# entirety


def test_entire_verdicts_for_pinned_patterns():
    assert entirety(parse_norm_pattern("finite:1,2,3"))["verdict"] == "entire"
    assert entirety(parse_norm_pattern("1/fact"))["verdict"] == "entire"
    report = entirety(parse_norm_pattern("floor-half-fact/fact"))
    assert report["verdict"] == "not-entire"
    assert report["radius"] == "1"


def test_entire_growth_extremes():
    fast = entirety(parse_norm_pattern("fact"))
    assert fast["verdict"] == "not-entire"
    assert fast["radius"] == "0"
    tame = entirety(parse_norm_pattern("2^n/fact"))
    assert tame["verdict"] == "entire"
    # at growth degree 0 the radius is 1/base, exact up to the digit limit
    report = entirety(parse_norm_pattern("floor-half-fact/fact*" + "9" * 300 + "^n"))
    assert (report["radius"], report["radius_value"]) == ("9" * 300, float(10**300 - 1))
    report = entirety(parse_norm_pattern("floor-half-fact*" + "9" * 400 + "^n/fact"))
    assert (report["radius"], report["radius_value"]) == ("1/" + "9" * 400, 0.0)


def test_norm_pattern_errors():
    with pytest.raises(InputError):
        parse_norm_pattern("fact/fact/fact")
    with pytest.raises(InputError):
        parse_norm_pattern("gamma")
    with pytest.raises(InputError):
        NormSequence("samples", values=(Fraction(1),))
