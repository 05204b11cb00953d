"""Chern-character coefficients and matrices."""

import math
import time
from fractions import Fraction
from math import comb

import pytest

from orbitkit.chern import FAMILIES, MAX_PHI_BITS, MAX_RANK, chern_matrix, phi
from orbitkit.liealg import InputError


def test_phi_column_one_is_always_one():
    assert all(phi(n, 1, q) == 1 for n in range(13) for q in range(1, 9))


def test_phi_pinned_values():
    assert phi(3, 2, 2) == 1
    assert phi(3, 2, 3) == -1
    assert phi(5, 2, 2) == 3
    assert phi(5, 2, 4) == -3


def test_phi_guards():
    for bad in ((-1, 1, 1), (2, 0, 1), (2, 1, 0)):
        with pytest.raises(InputError):
            phi(*bad)


def test_phi_sums_only_the_nonzero_binomials():
    def full_sum(n, k, q):
        return sum((-1) ** (i - 1) * comb(n, k - i) * i ** (q - 1) for i in range(1, k + 1))

    for n in range(7):
        for k in range(1, 12):
            for q in range(1, 6):
                assert phi(n, k, q) == full_sum(n, k, q), (n, k, q)
    # an n-th difference of a polynomial of degree q - 1 < n vanishes
    t0 = time.perf_counter()
    assert phi(3, 10**8, 2) == 0
    assert time.perf_counter() - t0 < 0.1


def test_phi_size_is_bounded_before_summing(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a term was computed before the size guard fired")

    monkeypatch.setattr(math, "comb", forbidden)
    for big in ((3, 2, 20000), (10**9, 10**9, 2), (2 * MAX_PHI_BITS, MAX_PHI_BITS, 1)):
        with pytest.raises(InputError, match=f"at most {MAX_PHI_BITS} bits"):
            phi(*big)
    monkeypatch.undo()
    assert phi(10**400, 2, 3) == 10**400 - 4


def test_chern_matrix_rank_is_bounded(monkeypatch):
    monkeypatch.setattr("orbitkit.chern.phi", lambda *args: pytest.fail("matrix built"))
    for family in FAMILIES:
        with pytest.raises(InputError, match=f"at most {MAX_RANK}"):
            chern_matrix(family, MAX_RANK + 1)


def test_su2_matrix():
    cm = chern_matrix("SU", 2)
    assert cm.rows == ((Fraction(-1),),)
    assert cm.determinant == -1
    assert cm.invertible


def test_su3_matrix_and_determinant():
    cm = chern_matrix("SU", 3)
    assert cm.rows == (
        (Fraction(-1), Fraction(1, 2)),
        (Fraction(-1), Fraction(-1, 2)),
    )
    assert cm.determinant == 1 and type(cm.determinant) is Fraction
    assert cm.matrix_rank == 2


def test_su_matrices_invertible_through_rank_seven():
    for m in range(2, 8):
        cm = chern_matrix("SU", m)
        assert cm.invertible
        assert cm.matrix_rank == m - 1
        assert cm.determinant != 0


def test_su4_row_and_column_labels():
    cm = chern_matrix("SU", 4)
    assert cm.row_labels == ("beta(rho_1)", "beta(rho_2)", "beta(rho_3)")
    assert cm.col_labels == ("x_3", "x_5", "x_7")


def test_so3_matrix_is_spin_row_only():
    cm = chern_matrix("SO_odd", 1)
    assert cm.rows == ((Fraction(1),),)
    assert cm.row_labels == ("eps_3",)
    assert cm.determinant is None
    assert cm.invertible is None
    assert cm.matrix_rank == 1


def test_so5_matrix_values_and_rank():
    cm = chern_matrix("SO_odd", 2)
    assert cm.rows == (
        (Fraction(2), Fraction(-1, 3)),
        (Fraction(2), Fraction(1, 6)),
    )
    assert cm.row_labels == ("beta(lambda_1)", "eps_5")
    assert cm.col_labels == ("x_3", "x_7")
    assert cm.matrix_rank == 2


def test_so7_matrix_has_full_rank():
    cm = chern_matrix("SO_odd", 3)
    assert cm.matrix_rank == 3
    assert len(cm.rows) == 3 and len(cm.rows[0]) == 3


def test_family_and_rank_guards():
    with pytest.raises(InputError):
        chern_matrix("SU", 1)
    with pytest.raises(InputError):
        chern_matrix("SO_odd", 0)
    for family in ("G2", "Sp"):
        with pytest.raises(InputError, match="unsupported family"):
            chern_matrix(family, 2)


def test_matrix_json_is_exact_strings():
    data = chern_matrix("SU", 3).to_json()
    assert data["rows"] == [["-1", "1/2"], ["-1", "-1/2"]]
    assert data["determinant"] == "1"
    assert data["invertible"] is True
    so = chern_matrix("SO_odd", 2).to_json()
    assert so["determinant"] is None
    assert so["rows"][1] == ["2", "1/6"]
