"""Chern-character coefficients and matrices."""

from fractions import Fraction

import pytest

from orbitkit.chern import ChernMatrix, chern_matrix, phi
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
