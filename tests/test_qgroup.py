"""Weyl enumeration, representation catalog, truncated SU_q(2) model."""

import itertools
import math

import numpy as np
import pytest

from orbitkit.liealg import InputError
import orbitkit.qgroup as qgroup_module
from orbitkit.qgroup import (
    MAX_CATALOG,
    MAX_STACKED_ENTRIES,
    MAX_TRUNCATION,
    build_rep_su2,
    character_constraints,
    evaluate_word,
    joint_kernel_rank,
    pbw_monomials,
    rep_catalog,
    relation_residuals,
    weyl_group,
)


def _brute_force_length(family, rank, datum, cap):
    for length in range(cap + 1):
        for word in itertools.product(range(1, rank + 1), repeat=length):
            if evaluate_word(family, rank, word) == datum:
                return length
    raise AssertionError(f"no word of length <= {cap} reaches {datum}")


# ---------------------------------------------------------------------------
# Weyl groups


def test_a2_has_six_elements():
    group = weyl_group("A", 2)
    assert len(group) == 6
    assert group[0].is_identity()
    assert group[0].word == ()
    assert max(w.length for w in group) == 3


def test_b2_has_eight_elements():
    group = weyl_group("B", 2)
    assert len(group) == 8
    assert max(w.length for w in group) == 4


def test_data_are_distinct():
    for family, rank in (("A", 2), ("B", 2), ("A", 3)):
        group = weyl_group(family, rank)
        assert len({w.datum for w in group}) == len(group)


def test_words_are_valid_and_reduced():
    for family, rank, cap in (("A", 2, 3), ("B", 2, 4)):
        for w in weyl_group(family, rank):
            assert evaluate_word(family, rank, w.word) == w.datum
            assert len(w.word) == w.length
            assert _brute_force_length(family, rank, w.datum, cap) == w.length


def test_sorted_by_length():
    lengths = [w.length for w in weyl_group("B", 2)]
    assert lengths == sorted(lengths)


def test_weyl_group_guards():
    with pytest.raises(InputError):
        weyl_group("C", 2)
    with pytest.raises(InputError):
        weyl_group("A", 0)
    with pytest.raises(InputError):
        weyl_group("A", 7)  # 8! elements, over the enumeration guard
    # decided without taking the factorial of the rank
    with pytest.raises(InputError, match="over the 10000 guard"):
        weyl_group("A", 10**9)


def test_evaluate_word_index_guard():
    with pytest.raises(InputError):
        evaluate_word("A", 2, (1, 3))


def test_element_json_round_trip_fields():
    w = weyl_group("B", 2)[-1]
    data = w.to_json()
    assert data["family"] == "B"
    assert data["length"] == len(data["word"]) == 4
    assert tuple(data["datum"]) == w.datum


# ---------------------------------------------------------------------------
# representation catalog


def test_catalog_dimension_dichotomy():
    catalog = rep_catalog("A", 2, 3)
    assert len(catalog) == 18
    for rep in catalog:
        if rep.element.is_identity():
            assert rep.dimension == 1
        else:
            assert rep.dimension == math.inf
    assert {rep.t for rep in catalog} == {
        0.0,
        2.0 * math.pi / 3.0,
        4.0 * math.pi / 3.0,
    }


def test_catalog_json_marks_infinite_dimension():
    catalog = rep_catalog("A", 1, 1)
    kinds = {rep.to_json()["dimension"] for rep in catalog}
    assert kinds == {1, "inf"}


def test_catalog_guard(monkeypatch):
    with pytest.raises(InputError):
        rep_catalog("A", 2, 0)
    assert len(rep_catalog("A", 1, MAX_CATALOG // 2)) == MAX_CATALOG

    def forbidden(*args, **kwargs):
        raise AssertionError("group enumerated before the catalog guard fired")

    monkeypatch.setattr("orbitkit.qgroup.weyl_group", forbidden)
    for t_samples in (MAX_CATALOG // 2 + 1, 10**11):
        with pytest.raises(InputError, match=f"at most {MAX_CATALOG} entries"):
            rep_catalog("A", 1, t_samples)


# ---------------------------------------------------------------------------
# truncated model


def _dense_rep(q, t, N):
    """The oracle: a and c as dense N x N matrices, from the model's definition."""
    a = np.zeros((N, N), dtype=complex)
    a[range(N - 1), range(1, N)] = [math.sqrt(1.0 - q ** (2 * n)) for n in range(1, N)]
    c = np.diag([np.exp(1j * t) * q**n for n in range(N)]).astype(complex)
    return a, c


def _dense_residuals(q, t, N):
    """relation_residuals' report, computed on the dense matrices, one relation at a time."""
    a, c = _dense_rep(q, t, N)
    a_s, c_s, eye = a.conj().T, c.conj().T, np.eye(N, dtype=complex)
    relations = {
        "ac=qca": lambda: a @ c - q * (c @ a),
        "ac*=qc*a": lambda: a @ c_s - q * (c_s @ a),
        "cc*=c*c": lambda: c @ c_s - c_s @ c,
        "a*a+c*c=1": lambda: a_s @ a + c_s @ c - eye,
        "aa*+q^2cc*=1": lambda: a @ a_s + q * q * (c @ c_s) - eye,
    }
    per_relation = {}
    for name, residual in relations.items():
        mat = np.abs(residual())
        per_relation[name] = {"interior": float(mat[:-1, :-1].max()), "full": float(mat.max())}
    return {
        "interior": max(r["interior"] for r in per_relation.values()),
        "boundary": max(r["full"] for r in per_relation.values()),
        "relations": per_relation,
        "N": N,
        "q": q,
        "kind": "shift",
    }


def test_build_rep_shift_matrices():
    # the two diagonals are those of the oracle's matrices, and nothing else is
    rep = build_rep_su2(0.7, 2.5, 16)
    a, c = _dense_rep(0.7, 2.5, 16)
    assert rep.w[0] == 0.0
    assert rep.w[1] == pytest.approx(math.sqrt(1.0 - 0.49))
    assert rep.w[1:].astype(complex).tolist() == np.diagonal(a, 1).tolist()
    assert np.count_nonzero(a) == 15
    assert rep.d.tolist() == np.diagonal(c).tolist()
    assert rep.d[3] == pytest.approx(0.7**3 * complex(math.cos(2.5), math.sin(2.5)))
    assert np.count_nonzero(c - np.diag(rep.d)) == 0


def test_build_rep_guards():
    for q in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(InputError):
            build_rep_su2(q, 0.0, 16)
    with pytest.raises(InputError):
        build_rep_su2(0.5, 0.0, 3)


# relation_residuals per relation, (interior, full), as computed when every
# relation matrix was built before the first was read
GOLDEN_RESIDUALS = {
    (0.5, 0.0, 8): {
        "ac=qca": (0.0, 0.0),
        "ac*=qc*a": (0.0, 0.0),
        "cc*=c*c": (0.0, 0.0),
        "a*a+c*c=1": (1.1102230246251565e-16, 1.1102230246251565e-16),
        "aa*+q^2cc*=1": (1.1102230246251565e-16, 0.9999847412109375),
    },
    (0.5, 0.0, 64): {
        "ac=qca": (0.0, 0.0),
        "ac*=qc*a": (0.0, 0.0),
        "cc*=c*c": (0.0, 0.0),
        "a*a+c*c=1": (1.1102230246251565e-16, 1.1102230246251565e-16),
        "aa*+q^2cc*=1": (1.1102230246251565e-16, 1.0),
    },
    (0.5, 0.0, 256): {
        "ac=qca": (0.0, 0.0),
        "ac*=qc*a": (0.0, 0.0),
        "cc*=c*c": (0.0, 0.0),
        "a*a+c*c=1": (1.1102230246251565e-16, 1.1102230246251565e-16),
        "aa*+q^2cc*=1": (1.1102230246251565e-16, 1.0),
    },
    (0.9, 1.0, 8): {
        "ac=qca": (7.850462293418876e-17, 7.850462293418876e-17),
        "ac*=qc*a": (7.850462293418876e-17, 7.850462293418876e-17),
        "cc*=c*c": (0.0, 0.0),
        "a*a+c*c=1": (2.220446049250313e-16, 2.220446049250313e-16),
        "aa*+q^2cc*=1": (2.220446049250313e-16, 0.8146979811148158),
    },
    (0.9, 1.0, 64): {
        "ac=qca": (7.850462293418876e-17, 7.850462293418876e-17),
        "ac*=qc*a": (7.850462293418876e-17, 7.850462293418876e-17),
        "cc*=c*c": (0.0, 0.0),
        "a*a+c*c=1": (2.220446049250313e-16, 2.220446049250313e-16),
        "aa*+q^2cc*=1": (2.220446049250313e-16, 0.9999986099154762),
    },
    (0.9, 1.0, 256): {
        "ac=qca": (7.850462293418876e-17, 7.850462293418876e-17),
        "ac*=qc*a": (7.850462293418876e-17, 7.850462293418876e-17),
        "cc*=c*c": (0.0, 0.0),
        "a*a+c*c=1": (2.220446049250313e-16, 2.220446049250313e-16),
        "aa*+q^2cc*=1": (2.220446049250313e-16, 1.0),
    },
}


@pytest.mark.parametrize("q, t, N", sorted(GOLDEN_RESIDUALS))
def test_relation_residuals_match_golden_floats(q, t, N):
    report = relation_residuals(build_rep_su2(q, t, N))
    golden = GOLDEN_RESIDUALS[q, t, N]
    assert list(report["relations"]) == list(golden)
    for name, (interior, full) in golden.items():
        assert report["relations"][name] == {"interior": interior, "full": full}
    assert report["interior"] == max(i for i, _ in golden.values())
    assert report["boundary"] == max(f for _, f in golden.values())


def test_relation_residuals_allocate_under_a_megabyte():
    import tracemalloc

    tracemalloc.start()
    try:
        relation_residuals(build_rep_su2(0.5, 0.0, MAX_TRUNCATION))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a few diagonals of N entries; one dense N x N complex matrix is 16 MiB
    assert peak < 2**20, peak


def test_interior_window_drops_the_last_entry_of_each_diagonal():
    clean = relation_residuals(build_rep_su2(0.5, 0.0, 16))
    rep = build_rep_su2(0.5, 0.0, 16)
    # c's last entry reaches the last entry of the diagonal and of the superdiagonal
    rep.d[-1] += 0.5
    report = relation_residuals(rep)
    for name in ("ac=qca", "ac*=qc*a", "a*a+c*c=1", "aa*+q^2cc*=1"):
        assert report["relations"][name]["interior"] == clean["relations"][name]["interior"]
        assert report["relations"][name]["full"] > 0.1, name
    assert report["interior"] == clean["interior"]


def test_relations_hold_on_the_interior_window():
    for q in (0.3, 0.5, 0.8):
        report = relation_residuals(build_rep_su2(q, 0.0, 32))
        assert report["interior"] <= 1e-10
        # truncation cuts the last sphere relation by 1 - q^(2N)
        assert 0.9 < report["boundary"] < 1.0 + 1e-12
        assert report["relations"]["ac=qca"]["full"] <= 1e-10


def test_character_constraints_away_from_one():
    report = character_constraints(0.5)
    assert report["verdict"] == "pass"
    assert report["coefficient"] == pytest.approx(0.75)
    assert report["gamma"] == 0.0
    assert report["alpha_modulus"] == 1.0


def test_character_constraints_degenerate_at_one():
    report = character_constraints(1.0)
    assert report["verdict"] == "inconclusive"
    assert report["coefficient"] == 0.0


def test_character_constraints_guard():
    for q in (0.0, 1.2):
        with pytest.raises(InputError):
            character_constraints(q)


# ---------------------------------------------------------------------------
# joint kernel


def test_pbw_monomial_counts():
    assert len(pbw_monomials(0)) == 1
    assert len(pbw_monomials(2)) == 14
    with pytest.raises(InputError):
        pbw_monomials(-1)


def test_joint_kernel_full_rank_with_infinite_reps():
    report = joint_kernel_rank(0.5, degree=2, t_samples=5, N=16)
    assert report["full"]
    assert report["rank"] == report["monomials"] == 14
    assert report["smallest_kept"] > report["tolerance"] > 0
    assert report["largest_dropped"] is None


def test_joint_kernel_guards():
    with pytest.raises(InputError):
        joint_kernel_rank(0.5, degree=5)
    with pytest.raises(InputError):
        joint_kernel_rank(0.5, t_samples=2)


def _forbid(monkeypatch, owner, name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} reached before the size guard fired")

    monkeypatch.setattr(owner, name, fail)


def test_truncation_guard_fires_before_allocating(monkeypatch):
    _forbid(monkeypatch, np, "array")
    with pytest.raises(InputError, match=f"at most {MAX_TRUNCATION}"):
        build_rep_su2(0.5, 0.0, MAX_TRUNCATION + 1)


def test_stacked_matrix_guard_fires_before_building_reps(monkeypatch):
    # 14 monomials of degree <= 2 on diagonals 0, +-1 and +-2: each row is
    # 1000 * (64 + 2 * 63 + 2 * 62 + 1) entries wide
    assert 14 * 1000 * 315 > MAX_STACKED_ENTRIES
    _forbid(monkeypatch, qgroup_module, "build_rep_su2")
    _forbid(monkeypatch, qgroup_module, "_diagonal_images")
    with pytest.raises(InputError, match=f"more than {MAX_STACKED_ENTRIES} entries"):
        joint_kernel_rank(0.5, t_samples=1000, N=64)


def test_admission_counts_the_entries_the_stacked_matrix_allocates(monkeypatch):
    # the count is the shape _stacked_matrix allocates, on both sides of the bound
    shapes = []
    stacked = qgroup_module._stacked_matrix

    def recorded(*args):
        matrix = stacked(*args)
        shapes.append(matrix.shape)
        return matrix

    monkeypatch.setattr(qgroup_module, "_stacked_matrix", recorded)
    # degree 4: 55 monomials on 9 diagonals, 9 N - 20 columns per angle
    for N, t_samples in ((4, 2242), (1024, 4)):
        assert 55 * t_samples * (9 * N - 20 + 1) <= MAX_STACKED_ENTRIES
        joint_kernel_rank(0.5, degree=4, t_samples=t_samples, N=N)
        assert shapes.pop() == (55, t_samples * (9 * N - 20 + 1))
        with pytest.raises(InputError, match=f"more than {MAX_STACKED_ENTRIES} entries"):
            joint_kernel_rank(0.5, degree=4, t_samples=t_samples + 1, N=N)
    assert not shapes


def test_monomial_rows_depend_on_truncation_size():
    small = joint_kernel_rank(0.5, degree=1, t_samples=3, N=8)
    large = joint_kernel_rank(0.5, degree=1, t_samples=3, N=12)
    assert small["full"] and large["full"]
    assert small["N"] == 8 and large["N"] == 12


def test_joint_kernel_checks_q_and_truncation_of_the_shift_model():
    with pytest.raises(InputError, match="strictly between 0 and 1"):
        joint_kernel_rank(1.5, N=16)
    with pytest.raises(InputError, match="at least 4"):
        joint_kernel_rank(0.5, degree=4, N=1)
    with pytest.raises(InputError, match=f"at most {MAX_TRUNCATION}"):
        joint_kernel_rank(0.5, degree=0, t_samples=3, N=MAX_TRUNCATION + 1)


# ---------------------------------------------------------------------------
# dense oracles for the diagonal stacking


def _monomial_matrix(a, c, sign, j, k, l):
    """The dense image of a^j c^k c*^l (sign "+") or a*^j c^k c*^l (sign "-")."""
    shift = a if sign == "+" else a.conj().T
    c_s = c.conj().T
    out = np.eye(len(a), dtype=complex)
    for _ in range(j):
        out = out @ shift
    for _ in range(k):
        out = out @ c
    for _ in range(l):
        out = out @ c_s
    return out


def _dense_stacked(q, degree, t_samples, N):
    """Every flattened N x N image per angle, then the character values."""
    angles = [2.0 * math.pi * i / t_samples for i in range(t_samples)]
    reps = [_dense_rep(q, t, N) for t in angles]
    rows = []
    for sign, j, k, l in pbw_monomials(degree):
        images = [_monomial_matrix(a, c, sign, j, k, l).ravel() for a, c in reps]
        alphas = [np.exp(1j * t) if sign == "+" else np.exp(-1j * t) for t in angles]
        characters = [alpha**j if k == 0 and l == 0 else 0.0 for alpha in alphas]
        rows.append(np.concatenate(images + [np.array(characters, dtype=complex)]))
    return np.array(rows)


@pytest.mark.parametrize("N", [4, 5, 8, 16])
def test_diagonal_images_match_the_dense_products(N):
    monomials = pbw_monomials(4)
    for q, angles in ((0.5, [0.0, 2.0]), (0.93, [1.0, 4.5]), (1e-3, [3.0]), (1e-320, [0.7])):
        images = list(qgroup_module._diagonal_images(q, angles, N, monomials))
        for i, t in enumerate(angles):
            a, c = _dense_rep(q, t, N)
            for (sign, j, k, l), image in zip(monomials, images):
                dense = _monomial_matrix(a, c, sign, j, k, l)
                offset = j if sign == "+" else -j
                np.testing.assert_allclose(
                    image[i], np.diagonal(dense, offset), rtol=1e-14, atol=1e-300
                )
                # nothing of the dense image lies off that diagonal
                off = dense - np.diag(np.diagonal(dense, offset), offset)
                assert np.count_nonzero(off) == 0, (q, t, N, sign, j, k, l)


@pytest.mark.parametrize("N, degree, t_samples", [(4, 4, 7), (5, 3, 4), (16, 2, 3)])
def test_stack_filled_image_by_image_matches_the_stacked_image_list(N, degree, t_samples):
    # the stack laid out from every image at once, as it was built before
    # each image was written as it was made: the same array, bit for bit
    monomials = pbw_monomials(degree)
    angles = [2.0 * math.pi * i / t_samples for i in range(t_samples)]
    images = list(qgroup_module._diagonal_images(0.5, angles, N, monomials))
    blocks, width = qgroup_module._blocks(monomials, N)
    reference = np.zeros((len(monomials), t_samples, width + 1), dtype=complex)
    for row, (sign, j, k, l), image in zip(reference, monomials, images):
        row[:, blocks[sign, j] : blocks[sign, j] + N - j] = image
        for n, t in enumerate(angles if k == 0 and l == 0 else ()):
            row[n, width] = (np.exp(1j * t) if sign == "+" else np.exp(-1j * t)) ** j
    reference = reference.reshape(len(monomials), -1)
    stacked = qgroup_module._stacked_matrix(0.5, monomials, angles, N)
    assert stacked.tobytes() == reference.tobytes()
    assert (
        np.linalg.svd(stacked, compute_uv=False).tobytes()
        == np.linalg.svd(reference, compute_uv=False).tobytes()
    )


RANK_SWEEP = [
    (q, degree, t_samples, N)
    # near q = 1 - 3e-14 the a-powers' singular values fall between the
    # tolerances at the compact and at the dense width
    for q in (1e-320, 1e-8, 0.5, 0.9, 1 - 3e-14, 1 - 1e-12)
    for degree, t_samples in ((0, 3), (1, 4), (2, 3), (2, 5), (3, 7), (4, 3))
    for N in (4, 7, 16, 40)
]


def test_joint_kernel_rank_matches_the_dense_matrix_rank():
    for case in RANK_SWEEP:
        q, degree, t_samples, N = case
        dense = _dense_stacked(*case)
        report = joint_kernel_rank(*case)
        assert report["rank"] == np.linalg.matrix_rank(dense), case
        dropped = report["largest_dropped"]
        assert report["smallest_kept"] > report["tolerance"] >= (dropped or 0), case
        assert (dropped is None) == report["full"], case
        # dropping the all-zero columns keeps every singular value
        angles = [2.0 * math.pi * i / t_samples for i in range(t_samples)]
        compact = qgroup_module._stacked_matrix(q, pbw_monomials(degree), angles, N)
        assert compact.shape[1] <= t_samples * ((2 * degree + 1) * N + 1)
        top = np.linalg.svd(dense, compute_uv=False)
        np.testing.assert_allclose(
            np.linalg.svd(compact, compute_uv=False), top, rtol=0, atol=1e-12 * top.max()
        )
    # at q = 1e-320, c is e^{it} on e_0 and zero to rounding past it, and a
    # kills e_0, so a c and a c* vanish: rank 12 of 14, with the two
    # dropped singular values at rounding, far below the tolerance
    report = joint_kernel_rank(1e-320, degree=2, t_samples=5, N=64)
    assert report["rank"] == 12
    assert report["tolerance"] == pytest.approx(8.2e-11, rel=1e-2)
    assert report["smallest_kept"] == pytest.approx(2.22, rel=1e-2)
    assert report["largest_dropped"] < 1e-15


def test_joint_kernel_rank_holds_no_dense_image():
    import tracemalloc

    tracemalloc.start()
    try:
        report = joint_kernel_rank(0.5, degree=1, t_samples=3, N=1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["full"]
    # one dense 1024 x 1024 complex matrix is 16 MiB
    assert peak < 16 * 2**20 / 4, peak
