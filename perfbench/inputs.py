"""Seeded generators for the benchmark's input files.

The algebras are written from their textbook multiplication rules, not
through orbitkit's own constructors (`matrix_amplification`,
`matrix_algebra`), so a defect there cannot make the benchmark agree with
itself.  The seed permutes the basis order of the associative algebras: it
changes the order in which orbitkit meets rows and columns, and therefore
its timing, but every answer the checks expect is invariant under a
change of basis order.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

_ZERO = {"re": "0", "im": "0"}


def _gauss(re: int, im: int = 0) -> dict:
    return {"re": str(re), "im": str(im)}


def _fin_algebra(labels, products, unit, star_of, perm: list) -> dict:
    """FinAlgebra JSON in the basis order `perm`.

    ``products[(a, b)]`` maps e_a e_b to ``{c: (re, im)}``, ``unit`` is the
    set of basis indices summing to 1, and ``star_of[a]`` is the index of
    e_a^*, in the algebra's natural basis order; natural index k lands at
    position perm[k].
    """
    dim = len(labels)
    mult = [[[_ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    for (a, b), coeffs in products.items():
        row = list(mult[perm[a]][perm[b]])
        for c, (re, im) in coeffs.items():
            row[perm[c]] = _gauss(re, im)
        mult[perm[a]][perm[b]] = row
    unit_coords = [_ZERO] * dim
    for k in unit:
        unit_coords[perm[k]] = _gauss(1)
    star = [[_ZERO] * dim for _ in range(dim)]
    for a in range(dim):
        row = list(star[perm[a]])
        row[perm[star_of[a]]] = _gauss(1)
        star[perm[a]] = row
    basis = [""] * dim
    for k, name in enumerate(labels):
        basis[perm[k]] = name
    return {"dim": dim, "basis": basis, "mult": mult, "unit": unit_coords, "star": star}


def matrix_units(m: int, perm: list) -> dict:
    """M_m over the Gaussian rationals in the matrix-unit basis e_ij.

    e_ij e_kl = delta_jk e_il, e_ij^* = e_ji; all structure constants are
    integers, so orbitkit takes its integer reduction path.
    """
    idx = {(i, j): i * m + j for i in range(m) for j in range(m)}
    products = {}
    for (i, j), a in idx.items():
        for (k, l), b in idx.items():
            if j == k:
                products[(a, b)] = {idx[(i, l)]: (1, 0)}
    labels = [f"e{i + 1}{j + 1}" for i in range(m) for j in range(m)]
    return _fin_algebra(
        labels,
        products,
        [idx[(i, i)] for i in range(m)],
        {idx[(i, j)]: idx[(j, i)] for i in range(m) for j in range(m)},
        perm,
    )


def pauli_m2(perm: list) -> dict:
    """M_2 in the Pauli basis 1, sx, sy, sz with sx sy = i sz (cyclically).

    The imaginary structure constants send orbitkit down its realified
    Gaussian-rational path; every basis element is self-adjoint.
    """
    products = {}
    for a in range(4):
        products[(0, a)] = {a: (1, 0)}
        products[(a, 0)] = {a: (1, 0)}
        if a:
            products[(a, a)] = {0: (1, 0)}
    for x, y, z in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        products[(x, y)] = {z: (0, 1)}
        products[(y, x)] = {z: (0, -1)}
    return _fin_algebra(["1", "sx", "sy", "sz"], products, [0], {a: a for a in range(4)}, perm)


def scalar_power(k: int, perm: list) -> dict:
    """The commutative algebra C^k spanned by k orthogonal idempotents."""
    products = {(a, a): {a: (1, 0)} for a in range(k)}
    return _fin_algebra(
        [f"p{a + 1}" for a in range(k)], products, range(k), {a: a for a in range(k)}, perm
    )


def h3_h3_q2() -> dict:
    """LieAlgebra JSON of h3 + h3 + Q^2 (dim 8) in its natural basis order.

    Brackets [X1, Y1] = Z1 and [X2, Y2] = Z2; everything else commutes.
    Orbit dimensions are 4 where Z1 and Z2 are both nonzero on the
    covector, 2 where exactly one is, and 0 otherwise.  The basis order is
    not permuted: the cofactor minor certificates of `lie strata` cost
    from 3 s to 6 s at 40 samples depending on it, which would make one
    run's figure a property of its seed rather than of the code.
    """
    return {
        "dim": 8,
        "basis": ["X1", "Y1", "Z1", "X2", "Y2", "Z2", "T1", "T2"],
        "brackets": [
            {"i": 0, "j": 1, "coeffs": {"2": "1"}},
            {"i": 3, "j": 4, "coeffs": {"5": "1"}},
        ],
    }


def write_inputs(directory: Path, seed: int, shift: int = 0) -> dict:
    """Write every generated input and return name -> path.

    The seed draws one basis order per algebra; `shift` rotates it
    cyclically.  Repetition k of a run uses shift k, so a run's median
    spans the unit's positions: for the Pauli basis the position of 1
    alone moves `cyclic hp` by 15%.
    """
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)

    def order(dim: int) -> list:
        perm = list(range(dim))
        rng.shuffle(perm)
        return [(p + shift) % dim for p in perm]

    made = {
        "m4": matrix_units(4, order(16)),
        "pauli": pauli_m2(order(4)),
        "qi": scalar_power(1, order(1)),
        "qi2": scalar_power(2, order(2)),
        "m2": matrix_units(2, order(4)),
        "h3h3q2": h3_h3_q2(),
    }
    paths = {}
    for name, data in made.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(data, sort_keys=True))
        paths[name] = path
    return paths
