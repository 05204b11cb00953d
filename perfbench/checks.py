"""Output checks: each is a theorem about the input, never a snapshot.

A check takes the `result` object of one CLI report and returns the list
of what is wrong with it (empty when the output is correct).  Expected
values hold for every seed, because the seed only permutes basis order
and picks samples; a wrong answer is therefore a failed operation.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path


def _expect(failures: list, ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def homology(hc: list):
    """HP of a matrix algebra over Q(i): HC_n = Q for even n, 0 for odd n
    (Morita invariance), so the truncated table is [1, 0, 1, 0, ...]."""

    def check(result: dict) -> list:
        failures = []
        _expect(failures, result["hc"] == hc, f"hc {result['hc']} != {hc}")
        _expect(failures, result["stabilized"] is True, "not stabilized")
        _expect(failures, [result["hp0"], result["hp1"]] == [1, 0], "hp pair != [1, 0]")
        return failures

    return check


def strata(allowed_dims: set, generic: int):
    """Orbit dimensions of a nilpotent-plus-abelian or aff(1) algebra lie in
    a known set, every stratum's rank certificate and foliation flags hold,
    and the sampled generic rank is the algebra's generic rank."""

    def check(result: dict) -> list:
        failures = []
        dims = {s["orbit_dimension"] for s in result["strata"]}
        _expect(failures, dims <= allowed_dims, f"strata dims {sorted(dims)}")
        _expect(
            failures,
            all(s["higher_minors_vanish"] for s in result["strata"]),
            "higher minors do not vanish",
        )
        _expect(
            failures,
            all(f["constant_rank"] and f["distribution_is_image"] for f in result["foliation"]),
            "foliation check failed",
        )
        rank = result["generic_rank"]["rank"]
        _expect(failures, rank == generic, f"generic rank {rank} != {generic}")
        return failures

    return check


def quantize(pairs: int):
    """p dq is a potential for the standard symplectic form, so the
    curvature condition and the bracket identity hold on every pair."""

    def check(result: dict) -> list:
        failures = []
        dirac = result["dirac"]
        _expect(failures, result["curvature"]["passes"] is True, "curvature fails")
        _expect(failures, dirac["pairs"] == pairs, f"{dirac['pairs']} pairs != {pairs}")
        _expect(failures, dirac["passes"] is True and not dirac["failures"], "bracket pairs fail")
        return failures

    return check


def affine(result: dict) -> list:
    """Residuals are rounding only: finite and at most 1e-12.  A NaN must
    not read as a pass, so finiteness is checked before the bound."""
    failures = []
    for key in ("homomorphism_residual", "unitarity_residual", "character_residual"):
        value = result[key]
        _expect(failures, math.isfinite(value) and value <= 1e-12, f"{key} {value!r}")
    _expect(failures, result["index"] == [1, 1], f"index {result['index']}")
    return failures


def qgroup_verify(result: dict) -> list:
    failures = []
    _expect(failures, result["ranks"]["full"] is True, "joint kernel rank not full")
    _expect(failures, result["character"]["verdict"] == "pass", "character constraints fail")
    return failures


def qgroup_reps(order: int):
    def check(result: dict) -> list:
        failures = []
        _expect(failures, result["order"] == order, f"Weyl group order {result['order']}")
        _expect(
            failures,
            all(
                (rep["dimension"] == 1) == (rep["element"]["length"] == 0)
                for rep in result["catalog"]
            ),
            "dimension dichotomy fails",
        )
        return failures

    return check


def lie_check(result: dict) -> list:
    return [] if result["jacobi"] is True else ["Jacobi identity fails"]


def polarize(result: dict) -> list:
    # span{X, Z} is a real polarization at Z^* in the Heisenberg algebra
    failures = []
    _expect(failures, result["passed"] is True, "polarization conditions fail")
    _expect(failures, result["mixed_type"] == [1, 0, 1], f"mixed type {result['mixed_type']}")
    return failures


def entire(verdict: str):
    def check(result: dict) -> list:
        return [] if result["verdict"] == verdict else [f"verdict {result['verdict']}"]

    return check


def trace(result: dict) -> list:
    # the normalized matrix trace satisfies every trace axiom
    keys = ("normalized", "positive", "faithful", "tracial", "passed")
    return [f"{k} is false" for k in keys if result[k] is not True]


def chern_phi(value: str):
    def check(result: dict) -> list:
        return [] if result["value"] == value else [f"phi {result['value']} != {value}"]

    return check


def chern_su3(result: dict) -> list:
    failures = []
    rows = [[Fraction(x) for x in row] for row in result["rows"]]
    want = [[Fraction(-1), Fraction(1, 2)], [Fraction(-1), Fraction(-1, 2)]]
    _expect(failures, rows == want, f"SU(3) Chern matrix {result['rows']}")
    _expect(failures, Fraction(result["determinant"]) == 1, "SU(3) determinant != 1")
    return failures


def tower(result: dict) -> list:
    # the Heisenberg algebra has one positive stratum, of dimension 2
    failures = []
    dims = [s["orbit_dimension"] for s in result["stages"]]
    _expect(failures, dims == [2], f"tower stage dims {dims}")
    _expect(failures, result["strictly_decreasing"] is True, "tower not decreasing")
    return failures


class SchemaCheck:
    """Validation of a whole report against the schema orbitkit ships."""

    def __init__(self, schema_dir: Path):
        import jsonschema

        self._validate = jsonschema.validate
        self._error = jsonschema.ValidationError
        self._dir = schema_dir
        self._schemas = {}

    def __call__(self, subcommand: str, report: dict) -> list:
        name = subcommand.replace(" ", "_")
        if name not in self._schemas:
            self._schemas[name] = json.loads((self._dir / f"{name}.json").read_text())
        try:
            self._validate(report, self._schemas[name])
        except self._error as err:
            return [f"schema {name}: {err.message}"]
        return []
