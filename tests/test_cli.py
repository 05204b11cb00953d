"""End-to-end CLI checks: schemas, determinism, exit codes, rendering."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import orbitkit
from orbitkit import cli

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
CLI = [sys.executable, "-m", "orbitkit.cli"]

REPORT_COMMANDS = [
    ["lie", "check", "--algebra", str(FIXTURES / "heisenberg.json")],
    [
        "lie",
        "strata",
        "--algebra",
        str(FIXTURES / "sl2.json"),
        "--samples",
        "200",
    ],
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
    [
        "qgroup",
        "verify",
        "--q",
        "0.5",
        "--truncation",
        "8",
        "--t-samples",
        "3",
    ],
    [
        "affine",
        "verify",
        "--l",
        "2.0",
        "--h",
        "0.25",
        "--trials",
        "20",
    ],
    ["tower", "report", "--algebra", str(FIXTURES / "heisenberg.json"), "--samples", "200"],
]


def run_cli(*args):
    return subprocess.run([*CLI, *args], capture_output=True, text=True)


def invoke(argv):
    """Run the CLI in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv, standalone_mode=False)
    return code, out.getvalue()


def load_schema(name):
    path = resources.files("orbitkit") / "schemas" / f"{name}.json"
    return json.loads(path.read_text())


def test_every_report_matches_its_schema():
    for argv in REPORT_COMMANDS:
        proc = run_cli(*argv)
        assert proc.returncode == 0, (argv, proc.stdout, proc.stderr)
        report = json.loads(proc.stdout)
        schema = load_schema(report["subcommand"].replace(" ", "_"))
        jsonschema.validate(report, schema)
        assert report["version"] == orbitkit.__version__


def test_every_boundary_check_in_the_schema_is_reported_on_a_fixture():
    # a value no shipped algebra reports is a dead entry of the enum
    result = load_schema("cyclic_hp")["properties"]["result"]["properties"]
    reported = {}
    for path in sorted(FIXTURES.glob("*.json")):
        if "mult" in json.loads(path.read_text()):
            code, output = invoke(["cyclic", "hp", "--algebra", str(path), "--truncation", "4"])
            assert code == 0, output
            reported[path.stem] = json.loads(output)["result"]["boundary_check"]
    assert (reported["m2"], reported["dual"]) == ("separable", "full")
    assert set(result["boundary_check"]["enum"]) == set(reported.values())


def test_qgroup_verify_schema_admits_the_torus_samples_the_command_admits():
    # joint_kernel_rank needs at least 3 torus samples, so a report holds 3 or more
    ranks = load_schema("qgroup_verify")["properties"]["result"]["properties"]["ranks"]
    assert ranks["properties"]["t_samples"]["minimum"] == 3
    code, output = invoke(["qgroup", "verify", "--q", "0.5", "--truncation", "8",
                           "--t-samples", "2"])
    assert code == 2, output
    code, output = invoke(["qgroup", "verify", "--q", "0.5", "--truncation", "8",
                           "--t-samples", "3"])
    assert code == 0, output
    assert json.loads(output)["result"]["ranks"]["t_samples"] == 3


def test_reports_are_byte_identical_across_runs():
    for argv in (
        ["lie", "strata", "--algebra", str(FIXTURES / "sl2.json"), "--samples", "300"],
        ["affine", "verify", "--l", "2.0", "--h", "0.25", "--trials", "10"],
        ["qgroup", "verify", "--q", "0.5", "--truncation", "8", "--t-samples", "3"],
    ):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout


def test_cyclic_hp_on_the_s3_group_algebra():
    # Burghelea: HC_2m of Q(i)[S3] counts its three conjugacy classes
    proc = run_cli("cyclic", "hp", "--algebra", str(FIXTURES / "qi_s3.json"), "--truncation", "6")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)["result"]
    assert report["hc"] == [3, 0, 3, 0, 3, 0]
    # Q(i)[S3] is semisimple (Maschke), so no complex is reduced
    assert report["boundary_check"] == "separable"


def test_seed_enters_the_digest():
    argv = ["lie", "strata", "--algebra", str(FIXTURES / "aff1.json"), "--samples", "100"]
    base = json.loads(run_cli(*argv).stdout)
    reseeded = json.loads(run_cli("--seed", "1", *argv).stdout)
    assert base["input_digest"] != reseeded["input_digest"]


# README's example: `orbitkit chern phi 3 2 3`
README_DIGEST = "5ceee56732b62dcdf7963b9dd3999916889902c45f01b97c08ac3b2b0cde52b9"


def test_input_digest_is_the_sha256_of_the_canonical_inputs():
    import hashlib

    code, output = invoke(["chern", "phi", "3", "2", "3"])
    assert code == 0, output
    text = json.dumps(
        {"inputs": {"n": 3, "k": 2, "q": 3}, "subcommand": "chern phi"},
        sort_keys=True, separators=(",", ":"),
    )
    assert json.loads(output)["input_digest"] == hashlib.sha256(text.encode()).hexdigest()
    assert json.loads(output)["input_digest"] == README_DIGEST


def test_input_digest_is_the_same_without_the_builtin_sha256():
    # with neither builtin module importable, the CLI falls back to hashlib
    code = """
import contextlib, io, json, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from orbitkit import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert cli.main(["chern", "phi", "3", "2", "3"], standalone_mode=False) == 0
print(json.loads(out.getvalue())["input_digest"], "hashlib" in sys.modules)
"""
    assert run_python(code).split() == [README_DIGEST, "True"]


SL2 = str(FIXTURES / "sl2.json")
# (allocating calls that must not be entered, argv rejected by a size guard)
SIZE_GUARDED = [
    # dual numbers are not semisimple, have no smaller corner, and have 2^20
    # words in degree 19
    (("orbitkit.connes._Lookup", "orbitkit.blocks.split_corner"),
     ["cyclic", "hp", "--algebra", str(FIXTURES / "dual.json"), "--truncation", "19"]),
    # the truncation bound fires before the closed form and the complex
    (("orbitkit.homology._separable_hc0", "orbitkit.connes._necklaces",
      "orbitkit.connes._Lookup"),
     ["cyclic", "hp", "--algebra", str(FIXTURES / "qi.json"), "--truncation", "100000"]),
    (("orbitkit.strata.SamplerConfig.draw",),
     ["lie", "strata", "--algebra", SL2, "--samples", "100000000"]),
    (("numpy.arange", "numpy.zeros"),
     ["affine", "verify", "--l", "30", "--h", "1e-7", "--trials", "1"]),
    (("numpy.zeros",), ["qgroup", "verify", "--q", "0.5", "--truncation", "100000"]),
    # the stacked-matrix guard fires before _stacked_matrix builds the diagonal
    # images and their stack, and before build_rep_su2 builds the model
    (("orbitkit.qgroup._stacked_matrix", "orbitkit.qgroup._diagonal_images",
      "orbitkit.qgroup.build_rep_su2"),
     ["qgroup", "verify", "--q", "0.5", "--truncation", "64", "--t-samples", "1000"]),
    (("orbitkit.chern.phi",), ["chern", "matrix", "--family", "SU", "--rank", "100000"]),
    (("orbitkit.liealg.LieAlgebra.from_brackets",),
     ["lie", "check", "--algebra", str(FIXTURES / "lie_dim2000.json")]),
    (("orbitkit.affine.random_aligned_element",),
     ["affine", "verify", "--l", "2", "--h", "0.25", "--trials", "100000000000"]),
    # 100,000 trials of 257 nodes each would run for about 25 s
    (("orbitkit.affine._random_functions", "orbitkit.affine.random_aligned_element"),
     ["affine", "verify", "--l", "8", "--h", "0.0625", "--trials", "100000"]),
    # 1000 trials of 600,001 nodes each would run for about 10 minutes
    (("orbitkit.affine._random_functions",),
     ["affine", "verify", "--l", "30", "--h", "1e-4", "--trials", "1000"]),
    (("orbitkit.qgroup.weyl_group",),
     ["qgroup", "reps", "--family", "A", "--rank", "2", "--t-samples", "100000000000"]),
]


# the cyclic cases' patches again, on the largest argv each guard admits:
# a patch of a binding that nothing calls would pass above without proving
# anything, so here each patched call must be entered
ADMITTED = [
    # dual numbers have 2^19 words in degree 18, exactly MAX_CHAIN_WORDS
    (("orbitkit.connes._Lookup",),
     ["cyclic", "hp", "--algebra", str(FIXTURES / "dual.json"), "--truncation", "18"]),
    (("orbitkit.homology._separable_hc0",),
     ["cyclic", "hp", "--algebra", str(FIXTURES / "qi.json"), "--truncation", "64"]),
    # C^2 is separable, so the word bound that refused it at T = 19 no longer applies
    (("orbitkit.homology._separable_hc0",),
     ["cyclic", "hp", "--algebra", str(FIXTURES / "qi2.json"), "--truncation", "19"]),
]


def _forbid(monkeypatch, targets):
    # an entered allocation raises, which exits 1 with this message
    def forbidden(*args, **kwargs):
        raise AssertionError("allocation entered before the size guard fired")

    for target in targets:
        monkeypatch.setattr(target, forbidden)


@pytest.mark.parametrize("targets, argv", SIZE_GUARDED, ids=lambda v: "-".join(v[:2]))
def test_size_guards_exit_two_before_allocating(monkeypatch, targets, argv):
    _forbid(monkeypatch, targets)
    code, output = invoke(argv)
    assert code == 2, output
    error = json.loads(output)["error"]
    assert error["kind"] == "input" and error["subcommand"] == " ".join(argv[:2])


@pytest.mark.parametrize("targets, argv", ADMITTED, ids=lambda v: "-".join(v[:2]))
def test_size_guard_patches_are_entered_under_the_bound(monkeypatch, targets, argv):
    _forbid(monkeypatch, targets)
    code, output = invoke(argv)
    assert code == 1, output
    assert json.loads(output)["error"]["message"] == (
        "AssertionError: allocation entered before the size guard fired"
    )


@pytest.mark.parametrize("name, h", [("qi2", 2), ("qi_s3", 3)])
def test_separable_algebras_are_admitted_up_to_the_truncation_bound(monkeypatch, name, h):
    # the closed form builds no word table and no split, at any admitted T
    _forbid(monkeypatch, ("orbitkit.connes._Lookup", "orbitkit.connes._necklaces",
                          "orbitkit.blocks.split_corner"))
    for truncation in (19, 64):
        argv = ["cyclic", "hp", "--algebra", str(FIXTURES / f"{name}.json"),
                "--truncation", str(truncation)]
        code, output = invoke(argv)
        assert code == 0, output
        report = json.loads(output)["result"]
        assert report["hc"] == [0 if m % 2 else h for m in range(truncation)]
        assert (report["hp0"], report["hp1"], report["stabilized"]) == (h, 0, True)
        assert report["boundary_check"] == "separable"


def test_input_errors_exit_two_with_error_object(tmp_path):
    schema = load_schema("error")
    malformed = {
        "brackets": {"dim": 2, "brackets": 5},
        "basis": {"dim": 2, "basis": 5},
        "dim": {"dim": 2.7},
        # bracket indices were read through int(), so 0.9 ran as 0 and true as 1
        "index_fraction": {"dim": 3, "brackets": [{"i": 0.9, "j": 1, "coeffs": {"2": "1"}}]},
        "index_bool": {"dim": 3, "brackets": [{"i": True, "j": 2, "coeffs": {"0": "1"}}]},
    }
    for name, algebra in malformed.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(algebra))
    # a cyclic algebra whose dim is not a JSON integer once ran as dim 2
    fractional = json.loads((FIXTURES / "qi2.json").read_text())
    fractional["dim"] = 2.7
    (tmp_path / "fractional.json").write_text(json.dumps(fractional))
    # a cyclic basis must be a list of names; 5 and null once exited 1,
    # and "ab" and [1, 2] were taken as labels
    bases = (5, None, True, 2.5, "ab", [1, 2])
    for k, basis in enumerate(bases):
        labelled = json.loads((FIXTURES / "qi2.json").read_text())
        labelled["basis"] = basis
        (tmp_path / f"basis{k}.json").write_text(json.dumps(labelled))
    # rows and trace coordinates must be JSON arrays: a row "10" once read as
    # the digits [1, 0], an object as its keys, and coords "1001" as (1, 0, 0, 1)
    not_arrays = json.loads((FIXTURES / "qi2.json").read_text())
    not_arrays["mult"][0][0] = "10"
    (tmp_path / "row_string.json").write_text(json.dumps(not_arrays))
    not_arrays = json.loads((FIXTURES / "qi2.json").read_text())
    not_arrays["star"][0] = {"1": 0, "0": 1}
    (tmp_path / "row_object.json").write_text(json.dumps(not_arrays))
    (tmp_path / "coords_string.json").write_text(json.dumps({"coords": "1001"}))
    # [X1, X3] = X3, [X1, X4] = X3, [X2, X4] = X1, [X3, X4] = X4 breaks
    # Jacobi; the stabilizer of X3* is then no subalgebra, which once exited 1
    non_jacobi = {
        "dim": 4,
        "basis": ["X1", "X2", "X3", "X4"],
        "brackets": [
            {"i": i, "j": j, "coeffs": {str(k): "1"}}
            for i, j, k in ((0, 2, 2), (0, 3, 2), (1, 3, 0), (2, 3, 3))
        ],
    }
    (tmp_path / "non_jacobi.json").write_text(json.dumps(non_jacobi))
    # the free 2-step nilpotent algebra on 10 generators (dim 55): the rows
    # of its generic 10-minor bound the expansion by 9^10 terms, and
    # expanding it once took over three minutes
    pairs = [(a, b) for a in range(10) for b in range(a + 1, 10)]
    free = {
        "dim": 55,
        "brackets": [
            {"i": a, "j": b, "coeffs": {str(10 + z): "1"}} for z, (a, b) in enumerate(pairs)
        ],
    }
    (tmp_path / "free_two_step.json").write_text(json.dumps(free))
    cases = [
        ["cyclic", "hp", "--algebra", str(FIXTURES / "does_not_exist.json")],
        ["lie", "polarize", "--algebra", str(tmp_path / "non_jacobi.json"),
         "--covector", "[0, 0, 1, 0]", "--subspace", "[[1, 0, 0, 0]]"],
        ["lie", "strata", "--algebra", str(tmp_path / "free_two_step.json"), "--samples", "1"],
        ["chern", "phi", "2", "0", "1"],
        ["affine", "verify", "--l", "1.0", "--h", "0.3", "--trials", "1"],
        ["cyclic", "entire", "--pattern", "a/b/c"],
        # the grid overflows floating point: NaN residuals must not pass
        ["affine", "verify", "--l", "12000", "--h", "1", "--trials", "2"],
        # e^L overflows, or the dilations e^(mh) leave the double range
        ["affine", "verify", "--l", "12000", "--h", "4000"],
        ["affine", "verify", "--l", "8000", "--h", "400"],
        # a count below 1 would report a pass built from no samples
        ["affine", "verify", "--l", "2.0", "--h", "0.25", "--trials", "0"],
        ["affine", "verify", "--l", "2.0", "--h", "0.25", "--trials", "-1"],
        # the value would pass Python's 4300-digit limit for str(int)
        ["chern", "phi", "3", "2", "20000"],
        # size guards, each checked before its allocation
        *(argv for _, argv in SIZE_GUARDED),
        # a non-list basis or brackets, and a dim or bracket index that is not an integer
        *(["lie", "check", "--algebra", str(tmp_path / f"{name}.json")] for name in malformed),
        ["cyclic", "hp", "--algebra", str(tmp_path / "fractional.json")],
        *(["cyclic", "hp", "--algebra", str(tmp_path / f"basis{k}.json")]
          for k in range(len(bases))),
        *(["cyclic", "hp", "--algebra", str(tmp_path / f"row_{kind}.json")]
          for kind in ("string", "object")),
        ["cyclic", "trace", "--algebra", str(FIXTURES / "m2.json"),
         "--trace", str(tmp_path / "coords_string.json")],
    ]
    for argv in cases:
        proc = run_cli(*argv)
        assert proc.returncode == 2, (argv, proc.stdout)
        payload = json.loads(proc.stdout)
        jsonschema.validate(payload, schema)
        assert payload["error"]["kind"] == "input"


HEIS = str(FIXTURES / "heisenberg.json")


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(
            ["lie", "polarize", "--algebra", HEIS, "--covector", "[0, 0", "--subspace", "[]"],
            id="polarize-json",
        ),
        pytest.param(
            ["lie", "polarize", "--algebra", HEIS, "--covector", '[0, 0, "1/0"]',
             "--subspace", "[]"],
            id="polarize-zero-denominator",
        ),
        pytest.param(
            ["lie", "polarize", "--algebra", HEIS, "--covector", "[0, 0, 1]", "--subspace", "[1]"],
            id="polarize-vector",
        ),
        # a subspace entry is an int, a string or an object with re and im
        *(
            pytest.param(
                ["lie", "polarize", "--algebra", HEIS, "--covector", "[0, 0, 1]",
                 "--subspace", f"[[{entry}, 0, 0], [0, 0, 1]]"],
                id=f"polarize-entry-{kind}",
            )
            for kind, entry in (("float", "1.5"), ("list", "[1]"), ("null", "null"))
        ),
        pytest.param(["lie", "strata", "--algebra", HEIS, "--range", "-1"], id="strata-range"),
        pytest.param(["affine", "verify", "--l", "nan", "--h", "0.25"], id="affine-nan"),
        pytest.param(["cyclic", "entire", "--pattern", "1/0"], id="entire-zero"),
        # superscript two passes str.isdigit but not int()
        pytest.param(["cyclic", "entire", "--pattern", "\u00b2"], id="entire-superscript"),
        pytest.param(["quantize", "verify", "--alpha", "1/0*dq1"], id="quantize-zero"),
        # the parser recurses once per parenthesis
        pytest.param(["quantize", "verify", "--alpha", "(" * 300 + "p1" + ")" * 300 + "*dq1"],
                     id="quantize-nesting"),
    ],
)
def test_malformed_inputs_are_input_errors(argv):
    code, output = invoke(argv)
    assert code == 2, output
    assert json.loads(output)["error"]["kind"] == "input"


# Fraction("1e100000000") builds 10**100000000, which takes minutes; an
# exponent above Python's 4300-digit int-string limit is refused first
HUGE = "1e100000000"


def test_huge_decimal_exponents_are_input_errors(tmp_path):
    algebra = json.loads((FIXTURES / "qi.json").read_text())
    algebra["unit"][0]["re"] = HUGE
    trace = json.loads((FIXTURES / "m2_trace.json").read_text())
    trace["coords"][0] = {"re": "1/2", "im": "-" + HUGE}
    lie = json.loads((FIXTURES / "heisenberg.json").read_text())
    lie["brackets"][0]["coeffs"]["2"] = HUGE
    for name, data in (("algebra", algebra), ("trace", trace), ("lie", lie)):
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    cases = [
        ["cyclic", "hp", "--algebra", str(tmp_path / "algebra.json")],
        ["cyclic", "trace", "--algebra", str(FIXTURES / "m2.json"),
         "--trace", str(tmp_path / "trace.json")],
        ["lie", "check", "--algebra", str(tmp_path / "lie.json")],
        ["lie", "polarize", "--algebra", HEIS, "--covector", f'[0, 0, "{HUGE}"]',
         "--subspace", "[[1, 0, 0], [0, 0, 1]]"],
    ]
    for argv in cases:
        proc = subprocess.run([*CLI, *argv], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, (argv, proc.stdout)
        assert json.loads(proc.stdout)["error"]["kind"] == "input"


# 5000 digits pass Python's 4300-digit int-string limit, and 3000 do not
LONG = "9" * 5000
SHORT = "9" * 3000


@pytest.mark.parametrize(
    "argv",
    [
        *(
            pytest.param(["cyclic", "entire", "--pattern", pattern], id=f"entire-{name}")
            for name, pattern in (
                ("factor", LONG),
                ("base", LONG + "^n"),
                ("denominator", "fact/" + LONG),
                ("finite", "finite:1," + LONG),
                # Fraction("1e9999999") built 10**9999999 for 9.8 s
                ("exponent", "finite:1e9999999"),
                # a radius of convergence above the float range, and one
                # past the digit limit
                ("radius", "floor-half-fact/fact*" + "9" * 400 + "^n"),
                ("radius-digits", "floor-half-fact/fact*" + "9" * 3000 + "^n*" + "9" * 3000 + "^n"),
            )
        ),
        pytest.param(["quantize", "verify", "--alpha", LONG + "*p1*dq1"], id="quantize-literal"),
        # literals under the digit limit whose product or power is past it
        # once exited 1 when the report was written
        pytest.param(["quantize", "verify", "--alpha", f"{SHORT}*{SHORT}*p1*dq1"],
                     id="quantize-product"),
        pytest.param(["quantize", "verify", "--alpha", f"({SHORT}*p1)^2*dq1"],
                     id="quantize-power"),
        # a sum with coprime denominators, and a literal whose derivatives
        # pass the limit
        pytest.param(["quantize", "verify", "--alpha",
                      f"1/{'7' * 3000}*q1*dp1 + 1/{'3' * 2999}1*p1*dq1"], id="quantize-sum"),
        pytest.param(["quantize", "verify", "--alpha", "9" * 4299 + "*p1^3*dq1"],
                     id="quantize-derivative"),
        # each power of a constant has degree 0, so nesting once ran for minutes
        pytest.param(["quantize", "verify", "--alpha", "(((((9^64)^64)^64)^64)^64)*p1*dq1"],
                     id="quantize-nested-power"),
    ],
)
def test_oversized_literals_are_prompt_input_errors(argv):
    start = time.perf_counter()
    code, output = invoke(argv)
    assert time.perf_counter() - start < 0.5
    assert code == 2, output
    jsonschema.validate(json.loads(output), load_schema("error"))
    assert json.loads(output)["error"]["kind"] == "input"


def test_quantize_writes_coefficients_under_the_digit_bound():
    # 4000 digits times the derivative factors stay under the limit
    code, output = invoke(["quantize", "verify", "--alpha", "9" * 4000 + "*p1^3*dq1",
                           "--max-degree", "2"])
    assert code == 0, output
    assert not json.loads(output)["result"]["curvature"]["passes"]


def test_cyclic_trace_has_no_samples_option():
    # positivity is decided on the Gram matrix, so there is nothing to sample
    argv = ["cyclic", "trace", "--algebra", str(FIXTURES / "m2.json"),
            "--trace", str(FIXTURES / "m2_trace.json"), "--samples", "5"]
    code, output = invoke(argv)
    assert code == 2
    jsonschema.validate(json.loads(output), load_schema("error"))
    assert json.loads(output)["error"] == {
        "kind": "input",
        # other commands take --samples, so its value is joined to it, but
        # the error shows the two words as typed
        "message": "unrecognized arguments: --samples 5",
        "subcommand": "cyclic trace",
    }


def test_unrecognized_options_are_reported_as_typed():
    # affine verify takes --trials, so "--trials 9" is joined to one word;
    # chern phi takes no options, and names both words as they were typed
    code, output = invoke(["chern", "phi", "3", "2", "2", "--trials", "9", "--trials", "-1"])
    assert code == 2
    assert json.loads(output)["error"] == {
        "kind": "input",
        "message": "unrecognized arguments: --trials 9 --trials -1",
        "subcommand": "chern phi",
    }


def test_cyclic_trace_decides_positivity_at_every_seed(tmp_path):
    # tau is normalized, tracial and faithful on C^3, but tau(e_3* e_3) < 0;
    # a sample finds that direction only when it draws x_1 = x_2 = 0
    from orbitkit.cyclic import gauss_field_power

    (tmp_path / "c3.json").write_text(json.dumps(gauss_field_power(3).to_json()))
    (tmp_path / "tau.json").write_text(json.dumps({"coords": ["1/2", "501/1000", "-1/1000"]}))
    argv = ["cyclic", "trace", "--algebra", str(tmp_path / "c3.json"),
            "--trace", str(tmp_path / "tau.json")]
    runs = [run_cli("--seed", seed, *argv) for seed in ("0", "1", "7")]
    assert all(proc.returncode == 0 and proc.stderr == "" for proc in runs)
    assert runs[0].stdout == runs[1].stdout == runs[2].stdout
    result = json.loads(runs[0].stdout)["result"]
    assert (result["normalized"], result["faithful"], result["tracial"]) == (True, True, True)
    assert (result["positive"], result["passed"]) == (False, False)
    assert result["failures"] == ["positive"]


def test_cyclic_entire_has_no_horizon_option():
    code, output = invoke(["cyclic", "entire", "--pattern", "1/fact", "--horizon", "40"])
    assert code == 2
    assert json.loads(output)["error"] == {
        "kind": "input",
        "message": "unrecognized arguments: --horizon 40",
        "subcommand": "cyclic entire",
    }


def test_entries_that_could_not_be_written_back_are_input_errors(tmp_path):
    # 10**limit passes the exponent check, but str() of it would exceed
    # Python's int-string digit limit when the report is written
    big = f"1e{sys.get_int_max_str_digits()}"
    for name, entry in (("big", big), ("float", 0.5), ("list", ["1/2"]), ("null", None)):
        trace = json.loads((FIXTURES / "m2_trace.json").read_text())
        trace["coords"][0] = entry
        (tmp_path / f"{name}.json").write_text(json.dumps(trace))
        code, output = invoke(
            ["cyclic", "trace", "--algebra", str(FIXTURES / "m2.json"),
             "--trace", str(tmp_path / f"{name}.json")]
        )
        assert code == 2, (name, output)
        assert json.loads(output)["error"]["kind"] == "input"


def test_algebra_shapes_are_checked_before_the_default_labels(monkeypatch, tmp_path):
    # 3,000,000 default labels took 1.2 s and 227 MB before the shape check
    def forbidden(*args):
        raise AssertionError("default labels built before the shape check")

    monkeypatch.setattr("orbitkit.homology._default_basis", forbidden)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dim": 10**12, "mult": [], "unit": [], "star": []}))
    code, output = invoke(["cyclic", "hp", "--algebra", str(path)])
    assert code == 2, output
    assert json.loads(output)["error"] == {
        "kind": "input",
        "message": "multiplication table must be dim x dim x dim",
        "subcommand": "cyclic hp",
    }
    # the same patch is entered once the shapes pass and no labels are given
    qi = json.loads((FIXTURES / "qi.json").read_text())
    del qi["basis"]
    path.write_text(json.dumps(qi))
    code, output = invoke(["cyclic", "hp", "--algebra", str(path)])
    assert code == 1, output
    assert "default labels built" in json.loads(output)["error"]["message"]


@pytest.mark.parametrize(
    "module, attribute, fault, argv",
    [
        ("qgroup", "build_rep_su2", MemoryError,
         ["qgroup", "verify", "--q", "0.5", "--truncation", "8"]),
        ("affine", "worst_residuals", OverflowError,
         ["affine", "verify", "--l", "12000", "--h", "4000"]),
        # a plain ValueError is an internal fault, like exactnum's "shape mismatch"
        ("exactnum", "reduce_column", ValueError,
         ["chern", "matrix", "--family", "SU", "--rank", "3"]),
    ],
)
def test_unexpected_faults_exit_one_with_error_object(monkeypatch, module, attribute, fault, argv):
    def raise_fault(*args, **kwargs):
        raise fault("simulated")

    monkeypatch.setattr(f"orbitkit.{module}.{attribute}", raise_fault)
    code, output = invoke(argv)
    assert code == 1, output
    payload = json.loads(output)
    jsonschema.validate(payload, load_schema("error"))
    assert payload["error"] == {
        "kind": "internal",
        "message": f"{fault.__name__}: simulated",
        "subcommand": " ".join(argv[:2]),
    }


def run_python(code):
    """Run ``code`` in a fresh interpreter that imports orbitkit from src; returns stdout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_cli_leaves_numpy_unloaded():
    # numpy and every other orbitkit module load only inside the
    # subcommands that use them
    lazy = ["numpy"] + [
        f"orbitkit.{name}"
        for name in (
            "affine", "blocks", "chern", "connes", "cyclic", "entire", "exactnum", "homology",
            "liealg", "qgroup", "quantize", "strata",
        )
    ]
    code = f"import sys, orbitkit.cli; print([m for m in {lazy!r} if m in sys.modules])"
    assert run_python(code).strip() == "[]"


def test_qgroup_reps_leaves_numpy_unloaded():
    # the Weyl catalog is pure Python; only the truncated model loads numpy
    argv = ["qgroup", "reps", "--family", "B", "--rank", "2", "--t-samples", "2"]
    code = (
        "import sys; from orbitkit import cli; "
        f"code = cli.main({argv!r}, standalone_mode=False); "
        "print(code, 'numpy' in sys.modules)"
    )
    assert run_python(code).splitlines()[-1] == "0 False"


def test_only_corners_of_two_letters_load_the_block_split():
    # M2's corner is one letter, and those of C^2 and Q(i)[S3] are separable,
    # so cyclic hp compiles neither orbitkit.blocks nor orbitkit.connes on
    # them; the dual numbers' corner is two letters and not separable
    code = "import contextlib, io, sys; from orbitkit import cli\n"
    for name in ("m2", "qi2", "qi_s3", "dual"):
        argv = ["cyclic", "hp", "--algebra", str(FIXTURES / f"{name}.json"), "--truncation", "3"]
        code += (
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    cli.main({argv!r}, standalone_mode=False)\n"
            "print('orbitkit.blocks' in sys.modules, 'orbitkit.connes' in sys.modules)\n"
        )
    assert run_python(code).split() == ["False"] * 6 + ["True"] * 2


@pytest.mark.parametrize(
    "argvs, loaded, absent",
    [
        # a one-letter corner (M2) and a separable one of six letters
        # (Q(i)[S3]): neither compiles Connes' complex nor the block split
        ([["cyclic", "hp", "--algebra", str(FIXTURES / f"{name}.json"), "--truncation", "3"]
          for name in ("m2", "qi_s3")],
         "orbitkit.homology",
         ("orbitkit.cyclic", "orbitkit.entire", "orbitkit.connes", "orbitkit.blocks")),
        ([["cyclic", "entire", "--pattern", "floor-half-fact/fact"]],
         "orbitkit.entire", ("orbitkit.cyclic", "orbitkit.homology")),
    ],
    ids=["hp", "entire"],
)
def test_cyclic_hp_and_entire_load_only_their_own_module(argvs, loaded, absent):
    # chains, traces and the constructors stay in orbitkit.cyclic, which
    # neither command compiles
    code = "import contextlib, io, sys; from orbitkit import cli\n"
    for argv in argvs:
        code += (
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({argv!r}, standalone_mode=False) == 0\n"
        )
    code += f"print([m for m in {[loaded, *absent]!r} if m in sys.modules])\n"
    assert run_python(code).split() == [repr([loaded])]


def test_commands_load_neither_dataclasses_nor_inspect():
    # the top-level help and one command per group (each cyclic one, as
    # they load different modules), in one interpreter:
    # the modules they add to sys.modules, measured from a snapshot so
    # that what the interpreter's site already loaded does not count.
    # numpy loads inspect itself, so affine verify and qgroup verify run
    # after numpy is in, in a second snapshot.  None of them maps OpenSSL:
    # the input digest uses the interpreter's builtin SHA-256.
    heis = str(FIXTURES / "heisenberg.json")
    argvs = [
        ["--help"],
        ["lie", "strata", "--algebra", heis, "--samples", "5"],
        ["quantize", "verify", "--alpha", "p1*dq1", "--max-degree", "1"],
        ["cyclic", "hp", "--algebra", str(FIXTURES / "qi.json"), "--truncation", "2"],
        ["cyclic", "entire", "--pattern", "floor-half-fact/fact"],
        ["cyclic", "trace", "--algebra", str(FIXTURES / "m2.json"),
         "--trace", str(FIXTURES / "m2_trace.json")],
        ["chern", "matrix", "--family", "SU", "--rank", "2"],
        ["qgroup", "reps", "--family", "A", "--rank", "1", "--t-samples", "1"],
        ["tower", "report", "--algebra", heis, "--samples", "5"],
    ]
    with_numpy = [
        ["affine", "verify", "--l", "1.0", "--h", "0.5", "--trials", "1"],
        ["qgroup", "verify", "--q", "0.5", "--truncation", "8", "--degree", "1", "--t-samples", "3"],
    ]
    code = f"""
import contextlib, io, json, sys
before = set(sys.modules)
from orbitkit import cli

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv, standalone_mode=False) == 0, argv

for argv in {argvs!r}:
    run(argv)
added = set(sys.modules) - before
import numpy
before = set(sys.modules)
for argv in {with_numpy!r}:
    run(argv)
added |= set(sys.modules) - before
print(json.dumps(sorted(added)))
"""
    added = json.loads(run_python(code))
    assert {"dataclasses", "inspect", "hashlib", "_hashlib"}.isdisjoint(added)
    modules = (
        "affine", "chern", "cyclic", "entire", "exactnum", "homology", "liealg", "qgroup",
        "quantize", "strata",
    )
    assert {f"orbitkit.{name}" for name in modules} <= set(added)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--alpha", "q1^99999999*dq1"], "a power may have degree at most 64"),
        (["--alpha", "p1*dq1", "--vars", "1000000000"], "more than 10000 monomial pairs"),
        (["--alpha", "p1*dq1", "--max-degree", "13"], "more than 10000 monomial pairs"),
    ],
)
def test_quantize_size_guards_exit_two_before_the_work(monkeypatch, argv, message):
    # the guarded work raises if it starts, which would exit 1, not 2
    def forbidden(*args, **kwargs):
        raise AssertionError("guarded work started")

    monkeypatch.setattr("orbitkit.quantize.Poly.__mul__", forbidden)
    monkeypatch.setattr("orbitkit.quantize.check_dirac_pairs", forbidden)
    t0 = time.perf_counter()
    code, output = invoke(["quantize", "verify", *argv])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2, output
    assert json.loads(output)["error"] == {
        "kind": "input",
        "message": message,
        "subcommand": "quantize verify",
    }


# the messages of the usage errors that list or name the commands: every
# group, and every command of the named group, is listed
USAGE_MESSAGES = {
    ("lie",): "the following arguments are required: COMMAND",
    ("bogus",): "argument COMMAND: invalid choice: 'bogus' (choose from 'lie', 'quantize', "
    "'cyclic', 'chern', 'qgroup', 'affine', 'tower')",
    ("lie", "bogus"): "argument COMMAND: invalid choice: 'bogus' (choose from 'check', "
    "'strata', 'polarize')",
}


@pytest.mark.parametrize(
    "argv, subcommand",
    [
        pytest.param([], "", id="bare"),
        pytest.param(["lie"], "lie", id="group-only"),
        pytest.param(["bogus"], "", id="bogus"),
        pytest.param(["lie", "bogus"], "lie", id="lie-bogus"),
        pytest.param(["lie", "check"], "lie check", id="missing-algebra"),
        pytest.param(["lie", "strata", "--algebra", SL2, "--samples", "1e3"], "lie strata",
                     id="samples-not-int"),
        pytest.param(["--format", "xml", "chern", "phi", "3", "2", "2"], "", id="format-xml"),
        # abbreviated options are rejected
        pytest.param(["cyclic", "hp", "--algebra", str(FIXTURES / "qi.json"), "--trunc", "4"],
                     "cyclic hp", id="abbreviation"),
        pytest.param(["quantize", "verify", "--alpha"], "quantize verify", id="alpha-no-value"),
        pytest.param(["chern", "phi", "3", "2", "2", "4"], "chern phi", id="extra-argument"),
        pytest.param(["--seed", "1", "chern", "phi", "3", "-1", "2"], "chern phi",
                     id="chern-phi-negative"),
        # the family lists live in chern and qgroup, which reject the rest
        pytest.param(["chern", "matrix", "--family", "Sp", "--rank", "2"], "chern matrix",
                     id="chern-matrix-Sp"),
        pytest.param(["chern", "matrix", "--family", "G2", "--rank", "2"], "chern matrix",
                     id="chern-matrix-G2"),
        pytest.param(["qgroup", "reps", "--family", "C", "--rank", "2"], "qgroup reps",
                     id="qgroup-reps-C"),
    ],
)
def test_usage_errors_exit_two_with_error_object(argv, subcommand):
    schema = load_schema("error")
    proc = run_cli(*argv)
    code, output = invoke(argv)
    assert proc.returncode == code == 2, (proc.stdout, proc.stderr)
    assert proc.stdout == output and proc.stderr == ""
    payload = json.loads(output)
    jsonschema.validate(payload, schema)
    assert payload["error"]["kind"] == "input"
    assert payload["error"]["subcommand"] == subcommand
    if tuple(argv) in USAGE_MESSAGES:
        assert payload["error"]["message"] == USAGE_MESSAGES[tuple(argv)]


def test_option_values_may_start_with_a_dash():
    # an option takes the next word as its value, whatever it looks like
    joined = run_cli("quantize", "verify", "--alpha=-q1*dp1")
    spaced = run_cli("quantize", "verify", "--alpha", "-q1*dp1")
    assert joined.returncode == spaced.returncode == 0, spaced.stdout
    assert joined.stdout == spaced.stdout
    assert json.loads(spaced.stdout)["result"]["curvature"]["passes"]


def test_the_cli_runs_without_click():
    code = (
        "import sys; sys.modules['click'] = None; from orbitkit import cli; "
        "cli.main(['chern', 'phi', '3', '2', '2'])"
    )
    assert json.loads(run_python(code))["result"] == {"value": "1"}


def test_table_format_renders_header_and_rows():
    proc = run_cli("--format", "table", "chern", "matrix", "--family", "SU", "--rank", "3")
    assert proc.returncode == 0
    assert proc.stdout.startswith("subcommand: chern matrix")
    assert "determinant: 1" in proc.stdout
    assert "x_5" in proc.stdout


def test_table_format_spells_scalars_as_json_does():
    argv = ["qgroup", "verify", "--q", "0.5", "--truncation", "8", "--t-samples", "3"]
    code, output = invoke(["--format", "table", *argv])
    assert code == 0
    rows = dict(line.split(None, 1) for line in output.split("\n\n", 1)[1].splitlines())
    assert (rows["ranks.full"], rows["ranks.largest_dropped"]) == ("true", "null")
    assert rows["character.verdict"] == "pass"
    # the JSON report is unchanged
    ranks = json.loads(invoke(argv)[1])["result"]["ranks"]
    assert (ranks["full"], ranks["largest_dropped"]) == (True, None)


def test_a_closed_stdout_exits_one_without_a_traceback():
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([*CLI, "chern", "phi", "3", "2", "2"], stdout=write,
                              stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_timing_flag_adds_wall_time():
    argv = ["chern", "phi", "3", "2", "3"]
    plain = json.loads(run_cli(*argv).stdout)
    timed = json.loads(run_cli("--timing", *argv).stdout)
    assert "wall_time" not in plain
    assert isinstance(timed["wall_time"], float)
    assert plain["result"] == timed["result"] == {"value": "-1"}


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert proc.stdout == f"orbitkit, version {orbitkit.__version__}\n"


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["-h"], ["lie", "strata", "--help"]]
    + [[group, "--help"] for group in cli.COMMANDS]
    + [[group, name, "--help"] for group, (_, names) in cli.COMMANDS.items() for name in names],
)
def test_help_exits_zero(argv):
    # only the named group's command parsers are built: the top level must
    # still list every group, and each group every one of its commands
    code, output = invoke(argv)
    assert code == 0
    assert output.startswith("usage: orbitkit")
    # argparse lists each choice at the start of a line indented by four spaces
    listed = {
        line.split()[0]
        for line in output.splitlines()
        if line.startswith("    ") and not line.startswith("     ")
    }
    if len(argv) == 1:
        assert set(cli.COMMANDS) <= listed
    elif argv[1] == "--help":
        assert set(cli.COMMANDS[argv[0]][1]) <= listed


@pytest.mark.parametrize(
    "argv, span, counter",
    [
        (["lie", "strata", "--algebra", str(FIXTURES / "sl2.json"), "--samples", "20"],
         "strata.foliation_check", None),
        (["cyclic", "hp", "--algebra", str(FIXTURES / "m2.json"), "--truncation", "4"],
         "cyclic.hp_homology", "cyclic.boundary_columns"),
        (["cyclic", "entire", "--pattern", "floor-half-fact/fact"], "cyclic.entirety", None),
        (["cyclic", "trace", "--algebra", str(FIXTURES / "m2.json"),
          "--trace", str(FIXTURES / "m2_trace.json")], "cyclic.verify_trace", None),
        (["affine", "verify", "--l", "2.0", "--h", "0.25", "--trials", "3"],
         "affine.random_aligned_element", None),
    ],
    ids=["lie-strata", "cyclic-hp", "cyclic-entire", "cyclic-trace", "affine-verify"],
)
def test_traced_benchmark_child_runs(argv, span, counter):
    # the benchmark's tracer wraps orbitkit functions by name, and fails
    # on any traced name that was renamed or removed
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "cli", "1", *argv],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout.splitlines()[-1])
    assert payload["exit"] == 0
    assert span in payload["trace"]["spans"]
    if counter:
        assert counter in payload["trace"]["counters"]
