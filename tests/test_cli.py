"""End-to-end CLI checks: schemas, determinism, exit codes, rendering."""

import json
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from click.testing import CliRunner

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


def test_seed_enters_the_digest():
    argv = ["lie", "strata", "--algebra", str(FIXTURES / "aff1.json"), "--samples", "100"]
    base = json.loads(run_cli(*argv).stdout)
    reseeded = json.loads(run_cli("--seed", "1", *argv).stdout)
    assert base["input_digest"] != reseeded["input_digest"]


SL2 = str(FIXTURES / "sl2.json")
# (allocating calls that must not be entered, argv rejected by a size guard)
SIZE_GUARDED = [
    (("orbitkit.cyclic._classes",),
     ["cyclic", "hp", "--algebra", str(FIXTURES / "m2.json"), "--truncation", "40"]),
    # dim 1: one word per degree, stopped by the truncation bound
    (("orbitkit.cyclic._necklaces", "orbitkit.cyclic._classes"),
     ["cyclic", "hp", "--algebra", str(FIXTURES / "qi.json"), "--truncation", "100000"]),
    (("orbitkit.strata.SamplerConfig.draw",),
     ["lie", "strata", "--algebra", SL2, "--samples", "100000000"]),
    (("numpy.arange", "numpy.zeros"),
     ["affine", "verify", "--l", "30", "--h", "1e-7", "--trials", "1"]),
    (("numpy.zeros",), ["qgroup", "verify", "--q", "0.5", "--truncation", "100000"]),
    (("orbitkit.qgroup._monomial_matrix", "numpy.vstack"),
     ["qgroup", "verify", "--q", "0.5", "--truncation", "64", "--t-samples", "1000"]),
    (("orbitkit.chern.phi",), ["chern", "matrix", "--family", "SU", "--rank", "100000"]),
]


@pytest.mark.parametrize("targets, argv", SIZE_GUARDED, ids=lambda v: "-".join(v[:2]))
def test_size_guards_exit_two_before_allocating(monkeypatch, targets, argv):
    # an entered allocation raises, which would exit 1, not 2
    def forbidden(*args, **kwargs):
        raise AssertionError("allocation entered before the size guard fired")

    for target in targets:
        monkeypatch.setattr(target, forbidden)
    result = CliRunner().invoke(cli.main, argv)
    assert result.exit_code == 2, result.output
    error = json.loads(result.output)["error"]
    assert error["kind"] == "input" and error["subcommand"] == " ".join(argv[:2])


def test_input_errors_exit_two_with_error_object():
    schema = load_schema("error")
    cases = [
        ["cyclic", "hp", "--algebra", str(FIXTURES / "does_not_exist.json")],
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
        *(["cyclic", "trace", "--algebra", str(FIXTURES / "m2.json"),
           "--trace", str(FIXTURES / "m2_trace.json"), "--samples", count]
          for count in ("0", "-1")),
        # the value would pass Python's 4300-digit limit for str(int)
        ["chern", "phi", "3", "2", "20000"],
        # size guards, each checked before its allocation
        *(argv for _, argv in SIZE_GUARDED),
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
        pytest.param(["lie", "strata", "--algebra", HEIS, "--range", "-1"], id="strata-range"),
        pytest.param(["affine", "verify", "--l", "nan", "--h", "0.25"], id="affine-nan"),
        pytest.param(["cyclic", "entire", "--pattern", "1/0"], id="entire-zero"),
        # superscript two passes str.isdigit but not int()
        pytest.param(["cyclic", "entire", "--pattern", "\u00b2"], id="entire-superscript"),
        pytest.param(["quantize", "verify", "--alpha", "1/0*dq1"], id="quantize-zero"),
    ],
)
def test_malformed_inputs_are_input_errors(argv):
    result = CliRunner().invoke(cli.main, argv)
    assert result.exit_code == 2, result.output
    assert json.loads(result.output)["error"]["kind"] == "input"


@pytest.mark.parametrize(
    "module, attribute, fault, argv",
    [
        ("qgroup", "build_rep_su2", MemoryError,
         ["qgroup", "verify", "--q", "0.5", "--truncation", "8"]),
        ("affine", "worst_residuals", OverflowError,
         ["affine", "verify", "--l", "12000", "--h", "4000"]),
        # a plain ValueError is an internal fault, like exactnum's "shape mismatch"
        ("exactnum", "ExactMatrix._echelon", ValueError,
         ["chern", "matrix", "--family", "SU", "--rank", "3"]),
    ],
)
def test_unexpected_faults_exit_one_with_error_object(monkeypatch, module, attribute, fault, argv):
    def raise_fault(*args, **kwargs):
        raise fault("simulated")

    monkeypatch.setattr(f"orbitkit.{module}.{attribute}", raise_fault)
    result = CliRunner().invoke(cli.main, argv)
    assert result.exit_code == 1, result.output
    payload = json.loads(result.output)
    jsonschema.validate(payload, load_schema("error"))
    assert payload["error"] == {
        "kind": "internal",
        "message": f"{fault.__name__}: simulated",
        "subcommand": " ".join(argv[:2]),
    }


def test_importing_the_cli_leaves_numpy_unloaded():
    # numpy and the modules of all but the lie and chern subcommands load
    # only inside the subcommands that use them
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    lazy = ["numpy"] + [
        f"orbitkit.{name}" for name in ("affine", "cyclic", "qgroup", "quantize", "strata")
    ]
    code = f"import sys, orbitkit.cli; print([m for m in {lazy!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
    result = CliRunner().invoke(cli.main, ["quantize", "verify", *argv])
    assert time.perf_counter() - t0 < 1.0
    assert result.exit_code == 2, result.output
    assert json.loads(result.output)["error"] == {
        "kind": "input",
        "message": message,
        "subcommand": "quantize verify",
    }


def test_unknown_subcommand_is_a_usage_error():
    proc = run_cli("bogus")
    assert proc.returncode == 2


def test_unsupported_chern_families_are_usage_errors():
    for family in ("Sp", "G2"):
        argv = ["chern", "matrix", "--family", family, "--rank", "2"]
        result = CliRunner().invoke(cli.main, argv)
        assert result.exit_code == 2
        assert "Invalid value for '--family'" in result.output


def test_table_format_renders_header_and_rows():
    proc = run_cli("--format", "table", "chern", "matrix", "--family", "SU", "--rank", "3")
    assert proc.returncode == 0
    assert proc.stdout.startswith("subcommand: chern matrix")
    assert "determinant: 1" in proc.stdout
    assert "x_5" in proc.stdout


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
    assert orbitkit.__version__ in proc.stdout


@pytest.mark.parametrize(
    "argv, span, counter",
    [
        (["lie", "strata", "--algebra", str(FIXTURES / "sl2.json"), "--samples", "20"],
         "strata.foliation_check", None),
        (["cyclic", "hp", "--algebra", str(FIXTURES / "m2.json"), "--truncation", "4"],
         "cyclic.hp_homology", "cyclic.boundary_columns"),
    ],
    ids=["lie-strata", "cyclic-hp"],
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
