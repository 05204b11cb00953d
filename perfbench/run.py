"""orbitkit benchmark: one workload per run, from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run is one client in a closed loop: this fresh interpreter starts
orbitkit children (`python -m orbitkit.cli`, or the library loop in
child.py) one at a time, each after the previous one exits.  Children
import orbitkit from the checkout's src directory; nothing is installed.
A fresh interpreter per child also keeps `cyclic._rank_table`, which is
lru_cached, from turning a repeat into a cache hit.

Every run times SETUP_PROBES fresh interpreters that import orbitkit.cli
and load and validate the workload's inputs (setup_s).  With --trace 0 it
repeats the workload until the next repetition would end after S seconds
(it always does one) and reports end-to-end metrics: wall_s and setup_s
are medians, peak_rss_mb the largest child.  With --trace 1 it runs the
workload once untraced and once with every traced orbitkit function
wrapped in a span (tracing.py), and reports per-layer metrics.  Outputs
are checked outside the timed region; a wrong answer is a failed
operation.  The last line of standard output is one JSON object.

wall_s and setup_s are reference seconds, not raw ones.  The machine this
was tuned on (2 shared vCPUs) runs a fixed Python loop at two speeds about
1.5x apart, switching every 0.5 s to a minute, independently per vCPU, so
raw times of the same run spread by 25% from one run to the next.  The run
therefore pins itself and its children to one CPU, and a probe child on
that CPU times a fixed piece of Fraction arithmetic every 20 ms (child.py
probe).  A window's reference seconds are its raw seconds times the mean
of PROBE_REF_S / probe time inside it: the time the same work takes on a
CPU where the probe takes PROBE_REF_S.  Raw medians are printed too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import checks
import inputs

SETUP_PROBES = 7
PROBE_REF_S = 400e-6  # probe time at which one raw second is one reference second
CHAINS_PER_LEVEL = 6
RUN_LIMIT_S = 170.0  # a run must end within 180 s, whatever its children do
HERE = Path(__file__).resolve().parent


def _cli_mix(files: dict, fx: Path) -> list:
    """Acceptance criterion 10's 13 commands, then the heavier ones."""
    heis, sl2, aff1 = fx / "heisenberg.json", fx / "sl2.json", fx / "aff1.json"
    return [
        (["lie", "check", "--algebra", heis], checks.lie_check),
        (["lie", "strata", "--algebra", sl2, "--samples", "200"], checks.strata({2, 0}, 2)),
        (
            ["lie", "polarize", "--algebra", heis, "--covector", "[0, 0, 1]",
             "--subspace", "[[1, 0, 0], [0, 0, 1]]"],
            checks.polarize,
        ),
        (["quantize", "verify", "--alpha", "p1*dq1", "--max-degree", "2"], checks.quantize(36)),
        (["cyclic", "hp", "--algebra", fx / "qi.json", "--truncation", "4"],
         checks.homology([1, 0, 1, 0])),
        (["cyclic", "entire", "--pattern", "floor-half-fact/fact"], checks.entire("not-entire")),
        (["cyclic", "trace", "--algebra", fx / "m2.json", "--trace", fx / "m2_trace.json"],
         checks.trace),
        (["chern", "phi", "3", "2", "2"], checks.chern_phi("1")),
        (["chern", "matrix", "--family", "SU", "--rank", "3"], checks.chern_su3),
        (["qgroup", "reps", "--family", "A", "--rank", "2", "--t-samples", "2"],
         checks.qgroup_reps(6)),
        (["qgroup", "verify", "--q", "0.5", "--truncation", "8", "--t-samples", "3"],
         checks.qgroup_verify),
        (["affine", "verify", "--l", "2.0", "--h", "0.25", "--trials", "20"], checks.affine),
        (["tower", "report", "--algebra", heis, "--samples", "200"], checks.tower),
        (["lie", "strata", "--algebra", files["h3h3q2"], "--samples", "40"],
         checks.strata({4, 2, 0}, 4)),
        (["lie", "strata", "--algebra", aff1, "--samples", "1000"], checks.strata({2, 0}, 2)),
        (["quantize", "verify", "--vars", "2", "--max-degree", "3",
          "--alpha", "p1*dq1 + p2*dq2"], checks.quantize(1225)),
        (["affine", "verify", "--l", "8", "--h", "0.0625", "--trials", "1000"], checks.affine),
        (["qgroup", "verify", "--q", "0.5", "--truncation", "64"], checks.qgroup_verify),
    ]


# Inputs and commands per workload; why each exists is in BENCHMARK.json,
# and every run prints it.
WORKLOADS = {
    "homology": {
        "setup": lambda f, fx: [f"fin={f['m4']}"],
        "commands": lambda f, fx: [
            (["cyclic", "hp", "--algebra", f["m4"], "--truncation", "4"],
             checks.homology([1, 0, 1, 0]))
        ],
    },
    "homology-complex": {
        "setup": lambda f, fx: [f"fin={f['pauli']}"],
        "commands": lambda f, fx: [
            (["cyclic", "hp", "--algebra", f["pauli"], "--truncation", "5"],
             checks.homology([1, 0, 1, 0, 1]))
        ],
    },
    "chains": {
        "setup": lambda f, fx: [f"fin={f[n]}" for n in ("qi", "qi2", "m2")],
        "commands": None,
    },
    "cli-mix": {
        "setup": lambda f, fx: [
            f"lie={f['h3h3q2']}",
            *(f"lie={fx / n}.json" for n in ("heisenberg", "sl2", "aff1")),
            f"fin={fx / 'm2.json'}",
            f"trace={fx / 'm2_trace.json'}",
            f"fin={fx / 'qi.json'}",
        ],
        "commands": _cli_mix,
    },
}


class Run:
    """One benchmark run: the children it starts and the operations they do."""

    def __init__(self, root: Path):
        self.root = root
        self.started = time.perf_counter()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.schema = checks.SchemaCheck(root / "src" / "orbitkit" / "schemas")

    def child(self, argv: list) -> subprocess.CompletedProcess:
        left = RUN_LIMIT_S - (time.perf_counter() - self.started)
        return subprocess.run(
            [sys.executable, *map(str, argv)],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=max(left, 1.0),
        )

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 10:
            self.messages.append(message)

    def check_report(self, argv: list, code: int, stdout: str, check) -> None:
        self.attempted += 1
        label = " ".join(map(str, argv[:2]))
        if code != 0:
            self.fail(f"{label}: exit {code}")
            return
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            self.fail(f"{label}: report is not JSON")
            return
        problems = self.schema(report["subcommand"], report) + check(report["result"])
        if problems:
            self.fail(f"{label}: {'; '.join(problems)}")

    def cli_rep(self, commands: list, seed: int, traced: bool):
        """Run each command in a fresh interpreter; returns (window, traces)."""
        outputs = []
        t0 = time.perf_counter()
        for argv, _ in commands:
            full = ["--seed", str(seed), *argv]
            started = time.perf_counter_ns()
            if traced:
                proc = self.child([HERE / "child.py", "cli", "1", *full])
            else:
                proc = self.child(["-m", "orbitkit.cli", *full])
            outputs.append((proc, time.perf_counter_ns() - started))
        window = (t0, time.perf_counter())
        traces = []
        for (argv, check), (proc, child_ns) in zip(commands, outputs):
            code, stdout = proc.returncode, proc.stdout
            if traced and code == 0:
                payload = json.loads(stdout.splitlines()[-1])
                code, stdout = payload["exit"], payload["stdout"]
                trace = payload["trace"]
                # interpreter start, imports and exit: the child's wall
                # time outside orbitkit.cli.main
                trace["counters"]["cli.startup_ns"] = child_ns - trace["spans"]["cli.main"][1]
                traces.append(trace)
            self.check_report(argv, code, stdout, check)
        return window, traces

    def chains_rep(self, directory: Path, seed: int, traced: bool):
        t0 = time.perf_counter()
        proc = self.child(
            [HERE / "child.py", "chains", directory, seed, CHAINS_PER_LEVEL, int(traced)]
        )
        window = (t0, time.perf_counter())
        if proc.returncode != 0:
            self.attempted += 1
            self.fail(f"chains child exit {proc.returncode}: {proc.stderr[-300:]}")
            return window, []
        payload = json.loads(proc.stdout.splitlines()[-1])
        self.attempted += payload["attempted"]
        self.failed += payload["failed"]
        self.messages.extend(payload["messages"])
        return window, [payload["trace"]]

    def setup_probe(self, specs: list):
        t0 = time.perf_counter()
        proc = self.child([HERE / "child.py", "setup", *specs])
        window = (t0, time.perf_counter())
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr[-500:]}")
        return window, json.loads(proc.stdout.splitlines()[-1])


def _quartiles(values: list):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(traces: list, import_s: float) -> dict:
    spans, counters = {}, {}
    for t in traces:
        for name, (calls, total, own) in t["spans"].items():
            rec = spans.setdefault(name, [0, 0, 0])
            rec[0] += calls
            rec[1] += total
            rec[2] += own
        for name, value in t["counters"].items():
            counters[name] = counters.get(name, 0) + value

    def calls(*names):
        return sum(spans.get(n, (0, 0, 0))[0] for n in names)

    def secs(*names):
        return sum(spans.get(n, (0, 0, 0))[1] for n in names) / 1e9

    def self_s(prefix):
        return sum(rec[2] for n, rec in spans.items() if n.startswith(prefix)) / 1e9

    def count(name):
        return counters.get(name, 0)

    rank_s = secs("exactnum.rank", "exactnum.kernel_basis")
    drawn = count("strata.samples_drawn")
    columns = count("cyclic.boundary_columns")
    m = {
        "cli.import_s": (import_s, "s"),
        "cli.invocations": (calls("cli.main"), "count"),
        "cli.startup_s": (count("cli.startup_ns") / 1e9, "s"),
        "exactnum.rank_calls": (calls("exactnum.rank", "exactnum.kernel_basis"), "count"),
        "exactnum.rank_s": (rank_s, "s"),
        "exactnum.cols_per_s": (_ratio(count("exactnum.columns"), rank_s), "1/s"),
        "liealg.load_s": (secs("liealg.load"), "s"),
        "liealg.poisson_matrix_calls": (calls("liealg.poisson_matrix"), "count"),
        "liealg.poisson_matrix_s": (secs("liealg.poisson_matrix"), "s"),
        "liealg.check_polarization_s": (secs("liealg.check_polarization"), "s"),
        "strata.samples_drawn": (drawn, "count"),
        "strata.samples_distinct": (count("strata.samples_distinct"), "count"),
        "strata.distinct_ratio": (_ratio(count("strata.samples_distinct"), drawn), "ratio"),
        "strata.rank_calls": (count("strata.rank_calls"), "count"),
        "strata.ranks_per_sample": (_ratio(count("strata.rank_calls"), drawn), "ratio"),
        "strata.stratify_s": (secs("strata.stratify"), "s"),
        "strata.generic_rank_s": (secs("strata.generic_rank"), "s"),
        "strata.foliation_check_s": (secs("strata.foliation_check"), "s"),
        "strata.extension_tower_s": (secs("strata.extension_tower"), "s"),
        "quantize.check_dirac_calls": (calls("quantize.check_dirac"), "count"),
        "quantize.check_dirac_s": (secs("quantize.check_dirac"), "s"),
        "quantize.pairs_per_s": (
            _ratio(calls("quantize.check_dirac"), secs("quantize.check_dirac")), "1/s"),
        "cyclic.load_s": (secs("cyclic.load"), "s"),
        "cyclic.hp_homology_s": (secs("cyclic.hp_homology"), "s"),
        "cyclic.boundary_columns": (columns, "count"),
        "cyclic.pivots": (count("cyclic.pivots"), "count"),
        "cyclic.pivot_ratio": (_ratio(count("cyclic.pivots"), columns), "ratio"),
        "cyclic.columns_per_s": (_ratio(columns, secs("cyclic.hp_homology")), "1/s"),
        "cyclic.apply_operator_calls": (calls("cyclic.apply_operator"), "count"),
        "cyclic.apply_operator_s": (secs("cyclic.apply_operator"), "s"),
        "cyclic.adjoint_s": (count("cyclic.adjoint_ns") / 1e9, "s"),
        "cyclic.chain_slots": (count("cyclic.chain_slots"), "count"),
        "cyclic.chain_nnz": (count("cyclic.chain_nnz"), "count"),
        "cyclic.chain_fill": (
            _ratio(count("cyclic.chain_nnz"), count("cyclic.chain_slots")), "ratio"),
        "cyclic.chain_arith_s": (self_s("cyclic.chain_arith"), "s"),
        "chern.chern_matrix_s": (secs("chern.chern_matrix"), "s"),
        "qgroup.build_rep_su2_s": (secs("qgroup.build_rep_su2"), "s"),
        "qgroup.joint_kernel_rank_s": (secs("qgroup.joint_kernel_rank"), "s"),
        "affine.verify_homomorphism_calls": (calls("affine.verify_homomorphism"), "count"),
        "affine.verify_homomorphism_s": (secs("affine.verify_homomorphism"), "s"),
        "affine.verify_unitarity_s": (secs("affine.verify_unitarity"), "s"),
        "affine.grid_nodes": (count("affine.grid_nodes"), "count"),
    }
    for module in MODULES:
        m[f"{module}.self_s"] = (self_s(module + "."), "s")
    self_sum = sum(rec[2] for rec in spans.values()) / 1e9
    m["trace.self_sum_s"] = (self_sum, "s")
    return m


# "bench" is the chains workload's own loop; "cli" is click and report
# rendering, i.e. CLI time outside any traced library call
MODULES = ("cli", "bench", "exactnum", "liealg", "strata", "quantize", "cyclic", "chern",
           "qgroup", "affine")


def _environment(root: Path) -> dict:
    """Interpreter, numpy, CPU count, and which orbitkit source was run.

    An exported checkout has no .git, so the source is identified
    by a digest of src/ as well as by the commit when one is known.
    """
    commit = "unknown (not a git checkout)"
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "orbitkit" / "cli.py").is_file():
        print(f"no orbitkit source under {root / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    declared = json.loads((root / "BENCHMARK.json").read_text())["workloads"]
    why = next(w["why"] for w in declared if w["name"] == args.workload)
    scratch = root / ".perfbench-tmp" / f"run-{os.getpid()}"
    try:
        return measure(root, scratch, args, workload, why)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()  # only succeeds once no other run uses it
        except OSError:
            pass


def _pin_to_one_cpu() -> str:
    """Keep this run, its children and the speed probe on one CPU."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError) as err:
        return f"not pinned ({err}); reference seconds are approximate"
    return f"pinned to cpu {cpu}"


def reference_seconds(samples: list, window) -> float:
    """Work done in `window`, in seconds of a CPU on which the speed probe
    takes PROBE_REF_S: raw seconds x the mean of PROBE_REF_S / probe time,
    i.e. the integral of the CPU's relative speed over the window."""
    t0, t1 = window
    inside = [d for t, d in samples if t0 <= t <= t1]
    if not inside:  # a window shorter than the probe period
        inside = [min(samples, key=lambda s: abs(s[0] - (t0 + t1) / 2))[1]]
    return (t1 - t0) * statistics.mean(PROBE_REF_S / d for d in inside)


def measure(root: Path, scratch: Path, args, workload: dict, why: str) -> int:
    fixtures = root / "fixtures"
    print(f"workload {args.workload}: {why}")
    print(f"environment {json.dumps(_environment(root), sort_keys=True)}")
    print(f"affinity {_pin_to_one_cpu()}")
    run = Run(root)

    def rep(k: int, traced: bool):
        # repetition k rotates the seed's basis orders by k and samples
        # with a seed of its own, so no one order or draw sets the median
        rep_seed = args.seed * 1000 + k
        directory = scratch / f"rep-{k}"
        files = inputs.write_inputs(directory, args.seed, shift=k)
        if workload["commands"] is None:
            return run.chains_rep(directory, rep_seed, traced)
        return run.cli_rep(workload["commands"](files, fixtures), rep_seed, traced)

    setup_specs = workload["setup"](inputs.write_inputs(scratch / "setup", args.seed), fixtures)
    setup_windows, imports, rep_windows = [], [], []

    def setup_probe():
        window, parts = run.setup_probe(setup_specs)
        setup_windows.append(window)
        imports.append(parts["import_s"])

    speed_probe = subprocess.Popen(
        [sys.executable, HERE / "child.py", "probe"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=root,
    )
    try:
        # set-up probes before the first repetition also warm the bytecode
        # and file caches; the rest are spread between repetitions
        for _ in range(SETUP_PROBES // 2):
            setup_probe()
        t0 = time.perf_counter()
        while True:
            window, _ = rep(len(rep_windows), False)
            rep_windows.append(window)
            if len(setup_windows) < SETUP_PROBES:
                setup_probe()
            used = time.perf_counter() - t0
            longest = max(b - a for a, b in rep_windows)
            if args.trace or used + longest > args.seconds:
                break
        while len(setup_windows) < SETUP_PROBES:
            setup_probe()
        traced_window = traces = None
        if args.trace:
            traced_window, traces = rep(0, True)
    finally:
        try:
            out, _ = speed_probe.communicate(timeout=10)  # closing stdin stops it
        except subprocess.TimeoutExpired:
            speed_probe.kill()
            out, _ = speed_probe.communicate()
    samples = json.loads(out.splitlines()[-1])
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def summary(name, windows, what):
        ref = [reference_seconds(samples, w) for w in windows]
        raw = [b - a for a, b in windows]
        for label, values in ((name, ref), (f"{name} raw", raw)):
            q1, q3 = _quartiles(values)
            print(f"{label} median {statistics.median(values):.4f} s, "
                  f"quartiles {q1:.4f}..{q3:.4f} s, n={len(values)} {what}")
        return statistics.median(ref)

    wall = summary("wall_s", rep_windows, "workload runs")
    setup = summary("setup_s", setup_windows, "fresh interpreters")
    speed = statistics.mean(PROBE_REF_S / d for _, d in samples)
    print(f"speed probe: {len(samples)} samples, mean speed {speed:.3f} x the reference")
    print(f"peak_rss_mb {peak_mb:.1f} MB (largest child)")
    print(f"fail_frac {run.failed}/{run.attempted} = {_ratio(run.failed, run.attempted):.4f}")
    for message in run.messages:
        print(f"failed: {message}")

    if args.trace:
        metrics = layer_metrics(traces, statistics.median(imports))
        traced = reference_seconds(samples, traced_window)
        untraced = reference_seconds(samples, rep_windows[0])
        metrics["trace.wall_s"] = (traced_window[1] - traced_window[0], "s")
        metrics["trace.overhead_s"] = (traced - untraced, "s")
        metrics["machine.speed"] = (speed, "ratio")
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}")
        own = {mod: metrics[f"{mod}.self_s"][0] for mod in MODULES}
        self_sum, traced_wall = metrics["trace.self_sum_s"][0], metrics["trace.wall_s"][0]
        print(f"self times sum to {self_sum:.4f} s of {traced_wall:.4f} s traced wall: "
              f"{'within' if self_sum <= traced_wall else 'EXCEEDS'}")
        print(f"dominant layer by self time: {max(own, key=own.get)}")
    else:
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (setup, "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
    correct = run.failed == 0
    result = {
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
