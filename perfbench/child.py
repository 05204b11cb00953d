"""One fresh interpreter's share of a benchmark run.

    python perfbench/child.py setup KIND=PATH ...
        import orbitkit.cli, then load and validate each input file
        (KIND is fin, lie or trace); prints {"import_s", "load_s"}
    python perfbench/child.py cli TRACE ARG...
        run `orbitkit.cli.main(ARGs)` in-process; with TRACE = 1 the
        library calls are traced; prints {"exit", "stdout", "trace"}
    python perfbench/child.py chains DIR SEED PER_LEVEL TRACE
        check the chain operator identities on DIR/{qi,qi2,m2}.json;
        prints {"attempted", "failed", "messages", "trace"}
    python perfbench/child.py probe
        time a fixed piece of exact arithmetic every PROBE_PERIOD_S seconds
        until standard input closes; prints [[start, seconds], ...] on the
        perf_counter clock

Each mode prints one JSON object as its last line of standard output.
The parent sets PYTHONPATH to the checkout's src directory.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import select
import sys
import time
from fractions import Fraction

from tracing import Tracer

PROBE_TERMS = 60
PROBE_PERIOD_S = 0.02


def setup(specs) -> dict:
    t0 = time.perf_counter()
    import orbitkit.cli  # noqa: F401  (the import is what is timed)
    from orbitkit.cyclic import FinAlgebra, Trace
    from orbitkit.liealg import LieAlgebra

    t1 = time.perf_counter()
    loaders = {"fin": FinAlgebra.load, "lie": LieAlgebra.load, "trace": Trace.load}
    for spec in specs:
        kind, path = spec.split("=", 1)
        loaders[kind](path)
    return {"import_s": t1 - t0, "load_s": time.perf_counter() - t1}


def cli(trace: bool, argv) -> dict:
    import orbitkit.cli

    tracer = Tracer()
    if trace:
        tracer.install()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = tracer.span("cli.main", orbitkit.cli.main, argv, standalone_mode=False)
    return {"exit": code or 0, "stdout": out.getvalue(), "trace": tracer.dump()}


def chain_identities(algebras, rng: random.Random, per_level: int):
    """Acceptance criterion 3's identities plus <b x, y> = <x, b* y>.

    Yields (label, ok) per identity check; every one is a theorem about
    the cyclic bicomplex, so any False is a defect.  Functions are looked
    up on the module at call time, so traced wrappers are used.
    """
    from orbitkit import cyclic

    op = cyclic.apply_operator
    for A in algebras:
        for level in range(1, 6):
            for _ in range(per_level):
                x = cyclic.Chain.random(A, level, rng)
                lam = op("lambda", x)
                n_x = op("N", x)
                yield f"N(1-lambda)=0 level {level}", op("N", x - lam).is_zero()
                yield f"(1-lambda)N=0 level {level}", (n_x - op("lambda", n_x)).is_zero()
                bx = op("b", x - lam)
                if level >= 2:
                    bp = op("bprime", x)
                    rhs = bp - op("lambda", bp)
                else:
                    rhs = cyclic.Chain.zero(A, 0)
                yield f"b(1-lambda)=(1-lambda)b' level {level}", (bx - rhs).is_zero()
                if level >= 2:
                    yield f"b^2=0 level {level}", op("b", op("b", x)).is_zero()
                    yield f"b'^2=0 level {level}", op("bprime", op("bprime", x)).is_zero()
                y = cyclic.Chain.random(A, level - 1, rng)
                lhs = cyclic.chain_pairing(op("b", x), y)
                rhs_pair = cyclic.chain_pairing(x, op("b", y, adjoint=True))
                yield f"<bx,y>=<x,b*y> level {level}", lhs == rhs_pair


def chains(directory: str, seed: int, per_level: int, trace: bool) -> dict:
    from orbitkit import cyclic

    tracer = Tracer()
    if trace:
        tracer.install()
    algebras = [cyclic.FinAlgebra.load(f"{directory}/{n}.json") for n in ("qi", "qi2", "m2")]
    checks = chain_identities(algebras, random.Random(seed), per_level)
    results = tracer.span("bench.chains", list, checks)
    messages = [label for label, ok in results if not ok]
    return {
        "attempted": len(results),
        "failed": len(messages),
        "messages": messages[:5],
        "trace": tracer.dump(),
    }


def probe() -> list:
    """Speed samples of the CPU this process shares with the workload.

    Every PROBE_PERIOD_S it times PROBE_TERMS Fraction products summed into
    a dict (0.4 to 0.65 ms on a 2-vCPU x86_64 host, 2 to 3% of the CPU).
    That is the kind of work orbitkit's exact kernels do, so its speed
    tracks theirs: over repetitions of the chains workload whose raw time
    varied by 19%, this probe explained all but 2% of it, where a plain
    integer loop left 5%.
    """
    samples = []
    while not select.select([sys.stdin], [], [], PROBE_PERIOD_S)[0]:
        t0 = time.perf_counter()
        acc = {}
        for i in range(PROBE_TERMS):
            k = (i * 7919) % 61
            acc[k] = acc.get(k, 0) + Fraction(i, 7) * Fraction(3, i + 1)
        samples.append((t0, time.perf_counter() - t0))
    return samples


def main(argv) -> int:
    mode = argv[0]
    if mode == "setup":
        result = setup(argv[1:])
    elif mode == "cli":
        result = cli(argv[1] == "1", argv[2:])
    elif mode == "chains":
        result = chains(argv[1], int(argv[2]), int(argv[3]), argv[4] == "1")
    elif mode == "probe":
        result = probe()
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
