"""Command-line interface: one executable, one subcommand per module.

Reports are deterministic by construction: sorted keys, two-space
indent, no wall time unless ``--timing`` is passed.  Identical argv and
input files therefore produce byte-identical output, which is what the
golden-file tests pin.

The commands are one table, group -> command -> (build function,
options), read by the standard library's argparse.  Every group gets a
parser, so the top-level help and the invalid-group error list them
all, but command parsers are built only for the group named by the
first word of the joined command line (see `_joined`) that does not
start with "-": no other group's can be reached.  Every exit follows
one contract: status 0 and a report, status 2 and an error object for
bad input (usage errors included), status 1 and an error object for an
internal fault.  Each build function imports the modules it needs in
its body, so importing this module loads no other orbitkit module, and
no command compiles another's modules: `cyclic hp` loads
`orbitkit.homology` and `cyclic entire` loads `orbitkit.entire`, and
neither loads `orbitkit.cyclic`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from json.encoder import encode_basestring_ascii

# The interpreter's builtin SHA-256, as random.py imports its SHA-512:
# hashlib would map OpenSSL's libcrypto, 3.5 MB of resident memory, into
# every CLI process to hash a few kilobytes.  Builds without the builtin
# hashes fall back to hashlib; every branch gives the same digest.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

from . import InputError, __version__


def _canonical(obj) -> str:
    """``json.dumps(obj, sort_keys=True, separators=(",", ":"))``, encoding each object once.

    The text of each object met is kept by its id for the length of the
    call, so a list or dict that the input holds many times, such as a
    loaded algebra's shared zero row, is encoded once.  Strings go through
    json's own string encoder, and any other scalar, and any dict key that
    is not a string, through `json.JSONEncoder` itself, errors included.
    """
    dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    done = {}

    def key(k) -> str:
        # json's own text for a key of any type: '"k"' out of '{"k":0}'
        return encode(k) if isinstance(k, str) else dumps({k: 0})[1:-3]

    def encode(x) -> str:
        text = done.get(id(x))
        if text is None:
            if isinstance(x, str):
                text = encode_basestring_ascii(x)
            elif isinstance(x, dict):
                pairs = (key(k) + ":" + encode(v) for k, v in sorted(x.items()))
                text = "{" + ",".join(pairs) + "}"
            elif isinstance(x, (list, tuple)):
                text = "[" + ",".join(map(encode, x)) + "]"
            else:
                text = dumps(x)
            done[id(x)] = text
        return text

    return encode(obj)


def _digest(inputs: dict) -> str:
    """SHA-256 of the canonical JSON of ``inputs`` (`_canonical`).

    Its cost follows the distinct objects in ``inputs``: a loaded algebra
    shares one dict per distinct coefficient and one list per distinct row,
    and each is encoded once.
    """
    return sha256(_canonical(inputs).encode("utf-8")).hexdigest()


def _scalar(v) -> str:
    """A scalar as the JSON report spells it (true, null), with strings unquoted."""
    return v if isinstance(v, str) else json.dumps(v)


def _flatten(value, prefix: str, out: list) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            sub = key if not prefix else f"{prefix}.{key}"
            _flatten(value[key], sub, out)
    elif isinstance(value, (list, tuple)):
        if all(not isinstance(v, (dict, list, tuple)) for v in value):
            out.append((prefix, ", ".join(map(_scalar, value))))
        else:
            for idx, v in enumerate(value):
                _flatten(v, f"{prefix}[{idx}]", out)
    else:
        out.append((prefix, _scalar(value)))


def _result_table(result: dict) -> str:
    pairs: list = []
    _flatten(result, "", pairs)
    width = max((len(k) for k, _ in pairs), default=0)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in pairs)


def _render(report: dict, fmt: str, table_text) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2)
    head = [
        f"subcommand: {report['subcommand']}",
        f"version:    {report['version']}",
        f"digest:     {report['input_digest']}",
    ]
    if "wall_time" in report:
        head.append(f"wall_time:  {report['wall_time']}")
    body = table_text if table_text is not None else _result_table(report["result"])
    return "\n".join(head) + "\n\n" + body


def _fail(name: str, kind: str, message: str, code: int) -> int:
    error = {"kind": kind, "message": message, "subcommand": name}
    print(json.dumps({"error": error}, sort_keys=True, indent=2))
    return code


def _finish(args) -> int:
    """Run a command's build function and emit its report with the exit contract.

    ``args.build(args)`` returns (result, inputs, table_text or None).
    The digest covers every option's value, with ``inputs`` overriding:
    the parsed content of file and JSON options, and the seed of a
    sampling command.  Input problems (InputError, and OSError from
    reading input files) exit 2 with a machine-readable error object;
    internal invariant violations and any other fault (a plain
    ValueError, MemoryError, OverflowError, ...) exit 1 with one.
    """
    name = args.command
    t0 = time.perf_counter()
    try:
        result, parsed, table_text = args.build(args)
    except (InputError, OSError) as err:
        return _fail(name, "input", str(err), 2)
    except RuntimeError as err:
        return _fail(name, "internal", str(err), 1)
    except Exception as err:
        return _fail(name, "internal", f"{type(err).__name__}: {err}", 1)
    inputs = {**{dest: getattr(args, dest) for dest in args.options}, **parsed}
    report = {
        "subcommand": name,
        "input_digest": _digest({"inputs": inputs, "subcommand": name}),
        "result": result,
        "version": __version__,
    }
    if args.timing:
        report["wall_time"] = round(time.perf_counter() - t0, 6)
    print(_render(report, args.format, table_text))
    return 0


# ---------------------------------------------------------------------------
# build functions: each returns (result, inputs, table_text or None) for
# _finish, and its docstring is the command's help


def _lie_check(args):
    """Exact Jacobi check with first violating triple on failure."""
    from .liealg import LieAlgebra, check_jacobi

    L = LieAlgebra.load(args.algebra)
    ok, witness = check_jacobi(L)
    result = {"jacobi": ok} if ok else {"jacobi": ok, "witness": list(witness)}
    return result, {"algebra": L.to_json()}, None


def _sampled_algebra(args):
    """The algebra and sampler of lie strata and tower report, and their inputs."""
    from .liealg import LieAlgebra
    from .strata import SamplerConfig

    L = LieAlgebra.load(args.algebra)
    config = SamplerConfig(seed=args.seed, samples=args.samples, coordinate_range=args.range)
    return L, config, {"algebra": L.to_json(), "seed": args.seed}


def _lie_strata(args):
    """Orbit-dimension strata with certificates and foliation checks."""
    from . import strata

    L, config, inputs = _sampled_algebra(args)
    found = strata.stratify(L, config)
    result = {
        "strata": [s.to_json() for s in found],
        "generic_rank": strata.generic_rank(L, found),
        "foliation": [strata.foliation_check(s) for s in found],
    }
    return result, inputs, None


def _lie_polarize(args):
    """Run the polarization conditions for one candidate subalgebra."""
    from .liealg import ComplexSubspace, Covector, LieAlgebra, check_polarization

    L = LieAlgebra.load(args.algebra)
    try:
        parsed = {"covector": json.loads(args.covector), "subspace": json.loads(args.subspace)}
    except json.JSONDecodeError as exc:
        raise InputError(f"--covector and --subspace must be JSON: {exc}") from None
    F = Covector.from_json(parsed["covector"])
    p = ComplexSubspace.from_json(parsed["subspace"], L.dim)
    report = check_polarization(L, F, p)
    return report.to_json(), {"algebra": L.to_json(), **parsed}, None


def _quantize_verify(args):
    """Curvature condition plus the bracket identity on all monomial pairs."""
    from . import quantize

    if args.vars < 1:
        raise InputError("need at least one conjugate pair of variables")
    if args.max_degree < 1:
        raise InputError("max degree must be at least 1")
    quantize.dirac_pair_count(args.vars, args.max_degree)  # size guard, before any model
    form = quantize.parse_one_form(args.alpha, quantize.SymplecticModel(args.vars))
    result = {
        "curvature": quantize.check_curvature(form),
        "dirac": quantize.check_dirac_pairs(form, args.max_degree),
        "max_degree": args.max_degree,
    }
    return result, {}, None


def _cyclic_hp(args):
    """Truncated periodic cyclic homology pair with stabilization flag."""
    from . import homology

    A = homology.FinAlgebra.load(args.algebra)
    report = homology.hp_homology(A, truncation=args.truncation)
    return report.to_json(), {"algebra": A.to_json()}, None


def _cyclic_entire(args):
    """Entirety verdict for a weighted norm sequence."""
    from . import entire

    sequence = entire.parse_norm_pattern(args.pattern)
    return entire.entirety(sequence), {}, None


def _cyclic_trace(args):
    """Normalization, positivity, faithfulness, and traciality report."""
    from . import cyclic

    A = cyclic.FinAlgebra.load(args.algebra)
    tau = cyclic.Trace.load(args.trace)
    return cyclic.verify_trace(A, tau), {"algebra": A.to_json(), "trace": tau.to_json()}, None


def _chern_phi(args):
    """One coefficient, exactly."""
    from .chern import phi

    return {"value": str(phi(args.n, args.k, args.q))}, {}, None


def _chern_matrix(args):
    """Chern matrix on exterior generators, determinant as exact rational."""
    from .chern import chern_matrix

    matrix = chern_matrix(args.family, args.rank)
    return matrix.to_json(), {}, _matrix_table(matrix)


def _matrix_table(matrix) -> str:
    cells = [[""] + list(matrix.col_labels)]
    for label, row in zip(matrix.row_labels, matrix.rows):
        cells.append([label] + [str(entry) for entry in row])
    widths = [max(len(r[c]) for r in cells) for c in range(len(cells[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in cells]
    det = "none" if matrix.determinant is None else str(matrix.determinant)
    lines.append(f"determinant: {det}")
    lines.append(f"rank: {matrix.matrix_rank}")
    return "\n".join(lines)


def _qgroup_reps(args):
    """Representation catalog over the Weyl group and sampled torus."""
    from .qgroup import rep_catalog

    catalog = rep_catalog(args.family, args.rank, args.t_samples)
    result = {
        "family": args.family,
        "rank": args.rank,
        "order": len(catalog) // args.t_samples,
        "t_samples": args.t_samples,
        "catalog": [d.to_json() for d in catalog],
    }
    return result, {}, None


def _qgroup_verify(args):
    """Relation residuals, character constraints, joint-kernel rank."""
    from . import qgroup

    # the rank runs first, so its size guard fires before the model is built
    ranks = qgroup.joint_kernel_rank(
        args.q, degree=args.degree, t_samples=args.t_samples, N=args.truncation
    )
    rep = qgroup.build_rep_su2(args.q, 0.0, args.truncation)
    result = {
        "residuals": qgroup.relation_residuals(rep),
        "character": qgroup.character_constraints(args.q),
        "ranks": ranks,
    }
    return result, {}, None


def _affine_verify(args):
    """Homomorphism, unitarity, and character residuals plus the index."""
    from . import affine

    result = affine.worst_residuals(affine.LogGrid(L=args.L, h=args.h), args.trials, args.seed)
    result["index"] = list(affine.index_metadata()["index"])
    return result, {"seed": args.seed}, None


def _tower_report(args):
    """Stage-by-stage tower, JSON or aligned text table."""
    from .strata import extension_tower

    L, config, inputs = _sampled_algebra(args)
    report = extension_tower(L, config)
    return report.to_json(), inputs, report.to_table()


# ---------------------------------------------------------------------------
# the command table: group -> (help, command -> (build function, options)),
# each option (names, add_argument keywords); an option's first name gives
# its key in the digest inputs, as "--L" gives "L"


def _required(*names, type=str, help=None):
    return names, {"required": True, "type": type, "help": help}


def _count(name, default, help=None):
    about = f"{help} (default {default})" if help else f"default {default}"
    return (name,), {"type": int, "default": default, "help": about}


_LIE_ALGEBRA = _required("--algebra", help="LieAlgebra JSON file.")
_FIN_ALGEBRA = _required("--algebra", help="FinAlgebra JSON file.")
_SAMPLED = [_LIE_ALGEBRA, _count("--samples", 1000), _count("--range", 3)]

COMMANDS = {
    "lie": ("Structure constants: Jacobi, stratification, polarizations.", {
        "check": (_lie_check, [_LIE_ALGEBRA]),
        "strata": (_lie_strata, _SAMPLED),
        "polarize": (_lie_polarize, [
            _LIE_ALGEBRA,
            _required("--covector", help="JSON list of rationals."),
            _required("--subspace", help='JSON list of spanning vectors; entries rationals '
                      'or {"re","im"}.'),
        ]),
    }),
    "quantize": ("Prequantization operators over a polynomial phase space.", {
        "verify": (_quantize_verify, [
            _required("--alpha", help='Potential one-form, e.g. "p1*dq1".'),
            _count("--max-degree", 3),
            _count("--vars", 1, "n for R^{2n}."),
        ]),
    }),
    "cyclic": ("Cyclic-homology truncations, traces, entirety.", {
        "hp": (_cyclic_hp, [_FIN_ALGEBRA, _count("--truncation", 6)]),
        "entire": (_cyclic_entire, [
            _required("--pattern", help='Norm pattern, e.g. "floor-half-fact/fact".'),
        ]),
        "trace": (_cyclic_trace, [_FIN_ALGEBRA, _required("--trace", help="Trace JSON file.")]),
    }),
    "chern": ("Chern-character coefficients and matrices.", {
        "phi": (_chern_phi, [((name,), {"type": int}) for name in ("n", "k", "q")]),
        "matrix": (_chern_matrix, [
            _required("--family", help="SU or SO_odd."), _required("--rank", type=int)
        ]),
    }),
    "qgroup": ("Weyl-element representation catalog and truncated operator checks.", {
        "reps": (_qgroup_reps, [
            _required("--family", help="A or B."),
            _required("--rank", type=int),
            _count("--t-samples", 4),
        ]),
        "verify": (_qgroup_verify, [
            _required("--q", type=float),
            _count("--truncation", 32, "Cutoff N."),
            _count("--degree", 2),
            _count("--t-samples", 5),
        ]),
    }),
    "affine": ("The ax+b group on the two-branch log grid.", {
        "verify": (_affine_verify, [
            _required("--L", "--l", type=float, help="Half-width L."),
            _required("--h", type=float, help="Grid step h."),
            _count("--trials", 1000),
        ]),
    }),
    "tower": ("Extension tower over the orbit stratification.", {
        "report": (_tower_report, _SAMPLED),
    }),
}

# every option that takes a value: all but --timing, --help and --version
_VALUED = {"--format", "--seed"} | {
    name
    for _, commands in COMMANDS.values()
    for _, options in commands.values()
    for names, _ in options
    for name in names
    if name.startswith("--")
}


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose every error is an error object and exit 2.

    ``command`` is the command path the parser reads ("" at the top
    level), reported as the error object's subcommand.  Abbreviated
    options are not accepted.
    """

    def __init__(self, command: str = "", **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        self.command = command

    def parse_known_args(self, args=None, namespace=None):
        # a word no option claims is reported by the parser that met it,
        # not by the top level
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras

    def error(self, message):
        self.exit(_fail(self.command, "input", message, 2))


def _parser(words) -> _Parser:
    """The parser for the joined command line ``words``."""
    named = next((word for word in words if not word.startswith("-")), None)
    parser = _Parser(
        prog="orbitkit", description="Exact tools for orbit-method and cyclic-homology checks."
    )
    parser.add_argument("--format", choices=["json", "table"], default="json",
                        help="Report rendering; json is the golden-file form.")
    parser.add_argument("--seed", type=int, default=0, help="Seed for every sampled check.")
    parser.add_argument("--timing", action="store_true",
                        help="Include wall time in the report (breaks byte-identity).")
    parser.add_argument("--version", action="version", version=f"orbitkit, version {__version__}")
    groups = parser.add_subparsers(required=True, metavar="COMMAND")
    for group, (about, commands) in COMMANDS.items():
        group_parser = groups.add_parser(group, command=group, help=about, description=about)
        if group != named:
            continue
        subcommands = group_parser.add_subparsers(required=True, metavar="COMMAND")
        for name, (build, options) in commands.items():
            path = f"{group} {name}"
            sub = subcommands.add_parser(
                name, command=path, help=build.__doc__, description=build.__doc__
            )
            dests = [sub.add_argument(*names, **spec).dest for names, spec in options]
            sub.set_defaults(build=build, command=path, options=dests)
    return parser


def _joined(words) -> list:
    """Join each value-taking option word to the next word, as "--opt=value".

    An option takes the word after it as its value, whatever that word
    looks like; argparse alone reads ``--alpha -q1*dp1`` as two options.
    """
    out, rest = [], iter(words)
    for word in rest:
        value = next(rest, None) if word in _VALUED else None
        out.append(word if value is None else f"{word}={value}")
    return out


def main(argv=None, standalone_mode: bool = True):
    """Run one command line and return its exit status.

    ``argv`` defaults to ``sys.argv[1:]``.  With ``standalone_mode`` (the
    default, for ``python -m`` and the console script) the process exits
    with the status instead of returning it.  If the reader of stdout is
    gone, the status is 1 and nothing is written to stderr.
    """
    words = _joined(sys.argv[1:] if argv is None else argv)
    try:
        try:
            args = _parser(words).parse_args(words)
        except SystemExit as stop:  # --help, --version, or a usage error's object
            code = stop.code
        else:
            code = _finish(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # as the signal module's note on SIGPIPE advises: stdout goes to
        # devnull, so that the interpreter's last flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    if standalone_mode:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
