"""Command-line interface: one executable, one subcommand per module.

Reports are deterministic by construction: sorted keys, two-space
indent, no wall time unless ``--timing`` is passed.  Identical argv and
input files therefore produce byte-identical output, which is what the
golden-file tests pin.  Each subcommand imports the modules it needs
in its body; only liealg (for InputError) and chern (whose family names
a click choice reads) load at start, so no subcommand compiles another's
modules and the exact ones start without numpy.
"""

from __future__ import annotations

import hashlib
import json
import time

import click

from . import __version__
from . import chern as _chern
from .liealg import (
    ComplexSubspace,
    Covector,
    InputError,
    LieAlgebra,
    check_jacobi,
    check_polarization,
)


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _digest(inputs: dict) -> str:
    return hashlib.sha256(_canonical(inputs).encode("utf-8")).hexdigest()


def _flatten(value, prefix: str, out: list) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            sub = key if not prefix else f"{prefix}.{key}"
            _flatten(value[key], sub, out)
    elif isinstance(value, (list, tuple)):
        if all(not isinstance(v, (dict, list, tuple)) for v in value):
            out.append((prefix, ", ".join(str(v) for v in value)))
        else:
            for idx, v in enumerate(value):
                _flatten(v, f"{prefix}[{idx}]", out)
    else:
        out.append((prefix, str(value)))


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


def _fail(ctx, name: str, kind: str, message: str, code: int) -> None:
    error = {"kind": kind, "message": message, "subcommand": name}
    click.echo(json.dumps({"error": error}, sort_keys=True, indent=2))
    ctx.exit(code)


def _finish(ctx, name: str, build) -> None:
    """Run a subcommand body and emit its report with the exit contract.

    ``build`` returns (result, inputs, table_text or None).  Input
    problems (InputError, and OSError from reading input files) exit 2
    with a machine-readable error object; internal invariant violations
    and any other fault (a plain ValueError, MemoryError, OverflowError,
    ...) exit 1 with one.
    """
    t0 = time.perf_counter()
    try:
        result, inputs, table_text = build()
    except (InputError, OSError) as err:
        return _fail(ctx, name, "input", str(err), 2)
    except RuntimeError as err:
        return _fail(ctx, name, "internal", str(err), 1)
    except Exception as err:
        return _fail(ctx, name, "internal", f"{type(err).__name__}: {err}", 1)
    report = {
        "subcommand": name,
        "input_digest": _digest({"inputs": inputs, "subcommand": name}),
        "result": result,
        "version": __version__,
    }
    if ctx.obj["timing"]:
        report["wall_time"] = round(time.perf_counter() - t0, 6)
    click.echo(_render(report, ctx.obj["format"], table_text))


def _sampler(ctx, samples: int, coordinate_range: int):
    from . import strata as _strata

    return _strata.SamplerConfig(
        seed=ctx.obj["seed"], samples=samples, coordinate_range=coordinate_range
    )


@click.group()
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["json", "table"]),
    default="json",
    help="Report rendering; json is the golden-file form.",
)
@click.option("--seed", type=int, default=0, help="Seed for every sampled check.")
@click.option(
    "--timing",
    is_flag=True,
    help="Include wall time in the report (breaks byte-identity).",
)
@click.version_option(version=__version__, prog_name="orbitkit")
@click.pass_context
def main(ctx, fmt, seed, timing):
    """Exact tools for orbit-method and cyclic-homology checks."""
    ctx.obj = {"format": fmt, "seed": seed, "timing": timing}


# ---------------------------------------------------------------------------
# lie


@main.group()
def lie():
    """Structure constants: Jacobi, stratification, polarizations."""


@lie.command("check")
@click.option("--algebra", required=True, type=click.Path(), help="LieAlgebra JSON file.")
@click.pass_context
def lie_check(ctx, algebra):
    """Exact Jacobi check with first violating triple on failure."""

    def build():
        L = LieAlgebra.load(algebra)
        ok, witness = check_jacobi(L)
        result = {"jacobi": ok}
        if not ok:
            result["witness"] = list(witness)
        return result, {"algebra": L.to_json()}, None

    _finish(ctx, "lie check", build)


@lie.command("strata")
@click.option("--algebra", required=True, type=click.Path())
@click.option("--samples", type=int, default=1000, show_default=True)
@click.option("--range", "coordinate_range", type=int, default=3, show_default=True)
@click.pass_context
def lie_strata(ctx, algebra, samples, coordinate_range):
    """Orbit-dimension strata with certificates and foliation checks."""

    def build():
        from . import strata as _strata

        L = LieAlgebra.load(algebra)
        config = _sampler(ctx, samples, coordinate_range)
        found = _strata.stratify(L, config)
        result = {
            "strata": [s.to_json() for s in found],
            "generic_rank": _strata.generic_rank(L, found),
            "foliation": [_strata.foliation_check(s) for s in found],
        }
        inputs = {
            "algebra": L.to_json(),
            "samples": samples,
            "range": coordinate_range,
            "seed": ctx.obj["seed"],
        }
        return result, inputs, None

    _finish(ctx, "lie strata", build)


@lie.command("polarize")
@click.option("--algebra", required=True, type=click.Path())
@click.option("--covector", required=True, help="JSON list of rationals.")
@click.option(
    "--subspace",
    required=True,
    help='JSON list of spanning vectors; entries rationals or {"re","im"}.',
)
@click.pass_context
def lie_polarize(ctx, algebra, covector, subspace):
    """Run the polarization conditions for one candidate subalgebra."""

    def build():
        L = LieAlgebra.load(algebra)
        try:
            covector_json, subspace_json = json.loads(covector), json.loads(subspace)
        except json.JSONDecodeError as exc:
            raise InputError(f"--covector and --subspace must be JSON: {exc}") from None
        F = Covector.from_json(covector_json)
        p = ComplexSubspace.from_json(subspace_json, L.dim)
        report = check_polarization(L, F, p)
        inputs = {
            "algebra": L.to_json(),
            "covector": covector_json,
            "subspace": subspace_json,
        }
        return report.to_json(), inputs, None

    _finish(ctx, "lie polarize", build)


# ---------------------------------------------------------------------------
# quantize


@main.group()
def quantize():
    """Prequantization operators over a polynomial phase space."""


@quantize.command("verify")
@click.option("--alpha", required=True, help='Potential one-form, e.g. "p1*dq1".')
@click.option("--max-degree", type=int, default=3, show_default=True)
@click.option("--vars", "nvars", type=int, default=1, show_default=True, help="n for R^{2n}.")
@click.pass_context
def quantize_verify(ctx, alpha, max_degree, nvars):
    """Curvature condition plus the bracket identity on all monomial pairs."""

    def build():
        from . import quantize as _quantize

        if nvars < 1:
            raise InputError("need at least one conjugate pair of variables")
        if max_degree < 1:
            raise InputError("max degree must be at least 1")
        _quantize.dirac_pair_count(nvars, max_degree)  # size guard, before any model
        model = _quantize.SymplecticModel(nvars)
        form = _quantize.parse_one_form(alpha, model)
        result = {
            "curvature": _quantize.check_curvature(form),
            "dirac": _quantize.check_dirac_pairs(form, max_degree),
            "max_degree": max_degree,
        }
        inputs = {"alpha": alpha, "max_degree": max_degree, "vars": nvars}
        return result, inputs, None

    _finish(ctx, "quantize verify", build)


# ---------------------------------------------------------------------------
# cyclic


@main.group()
def cyclic():
    """Cyclic-homology truncations, traces, entirety."""


@cyclic.command("hp")
@click.option("--algebra", required=True, type=click.Path(), help="FinAlgebra JSON file.")
@click.option("--truncation", type=int, default=6, show_default=True)
@click.pass_context
def cyclic_hp(ctx, algebra, truncation):
    """Truncated periodic cyclic homology pair with stabilization flag."""

    def build():
        from . import cyclic as _cyclic

        A = _cyclic.FinAlgebra.load(algebra)
        report = _cyclic.hp_homology(A, truncation=truncation)
        return report.to_json(), {"algebra": A.to_json(), "truncation": truncation}, None

    _finish(ctx, "cyclic hp", build)


@cyclic.command("entire")
@click.option("--pattern", required=True, help='Norm pattern, e.g. "floor-half-fact/fact".')
@click.option("--horizon", type=int, default=40, show_default=True)
@click.pass_context
def cyclic_entire(ctx, pattern, horizon):
    """Entirety verdict for a weighted norm sequence."""

    def build():
        from . import cyclic as _cyclic

        sequence = _cyclic.parse_norm_pattern(pattern)
        verdict = _cyclic.entirety(sequence, horizon=horizon)
        return verdict, {"pattern": pattern, "horizon": horizon}, None

    _finish(ctx, "cyclic entire", build)


@cyclic.command("trace")
@click.option("--algebra", required=True, type=click.Path())
@click.option("--trace", "trace_path", required=True, type=click.Path())
@click.option("--samples", type=int, default=64, show_default=True)
@click.pass_context
def cyclic_trace(ctx, algebra, trace_path, samples):
    """Normalization, positivity, faithfulness, and traciality report."""

    def build():
        from . import cyclic as _cyclic

        A = _cyclic.FinAlgebra.load(algebra)
        tau = _cyclic.Trace.load(trace_path)
        verdict = _cyclic.verify_trace(A, tau, samples=samples, seed=ctx.obj["seed"])
        inputs = {
            "algebra": A.to_json(),
            "trace": tau.to_json(),
            "samples": samples,
            "seed": ctx.obj["seed"],
        }
        return verdict, inputs, None

    _finish(ctx, "cyclic trace", build)


# ---------------------------------------------------------------------------
# chern


@main.group()
def chern():
    """Chern-character coefficients and matrices."""


@chern.command("phi")
@click.argument("n", type=int)
@click.argument("k", type=int)
@click.argument("q", type=int)
@click.pass_context
def chern_phi(ctx, n, k, q):
    """One coefficient, exactly."""

    def build():
        value = _chern.phi(n, k, q)
        return {"value": str(value)}, {"n": n, "k": k, "q": q}, None

    _finish(ctx, "chern phi", build)


@chern.command("matrix")
@click.option("--family", required=True, type=click.Choice(sorted(_chern.FAMILIES)))
@click.option("--rank", required=True, type=int)
@click.pass_context
def chern_matrix(ctx, family, rank):
    """Chern matrix on exterior generators, determinant as exact rational."""

    def build():
        matrix = _chern.chern_matrix(family, rank)
        return matrix.to_json(), {"family": family, "rank": rank}, _matrix_table(matrix)

    _finish(ctx, "chern matrix", build)


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


# ---------------------------------------------------------------------------
# qgroup


@main.group()
def qgroup():
    """Weyl-element representation catalog and truncated operator checks."""


@qgroup.command("reps")
@click.option("--family", required=True, type=click.Choice(["A", "B"]))
@click.option("--rank", required=True, type=int)
@click.option("--t-samples", type=int, default=4, show_default=True)
@click.pass_context
def qgroup_reps(ctx, family, rank, t_samples):
    """Representation catalog over the Weyl group and sampled torus."""

    def build():
        from . import qgroup as _qgroup

        catalog = _qgroup.rep_catalog(family, rank, t_samples)
        result = {
            "family": family,
            "rank": rank,
            "order": len(catalog) // t_samples,
            "t_samples": t_samples,
            "catalog": [d.to_json() for d in catalog],
        }
        inputs = {"family": family, "rank": rank, "t_samples": t_samples}
        return result, inputs, None

    _finish(ctx, "qgroup reps", build)


@qgroup.command("verify")
@click.option("--q", required=True, type=float)
@click.option("--truncation", type=int, default=32, show_default=True, help="Cutoff N.")
@click.option("--degree", type=int, default=2, show_default=True)
@click.option("--t-samples", type=int, default=5, show_default=True)
@click.pass_context
def qgroup_verify(ctx, q, truncation, degree, t_samples):
    """Relation residuals, character constraints, joint-kernel rank."""

    def build():
        from . import qgroup as _qgroup

        rep = _qgroup.build_rep_su2(q, 0.0, truncation)
        residuals = _qgroup.relation_residuals(rep)
        character = _qgroup.character_constraints(q)
        ranks = _qgroup.joint_kernel_rank(
            q, degree=degree, t_samples=t_samples, N=truncation
        )
        result = {"residuals": residuals, "character": character, "ranks": ranks}
        inputs = {
            "q": q,
            "truncation": truncation,
            "degree": degree,
            "t_samples": t_samples,
        }
        return result, inputs, None

    _finish(ctx, "qgroup verify", build)


# ---------------------------------------------------------------------------
# affine


@main.group()
def affine():
    """The ax+b group on the two-branch log grid."""


@affine.command("verify")
@click.option("--l", "--L", "length", required=True, type=float, help="Half-width L.")
@click.option("--h", "step", required=True, type=float, help="Grid step h.")
@click.option("--trials", type=int, default=1000, show_default=True)
@click.pass_context
def affine_verify(ctx, length, step, trials):
    """Homomorphism, unitarity, and character residuals plus the index."""

    def build():
        from . import affine as _affine

        grid = _affine.LogGrid(L=length, h=step)
        result = _affine.worst_residuals(grid, trials, ctx.obj["seed"])
        result["index"] = list(_affine.index_metadata()["index"])
        inputs = {
            "L": length,
            "h": step,
            "trials": trials,
            "seed": ctx.obj["seed"],
        }
        return result, inputs, None

    _finish(ctx, "affine verify", build)


# ---------------------------------------------------------------------------
# tower


@main.group()
def tower():
    """Extension tower over the orbit stratification."""


@tower.command("report")
@click.option("--algebra", required=True, type=click.Path())
@click.option("--samples", type=int, default=1000, show_default=True)
@click.option("--range", "coordinate_range", type=int, default=3, show_default=True)
@click.pass_context
def tower_report(ctx, algebra, samples, coordinate_range):
    """Stage-by-stage tower, JSON or aligned text table."""

    def build():
        from . import strata as _strata

        L = LieAlgebra.load(algebra)
        config = _sampler(ctx, samples, coordinate_range)
        report = _strata.extension_tower(L, config)
        inputs = {
            "algebra": L.to_json(),
            "samples": samples,
            "range": coordinate_range,
            "seed": ctx.obj["seed"],
        }
        return report.to_json(), inputs, report.to_table()

    _finish(ctx, "tower report", build)


if __name__ == "__main__":
    main()
