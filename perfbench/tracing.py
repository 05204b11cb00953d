"""In-memory spans and counters around orbitkit's public functions.

`Tracer.install` replaces each traced function in every orbitkit module
namespace that binds it (a name brought in by ``from .x import f`` is a
second binding of the same object), so calls made through any module are
recorded.  Spans nest on one stack; a span's self time is its duration
minus the time of the spans it encloses.  Hooks that derive counters run
after their span closes, and their cost is charged to no span: it shows
only as tracing overhead.
"""

from __future__ import annotations

import functools
import sys
import time


class Tracer:
    def __init__(self):
        self.stack = []  # [name, enclosed_ns] of the open spans
        self.spans = {}  # name -> [calls, total_ns, self_ns]
        self.counters = {}
        self.grids = set()
        self.draws = {}

    def add(self, name: str, value) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def span(self, name: str, fn, /, *args, **kwargs):
        frame = [name, 0]
        self.stack.append(frame)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter_ns() - t0
            self.stack.pop()
            if self.stack:
                self.stack[-1][1] += dt
            rec = self.spans.setdefault(name, [0, 0, 0])
            rec[0] += 1
            rec[1] += dt
            rec[2] += dt - frame[1]

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = time.perf_counter_ns()
            result = self.span(name, fn, *args, **kwargs)
            if hook is not None:
                t1 = time.perf_counter_ns()
                hook(self, args, kwargs, result, t1 - t0)
                if self.stack:
                    self.stack[-1][1] += time.perf_counter_ns() - t1
            return result

        return traced

    def install(self) -> None:
        """Wrap every target of `_targets` in every orbitkit namespace."""
        replaced = {}
        for span_name, owner, attr, hook in _targets():
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self.wrap(span_name, raw.__func__, hook))
                setattr(owner, attr, wrapped)
            elif isinstance(owner, type):
                setattr(owner, attr, self.wrap(span_name, raw, hook))
            else:
                wrapped = self.wrap(span_name, raw, hook)
                replaced[id(raw)] = (raw, wrapped)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("orbitkit"):
                continue
            for key, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, key, hit[1])

    def dump(self) -> dict:
        distinct = sum(len(set(d)) for d in self.draws.values())
        drawn = sum(len(d) for d in self.draws.values())
        counters = dict(self.counters)
        counters["strata.samples_drawn"] = drawn
        counters["strata.samples_distinct"] = distinct
        counters["affine.grid_nodes"] = sum(nodes for _, _, nodes in self.grids)
        return {"spans": self.spans, "counters": counters}


# -- hooks: counters derived where the work happens ---------------------------


def _rank_hook(tracer, args, kwargs, result, dt):
    tracer.add("exactnum.columns", args[0].ncols)
    if any(name.startswith("strata.") for name, _ in tracer.stack):
        tracer.add("strata.rank_calls", 1)


def _draw_hook(tracer, args, kwargs, result, dt):
    # one sampling plan drawn again (foliation_check, generic_rank) is the
    # same samples, so each distinct plan counts once
    config, dim = args[0], args[1]
    key = (config.seed, config.samples, config.coordinate_range, dim)
    tracer.draws[key] = [tuple(F.coords) for F in result]


def _hp_hook(tracer, args, kwargs, result, dt):
    dim = args[0].dim
    hc = result.hc
    sizes = [sum(dim ** (q + 1) for q in range(n + 1)) for n in range(len(hc) + 1)]
    # hc[m] = |Tot_m| - rank d_m - rank d_{m+1}, with d_0 = 0
    ranks = [0]
    for m, h in enumerate(hc):
        ranks.append(sizes[m] - ranks[m] - h)
    tracer.add("cyclic.boundary_columns", sum(sizes[1:]))
    tracer.add("cyclic.pivots", sum(ranks))


def _apply_hook(tracer, args, kwargs, result, dt):
    chain = args[1]
    tracer.add("cyclic.chain_slots", len(chain.coords))
    tracer.add("cyclic.chain_nnz", sum(1 for v in chain.coords if not v.is_zero()))
    adjoint = args[2] if len(args) > 2 else kwargs.get("adjoint", False)
    if adjoint:
        tracer.add("cyclic.adjoint_ns", dt)


def _grid_hook(tracer, args, kwargs, result, dt):
    grid = args[2]
    tracer.grids.add((grid.L, grid.h, grid.node_count))


def _targets():
    """(span name, owner, attribute, hook) for every traced function.

    Some spans feed no named metric; they are traced so that their time
    counts as their module's self time and not as the CLI's.
    """
    from orbitkit import affine, chern, cyclic, exactnum, liealg, qgroup, quantize, strata

    return [
        ("exactnum.rank", exactnum.ExactMatrix, "rank", _rank_hook),
        ("exactnum.kernel_basis", exactnum.ExactMatrix, "kernel_basis", _rank_hook),
        ("liealg.load", liealg.LieAlgebra, "load", None),
        ("liealg.check_jacobi", liealg, "check_jacobi", None),
        ("liealg.poisson_matrix", liealg, "poisson_matrix", None),
        ("liealg.check_polarization", liealg, "check_polarization", None),
        ("strata.draw", strata.SamplerConfig, "draw", _draw_hook),
        ("strata.stratify", strata, "stratify", None),
        ("strata.generic_rank", strata, "generic_rank", None),
        ("strata.foliation_check", strata, "foliation_check", None),
        ("strata.extension_tower", strata, "extension_tower", None),
        ("quantize.parse_one_form", quantize, "parse_one_form", None),
        ("quantize.check_curvature", quantize, "check_curvature", None),
        ("quantize.check_dirac", quantize, "check_dirac", None),
        ("cyclic.load", cyclic.FinAlgebra, "load", None),
        ("cyclic.trace_load", cyclic.Trace, "load", None),
        ("cyclic.hp_homology", cyclic, "hp_homology", _hp_hook),
        ("cyclic.verify_trace", cyclic, "verify_trace", None),
        ("cyclic.entirety", cyclic, "entirety", None),
        ("cyclic.apply_operator", cyclic, "apply_operator", _apply_hook),
        ("cyclic.chain_pairing", cyclic, "chain_pairing", None),
        ("cyclic.chain_random", cyclic.Chain, "random", None),
        ("cyclic.chain_arith", cyclic.Chain, "__add__", None),
        ("cyclic.chain_arith", cyclic.Chain, "__sub__", None),
        ("cyclic.chain_arith", cyclic.Chain, "__neg__", None),
        ("cyclic.chain_arith", cyclic.Chain, "scale", None),
        ("cyclic.chain_arith", cyclic.Chain, "is_zero", None),
        ("chern.phi", chern, "phi", None),
        ("chern.chern_matrix", chern, "chern_matrix", None),
        ("qgroup.rep_catalog", qgroup, "rep_catalog", None),
        ("qgroup.weyl_group", qgroup, "weyl_group", None),
        ("qgroup.build_rep_su2", qgroup, "build_rep_su2", None),
        ("qgroup.relation_residuals", qgroup, "relation_residuals", None),
        ("qgroup.character_constraints", qgroup, "character_constraints", None),
        ("qgroup.joint_kernel_rank", qgroup, "joint_kernel_rank", None),
        ("affine.random_aligned_element", affine, "random_aligned_element", None),
        ("affine.verify_homomorphism", affine, "verify_homomorphism", _grid_hook),
        ("affine.verify_unitarity", affine, "verify_unitarity", None),
        ("affine.character_U", affine, "character_U", None),
    ]
