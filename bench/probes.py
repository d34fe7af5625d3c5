"""Traced entry points of almsim and the per-layer metrics derived from them.

Every probe wraps a public function or method by replacing the module or
class attribute, so calls between modules (metrics -> particle, cli -> pde,
ModelSpec.intensity -> model.intensity_eval) are caught without touching the
package.  Counts come from the objects the calls return.
"""

from __future__ import annotations

import inspect
import statistics
from pathlib import Path

from bench.tracer import module_self_times, self_times, subtree

MODULES = ("model", "particle", "limit", "pde", "pathint", "metrics", "cli")

# N values whose candidate rates are reported: the golden configs' ladder
CAND_RATE_NS = (20, 40)

WRITERS = ("particle.events_to_csv", "particle.snapshots_to_csv",
           "pde.density_to_csv", "limit.XPath.to_csv",
           "metrics.ConvergenceTable.to_csv")

# name -> (unit, better)
LAYER_METRICS = {
    "model.intensity_eval.calls": ("count", "lower"),
    "model.intensity_eval.self_s": ("s", "lower"),
    "model.intensity_eval.p50_us": ("us", "lower"),
    "pde.solve_alm_pde.self_s": ("s", "lower"),
    "pde.steps": ("count", "lower"),
    "pde.node_steps_per_s": ("1/s", "higher"),
    "pde.step_p50_ms": ("ms", "lower"),
    "pde.step_p90_ms": ("ms", "lower"),
    "pde.step_samples": ("count", "higher"),
    "pde.border_step_ms": ("ms", "lower"),
    "pde.mass_drift_max": ("1", "lower"),
    "pde.flux_rel_max": ("1", "lower"),
    "pde.clip_mass": ("1", "lower"),
    "particle.simulate_network.self_s": ("s", "lower"),
    "particle.simulate_network.calls": ("count", "lower"),
    "particle.simulate_coupled_pair.self_s": ("s", "lower"),
    "particle.simulate_coupled_pair.calls": ("count", "lower"),
    "particle.events": ("count", "lower"),
    **{f"particle.cand_per_s.N{n}": ("1/s", "higher") for n in CAND_RATE_NS},
    "limit.solve_x_picard.self_s": ("s", "lower"),
    "limit.picard_iters": ("count", "lower"),
    "limit.picard_iter_s": ("s", "lower"),
    "metrics.coupling_decay_study.self_s": ("s", "lower"),
    "metrics.convergence_study.self_s": ("s", "lower"),
    "metrics.transformed_w1.p50_ms": ("ms", "lower"),
    "metrics.transformed_w1.calls": ("count", "lower"),
    "metrics.grid_to_cloud_ms": ("ms", "lower"),
    "metrics.replica_busy_ratio": ("1", "higher"),
    "pathint.density_at.calls": ("count", "lower"),
    "pathint.density_at.p50_s": ("s", "lower"),
    "pathint.density_at.self_s": ("s", "lower"),
    "cli.run.p50_s": ("s", "lower"),
    "cli.run.self_s": ("s", "lower"),
    "cli.artifact_write_s": ("s", "lower"),
    "cli.artifact_bytes": ("B", "lower"),
    **{f"{m}.self_s": ("s", "lower") for m in MODULES},
    "harness.traced_wall_s": ("s", "lower"),
    "harness.trace_overhead": ("1", "lower"),
    "harness.unattributed_s": ("s", "lower"),
    "harness.hot_overhead_s": ("s", "lower"),
    "harness.cpu_s": ("s", "lower"),
}


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


# ---------------------------------------------------------------------------
# prepare / describe hooks


def _pde_prepare(clock, signature):
    """Chains a step_callback that timestamps every step of the march."""
    def prepare(args, kwargs):
        stamps = []
        bound = signature.bind(*args, **kwargs)
        inner = bound.arguments.get("step_callback")

        def cb(*a):
            stamps.append(clock())
            if inner is not None:
                inner(*a)

        bound.arguments["step_callback"] = cb
        return bound.args, bound.kwargs, stamps
    return prepare


def _pde_describe(sp, args, kwargs, sol, stamps):
    import numpy as np

    grid = _arg(args, kwargs, 1, "grid")
    nodes = grid.a_nodes.shape[0]
    for k in range(grid.d):
        nodes *= grid.n_m[k] + 1
    fr = sol.flux_rel[np.isfinite(sol.flux_rel)]
    sp.attrs.update(
        steps=max(len(stamps) - 1, 0), nodes=int(nodes),
        step_s=[b - a for a, b in zip(stamps, stamps[1:])],
        mass_drift=float(np.max(np.abs(sol.mass_trace - 1.0))),
        flux_rel=float(np.max(fr)) if fr.size else 0.0,
        clip_mass=float(sol.clip_mass))


def _particle_describe(sp, args, kwargs, result, _):
    spec = args[0] if args else kwargs["spec"]
    sp.attrs.update(N=int(_arg(args, kwargs, 1, "N")),
                    T=float(_arg(args, kwargs, 2, "T")),
                    f_max=float(spec.f_max))
    events = getattr(result, "events", None)
    if events is not None:
        sp.attrs["events"] = len(events)


def _picard_describe(sp, args, kwargs, result, _):
    report = result[1]
    sp.attrs.update(iterations=int(report.iterations),
                    final_delta=float(report.final_delta))


def _study_describe(sp, args, kwargs, result, _):
    sp.attrs["threads"] = int(kwargs.get("threads", 1))


def _cli_describe(sp, args, kwargs, code, _):
    out = _arg(args, kwargs, 2, "out_override")
    size = 0
    if out is not None and Path(out).is_dir():
        size = sum(p.stat().st_size for p in Path(out).iterdir() if p.is_file())
    sp.attrs.update(exit_code=int(code), artifact_bytes=int(size))


def install(tracer):
    """Wraps almsim's public entry points; undone by tracer.uninstall()."""
    from almsim import cli, limit, metrics, model, particle, pathint, pde

    w = tracer.wrap
    w(model, "intensity_eval", "model.intensity_eval", hot=True)
    w(pde, "solve_alm_pde", "pde.solve_alm_pde",
      prepare=_pde_prepare(tracer.clock, inspect.signature(pde.solve_alm_pde)),
      describe=_pde_describe)
    w(pde, "border_step", "pde.border_step")
    w(particle, "simulate_network", "particle.simulate_network",
      describe=_particle_describe)
    w(particle, "simulate_coupled_pair", "particle.simulate_coupled_pair",
      describe=_particle_describe)
    w(limit, "solve_x_picard", "limit.solve_x_picard", describe=_picard_describe)
    w(metrics, "coupling_decay_study", "metrics.coupling_decay_study",
      describe=_study_describe)
    w(metrics, "convergence_study", "metrics.convergence_study",
      describe=_study_describe)
    w(metrics, "transformed_w1", "metrics.transformed_w1")
    w(metrics, "grid_to_cloud", "metrics.grid_to_cloud")
    w(pathint, "density_at", "pathint.density_at")
    w(cli, "run", "cli.run", describe=_cli_describe)
    w(particle, "events_to_csv", "particle.events_to_csv")
    w(particle, "snapshots_to_csv", "particle.snapshots_to_csv")
    w(pde, "density_to_csv", "pde.density_to_csv")
    w(limit.XPath, "to_csv", "limit.XPath.to_csv")
    w(metrics.ConvergenceTable, "to_csv", "metrics.ConvergenceTable.to_csv")


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass


def _p(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def pass_metrics(tracer, root_id, cpu_s):
    """Per-layer metrics of the traced pass rooted at span root_id."""
    spans = subtree(tracer.spans, root_id)
    st = self_times(spans)
    per_module = module_self_times(spans, tracer.hot)
    root = next(s for s in spans if s.id == root_id)
    by = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def named(name):
        return by.get(name, [])

    def described(name):
        # a call that raised has a span but no attributes
        return [s for s in named(name) if s.attrs]

    def self_sum(name):
        return sum(st[s.id] for s in named(name))

    def dur_sum(name):
        return sum(s.duration for s in named(name))

    m = {k: 0.0 for k in LAYER_METRICS}

    ie = tracer.hot.get("model.intensity_eval")
    if ie is not None:
        m["model.intensity_eval.calls"] = ie.count
        m["model.intensity_eval.self_s"] = ie.total_s
        m["model.intensity_eval.p50_us"] = _p(ie.samples, 50) * 1e6

    solves = described("pde.solve_alm_pde")
    steps = [x for s in solves for x in s.attrs["step_s"]]
    m["pde.solve_alm_pde.self_s"] = self_sum("pde.solve_alm_pde")
    m["pde.steps"] = sum(s.attrs["steps"] for s in solves)
    if solves:
        m["pde.node_steps_per_s"] = (sum(s.attrs["nodes"] * s.attrs["steps"]
                                         for s in solves)
                                     / dur_sum("pde.solve_alm_pde"))
        m["pde.mass_drift_max"] = max(s.attrs["mass_drift"] for s in solves)
        m["pde.flux_rel_max"] = max(s.attrs["flux_rel"] for s in solves)
        m["pde.clip_mass"] = max(s.attrs["clip_mass"] for s in solves)
    m["pde.step_p50_ms"] = _p(steps, 50) * 1e3
    m["pde.step_p90_ms"] = _p(steps, 90) * 1e3
    m["pde.step_samples"] = len(steps)

    nets = described("particle.simulate_network")
    pairs = described("particle.simulate_coupled_pair")
    for fn in ("simulate_network", "simulate_coupled_pair"):
        m[f"particle.{fn}.self_s"] = self_sum(f"particle.{fn}")
        m[f"particle.{fn}.calls"] = len(named(f"particle.{fn}"))
    m["particle.events"] = sum(s.attrs.get("events", 0) for s in nets)
    for n in CAND_RATE_NS:
        group = [s for s in nets + pairs if s.attrs["N"] == n]
        busy = sum(s.duration for s in group)
        if busy > 0:
            cands = sum(s.attrs["N"] * s.attrs["f_max"] * s.attrs["T"]
                        for s in group)
            m[f"particle.cand_per_s.N{n}"] = cands / busy

    picards = described("limit.solve_x_picard")
    iters = sum(s.attrs["iterations"] for s in picards)
    m["limit.solve_x_picard.self_s"] = self_sum("limit.solve_x_picard")
    m["limit.picard_iters"] = iters
    if iters:
        m["limit.picard_iter_s"] = m["limit.solve_x_picard.self_s"] / iters

    m["metrics.coupling_decay_study.self_s"] = self_sum("metrics.coupling_decay_study")
    m["metrics.convergence_study.self_s"] = self_sum("metrics.convergence_study")
    w1 = [s.duration for s in named("metrics.transformed_w1")]
    m["metrics.transformed_w1.p50_ms"] = _p(w1, 50) * 1e3
    m["metrics.transformed_w1.calls"] = len(w1)
    m["metrics.grid_to_cloud_ms"] = dur_sum("metrics.grid_to_cloud") * 1e3
    studies = (described("metrics.coupling_decay_study")
               + described("metrics.convergence_study"))
    capacity = sum(s.duration * s.attrs["threads"] for s in studies)
    if capacity > 0:
        study_ids = {s.id for s in studies}
        busy = sum(s.duration for s in nets + pairs if s.parent in study_ids)
        m["metrics.replica_busy_ratio"] = busy / capacity

    dens = [s.duration for s in named("pathint.density_at")]
    m["pathint.density_at.calls"] = len(dens)
    m["pathint.density_at.p50_s"] = _p(dens, 50)
    m["pathint.density_at.self_s"] = self_sum("pathint.density_at")

    runs = described("cli.run")
    m["cli.run.p50_s"] = _p([s.duration for s in named("cli.run")], 50)
    m["cli.run.self_s"] = self_sum("cli.run")
    m["cli.artifact_write_s"] = sum(dur_sum(w) for w in WRITERS)
    m["cli.artifact_bytes"] = sum(s.attrs["artifact_bytes"] for s in runs)

    for mod in MODULES:
        m[f"{mod}.self_s"] = per_module.get(mod, 0.0)
    m["harness.traced_wall_s"] = root.duration
    m["harness.unattributed_s"] = st[root_id]
    m["harness.cpu_s"] = cpu_s
    return m
