"""Command-line front end: config ingestion, orchestration, artifact emission.

Configs are JSON documents validated against a strict schema (unknown fields
rejected).  Every run writes a manifest recording the config hash, seed,
package version and artifact checksums; reruns with the same config and seed
reproduce all artifacts bit-identically regardless of thread count.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import limit, metrics, model as mdl, particle, pathint, pde, presets

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_STRICT = 3
EXIT_MISSING = 4
EXIT_DOWNSTREAM = 5

# field schemas shared by the numerics of several commands
_COUNT = {"type": "integer", "minimum": 1}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_NUMBERS = {"type": "array", "items": {"type": "number"}}
_TIMES = {"type": "array", "items": {"type": "number", "minimum": 0}}
# the numerics read by _grid_from_numerics, by _picard and by the replica studies
_GRID = {"a_max": _POSITIVE, "n_a": _COUNT, "m_lo": _NUMBERS, "m_hi": _NUMBERS,
         "n_m": {"type": "array", "items": _COUNT}, "T": _POSITIVE, "dt": _POSITIVE}
_PICARD = {"dt": _POSITIVE, "n_particles": _COUNT, "tol": _POSITIVE,
           "max_iter": _COUNT}
_LADDER = {"N_ladder": {"type": "array", "uniqueItems": True, "items": _COUNT},
           "n_replicas": _COUNT}


class _StrictWarning(RuntimeError):
    """A numerical tolerance miss after the command wrote its artifacts."""

    def __init__(self, message, artifacts):
        super().__init__(message)
        self.artifacts = artifacts


def _load_model(cfg):
    m = cfg["model"]
    if set(m.keys()) == {"preset"}:
        try:
            return presets.preset(m["preset"])
        except KeyError as exc:
            raise mdl.ConfigurationError(str(exc))
    return mdl.ModelSpec.from_dict(m)


def _sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(outdir, cfg_bytes, spec, seed, artifacts, wall):
    mdl.write_json(outdir / "manifest.json", {
        "schema_version": 1,
        "config_sha256": hashlib.sha256(cfg_bytes).hexdigest(),
        "spec_hash": spec.spec_hash(),
        "seed": seed,
        "package_version": __version__,
        "artifacts": {name: _sha256_file(outdir / name) for name in artifacts},
        "wall_time_s": wall,
    })


def _grid_from_numerics(num, spec):
    return pde.Grid(
        a_max=num.get("a_max", 15.0),
        n_a=num.get("n_a", int(round(num.get("a_max", 15.0) / num.get("dt", 0.01)))),
        m_lo=tuple(num.get("m_lo", [-3.0] * spec.d)),
        m_hi=tuple(num.get("m_hi", [1.0] * spec.d)),
        n_m=tuple(num.get("n_m", [200] * spec.d)),
        T=num.get("T", 5.0),
        dt=num.get("dt", 0.01),
    )


def _cmd_validate(spec, num, seed, outdir):
    report = mdl.validate_assumptions(spec, n_samples=num.get("n_samples", 10_000),
                                      seed=seed)
    mdl.write_json(outdir / "validation.json", vars(report))
    if not report.all_pass:
        raise mdl.ConfigurationError("assumption validation failed")
    return ["validation.json"]


def _cmd_simulate(spec, num, seed, outdir):
    rec = particle.simulate_network(spec, num["N"], num["T"], seed,
                                    save_times=num.get("save_times", [num["T"]]))
    particle.events_to_csv(rec, outdir / "events.csv")
    particle.snapshots_to_csv(rec, outdir / "snapshots.csv")
    mdl.write_json(outdir / "run.json", {
        "N": rec.N, "T": rec.T, "seed": rec.seed, "n_events": len(rec.events),
        "x_emp": rec.x_path_emp})
    return ["events.csv", "snapshots.csv", "run.json"]


def _picard(spec, num, seed, T):
    return limit.solve_x_picard(
        spec, T, dt=num.get("dt"), n_particles=num.get("n_particles", 20_000),
        seed=seed, tol=num.get("tol", 1e-4), max_iter=num.get("max_iter", 25))


def _picard_checked(report, artifacts):
    """Returns the written artifacts, or raises _StrictWarning with them when
    the Picard iteration behind them missed its tolerance."""
    if not report.converged:
        raise _StrictWarning("fixed-point iteration did not reach tolerance",
                             artifacts)
    return artifacts


def _cmd_limit(spec, num, seed, outdir):
    x, report = _picard(spec, num, seed, num["T"])
    x.to_csv(outdir / "xpath.csv")
    mdl.write_json(outdir / "picard.json", vars(report))
    return _picard_checked(report, ["xpath.csv", "picard.json"])


def _cmd_pde(spec, num, seed, outdir):
    grid = _grid_from_numerics(num, spec)
    save = num.get("save_times", [grid.T])
    sol = pde.solve_alm_pde(spec, grid, save_times=save)
    pde.density_to_csv(sol, outdir / "density.csv",
                       stride_a=num.get("stride_a", 10),
                       stride_m=num.get("stride_m", 4))
    sol.x.to_csv(outdir / "xpath.csv")
    mdl.write_json(outdir / "diagnostics.json", {
        "mass_trace": sol.mass_trace,
        "flux_rel": [None if np.isnan(v) else v for v in sol.flux_rel.tolist()],
        "scale_trace": sol.scale_trace,
        "clip_mass": sol.clip_mass,
    })
    artifacts = ["density.csv", "xpath.csv", "diagnostics.json"]
    worst = float(np.max(np.abs(sol.mass_trace - 1.0)))
    if not worst <= 1e-3:    # a NaN drift is a miss
        raise _StrictWarning(f"mass drift {worst:.2e} exceeds 1e-3", artifacts)
    return artifacts


def _cmd_pathint(spec, num, seed, outdir):
    T = num.get("T", 1.0)
    kmax = (num["K_max"] if "K_max" in num else pathint.jump_count_tail(
        T, spec.f_max, num.get("tail_epsilon", 1e-4)))
    cfg = pathint.PathIntegralConfig(K_max=kmax, seed=seed)
    x = limit.XPath(np.array([0.0, T]), np.zeros(2))
    rows = []
    for pt in num.get("eval_points", [[T, T / 2.0, 0.0]]):
        if len(pt) != 2 + spec.d:
            raise mdl.ConfigurationError(
                f"eval point {pt} needs t, a and {spec.d} memory coordinates")
        t, a = pt[0], pt[1]
        m = np.asarray(pt[2:], dtype=float)
        val, bound = pathint.density_at(t, a, m, spec.init_law, x, cfg, spec)
        rows.append((float(t), float(a), *m, val, bound))
    mdl.write_csv(outdir / "pathint.csv", ["t", "a"]
                  + [f"m{k+1}" for k in range(spec.d)] + ["rho", "truncation_bound"],
                  rows)
    return ["pathint.csv"]


def _cmd_converge(spec, num, seed, outdir):
    grid = _grid_from_numerics(num, spec)
    t_eval = num.get("t_eval", grid.T)
    sol = pde.solve_alm_pde(spec, grid, save_times=[t_eval])
    cloud = metrics.grid_to_cloud(grid.a_nodes,
                                  [grid.m_nodes(k) for k in range(grid.d)],
                                  sol.rho_at(t_eval))
    table = metrics.convergence_study(
        spec, num.get("N_ladder", [100, 400]), t_eval,
        num.get("n_replicas", 4), seed, cloud,
        n_directions=num.get("n_directions", 64))
    table.to_csv(outdir / "convergence.csv")
    mdl.write_json(outdir / "convergence.json", table.summary())
    return ["convergence.csv", "convergence.json"]


def _cmd_couple(spec, num, seed, outdir):
    T = num.get("T", 5.0)
    x, report = _picard(spec, num, seed, T)
    table = metrics.coupling_decay_study(
        spec, num.get("N_ladder", [100, 400]), T, x,
        num.get("n_replicas", 4), seed)
    table.to_csv(outdir / "coupling.csv")
    mdl.write_json(outdir / "coupling.json", table.summary())
    return _picard_checked(report, ["coupling.csv", "coupling.json"])


# command: (handler, the numerics it reads, those it reads without a
# default), in the order of the schema's command enum, which its error
# messages list
_COMMANDS = {
    "simulate": (_cmd_simulate, {"N": _COUNT, "T": _POSITIVE, "save_times": _TIMES},
                 ("N", "T")),
    "limit": (_cmd_limit, {"T": _POSITIVE, **_PICARD}, ("T",)),
    "pde": (_cmd_pde, {**_GRID, "save_times": _TIMES, "stride_a": _COUNT,
                       "stride_m": _COUNT}, ()),
    "pathint": (_cmd_pathint, {
        "T": _POSITIVE, "K_max": {"type": "integer", "minimum": 0},
        "tail_epsilon": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "eval_points": {"type": "array", "items": _NUMBERS}}, ()),
    "converge": (_cmd_converge, {**_GRID, "t_eval": {"type": "number", "minimum": 0},
                                 **_LADDER, "n_directions": _COUNT}, ()),
    "couple": (_cmd_couple, {"T": _POSITIVE, **_PICARD, **_LADDER}, ()),
    "validate": (_cmd_validate, {"n_samples": _COUNT}, ()),
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["schema_version", "command", "model"],
    "properties": {
        "schema_version": {"const": 1},
        "command": {"enum": list(_COMMANDS)},
        "model": {
            "oneOf": [
                {"type": "object", "additionalProperties": False,
                 "required": ["preset"],
                 "properties": {"preset": {"enum": list(presets.PRESET_NAMES)}}},
                {"type": "object",
                 "not": {"required": ["preset"]}},
            ]
        },
        "numerics": {"type": "object"},
        "seed": {"type": "integer", "minimum": 0},
        "out": {"type": "string"},
    },
    # the numerics of each command: the fields it reads
    "allOf": [{"if": {"required": ["command"], "properties": {"command": {"const": c}}},
               "then": {"required": ["numerics"] if required else [],
                        "properties": {"numerics": {
                            "type": "object", "additionalProperties": False,
                            "required": list(required),
                            "properties": fields}}}}
              for c, (_, fields, required) in _COMMANDS.items()],
}


@functools.cache
def _config_validator():
    """Validator of CONFIG_SCHEMA, built on first use.  jsonschema.validate
    checks the schema itself on every call, which took about 20 ms."""
    import jsonschema
    cls = jsonschema.validators.validator_for(CONFIG_SCHEMA)
    cls.check_schema(CONFIG_SCHEMA)
    return cls(CONFIG_SCHEMA)


def run(config_path, seed_override=None, out_override=None, strict=False,
        threads_override=None):
    """Executes one configured pipeline; returns a process exit code.

    threads_override is accepted and ignored, since replicas run serially.
    It stays for the callers that pass it: the benchmark workloads, and the
    rerun checks that compare runs under different values."""
    import jsonschema
    try:
        # the manifest hashes the file's bytes, CRLF line ends included
        cfg_bytes = Path(config_path).read_bytes()
        cfg = json.loads(cfg_bytes.decode("utf-8"))
        error = jsonschema.exceptions.best_match(
            _config_validator().iter_errors(cfg))
        if error is not None:
            raise error
        spec = _load_model(cfg)
    except OSError as exc:
        print(f"error: cannot read config file: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except (UnicodeDecodeError, json.JSONDecodeError, jsonschema.ValidationError,
            mdl.ConfigurationError) as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    seed = seed_override if seed_override is not None else cfg.get("seed", 0)
    outdir = Path(out_override or cfg.get("out", "out"))
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    num = cfg.get("numerics", {})
    start = time.monotonic()
    strict_msg = None
    try:
        artifacts = _COMMANDS[cfg["command"]][0](spec, num, seed, outdir)
    except _StrictWarning as exc:
        # the artifacts are complete; a strict run treats the warning as fatal
        strict_msg = str(exc)
        artifacts = exc.artifacts
    except (mdl.ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # downstream numerical failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOWNSTREAM
    wall = time.monotonic() - start
    _write_manifest(outdir, cfg_bytes, spec, seed, artifacts, wall)
    if strict_msg is not None:
        print(f"warning: {strict_msg}", file=sys.stderr)
        if strict:
            return EXIT_STRICT
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="almsim",
        description="Simulation and density-equation toolkit for interacting "
                    "point-process networks with age and leaky memory.")
    parser.add_argument("config", help="path to a JSON run configuration")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--strict", action="store_true",
                        help="treat numerical warnings as errors")
    args = parser.parse_args(argv)
    return run(args.config, seed_override=args.seed, out_override=args.out,
               strict=args.strict)


if __name__ == "__main__":
    sys.exit(main())
