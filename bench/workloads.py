"""The benchmark workloads, each dominated by different almsim modules.

A workload builds its inputs from the seed in setup() and runs one full pass,
including its correctness checks, in run_pass().  Sizes come in two flavours:
"full" is what the benchmark measures, "tiny" only exercises the code paths
(used by the benchmark's own smoke tests).
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np

from almsim import cli, limit, particle, pde, presets

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = ROOT / "configs" / "golden"

MASS_TOL = 1e-3   # criterion 1
FLUX_TOL = 1e-3   # criterion 2


class Checks:
    """Counts correctness checks and keeps diagnostic values."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.diag = {}

    def expect(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")

    def note(self, key, value):
        self.diag[key] = value


def child_seed(seed, *key):
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


def warm_assumption_cache(spec):
    """Fills particle's one-off assumption-validation cache for spec through
    the public simulator, so that the fill is paid in set-up."""
    particle.simulate_network(spec, 1, 1e-6, 0)


def _fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _digests(outdir):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir()) if p.name != "manifest.json"}


# ---------------------------------------------------------------------------


class PdePresets:
    """Default-resolution PDE march of both interacting presets.

    The solver is deterministic, so the seed does not change the inputs.
    """

    name = "pde-presets"
    PRESETS = ("adaptation-1d", "stp")

    def setup(self, seed, size, workdir):
        self.cases = []
        for name in self.PRESETS:
            spec = presets.preset(name)
            if size == "full":
                grid = presets.default_grid(name, T=0.1)
            else:  # a fifth of the resolution per axis, two steps
                grid = dataclasses.replace(presets.default_grid(name, T=0.02),
                                           n_a=300, n_m=(80,))
            self.cases.append((name, spec, grid))
        self.saved = {}

    def run_pass(self, checks):
        for name, spec, grid in self.cases:
            sol = pde.solve_alm_pde(spec, grid, save_times=[grid.T])
            drift = float(np.max(np.abs(sol.mass_trace - 1.0)))
            fr = sol.flux_rel[np.isfinite(sol.flux_rel)]
            flux = float(np.max(fr)) if fr.size else 0.0
            checks.expect(f"{name} mass drift", drift <= MASS_TOL, f"{drift:.3e}")
            checks.expect(f"{name} flux imbalance", flux <= FLUX_TOL, f"{flux:.3e}")
            checks.expect(f"{name} finite x", bool(np.all(np.isfinite(sol.x.values))))
            checks.note(f"{name}.mass_drift", drift)
            checks.note(f"{name}.flux_rel_max", flux)
            self.saved[name] = (sol.rho_at(grid.T), float(sol.x.values[-1]))

    def extras(self):
        """One border evaluation per preset on the last saved density; the
        traced run calls it once, after its passes."""
        for name, spec, grid in self.cases:
            rho, x_t = self.saved[name]
            pde.border_step(spec, grid, rho, x_t)


class GoldenCli:
    """The committed golden configs through cli.run, single-threaded.

    cli.run runs with strict=True, so a mass drift over 1e-3 (pde) or a
    Picard miss (limit) is a non-zero exit.  The couple command does not
    report its Picard iteration, so final_checks() repeats that solve once
    per run, after the timed passes, and checks that it converged.
    """

    name = "golden-cli"

    def setup(self, seed, size, workdir):
        self.workdir = workdir
        self.configs = []
        for path in sorted(GOLDEN_DIR.glob("*.json")):
            cfg = json.loads(path.read_text())
            if size != "full":
                cfg = _shrink(cfg)
                path = workdir / "configs" / path.name
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps(cfg))
            # seed 0 reproduces each config's committed seed
            self.configs.append((path, cfg, cfg.get("seed", 0) + seed))
        if not self.configs:
            raise FileNotFoundError(f"no golden configs under {GOLDEN_DIR}")
        for name in {cfg["model"]["preset"] for _, cfg, _ in self.configs}:
            warm_assumption_cache(presets.preset(name))
        self.reference = {}

    def run_pass(self, checks):
        for path, cfg, seed in self.configs:
            out = _fresh_dir(self.workdir / "golden" / path.stem)
            code = cli.run(path, seed_override=seed, out_override=out,
                           strict=True, threads_override=1)
            checks.expect(f"{path.stem} exit code", code == cli.EXIT_OK, str(code))
            digests = _digests(out)
            ref = self.reference.setdefault(path.stem, digests)
            checks.expect(f"{path.stem} artifact set", set(digests) == set(ref),
                          f"{sorted(digests)} vs {sorted(ref)}")
            for name, d in sorted(ref.items()):
                checks.expect(f"{path.stem}/{name} byte-identical",
                              digests.get(name) == d)
            self._check_artifacts(path.stem, cfg["command"], out, checks)

    @staticmethod
    def _check_artifacts(stem, command, out, checks):
        """Tolerances read back from the artifacts each command writes."""
        if command == "pde":
            diag = json.loads((out / "diagnostics.json").read_text())
            drift = max(abs(v - 1.0) for v in diag["mass_trace"])
            flux = max((v for v in diag["flux_rel"] if v is not None), default=0.0)
            checks.expect(f"{stem} mass drift", drift <= MASS_TOL, f"{drift:.3e}")
            checks.expect(f"{stem} flux imbalance", flux <= FLUX_TOL, f"{flux:.3e}")
            checks.note(f"{stem}.mass_drift", drift)
            checks.note(f"{stem}.flux_rel_max", flux)
        elif command in ("couple", "converge"):
            name = "coupling.json" if command == "couple" else "convergence.json"
            means = json.loads((out / name).read_text())["means"]
            # a coupled pair whose accept decisions never diverge is at 0
            ok = all(math.isfinite(v) and v >= 0.0 for v in means.values())
            checks.expect(f"{stem} distances finite and nonnegative", ok,
                          repr(means))
            checks.note(f"{stem}.w1_means", means)
        elif command == "simulate":
            x = json.loads((out / "run.json").read_text())["x_emp"]
            checks.expect(f"{stem} finite x", all(map(math.isfinite, x)))

    def final_checks(self, checks):
        for path, cfg, seed in self.configs:
            if cfg["command"] != "couple":
                continue
            num = cfg.get("numerics", {})
            _, report = limit.solve_x_picard(
                presets.preset(cfg["model"]["preset"]), num.get("T", 5.0),
                dt=num.get("dt"), n_particles=num.get("n_particles", 20_000),
                seed=seed, tol=num.get("tol", 1e-4),
                max_iter=num.get("max_iter", 25))
            checks.expect(f"{path.stem} Picard converged", report.converged,
                          f"final delta {report.final_delta:.3e}")
            checks.note(f"{path.stem}.picard_final_delta", report.final_delta)
            checks.note(f"{path.stem}.picard_iters", report.iterations)


def _shrink(cfg):
    """A smaller copy of a golden config for smoke runs."""
    num = dict(cfg.get("numerics", {}))
    if cfg["command"] == "pde":
        # the committed age grid: a cut age domain loses mass past 1e-3
        num.update(n_m=[50], T=0.05, save_times=[0.05])
    elif "T" in num:
        num["T"] = min(num["T"], 0.2)
        if "t_eval" in num:
            num["t_eval"] = num["T"]
    if "save_times" in num and cfg["command"] == "simulate":
        num["save_times"] = [num["T"]]
    return dict(cfg, numerics=num)


class PathintPoints:
    """The CLI pathint command on a few seeded evaluation points.

    The points sit where the expansion's cost does not depend on the exact
    draw: for adaptation-1d at t = 0.25, memories in [-0.88, -0.78] are
    reached by one- and two-jump paths only, and memories in [-0.65, -0.5]
    by one-jump paths only.  One point with a >= t takes the closed form.
    """

    name = "pathint-points"
    T = 0.25
    TAIL_EPS = 1e-4

    def setup(self, seed, size, workdir):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        T = self.T

        def point(a_lo, a_hi, m_lo, m_hi):
            return [T, float(T * rng.uniform(a_lo, a_hi)),
                    float(rng.uniform(m_lo, m_hi))]

        pts = [point(0.3, 0.7, -0.65, -0.5), point(1.2, 2.0, -0.5, -0.2)]
        if size == "full":
            pts += [point(0.3, 0.7, -0.88, -0.78) for _ in range(2)]
        cfg = {"schema_version": 1, "command": "pathint",
               "model": {"preset": "adaptation-1d"},
               "numerics": {"T": T, "tail_epsilon": self.TAIL_EPS,
                            "eval_points": pts},
               "seed": child_seed(seed, 0) % (2 ** 31)}
        self.workdir = workdir
        self.config = workdir / "pathint.json"
        self.config.write_text(json.dumps(cfg, indent=2))
        self.n_points = len(pts)
        self.reference = None

    def run_pass(self, checks):
        out = _fresh_dir(self.workdir / "pathint-out")
        code = cli.run(self.config, out_override=out, strict=True,
                       threads_override=1)
        checks.expect("pathint exit code", code == cli.EXIT_OK, str(code))
        table = out / "pathint.csv"
        if not table.exists():
            checks.expect("pathint.csv written", False)
            return
        data = table.read_bytes()
        with open(table, newline="") as fh:
            rows = list(csv.DictReader(fh))
        checks.expect("one row per point", len(rows) == self.n_points, str(len(rows)))
        for i, row in enumerate(rows):
            rho = float(row["rho"])
            bound = float(row["truncation_bound"])
            checks.expect(f"point {i} finite nonnegative",
                          math.isfinite(rho) and rho >= 0.0, repr(rho))
            checks.expect(f"point {i} truncation bound", bound < self.TAIL_EPS,
                          repr(bound))
        checks.note("rho", [float(r["rho"]) for r in rows])
        if self.reference is None:
            self.reference = data
        checks.expect("pathint.csv byte-identical", data == self.reference)


WORKLOADS = {w.name: w for w in (PdePresets, GoldenCli, PathintPoints)}
