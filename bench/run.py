"""almsim benchmark: one workload per run, end-to-end or traced.

Run from the repository root:

    python3 bench/run.py --workload pde-presets --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics (setup_s, wall_s, peak_rss_mb) with
no tracing installed.  --trace 1 alternates untraced and traced passes and
reports the per-layer metrics of the traced pass with the median wall time.
Every run checks the program's outputs and counts failed checks against
attempted ones.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the lines before it carry
the environment record, sample counts, spreads and diagnostic values.  Full
records and span traces go to .bench_work/ in the repository root.

The package is imported from src/ of the same checkout; the run fails with
exit code 2 when it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("pde-presets", "golden-cli", "pathint-points")
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}
SETUP_REPEATS = {"full": 5, "tiny": 1}
CHILD_TIMEOUT_S = 120
BLAS_THREADS = 1


def nproc():
    return len(os.sched_getaffinity(0))


def limit_blas_threads():
    """Runs OpenBLAS single-threaded; must run before numpy is imported.

    Single-threaded BLAS was no slower on the PDE grids (2-CPU KVM guest) and
    is less exposed to whatever else runs on the second CPU.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)


def git_commit():
    """The checked-out commit read from .git, or "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_steal_s():
    """Seconds of CPU time the hypervisor took from this machine since boot
    (all CPUs), or None where /proc/stat does not report it."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def environment(loadavg):
    import numpy
    import scipy

    return {"nproc": nproc(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas_threads": BLAS_THREADS, "git_commit": git_commit(),
            "loadavg_start": [round(v, 2) for v in loadavg],
            "machine": platform.machine()}


def import_package():
    if not (SRC / "almsim" / "__init__.py").is_file():
        raise RuntimeError(f"almsim sources not found under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import almsim

    if Path(almsim.__file__).resolve().parent != (SRC / "almsim").resolve():
        raise RuntimeError(f"almsim imported from {almsim.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# set-up


def setup_workload(name, seed, size, workdir):
    from bench.workloads import WORKLOADS

    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[name]()
    wl.setup(seed, size, workdir)
    return wl


def time_fresh_setup(args, workdir):
    """Seconds from launching a fresh interpreter until it has set up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--workdir", str(workdir)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    if line.strip() != "READY" or code != 0:
        raise RuntimeError(f"set-up process failed with exit code {code}")
    return elapsed


# ---------------------------------------------------------------------------
# measurement


def run_pass(step, checks):
    try:
        step(checks)
    except Exception as exc:  # a crashing pass counts as a failed check
        traceback.print_exc(file=sys.stderr)
        checks.expect(f"{step.__name__} completed", False, repr(exc))


def measure(wl, seconds, trace, checks):
    """Runs one warm-up pass, then passes until `seconds` have elapsed; with
    trace, odd passes are traced.  Every pass is checked.

    The warm-up pass is not a wall_s sample: the first pass in a process can
    run slower (golden-cli on a 2-CPU KVM guest: 5.2 s, then 4.9 s).  It is
    not in setup_s either, because that excess is smaller than the spread
    between passes; it is printed and recorded beside the metrics.  Checks
    that a workload makes once per run (final_checks) follow the passes,
    untimed.

    Returns (warm-up wall, untraced walls, traced passes).
    """
    from bench import probes
    from bench.tracer import Tracer

    walls = []
    traced = []
    t0 = time.perf_counter()
    run_pass(wl.run_pass, checks)
    warmup = time.perf_counter() - t0
    start = time.perf_counter()
    k = 0
    while True:
        if trace and k % 2 == 1:
            tracer = Tracer()
            probes.install(tracer)
            c0 = time.process_time()
            try:
                with tracer.span("harness.pass") as root:
                    run_pass(wl.run_pass, checks)
            finally:
                tracer.uninstall()
            traced.append((root.duration, tracer, root.id,
                           time.process_time() - c0))
        else:
            t0 = time.perf_counter()
            run_pass(wl.run_pass, checks)
            walls.append(time.perf_counter() - t0)
        k += 1
        if time.perf_counter() - start >= seconds and k >= (2 if trace else 1):
            break
    if hasattr(wl, "final_checks"):
        run_pass(wl.final_checks, checks)
    return warmup, walls, traced


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def layer_metrics(wl, walls, traced):
    """Per-layer metrics from the traced pass with the median wall time."""
    from bench import probes
    from bench.tracer import Tracer, hot_call_overhead_s

    traced = sorted(traced, key=lambda p: p[0])
    _, tracer, root_id, cpu_s = traced[(len(traced) - 1) // 2]
    m = probes.pass_metrics(tracer, root_id, cpu_s)
    m["harness.trace_overhead"] = (statistics.median(p[0] for p in traced)
                                   / statistics.median(walls) - 1.0)
    m["harness.hot_overhead_s"] = (m["model.intensity_eval.calls"]
                                   * hot_call_overhead_s())
    extra = None
    if hasattr(wl, "extras"):
        extra = Tracer()
        probes.install(extra)
        try:
            wl.extras()
        finally:
            extra.uninstall()
        border = [s.duration for s in extra.spans if s.name == "pde.border_step"]
        m["pde.border_step_ms"] = 1e3 * statistics.median(border)
    return m, tracer, extra


def write_json(path, obj):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=1, default=str))


def report_layers(args, wl, walls, traced, env):
    """Prints the per-layer metrics and writes the span trace."""
    from bench import probes

    values, tracer, extra = layer_metrics(wl, walls, traced)
    unattributed = values["harness.unattributed_s"]
    mods = sum(values[f"{m}.self_s"] for m in probes.MODULES)
    print(f"traced passes {len(traced)}, untraced passes {len(walls)}; "
          f"per-layer metrics of the median traced pass")
    print(f"self-time sum: modules {mods:.4f} s + unattributed {unattributed:.4f}"
          f" s = {mods + unattributed:.4f} s; traced wall_s "
          f"{values['harness.traced_wall_s']:.4f} s")
    units = {k: u for k, (u, _) in probes.LAYER_METRICS.items()}
    for k in sorted(values):
        print(f"  {k:40s} {values[k]:.6g} {units[k]}")
    write_json(WORK / "traces" / f"{args.workload}-seed{args.seed}.json",
               {"env": env,
                "passes": [{"wall_s": w, "root": r, "cpu_s": c, **t.to_dict()}
                           for w, t, r, c in traced],
                "extras": extra.to_dict() if extra else None})
    return values, units


def report_end_to_end(setups, own_setup, warmup, walls):
    values = {"setup_s": statistics.median(setups),
              "wall_s": statistics.median(walls),
              "peak_rss_mb":
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    q1, q3 = quartiles(walls)
    print(f"setup_s      {values['setup_s']:.4f} s   median of {len(setups)} "
          f"fresh processes {[round(v, 4) for v in setups]} "
          f"(in-process part {own_setup:.4f} s)")
    print(f"wall_s       {values['wall_s']:.4f} s   median of {len(walls)} "
          f"passes, q1 {q1:.4f} q3 {q3:.4f}, samples "
          f"{[round(v, 4) for v in walls]}")
    print(f"warm-up pass {warmup:.4f} s   first pass of this process, in "
          f"neither wall_s nor setup_s; {warmup - values['wall_s']:+.4f} s "
          f"against wall_s")
    print(f"peak_rss_mb  {values['peak_rss_mb']:.1f} MiB")
    return values, E2E_UNITS


def run_workload(args):
    limit_blas_threads()
    loadavg = os.getloadavg()
    import_package()
    from bench.workloads import Checks

    workdir = WORK / f"run-{os.getpid()}"
    try:
        # setup_s is an end-to-end metric, so traced runs skip its samples
        setups = [time_fresh_setup(args, workdir / f"setup{k}")
                  for k in range(0 if args.trace else SETUP_REPEATS[args.size])]
        checks = Checks()
        t0 = time.perf_counter()
        wl = setup_workload(args.workload, args.seed, args.size, workdir / "main")
        own_setup = time.perf_counter() - t0
        env = environment(loadavg)
        steal0 = cpu_steal_s()
        warmup, walls, traced = measure(wl, args.seconds, args.trace, checks)
        steal1 = cpu_steal_s()
        env["cpu_steal_s_during_passes"] = (None if steal0 is None
                                            else round(steal1 - steal0, 3))

        print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
              f"  size {args.size}")
        print("env " + json.dumps(env, sort_keys=True))
        if args.trace:
            values, units = report_layers(args, wl, walls, traced, env)
        else:
            values, units = report_end_to_end(setups, own_setup, warmup, walls)
        print(f"failed_ratio {checks.failed / checks.attempted:.4g} "
              f"({checks.failed} of {checks.attempted} checks failed)")
        for f in checks.failures[:20]:
            print(f"  FAILED {f}")
        print("diag " + json.dumps(checks.diag, sort_keys=True, default=float))
        write_json(WORK / "results" /
                   f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
                   {"workload": args.workload, "seed": args.seed,
                    "size": args.size, "trace": args.trace, "env": env,
                    "metrics": values, "setup_s_samples": setups,
                    "in_process_setup_s": own_setup, "warmup_pass_s": warmup,
                    "wall_s_samples": walls,
                    "checks_attempted": checks.attempted,
                    "checks_failed": checks.failed,
                    "failures": checks.failures, "diag": checks.diag})
        print(json.dumps({"correct": checks.failed == 0,
                          "attempted": checks.attempted, "failed": checks.failed,
                          "metrics": {k: {"value": float(v), "unit": units[k]}
                                      for k, v in values.items()}}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args):
    """Runs every workload in its own process and prints one summary."""
    results = {}
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        code = code or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            results[name] = json.loads(lines[-1])
    if not args.trace:
        print(f"{'workload':16s} {'setup_s':>9s} {'wall_s':>9s} "
              f"{'peak_rss_mb':>11s} {'failed_ratio':>12s}  checks")
        for name, r in results.items():
            m = r["metrics"]
            print(f"{name:16s} {m['setup_s']['value']:9.4f} {m['wall_s']['value']:9.4f}"
                  f" {m['peak_rss_mb']['value']:11.1f}"
                  f" {r['failed'] / r['attempted']:12.4g}  {r['attempted']}")
    print(json.dumps(results))
    return code


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny only exercises the code paths")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("need --seed >= 0")
    if args.workload == "all":
        return run_all(args)
    try:
        if args.setup_only:
            limit_blas_threads()
            import_package()
            setup_workload(args.workload, args.seed, args.size, args.workdir)
            print("READY", flush=True)
            return 0
        return run_workload(args)
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
