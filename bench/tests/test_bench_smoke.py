"""Tiny-size runs of every workload through the benchmark's main().

The runs go through bench/run.py's main() in the test process, so they do not
pay a fresh interpreter's numpy/scipy import each; the fresh set-up process
that setup_s times is still started.  The command line itself is exercised by
test_fails_without_package_sources.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
PATCHED = ("model.intensity_eval", "pde.solve_alm_pde", "cli.run",
           "particle.simulate_network", "pathint.density_at")


def _entry_points():
    import almsim

    out = {}
    for dotted in PATCHED:
        mod, attr = dotted.split(".")
        __import__(f"almsim.{mod}")
        out[dotted] = getattr(getattr(almsim, mod), attr)
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace, monkeypatch, capsys):
    # main() prepends to sys.path and sets OPENBLAS_NUM_THREADS; undo both
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setitem(os.environ, "OPENBLAS_NUM_THREADS",
                        os.environ.get("OPENBLAS_NUM_THREADS", ""))
    before = _entry_points()
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace), "--size", "tiny"])
    out = capsys.readouterr().out
    # traced runs must leave no wrapper behind for the tests that follow
    assert _entry_points() == before
    assert code == 0, out
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, out
    assert result["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for p in BENCH["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p,
                        ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "bench/run.py", "--workload", WORKLOADS[0],
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
