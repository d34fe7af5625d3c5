"""Import footprint: scipy and jsonschema load only in the calls that use them.

Each check runs in a fresh interpreter, since this test process has long
since loaded both.
"""

import os
import subprocess
import sys
from pathlib import Path

import almsim

SRC = str(Path(almsim.__file__).resolve().parents[1])


def _loaded_after(code):
    """Names in sys.modules after running code in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    probe = code + "\nimport sys\nprint(' '.join(sorted(sys.modules)))\n"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return set(out.split())


def test_package_import_loads_neither_scipy_nor_jsonschema():
    mods = _loaded_after("import almsim, almsim.cli, almsim.metrics")
    assert "numpy" in mods
    assert "scipy" not in mods
    assert "jsonschema" not in mods


def test_pde_solves_load_no_scipy_stats():
    # stp starts from a truncated normal; adaptation-1d's baseline reads the
    # mean of its uniform initial memory law at every step
    mods = _loaded_after(
        "from almsim import pde, presets\n"
        "grid = pde.Grid(a_max=3.0, n_a=60, m_lo=(-1.5,), m_hi=(1.0,),\n"
        "                n_m=(50,), T=0.1, dt=0.05)\n"
        "for name in ('stp', 'adaptation-1d'):\n"
        "    sol = pde.solve_alm_pde(presets.preset(name), grid)\n"
        "    assert len(sol.mass_trace) == 3\n")
    assert "scipy.special" in mods     # the truncated-normal initial density
    assert "scipy.stats" not in mods


def test_particles_on_uniform_laws_load_no_scipy():
    mods = _loaded_after(
        "from almsim import limit, model, particle, presets\n"
        "spec = presets.preset('adaptation-1d')\n"
        "particle.simulate_network(spec, 5, 0.2, 0)\n"
        "limit.solve_x_picard(spec, 0.2, dt=0.05, n_particles=100, seed=0)\n"
        "model.validate_assumptions(spec, n_samples=200, seed=0)\n")
    assert "scipy" not in mods


def test_pathint_point_loads_no_scipy_integrate():
    mods = _loaded_after(
        "import numpy as np\n"
        "from almsim import pathint, presets\n"
        "from almsim.limit import XPath\n"
        "spec = presets.preset('adaptation-1d')\n"
        "x = XPath(np.array([0.0, 1.0]), np.zeros(2))\n"
        "cfg = pathint.PathIntegralConfig(K_max=3)\n"
        "for a in (0.2, 0.8):\n"
        "    val, _ = pathint.density_at(0.5, a, np.array([-0.5]),\n"
        "                                spec.init_law, x, cfg, spec)\n"
        "    assert val > 0.0\n")
    assert "scipy.special" in mods     # the Poisson tail
    assert "scipy.integrate" not in mods
