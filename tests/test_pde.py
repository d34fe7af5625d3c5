"""Tests for the semi-Lagrangian density solver."""

import dataclasses
import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from almsim import model as mdl
from almsim import pde, presets


def _w(nodes):
    w = np.full(nodes.shape, nodes[1] - nodes[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _l1(grid, r1, r2):
    return float(_w(grid.a_nodes) @ np.abs(r1 - r2) @ _w(grid.m_nodes(0)))


def _spec(f=None, jump=None, init=None, Lambda=(1.0,), J=0.0, tau=0.5):
    return mdl.ModelSpec(
        d=1, Lambda=Lambda,
        psi=mdl.PsiParams(K=1.0, kappa=1.0),
        f=f or mdl.IntensitySpec(family="constant", f_min=1.0, f_max=1.0),
        h=mdl.InteractionSpec(kernel="exponential", tau=tau, J=J,
                              modulation="none"),
        jump=jump or mdl.JumpSpec(family="translation", alpha_vec=(-0.3,)),
        init_law=init or mdl.InitialLaw(age=("exponential", 1.0),
                                        mem=(("uniform", -1.0, 0.0),)),
        H=mdl.BaselineSpec(family="zero"),
    )


def _smooth_interacting(Lambda=(0.5,)):
    return _spec(
        f=mdl.IntensitySpec(family="sigmoid-affine", f_min=0.3, f_max=1.5,
                            c_a=0.0, c_x=1.0, c_m=(0.5,), b=0.0),
        jump=mdl.JumpSpec(family="translation", alpha_vec=(-0.5,)),
        init=mdl.InitialLaw(age=("exponential", 1.0),
                            mem=(("truncnorm", -0.5, 0.35, -1.7, 0.5),)),
        Lambda=Lambda, J=0.7)


# ---------------------------------------------------------------------------
# grid plumbing


def test_grid_requires_dt_dividing_cells():
    with pytest.raises(mdl.ConfigurationError):
        pde.Grid(a_max=1.0, n_a=30, m_lo=(-1.0,), m_hi=(1.0,), n_m=(10,),
                 T=1.0, dt=0.02)
    with pytest.raises(mdl.ConfigurationError):
        pde.Grid(a_max=1.0, n_a=50, m_lo=(-1.0,), m_hi=(1.0,), n_m=(10,),
                 T=1.03, dt=0.02)
    g = pde.Grid(a_max=1.0, n_a=50, m_lo=(-1.0,), m_hi=(1.0,), n_m=(10,),
                 T=1.0, dt=0.02)
    assert g.a_nodes[1] - g.a_nodes[0] == pytest.approx(g.dt)


def test_initial_mass_normalized():
    spec = _spec()
    g = pde.Grid(a_max=8.0, n_a=200, m_lo=(-2.5,), m_hi=(0.5,), n_m=(60,),
                 T=0.2, dt=0.04)
    sol = pde.solve_alm_pde(spec, g, save_times=(0.0,))
    assert abs(pde.mass(sol.rho_at(0.0), g) - 1.0) < 1e-10
    assert abs(sol.mass_trace[0] - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# solver oracles


def test_renewal_age_marginal():
    # constant rate 1, no interaction, exponential(1) initial ages: the age
    # law is stationary, so the marginal stays e^{-a}; check for a < t
    spec = _spec()
    g = pde.Grid(a_max=8.0, n_a=400, m_lo=(-2.5,), m_hi=(0.5,), n_m=(80,),
                 T=2.0, dt=0.02)
    sol = pde.solve_alm_pde(spec, g, save_times=(2.0,))
    am = pde.age_marginal(sol.rho_at(2.0), g)
    a = g.a_nodes
    sel = a < 2.0 - 1e-9
    wa = np.full(int(sel.sum()), g.dt)
    wa[0] *= 0.5
    err = float(np.sum(np.abs(am[sel] - np.exp(-a[sel])) * wa))
    assert err < 5e-2
    assert float(np.abs(sol.mass_trace - 1.0).max()) < 1e-3
    assert float(np.nanmax(sol.flux_rel)) < 1e-3


def test_near_pure_transport_is_pushforward():
    # f_min = 1e-6 approximates zero intensity: the density is the drift
    # pushforward of u0 and mass is conserved to quadrature accuracy
    spec = _spec(
        f=mdl.IntensitySpec(family="constant", f_min=1e-6, f_max=1e-6),
        init=mdl.InitialLaw(age=("uniform", 0.5, 2.0),
                            mem=(("truncnorm", -0.8, 0.4, -2.2, 0.4),)))
    T = 1.0
    g = pde.Grid(a_max=8.0, n_a=400, m_lo=(-2.5,), m_hi=(0.5,), n_m=(120,),
                 T=T, dt=0.02)
    sol = pde.solve_alm_pde(spec, g, save_times=(T,))
    assert float(np.abs(sol.mass_trace - 1.0).max()) < 1e-7
    A = g.a_nodes[:, None]
    mn = g.m_nodes(0)
    exact = (spec.init_law.density_age(A - T)
             * (spec.init_law.density_mem((math.e ** T * mn)[:, None])
                * math.e ** T)[None, :])
    # rows born before t = 0 move without a memory remap, so the one
    # conversion to the m grid at T is the only smoothing
    assert _l1(g, sol.rho_at(T), exact) < 2.61e-2


def test_near_pure_transport_is_pushforward_d2():
    # the same check in d = 2, with smooth laws on _d2_spec's grid
    spec = dataclasses.replace(
        _d2_spec(), f=mdl.IntensitySpec(family="constant", f_min=1e-6, f_max=1e-6),
        init_law=mdl.InitialLaw(age=("uniform", 0.5, 2.0),
                                mem=(("truncnorm", -0.5, 0.3, -1.5, 0.5),
                                     ("truncnorm", 0.4, 0.2, -0.5, 1.0))))
    T = 1.0
    g = _d2_grid(T)
    sol = pde.solve_alm_pde(spec, g, save_times=(T,))
    assert float(np.abs(sol.mass_trace - 1.0).max()) < 1e-7
    s = np.exp(spec.lam * T)
    exact = (spec.init_law.density_age(g.a_nodes[:, None, None] - T)
             * (spec.init_law.density_mem(pde._m_mesh(g) * s) * np.prod(s))[None])
    w = np.einsum("i,j,k->ijk", _w(g.a_nodes), _w(g.m_nodes(0)), _w(g.m_nodes(1)))
    assert float(np.sum(w * np.abs(sol.rho_at(T) - exact))) < 1.68e-1


def test_nonnegativity_and_lemma_a1_bound():
    spec = _smooth_interacting()
    g = pde.Grid(a_max=8.0, n_a=200, m_lo=(-3.0,), m_hi=(0.6,), n_m=(80,),
                 T=1.0, dt=0.02)
    sol = pde.solve_alm_pde(spec, g, save_times=(0.5, 1.0))
    for r in sol.rhos:
        assert r.min() >= 0.0
    ts = sol.x.grid
    assert np.all(sol.mass_trace <= np.exp(ts * spec.f_max) + 1e-12)


def test_solver_deterministic():
    spec = _smooth_interacting()
    g = pde.Grid(a_max=8.0, n_a=200, m_lo=(-3.0,), m_hi=(0.6,), n_m=(80,),
                 T=0.5, dt=0.02)
    s1 = pde.solve_alm_pde(spec, g, save_times=(0.5,))
    s2 = pde.solve_alm_pde(spec, g, save_times=(0.5,))
    assert np.array_equal(s1.rho_at(0.5), s2.rho_at(0.5))
    assert np.array_equal(s1.x.values, s2.x.values)


def test_grid_dimension_mismatch():
    spec = _spec()
    g = pde.Grid(a_max=8.0, n_a=200, m_lo=(-1.0, -1.0), m_hi=(1.0, 1.0),
                 n_m=(10, 10), T=0.2, dt=0.04)
    with pytest.raises(mdl.ConfigurationError):
        pde.solve_alm_pde(spec, g)


def test_rho_at_missing_time():
    spec = _spec()
    g = pde.Grid(a_max=8.0, n_a=200, m_lo=(-2.5,), m_hi=(0.5,), n_m=(40,),
                 T=0.2, dt=0.04)
    sol = pde.solve_alm_pde(spec, g, save_times=(0.2,))
    with pytest.raises(KeyError):
        sol.rho_at(0.1)


# ---------------------------------------------------------------------------
# border operator


def test_border_zero_density():
    spec = _spec()
    g = pde.Grid(a_max=8.0, n_a=200, m_lo=(-2.5,), m_hi=(0.5,), n_m=(60,),
                 T=1.0, dt=0.04)
    rho = np.zeros((len(g.a_nodes), len(g.m_nodes(0))))
    assert np.abs(pde.border_step(spec, g, rho, 0.0)).max() == 0.0


def test_border_constant_rate_factorizes():
    # constant f and translation jump: b(m) = lam * (1 - e^{-a_max}) * q(m-a)
    # for separable rho(a, m) = e^{-a} q(m)
    spec = _spec(f=mdl.IntensitySpec(family="constant", f_min=1.3, f_max=1.3))
    g = pde.Grid(a_max=8.0, n_a=400, m_lo=(-2.5,), m_hi=(0.5,), n_m=(120,),
                 T=1.0, dt=0.02)
    mn = g.m_nodes(0)
    mu, sig = -0.8, 0.3
    q = np.exp(-(mn - mu) ** 2 / (2 * sig ** 2)) / (sig * math.sqrt(2 * math.pi))
    rho = np.exp(-g.a_nodes)[:, None] * q[None, :]
    b = pde.border_step(spec, g, rho, 0.0)
    shifted = np.exp(-(mn - mu + 0.3) ** 2 / (2 * sig ** 2)) \
        / (sig * math.sqrt(2 * math.pi))
    exact = 1.3 * (1.0 - math.exp(-8.0)) * shifted
    assert float(np.sum(np.abs(b - exact) * _w(mn))) < 1e-3
    # flux balance: border mass equals the total intensity mass
    flux = pde.mass(1.3 * rho, g)
    assert abs(float(np.sum(b * _w(mn))) - flux) / flux < 1e-3


def test_border_keeps_the_mass_next_to_the_box_edge():
    # the jump sends [-1, 0] to [-1.31, -0.31], inside the box, so the border
    # holds the whole loss mass.  The targets m + 0.31 of the nodes lie 0.04
    # below the upper box edge at most; a pull that kept only the mass
    # between its in-box targets lost that last cell (border mass 0.961)
    spec = _spec(jump=mdl.JumpSpec(family="translation", alpha_vec=(-0.31,)))
    g = pde.Grid(a_max=4.0, n_a=40, m_lo=(-2.0,), m_hi=(0.0,), n_m=(40,),
                 T=0.1, dt=0.1)
    mn = g.m_nodes(0)
    rho = np.exp(-g.a_nodes)[:, None] * (mn >= -1.0)[None, :]
    b = pde.border_step(spec, g, rho, 0.0)
    assert pde.lm_mass(b, [mn]) / pde.mass(rho, g) == pytest.approx(
        1.0, rel=0.0, abs=1e-12)


def _d2_spec():
    return mdl.ModelSpec(
        d=2, Lambda=(1.0, 0.5),
        psi=mdl.PsiParams(K=1.0, kappa=1.0),
        f=mdl.IntensitySpec(family="sigmoid-affine", f_min=0.3, f_max=2.0,
                            c_a=0.5, c_x=0.8, c_m=(0.7, -0.4), b=0.1),
        h=mdl.InteractionSpec(kernel="erlang", tau=0.4, J=0.9,
                              modulation="linear-in-m", mod_intercept=1.0,
                              mod_slope=0.3),
        jump=mdl.JumpSpec(family="affine-contraction", alpha=0.3,
                          offset=(0.2, -0.1)),
        init_law=mdl.InitialLaw(age=("exponential", 1.0),
                                mem=(("uniform", -1.0, 0.0),
                                     ("uniform", 0.0, 0.5))),
        H=mdl.BaselineSpec(family="zero"),
    )


def _d2_grid(T, n_m=(20, 16)):
    return pde.Grid(a_max=4.0, n_a=40, m_lo=(-1.5, -0.5), m_hi=(0.5, 1.0),
                    n_m=n_m, T=T, dt=0.1)


@pytest.mark.parametrize("jump", [
    mdl.JumpSpec(family="translation", alpha_vec=(-0.2, 0.15)),
    mdl.JumpSpec(family="affine-contraction", alpha=0.3, offset=(0.2, -0.1)),
    mdl.JumpSpec(family="affine-contraction", alpha=0.3)])
def test_d2_jump_tables_match_model_inverse(jump):
    # axis k of the jump pull takes its targets from coordinate k of the
    # model's inverse and its slope from the per-axis share of the log-det
    spec = dataclasses.replace(_d2_spec(), jump=jump)
    g = _d2_grid(1.0)
    nodes = [g.m_nodes(k) for k in range(2)]
    for k, (n, tab) in enumerate(zip(nodes, pde._jump_tables(spec, nodes))):
        pts = np.full((n.size, 2), 0.3)
        pts[:, k] = n
        ref = pde._remap_table(
            n, mdl.jump_inverse(jump, pts)[:, k],
            np.exp(mdl.jump_inverse_jacobian_logdet(jump, pts) / 2.0))
        assert np.array_equal(tab.idx, ref.idx)
        for name in ("w_m", "w_0", "w_1"):
            assert np.allclose(getattr(tab, name), getattr(ref, name),
                               rtol=1e-12, atol=1e-14)


def _mu_states(spec, g, sol, steps, u0=None):
    """The march's states in mu units after steps 1 to steps, rebuilt from
    its definition.  Row i at step n holds its density in mu = sigma m with
    sigma = exp(dt Lambda min(i, n)); a step shifts the rows by one and
    multiplies them by exp(-dt f) at the midpoint of the characteristic,
    f at m = mu / sigma.  Each row's loss density f u goes to the border
    through the jump pull with targets sigma gamma^-1(m), rows i >= n as one
    age integral, and two fixed-point sweeps b = fixed + w_0 pull(f b) add
    the age-zero node.  Row 0 is taken from sol.borders, and negative nodes
    are clipped.  Yields (n, u_n, f u_n, the border from f u_n)."""
    dt, na, d = g.dt, g.a_nodes.size, g.d
    A = g.a_nodes.reshape((na,) + (1,) * d)
    mesh = pde._m_mesh(g)
    x = sol.x.values
    u = (spec.init_law.density_age(A) * spec.init_law.density_mem(mesh)
         if u0 is None else np.broadcast_to(u0(A, mesh), (na,) + mesh.shape[:-1]))
    u = u / pde.mass(u, g)
    wa = _w(g.a_nodes)
    nodes = [g.m_nodes(k) for k in range(d)]
    pulls = pde._jump_pulls(spec, nodes)
    jump_tab = pde._jump_tables(spec, nodes)

    def f(ages, k, x_t, back=0.0):
        sig = np.exp(np.multiply.outer(k * dt - back, spec.lam))
        return spec.intensity(ages, mesh / sig.reshape(k.shape + (1,) * d + (d,)), x_t)

    for n in range(1, steps + 1):
        k = np.minimum(np.arange(na), n)
        new = np.zeros_like(u)
        new[1:] = u[:-1] * np.exp(-dt * f(A[1:] - dt / 2.0, k[1:],
                                          0.5 * (x[n - 1] + x[n]), dt / 2.0))
        F = f(A, k, x[n])
        fixed = 0.0
        for i in range(1, n + 1):
            rows = slice(i, i + 1) if i < n else slice(n, None)
            sig = np.exp(i * dt * spec.lam)
            tabs = [pde._remap_table(nd, s * tg, s * ds)
                    for nd, (tg, ds), s in zip(nodes, pulls, sig)]
            fixed = fixed + pde._border(F[rows] * new[rows], wa[rows], tabs)
        b = fixed
        for _ in range(2):
            b = fixed + wa[0] * pde._pull(F[0] * b, jump_tab, 0)
        new[0] = sol.borders[n]
        new[new < 0.0] = 0.0
        yield n, new, F * new, b
        u = new


@pytest.mark.parametrize("case", ["adaptation-1d", "stp", "d2"])
def test_border_step_matches_march_border(case):
    # the age-zero row after each step is border_step's helper _border on
    # the state in mu units, one call per young row with the table of its
    # index and one for the rows i >= n, and then two fixed-point sweeps
    if case == "d2":
        spec, g = _d2_spec(), _d2_grid(T=0.3)
    else:
        spec = presets.preset(case)
        dg = presets.default_grid(case)
        g = pde.Grid(a_max=dg.a_max, n_a=300, m_lo=dg.m_lo, m_hi=dg.m_hi,
                     n_m=(80,), T=0.15, dt=0.05)
    sol = pde.solve_alm_pde(spec, g)
    for n, _, _, b in _mu_states(spec, g, sol, 3):
        row = sol.borders[n]
        assert row.max() > 0.0
        assert np.abs(b - row).max() <= 1e-14 * np.abs(row).max()


_BLAS_PROBE = """
import hashlib, sys
from almsim import pde, presets
sys.path.insert(0, sys.argv[1])
from test_pde import _d2_grid, _d2_spec
runs = [(presets.preset("adaptation-1d"),
         presets.default_grid("adaptation-1d", T=0.2)),
        (_d2_spec(), _d2_grid(T=0.5, n_m=(40, 30)))]
for spec, grid in runs:
    sol = pde.solve_alm_pde(spec, grid, save_times=[grid.T])
    for arr in (sol.rho_at(grid.T), sol.x.values, sol.mass_trace,
                sol.flux_rel, sol.scale_trace, sol.borders):
        print(hashlib.sha256(arr.tobytes()).hexdigest())
"""


def test_solution_bits_independent_of_blas_threads():
    # BLAS sums in an order set by its thread count; the solver's weighted
    # sums avoid it, so 1 and 2 OpenBLAS threads give the same bytes
    path = [os.path.dirname(os.path.dirname(pde.__file__))]
    path += [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    here = os.path.dirname(os.path.abspath(__file__))
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(path))
        proc = subprocess.run([sys.executable, "-c", _BLAS_PROBE, here],
                              env=env, capture_output=True, text=True,
                              timeout=600)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout.split())
    assert len(out[0]) == 12
    assert out[0] == out[1]


def _reduced_default(name, T=0.25):
    dg = presets.default_grid(name)
    return pde.Grid(a_max=dg.a_max, n_a=300, m_lo=dg.m_lo, m_hi=dg.m_hi,
                    n_m=(80,), T=T, dt=0.05)


def _lobe_u0(A, mesh):
    # a density with a negative lobe in m, which the march clips
    m = mesh[..., 0]
    return np.exp(-A) * (np.exp(-(m + 1.0) ** 2 / 0.1)
                         - 0.4 * np.exp(-(m + 0.2) ** 2 / 0.01))


def _lobe_grid(n_m):
    return pde.Grid(a_max=8.0, n_a=200, m_lo=(-2.5,), m_hi=(0.5,), n_m=(n_m,),
                    T=0.4, dt=0.04)


def _block_case(case):
    if case in presets.PRESET_NAMES:
        return presets.preset(case), _reduced_default(case), {}
    if case == "d2":
        return _d2_spec(), _d2_grid(T=0.3), {}
    if case == "custom-jump":
        spec = _spec(
            f=mdl.IntensitySpec(family="sigmoid-affine", f_min=0.3,
                                f_max=1.5, c_a=0.6, c_x=1.0, c_m=(0.5,)),
            jump=mdl.JumpSpec(family="custom",
                              fn=lambda m: 0.5 * np.sinh(m) - 0.3,
                              fn_inv=lambda m: np.arcsinh(2.0 * (m + 0.3))),
            J=0.7)
        return spec, _lobe_grid(80), {}
    return _spec(), _lobe_grid(80), {"u0": _lobe_u0}


@pytest.mark.parametrize("case", list(presets.PRESET_NAMES) + [
    "d2", "custom-jump", "clip"])
def test_solution_bits_independent_of_block_size(case, monkeypatch):
    # every sum of a step runs over one age row or over all of them, so the
    # row blocks change no bit: the smallest block (two rows), a size that
    # does not divide the rows, and one block for the whole grid.  The
    # m-grid conversion for the callback changes none either
    spec, grid, kw = _block_case(case)
    row = int(np.prod([n + 1 for n in grid.n_m]))
    digests = []
    for elems, callback in ((1, True), (3 * row + 1, False), (1 << 40, True)):
        monkeypatch.setattr(pde, "_BLOCK_ELEMS", elems)
        seen = []

        def cb(n, t, rho, x_t, F):
            assert F.shape == rho.shape and not F.flags.writeable
            if spec.f.age_free:
                assert F.strides[0] == 0    # evaluated on one row
            if spec.f.memory_free:          # evaluated on one memory node
                assert not any(F.strides[1:])
            seen.append(pde.mass(rho, grid))

        sol = pde.solve_alm_pde(spec, grid, save_times=[grid.T],
                                step_callback=cb if callback else None, **kw)
        arrs = [sol.rho_at(grid.T), sol.x.values, sol.mass_trace,
                sol.flux_rel, sol.scale_trace, sol.borders]
        digests.append([hashlib.sha256(a.tobytes()).hexdigest() for a in arrs]
                       + [sol.clip_mass])
        # the m-grid densities the callback sees hold the mass of the state
        assert len(seen) == (grid.n_steps + 1 if callback else 0)
        if callback:
            assert np.allclose(seen, sol.mass_trace, rtol=5e-4, atol=0.0)
    assert digests[0] == digests[1] == digests[2]
    assert (sol.clip_mass > 0.0) == (case == "clip")
    # the traces are the trapezoid integrals of the state in mu units, clipped
    # rows included
    wm = [_w(grid.m_nodes(k)) for k in range(grid.d)]

    def m_int(arr):
        for w in reversed(wm):
            arr = arr @ w
        return arr

    for n, u, Fu, _ in _mu_states(spec, grid, sol, min(grid.n_steps, 4),
                                  kw.get("u0")):
        mass = float(_w(grid.a_nodes) @ m_int(u))
        flux = float(_w(grid.a_nodes) @ m_int(Fu))
        assert sol.mass_trace[n] == pytest.approx(mass, rel=1e-13, abs=0.0)
        assert sol.flux_rel[n] == pytest.approx(abs(m_int(u[0]) - flux) / flux,
                                                rel=1e-8, abs=1e-15)


@pytest.mark.parametrize("case", ["adaptation-1d", "stp", "edge"])
def test_m_grid_densities_keep_the_state_mass_past_a_max(case):
    # a march past a_max with a save at T and a callback at every step.  The
    # oldest rows have sigma = e^4, so their conversion and border targets
    # lie sigma h, more than the box width, apart and at most one is inside
    # the box.  "edge" has a memory law up to the upper box edge, which the
    # decay never reaches, so a pull whose last in-box target lies up to
    # sigma h below the edge must still keep that cell's mass.  The m-grid
    # densities hold the mass of the state in mu units, the border balances
    # the loss as at the decay-remap march (flux_rel 1.4e-5 on the presets,
    # 1.9e-6 on "edge"), and the mass of "edge" is that of a law inside the
    # box (the decay-remap march lost 7.7 % of it by t = 1)
    if case == "edge":
        spec = _spec(f=mdl.IntensitySpec(family="constant", f_min=0.5, f_max=0.5),
                     init=mdl.InitialLaw(age=("exponential", 1.0),
                                         mem=(("uniform", -1.0, 0.5),)))
        lo, hi = (-2.5,), (0.5,)
    else:
        spec, dg = presets.preset(case), presets.default_grid(case)
        lo, hi = dg.m_lo, dg.m_hi
    g = pde.Grid(a_max=4.0, n_a=80, m_lo=lo, m_hi=hi, n_m=(40,), T=5.0, dt=0.05)
    seen = []
    last = []

    def cb(n, t, rho, x_t, F):
        seen.append(pde.mass(rho, g))
        if n == g.n_steps:
            last.append(rho.copy())

    sol = pde.solve_alm_pde(spec, g, save_times=[g.T], step_callback=cb)
    assert np.array_equal(last[0], sol.rho_at(g.T))
    np.testing.assert_allclose(seen, sol.mass_trace, rtol=1e-12, atol=0.0)
    assert float(np.nanmax(sol.flux_rel)) < 2e-5
    if case == "edge":
        # with a constant f the mass does not depend on the memory law
        inner = dataclasses.replace(spec, init_law=mdl.InitialLaw(
            age=("exponential", 1.0), mem=(("uniform", -1.0, 0.0),)))
        np.testing.assert_allclose(sol.mass_trace,
                                   pde.solve_alm_pde(inner, g).mass_trace,
                                   rtol=1e-8, atol=0.0)


def test_clip_mass_is_a_trapezoid_mass():
    # the clip removes the negative lobe's trapezoid mass, which does not
    # grow with the memory resolution and stays below the unit total mass
    clips = [pde.solve_alm_pde(_spec(), _lobe_grid(n_m), u0=_lobe_u0).clip_mass
             for n_m in (40, 80, 160)]
    assert min(clips) > 0.0
    assert max(clips) < 1.0
    assert max(clips) <= 1.3 * min(clips)


# ---------------------------------------------------------------------------
# conservative remap


def _scipy_remap(arr, nodes, targets, dslope, axis):
    """Reference remap built on scipy's PchipInterpolator of the cumulative
    trapezoid mass: derivative at the clipped targets times |dslope|, zero
    outside the box, then each slice rescaled to the exact mass between the
    outermost clipped targets, or that mass spread evenly over the in-box
    targets where the samples integrate to zero."""
    a = np.moveaxis(np.asarray(arr, dtype=float), axis, -1)
    cell = 0.5 * (a[..., :-1] + a[..., 1:]) * (nodes[1] - nodes[0])
    cum = np.concatenate([np.zeros(a.shape[:-1] + (1,)),
                          np.cumsum(cell, axis=-1)], axis=-1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        p = PchipInterpolator(nodes, cum, axis=-1)
    t = np.asarray(targets, dtype=float)
    inside = (t >= nodes[0] - 1e-12) & (t <= nodes[-1] + 1e-12)
    tc = np.clip(t, nodes[0], nodes[-1])
    vals = p.derivative()(tc) * (np.abs(dslope) * inside)
    if inside.any():
        exact = p(tc.max()) - p(tc.min())
        den = vals @ _w(nodes)
        live = np.abs(den) > 1e-300
        ratio = np.divide(exact, den, out=np.ones_like(den), where=live)
        fill = exact[..., None] * inside / (_w(nodes) @ inside)
        vals = np.where((~live & (exact != 0.0))[..., None], fill,
                        vals * ratio[..., None])
    return np.moveaxis(vals, -1, axis)


@pytest.mark.parametrize("case", ["adaptation-1d", "stp", "custom"])
def test_remap_matches_scipy_pchip(case):
    # translation, affine contraction and a custom d = 1 jump, each on its
    # default grid, for the decay pull and the jump pull
    if case == "custom":
        # gamma(m) = sinh(m)/2 - 0.3: the inverse has a node-dependent
        # derivative
        spec = _spec(jump=mdl.JumpSpec(
            family="custom", fn=lambda m: 0.5 * np.sinh(m) - 0.3,
            fn_inv=lambda m: np.arcsinh(2.0 * (m + 0.3))))
        g = presets.default_grid("adaptation-1d")
    else:
        spec, g = presets.preset(case), presets.default_grid(case)
    nodes = g.m_nodes(0)
    A = g.a_nodes[:, None]
    rho = spec.init_law.density_age(A) * spec.init_law.density_mem(
        nodes[None, :, None]) * (1.0 + 0.5 * np.sin(3.0 * A + nodes))
    rng = np.random.default_rng(7)
    noisy = rng.random(rho.shape) * (rng.random(rho.shape) < 0.7)
    noisy[:, ::37] *= -1e-3  # scattered small negatives exercise the sign rules
    s = math.exp(spec.lam[0] * g.dt)
    # the jump pull's targets and slopes from the model's public inverse
    m = nodes[:, None]
    pulls = [(nodes * s, s),
             (mdl.jump_inverse(spec.jump, m)[:, 0],
              np.exp(mdl.jump_inverse_jacobian_logdet(spec.jump, m)))]
    tabs = [pde._remap_table(nodes, *pulls[0]), pde._jump_tables(spec, [nodes])[0]]
    if case == "custom":
        assert np.ptp(pulls[1][1]) > 0.1
    for (tg, ds), tab in zip(pulls, tabs):
        for arr in (rho, noisy):
            # full array, memory axis first, one border row, one 1-d slice
            for a, axis in ((arr, 1), (arr.T, 0), (arr[:1], 1), (arr[5], 0)):
                ref = _scipy_remap(a, nodes, tg, ds, axis)
                got = pde._mass_remap(a, tab, axis)
                assert got.shape == ref.shape
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("box", [(-1.5, 0.5, 200), (-3.0, 0.6, 80)])
def test_remap_conserves_mass_and_stays_nonnegative(seed, box):
    # on the second box node rounding makes the last cell a little wider
    # than the first, so a target at the last node sits at offset 1 + 1e-16
    rng = np.random.default_rng(seed)
    nodes = np.linspace(*box[:2], box[2] + 1)
    h = nodes[1] - nodes[0]
    w = _w(nodes)
    arr = rng.random((60, nodes.size)) * (rng.random((60, nodes.size)) < 0.6)
    arr[:, rng.integers(0, nodes.size, 20)] = 0.0
    # identity map: the whole trapezoid mass is kept
    out = pde._mass_remap(arr, pde._remap_table(nodes, nodes, 1.0), 1)
    np.testing.assert_allclose(out @ w, arr @ w, rtol=1e-13, atol=0.0)
    assert out.min() >= 0.0
    # shift by k cells: exactly the mass of the cells still in the box
    k = 17
    out = pde._mass_remap(arr, pde._remap_table(nodes, nodes + k * h, 1.0), 1)
    kept = np.sum(0.5 * (arr[:, k:-1] + arr[:, k + 1:]) * h, axis=1)
    np.testing.assert_allclose(out @ w, kept, rtol=1e-13, atol=0.0)
    assert out.min() >= 0.0
    # decay contraction and a half-cell shift: nonnegative, mass within the box
    for tg, ds in ((nodes * math.exp(0.01), math.exp(0.01)),
                   (nodes - 0.5 * h, 1.0)):
        out = pde._mass_remap(arr, pde._remap_table(nodes, tg, ds), 1)
        assert out.min() >= 0.0
        assert np.all(out @ w <= arr @ w * (1.0 + 1e-12))


def test_remap_table_rejects_nonuniform_nodes():
    nodes = np.linspace(0.0, 1.0, 21)
    with pytest.raises(ValueError):
        pde._remap_table(nodes ** 2, nodes ** 2, 1.0)
    with pytest.raises(ValueError):
        pde._remap_table(nodes[::-1], nodes[::-1], 1.0)
    bent = nodes.copy()
    bent[7] += 1e-6
    with pytest.raises(ValueError):
        pde._remap_table(bent, bent, 1.0)
    pde._remap_table(nodes, nodes, 1.0)


@pytest.mark.parametrize("axis", [1, 2])
def test_stacked_remap_matches_shared_tables(axis):
    # a stacked table remaps index r of the leading axis as _mass_remap does
    # with row r's own table, on either memory axis of a d = 2 block.  The
    # last row's targets all lie past the box, which gives zeros
    rng = np.random.default_rng(11)
    nodes = [np.linspace(-1.5, 0.5, 21), np.linspace(-0.5, 1.0, 17)]
    n = nodes[axis - 1]
    arr = rng.random((5, 21, 17)) * (rng.random((5, 21, 17)) < 0.8)
    sc = np.array([1.0, 1.1, 2.5, 6.0])
    tg = np.vstack([sc[:, None] * (n + 0.3), n + 10.0])
    ds = np.append(sc, 1.0)[:, None]
    tabs = [pde._remap_table(n, t, s) for t, s in zip(tg, ds[:, 0])]
    got = pde._mass_remap(arr, pde._remap_table(n, tg, ds), axis)
    for r, tab in enumerate(tabs):
        ref = pde._mass_remap(arr[r], tab, axis - 1)
        assert np.abs(got[r] - ref).max() <= 1e-14 * np.abs(ref).max()
    assert not got[-1].any() and got[-2].any()


def _stacked_rows(nodes, targets, dslopes):
    """Row r's shared table for every r, stacked field by field."""
    tabs = [pde._remap_table(nodes, t, ds) for t, ds in zip(targets, dslopes)]
    stack = {f: np.stack([getattr(t, f) for t in tabs])
             for f in ("idx", "w_m", "w_0", "w_1", "fill")}
    stack["ends"] = tuple(np.stack(e) for e in zip(*(t.ends for t in tabs)))
    return tabs[0], stack


def _row_cases(case):
    """(nodes, targets (R, n), dslope (R, 1) or (R, n)) of one axis."""
    if case.startswith("d2"):
        k = int(case[-1])
        g = _d2_grid(1.0)
        nodes = [g.m_nodes(j) for j in range(2)]
        tg, ds = pde._jump_pulls(_d2_spec(), nodes)[k]
        sc = np.exp(np.arange(41) * 0.1 * _d2_spec().lam[k])[:, None]
        return nodes[k], sc * tg, sc * ds
    if case == "custom":
        spec, g, _ = _block_case("custom-jump")
        nodes = g.m_nodes(0)
        (tg, ds), = pde._jump_pulls(spec, [nodes])
        sc = np.exp(np.arange(30) * 0.2)[:, None]
        return nodes, sc * tg, sc * ds
    nodes = np.linspace(-3.5, 0.5, 201)
    h = nodes[1] - nodes[0]
    sc = np.exp(np.arange(8) * 0.3)
    rows = [s * nodes for s in sc] + [
        nodes + 100.0,                                   # no in-box target
        nodes[7] + 1e3 * (nodes - nodes[7]) + 0.25 * h,  # a single one
        np.where(nodes < -1.5, -1e9, 1e9),               # far out, both sides
        np.full(nodes.size, -1e9),                       # far out, one side
        nodes[::-1] * 40.0,                              # reversed, spread out
        # 193 in-box targets: a stacked matrix-vector product gives a fill
        # normalizer one bit off the row's own dot product
        nodes + 8 * h]
    ds = np.append(sc, [1.0, 3.0, 1.0, 1.0, -40.0, 1.0])[:, None]
    return nodes, np.array(rows), ds


@pytest.mark.parametrize("case", ["edges", "custom", "d2-axis0", "d2-axis1"])
def test_stacked_table_keeps_the_bits_of_its_rows(case):
    # one array pass over the rows gives each field of every row's own
    # shared table, dtype, ends and fill included
    nodes, tg, ds = _row_cases(case)
    got = pde._remap_table(nodes, tg, ds)
    row, ref = _stacked_rows(nodes, tg, ds[:, 0] if ds.shape[1] == 1 else ds)
    assert got.h == row.h and np.array_equal(got.trapz, row.trapz)
    for f in ("idx", "w_m", "w_0", "w_1", "fill"):
        a, b = getattr(got, f), ref[f]
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b), f
    for a, b in zip(got.ends, ref["ends"], strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    if case == "edges":
        assert not got.fill[8].any() and np.count_nonzero(got.fill[9]) == 1
        assert not got.fill[10:12].any() and not got.ends[1][10:12].any()


def test_solve_builds_its_tables_in_one_call_per_axis_and_pull(monkeypatch):
    # the march's per-index tables come from one _remap_table call each, so
    # the count does not grow with the number of steps
    calls = []
    real = pde._remap_table

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(pde, "_remap_table", counting)
    d1 = pde.Grid(a_max=6.0, n_a=60, m_lo=(-2.0,), m_hi=(0.5,), n_m=(40,),
                  T=0.5, dt=0.1)
    for spec, g in ((presets.preset("adaptation-1d"), d1),
                    (_d2_spec(), _d2_grid(0.5))):
        counts = []
        for G in (5, 50):
            calls.clear()
            pde.solve_alm_pde(spec, dataclasses.replace(g, T=G * g.dt))
            counts.append(len(calls))
        assert counts[0] == counts[1], counts


@pytest.mark.parametrize("m_lo, m_hi, axis", [
    ((1.0,), (-1.0,), 1), ((0.5,), (0.5,), 1), ((-1.0, 0.2), (1.0, 0.2), 2)],
    ids=["reversed", "empty", "d2-axis2"])
def test_grid_rejects_empty_memory_box_naming_the_axis(m_lo, m_hi, axis):
    # the box reached the march, which reported "initial density has
    # nonpositive mass" even for u0 = 1
    with pytest.raises(mdl.ConfigurationError,
                       match=f"memory axis {axis} needs m_hi > m_lo"):
        pde.Grid(a_max=2.0, n_a=20, m_lo=m_lo, m_hi=m_hi, n_m=(20,) * len(m_lo),
                 T=0.2, dt=0.1)


@pytest.mark.parametrize("m_lo, m_hi, n_m", [
    ((-1.0, 0.0), (1.0, 2.0, 3.0), (20, 5)), ((-1.0,), (1.0,), ())],
    ids=["lengths-differ", "no-n_m"])
def test_grid_rejects_box_of_wrong_dimension(m_lo, m_hi, n_m):
    with pytest.raises(mdl.ConfigurationError,
                       match="memory box dimension mismatch"):
        pde.Grid(a_max=2.0, n_a=20, m_lo=m_lo, m_hi=m_hi, n_m=n_m, T=0.2,
                 dt=0.1)


# ---------------------------------------------------------------------------
# signal route


def test_x_equals_baseline_without_interaction():
    # a baseline that varies in time, E[H_t] = E[M_0] exp(-Lambda t)
    spec = dataclasses.replace(_spec(), H=mdl.BaselineSpec(family="exp-decay-from-M0"))
    g = pde.Grid(a_max=8.0, n_a=200, m_lo=(-2.5,), m_hi=(0.5,), n_m=(40,),
                 T=1.0, dt=0.04)
    sol = pde.solve_alm_pde(spec, g)
    assert np.allclose(sol.x.values, spec.Hbar(sol.x.grid), atol=1e-12)


def test_x_closed_form_constant_rate():
    # constant f = 1 keeps the mass flux at 1, so the Volterra equation has
    # the closed form x_t = J*tau*(1 - e^{-t/tau})
    spec = _spec(J=0.8, tau=0.5)
    g = pde.Grid(a_max=8.0, n_a=400, m_lo=(-2.5,), m_hi=(0.5,), n_m=(80,),
                 T=2.0, dt=0.02)
    sol = pde.solve_alm_pde(spec, g)
    exact = 0.8 * 0.5 * (1.0 - np.exp(-sol.x.grid / 0.5))
    assert float(np.max(np.abs(sol.x.values - exact))) < 2e-2
    bound = 2.0 * abs(spec.h.J) * spec.f_max
    assert np.all(np.abs(sol.x.values) <= bound + 1e-12)


# ---------------------------------------------------------------------------
# convergence and stability


def test_grid_self_convergence():
    spec = _smooth_interacting()
    sols = []
    for na, nm, dt in [(160, 60, 0.025), (320, 120, 0.0125),
                       (640, 240, 0.00625)]:
        g = pde.Grid(a_max=8.0, n_a=na, m_lo=(-3.0,), m_hi=(0.6,), n_m=(nm,),
                     T=1.0, dt=dt)
        sols.append((g, pde.solve_alm_pde(spec, g, save_times=(1.0,)).rho_at(1.0)))
    d01 = _l1(sols[0][0], sols[0][1], sols[1][1][::2, ::2])
    d12 = _l1(sols[1][0], sols[1][1], sols[2][1][::2, ::2])
    assert d01 / d12 >= 1.5


def test_initial_perturbation_stability():
    # Groenwall-type: an O(eps) L1 change of u0 moves rho_T by O(eps)
    spec = _smooth_interacting()
    g = pde.Grid(a_max=8.0, n_a=200, m_lo=(-3.0,), m_hi=(0.6,), n_m=(80,),
                 T=1.0, dt=0.02)
    other = mdl.InitialLaw(age=("exponential", 0.8),
                           mem=(("truncnorm", -0.4, 0.3, -1.7, 0.5),))
    eps = 0.05

    def u0p(A, mesh):
        return ((1.0 - eps) * spec.init_law.density_age(A)
                * spec.init_law.density_mem(mesh)
                + eps * other.density_age(A) * other.density_mem(mesh))

    sol_a = pde.solve_alm_pde(spec, g, save_times=(1.0,))
    sol_b = pde.solve_alm_pde(spec, g, u0=u0p, save_times=(1.0,))
    A = g.a_nodes[:, None]
    mn = g.m_nodes(0)
    base_d = spec.init_law.density_age(A) * spec.init_law.density_mem(mn[None, :, None])
    pert_d = u0p(A, mn[None, :, None])
    d0 = _l1(g, base_d, pert_d)
    dT = _l1(g, sol_a.rho_at(1.0), sol_b.rho_at(1.0))
    assert dT <= 2.0 * d0


# ---------------------------------------------------------------------------
# memory-only (lm) density of an age-free model: the march's memory marginal


def _lm_spec(lam_m, lam_f, alpha):
    return _spec(jump=mdl.JumpSpec(family="translation", alpha_vec=(alpha,)),
                 init=mdl.InitialLaw(age=("exponential", 1.0),
                                     mem=(("truncnorm", -0.5, 0.4, -1.8, 0.6),)),
                 Lambda=(lam_m,),
                 f=mdl.IntensitySpec(family="constant", f_min=lam_f, f_max=lam_f))


def _memory_density(spec, a_max, n_m, T, dt, save_times):
    g = pde.Grid(a_max=a_max, n_a=int(round(a_max)), m_lo=(-2.8,), m_hi=(0.8,),
                 n_m=(n_m,), T=T, dt=dt)
    sol = pde.solve_alm_pde(spec, g, save_times=save_times)
    return g.m_nodes(0), lambda t: pde.memory_marginal(sol.rho_at(t), g)


def test_memory_marginal_is_the_age_integral():
    g = pde.Grid(a_max=2.0, n_a=4, m_lo=(-1.0, 0.0), m_hi=(1.0, 2.0),
                 n_m=(5, 3), T=0.5, dt=0.5)
    rho = np.random.default_rng(3).random((5, 6, 4))
    marg = pde.memory_marginal(rho, g)
    assert marg.shape == (6, 4)
    assert np.allclose(marg, np.tensordot(_w(g.a_nodes), rho, axes=1), rtol=1e-14)
    assert pde.lm_mass(marg, [g.m_nodes(0), g.m_nodes(1)]) == pytest.approx(
        pde.mass(rho, g), rel=1e-14)


def test_lm_identity_jump_pushforward():
    # with gamma = id the memory law is the initial law pushed along the decay
    T = 1.0
    spec = _lm_spec(0.5, 1.2, 0.0)
    mn, rho_at = _memory_density(spec, 10.0, 480, T, 0.01, (T,))
    exact = spec.init_law.density_mem((np.exp(0.5 * T) * mn)[:, None]) \
        * math.exp(0.5 * T)
    assert float(np.sum(np.abs(rho_at(T) - exact) * _w(mn))) < 5e-2


def test_lm_translation_monte_carlo_histogram():
    # M_T = M0 e^{-Lam T} + alpha sum_k e^{-Lam (T - T_k)} with Poisson times
    lam_m, lam_f, alpha, T = 0.5, 1.2, -0.3, 2.0
    spec = _lm_spec(lam_m, lam_f, alpha)
    mn, rho_at = _memory_density(spec, 10.0, 240, T, 0.01, (T,))
    rng = np.random.default_rng(5)
    n = 400_000
    K = rng.poisson(lam_f * T, n)
    kmax = int(K.max())
    U = rng.random((n, kmax)) * T
    live = np.arange(kmax)[None, :] < K[:, None]
    m0 = spec.init_law.sample(rng, n)[1][:, 0]
    vals = m0 * math.exp(-lam_m * T) \
        + alpha * np.sum(np.exp(-lam_m * (T - U)) * live, axis=1)
    dm = mn[1] - mn[0]
    edges = np.concatenate([[mn[0] - 0.5 * dm], 0.5 * (mn[:-1] + mn[1:]),
                            [mn[-1] + 0.5 * dm]])
    hist = np.histogram(vals, bins=edges)[0] / n
    assert float(np.sum(np.abs(hist - rho_at(T) * _w(mn)))) < 5e-2


def test_lm_generator_identity():
    # d/dt int G rho = int L(G) rho for G(m) = m^2, with
    # L(G) = -Lam m G' + f (G(gamma(m)) - G(m))
    lam_m, lam_f, alpha = 1.0, 1.2, -0.3
    spec = _lm_spec(lam_m, lam_f, alpha)
    mn, rho_at = _memory_density(spec, 8.0, 480, 0.6, 0.005, (0.4, 0.5, 0.6))
    wm = _w(mn)
    G = mn ** 2
    dG = (float(np.sum(G * rho_at(0.6) * wm))
          - float(np.sum(G * rho_at(0.4) * wm))) / 0.2
    LG = -2.0 * lam_m * mn * mn + lam_f * ((mn + alpha) ** 2 - mn ** 2)
    rhs = float(np.sum(LG * rho_at(0.5) * wm))
    assert abs(dG - rhs) / abs(rhs) < 1e-2


@pytest.mark.parametrize("saves", [(0.15,), (0.2, 0.5), (-0.1,)])
def test_solvers_reject_save_times_off_the_steps(saves):
    # the march saves only at step times in [0, T]; any other save time
    # would be dropped without a word
    spec = presets.preset("plain-hawkes")
    g = pde.Grid(a_max=2.0, n_a=20, m_lo=(-1.0,), m_hi=(1.0,), n_m=(20,),
                 T=0.3, dt=0.1)
    with pytest.raises(mdl.ConfigurationError, match="save time"):
        pde.solve_alm_pde(spec, g, save_times=saves)


@pytest.mark.parametrize("T, dt", [(1.0, 0.3), (1.0, 3.0), (0.0, 0.1)])
def test_lm_dt_must_divide_T(T, dt):
    # the grid of the march, which gives the memory-only density too: T 1
    # with dt 0.3 would end it at 0.9, and dt 3 or T 0 return a one-knot XPath
    with pytest.raises(mdl.ConfigurationError, match="dt must divide T"):
        pde.Grid(a_max=6.0, n_a=2, m_lo=(-1.0,), m_hi=(1.0,), n_m=(20,),
                 T=T, dt=dt)


@pytest.mark.parametrize("u0", [lambda A, mesh: np.zeros(mesh.shape[:-1]),
                                lambda A, mesh: -np.ones(mesh.shape[:-1])],
                         ids=["zero", "negative"])
def test_solver_rejects_nonpositive_initial_mass(u0):
    # not a march of NaN
    g = pde.Grid(a_max=2.0, n_a=20, m_lo=(-1.0,), m_hi=(1.0,), n_m=(40,),
                 T=0.2, dt=0.02)
    with pytest.raises(mdl.ConfigurationError, match="nonpositive mass"):
        pde.solve_alm_pde(presets.preset("plain-hawkes"), g, u0=u0)


# ---------------------------------------------------------------------------
# weak form


def test_weak_residual_zero_test_function():
    spec = _spec()
    g = pde.Grid(a_max=8.0, n_a=200, m_lo=(-2.5,), m_hi=(0.5,), n_m=(40,),
                 T=0.5, dt=0.02)

    def z(x):
        return np.zeros(np.shape(x))

    def zm(m):
        return np.zeros(np.shape(m)[:-1])

    res, _ = pde.weak_form_residual(
        spec, g, tests=[pde.WeakTest("zero", z, z, z, z, zm, z)])
    assert res["zero"] == 0.0


def _weak_case(case):
    if case == "adaptation-1d":
        return presets.preset(case), _reduced_default(case, T=0.5)
    if case == "custom-jump":
        spec, g, _ = _block_case(case)
        return spec, g
    return _d2_spec(), _d2_grid(T=0.5)


@pytest.mark.parametrize("case", ["adaptation-1d", "custom-jump", "d2"])
def test_weak_residual_matches_full_grid_identity(case):
    # the identity written out on the whole (a, m) grid, G and its
    # derivatives built from the separable factors, summed with pde.mass
    spec, g = _weak_case(case)
    # the defaults have alpha(0) = 1 and depend on m_1 only; "wave" has
    # neither, and all of its factors vary
    wave = pde.WeakTest(
        "wave", np.cos, lambda t: -np.sin(t), lambda a: 2.0 + np.sin(a), np.cos,
        lambda m: np.cos(m.sum(axis=-1)),
        lambda m: -np.sin(m.sum(axis=-1))[..., None] * np.ones(m.shape[-1]))
    tests = pde.default_test_functions(m_center=0.5 * (g.m_lo[0] + g.m_hi[0]))
    tests.append(wave)
    A = g.a_nodes.reshape((-1,) + (1,) * g.d)
    mesh = np.stack(np.meshgrid(*[g.m_nodes(k) for k in range(g.d)],
                                indexing="ij"), axis=-1)
    gam = mdl.jump_apply(spec.jump, mesh)
    acc = np.zeros(len(tests))
    ends = {}

    def cb(n, t, rho, x_t, F):
        for i, tf in enumerate(tests):
            al, dal = (np.asarray(f(A), dtype=float) for f in (tf.alpha, tf.dalpha))
            be = np.asarray(tf.beta(mesh), dtype=float)
            gv = tf.tau(t) * al * be + 0.0 * rho
            grad = tf.tau(t) * al[..., None] * tf.grad_beta(mesh)
            body = ((tf.dtau(t) * al * be + tf.tau(t) * dal * be
                     - np.sum(grad * (spec.lam * mesh), axis=-1)) * rho
                    + F * rho * (tf.tau(t) * tf.alpha(0.0) * tf.beta(gam) - gv))
            acc[i] += (g.dt if 0 < n < g.n_steps else g.dt / 2.0) * pde.mass(body, g)
            if n in (0, g.n_steps):
                ends[n, i] = pde.mass(gv * rho, g)

    sol = pde.solve_alm_pde(spec, g, step_callback=cb)
    res, sol2 = pde.weak_form_residual(spec, g, tests=tests)
    assert np.array_equal(sol.x.values, sol2.x.values)
    for i, tf in enumerate(tests):
        full = abs(ends[g.n_steps, i] - ends[0, i] - acc[i])
        assert full > 1e-8
        assert abs(res[tf.name] - full) <= 1e-10 * full, tf.name


def test_weak_residual_coarse_benchmark():
    spec = _smooth_interacting()
    g = pde.Grid(a_max=8.0, n_a=200, m_lo=(-3.0,), m_hi=(0.6,), n_m=(80,),
                 T=1.0, dt=0.02)
    res, sol = pde.weak_form_residual(spec, g)
    assert set(res) == {"const", "age-exp", "mem-tanh", "mixed", "bump"}
    assert max(res.values()) < 5e-2
    assert float(np.abs(sol.mass_trace - 1.0).max()) < 2e-3


# ---------------------------------------------------------------------------
# export


def test_density_export_roundtrip(tmp_path):
    spec = _spec()
    g = pde.Grid(a_max=4.0, n_a=40, m_lo=(-2.5,), m_hi=(0.5,), n_m=(20,),
                 T=0.2, dt=0.1)
    sol = pde.solve_alm_pde(spec, g, save_times=(0.0, 0.2))
    pde.density_to_csv(sol, tmp_path / "rho.csv")
    with open(tmp_path / "rho.csv") as fh:
        header = fh.readline().strip().split(",")
    assert header == ["t", "a", "m1", "rho"]
