"""Acceptance suite: one test per release criterion.

Each test records a PASS/FAIL line through the acceptance_log fixture; the
lines are printed together after the run summary.  Tolerances are the release
thresholds, not the typically much smaller observed values.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from almsim import cli, limit, metrics
from almsim import model as mdl
from almsim import particle as prt
from almsim import pathint as pi
from almsim import pde, presets

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "configs" / "golden"


@pytest.fixture(scope="module")
def preset_solutions():
    """Default-resolution solves of both shipped interacting presets,
    shared by the mass, flux and chaos criteria."""
    out = {}
    for name in ("adaptation-1d", "stp"):
        spec = presets.preset(name)
        grid = presets.default_grid(name)
        t0 = time.monotonic()
        sol = pde.solve_alm_pde(spec, grid, save_times=[grid.T])
        out[name] = (spec, grid, sol, time.monotonic() - t0)
    return out


def test_criterion_01_mass_conservation_and_apriori_bound(preset_solutions,
                                                          acceptance_log):
    worst_mass = 0.0
    bound_ok = True
    wall = 0.0
    for name, (spec, grid, sol, dt_wall) in preset_solutions.items():
        wall += dt_wall
        worst_mass = max(worst_mass, float(np.max(np.abs(sol.mass_trace - 1.0))))
        ts = np.arange(sol.mass_trace.size) * grid.dt
        bound_ok &= bool(np.all(sol.mass_trace <= np.exp(ts * spec.f_max) + 1e-12))
    ok = worst_mass <= 1e-3 and bound_ok and wall <= 120.0
    acceptance_log(1, ok, f"max |mass-1| = {worst_mass:.2e} (tol 1e-3), "
                          f"L1 bound exp(t*f_max) holds at every step, "
                          f"solve wall {wall:.0f}s (limit 120s)")
    assert ok


def test_criterion_02_border_flux_balance(preset_solutions, acceptance_log):
    worst = 0.0
    for name, (_, _, sol, _) in preset_solutions.items():
        fr = sol.flux_rel[np.isfinite(sol.flux_rel)]
        worst = max(worst, float(np.max(fr)))
    ok = worst <= 1e-3
    acceptance_log(2, ok, f"max per-step relative flux imbalance = {worst:.2e} "
                          f"(tol 1e-3, both presets)")
    assert ok


def test_criterion_03_pathint_vs_pde(acceptance_log):
    # d = 1 benchmark with no interaction, age-only intensity, f_max*T = 1
    spec = mdl.ModelSpec(
        d=1, Lambda=(0.2,),
        psi=mdl.PsiParams(K=1.0, kappa=1.0),
        f=mdl.IntensitySpec(family="sigmoid-affine", f_min=0.05, f_max=0.2,
                            c_a=1.0, c_x=0.0, c_m=(0.0,), b=-1.0),
        h=mdl.InteractionSpec(kernel="exponential", tau=0.5, J=0.0,
                              modulation="none"),
        jump=mdl.JumpSpec(family="translation", alpha_vec=(-0.3,)),
        init_law=mdl.InitialLaw(age=("uniform", 0.0, 2.0),
                                mem=(("truncnorm", -0.5, 0.45, -1.8, 0.5),)),
        H=mdl.BaselineSpec(family="zero"),
    )
    T = 5.0
    t0 = time.monotonic()
    grid = pde.Grid(a_max=10.0, n_a=1000, m_lo=(-2.5,), m_hi=(0.5,),
                    n_m=(600,), T=T, dt=0.01)
    sol = pde.solve_alm_pde(spec, grid, save_times=[T])
    kmax = pi.jump_count_tail(T, spec.f_max, 1e-4)
    cfg = pi.PathIntegralConfig(K_max=kmax)
    rho_pi = pi.density_on_grid(T, grid.a_nodes, grid.m_nodes(0),
                                spec.init_law, 0.0, cfg, spec)
    wa = np.full(grid.n_a + 1, 0.01)
    wa[0] *= 0.5
    wa[-1] *= 0.5
    wm = np.full(grid.n_m[0] + 1, 3.0 / grid.n_m[0])
    wm[0] *= 0.5
    wm[-1] *= 0.5
    l1 = float(wa @ (np.abs(rho_pi - sol.rho_at(T)) @ wm))
    wall = time.monotonic() - t0
    ok = l1 <= 5e-2 and wall <= 600.0
    acceptance_log(3, ok, f"L1(path integral, solver) = {l1:.3f} (tol 0.05), "
                          f"K_max = {kmax}, wall {wall:.0f}s (limit 600s)")
    assert ok


@pytest.mark.filterwarnings("error")
def test_criterion_04_survival_density_identity(interacting_spec, rng,
                                                acceptance_log):
    # nu^k at t times the instantaneous rate equals nu^{k+1} with a jump at t
    spec = interacting_spec
    ts = np.linspace(0.0, 5.0, 501)
    x = limit.XPath(ts, 0.3 * np.sin(ts))
    worst = 0.0
    n_done = 0
    while n_done < 100:
        t = float(rng.uniform(1.0, 4.0))
        k = int(rng.integers(0, 4))
        times = np.sort(rng.uniform(0.05, t - 0.05, k))
        if k and np.any(np.diff(times) <= 0):
            continue
        a0 = float(rng.uniform(0.0, 2.0))
        m0 = rng.normal(-0.5, 0.4, 1)
        lhs = pi.nu_k(t, times, a0, m0, x, spec)
        age_t = t - times[-1] if k else a0 + t
        mem_t = pi.theta_k(times, t, spec, m0)
        lhs *= float(spec.intensity(age_t, mem_t, float(x(t))))
        rhs = pi.nu_k(t, np.concatenate([times, [t]]), a0, m0, x, spec)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
        n_done += 1
    ok = worst <= 1e-8
    acceptance_log(4, ok, f"max relative error = {worst:.2e} over 100 random "
                          f"instances, k <= 3 (tol 1e-8)")
    assert ok


def test_criterion_05_flow_map_roundtrips(rng, acceptance_log):
    worst = 0.0
    for fam in ("translation", "affine-contraction"):
        if fam == "translation":
            jump = mdl.JumpSpec(family="translation", alpha_vec=(-0.4,))
        else:
            jump = mdl.JumpSpec(family="affine-contraction", alpha=0.35)
        spec = mdl.ModelSpec(
            d=1, Lambda=(0.6,),
            psi=mdl.PsiParams(K=1.0, kappa=1.0),
            f=mdl.IntensitySpec(family="constant", f_min=1.0, f_max=1.0),
            h=mdl.InteractionSpec(kernel="exponential", tau=0.5, J=0.0,
                                  modulation="none"),
            jump=jump,
            init_law=mdl.InitialLaw(age=("exponential", 1.0),
                                    mem=(("uniform", -1.0, 0.0),)),
            H=mdl.BaselineSpec(family="zero"),
        )
        n_done = 0
        while n_done < 5000:
            t = float(rng.uniform(0.5, 3.0))
            k = int(rng.integers(1, 4))
            times = np.sort(rng.uniform(1e-3, t - 1e-3, k))
            if np.any(np.diff(times) <= 0):
                continue
            m0 = rng.normal(0.0, 0.8, 1)
            two_routes = pi.theta_k(times, t, spec, m0)
            recursive = pi.theta_k_recursive(times, t, spec, m0)
            worst = max(worst, abs(float(two_routes[0] - recursive[0])))
            lead, a, m = pi.phi_k_apply(times, m0, t, spec)
            times2, m0b = pi.phi_k_inverse(lead, a, m, t, spec)
            worst = max(worst, float(np.max(np.abs(times2 - times))),
                        abs(float(m0b[0] - m0[0])))
            n_done += 1
    ok = worst <= 1e-12
    acceptance_log(5, ok, f"max recurrence/round-trip error = {worst:.2e} over "
                          f"10^4 random instances (tol 1e-12)")
    assert ok


def test_criterion_06_renewal_oracle(constant_rate_spec, acceptance_log):
    # per-neuron event counts vs Poisson(lambda*T)
    spec = constant_rate_spec
    T, reps = 2.0, 10_000
    counts = np.array([len(prt.simulate_network(spec, 1, T, seed=s).events)
                       for s in range(reps)])
    mu = 1.0 * T
    k_hi = 1
    while stats.poisson.pmf(k_hi + 1, mu) * reps >= 5.0:
        k_hi += 1
    obs = np.array([np.sum(counts == k) for k in range(k_hi)]
                   + [np.sum(counts >= k_hi)], dtype=float)
    exp = np.array([stats.poisson.pmf(k, mu) * reps for k in range(k_hi)]
                   + [stats.poisson.sf(k_hi - 1, mu) * reps])
    pval = float(stats.chisquare(obs, exp).pvalue)

    # PDE age marginal below t is exactly lambda*exp(-lambda*a)
    grid = pde.Grid(a_max=8.0, n_a=400, m_lo=(-2.0,), m_hi=(0.5,), n_m=(80,),
                    T=T, dt=0.02)
    sol = pde.solve_alm_pde(spec, grid, save_times=[T])
    marg = pde.age_marginal(sol.rho_at(T), grid)
    a = grid.a_nodes
    sel = a < T - 1e-9
    da = a[1] - a[0]
    l1 = float(np.sum(np.abs(marg[sel] - np.exp(-a[sel]))) * da)
    ok = pval >= 0.01 and l1 <= 5e-2
    acceptance_log(6, ok, f"chi-square p = {pval:.3f} (level 0.01, 10^4 "
                          f"replicas), age-marginal L1 = {l1:.3f} (tol 0.05)")
    assert ok


def test_criterion_07_kernel_form_equivalence(acceptance_log):
    spec = presets.preset("adaptation-1d")
    identical = True
    for seed in range(100):
        r1 = prt.simulate_network(spec, 10, 5.0, seed=seed)
        r2 = prt.simulate_equivalent_hawkes(spec, 10, 5.0, seed=seed)
        if len(r1.events) != len(r2.events):
            identical = False
            break
        for a, b in zip(r1.events, r2.events):
            if a.time != b.time or a.neuron != b.neuron \
               or a.age_before != b.age_before:
                identical = False
                break
        if not identical:
            break
    acceptance_log(7, identical, "state-form and kernel-form event logs "
                                 "identical for 100 seeds, N=10, T=5")
    assert identical


def test_criterion_08_propagation_of_chaos(preset_solutions, acceptance_log):
    spec, grid, sol, _ = preset_solutions["adaptation-1d"]
    T = grid.T
    ladder = [100, 400, 1600, 6400]
    t0 = time.monotonic()
    x, rep = limit.solve_x_picard(spec, T, dt=0.01, n_particles=20_000, seed=0)
    table = metrics.coupling_decay_study(spec, ladder, T, x, n_replicas=20,
                                         seed=1)
    cloud = metrics.grid_to_cloud(grid.a_nodes, [grid.m_nodes(0)],
                                  sol.rho_at(T))
    conv = metrics.convergence_study(spec, ladder, T, 20, seed=2,
                                     density_cloud=cloud)
    wall = time.monotonic() - t0
    slope_ok = -0.7 <= table.slope <= -0.3
    trend_ok = conv.trend_pvalue < 0.05
    ok = rep.converged and slope_ok and trend_ok and wall <= 1800.0
    acceptance_log(8, ok, f"coupling slope = {table.slope:.3f} "
                          f"(window [-0.7, -0.3]), W1 trend p = "
                          f"{conv.trend_pvalue:.2e} (< 0.05), "
                          f"wall {wall:.0f}s (limit 1800s)")
    assert ok


def test_criterion_09_cross_route_signal(acceptance_log):
    rate, J, tau, T, dt = 1.0, 0.8, 0.5, 3.0, 0.004
    spec = mdl.ModelSpec(
        d=1, Lambda=(1.0,),
        psi=mdl.PsiParams(K=1.0, kappa=1.0),
        f=mdl.IntensitySpec(family="constant", f_min=rate, f_max=rate),
        h=mdl.InteractionSpec(kernel="exponential", tau=tau, J=J,
                              modulation="none"),
        jump=mdl.JumpSpec(family="translation", alpha_vec=(-0.3,)),
        init_law=mdl.InitialLaw(age=("exponential", 1.0),
                                mem=(("uniform", -1.0, 0.0),)),
        H=mdl.BaselineSpec(family="zero"),
    )
    xp, rep = limit.solve_x_picard(spec, T, dt=dt, n_particles=5000, seed=3,
                                   tol=1e-6)
    grid = pde.Grid(a_max=6.0, n_a=1500, m_lo=(-2.5,), m_hi=(0.5,), n_m=(50,),
                    T=T, dt=dt)
    sol = pde.solve_alm_pde(spec, grid, save_times=[T])
    exact = J * rate * tau * (1.0 - np.exp(-xp.grid / tau))
    d_routes = float(np.max(np.abs(xp.values - sol.x.values)))
    d_pic = float(np.max(np.abs(xp.values - exact)))
    d_pde = float(np.max(np.abs(sol.x.values - exact)))
    ok = rep.converged and max(d_routes, d_pic, d_pde) <= 5e-3
    acceptance_log(9, ok, f"sup |x routes| = {d_routes:.2e}, vs closed form "
                          f"{d_pic:.2e} / {d_pde:.2e} (tol 5e-3)")
    assert ok


def test_criterion_10_weak_form_residuals(acceptance_log):
    # the residual picks up the per-step smoothing of the conservative remap,
    # so the memory grid must be fine relative to the step count; these
    # resolutions keep every residual below half the tolerance
    grids = {
        "adaptation-1d": pde.Grid(a_max=15.0, n_a=750, m_lo=(-3.5,),
                                  m_hi=(0.5,), n_m=(3200,), T=5.0, dt=0.02),
        "stp": pde.Grid(a_max=15.0, n_a=750, m_lo=(0.0,), m_hi=(1.0,),
                        n_m=(800,), T=5.0, dt=0.02),
    }
    worst = 0.0
    for name, grid in grids.items():
        res, _ = pde.weak_form_residual(presets.preset(name), grid)
        worst = max(worst, max(res.values()))
    ok = worst <= 5e-3
    acceptance_log(10, ok, f"max weak-form residual = {worst:.2e} over the "
                           f"5-test-function family, both presets (tol 5e-3)")
    assert ok


def test_criterion_11_golden_config_determinism(tmp_path, acceptance_log):
    configs = sorted(GOLDEN_DIR.glob("*.json"))
    assert configs, "golden configs missing"
    all_ok = True
    for cfg in configs:
        outs = []
        for tag, threads in (("r1", 1), ("r2", 1), ("t8", 8)):
            out = tmp_path / cfg.stem / tag
            code = cli.run(cfg, out_override=out, threads_override=threads)
            all_ok &= code == cli.EXIT_OK
            outs.append(out)
        ref = outs[0]
        names = sorted(p.name for p in ref.iterdir() if p.name != "manifest.json")
        for other in outs[1:]:
            for name in names:
                all_ok &= (ref / name).read_bytes() == (other / name).read_bytes()
            m_ref = json.loads((ref / "manifest.json").read_text())
            m_oth = json.loads((other / "manifest.json").read_text())
            all_ok &= m_ref["artifacts"] == m_oth["artifacts"]
    acceptance_log(11, all_ok, f"{len(configs)} golden configs bit-identical "
                               f"across reruns and threads {{1, 8}}")
    assert all_ok
