"""Tests for the jump-count expansion of the limit density."""

import hashlib
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import poisson

from almsim import model as mdl
from almsim import pathint as pi
from almsim.limit import XPath


def _spec(f=None, jump=None, Lambda=(1.0,), init=None):
    return mdl.ModelSpec(
        d=1, Lambda=Lambda,
        psi=mdl.PsiParams(K=1.0, kappa=1.0),
        f=f or mdl.IntensitySpec(family="constant", f_min=1.0, f_max=1.0),
        h=mdl.InteractionSpec(kernel="exponential", tau=0.5, J=0.0,
                              modulation="none"),
        jump=jump or mdl.JumpSpec(family="translation", alpha_vec=(-0.3,)),
        init_law=init or mdl.InitialLaw(age=("exponential", 1.0),
                                        mem=(("uniform", -1.0, 0.0),)),
        H=mdl.BaselineSpec(family="zero"),
    )


ZERO_X = XPath(np.array([0.0, 1.0]), np.zeros(2))


# ---------------------------------------------------------------------------
# flow maps


def test_theta_zero_jumps_is_decay():
    spec = _spec(Lambda=(0.7,))
    out = pi.theta_k([], 2.0, spec, np.array([1.5]))
    assert abs(out[0] - 1.5 * math.exp(-1.4)) < 1e-15


def test_theta_one_jump_translation_closed_form():
    spec = _spec(Lambda=(0.7,))
    t, t1, m0, al = 2.0, 0.8, -0.4, -0.3
    out = pi.theta_k([t1], t, spec, np.array([m0]))
    exact = (m0 * math.exp(-0.7 * t1) + al) * math.exp(-0.7 * (t - t1))
    assert abs(out[0] - exact) < 1e-15


@pytest.mark.parametrize("jump", [
    mdl.JumpSpec(family="translation", alpha_vec=(-0.4,)),
    mdl.JumpSpec(family="affine-contraction", alpha=0.35),
])
def test_theta_recurrence_two_routes(jump, rng):
    spec = _spec(jump=jump)
    for _ in range(50):
        t = float(rng.uniform(0.5, 3.0))
        times = np.sort(rng.uniform(0.0, t, 3))
        if np.any(np.diff(times) <= 0) or times[0] <= 0:
            continue
        m0 = rng.normal(0.0, 1.0, 1)
        a = pi.theta_k(times, t, spec, m0)
        b = pi.theta_k_recursive(times, t, spec, m0)
        assert abs(float(a[0] - b[0])) < 1e-14


def test_theta_rejects_unordered_times():
    spec = _spec()
    with pytest.raises(ValueError):
        pi.theta_k([0.5, 0.3], 1.0, spec, np.array([0.0]))
    with pytest.raises(ValueError):
        pi.theta_k([0.5, 1.5], 1.0, spec, np.array([0.0]))


def test_phi_roundtrips(rng):
    spec = _spec(jump=mdl.JumpSpec(family="affine-contraction", alpha=0.35),
                 Lambda=(0.6,))
    # k = 0
    a, m = pi.phi_0_apply(0.7, np.array([-0.4]), 1.3, spec)
    a0, m0 = pi.phi_0_inverse(a, m, 1.3, spec)
    assert abs(a0 - 0.7) < 1e-12 and abs(float(m0[0]) + 0.4) < 1e-12
    # k >= 1
    for _ in range(50):
        t = float(rng.uniform(1.0, 3.0))
        k = int(rng.integers(1, 4))
        times = np.sort(rng.uniform(1e-3, t, k))
        if np.any(np.diff(times) <= 0):
            continue
        m0 = rng.normal(0.0, 0.8, 1)
        lead, a, m = pi.phi_k_apply(times, m0, t, spec)
        times2, m0b = pi.phi_k_inverse(lead, a, m, t, spec)
        assert np.max(np.abs(times2 - times)) < 1e-12
        assert abs(float(m0b[0] - m0[0])) < 1e-10


def test_phi_inverse_errors():
    spec = _spec()
    with pytest.raises(ValueError):
        pi.phi_0_inverse(0.5, np.array([0.0]), 1.0, spec)
    with pytest.raises(ValueError):
        pi.phi_k_inverse(np.array([0.8]), 0.5, np.array([0.0]), 1.0, spec)


def test_logdet_k0_and_translation():
    spec = _spec(Lambda=(0.7,))
    # zero jumps: log det of e^{Lambda t}
    assert abs(pi.phi_k_inverse_logdet([], 2.5, np.array([0.0]), 1.5, spec)
               - 1.5 * 0.7) < 1e-14
    # one translation jump: memory factor unchanged, time block unit
    assert abs(pi.phi_k_inverse_logdet([], 0.4, np.array([0.0]), 1.5, spec)
               - 1.5 * 0.7) < 1e-14


def test_logdet_affine_contraction():
    spec = _spec(jump=mdl.JumpSpec(family="affine-contraction", alpha=0.5),
                 Lambda=(0.7,))
    got = pi.phi_k_inverse_logdet([0.3], 0.4, np.array([0.1]), 1.5, spec)
    assert abs(got - (1.5 * 0.7 + 2.0 * math.log(2.0))) < 1e-13


def test_logdet_custom_matches_affine(rng):
    # custom jump implementing the same affine contraction must agree
    al = 0.35
    aff = mdl.JumpSpec(family="affine-contraction", alpha=al)
    cus = mdl.JumpSpec(
        family="custom",
        fn=lambda m: al + (1.0 - al) * m,
        fn_inv=lambda m: (m - al) / (1.0 - al))
    s1 = _spec(jump=aff, Lambda=(0.6,))
    s2 = _spec(jump=cus, Lambda=(0.6,))
    for _ in range(10):
        t = float(rng.uniform(1.0, 2.0))
        lead = np.sort(rng.uniform(0.05, 0.4, 1))
        a = float(rng.uniform(0.0, 0.4))
        m = rng.normal(0.0, 0.5, 1)
        v1 = pi.phi_k_inverse_logdet(lead, a, m, t, s1)
        v2 = pi.phi_k_inverse_logdet(lead, a, m, t, s2)
        assert abs(v1 - v2) < 1e-9
        assert np.isfinite(v1)


# ---------------------------------------------------------------------------
# jump-time densities


def test_eta1_constant_rate():
    spec = _spec()
    for t1 in (0.2, 0.9, 2.3):
        got = pi.eta_k([t1], 0.5, np.array([-0.2]), ZERO_X, spec)
        assert abs(got - math.exp(-t1)) < 1e-9


def test_eta1_normalizes(interacting_spec):
    # the first-jump time density integrates to one because f >= f_min > 0
    x = XPath(np.linspace(0.0, 100.0, 11), np.zeros(11))
    val, _ = quad(lambda s: pi.eta_k([s], 0.4, np.array([-0.5]), x,
                                     interacting_spec),
                  0.0, 100.0, limit=300)
    assert abs(val - 1.0) < 1e-6


def test_eta_positive_on_ordered_times(interacting_spec, rng):
    x = XPath(np.linspace(0.0, 5.0, 6), 0.1 * np.ones(6))
    for _ in range(20):
        times = np.sort(rng.uniform(0.05, 4.5, 3))
        if np.any(np.diff(times) <= 0):
            continue
        v = pi.eta_k(times, float(rng.uniform(0, 2)), rng.normal(0, 0.5, 1),
                     x, interacting_spec)
        assert v > 0.0


def test_nu0_constant_rate_survival():
    spec = _spec()
    got = pi.nu_k(1.7, [], 0.3, np.array([-0.5]), ZERO_X, spec)
    assert abs(got - math.exp(-1.7)) < 1e-10


@pytest.mark.filterwarnings("error")
def test_lemma_identity_nu_times_f(interacting_spec, rng):
    # nu^k at t times the instantaneous rate equals nu^{k+1} with a jump at t
    spec = interacting_spec
    x = XPath(np.linspace(0.0, 5.0, 501),
              0.3 * np.sin(np.linspace(0.0, 5.0, 501)))
    for _ in range(10):
        t = float(rng.uniform(1.0, 4.0))
        k = int(rng.integers(0, 4))
        times = np.sort(rng.uniform(0.05, t - 0.05, k))
        if k and (np.any(np.diff(times) <= 0)):
            continue
        a0 = float(rng.uniform(0.0, 2.0))
        m0 = rng.normal(-0.5, 0.4, 1)
        lhs = pi.nu_k(t, times, a0, m0, x, spec)
        age_t = t - times[-1] if k else a0 + t
        mem_t = pi.theta_k(times, t, spec, m0)
        lhs *= float(spec.intensity(age_t, mem_t, float(x(t))))
        rhs = pi.nu_k(t, np.concatenate([times, [t]]), a0, m0, x, spec)
        assert abs(lhs - rhs) / abs(rhs) < 1e-8


def _survival_case(name):
    """One spec per intensity family and c_a, and a d = 2 spec."""
    if name == "d2":
        return mdl.ModelSpec(
            d=2, Lambda=(1.0, 0.5), psi=mdl.PsiParams(K=1.0, kappa=1.0),
            f=mdl.IntensitySpec(family="sigmoid-affine", f_min=0.3, f_max=2.0,
                                c_a=0.7, c_x=0.8, c_m=(0.7, -0.4), b=0.1),
            h=mdl.InteractionSpec(kernel="exponential", tau=0.5, J=0.0,
                                  modulation="none"),
            jump=mdl.JumpSpec(family="affine-contraction", alpha=0.3),
            init_law=mdl.InitialLaw(age=("exponential", 1.0),
                                    mem=(("uniform", -1.0, 0.0),
                                         ("uniform", 0.0, 0.5))))
    family, c_a = name.rsplit("-", 1)
    if family == "constant":
        f = mdl.IntensitySpec(family="constant", f_min=1.3, f_max=1.3)
    else:
        f = mdl.IntensitySpec(family=family, f_min=0.3, f_max=1.5,
                              c_a=float(c_a), c_x=1.0, c_m=(0.5,), b=0.1,
                              psi_amp=1.0 + float(c_a), psi_rate=2.0)
    return _spec(f=f, Lambda=(0.7,))


@pytest.mark.parametrize("path", ["2-knot", "501-knot"])
@pytest.mark.parametrize("name", [
    f"{fam}-{c_a}" for fam in ("constant", "sigmoid-affine", "exp-saturating",
                               "stp-composite") for c_a in ("0", "0.7")]
    + ["d2"])
def test_survival_rule_matches_quad_per_knot_interval(name, path, monkeypatch):
    # the reference is quad on each interval between the knots, where x is
    # linear and the integrand smooth
    spec = _survival_case(name)
    if path == "2-knot":
        x = XPath(np.array([0.0, 2.0]), np.array([0.4, -0.3]))
        n, span = 40, 3.0
    else:
        ts = np.linspace(0.0, 5.0, 501)
        x, n, span = XPath(ts, 0.3 * np.sin(ts)), 10, 1.0
    rng = np.random.default_rng(17)
    t_a = rng.uniform(0.0, 4.0, n)
    t_b = t_a + rng.uniform(0.0, span, n)
    age = rng.uniform(0.0, 2.0, n)
    mem = rng.normal(-0.5, 0.5, (n, spec.d))
    got = pi._survival(spec, x, t_a, t_b, age, mem)
    f = spec.scalar_intensity()
    for ta, tb, a0, m0, val in zip(t_a, t_b, age, mem, got):
        def ig(s):
            m_s = m0 * np.exp(-spec.lam * (s - ta))
            return float(f(a0 + s - ta, m_s[0] if spec.d == 1 else m_s,
                           float(x(s))))
        cuts = [ta, *x.grid[(x.grid > ta) & (x.grid < tb)], tb]
        ref = math.fsum(quad(ig, lo, hi, epsabs=0.0, epsrel=1e-13,
                             limit=500)[0] for lo, hi in zip(cuts, cuts[1:]))
        assert abs(val - ref) <= 1e-13 * ref
    # blocks of three cells give the same bits as one block
    monkeypatch.setattr(pi, "_BLOCK", 3 * pi._GL_ORDER)
    blocked = pi._survival(spec, x, t_a, t_b, age, mem)
    assert blocked.tobytes() == got.tobytes()


def test_nu_masses_are_poisson_weights():
    # constant rate: nu^k is constant over the time simplex, so its mass is
    # pmf(k) of Poisson(lambda t); partial sums reproduce the CDF
    lam = 1.3
    spec = _spec(f=mdl.IntensitySpec(family="constant", f_min=lam, f_max=lam))
    t = 1.4
    total = 0.0
    for k in range(4):
        times = np.linspace(0.3, 0.9, k) * t if k else np.array([])
        val = pi.nu_k(t, times, 0.2, np.array([-0.5]), ZERO_X, spec)
        massk = val * t ** k / math.factorial(k)
        assert abs(massk - poisson.pmf(k, lam * t)) < 1e-9
        total += massk
        assert abs(total - poisson.cdf(k, lam * t)) < 1e-6


# ---------------------------------------------------------------------------
# truncation level


def test_jump_count_tail_examples():
    assert pi.jump_count_tail(0.01, 1.0, 1e-6) <= 5
    assert pi.jump_count_tail(0.01, 1.0, 1.0) == 0
    k1 = pi.jump_count_tail(2.0, 1.5, 1e-4)
    k2 = pi.jump_count_tail(4.0, 1.5, 1e-4)
    assert k2 >= k1
    with pytest.raises(ValueError):
        pi.jump_count_tail(1.0, 1.0, 0.0)
    assert poisson.sf(pi.jump_count_tail(3.0, 1.2, 1e-5), 3.6) < 0.5e-5


@pytest.mark.parametrize("f_max", [0.5, 1.5, 20.0])
@pytest.mark.parametrize("T", [0.0, 0.01, 0.3, 1.0, 5.0, 40.0])
def test_jump_count_tail_same_as_poisson_sf(T, f_max):
    for eps in (1.0, 0.3, 1e-4, 1e-9, 1e-15):
        want = 0
        while poisson.sf(want, f_max * T) >= eps / 2.0:
            want += 1
        assert pi.jump_count_tail(T, f_max, eps) == want


@pytest.mark.parametrize("f_max", [0.5, 1.5, 20.0])
def test_density_at_bound_same_as_poisson_sf(f_max):
    spec = _spec(f=mdl.IntensitySpec(family="constant", f_min=f_max,
                                     f_max=f_max))
    for t in (0.0, 0.3, 2.0):
        for k in (0, 1, 3, 7, 30):
            _, trunc = pi.density_at(t, t + 0.5, np.array([-0.5]),
                                     spec.init_law, ZERO_X,
                                     pi.PathIntegralConfig(K_max=k), spec)
            assert trunc == float(poisson.sf(k, f_max * t))


def test_config_validation():
    with pytest.raises(ValueError):
        pi.PathIntegralConfig(K_max=-1)


# ---------------------------------------------------------------------------
# pointwise and grid density


def test_density_k0_branch_closed_form():
    # a >= t: the value is u0(a - t, e^{Lambda t} m) e^{t Tr Lambda - f t}
    lam = 1.2
    spec = _spec(f=mdl.IntensitySpec(family="constant", f_min=lam, f_max=lam),
                 Lambda=(0.5,),
                 init=mdl.InitialLaw(age=("exponential", 1.0),
                                     mem=(("truncnorm", -0.5, 0.4, -1.8, 0.6),)))
    cfg = pi.PathIntegralConfig(K_max=4)
    t, a, m = 0.6, 1.1, -0.4
    val, trunc = pi.density_at(t, a, np.array([m]), spec.init_law, ZERO_X,
                               cfg, spec)
    u0 = spec.init_law
    exact = float(u0.density(a - t, np.array([m * math.exp(0.5 * t)])))
    exact *= math.exp(0.5 * t - lam * t)
    assert abs(val - exact) < 1e-10
    assert 0.0 <= trunc <= 1.0
    # out-of-support preimage gives zero
    v0, _ = pi.density_at(t, a, np.array([5.0]), u0, ZERO_X, cfg, spec)
    assert v0 == 0.0


@pytest.mark.parametrize("t, a, m", [
    (-0.1, 0.2, [0.0]),
    (0.5, -0.1, [0.0]),
    (math.nan, 0.2, [0.0]),
    (math.inf, 0.2, [0.0]),
    (0.5, math.inf, [0.0]),
    (0.5, 0.2, []),
    (0.5, 0.2, [0.0, 0.1]),
])
def test_density_at_rejects_malformed_point(t, a, m):
    spec = _spec()
    with pytest.raises(ValueError):
        pi.density_at(t, a, np.array(m), spec.init_law, ZERO_X,
                      pi.PathIntegralConfig(K_max=2), spec)


def test_density_grid_matches_pointwise():
    spec = _spec(Lambda=(0.2,),
                 init=mdl.InitialLaw(age=("uniform", 0.0, 2.0),
                                     mem=(("truncnorm", -0.5, 0.45, -1.8, 0.5),)))
    cfg = pi.PathIntegralConfig(K_max=6)
    t = 1.0
    a_nodes = np.array([0.35, 1.6])
    m_nodes = np.array([-0.9, -0.3])
    grid = pi.density_on_grid(t, a_nodes, m_nodes, spec.init_law, 0.0, cfg, spec)
    for i, a in enumerate(a_nodes):
        for jx, m in enumerate(m_nodes):
            val, _ = pi.density_at(t, a, np.array([m]), spec.init_law,
                                   ZERO_X, cfg, spec)
            assert abs(val - grid[i, jx]) < 1e-6 + 1e-3 * abs(val)


def test_renewal_age_marginal_from_grid():
    # constant rate 1: the age marginal below t is exactly e^{-a}
    spec = _spec(Lambda=(0.2,),
                 init=mdl.InitialLaw(age=("uniform", 0.0, 2.0),
                                     mem=(("truncnorm", -0.5, 0.45, -1.8, 0.5),)))
    cfg = pi.PathIntegralConfig(K_max=8)
    t = 1.0
    a_nodes = np.linspace(0.0, 4.0, 81)
    m_nodes = np.linspace(-3.0, 1.0, 161)
    rho = pi.density_on_grid(t, a_nodes, m_nodes, spec.init_law, 0.0, cfg, spec)
    wm = np.full(len(m_nodes), m_nodes[1] - m_nodes[0])
    wm[0] *= 0.5
    wm[-1] *= 0.5
    marg = rho @ wm
    sel = a_nodes < t - 1e-9
    assert float(np.max(np.abs(marg[sel] - np.exp(-a_nodes[sel])))) < 1e-3
    wa = np.full(len(a_nodes), a_nodes[1] - a_nodes[0])
    wa[0] *= 0.5
    wa[-1] *= 0.5
    assert abs(float(wa @ marg) - 1.0) < 1e-3
    assert np.all(np.isfinite(rho)) and rho.min() >= 0.0


def test_density_grid_rows_with_zero_amplitude(monkeypatch):
    # zeroing every other quadrature weight leaves some amplitudes exactly 0
    # and some not; the grid must equal a run that drops those nodes
    spec = _spec(Lambda=(0.2,),
                 init=mdl.InitialLaw(age=("uniform", 0.0, 2.0),
                                     mem=(("truncnorm", -0.5, 0.45, -1.8, 0.5),)))
    cfg = pi.PathIntegralConfig(K_max=4)
    a_nodes = np.array([0.2, 0.6, 1.5])
    m_nodes = np.linspace(-1.5, 0.5, 9)
    simplex = pi._simplex_nodes

    def zeroed(*args):
        nodes, weights = simplex(*args)
        weights = weights.copy()
        weights[::2] = 0.0
        return nodes, weights

    def dropped(*args):
        nodes, weights = simplex(*args)
        return nodes[1::2], weights[1::2]

    grids = []
    for patch in (zeroed, dropped):
        monkeypatch.setattr(pi, "_simplex_nodes", patch)
        grids.append(pi.density_on_grid(1.0, a_nodes, m_nodes, spec.init_law,
                                        0.0, cfg, spec))
    assert np.all(grids[1][:2].max(axis=1) > 0.0)
    np.testing.assert_allclose(grids[0], grids[1], rtol=1e-14, atol=0.0)


def test_density_grid_rejects_memory_dependent_f():
    spec = _spec(f=mdl.IntensitySpec(family="sigmoid-affine", f_min=0.3,
                                     f_max=1.0, c_a=0.0, c_x=0.0, c_m=(0.5,),
                                     b=0.0))
    cfg = pi.PathIntegralConfig(K_max=3)
    with pytest.raises(mdl.ConfigurationError):
        pi.density_on_grid(1.0, np.array([0.5]), np.array([0.0]),
                           spec.init_law, 0.0, cfg, spec)


def _pin_case(name):
    """(spec, (t, a, m), config) of one pinned density_at value."""
    from almsim import presets
    if name == "adaptation-mc":
        # k = 4 and 5 carry the value; k = 5 draws Monte Carlo nodes, of
        # which some have preimages inside the initial memory law's support
        return (presets.preset("adaptation-1d"), (0.25, 0.1, [-1.7]),
                dict(K_max=5, gl_orders={1: 6, 2: 4, 3: 3}, mc_samples=60,
                     seed=3))
    if name in ("stp", "stp-nan"):
        m = 0.3 if name == "stp" else math.nan
        return (presets.preset("stp"), (0.3, 0.1, [m]),
                dict(K_max=3, gl_orders={1: 8, 2: 4}, seed=1))
    if name == "custom-jump":
        spec = _spec(
            f=mdl.IntensitySpec(family="sigmoid-affine", f_min=0.3, f_max=1.5,
                                c_a=0.6, c_x=1.0, c_m=(0.5,)),
            jump=mdl.JumpSpec(family="custom",
                              fn=lambda m: 0.5 * np.sinh(m) - 0.3,
                              fn_inv=lambda m: np.arcsinh(2.0 * (m + 0.3))))
        return spec, (0.3, 0.12, [-0.45]), dict(K_max=2, gl_orders={1: 8},
                                                seed=1)
    if name == "d2":
        spec = mdl.ModelSpec(
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
        return spec, (0.6, 0.1, [0.2, -0.15]), dict(
            K_max=3, gl_orders={1: 8, 2: 4}, seed=1)
    if name in ("adaptation-k0", "stp-k0"):
        # a >= t: the zero-jump closed form
        preset, a, m = (("adaptation-1d", 0.5, -0.4) if name == "adaptation-k0"
                        else ("stp", 0.7, 0.3))
        return presets.preset(preset), (0.3, a, [m]), dict(K_max=3)
    # every preimage of this memory lies outside the initial law's support
    return (presets.preset("adaptation-1d"), (0.25, 0.1, [3.0]),
            dict(K_max=6, seed=3))


# (value, truncation bound) of density_at on a linear signal; the *-k0 cases
# take the zero-jump branch (a >= t).  Each other case mixes nodes with zero
# and nonzero preimage density within one k, except custom-jump (all
# nonzero) and zero (none); stp-nan has a NaN preimage density, which
# propagates
_DENSITY_PINS = {
    "adaptation-k0": (0.7756835703812676, 0.003358068853247998),
    "stp-k0": (1.390150824667655, 0.003358068853247998),
    "adaptation-mc": (0.008271537915807809, 1.4164937322342495e-05),
    "stp": (3.0956429498925546, 0.003358068853247998),
    "stp-nan": (math.nan, 0.003358068853247998),
    "custom-jump": (2.4471096675126356, 0.010879329796724178),
    "d2": (11.468901268773681, 0.03376896818565569),
    "zero": (0.0, 1.0023796028842995e-06),
}


@pytest.mark.parametrize("name", sorted(_DENSITY_PINS))
def test_density_at_pinned(name):
    spec, (t, a, m), kw = _pin_case(name)
    x = XPath(np.array([0.0, 1.0]), np.array([0.1, 0.4]))
    val, trunc = pi.density_at(t, a, np.array(m), spec.init_law, x,
                               pi.PathIntegralConfig(**kw), spec)
    want, want_trunc = _DENSITY_PINS[name]
    assert trunc == want_trunc
    if math.isnan(want):
        assert math.isnan(val)
    else:
        assert val == want


# sha256 of the float64 bytes of density_on_grid with K_max = 6, so that the
# Monte Carlo rungs k = 5 and 6 contribute; rows at a < t, a = t and a > t
_GRID_PINS = {
    "translation": (
        mdl.JumpSpec(family="translation", alpha_vec=(-0.3,)),
        "2757e9ce692d69a233be9e5f57598d0e57f8537a4e2aedac1851d76729133665"),
    "affine-offset": (
        mdl.JumpSpec(family="affine-contraction", alpha=0.35, offset=(0.1,)),
        "83c77e65de147e70c76fdeaf0e3d22751468d039741f8c118d5624d9ae2104e2"),
}


@pytest.mark.parametrize("name", sorted(_GRID_PINS))
def test_density_on_grid_pinned(name):
    jump, want = _GRID_PINS[name]
    spec = _spec(f=mdl.IntensitySpec(family="sigmoid-affine", f_min=0.2,
                                     f_max=1.2, c_a=0.8, c_m=(0.0,), b=-0.5),
                 jump=jump, Lambda=(0.2,),
                 init=mdl.InitialLaw(age=("uniform", 0.0, 2.0),
                                     mem=(("truncnorm", -0.5, 0.45, -1.8,
                                           0.5),)))
    grid = pi.density_on_grid(1.0, np.array([0.0, 0.3, 0.8, 1.0, 1.6]),
                              np.linspace(-1.5, 0.5, 9), spec.init_law, 0.0,
                              pi.PathIntegralConfig(K_max=6, seed=2), spec)
    assert grid.shape == (5, 9) and grid.dtype == np.float64
    got = hashlib.sha256(np.ascontiguousarray(grid).tobytes()).hexdigest()
    assert got == want
