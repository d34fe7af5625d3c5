"""Tests for the Picard solver and limit-process sampler."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from almsim import limit as lim
from almsim import model as mdl


def _constant_interacting(rate=1.0, J=0.8, tau=0.5):
    """Constant intensity with a pure exponential time kernel.

    The signal has the closed form x_t = J*rate*tau*(1 - exp(-t/tau)).
    """
    return mdl.ModelSpec(
        d=1,
        Lambda=(1.0,),
        psi=mdl.PsiParams(K=1.0, kappa=1.0),
        f=mdl.IntensitySpec(family="constant", f_min=rate, f_max=rate),
        h=mdl.InteractionSpec(kernel="exponential", tau=tau, J=J,
                              modulation="none"),
        jump=mdl.JumpSpec(family="translation", alpha_vec=(-0.3,)),
        init_law=mdl.InitialLaw(age=("exponential", 1.0),
                                mem=(("uniform", -1.0, 0.0),)),
        H=mdl.BaselineSpec(family="zero"),
    )


# ---------------------------------------------------------------------------
# fixed-point solver


def test_no_interaction_x_equals_baseline():
    spec = mdl.ModelSpec(h=mdl.InteractionSpec(kernel="exponential", tau=0.5,
                                               J=0.0, modulation="none"),
                         H=mdl.BaselineSpec(family="constant-random",
                                            mean=0.4, std=0.1))
    xp, rep = lim.solve_x_picard(spec, T=2.0, dt=0.01, n_particles=100, seed=0)
    assert rep.converged
    assert rep.final_delta == 0.0
    assert np.allclose(xp.values, 0.4, atol=0.0)


def test_constant_rate_closed_form():
    rate, J, tau = 1.0, 0.8, 0.5
    spec = _constant_interacting(rate, J, tau)
    T = 3.0
    xp, rep = lim.solve_x_picard(spec, T=T, dt=0.01, n_particles=20_000,
                                 seed=12, tol=1e-4)
    exact = J * rate * tau * (1.0 - np.exp(-xp.grid / tau))
    assert rep.converged
    assert float(np.max(np.abs(xp.values - exact))) < 1.5e-2


def test_picard_deltas_contract(interacting_spec):
    xp, rep = lim.solve_x_picard(interacting_spec, T=3.0, dt=0.01,
                                 n_particles=4000, seed=4, tol=1e-12,
                                 max_iter=6)
    # geometric decrease until the Monte Carlo noise floor is reached
    d = rep.deltas
    assert d[0] > 0.0
    k = 1
    while k < len(d) and d[k] > 5e-3:
        assert d[k] < d[k - 1]
        k += 1


def test_x_pathwise_bound(interacting_spec):
    spec = interacting_spec
    xp, _ = lim.solve_x_picard(spec, T=4.0, dt=0.01, n_particles=4000, seed=4)
    bound = 4.0 * abs(spec.h.J) * spec.f_max  # zero baseline, kernel <= 1
    assert np.all(np.abs(xp.values) <= bound + 1e-12)


def test_x_lipschitz_in_time(interacting_spec):
    spec = interacting_spec
    T, dt = 4.0, 0.01
    xp, _ = lim.solve_x_picard(spec, T=T, dt=dt, n_particles=4000, seed=4)
    # |h|_inf = |J|, time-Lipschitz constant of the kernel is |J|/tau
    c_t = spec.f_max * (abs(spec.h.J) + T * abs(spec.h.J) / spec.h.tau)
    steps = np.abs(np.diff(xp.values))
    assert np.all(steps <= c_t * dt + 1e-9)


def test_bad_arguments():
    spec = _constant_interacting()
    with pytest.raises(ValueError):
        lim.solve_x_picard(spec, T=1.0, dt=0.0)
    with pytest.raises(ValueError):
        lim.solve_x_picard(spec, T=1.0, dt=0.01, tol=0.0)


def test_nonconvergence_reported(interacting_spec):
    xp, rep = lim.solve_x_picard(interacting_spec, T=3.0, dt=0.02,
                                 n_particles=500, seed=4, tol=1e-15,
                                 max_iter=3)
    assert not rep.converged
    assert rep.iterations == 3
    assert np.all(np.isfinite(xp.values))


# ---------------------------------------------------------------------------
# common random numbers


def test_crn_same_index_same_stream():
    a = lim.common_random_numbers_stream(7, 3).random(100)
    b = lim.common_random_numbers_stream(7, 3).random(100)
    assert np.array_equal(a, b)


def test_crn_different_indices_differ():
    a = lim.common_random_numbers_stream(7, 3).random(100)
    b = lim.common_random_numbers_stream(7, 4).random(100)
    assert not np.array_equal(a, b)


def test_full_solve_deterministic(interacting_spec):
    x1, _ = lim.solve_x_picard(interacting_spec, T=2.0, dt=0.01,
                               n_particles=2000, seed=21)
    x2, _ = lim.solve_x_picard(interacting_spec, T=2.0, dt=0.01,
                               n_particles=2000, seed=21)
    assert np.array_equal(x1.values, x2.values)


# ---------------------------------------------------------------------------
# limit-process sampling


def test_limit_process_constant_rate_counts(constant_rate_spec):
    T = 4.0
    ts = np.linspace(0.0, T, 401)
    xp = lim.XPath(ts, np.zeros_like(ts))
    out = lim.simulate_limit_process(constant_rate_spec, xp, n=20_000,
                                     seed=2, save_times=[T])
    mu = 1.0 * T
    se = math.sqrt(mu / 20_000)
    assert abs(out.event_counts.mean() - mu) < 3.0 * se


def test_limit_process_drift_only(constant_rate_spec):
    spec = constant_rate_spec
    T = 2.0
    ts = np.linspace(0.0, T, 201)
    xp = lim.XPath(ts, np.zeros_like(ts))
    n = 200
    out = lim.simulate_limit_process(spec, xp, n=n, seed=9, save_times=[T])
    a0, m0 = spec.init_law.sample(lim.common_random_numbers_stream(9, 0), n)
    idle = np.nonzero(out.event_counts == 0)[0]
    assert idle.size > 0
    for i in idle:
        assert abs(out.ages[i, 0] - (a0[i] + T)) < 1e-12
        assert abs(out.memories[i, 0, 0] - m0[i, 0] * math.exp(-T)) < 1e-12


def test_limit_process_stationary_age_marginal(constant_rate_spec):
    # Exp(1) ages with constant unit rate stay Exp(1) for all t; compare
    # the empirical age law at t = 4 in W1 against exact quantiles
    T = 4.0
    ts = np.linspace(0.0, T, 401)
    xp = lim.XPath(ts, np.zeros_like(ts))
    n = 100_000
    out = lim.simulate_limit_process(constant_rate_spec, xp, n=n, seed=3,
                                     save_times=[T])
    ages = np.sort(out.ages[:, 0])
    q = -np.log1p(-(np.arange(n) + 0.5) / n)
    assert float(np.mean(np.abs(ages - q))) < 2e-2


def test_limit_process_horizon_check(constant_rate_spec):
    ts = np.linspace(0.0, 1.0, 101)
    xp = lim.XPath(ts, np.zeros_like(ts))
    with pytest.raises(ValueError):
        lim.simulate_limit_process(constant_rate_spec, xp, n=10, seed=0,
                                   save_times=[2.0])


# ---------------------------------------------------------------------------
# signal path


def _bits(v):
    return np.float64(v).tobytes()


@given(n=st.integers(2, 600), uniform=st.booleans(),
       lo=st.floats(-50.0, 50.0), span=st.floats(1e-3, 1e3),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_xpath_float_lookup_same_bits_as_interp(n, uniform, lo, span, seed):
    # one float t takes XPath's binary search; it must give np.interp's
    # bits on every knot, between knots, outside the range, one ulp inside
    # and outside either end, on both zeros and on NaN
    rng = np.random.default_rng(seed)
    if uniform:
        g = np.linspace(lo, lo + span, n)
    else:
        g = np.unique(lo + span * rng.random(n))
        assume(g.size >= 2)
    assert np.all(np.diff(g) > 0)
    v = rng.normal(0.0, 5.0, g.size)
    x = lim.XPath(g, v)
    ends = [np.nextafter(e, s) for e in (g[0], g[-1])
            for s in (-math.inf, math.inf)]
    ts = np.concatenate([g, rng.uniform(g[0], g[-1], 200),
                         g[0] - span * rng.random(5),
                         g[-1] + span * rng.random(5),
                         ends, [0.0, -0.0, math.inf, -math.inf]])
    for t in ts:
        want = np.interp(t, g, v)
        for arg in (float(t), np.float64(t)):
            assert _bits(x(arg)) == _bits(want), (arg, x(arg), want)
    for arg in (math.nan, -math.nan, np.float64(math.nan)):
        assert math.isnan(x(arg)) and _bits(x(arg)) == _bits(np.interp(arg, g, v))
    # any other input still goes to np.interp, arrays included
    got = x(ts)
    assert isinstance(got, np.ndarray) and got.shape == ts.shape
    assert got.tobytes() == np.interp(ts, g, v).tobytes()


# ---------------------------------------------------------------------------
# artifact export


def test_xpath_csv_and_report_json(tmp_path, interacting_spec):
    xp, rep = lim.solve_x_picard(interacting_spec, T=1.0, dt=0.01,
                                 n_particles=500, seed=1)
    p = tmp_path / "x.csv"
    xp.to_csv(p)
    data = np.loadtxt(p, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], xp.grid)
    assert np.array_equal(data[:, 1], xp.values)
    import json
    meta = json.loads(rep.to_json())
    assert meta["n_particles"] == 500
    assert meta["iterations"] == len(meta["deltas"])
