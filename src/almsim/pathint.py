"""Path-integral representation of the limit density.

The density at time t is a sum over jump counts k of pushforwards of the
jump-time densities nu^k through explicit diffeomorphisms: the k-jump memory
flow theta^k (decay segments interleaved with the jump mapping) and the
coordinate map phi^k sending (jump times, initial memory) to (leading jump
times, age, memory).  Serves as an independent oracle for the grid solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import model as mdl


def _check_times(times, t):
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError("jump times must be a 1-d sequence")
    if times.size and (np.any(np.diff(times) <= 0) or times[0] <= 0 or times[-1] > t):
        raise ValueError("jump times must satisfy 0 < t1 < ... < tk <= t")
    return times


@dataclass
class PathIntegralConfig:
    """Quadrature settings of the path-integral evaluators.

    Only K_max truncates the sum over jump counts; callers derive it from a
    tail tolerance with jump_count_tail.  tail_epsilon is validated and
    carried along, but no evaluator reads it."""

    K_max: int = 6
    gl_orders: dict = field(default_factory=lambda: {1: 24, 2: 12, 3: 8})
    mc_samples: int = 2000
    tail_epsilon: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.K_max < 0 or not (0.0 < self.tail_epsilon < 1.0):
            raise ValueError("need K_max >= 0 and tail_epsilon in (0, 1)")


# ---------------------------------------------------------------------------
# flow maps


def theta_k(times, t, spec: mdl.ModelSpec, m0):
    """Memory at time t given jumps at `times`, starting from m0 at time 0."""
    times = _check_times(times, t)
    lam = spec.lam
    m = np.atleast_1d(np.asarray(m0, dtype=float))
    prev = 0.0
    for tk in times:
        m = m * np.exp(-lam * (tk - prev))
        m = mdl.jump_apply(spec.jump, m)
        prev = tk
    return m * np.exp(-lam * (t - prev))


def theta_k_recursive(times, t, spec: mdl.ModelSpec, m0):
    """Same map via the recurrence theta^k_t = decay(t - t_k) o gamma o theta^{k-1}_{t_k}."""
    times = _check_times(times, t)
    lam = spec.lam
    if times.size == 0:
        return np.atleast_1d(np.asarray(m0, dtype=float)) * np.exp(-lam * t)
    inner = theta_k_recursive(times[:-1], times[-1], spec, m0)
    return mdl.jump_apply(spec.jump, inner) * np.exp(-lam * (t - times[-1]))


def phi_k_apply(times, m0, t, spec: mdl.ModelSpec):
    """(t1..tk, m0) -> (t1..t_{k-1}, a = t - tk, m = theta^k(m0)); k = 0 maps (a0, m0)."""
    times = _check_times(times, t)
    m = theta_k(times, t, spec, m0)
    if times.size == 0:
        raise ValueError("k = 0 has no jump coordinates; use phi_0_apply")
    return times[:-1], t - times[-1], m


def phi_0_apply(a0, m0, t, spec: mdl.ModelSpec):
    lam = spec.lam
    return a0 + t, np.atleast_1d(np.asarray(m0, dtype=float)) * np.exp(-lam * t)


def phi_0_inverse(a, m, t, spec: mdl.ModelSpec):
    if a < t:
        raise ValueError("no zero-jump preimage with age below t")
    lam = spec.lam
    return a - t, np.atleast_1d(np.asarray(m, dtype=float)) * np.exp(lam * t)


def _invert_chain(times, m, t, spec: mdl.ModelSpec):
    """Returns (m0, post_jump_points) walking the flow backwards from (t, m).

    With times of shape (k, S, 1), S jump-time rows go back at once and each
    returned array gains a leading axis of length S."""
    lam = spec.lam
    cur = np.atleast_1d(np.asarray(m, dtype=float))
    t_hi = t
    posts = []
    for tk in times[::-1]:
        cur = cur * np.exp(lam * (t_hi - tk))
        posts.append(cur)
        cur = mdl.jump_inverse(spec.jump, cur)
        t_hi = tk
    m0 = cur * np.exp(lam * t_hi)
    return m0, posts


def phi_k_inverse(lead_times, a, m, t, spec: mdl.ModelSpec):
    """Recovers (t1..tk, m0) from (t1..t_{k-1}, a, m); tk = t - a."""
    lead_times = np.asarray(lead_times, dtype=float)
    tk = t - a
    if tk <= 0 or (lead_times.size and tk <= lead_times[-1]):
        raise ValueError("image point has no k-jump preimage")
    times = np.concatenate([lead_times, [tk]])
    _check_times(times, t)
    m0, _ = _invert_chain(times, m, t, spec)
    return times, m0


def phi_k_inverse_logdet(lead_times, a, m, t, spec: mdl.ModelSpec):
    """log |det D(phi^k_t)^{-1}| at the image point (t1..t_{k-1}, a, m)."""
    lead_times = np.asarray(lead_times, dtype=float)
    if lead_times.size == 0 and a >= t:
        return _logdet(0, (), t, spec)
    times = np.concatenate([lead_times, [t - a]])
    _check_times(times, t)
    return _logdet(times.size, _invert_chain(times, m, t, spec)[1], t, spec)


def _logdet(k, posts, t, spec: mdl.ModelSpec):
    """log |det D(phi^k_t)^{-1}| given the k post-jump points of the backward
    chain (an iterable, read only for a custom jump).

    The Jacobian is block triangular in (times, memory); the time block has
    unit absolute determinant, leaving exp(t TrLambda) times the product of
    jump-inverse determinants along the backward chain.
    """
    base = t * float(np.sum(spec.lam))
    j = spec.jump
    if j.affine is not None:
        return base - k * spec.d * math.log(j.affine[0])
    return base + sum(float(mdl.jump_inverse_jacobian_logdet(j, p))
                      for p in posts)


# ---------------------------------------------------------------------------
# jump-time densities


def _survival_integral(spec, x, t_a, t_b, age_at_a, mem_at_a):
    """int_{t_a}^{t_b} f along the drift flow started at (age_at_a, mem_at_a)."""
    from scipy.integrate import quad
    lam = spec.lam
    mem = np.atleast_1d(np.asarray(mem_at_a, dtype=float))

    def ig(s):
        rel = s - t_a
        return float(spec.intensity(age_at_a + rel, mem * np.exp(-lam * rel),
                                    float(x(s))))

    val, _ = quad(ig, t_a, t_b, epsabs=1e-13, epsrel=1e-9, limit=200)
    return val


def _eta_chain(times, a0, m0, x, spec, t0=0.0, t=None):
    """Product of the survival and rate factors of jumps at `times` along the
    flow from (a0, m0) at time t0; with t, times the no-further-jump survival
    on (t_k, t]."""
    lam = spec.lam
    eta = 1.0
    t_prev = t0
    age = float(a0)
    mem = np.atleast_1d(np.asarray(m0, dtype=float)).copy()
    for tk in times:
        I = _survival_integral(spec, x, t_prev, tk, age, mem)
        rel = tk - t_prev
        age_k = age + rel
        mem_k = mem * np.exp(-lam * rel)
        eta *= math.exp(-I) * float(spec.intensity(age_k, mem_k, float(x(tk))))
        mem = mdl.jump_apply(spec.jump, mem_k)
        age = 0.0
        t_prev = tk
    if t is None:
        return eta
    return eta * math.exp(-_survival_integral(spec, x, t_prev, t, age, mem))


def eta_k(times, a0, m0, x, spec: mdl.ModelSpec):
    """Joint density of the first k jump times at the given instants."""
    times = np.asarray(times, dtype=float)
    if times.size and (np.any(np.diff(times) <= 0) or times[0] <= 0):
        raise ValueError("jump times must be strictly increasing and positive")
    return _eta_chain(times, a0, m0, x, spec)


def nu_k(t, times, a0, m0, x, spec: mdl.ModelSpec):
    """eta^k times the no-further-jump survival on (t_k, t]."""
    times = np.asarray(times, dtype=float)
    if times.size and times[-1] > t:
        raise ValueError("need t >= t_k")
    return _eta_chain(times, a0, m0, x, spec, t=t)


def jump_count_tail(T, f_max, epsilon):
    """Smallest l with P(Poisson(f_max*T) > l) < epsilon / 2."""
    from scipy.special import pdtrc
    if not (0.0 < epsilon <= 1.0):
        raise ValueError("epsilon must lie in (0, 1]")
    mu = f_max * T
    l = 0
    while pdtrc(l, mu) >= epsilon / 2.0:
        l += 1
    return l


# ---------------------------------------------------------------------------
# simplex quadrature helpers


def _simplex_nodes(dims, t_hi, cfg: PathIntegralConfig, rng, n_mc):
    """Nodes and weights integrating over 0 < t1 < ... < t_dims < t_hi:
    tensor Gauss-Legendre up to max(cfg.gl_orders) dimensions, n_mc sorted
    uniform draws beyond."""
    if dims == 0:
        return np.zeros((1, 0)), np.ones(1)
    if dims <= max(cfg.gl_orders):
        order = cfg.gl_orders.get(dims, 8)
        v, w = leggauss(order)
        v = 0.5 * (v + 1.0)
        w = 0.5 * w
        grids = np.meshgrid(*([v] * dims), indexing="ij")
        wg = np.meshgrid(*([w] * dims), indexing="ij")
        V = np.stack([g.ravel() for g in grids], axis=1)      # (S, dims)
        W = np.prod(np.stack([g.ravel() for g in wg], axis=1), axis=1)
        # map v -> ordered times t_j = t_hi * prod_{i>=j} v_i
        times = np.empty_like(V)
        acc = np.full(V.shape[0], t_hi)
        jacw = np.ones(V.shape[0])
        for j in range(dims - 1, -1, -1):
            acc = acc * V[:, j]
            times[:, j] = acc
            jacw = jacw * V[:, j] ** j
        weights = W * (t_hi ** dims) * jacw
        return times, weights
    times = np.sort(rng.random((n_mc, dims)) * t_hi, axis=1)
    vol = t_hi ** dims / math.factorial(dims)
    return times, np.full(n_mc, vol / n_mc)


# ---------------------------------------------------------------------------
# pointwise density


def density_at(t, a, m, u0: mdl.InitialLaw, x, cfg: PathIntegralConfig,
               spec: mdl.ModelSpec):
    """Density value at (t, a, m) summed over jump counts up to K_max.

    Returns (value, truncation_bound) with the bound the Poisson(f_max*t)
    tail beyond K_max.  Raises ValueError unless t and a are finite and
    nonnegative and m has spec.d coordinates.

    For each k the backward chain runs once over all simplex nodes, and the
    initial memory law is evaluated on all their preimages at once; the
    survival and rate factors are then computed only at nodes whose preimage
    density is not <= 0 (a NaN density is kept and propagates).  When f is
    age-free, the first-segment survival integral and the rate at t_1 do not
    depend on the initial age, so they are computed once per node instead of
    once per initial-age node.  Neither changes a bit of the value.
    """
    from scipy.special import pdtrc
    m = np.atleast_1d(np.asarray(m, dtype=float))
    if not (0 <= t < math.inf and 0 <= a < math.inf) or m.shape != (spec.d,):
        raise ValueError(f"density_at needs finite t, a >= 0 and {spec.d} "
                         f"memory coordinates, got t={t}, a={a}, m={m}")
    trunc = float(pdtrc(cfg.K_max, spec.f_max * t))
    if a >= t:
        a0, m0 = phi_0_inverse(a, m, t, spec)
        base = u0.density(a0, m0)
        if base <= 0.0:
            return 0.0, trunc
        I = _survival_integral(spec, x, 0.0, t, a0, m0)
        return float(base * math.exp(_logdet(0, (), t, spec) - I)), trunc

    tk = t - a
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    cut = u0.age_cutoff(1e-12)
    gl_a, gl_w = leggauss(32)
    a0_nodes = 0.5 * (gl_a + 1.0) * cut
    a0_w = 0.5 * gl_w * cut
    ages = [(a0v, wv, float(da)) for a0v, wv, da
            in zip(a0_nodes, a0_w, u0.density_age(a0_nodes)) if not da <= 0.0]
    age_free = spec.f.age_free

    def first_factors(a0v, t1, m0, m1, x1):
        """exp(-int_0^t1 f) and f at t1 along the flow from (a0v, m0)."""
        I1 = _survival_integral(spec, x, 0.0, t1, a0v, m0)
        return math.exp(-I1), float(spec.intensity(a0v + t1, m1, x1))

    total = 0.0
    for k in range(1, cfg.K_max + 1):
        nodes, weights = _simplex_nodes(k - 1, tk, cfg, rng, cfg.mc_samples)
        all_times = np.concatenate([nodes, np.full((nodes.shape[0], 1), tk)],
                                   axis=1)
        all_m0, all_posts = _invert_chain(all_times.T[:, :, None], m, t, spec)
        all_dens = u0.density_mem(all_m0)
        acc = 0.0
        for i in np.flatnonzero(~(all_dens <= 0.0)):
            times, m0 = all_times[i], all_m0[i]
            t1 = times[0]
            m1 = m0 * np.exp(-spec.lam * t1)
            # the chain after the first jump does not depend on the initial age
            rest = _eta_chain(times[1:], 0.0, mdl.jump_apply(spec.jump, m1), x,
                              spec, t0=t1, t=t)
            # initial-age integral over the first survival-and-rate factor
            x1 = float(x(t1))
            if age_free:
                shared = first_factors(0.0, t1, m0, m1, x1)
            first = 0.0
            for a0v, wv, da in ages:
                surv1, rate1 = shared if age_free else first_factors(
                    a0v, t1, m0, m1, x1)
                first += wv * da * surv1 * rate1
            logdet = _logdet(k, (p[i] for p in all_posts), t, spec)
            acc += (weights[i] * float(all_dens[i]) * first * rest
                    * math.exp(logdet))
        total += acc
    return float(total), trunc


# ---------------------------------------------------------------------------
# vectorized grid evaluation for separable one-dimensional benchmarks


def _mc_budget(k):
    return {5: 1500, 6: 500, 7: 250, 8: 120}.get(k, 100)


def density_on_grid(t, a_nodes, m_nodes, u0: mdl.InitialLaw, x0,
                    cfg: PathIntegralConfig, spec: mdl.ModelSpec):
    """Fast evaluation of the path-integral density on a (a, m) grid.

    Requires d = 1, an affine jump b + c*m, a memory- and
    signal-independent intensity (x frozen at the constant x0), and a product
    initial law.  Survival integrals reduce to a tabulated cumulative of f.
    Jump counts k > 1 + max(cfg.gl_orders) draw _mc_budget(k) Monte Carlo
    nodes; cfg.mc_samples is not read.
    """
    if spec.d != 1:
        raise NotImplementedError("grid fast path implemented for d = 1")
    if not spec.f.memory_free:
        raise mdl.ConfigurationError("grid fast path needs memory-independent f")
    if spec.jump.affine is None:
        raise mdl.ConfigurationError("grid fast path needs an affine jump")
    lam0 = float(spec.lam[0])
    a_nodes = np.asarray(a_nodes, dtype=float)
    m_nodes = np.asarray(m_nodes, dtype=float)

    def f_age(arr):
        return np.asarray(spec.intensity(np.asarray(arr, dtype=float),
                                         np.zeros(1), x0), dtype=float)

    cut = u0.age_cutoff(1e-12)
    s_max = cut + t + float(a_nodes.max()) + 1.0
    hs = min(2e-3, t / 50.0 if t > 0 else 2e-3)
    sgrid = np.arange(0.0, s_max + hs, hs)
    fvals = f_age(sgrid)
    Fcum = np.concatenate([[0.0], np.cumsum(0.5 * (fvals[1:] + fvals[:-1]) * np.diff(sgrid))])

    def F(v):
        return np.interp(v, sgrid, Fcum)

    def fv(v):
        return np.interp(v, sgrid, fvals)

    # first-segment kernel integrated against the initial age law
    gl_a, gl_w = leggauss(64)
    a0n = 0.5 * (gl_a + 1.0) * cut
    a0w = 0.5 * gl_w * cut
    da0 = np.asarray(u0.density_age(a0n), dtype=float)
    t1g = np.linspace(0.0, t, 600)
    A1tab = np.array([
        float(np.sum(a0w * da0 * fv(a0n + t1) * np.exp(-(F(a0n + t1) - F(a0n)))))
        for t1 in t1g])

    def A1(v):
        return np.interp(v, t1g, A1tab)

    def u0mem(v):
        return np.asarray(u0.density_mem(np.asarray(v)[..., None]), dtype=float)

    # the jump's linear factor; the backward chain is m0 = p*m + q with
    # p = exp(lam t) / ctr^k and q the preimage of m = 0
    ctr = spec.jump.affine[0]
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    out = np.zeros((a_nodes.shape[0], m_nodes.shape[0]))

    # zero-jump branch, all rows with a >= t at once
    hi = a_nodes >= t
    if hi.any():
        ah = a_nodes[hi]
        base_a = np.asarray(u0.density_age(ah - t), dtype=float) \
            * np.exp(-(F(ah) - F(ah - t)))
        base_m = u0mem(m_nodes * math.exp(lam0 * t)) * math.exp(lam0 * t)
        out[hi] = base_a[:, None] * base_m[None, :]

    for ridx in np.nonzero(~hi)[0]:
        a = a_nodes[ridx]
        tk = t - a
        row = np.zeros(m_nodes.shape[0])
        surv_last = math.exp(-F(a))
        for k in range(1, cfg.K_max + 1):
            nodes, weights = _simplex_nodes(k - 1, tk, cfg, rng, _mc_budget(k))
            times = np.concatenate([nodes, np.full((nodes.shape[0], 1), tk)], axis=1)
            amp = A1(times[:, 0])
            if k > 1:
                diffs = np.diff(times, axis=1)
                amp = amp * np.prod(fv(diffs) * np.exp(-F(diffs)), axis=1)
            amp = amp * weights * surv_last
            keep = amp > 0.0
            if not keep.any():
                continue
            p = math.exp(lam0 * t) / (ctr ** k)
            q = _invert_chain(times[keep].T[:, :, None], np.zeros(1), t,
                              spec)[0][:, 0]
            dens = u0mem(p * m_nodes[None, :] + q[:, None])
            row += p * (amp[keep] @ dens)
        out[ridx] = row
    return out
