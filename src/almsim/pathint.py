"""Path-integral representation of the limit density.

The density at time t is a sum over jump counts k of pushforwards of the
jump-time densities nu^k through explicit diffeomorphisms: the k-jump memory
flow theta^k (decay segments interleaved with the jump mapping) and the
coordinate map phi^k sending (jump times, initial memory) to (leading jump
times, age, memory).  Serves as an independent oracle for the grid solver.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import model as mdl

# one Gauss-Legendre rule per order; no caller writes to a shared rule
_leggauss = functools.cache(leggauss)

# The survival rule: _GL_ORDER nodes per cell of time, with cells cut at the
# signal's knots and at the multiples of _PANEL, which bounds them on long
# knot-free stretches; rows go in blocks of about _BLOCK quadrature nodes.
_GL_ORDER = 8
_PANEL = 0.25
_BLOCK = 2 ** 17


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

    K_max truncates the sum over jump counts; callers derive it from a tail
    tolerance with jump_count_tail."""

    K_max: int = 6
    gl_orders: dict = field(default_factory=lambda: {1: 24, 2: 12, 3: 8})
    mc_samples: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.K_max < 0:
            raise ValueError("need K_max >= 0")


# ---------------------------------------------------------------------------
# flow maps


def theta_k(times, t, spec: mdl.ModelSpec, m0):
    """Memory at time t given jumps at `times`, starting from m0 at time 0."""
    times = _check_times(times, t)
    m = np.atleast_1d(np.asarray(m0, dtype=float))
    prev = 0.0
    for tk in times:
        m = mdl.jump_apply(spec.jump, spec.flow(m, tk - prev))
        prev = tk
    return spec.flow(m, t - prev)


def theta_k_recursive(times, t, spec: mdl.ModelSpec, m0):
    """Same map via the recurrence theta^k_t = decay(t - t_k) o gamma o theta^{k-1}_{t_k}."""
    times = _check_times(times, t)
    if times.size == 0:
        return spec.flow(np.atleast_1d(np.asarray(m0, dtype=float)), t)
    inner = theta_k_recursive(times[:-1], times[-1], spec, m0)
    return spec.flow(mdl.jump_apply(spec.jump, inner), t - times[-1])


def phi_k_apply(times, m0, t, spec: mdl.ModelSpec):
    """(t1..tk, m0) -> (t1..t_{k-1}, a = t - tk, m = theta^k(m0)); k = 0 maps (a0, m0)."""
    times = _check_times(times, t)
    m = theta_k(times, t, spec, m0)
    if times.size == 0:
        raise ValueError("k = 0 has no jump coordinates; use phi_0_apply")
    return times[:-1], t - times[-1], m


def phi_0_apply(a0, m0, t, spec: mdl.ModelSpec):
    return a0 + t, spec.flow(np.atleast_1d(np.asarray(m0, dtype=float)), t)


def phi_0_inverse(a, m, t, spec: mdl.ModelSpec):
    if a < t:
        raise ValueError("no zero-jump preimage with age below t")
    return a - t, spec.flow(np.atleast_1d(np.asarray(m, dtype=float)), -t)


def _invert_chain(times, m, t, spec: mdl.ModelSpec):
    """Returns (m0, post_jump_points) walking the flow backwards from (t, m).

    With times of shape (k, S), S jump-time rows go back at once and each
    returned array gains a leading axis of length S."""
    cur = np.atleast_1d(np.asarray(m, dtype=float))
    t_hi = t
    posts = []
    for tk in times[::-1]:
        cur = spec.flow(cur, tk - t_hi)
        posts.append(cur)
        cur = mdl.jump_inverse(spec.jump, cur)
        t_hi = tk
    m0 = spec.flow(cur, -t_hi)
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
    return float(_logdet(times.size, _invert_chain(times, m, t, spec)[1], t,
                         spec))


def _logdet(k, posts, t, spec: mdl.ModelSpec):
    """log |det D(phi^k_t)^{-1}| given the k post-jump points of the backward
    chain (arrays with the memory axis last, read only for a custom jump).

    The Jacobian is block triangular in (times, memory); the time block has
    unit absolute determinant, leaving exp(t TrLambda) times the product of
    jump-inverse determinants along the backward chain.
    """
    base = spec.back_flow_logdet(t)
    j = spec.jump
    if j.affine is not None:
        return base - k * spec.d * math.log(j.affine[0])
    return base + sum(mdl.jump_inverse_jacobian_logdet(j, p) for p in posts)


# ---------------------------------------------------------------------------
# jump-time densities


def _survival(spec, x, t_a, t_b, age, mem):
    """int_{t_a}^{t_b} f along the drift flow started at (age, mem) at time
    t_a, one integral per row: t_a, t_b and age broadcast to the rows' shape,
    and mem has that shape plus the memory axis.  x is an XPath.

    Between the knots of x the signal is linear and the flow is smooth, so a
    fixed composite Gauss-Legendre rule is exact to rounding (Davis &
    Rabinowitz, Methods of Numerical Integration, ch. 2)."""
    shape = np.broadcast(t_a, t_b, age, mem[..., 0]).shape
    t_a, t_b, age = (np.broadcast_to(v, shape).ravel() for v in (t_a, t_b, age))
    mem = np.broadcast_to(mem, shape + (spec.d,)).reshape(-1, spec.d)
    edges = np.union1d(x.grid, _PANEL * np.arange(np.max(t_b) // _PANEL + 2))
    # each row clips the cells to its own [t_a, t_b]
    first = np.searchsorted(edges, t_a, "right") - 1
    n = np.maximum(np.searchsorted(edges, t_b) - first, 0)
    start = np.cumsum(n) - n
    v, w = _leggauss(_GL_ORDER)
    out = np.empty(n.size)
    for rows in np.split(np.arange(n.size), 1 + np.flatnonzero(
            np.diff(start // (_BLOCK // _GL_ORDER)))):
        row = np.repeat(rows, n[rows])
        cell = first[row] + np.arange(row.size) + start[rows[0]] - start[row]
        s_lo = np.maximum(edges[cell], t_a[row])
        half = 0.5 * (np.minimum(edges[cell + 1], t_b[row]) - s_lo)
        s = (s_lo + half)[:, None] + half[:, None] * v
        rel = s - t_a[row, None]
        f = spec.intensity(age[row, None] + rel, spec.flow(mem[row, None], rel),
                           x(s))
        # a row's sum does not depend on the other rows of its block
        out[rows] = np.bincount(row - rows[0], half * np.sum(f * w, axis=1),
                                rows.size)
    return out.reshape(shape)


def _eta_chain(times, a0, m0, x, spec, t0=0.0, t=None):
    """Product of the survival and rate factors of jumps at `times` along the
    flow from (a0, m0) at time t0, one per row: times is (S, k), m0 is (S, d)
    or (d,), and a0 and t0 are scalars or (S,).  With t, times the
    no-further-jump survival on (t_k, t]."""
    eta = np.ones(times.shape[0])
    t_prev, age, mem = t0, a0, m0
    for tk in times.T:
        rel = tk - t_prev
        mem_k = spec.flow(mem, rel)
        eta *= (np.exp(-_survival(spec, x, t_prev, tk, age, mem))
                * spec.intensity(age + rel, mem_k, x(tk)))
        mem = mdl.jump_apply(spec.jump, mem_k)
        age, t_prev = 0.0, tk
    if t is None:
        return eta
    return eta * np.exp(-_survival(spec, x, t_prev, t, age, mem))


def eta_k(times, a0, m0, x, spec: mdl.ModelSpec):
    """Joint density of the first k jump times at the given instants."""
    times = _check_times(times, math.inf)
    return _eta_chain(times[None], a0, np.atleast_1d(m0), x, spec).item()


def nu_k(t, times, a0, m0, x, spec: mdl.ModelSpec):
    """eta^k times the no-further-jump survival on (t_k, t]."""
    times = _check_times(times, t)
    return _eta_chain(times[None], a0, np.atleast_1d(m0), x, spec, t=t).item()


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
        v, w = _leggauss(order)
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
    """Density value at (t, a, m) summed over jump counts up to K_max, on the
    XPath x.

    Returns (value, truncation_bound) with the bound the Poisson(f_max*t)
    tail beyond K_max.  Raises ValueError unless t and a are finite and
    nonnegative and m has spec.d coordinates.

    For each k the backward chain runs once over all simplex nodes, and the
    initial memory law is evaluated on all their preimages at once; the
    survival and rate factors are then computed in array passes over the
    nodes whose preimage density is not <= 0 (a NaN density is kept and
    propagates), the first factor over those nodes times the initial ages.
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
        I = _survival(spec, x, 0.0, t, a0, m0)
        return float(base * math.exp(_logdet(0, (), t, spec) - I)), trunc

    tk = t - a
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    cut = u0.age_cutoff()
    gl_a, gl_w = _leggauss(32)
    a0_nodes = 0.5 * (gl_a + 1.0) * cut
    w_da = 0.5 * gl_w * cut * u0.density_age(a0_nodes)

    total = 0.0
    for k in range(1, cfg.K_max + 1):
        nodes, weights = _simplex_nodes(k - 1, tk, cfg, rng, cfg.mc_samples)
        times = np.concatenate([nodes, np.full((nodes.shape[0], 1), tk)],
                               axis=1)
        m0, posts = _invert_chain(times.T, m, t, spec)
        dens = u0.density_mem(m0)
        keep = ~(dens <= 0.0)
        if not keep.any():
            continue
        times, m0, posts = times[keep], m0[keep], [p[keep] for p in posts]
        t1 = times[:, 0]
        m1 = spec.flow(m0, t1)
        # the chain after the first jump does not depend on the initial age
        rest = _eta_chain(times[:, 1:], 0.0, mdl.jump_apply(spec.jump, m1), x,
                          spec, t0=t1, t=t)
        # the first survival-and-rate factor, integrated over the initial age
        first = (np.exp(-_survival(spec, x, 0.0, t1[:, None], a0_nodes,
                                   m0[:, None]))
                 * spec.intensity(a0_nodes + t1[:, None], m1[:, None],
                                  x(t1)[:, None])) @ w_da
        total += float(np.sum(weights[keep] * dens[keep] * first * rest
                              * np.exp(_logdet(k, posts, t, spec))))
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
    grow = spec.axis_flow(-t)[0]    # exp(Lambda t), the backward flow's factor
    a_nodes = np.asarray(a_nodes, dtype=float)
    m_nodes = np.asarray(m_nodes, dtype=float)

    def f_age(arr):
        return np.asarray(spec.intensity(np.asarray(arr, dtype=float),
                                         np.zeros(1), x0), dtype=float)

    cut = u0.age_cutoff()
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
    gl_a, gl_w = _leggauss(64)
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
    # p = grow / ctr^k and q the preimage of m = 0
    ctr = spec.jump.affine[0]
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    out = np.zeros((a_nodes.shape[0], m_nodes.shape[0]))

    # zero-jump branch, all rows with a >= t at once
    hi = a_nodes >= t
    if hi.any():
        ah = a_nodes[hi]
        base_a = np.asarray(u0.density_age(ah - t), dtype=float) \
            * np.exp(-(F(ah) - F(ah - t)))
        base_m = u0mem(m_nodes * grow) * grow
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
            p = grow / (ctr ** k)
            q = _invert_chain(times[keep].T, np.zeros(1), t,
                              spec)[0][:, 0]
            dens = u0mem(p * m_nodes[None, :] + q[:, None])
            row += p * (amp[keep] @ dens)
        out[ridx] = row
    return out
