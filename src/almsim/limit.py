"""Picard solver for the deterministic limit signal x_t and limit-process sampling.

The fixed-point map sends a candidate path y to
    Phi(y)_t = E[H_t] + int_0^t E[h(t-s, A_s, M_s) f(A_s, M_s, y_s)] ds
where (A, M) is the jump-drift process thinned at rate f(.,.,y).  The
expectation is a Monte Carlo average over particles simulated with common
random numbers across iterations; the time integral uses the left-endpoint
rule, consistent with the predictable (s-) convention.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from . import model as mdl


@dataclass
class XPath:
    """Piecewise-linear signal through (grid, values): at least two knots,
    the grid strictly increasing, every number finite."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self._g = np.asarray(self.grid, dtype=float).tolist()
        self._v = np.asarray(self.values, dtype=float).tolist()

    def __call__(self, t):
        """np.interp(t, grid, values).  A float t, np.float64 included, is
        looked up by binary search with np.interp's arithmetic and bits,
        without the cost of its array call."""
        g, v = self._g, self._v
        if not isinstance(t, float):
            return np.interp(t, self.grid, self.values)
        t = float(t)
        if t != t:
            return t
        j = bisect.bisect_right(g, t) - 1
        if j < 0:
            return v[0]
        if j == len(g) - 1 or g[j] == t:
            return v[j]
        return (v[j + 1] - v[j]) / (g[j + 1] - g[j]) * (t - g[j]) + v[j]

    def to_csv(self, path):
        mdl.write_csv(path, ["t", "x"], zip(self._g, self._v))


@dataclass
class PicardReport:
    iterations: int
    deltas: list
    final_delta: float
    n_particles: int
    converged: bool


def common_random_numbers_stream(seed, index):
    """Generator for one logical stream; same (seed, index) -> same draws."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _candidate_budget(f_max, T):
    mu = f_max * T
    return int(mu + 10.0 * math.sqrt(mu) + 25.0)


def _simulate_events(spec, ts, xvals, cand_t, cand_u, a0, m0):
    """Lockstep thinning of all particles against the signal x.

    Returns per-particle accepted-event arrays: acc_t (n, K+1) with slot 0 at
    time 0, acc_m post-jump memories, acc_cnt slot counts.  Slot 0 holds the
    initial state (age offset a0, memory m0).
    """
    n, n_cand = cand_t.shape
    d = m0.shape[1]
    lam = spec.lam
    fmax = spec.f_max
    T = ts[-1]

    acc_t = np.full((n, n_cand + 1), np.inf)
    acc_t[:, 0] = 0.0
    acc_m = np.zeros((n, n_cand + 1, d))
    acc_m[:, 0] = m0
    acc_cnt = np.ones(n, dtype=np.int64)

    t_e = np.zeros(n)
    a_e = a0.copy()
    m_e = m0.copy()

    for r in range(n_cand):
        tc = cand_t[:, r]
        act = tc <= T
        if not act.any():
            break
        idx = np.nonzero(act)[0]
        el = tc[idx] - t_e[idx]
        a = a_e[idx] + el
        m = m_e[idx] * np.exp(-lam[None, :] * el[:, None])
        xs = np.interp(tc[idx], ts, xvals)
        fv = spec.intensity(a, m, xs)
        hit = cand_u[idx, r] * fmax <= fv
        j = idx[hit]
        if j.size:
            t_e[j] = tc[j]
            a_e[j] = 0.0
            m_e[j] = mdl.jump_apply(spec.jump, m[hit])
            acc_t[j, acc_cnt[j]] = tc[j]
            acc_m[j, acc_cnt[j]] = m_e[j]
            acc_cnt[j] += 1
    return acc_t, acc_m, acc_cnt


def _candidate_stream(spec, n, T, seed):
    """Initial states and per-particle candidate times and uniforms on
    common-random-number streams 0, 1 and 2; times past T are inf."""
    a0, m0 = spec.init_law.sample(common_random_numbers_stream(seed, 0), n)
    n_cand = _candidate_budget(spec.f_max, T)
    gaps = common_random_numbers_stream(seed, 1).exponential(1.0 / spec.f_max,
                                                            size=(n, n_cand))
    cand_t = np.cumsum(gaps, axis=1)
    cand_u = common_random_numbers_stream(seed, 2).random((n, n_cand))
    cand_t[cand_t > T] = np.inf
    return a0, m0, cand_t, cand_u


def _walk_slots(spec, acc_t, acc_m, acc_cnt, a0, times):
    """Yields, slot by slot, the (particle, time) index pairs that fall in
    the slot and the ages and memories there, in np.nonzero's particle-major
    order.  times must be sorted: slot k of particle p holds the indices
    edge[p, k] up to edge[p, k + 1], the times from acc_t[p, k] to just
    before acc_t[p, k + 1] (inf past the last event)."""
    n, S = acc_t.shape[0], times.shape[0]
    lam = spec.lam
    K = int(acc_cnt.max())
    edge = np.full((n, K + 1), S)
    edge[:, :K] = np.searchsorted(times, acc_t[:, :K], "left")
    for k in range(K):
        cnt = edge[:, k + 1] - edge[:, k]
        pi = np.repeat(np.arange(n), cnt)
        if pi.size == 0:
            continue
        start = np.cumsum(cnt) - cnt
        gi = np.arange(pi.size) + np.repeat(edge[:, k] - start, cnt)
        rel = times[gi] - acc_t[pi, k]
        a = rel + (a0[pi] if k == 0 else 0.0)
        yield pi, gi, a, acc_m[pi, k] * np.exp(-lam[None, :] * rel[:, None])


def _states_at(spec, acc_t, acc_m, acc_cnt, a0, times):
    """Ages and memories of every particle at the requested times."""
    times = np.asarray(times, dtype=float)
    n, S = acc_t.shape[0], times.shape[0]
    ages = np.zeros((n, S))
    mems = np.zeros((n, S, acc_m.shape[2]))
    for pi, gi, a, m in _walk_slots(spec, acc_t, acc_m, acc_cnt, a0, times):
        ages[pi, gi] = a
        mems[pi, gi] = m
    return ages, mems


def solve_x_picard(spec: mdl.ModelSpec, T: float, dt=None, n_particles=20_000,
                   seed=0, tol=1e-4, max_iter=25):
    """Fixed-point iteration for the limit signal on a uniform grid."""
    if dt is None:
        dt = 1e-3 * T
    if dt <= 0 or tol <= 0:
        raise ValueError("need dt > 0 and tol > 0")
    G = mdl.step_count(T, dt)
    ts = np.arange(G + 1) * dt
    n = n_particles
    h = spec.h
    a0, m0, cand_t, cand_u = _candidate_stream(spec, n, T, seed)

    hbar = np.asarray(spec.Hbar(ts), dtype=float)
    kv = np.asarray(mdl.kernel_eval(h, ts), dtype=float)
    x = hbar.copy()
    deltas = []
    converged = False
    iters = 0
    for it in range(max_iter):
        iters = it + 1
        if h.J == 0.0:
            x_new = hbar.copy()
        else:
            acc_t, acc_m, acc_cnt = _simulate_events(spec, ts, x, cand_t, cand_u, a0, m0)
            q = np.zeros(G + 1)
            for _, gi, a, m in _walk_slots(spec, acc_t, acc_m, acc_cnt, a0, ts):
                val = (np.asarray(mdl.modulation_eval(h, a, m), dtype=float)
                       * np.asarray(spec.intensity(a, m, x[gi]), dtype=float))
                np.add.at(q, gi, val)
            # each grid time falls in exactly one slot of each particle: slot
            # 0 opens at t = 0 and a particle's last slot runs to the end of ts
            q /= n
            conv = np.convolve(q, kv)[:G + 1]
            x_new = hbar + dt * h.J * (conv - kv[0] * q)
        delta = float(np.max(np.abs(x_new - x)))
        deltas.append(delta)
        x = x_new
        if delta <= tol:
            converged = True
            break
    report = PicardReport(iters, deltas, deltas[-1] if deltas else 0.0,
                          n, converged)
    return XPath(ts, x), report


@dataclass
class LimitTrajectories:
    save_times: np.ndarray
    ages: np.ndarray        # (n, S)
    memories: np.ndarray    # (n, S, d)
    event_counts: np.ndarray


def simulate_limit_process(spec: mdl.ModelSpec, x: XPath, n: int, seed: int,
                           save_times) -> LimitTrajectories:
    """n i.i.d. trajectories of the limit jump-drift process given x."""
    save_times = np.asarray(sorted(save_times), dtype=float)
    if not (save_times.size and save_times[0] >= 0.0):
        raise ValueError("save times must be nonempty and nonnegative")
    T = float(save_times[-1])
    if x.grid[-1] < T - 1e-12:
        raise ValueError("x path does not cover the requested horizon")
    a0, m0, cand_t, cand_u = _candidate_stream(spec, n, T, seed)
    xg = np.asarray(x.grid, dtype=float)
    xv = np.asarray(x.values, dtype=float)
    acc_t, acc_m, acc_cnt = _simulate_events(spec, xg, xv, cand_t, cand_u, a0, m0)
    ages, mems = _states_at(spec, acc_t, acc_m, acc_cnt, a0, save_times)
    return LimitTrajectories(save_times, ages, mems, acc_cnt - 1)
