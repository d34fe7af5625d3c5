"""Distances between empirical measures and densities, and convergence studies.

The acceptance metric follows the compactifying transform (psi on age, tanh
on memory) followed by Wasserstein-1, approximated in dimension 1 + d by a
sliced average of exact one-dimensional distances over fixed seeded
directions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import model as mdl
from . import particle


def wasserstein1_1d(u, v, u_weights=None, v_weights=None):
    """Exact one-dimensional W1 between weighted samples."""
    from scipy.stats import wasserstein_distance
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.size == 0 or v.size == 0:
        raise ValueError("empty input sample")
    return float(wasserstein_distance(u, v, u_weights, v_weights))


def grid_to_cloud(a_nodes, m_nodes_list, rho, max_points=25_000):
    """Weighted cell-center point cloud from a density tabulated on nodes.

    Cell masses come from corner averages times cell volume; axes are
    coarsened by integer factors until the cloud fits the point budget.
    """
    rho = np.asarray(rho, dtype=float)
    axes = [np.asarray(a_nodes, dtype=float)] + [np.asarray(m, dtype=float)
                                                 for m in m_nodes_list]
    cells = rho
    for ax in range(cells.ndim):
        sl_lo = [slice(None)] * cells.ndim
        sl_hi = [slice(None)] * cells.ndim
        sl_lo[ax] = slice(None, -1)
        sl_hi[ax] = slice(1, None)
        cells = 0.5 * (cells[tuple(sl_lo)] + cells[tuple(sl_hi)])
    centers = [0.5 * (ax[:-1] + ax[1:]) for ax in axes]
    vol = 1.0
    for ax in axes:
        vol *= ax[1] - ax[0]
    w = cells * vol

    while w.size > max_points:
        ax = int(np.argmax(w.shape))
        n = w.shape[ax]
        keep = n - (n % 2)
        sl = [slice(None)] * w.ndim
        sl[ax] = slice(0, keep)
        w = w[tuple(sl)]
        sh = list(w.shape)
        sh[ax: ax + 1] = [keep // 2, 2]
        w = w.reshape(sh).sum(axis=ax + 1)
        c = centers[ax][:keep]
        centers[ax] = 0.5 * (c[0::2] + c[1::2])

    mesh = np.meshgrid(*centers, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=1)
    wts = w.ravel()
    keep = wts > 0
    wts = wts[keep]
    total = wts.sum()
    if total <= 0:
        raise ValueError("density carries no mass")
    return pts[keep], wts / total


def transform_points(points, psi: mdl.PsiParams):
    """(a, m) -> (psi(a), tanh(m)) componentwise."""
    points = np.asarray(points, dtype=float)
    out = np.empty_like(points)
    out[:, 0] = mdl.psi_eval(points[:, 0], psi)
    out[:, 1:] = np.tanh(points[:, 1:])
    return out


def sliced_w1(pts_a, w_a, pts_b, w_b, n_directions=64, seed=0, directions=None):
    """Average of exact 1-d W1 over fixed unit directions."""
    from scipy.stats import wasserstein_distance
    pts_a = np.asarray(pts_a, dtype=float)
    pts_b = np.asarray(pts_b, dtype=float)
    dim = pts_a.shape[1]
    if directions is None:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        directions = rng.standard_normal((n_directions, dim))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    else:
        directions = np.asarray(directions, dtype=float)
    acc = 0.0
    for u in directions:
        acc += wasserstein_distance(pts_a @ u, pts_b @ u, w_a, w_b)
    return float(acc / len(directions))


def transformed_w1(points, weights, density_cloud, psi: mdl.PsiParams,
                   n_directions=64, seed=0, directions=None):
    """Compactified sliced W1 between an empirical point set and a density cloud.

    density_cloud is a (points, weights) pair as produced by grid_to_cloud.
    """
    dp, dw = density_cloud
    if np.asarray(dw).sum() <= 0:
        raise ValueError("density carries no mass")
    za = transform_points(points, psi)
    zb = transform_points(dp, psi)
    return sliced_w1(za, weights, zb, dw, n_directions=n_directions,
                     seed=seed, directions=directions)


def exact_w1_discrete(x_pts, y_pts):
    """Brute-force optimal transport for tiny uniform discrete measures."""
    x_pts = np.asarray(x_pts, dtype=float)
    y_pts = np.asarray(y_pts, dtype=float)
    n = x_pts.shape[0]
    if n != y_pts.shape[0] or n > 6:
        raise ValueError("exact oracle handles equal-size sets of at most 6 points")
    best = math.inf
    for perm in itertools.permutations(range(n)):
        cost = float(np.mean(np.linalg.norm(x_pts - y_pts[list(perm)], axis=1)))
        best = min(best, cost)
    return best


# ---------------------------------------------------------------------------
# slope fits


def _loglog_coef(Ns, log_means):
    """Least-squares (slope, intercept) of log_means on log Ns; a 2-d
    log_means holds one fit per column."""
    Ns = np.asarray(Ns, dtype=float)
    A = np.vstack([np.log(Ns), np.ones_like(Ns)]).T
    coef, *_ = np.linalg.lstsq(A, log_means, rcond=None)
    return coef


def fit_loglog_slope(Ns, means):
    slope, intercept = _loglog_coef(Ns, np.log(np.asarray(means, dtype=float)))
    return float(slope), float(intercept)


def _bootstrap_slope(Ns, values_by_N, n_boot=1000, seed=0):
    """Percentile 95 % interval of the log-log slope over n_boot resamples
    of every rung, each rung mean clamped at 1e-300 (Efron & Tibshirani
    1993, ch. 13).  One generator call draws the indices in the order of a
    loop over replicas and rungs, and one lstsq fits every replica: each
    slope has the bits of that loop's per-replica draws and fit."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    vals = [np.asarray(v, dtype=float) for v in values_by_N]
    lens = np.array([v.size for v in vals])
    idx = rng.integers(np.repeat(lens, lens), size=(n_boot, int(lens.sum())))
    ends = np.cumsum(lens)
    means = np.stack([v[idx[:, e - v.size:e]].mean(axis=-1)
                      for v, e in zip(vals, ends)], axis=1)
    slopes = _loglog_coef(Ns, np.log(np.maximum(means, 1e-300)).T)[0]
    return float(np.quantile(slopes, 0.025)), float(np.quantile(slopes, 0.975))


def decreasing_trend_pvalue(Ns, values):
    """One-sided Kendall test that the values trend downward in N."""
    if len(values) < 2:
        return 1.0
    from scipy.stats import kendalltau
    tau, p = kendalltau(Ns, values)
    if np.isnan(tau):
        return 1.0
    return float(p / 2.0 if tau < 0 else 1.0 - p / 2.0)


@dataclass
class ConvergenceTable:
    rows: list                      # (N, replicate, t, w1)
    slope: float
    intercept: float
    slope_ci: tuple
    trend_pvalue: float
    means: dict = field(default_factory=dict)

    def to_csv(self, path):
        mdl.write_csv(path, ["N", "replicate", "t", "w1"],
                      ((N, rep, float(t), float(v)) for N, rep, t, v in self.rows))

    def summary(self):
        """The study's record without its rows.  means is keyed by str(N):
        the pinned records sort those keys as strings, "10" before "5"."""
        return {"slope": self.slope, "intercept": self.intercept,
                "slope_ci": self.slope_ci, "trend_pvalue": self.trend_pvalue,
                "means": {str(k): v for k, v in self.means.items()}}


def convergence_study(spec: mdl.ModelSpec, N_ladder, t_eval, n_replicas, seed,
                      density_cloud, n_directions=64):
    """Empirical-measure W1 against the limit density across a ladder of N."""
    def w1(N, child):
        rec = particle.simulate_network(spec, N, t_eval, child, save_times=[t_eval])
        pts, wts = particle.empirical_measure(rec, t_eval)
        return transformed_w1(pts, wts, density_cloud, spec.psi,
                              n_directions=n_directions, seed=seed)

    return _replica_study(N_ladder, n_replicas, seed, t_eval, w1)


def coupling_decay_study(spec: mdl.ModelSpec, N_ladder, T, x_path, n_replicas,
                         seed):
    """Pathwise coupled distance across a ladder of N, with a log-log slope."""
    def distance(N, child):
        return particle.simulate_coupled_pair(spec, N, T, x_path, child,
                                              n_replicas=1).sup_distance

    return _replica_study(N_ladder, n_replicas, seed, T, distance)


def _replica_study(N_ladder, n_replicas, seed, t, task):
    """Table of rows (N, replicate, t, task(N, child seed)) over the ladder.

    The child seed of rung ni, replicate rep comes from
    SeedSequence(seed, spawn_key=(ni, rep)).  The tasks run serially in
    (rung, replicate) order: they are pure Python holding the GIL, and a
    thread pool only slowed them down.  Raises ValueError if the ladder
    repeats an N, whose rungs the slope fit would count as two points.
    """
    N_ladder = list(N_ladder)
    if len(set(N_ladder)) != len(N_ladder):
        raise ValueError(f"N_ladder {N_ladder} repeats an N")
    rows, values_by_N = [], []
    for ni, N in enumerate(N_ladder):
        vals = []
        for rep in range(n_replicas):
            child = np.random.SeedSequence(seed, spawn_key=(ni, rep))
            vals.append(task(N, int(child.generate_state(1)[0])))
            rows.append((N, rep, t, vals[-1]))
        values_by_N.append(vals)
    means = {Nv: float(np.mean(vals)) for Nv, vals in zip(N_ladder, values_by_N)}
    flatN = [N for (N, _, _, _) in rows]
    flatv = [v for (_, _, _, v) in rows]
    pval = decreasing_trend_pvalue(flatN, flatv)
    if len(N_ladder) >= 2 and n_replicas >= 1 and min(means.values()) > 0:
        slope, intercept = fit_loglog_slope(N_ladder, [means[Nv] for Nv in N_ladder])
        ci = _bootstrap_slope(N_ladder, values_by_N, seed=seed)
    else:
        slope, intercept, ci = None, None, None
    return ConvergenceTable(rows, slope, intercept, ci, pval, means)
