"""Semi-Lagrangian solver for the limit population density equation.

The density rho_t(a, m) is marched on characteristics: age advances at unit
speed (node-aligned, no age interpolation), memory follows the closed-form
decay flow with volume factor exp(dt*TrLambda), and survival attenuation uses
a midpoint rule in the exponent.  The age-zero border layer is rebuilt each
step from the jump-mapped loss integral, and the deterministic signal x_t
satisfies a Volterra equation discretized with the left-endpoint rule.

Each step does its per-row work (decay pull, survival, loss density f rho,
memory integrals) in one pass over L2-sized blocks of age rows; the age
integrals, the border layer and the clip then run once on the whole grid.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import model as mdl
from .limit import XPath


# ---------------------------------------------------------------------------
# grid


@dataclass(frozen=True)
class Grid:
    """Grid of the march.  Age nodes are dt apart, a_max/dt + 1 of them,
    because each step moves a row one age node; n_a sets no resolution and
    is only checked to make a_max/n_a a whole multiple of dt.  Memory axis k
    has n_m[k] + 1 uniform nodes on [m_lo[k], m_hi[k]]."""
    a_max: float
    n_a: int
    m_lo: tuple
    m_hi: tuple
    n_m: tuple
    T: float
    dt: float

    def __post_init__(self):
        da = self.a_max / self.n_a
        k = da / self.dt
        if abs(k - round(k)) > 1e-9 or round(k) < 1:
            raise mdl.ConfigurationError("dt must divide the age cell width")
        g = self.T / self.dt
        if abs(g - round(g)) > 1e-9:
            raise mdl.ConfigurationError("dt must divide T")
        if len(self.m_lo) != len(self.m_hi) or len(self.m_lo) != len(self.n_m):
            raise mdl.ConfigurationError("memory box dimension mismatch")

    @property
    def d(self):
        return len(self.m_lo)

    @property
    def a_nodes(self):
        n = int(round(self.a_max / self.dt))
        return np.arange(n + 1) * self.dt

    def m_nodes(self, k):
        return np.linspace(self.m_lo[k], self.m_hi[k], self.n_m[k] + 1)

    @property
    def n_steps(self):
        return int(round(self.T / self.dt))


def _trapz_weights(nodes):
    w = np.full(nodes.shape, nodes[1] - nodes[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _dot_last(arr, w):
    """Contracts the last axis of arr with w.  einsum sums in its own loops
    and never calls BLAS, whose summation order follows its thread count;
    the solvers' weighted sums go through here or _border, so their bits do
    not depend on that count."""
    return np.einsum("...i,i->...", arr, w)


@dataclass(frozen=True)
class _RemapTable:
    """Fixed weights of the uniform-grid monotone-cubic remap along one axis.

    Target j lies in cell idx[j] at offset s in [0, 1]; the derivative of
    the cubic Hermite fit there is
        6s(1-s) m[i] + (1-s)(1-3s) d[i] + s(3s-2) d[i+1]
    in the cell slope m[i] and the node slopes d[i], d[i+1].  The three
    weights carry |dslope| and are zero for targets outside the box.  ends
    holds the cells and cubic-value weights of the lowest and highest
    in-box targets, or None when no target is inside.
    """
    h: float
    idx: np.ndarray
    w_m: np.ndarray
    w_0: np.ndarray
    w_1: np.ndarray
    trapz: np.ndarray
    ends: tuple


def _remap_table(nodes, targets, dslope):
    """Weights of _mass_remap for one axis; nodes must be uniformly spaced."""
    nodes = np.asarray(nodes, dtype=float)
    # the first cell's width, as in _trapz_weights, so that the remap and the
    # trapezoid masses agree; the others may differ from it by the rounding
    # of the node values, no more
    h = float(nodes[1] - nodes[0])
    slack = 1e-9 * h + 8.0 * np.finfo(float).eps * np.abs(nodes).max()
    if not (h > 0 and np.all(np.abs(np.diff(nodes) - h) <= slack)):
        raise ValueError("remap nodes must be increasing and uniformly spaced")
    t = np.asarray(targets, dtype=float)
    inside = (t >= nodes[0] - 1e-12) & (t <= nodes[-1] + 1e-12)
    tc = np.clip(t, nodes[0], nodes[-1])
    idx = np.clip(np.searchsorted(nodes, tc, side="right") - 1,
                  0, nodes.size - 2)
    # offsets in the cell; the clip keeps node rounding from pushing one past
    # the cell end, where the Hermite weights lose their sign pattern
    s = np.clip((tc - nodes[idx]) / h, 0.0, 1.0)
    scale = np.abs(dslope) * inside
    ends = None
    if inside.any():
        ti = tc[inside]
        sel = [np.argmin(ti), np.argmax(ti)]
        i, u = idx[inside][sel], s[inside][sel]
        sign = np.array([-1.0, 1.0])
        # Hermite basis at u: values of y[i], y[i+1] and h*d[i], h*d[i+1]
        wy = sign * np.stack([(1 - u) ** 2 * (1 + 2 * u), u * u * (3 - 2 * u)])
        wd = sign * h * np.stack([u * (1 - u) ** 2, -u * u * (1 - u)])
        ends = (np.concatenate([i, i + 1]), wy.ravel(), wd.ravel())
    return _RemapTable(h, idx, 6 * s * (1 - s) * scale,
                       (1 - s) * (1 - 3 * s) * scale, s * (3 * s - 2) * scale,
                       _trapz_weights(nodes), ends)


def _edge_slope(m0, m1):
    """Three-point one-sided end slope with scipy's PCHIP shape rules."""
    d = 0.5 * (3.0 * m0 - m1)
    d = np.where(np.sign(d) != np.sign(m0), 0.0, d)
    flip = (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    return np.where(flip, 3.0 * m0, d)


def _pchip_slopes(mk):
    """Fritsch-Carlson node slopes from the cell slopes mk on a uniform grid.

    Interior slopes are the harmonic mean of the neighbouring cell slopes
    where both have the same sign and neither is zero, and zero elsewhere;
    the end slopes follow Moler's rule (Numerical Computing with MATLAB
    3.6).  These are the rules of scipy's PchipInterpolator.
    """
    d = np.zeros(mk.shape[:-1] + (mk.shape[-1] + 1,))
    if mk.shape[-1] == 1:
        d[...] = mk
        return d
    m0, m1 = mk[..., :-1], mk[..., 1:]
    sg = np.sign(mk)
    same = (sg[..., :-1] == sg[..., 1:]) & (sg[..., :-1] != 0)
    # 2 m0 m1 / (m0 + m1), written so that the product cannot underflow
    inner = d[..., 1:-1]
    np.divide(m1, m0 + m1, out=inner, where=same)
    inner *= m0
    inner *= 2.0
    d[..., 0] = _edge_slope(mk[..., 0], mk[..., 1])
    d[..., -1] = _edge_slope(mk[..., -1], mk[..., -2])
    return d


def _mass_remap(arr, tab: _RemapTable, axis):
    """Conservative monotone remap of a density along one axis.

    The samples are converted to a cumulative mass function (trapezoid cell
    masses), fitted with a monotone cubic (PCHIP, Fritsch & Carlson 1980),
    and the derivative of that fit is read off at the mapped points and
    multiplied by |dslope|, the derivative of the inverse flow map.  Mass
    between any two flow points is preserved by construction, the result is
    nonnegative for nonnegative input, and targets outside the node range
    contribute zero (the density is treated as vanishing outside the box).
    The target cells and Hermite weights come precomputed in tab (see
    _remap_table), so a call is one cumulative sum, the slopes and a
    weighted gather.

    Plain node-value interpolation is not used here on purpose: iterating it
    over many steps is visibly non-conservative (loss at extrema for limited
    variants, oscillation growth for the unlimited cubic).
    """
    a = np.moveaxis(np.asarray(arr, dtype=float), axis, -1)
    h = tab.h
    cum = np.zeros(a.shape)
    np.cumsum(0.5 * (a[..., :-1] + a[..., 1:]) * h, axis=-1, out=cum[..., 1:])
    mk = (cum[..., 1:] - cum[..., :-1]) / h
    d = _pchip_slopes(mk)
    i = tab.idx
    vals = tab.w_m * mk[..., i] + tab.w_0 * d[..., i] + tab.w_1 * d[..., i + 1]
    # rescale every slice so its trapezoid integral matches the exact mapped
    # mass C(t_hi) - C(t_lo); the pointwise derivative samples alone are only
    # second-order consistent with it
    if tab.ends is not None:
        ie, wy, wd = tab.ends
        exact = _dot_last(cum[..., ie], wy) + _dot_last(d[..., ie], wd)
        den = _dot_last(vals, tab.trapz)
        ratio = np.divide(exact, den, out=np.ones_like(den),
                          where=np.abs(den) > 1e-300)
        vals *= ratio[..., None]
    return np.moveaxis(vals, -1, axis)


# ---------------------------------------------------------------------------
# solution container


class _SavedDensities:
    """rho_at for solutions holding save_times and the matching rhos."""

    def rho_at(self, t):
        for ts, r in zip(self.save_times, self.rhos):
            if abs(ts - t) < 1e-9:
                return r
        raise KeyError(f"time {t} not among saved times")


@dataclass
class DensitySolution(_SavedDensities):
    grid: Grid
    save_times: np.ndarray
    rhos: list
    x: XPath
    mass_trace: np.ndarray
    flux_rel: np.ndarray
    scale_trace: np.ndarray
    clip_mass: float
    borders: np.ndarray = field(repr=False)


def _step_save_times(save_times, ts):
    """save_times sorted, each checked to be a step time ts[n] within 1e-9."""
    save_times = np.asarray(sorted(save_times), dtype=float)
    for t_s in save_times:
        if not np.any(np.abs(ts - t_s) < 1e-9):
            raise mdl.ConfigurationError(
                f"save time {t_s:g} is not a step time in [0, {ts[-1]:g}]")
    return save_times


def _m_trapz(arr, wm):
    """Trapezoid integral over the trailing memory axes, last axis first, with
    the per-axis weights wm.  Each leading index is summed on its own, so a
    block of age rows gets the bits of the same rows of the whole array."""
    out = np.asarray(arr)
    for w in reversed(wm):
        out = _dot_last(out, w)
    return out


def mass(rho, grid: Grid):
    """Trapezoid mass of a density tabulated on the grid nodes."""
    return float(_dot_last(age_marginal(rho, grid), _trapz_weights(grid.a_nodes)))


def age_marginal(rho, grid: Grid):
    return _m_trapz(rho, [_trapz_weights(grid.m_nodes(k)) for k in range(grid.d)])


def lm_mass(rho, m_nodes_list):
    """Trapezoid mass of a memory-only density, such as the border layer."""
    return float(_m_trapz(rho, [_trapz_weights(n) for n in m_nodes_list]))


def _m_mesh(grid: Grid, scale=None):
    axes = [grid.m_nodes(k) for k in range(grid.d)]
    if scale is not None:
        axes = [ax * sc for ax, sc in zip(axes, scale)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def _remap_tables(spec, nodes_list, lam, dt):
    """Per-axis remap tables for the decay pull and the jump pull.

    The per-axis dslope factors multiply out to the full Jacobians: the
    volume factor exp(dt tr Lambda) for the decay flow and |det D gamma^-1|
    for the jump inverse, so neither appears separately in the solvers.
    """
    j = spec.jump
    if j.affine is not None:
        c, b = j.affine
        b = np.broadcast_to(b, (spec.d,))
        pulls = [((nodes - b[k]) / c, 1.0 / c)
                 for k, nodes in enumerate(nodes_list)]
    elif spec.d == 1:
        m = nodes_list[0][:, None]
        pulls = [(mdl.jump_inverse(j, m)[:, 0],
                  np.exp(mdl.jump_inverse_jacobian_logdet(j, m)))]
    else:
        raise NotImplementedError("custom jumps on grids need d = 1")
    decay = []
    for nodes, l in zip(nodes_list, lam):
        s = math.exp(l * dt)
        decay.append(_remap_table(nodes, nodes * s, s))
    return decay, [_remap_table(n, *p) for n, p in zip(nodes_list, pulls)]


def _pull(arr, table, m_axis0):
    out = arr
    for k, tab in enumerate(table):
        out = _mass_remap(out, tab, m_axis0 + k)
    return out


def _border(Fr, wa, jump_tab):
    """Border layer b(m) = |det Dg^-1| int Fr(a, g^-1(m)) da of the loss
    density Fr = f rho.  The jump pull acts on m only, so the age integral
    comes first and a single memory row is remapped."""
    return _pull(np.einsum("i,i...->...", wa, Fr), jump_tab, 0)


# ---------------------------------------------------------------------------
# main solver


# Nodes in one age-row block of the march.  Its temporaries, 256 KiB each,
# fit in L2 and are reused from the allocator's free memory.  With 2^17 or
# 2^18 nodes a solve on the 1201 x 101 grid of configs/golden/pde.json took
# 25k page faults instead of under 2k; with 2^13 or 2^14 the per-block
# overhead made the steps slower.
_BLOCK_ELEMS = 1 << 15


def solve_alm_pde(spec: mdl.ModelSpec, grid: Grid, Hbar=None, u0=None,
                  save_times=(), step_callback=None,
                  border_sweeps=2) -> DensitySolution:
    """Marches the Lagrangian solution of the full age-and-memory equation.

    A step goes over the age rows in blocks of about 2^15 nodes.  For each
    block it pulls the density rows that feed it along the decay flow,
    applies the survival factor, forms the loss density f rho and the memory
    integrals of rho, f rho and g f rho on each row, and notes whether a row
    went negative.  What needs every row follows the blocks: the age
    integrals for the border layer and the signal, the border sweeps, row 0
    and the clip.  The block size changes no bit of the result.

    step_callback(n, t_n, rho, x_n, F) gets rho_n and f at (t_n, x_n), F as
    a read-only view of the shape of rho.  Two density buffers take turns,
    so the rho handed over is overwritten two steps later; a callback that
    keeps it must copy it.
    """
    d = grid.d
    if d != spec.d:
        raise mdl.ConfigurationError("grid dimension does not match the model")
    dt = grid.dt
    a_nodes = grid.a_nodes
    na = a_nodes.shape[0]
    wa = _trapz_weights(a_nodes)
    mesh = _m_mesh(grid)                       # (*shape_m, d)
    shape_m = mesh.shape[:-1]
    A = a_nodes.reshape((na,) + (1,) * d)
    lam = spec.lam

    if Hbar is None:
        Hbar = lambda t: float(spec.Hbar(t))

    # initial density on nodes, normalized to unit trapezoid mass
    if u0 is None:
        rho = spec.init_law.density_age(A) * np.broadcast_to(
            spec.init_law.density_mem(mesh), (na,) + shape_m)
    else:
        rho = np.asarray(u0(A, mesh), dtype=float)
        rho = np.broadcast_to(rho, (na,) + shape_m).copy()
    rho = np.ascontiguousarray(rho, dtype=float)
    m0_tot = mass(rho, grid)
    if m0_tot <= 0:
        raise mdl.ConfigurationError("initial density has nonpositive mass")
    rho = rho / m0_tot

    # conservative remap tables for the decay pullback and the jump inverse
    nodes_list = [grid.m_nodes(k) for k in range(d)]
    wm = [_trapz_weights(nodes) for nodes in nodes_list]
    decay_tab, jump_tab = _remap_tables(spec, nodes_list, lam, dt)

    mesh_mid = _m_mesh(grid, scale=[math.exp(l * dt / 2.0) for l in lam])
    a_mid = (a_nodes[1:] - dt / 2.0).reshape((na - 1,) + (1,) * d)
    # an age-free f is evaluated on one row, which broadcasts over the ages,
    # and a memory-free f on one memory node, which broadcasts over memory
    age_free = spec.f.age_free
    A_f, a_mid_f = (A[:1], a_mid[:1]) if age_free else (A, a_mid)
    m_one = (slice(0, 1),) * d if spec.f.memory_free else ()
    mesh_f, mesh_mid_f = mesh[m_one], mesh_mid[m_one]

    def f_grid(a_arr, m_arr, x):
        return np.asarray(spec.intensity(a_arr, m_arr, x), dtype=float)

    G = grid.n_steps
    ts = np.arange(G + 1) * dt
    h = spec.h
    kv = np.asarray(mdl.kernel_eval(h, ts), dtype=float)
    gmod = np.asarray(mdl.modulation_eval(h, A, mesh), dtype=float)
    gmod = np.broadcast_to(gmod, (na,) + shape_m)

    x = np.zeros(G + 1)
    x[0] = Hbar(0.0)
    w_hist = np.zeros(G + 1)
    mass_trace = np.zeros(G + 1)
    flux_rel = np.full(G + 1, np.nan)
    scale_trace = np.ones(G + 1)
    clip_mass = 0.0
    borders = np.zeros((G + 1,) + shape_m)
    save_times = _step_save_times(save_times, ts)
    rhos = []

    # every full-grid array of the march: the second density buffer, the loss
    # density f rho, and per-row memory integrals of rho, f rho, g f rho and
    # of the negative part the clip removes
    new = np.empty_like(rho)
    Fn = np.empty_like(rho)
    i_rho, i_flux, i_w, i_neg = np.zeros((4, na))
    # blocks of rows 1 to na - 1, none of one row: numpy gathers the remap's
    # cells of one row into a C-ordered array and those of more rows into an
    # F-ordered one, and einsum sums the two layouts in different orders
    rows = max(2, _BLOCK_ELEMS // rho[0].size)
    starts = list(range(1, max(na - 1, 2), rows))
    blocks = list(zip(starts, starts[1:] + [na]))

    def tally(cur, Fc, lo, hi):
        """Loss density and row integrals of cur[lo:hi]; True if one is < 0."""
        blk = cur[lo:hi]
        fb = np.multiply(Fc if age_free else Fc[lo:hi], blk, out=Fn[lo:hi])
        i_rho[lo:hi] = _m_trapz(blk, wm)
        i_flux[lo:hi] = _m_trapz(fb, wm)
        if h.J != 0.0:
            i_w[lo:hi] = _m_trapz(gmod[lo:hi] * fb, wm)
        return bool((blk < 0.0).any())

    F = f_grid(A_f, mesh_f, x[0])
    tally(rho, F, 0, na)
    for n in range(G + 1):
        t_n = ts[n]
        fluxint = float(_dot_last(i_flux, wa))
        if h.J != 0.0:
            w_hist[n] = float(_dot_last(i_w, wa))
        mass_trace[n] = float(_dot_last(i_rho, wa))
        if n > 0 and fluxint > 1e-300:
            flux_rel[n] = abs(i_rho[0] - fluxint) / fluxint
        borders[n] = rho[0]
        for t_s in save_times:
            if abs(t_s - t_n) < 1e-9:
                rhos.append(rho.copy())
        if step_callback is not None:
            step_callback(n, t_n, rho, x[n], np.broadcast_to(F, rho.shape))
        if n == G:
            break

        # explicit Volterra update for the signal
        x_next = Hbar(ts[n + 1])
        if h.J != 0.0:
            x_next += dt * h.J * float(_dot_last(kv[1:n + 2][::-1], w_hist[:n + 1]))
        x_mid = 0.5 * (x[n] + x_next)

        # transport with survival attenuation, block by block: row i of the
        # new density is row i - 1 of rho pulled along the decay flow (the
        # remap carries its volume factor) times exp(-dt f) at the midpoint
        Fm = f_grid(a_mid_f, mesh_mid_f, x_mid)
        F1 = f_grid(A_f, mesh_f, x_next)
        surv = np.exp(-dt * Fm) if age_free else None
        neg = []
        for lo, hi in blocks:
            sh = _pull(rho[lo - 1:hi - 1], decay_tab, 1)
            np.multiply(sh, surv if age_free else np.exp(-dt * Fm[lo - 1:hi - 1]),
                        out=new[lo:hi])
            if tally(new, F1, lo, hi):
                neg.append((lo, hi))
        # row 0 is empty until the border layer fills it
        Fn[0] = 0.0
        i_rho[0] = 0.0

        # border layer at the new time, fixed-point sweeps for the
        # self-referential age-zero node
        fixed = _border(Fn, wa, jump_tab)
        b = fixed
        for _ in range(border_sweeps):
            b = fixed + wa[0] * _pull(F1[0] * b, jump_tab, 0)
        # the injected layer balances the survival loss analytically, so it
        # enters unscaled; the implied correction factor is kept as a
        # mass-conservation diagnostic only
        Mint = float(_dot_last(i_rho, wa))
        layer = wa[0] * lm_mass(b, nodes_list)
        if layer > 1e-300:
            scale_trace[n + 1] = (mass_trace[n] - Mint) / layer
        new[0] = b
        if tally(new, F1, 0, 1):
            neg.append((0, 1))
        # negative nodes are set to zero; clip_mass adds up the trapezoid
        # mass of what they held
        for lo, hi in neg:
            blk = new[lo:hi]
            i_neg[lo:hi] = _m_trapz(np.minimum(blk, 0.0), wm)
            blk[blk < 0.0] = 0.0
            tally(new, F1, lo, hi)
        if neg:
            clip_mass -= float(_dot_last(i_neg, wa))
            i_neg[:] = 0.0
        rho, new = new, rho
        x[n + 1] = x_next
        F = F1    # f at x[n + 1], the intensity of the next step

    return DensitySolution(grid, save_times, rhos, XPath(ts, x),
                           mass_trace, flux_rel, scale_trace, clip_mass, borders)


def border_step(spec: mdl.ModelSpec, grid: Grid, rho, x_t):
    """Standalone border evaluation b(m) = |det Dg^-1| int f(a, g^-1(m)) rho da."""
    d = grid.d
    wa = _trapz_weights(grid.a_nodes)
    mesh = _m_mesh(grid)
    na = grid.a_nodes.shape[0]
    A = grid.a_nodes.reshape((na,) + (1,) * d)
    nodes_list = [grid.m_nodes(k) for k in range(d)]
    _, jump_tab = _remap_tables(spec, nodes_list, spec.lam, grid.dt)
    F = np.asarray(spec.intensity(A, mesh, x_t), dtype=float)
    return _border(F * rho, wa, jump_tab)


# ---------------------------------------------------------------------------
# memory-only specialization (no age variable)


@dataclass
class LMDensitySolution(_SavedDensities):
    m_nodes_list: list
    save_times: np.ndarray
    rhos: list
    x: XPath
    mass_trace: np.ndarray


def solve_lm_pde(spec: mdl.ModelSpec, m_lo, m_hi, n_m, T, dt, u0=None,
                 save_times=()) -> LMDensitySolution:
    """Two-term Duhamel march for the age-independent equation.

    Each step transports along the decay flow and splits the evolved mass into
    a surviving part exp(-f dt) and a jump gain (1 - exp(-f dt)) deposited at
    the jump image; loss and gain integrands match exactly, so mass error is
    pure quadrature.
    """
    if not spec.f.age_free:
        raise mdl.ConfigurationError("memory-only solver needs age-independent f")
    d = spec.d
    m_lo, m_hi, n_m = tuple(m_lo), tuple(m_hi), tuple(n_m)
    nodes_list = [np.linspace(m_lo[k], m_hi[k], n_m[k] + 1) for k in range(d)]
    mesh = np.stack(np.meshgrid(*nodes_list, indexing="ij"), axis=-1)
    shape_m = mesh.shape[:-1]
    lam = spec.lam
    h = spec.h
    if u0 is None:
        rho = np.asarray(spec.init_law.density_mem(mesh), dtype=float)
    else:
        rho = np.asarray(u0(mesh), dtype=float)
    tot = lm_mass(rho, nodes_list)
    if tot <= 0:
        raise mdl.ConfigurationError("initial density has nonpositive mass")
    rho = rho / tot

    decay_tab, jump_tab = _remap_tables(spec, nodes_list, lam, dt)

    G = int(round(T / dt))
    ts = np.arange(G + 1) * dt
    kvv = np.asarray(mdl.kernel_eval(h, ts), dtype=float)
    gmod = np.asarray(mdl.modulation_eval(h, 0.0, mesh), dtype=float)
    x = np.zeros(G + 1)
    x[0] = float(spec.Hbar(0.0))
    w_hist = np.zeros(G + 1)
    mass_trace = np.zeros(G + 1)
    save_times = _step_save_times(save_times, ts)
    rhos = []

    for n in range(G + 1):
        F = np.asarray(spec.intensity(0.0, mesh, x[n]), dtype=float)
        if h.J != 0.0:
            w_hist[n] = lm_mass(gmod * F * rho, nodes_list)
        mass_trace[n] = lm_mass(rho, nodes_list)
        for t_s in save_times:
            if abs(t_s - ts[n]) < 1e-9:
                rhos.append(rho.copy())
        if n == G:
            break
        x_next = float(spec.Hbar(ts[n + 1]))
        if h.J != 0.0:
            x_next += dt * h.J * float(_dot_last(kvv[1:n + 2][::-1], w_hist[:n + 1]))
        x_mid = 0.5 * (x[n] + x_next)
        transported = _pull(rho, decay_tab, 0)
        Fm = np.asarray(spec.intensity(0.0, mesh, x_mid), dtype=float)
        decay = np.exp(-dt * Fm)
        gain = _pull(transported * (1.0 - decay), jump_tab, 0)
        rho = transported * decay + gain
        x[n + 1] = x_next

    return LMDensitySolution(nodes_list, save_times, rhos, XPath(ts, x),
                             mass_trace)


# ---------------------------------------------------------------------------
# weak-form residual


@dataclass
class WeakTest:
    """Separable test function G(t, a, m) = tau(t) alpha(a) beta(m).

    tau and dtau = tau' take a time; alpha and dalpha = alpha' take an array
    of ages; beta and grad_beta take the memory mesh (..., d), grad_beta
    returning its gradient of shape (..., d).  Each may return a scalar for
    a constant: values are broadcast to the shape of their argument.
    """
    name: str
    tau: callable
    dtau: callable
    alpha: callable
    dalpha: callable
    beta: callable
    grad_beta: callable


def _along_m1(v, m):
    """A memory gradient of shape m.shape with v as its first component."""
    out = np.zeros(np.shape(m))
    out[..., 0] = v
    return out


def default_test_functions(m_center=0.0):
    """Five bounded smooth test functions with closed-form derivatives."""
    c = m_center
    one, zero = (lambda _: 1.0), (lambda _: 0.0)
    exp_a = lambda a: np.exp(-a / 2.0)
    dexp_a = lambda a: -0.5 * np.exp(-a / 2.0)
    tanh_m = lambda m: np.tanh(m[..., 0])
    dtanh_m = lambda m: _along_m1(1.0 - np.tanh(m[..., 0]) ** 2, m)
    bump = lambda m: np.exp(-(m[..., 0] - c) ** 2)
    return [
        WeakTest("const", one, zero, one, zero, one, zero),
        WeakTest("age-exp", one, zero, exp_a, dexp_a, one, zero),
        WeakTest("mem-tanh", one, zero, one, zero, tanh_m, dtanh_m),
        WeakTest("mixed", exp_a, dexp_a, exp_a, dexp_a, tanh_m, dtanh_m),
        WeakTest("bump", one, zero, lambda a: 1.0 / (1.0 + a ** 2),
                 lambda a: -2.0 * a / (1.0 + a ** 2) ** 2, bump,
                 lambda m: _along_m1(-2.0 * (m[..., 0] - c) * bump(m), m)),
    ]


def weak_form_residual(spec: mdl.ModelSpec, grid: Grid, tests=None):
    """Runs the solver and evaluates the space-time weak identity residuals.

    For each test function G the residual is
      |int G(T) rho_T - int G(0) u0
        - int_0^T { int (dG/dt + dG/da - Lambda m . grad_m G) rho
                    + int f [G(t, 0, gamma(m)) - G(t, a, m)] rho } dt|
    accumulated with the trapezoid rule in t during the march.  G is
    separable (see WeakTest), so each step contracts rho against beta and
    Lambda m . grad beta, and f rho against beta and beta o gamma, over the
    memory nodes for all tests at once; age weights alpha, alpha' and
    alpha(0) and the factors tau(t), tau'(t) finish the sums.
    Returns (residuals dict, DensitySolution).
    """
    if tests is None:
        ctr = [0.5 * (lo + hi) for lo, hi in zip(grid.m_lo, grid.m_hi)]
        tests = default_test_functions(m_center=ctr[0])
    a_nodes = grid.a_nodes
    na = a_nodes.shape[0]
    mesh = _m_mesh(grid)
    shape_m = mesh.shape[:-1]
    gam_mesh = np.asarray(mdl.jump_apply(spec.jump, mesh), dtype=float)
    wa = _trapz_weights(a_nodes)
    w_mesh = functools.reduce(np.multiply.outer,
                              [_trapz_weights(grid.m_nodes(k)) for k in range(grid.d)])

    def table(attr, arg, shape, w=1.0):
        """One field of every test at arg, broadcast to shape, times w."""
        vals = [np.asarray(getattr(tf, attr)(arg), dtype=float) for tf in tests]
        return np.stack([np.broadcast_to(v, shape) for v in vals]) * w

    drift = np.einsum("k...i,...i->k...", table("grad_beta", mesh, mesh.shape),
                      spec.lam * mesh)
    beta = table("beta", mesh, shape_m, w_mesh)
    # memory vectors, one row per test and term: rho meets beta and
    # Lambda m . grad beta, f rho meets beta and beta o gamma
    v_rho = np.concatenate([beta, drift * w_mesh])
    v_flux = np.concatenate([beta, table("beta", gam_mesh, shape_m, w_mesh)])
    alpha = table("alpha", a_nodes, (na,), wa)
    dalpha = table("dalpha", a_nodes, (na,), wa)
    alpha0 = table("alpha", a_nodes[:1], (1,))[:, 0]
    fr = np.empty((na,) + shape_m)    # f rho, written in place each step
    n_t, dt, G_steps = len(tests), grid.dt, grid.n_steps
    acc = np.zeros(n_t)
    ends = {}

    def per_test(arr, vecs):
        """Memory integrals of the rows of arr against vecs, as (2, n_t, na)."""
        out = np.einsum("am,km->ak", arr.reshape(na, -1), vecs.reshape(2 * n_t, -1))
        return out.T.reshape(2, n_t, na)

    def cb(n, t, rho, x_t, F):
        r_beta, r_drift = per_test(rho, v_rho)
        f_beta, f_gam = per_test(np.multiply(F, rho, out=fr), v_flux)
        tau = np.array([tf.tau(t) for tf in tests], dtype=float)
        dtau = np.array([tf.dtau(t) for tf in tests], dtype=float)
        g_mass = np.einsum("ka,ka->k", r_beta, alpha)
        body = dtau * g_mass + tau * (
            np.einsum("ka,ka->k", r_beta, dalpha)
            - np.einsum("ka,ka->k", r_drift, alpha)
            + alpha0 * np.einsum("ka,a->k", f_gam, wa)
            - np.einsum("ka,ka->k", f_beta, alpha))
        acc[:] += (dt if 0 < n < G_steps else dt / 2.0) * body
        if n in (0, G_steps):
            ends[n] = tau * g_mass

    sol = solve_alm_pde(spec, grid, save_times=(grid.T,), step_callback=cb)
    res = np.abs(ends[G_steps] - ends[0] - acc)
    return {tf.name: float(r) for tf, r in zip(tests, res)}, sol


# ---------------------------------------------------------------------------
# export


def density_to_csv(sol: DensitySolution, path, stride_a=1, stride_m=1):
    grid = sol.grid
    a = grid.a_nodes[::stride_a]
    axes = [grid.m_nodes(k)[::stride_m] for k in range(grid.d)]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "a"] + [f"m{k+1}" for k in range(grid.d)] + ["rho"])
        for ts, rho in zip(sol.save_times, sol.rhos):
            sub = rho[::stride_a]
            for k in range(grid.d):
                sub = np.take(sub, np.arange(0, rho.shape[1 + k], stride_m), axis=1 + k)
            it = np.ndindex(*sub.shape)
            for idxs in it:
                row = [repr(float(ts)), repr(float(a[idxs[0]]))]
                row += [repr(float(axes[k][idxs[1 + k]])) for k in range(grid.d)]
                row.append(repr(float(sub[idxs])))
                w.writerow(row)


def density_to_binary(sol: DensitySolution, path_prefix):
    """Writes <prefix>.bin (little-endian float64) plus a JSON header."""
    grid = sol.grid
    arr = np.stack(sol.rhos).astype("<f8")
    arr.tofile(str(path_prefix) + ".bin")
    header = {
        "shape": list(arr.shape),
        "dtype": "<f8",
        "endianness": "little",
        "save_times": [float(t) for t in sol.save_times],
        "dt": grid.dt,
        "a_max": grid.a_max,
        "m_lo": list(grid.m_lo),
        "m_hi": list(grid.m_hi),
        "n_m": list(grid.n_m),
    }
    with open(str(path_prefix) + ".json", "w") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
