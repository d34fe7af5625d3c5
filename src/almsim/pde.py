"""Semi-Lagrangian solver for the limit population density equation.

The density rho_t(a, m) is marched on characteristics: age advances at unit
speed (node-aligned, no age interpolation), and memory follows the
closed-form decay flow, carried exactly by holding each age row in the
cohort coordinate mu = exp(Lambda min(a, t)) m, which the flow leaves fixed.
Survival attenuation uses a midpoint rule in the exponent.  The age-zero
border layer is rebuilt each step from the jump-mapped loss integral, and
the deterministic signal x_t satisfies a Volterra equation discretized with
the left-endpoint rule.
"""

from __future__ import annotations

import functools
import itertools
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
        mdl.step_count(self.T, self.dt)
        _check_box(self.m_lo, self.m_hi, self.n_m, len(self.m_lo))

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
        return mdl.step_count(self.T, self.dt)


def _check_box(m_lo, m_hi, n_m, d):
    """Raises ConfigurationError if m_lo, m_hi and n_m do not each have d
    entries, or naming the first memory axis that is empty or reversed; the
    march would only see such an axis as a density of no mass."""
    if not len(m_lo) == len(m_hi) == len(n_m) == d:
        raise mdl.ConfigurationError("memory box dimension mismatch")
    for k, (lo, hi) in enumerate(zip(m_lo, m_hi)):
        if not hi > lo:
            raise mdl.ConfigurationError(
                f"memory axis {k + 1} needs m_hi > m_lo, got [{lo:g}, {hi:g}]")


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
    holds the cells and cubic-value weights of the two mass ends, the lowest
    and highest targets clipped to the box (see _remap_table), with zero
    weights when no target is inside.  fill is one on the in-box targets
    and zero elsewhere, scaled to unit trapezoid mass, or zero when no
    target is inside.  A stacked table (targets of shape (R, n) in
    _remap_table) has one more leading axis on every field but h and trapz.
    """
    h: float
    idx: np.ndarray
    w_m: np.ndarray
    w_0: np.ndarray
    w_1: np.ndarray
    trapz: np.ndarray
    ends: tuple
    fill: np.ndarray


def _remap_table(nodes, targets, dslope):
    """Weights of _mass_remap for one axis; nodes must be uniformly spaced.

    targets of shape (n,) give a shared table, and of shape (R, n), with
    dslope a scalar, (R, 1) or (R, n), a stacked one: row r for targets[r].

    The remap keeps the source mass between its two mass ends, the
    outermost targets clipped to the box.  So the source cells past the
    last in-box target keep their mass too, which matters for a pull whose
    targets lie many source cells apart: up to one target spacing of mass
    at each box edge.
    """
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
    trapz = _trapz_weights(nodes)
    sel = np.stack([np.argmin(tc, axis=-1), np.argmax(tc, axis=-1)], axis=-1)
    i, u = np.take_along_axis(idx, sel, -1), np.take_along_axis(s, sel, -1)
    # Hermite basis at u: values of y[i], y[i+1] and h*d[i], h*d[i+1]; zero
    # weights when no target is inside, which leave the all-zero result be
    live = inside.any(axis=-1, keepdims=True)
    sign = (np.array([-1.0, 1.0]) * live)[..., None, :]
    wy = sign * np.stack([(1 - u) ** 2 * (1 + 2 * u), u * u * (3 - 2 * u)], -2)
    wd = sign * h * np.stack([u * (1 - u) ** 2, -u * u * (1 - u)], -2)
    four = t.shape[:-1] + (4,)
    ends = (np.concatenate([i, i + 1], -1), wy.reshape(four), wd.reshape(four))
    # each row's mass by its own dot product: a matrix product of the stack
    # sums in another order and changes the last bit of some rows
    den = np.array([trapz @ r for r in inside.reshape(-1, nodes.size)])
    fill = np.divide(inside, den.reshape(live.shape), out=np.zeros(t.shape),
                     where=live)
    return _RemapTable(h, idx, 6 * s * (1 - s) * scale,
                       (1 - s) * (1 - 3 * s) * scale, s * (3 * s - 2) * scale,
                       trapz, ends, fill)


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


def _cum_slopes(a, h):
    """Cumulative trapezoid mass along the last axis of a, its cell slopes and
    the PCHIP node slopes of that cumulative mass."""
    cum = np.zeros(a.shape)
    np.cumsum(0.5 * (a[..., :-1] + a[..., 1:]) * h, axis=-1, out=cum[..., 1:])
    mk = (cum[..., 1:] - cum[..., :-1]) / h
    return cum, mk, _pchip_slopes(mk)


def _match_mass(vals, exact, trapz, fill):
    """Rescales every slice of vals so its trapezoid integral matches the exact
    mapped mass C(t_hi) - C(t_lo); the pointwise derivative samples alone are
    only second-order consistent with it.  A slice whose samples integrate
    to zero while its exact mass does not, as when all of that mass lies
    between targets many cells apart, gets the mass spread evenly over the
    in-box targets (fill)."""
    den = _dot_last(vals, trapz)
    live = np.abs(den) > 1e-300
    ratio = np.divide(exact, den, out=np.ones_like(den), where=live)
    vals *= ratio[..., None]
    lost = ~live & (exact != 0.0)
    if lost.any():
        np.add(vals, exact[..., None] * fill, out=vals, where=lost[..., None])


def _mass_remap(arr, tab: _RemapTable, axis):
    """Conservative monotone remap of a density along one axis.

    The samples are converted to a cumulative mass function (trapezoid cell
    masses), fitted with a monotone cubic (PCHIP, Fritsch & Carlson 1980),
    and the derivative of that fit is read off at the mapped points and
    multiplied by |dslope|, the derivative of the inverse flow map.  Mass
    between any two flow points is preserved by construction, the result is
    nonnegative for nonnegative input, and targets outside the node range
    contribute zero (the density is treated as vanishing outside the box).
    Each slice keeps the source mass between the outermost targets clipped
    to the box, so the cells between the last in-box target and the box
    edge keep theirs (see _remap_table and _match_mass).  The target cells
    and Hermite weights come precomputed in tab, so a call is one
    cumulative sum, the slopes and a weighted gather.

    tab is shared, one table for every slice, or stacked (see
    _remap_table), row r for the slices of index r of arr's leading axis.
    Only the gather differs: a shared table indexes v[..., i], a stacked
    one gathers each row's cells from the flat array.

    Plain node-value interpolation is not used here on purpose: iterating it
    over many steps is visibly non-conservative (loss at extrema for limited
    variants, oscillation growth for the unlimited cubic).
    """
    a = np.moveaxis(np.asarray(arr, dtype=float), axis, -1)
    cum, mk, d = _cum_slopes(a, tab.h)
    if tab.idx.ndim == 1:
        def rows(w):
            return w

        def take(v, i):
            return v[..., i]
    else:
        lead = (a.shape[0],) + (1,) * (a.ndim - 2)
        starts = np.arange(a[..., 0].size).reshape(a.shape[:-1] + (1,))

        def rows(w):
            return w.reshape(lead + w.shape[-1:])

        def take(v, i):
            # v[..., i] with the indices of row r for leading index r, as one
            # gather on the flat v, which is three times faster than
            # np.take_along_axis
            return np.take(v, starts * v.shape[-1] + rows(i))

    i = tab.idx
    vals = (rows(tab.w_m) * take(mk, i) + rows(tab.w_0) * take(d, i)
            + rows(tab.w_1) * take(d, i + 1))
    ie, wy, wd = tab.ends
    exact = (np.einsum("...i,...i->...", take(cum, ie), rows(wy))
             + np.einsum("...i,...i->...", take(d, ie), rows(wd)))
    _match_mass(vals, exact, tab.trapz, rows(tab.fill))
    return np.moveaxis(vals, -1, axis)


def _table_rows(tab, key):
    """Rows key of a stacked table: a slice gives a stacked table, an index
    a shared one."""
    return _RemapTable(tab.h, tab.idx[key], tab.w_m[key], tab.w_0[key],
                       tab.w_1[key], tab.trapz, tuple(e[key] for e in tab.ends),
                       tab.fill[key])


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


def _m_mesh(grid: Grid):
    axes = [grid.m_nodes(k) for k in range(grid.d)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def _jump_pulls(spec, nodes_list):
    """Per-axis targets gamma^-1(m) and dslope of the jump pull on the memory
    nodes.  The dslope factors multiply out to |det D gamma^-1|, so the
    Jacobian never appears separately in the solvers."""
    j = spec.jump
    if j.affine is not None:
        c, b = j.affine
        b = np.broadcast_to(b, (spec.d,))
        return [((nodes - b[k]) / c, 1.0 / c) for k, nodes in enumerate(nodes_list)]
    if spec.d == 1:
        m = nodes_list[0][:, None]
        return [(mdl.jump_inverse(j, m)[:, 0],
                 np.exp(mdl.jump_inverse_jacobian_logdet(j, m)))]
    raise NotImplementedError("custom jumps on grids need d = 1")


def _jump_tables(spec, nodes_list):
    """Per-axis remap tables of the jump pull on the memory nodes."""
    return [_remap_table(n, *p)
            for n, p in zip(nodes_list, _jump_pulls(spec, nodes_list))]


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


def _rows(C, lo, hi):
    """Rows lo to hi - 1 of a per-row array C of R rows whose last row stands
    for every row from R - 1 on; an array of one row broadcasts."""
    r = C.shape[0] - 1
    if hi - 1 <= r:
        return C[lo:hi]
    if lo >= r:
        return C[r:]
    return np.concatenate([C[lo:r], np.broadcast_to(C[r:], (hi - r,) + C.shape[1:])])


# ---------------------------------------------------------------------------
# main solver


# Nodes in one age-row block of the march.  Its temporaries, 256 KiB each,
# fit in L2 and are reused from the allocator's free memory.  Over ten
# alternating pairs of the pde-presets benchmark, a pass took 0.29 s in
# blocks against 0.42 s with one block for the whole grid, and peaked at 92
# instead of 120 MiB.
_BLOCK_ELEMS = 1 << 15


def _row_blocks(lo, hi, rows):
    """Rows lo to hi - 1 in blocks of about rows rows, none of one row unless
    hi - lo is one: numpy gathers a remap's cells of one row into a
    C-ordered array and those of more rows into an F-ordered one, and
    einsum sums the two layouts in different orders."""
    starts = list(range(lo, max(hi - 1, lo + 1), rows))
    return [(a, b) for a, b in zip(starts, starts[1:] + [hi]) if b > a]


def solve_alm_pde(spec: mdl.ModelSpec, grid: Grid, Hbar=None, u0=None,
                  save_times=(), step_callback=None) -> DensitySolution:
    """Marches the Lagrangian solution of the full age-and-memory equation.

    The march carries each age row in cohort coordinates.  Between events a
    memory decays as m(s) = exp(-Lambda s) m, so mu = exp(Lambda min(a, t)) m
    stays constant along every characteristic: the memory at birth for a
    < t, the memory at time 0 otherwise.  Row i at step n holds its density
    in mu units on the fixed memory nodes, with the per-axis scale sigma =
    exp(dt Lambda min(i, n)), and f and g are evaluated at m = mu / sigma.  A
    step is then a shift by one age row times exp(-dt f) at the midpoint of
    the characteristic, with no memory remap, followed by the memory
    integrals of each row and the border layer.  Rows i >= n share the
    scale of step n: their loss density is integrated over age and pulled
    through one table with targets sigma_n gamma^-1(m).  Each younger row
    has its own table, built once per solve, and the tables of a block of
    rows are stacked so that one call pulls the block.
    Row 0 has sigma = 1 and is the border layer itself.  The young rows
    make the work of step n grow with min(n, n_a): f, when it depends on
    memory, and the border pull run on each of them.  A step is cheapest
    while t is well below a_max, and past a_max it pulls the whole grid.

    rho_at, borders and what step_callback receives are m-grid densities:
    each row with sigma > 1 is converted by one conservative remap with
    targets sigma m.  That costs about one full-grid remap per conversion;
    it is paid at the save times, and at every step when a callback is
    given.  The targets of a row lie sigma cells apart, and the remap keeps
    the mass past the outermost in-box targets (see _remap_table and
    _match_mass): an m-grid row holds the mass of its mu row whenever one
    of its targets is inside the box.

    step_callback(n, t_n, rho, x_n, F) gets rho_n on the m grid and f at
    (t_n, x_n) on the m grid, F as a read-only view of the shape of rho.
    rho is overwritten at the next step; a callback that keeps it must copy
    it.
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

    # initial density on nodes, normalized to unit trapezoid mass; at step 0
    # every sigma is 1, so it is also the state in mu units
    if u0 is None:
        u = spec.init_law.density_age(A) * np.broadcast_to(
            spec.init_law.density_mem(mesh), (na,) + shape_m)
    else:
        u = np.asarray(u0(A, mesh), dtype=float)
        u = np.broadcast_to(u, (na,) + shape_m).copy()
    u = np.ascontiguousarray(u, dtype=float)
    m0_tot = mass(u, grid)
    if m0_tot <= 0:
        raise mdl.ConfigurationError("initial density has nonpositive mass")
    u = u / m0_tot

    G = grid.n_steps
    ts = np.arange(G + 1) * dt
    # scales[k] and mids[k] are sigma at index k and half a step before it;
    # no row has an index past K
    K = min(G, na - 1)
    ks = np.arange(K + 1) * dt
    scales = np.exp(np.multiply.outer(ks, lam))
    mids = np.exp(np.multiply.outer(ks - dt / 2.0, lam))

    # conservative remap tables per index k: the jump pull of the loss
    # density (targets sigma_k gamma^-1(m)) and the conversion to the m grid
    # (targets sigma_k m).  Index 0 has sigma = 1, so its jump pull is that
    # of the border sweeps
    nodes_list = [grid.m_nodes(k) for k in range(d)]
    wm = [_trapz_weights(nodes) for nodes in nodes_list]
    col = [scales[:, k, None] for k in range(d)]
    border_tabs = [_remap_table(n, s * tg, s * ds) for n, s, (tg, ds)
                   in zip(nodes_list, col, _jump_pulls(spec, nodes_list))]
    to_m_tabs = [_remap_table(n, s * n, s) for n, s in zip(nodes_list, col)]
    jump_tab = [_table_rows(t, 0) for t in border_tabs]

    a_mid = (a_nodes[1:] - dt / 2.0).reshape((na - 1,) + (1,) * d)
    # an age-free f is evaluated on one row, which broadcasts over the ages,
    # and a memory-free f on one memory node, which broadcasts over memory
    age_free = spec.f.age_free
    m_one = (slice(0, 1),) * d
    A_f = A[:1] if age_free else A
    mesh_f = mesh[m_one] if spec.f.memory_free else mesh
    h = spec.h

    def on_rows(fn, free_a, free_m, ages, sig, shift, n1, x):
        """fn(a, mu / sigma, x) on the distinct rows at step n1, row r at the
        ages' row r with sigma = sig[min(r + shift, n1)].  An age-free fn
        needs the rows up to the first with index n1, which stands for all
        after it, and a memory-free one a single memory node, so an age-free
        and memory-free fn is one value.  _rows reads the result.  fn runs
        on blocks of rows, whose temporaries stay in cache: on a full
        default grid that halves its time, and fn acts on each node alone,
        so the blocks change no bit."""
        n = ages.shape[0]
        if free_a:
            rows = 1 if free_m else min(n1 + 1 - shift, n)
        else:
            rows = n
        m = mesh[m_one] if free_m else mesh
        sc = sig[np.minimum(np.arange(rows) + shift, n1)]
        sc = sc.reshape((rows,) + (1,) * d + (d,))
        out = np.empty((rows,) + m.shape[:-1])
        for lo, hi in _row_blocks(0, rows, max(2, _BLOCK_ELEMS // m[..., 0].size)):
            out[lo:hi] = fn(ages[:1] if free_a else ages[lo:hi], m / sc[lo:hi], x)
        return out

    def f_rows(ages, sig, shift, n1, x):
        return on_rows(spec.intensity, age_free, spec.f.memory_free, ages, sig,
                       shift, n1, x)

    def g_rows(n1):
        return on_rows(lambda a, m, x: mdl.modulation_eval(h, a, m), h.age_free,
                       h.memory_free, A, scales, 0, n1, None)

    def pull_young(src, stacked, young, out):
        """Rows 1 to young - 1 of src, each through the row of the stacked
        tables of its index, into out, in blocks of rows."""
        for lo, hi in _row_blocks(1, young, blk_rows):
            tabs = [_table_rows(t, slice(lo, hi)) for t in stacked]
            out[lo:hi] = _pull(src[lo:hi], tabs, 1)

    def to_m(u, n, out):
        """The m-grid density of the state u at step n, into out: row 0, and
        at step 0 every row, has sigma = 1; rows 1 to young - 1 have index =
        row, the others, if any, index n."""
        if n == 0:
            out[:] = u
            return out
        young = min(n, na)
        out[0] = u[0]
        pull_young(u, to_m_tabs, young, out)
        if young < na:
            tabs = [_table_rows(t, n) for t in to_m_tabs]
            for lo, hi in _row_blocks(young, na, blk_rows):
                out[lo:hi] = _pull(u[lo:hi], tabs, 1)
        return out

    kv = np.asarray(mdl.kernel_eval(h, ts), dtype=float)
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

    # every full-grid array of the march: the second state buffer, the loss
    # density f u, the m-grid density handed to a callback, and per-row
    # memory integrals of u, f u, g f u and of the negative part the clip
    # removes
    new = np.empty_like(u)
    Fn = np.empty_like(u)
    rho_m = None if step_callback is None else np.empty_like(u)
    i_rho, i_flux, i_w, i_neg = np.zeros((4, na))
    # blocks of rows 1 to na - 1; every sum of a step runs over one row or
    # over all of them, so the blocks change no bit
    blk_rows = max(2, _BLOCK_ELEMS // u[0].size)
    blocks = _row_blocks(1, na, blk_rows)

    def tally(cur, F, g, lo, hi):
        """Loss density and memory integrals of cur[lo:hi]; True if one is < 0."""
        blk = cur[lo:hi]
        fb = np.multiply(_rows(F, lo, hi), blk, out=Fn[lo:hi])
        i_rho[lo:hi] = _m_trapz(blk, wm)
        i_flux[lo:hi] = _m_trapz(fb, wm)
        if h.J != 0.0:
            i_w[lo:hi] = _m_trapz(_rows(g, lo, hi) * fb, wm)
        return bool((blk < 0.0).any())

    F = f_rows(A, scales, 0, 0, x[0])
    g = g_rows(0) if h.J != 0.0 else None
    tally(u, F, g, 0, na)
    for n in range(G + 1):
        t_n = ts[n]
        fluxint = float(_dot_last(i_flux, wa))
        if h.J != 0.0:
            w_hist[n] = float(_dot_last(i_w, wa))
        mass_trace[n] = float(_dot_last(i_rho, wa))
        if n > 0 and fluxint > 1e-300:
            flux_rel[n] = abs(i_rho[0] - fluxint) / fluxint
        borders[n] = u[0]
        saves = sum(abs(t_s - t_n) < 1e-9 for t_s in save_times)
        if step_callback is not None:
            to_m(u, n, rho_m)
            rhos += [rho_m.copy() for _ in range(saves)]
            F_m = np.asarray(spec.intensity(A_f, mesh_f, x[n]), dtype=float)
            step_callback(n, t_n, rho_m, x[n], np.broadcast_to(F_m, rho_m.shape))
        elif saves:
            rhos += [to_m(u, n, np.empty_like(u)) for _ in range(saves)]
        if n == G:
            break
        n1 = n + 1

        # explicit Volterra update for the signal
        x_next = Hbar(ts[n1])
        if h.J != 0.0:
            x_next += dt * h.J * float(_dot_last(kv[1:n + 2][::-1], w_hist[:n + 1]))
        x_mid = 0.5 * (x[n] + x_next)

        # transport, block by block: row i of the new state is row i - 1 of
        # u times exp(-dt f) at the midpoint of its characteristic
        surv = f_rows(a_mid, mids, 1, n1, x_mid)
        surv *= -dt
        np.exp(surv, out=surv)
        F = f_rows(A, scales, 0, n1, x_next)
        if h.J != 0.0:
            g = g_rows(n1)
        neg = []
        for lo, hi in blocks:
            np.multiply(_rows(surv, lo - 1, hi - 1), u[lo - 1:hi - 1],
                        out=new[lo:hi])
            if tally(new, F, g, lo, hi):
                neg.append((lo, hi))
        # row 0 is empty until the border layer fills it
        Fn[0] = 0.0
        i_rho[0] = 0.0

        # border layer at the new time: rows 1 to young - 1 each through the
        # table of their index, into the rows of u, which this step reads no
        # more, and then summed over age; the age integral of the rest
        # through the table of n1; then two fixed-point sweeps for the
        # self-referential age-zero node
        young = min(n1, na)
        pull_young(Fn, border_tabs, young, u)
        fixed = np.einsum("i,i...->...", wa[1:young], u[1:young])
        if young < na:
            tabs = [_table_rows(t, n1) for t in border_tabs]
            fixed += _pull(np.einsum("i,i...->...", wa[young:], Fn[young:]),
                           tabs, 0)
        b = fixed
        for _ in range(2):
            b = fixed + wa[0] * _pull(F[0] * b, jump_tab, 0)
        # the injected layer balances the survival loss analytically, so it
        # enters unscaled; the implied correction factor is kept as a
        # mass-conservation diagnostic only
        Mint = float(_dot_last(i_rho, wa))
        layer = wa[0] * lm_mass(b, nodes_list)
        if layer > 1e-300:
            scale_trace[n1] = (mass_trace[n] - Mint) / layer
        new[0] = b
        if tally(new, F, g, 0, 1):
            neg.append((0, 1))
        # negative nodes are set to zero; clip_mass adds up the trapezoid
        # mass of what they held
        for lo, hi in neg:
            blk = new[lo:hi]
            i_neg[lo:hi] = _m_trapz(np.minimum(blk, 0.0), wm)
            blk[blk < 0.0] = 0.0
            tally(new, F, g, lo, hi)
        if neg:
            clip_mass -= float(_dot_last(i_neg, wa))
            i_neg[:] = 0.0
        u, new = new, u
        x[n1] = x_next

    return DensitySolution(grid, save_times, rhos, XPath(ts, x),
                           mass_trace, flux_rel, scale_trace, clip_mass, borders)


def border_step(spec: mdl.ModelSpec, grid: Grid, rho, x_t):
    """Standalone border evaluation b(m) = |det Dg^-1| int f(a, g^-1(m)) rho da."""
    d = grid.d
    wa = _trapz_weights(grid.a_nodes)
    mesh = _m_mesh(grid)
    na = grid.a_nodes.shape[0]
    A = grid.a_nodes.reshape((na,) + (1,) * d)
    jump_tab = _jump_tables(spec, [grid.m_nodes(k) for k in range(d)])
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
    _check_box(m_lo, m_hi, n_m, d)
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

    # the decay pull, whose dslope factors give the volume factor
    # exp(dt tr Lambda), and the jump pull
    decay_tab = [_remap_table(n, n * math.exp(l * dt), math.exp(l * dt))
                 for n, l in zip(nodes_list, lam)]
    jump_tab = _jump_tables(spec, nodes_list)

    G = mdl.step_count(T, dt)
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
    strides = (slice(None, None, stride_a),) + (slice(None, None, stride_m),) * grid.d
    axes = ([grid.a_nodes[::stride_a]]
            + [grid.m_nodes(k)[::stride_m] for k in range(grid.d)])
    mdl.write_csv(path, ["t", "a"] + [f"m{k+1}" for k in range(grid.d)] + ["rho"],
                  ((ts, *node, v) for ts, rho in zip(sol.save_times, sol.rhos)
                   for node, v in zip(itertools.product(*axes),
                                      rho[strides].ravel())))
