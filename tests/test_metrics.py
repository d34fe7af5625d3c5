"""Tests for the distance metrics and convergence studies."""

import json
import math

import numpy as np
import pytest

from almsim import limit as lim
from almsim import metrics as mt
from almsim import model as mdl
from almsim import particle as prt


# ---------------------------------------------------------------------------
# 1-d W1


def test_w1_identical_and_point_masses():
    assert mt.wasserstein1_1d([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert mt.wasserstein1_1d([0.0], [1.0]) == 1.0


def test_w1_uniform_empirical(rng):
    u = rng.random(10_000)
    q = (np.arange(10_000) + 0.5) / 10_000
    assert mt.wasserstein1_1d(u, q) <= 2e-2


def test_w1_empty_rejected():
    with pytest.raises(ValueError):
        mt.wasserstein1_1d([], [1.0])


def test_w1_axioms(rng):
    for _ in range(20):
        a = rng.normal(0, 1, 40)
        b = rng.normal(0.3, 1.2, 40)
        c = rng.normal(-0.2, 0.7, 40)
        dab = mt.wasserstein1_1d(a, b)
        assert abs(dab - mt.wasserstein1_1d(b, a)) < 1e-12
        assert dab <= mt.wasserstein1_1d(a, c) + mt.wasserstein1_1d(c, b) + 1e-12
        assert dab >= 0.0
    a = rng.normal(0, 1, 40)
    assert mt.wasserstein1_1d(a, np.sort(a)) == 0.0


# ---------------------------------------------------------------------------
# transformed sliced W1


def _toy_cloud():
    a_nodes = np.linspace(0.0, 8.0, 161)
    m_nodes = np.linspace(-2.0, 1.0, 61)
    rho = np.exp(-a_nodes)[:, None] * np.exp(
        -(m_nodes + 0.5) ** 2 / (2 * 0.3 ** 2))[None, :] \
        / (0.3 * math.sqrt(2 * math.pi))
    return a_nodes, m_nodes, rho


def test_grid_to_cloud_mass_and_budget():
    a_nodes, m_nodes, rho = _toy_cloud()
    pts, w = mt.grid_to_cloud(a_nodes, [m_nodes], rho)
    assert abs(w.sum() - 1.0) < 1e-12
    assert pts.shape[1] == 2
    pts2, w2 = mt.grid_to_cloud(a_nodes, [m_nodes], rho, max_points=1000)
    assert w2.size <= 1000
    assert abs(w2.sum() - 1.0) < 1e-12


def test_transformed_w1_point_mass_self():
    pts = np.array([[1.0, -0.5]])
    cloud = (pts, np.array([1.0]))
    psi = mdl.PsiParams(K=1.0, kappa=1.0)
    assert mt.transformed_w1(pts, np.array([1.0]), cloud, psi) == 0.0


def test_transformed_w1_zero_mass_rejected():
    psi = mdl.PsiParams(K=1.0, kappa=1.0)
    pts = np.array([[1.0, 0.0]])
    with pytest.raises(ValueError):
        mt.transformed_w1(pts, np.array([1.0]), (pts, np.array([0.0])), psi)


def test_single_direction_collapses_to_age_marginal(rng):
    # projecting on the age axis must reproduce plain W1 of the psi(age)
    # marginals exactly
    a_nodes, m_nodes, rho = _toy_cloud()
    cloud = mt.grid_to_cloud(a_nodes, [m_nodes], rho)
    pts = np.column_stack([rng.exponential(1.0, 500),
                           rng.normal(-0.5, 0.3, 500)])
    w = np.full(500, 1.0 / 500)
    psi = mdl.PsiParams(K=2.0, kappa=1.5)
    got = mt.transformed_w1(pts, w, cloud, psi,
                            directions=np.array([[1.0, 0.0]]))
    want = mt.wasserstein1_1d(mdl.psi_eval(pts[:, 0], psi),
                              mdl.psi_eval(cloud[0][:, 0], psi),
                              w, cloud[1])
    assert abs(got - want) < 1e-12


def test_self_distance_small(rng):
    # empirical sample from the density itself: distance near zero
    a_nodes, m_nodes, rho = _toy_cloud()
    cloud = mt.grid_to_cloud(a_nodes, [m_nodes], rho)
    n = 10_000
    pts = np.column_stack([rng.exponential(1.0, n),
                           rng.normal(-0.5, 0.3, n)])
    w = np.full(n, 1.0 / n)
    psi = mdl.PsiParams(K=1.0, kappa=1.0)
    assert mt.transformed_w1(pts, w, cloud, psi) <= 3e-2


def test_sliced_vs_exact_small_instances(rng):
    # the brute-force matching oracle dominates the sliced value
    for _ in range(20):
        n = int(rng.integers(2, 7))
        x = rng.normal(0, 1, (n, 2))
        y = rng.normal(0, 1, (n, 2))
        exact = mt.exact_w1_discrete(x, y)
        w = np.full(n, 1.0 / n)
        sliced = mt.sliced_w1(x, w, y, w, n_directions=64, seed=1)
        assert sliced <= exact + 1e-9
        assert sliced >= 0.0
    x = rng.normal(0, 1, (4, 2))
    assert mt.exact_w1_discrete(x, x) == 0.0
    assert mt.sliced_w1(x, np.full(4, 0.25), x, np.full(4, 0.25)) == 0.0


def test_exact_oracle_size_limit():
    with pytest.raises(ValueError):
        mt.exact_w1_discrete(np.zeros((7, 2)), np.zeros((7, 2)))


# ---------------------------------------------------------------------------
# slope fits


def test_loglog_slope_recovers_power_law():
    Ns = [100, 400, 1600]
    means = [5.0 * n ** -0.5 for n in Ns]
    slope, intercept = mt.fit_loglog_slope(Ns, means)
    assert abs(slope + 0.5) < 1e-12
    assert abs(intercept - math.log(5.0)) < 1e-12


def _bits(v):
    return np.float64(v).tobytes()


def _bootstrap_loop(Ns, values_by_N, n_boot=1000, seed=0):
    """The percentile bootstrap one replica at a time, one fit per replica."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    slopes = np.empty(n_boot)
    for b in range(n_boot):
        means = []
        for vals in values_by_N:
            idx = rng.integers(len(vals), size=len(vals))
            means.append(max(np.mean(np.asarray(vals)[idx]), 1e-300))
        slopes[b], _ = mt.fit_loglog_slope(Ns, means)
    return float(np.quantile(slopes, 0.025)), float(np.quantile(slopes, 0.975))


def _ladders():
    rng = np.random.default_rng(11)
    for R in range(2, 6):
        Ns = [25 * 4 ** i for i in range(R)]
        for L in range(1, 9):
            yield Ns, [list(rng.exponential(N ** -0.5, L)) for N in Ns]
    # ragged rungs, as from a ladder that repeats an N
    for lens in ([3, 5], [1, 4, 2], [8, 8, 4], [6, 1, 7, 2, 5]):
        yield ([10 * (i + 1) for i in range(len(lens))],
               [list(rng.random(L)) for L in lens])
    # a rung whose mean always clamps to 1e-300, and one that clamps in the
    # resamples that miss its one nonzero value
    yield [20, 40, 80], [[0.3, 0.2], [0.0, 0.0, 0.0], [0.05, 0.04]]
    yield [20, 40, 80], [[0.3, 0.2, 0.25], [0.0, 0.0, 0.0, 1e-3], [0.05]]


def test_bootstrap_same_bits_as_replica_loop():
    for i, (Ns, values) in enumerate(_ladders()):
        got = mt._bootstrap_slope(Ns, values, seed=i)
        want = _bootstrap_loop(Ns, values, seed=i)
        assert [_bits(v) for v in got] == [_bits(v) for v in want], (Ns, values)


def test_trend_pvalue_direction():
    Ns = [100, 100, 400, 400, 1600, 1600]
    down = [1.0, 0.9, 0.5, 0.55, 0.2, 0.25]
    up = [0.2, 0.25, 0.5, 0.55, 1.0, 0.9]
    assert mt.decreasing_trend_pvalue(Ns, down) < 0.05
    assert mt.decreasing_trend_pvalue(Ns, up) > 0.5


# ---------------------------------------------------------------------------
# studies


def test_coupling_study_no_interaction_zero(constant_rate_spec, tmp_path):
    ts = np.linspace(0.0, 2.0, 201)
    xp = lim.XPath(ts, np.zeros_like(ts))
    table = mt.coupling_decay_study(constant_rate_spec, [20, 40], 2.0, xp,
                                    n_replicas=2, seed=3)
    assert all(v == 0.0 for (_, _, _, v) in table.rows)
    assert table.slope is None
    mdl.write_json(tmp_path / "t.json", table.summary())
    meta = json.loads((tmp_path / "t.json").read_text())
    assert meta["slope"] is None
    table.to_csv(tmp_path / "t.csv")
    with open(tmp_path / "t.csv") as fh:
        assert fh.readline().strip() == "N,replicate,t,w1"


@pytest.mark.filterwarnings("error")
def test_convergence_study_shape_and_single_point(constant_rate_spec):
    a_nodes, m_nodes, rho = _toy_cloud()
    cloud = mt.grid_to_cloud(a_nodes, [m_nodes], rho)
    table = mt.convergence_study(constant_rate_spec, [30], 1.0, 1, seed=4,
                                 density_cloud=cloud, n_directions=8)
    assert len(table.rows) == 1
    assert table.rows[0][3] >= 0.0
    assert table.slope is None and table.slope_ci is None
    assert table.trend_pvalue == 1.0


def test_replica_study_rejects_repeated_N():
    # rows grouped by the value of N counted the N = 20 mean twice in the
    # slope fit, and the bootstrap resampled its pooled values as two rungs
    def task(N, child):
        raise AssertionError("task ran on a ladder that repeats an N")

    with pytest.raises(ValueError, match="repeats an N"):
        mt._replica_study([20, 20, 40], 3, 0, 1.0, task)


def _child_seed(seed, ni, rep):
    return int(np.random.SeedSequence(seed, spawn_key=(ni, rep)).generate_state(1)[0])


def test_studies_rows_equal_direct_task_calls(interacting_spec):
    # both studies run task (rung ni, replicate rep) with the child seed
    # SeedSequence(seed, spawn_key=(ni, rep)), in rung-then-replicate order
    spec, ladder, T, seed = interacting_spec, [20, 10], 1.0, 4
    a_nodes, m_nodes, rho = _toy_cloud()
    cloud = mt.grid_to_cloud(a_nodes, [m_nodes], rho)
    conv = mt.convergence_study(spec, ladder, T, 2, seed=seed,
                                density_cloud=cloud, n_directions=8)
    ts = np.linspace(0.0, T, 101)
    xp = lim.XPath(ts, 0.3 * ts)
    coup = mt.coupling_decay_study(spec, ladder, T, xp, 2, seed=seed)
    conv_rows, coup_rows = [], []
    for ni, N in enumerate(ladder):
        for rep in range(2):
            child = _child_seed(seed, ni, rep)
            rec = prt.simulate_network(spec, N, T, child, save_times=[T])
            pts, wts = prt.empirical_measure(rec, T)
            conv_rows.append((N, rep, T, mt.transformed_w1(
                pts, wts, cloud, spec.psi, n_directions=8, seed=seed)))
            pair = prt.simulate_coupled_pair(spec, N, T, xp, child, n_replicas=1)
            coup_rows.append((N, rep, T, pair.sup_distance))
    assert conv.rows == conv_rows
    assert coup.rows == coup_rows
    # the seeds reach the tasks: no two replicas give the same W1
    assert len({v for (_, _, _, v) in conv_rows}) == 4
    assert max(v for (_, _, _, v) in coup_rows) > 0.0