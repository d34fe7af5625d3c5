"""Tests for the event-driven finite-N simulator."""

import csv
import dataclasses
import gc
import math

import numpy as np
import pytest
from scipy import stats

from almsim import model as mdl
from almsim import particle as prt
from almsim import presets
from almsim.limit import XPath


def _constant_spec(rate=1.0, J=0.0, kernel="exponential", alpha=-0.5):
    return mdl.ModelSpec(
        d=1,
        Lambda=(1.0,),
        psi=mdl.PsiParams(K=1.0, kappa=1.0),
        f=mdl.IntensitySpec(family="constant", f_min=rate, f_max=rate),
        h=mdl.InteractionSpec(kernel=kernel, tau=0.5, J=J, modulation="none"),
        jump=mdl.JumpSpec(family="translation", alpha_vec=(alpha,)),
        init_law=mdl.InitialLaw(age=("exponential", 1.0),
                                mem=(("uniform", -1.0, 0.0),)),
        H=mdl.BaselineSpec(family="zero"),
    )


# ---------------------------------------------------------------------------
# thinning correctness


def test_poisson_count_mean_within_3_sigma():
    # constant rate, no interaction: counts on [0, T] are Poisson(rate*T)
    spec = _constant_spec(rate=1.0)
    T = 2.0
    reps = 10_000
    counts = np.array([len(prt.simulate_network(spec, 1, T, seed=s).events)
                       for s in range(reps)])
    mu = 1.0 * T
    se = math.sqrt(mu / reps)
    assert abs(counts.mean() - mu) < 3.0 * se


def test_no_thinning_superposition_gaps():
    # f_max = f_min so every candidate is accepted: global gaps are
    # Exp(N * f_max) and the pooled event count is Poisson(N * rate * T)
    spec = _constant_spec(rate=2.0)
    N, T = 20, 10.0
    rec = prt.simulate_network(spec, N, T, seed=7)
    times = np.array([e.time for e in rec.events])
    gaps = np.diff(np.concatenate([[0.0], times]))
    n = len(gaps)
    assert abs(gaps.mean() - 1.0 / (N * 2.0)) < 4.0 * (1.0 / (N * 2.0)) / math.sqrt(n)
    mu = N * 2.0 * T
    assert abs(len(times) - mu) < 4.0 * math.sqrt(mu)


def test_one_event_memory_closed_form():
    # after neuron i's first event at t1 the logged pre-event memory is
    # exp(-Lambda t1) M0(i) and the post-jump state is gamma of that
    spec = _constant_spec(rate=1.0, alpha=-0.5)
    seed = 31
    rec = prt.simulate_network(spec, 2, 6.0, seed=seed, save_times=[6.0])
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    ages0, mems0 = spec.init_law.sample(rng, 2)
    seen = set()
    for e in rec.events:
        if e.neuron in seen:
            continue
        seen.add(e.neuron)
        expected = mems0[e.neuron, 0] * math.exp(-e.time)
        assert abs(e.memory_before[0] - expected) < 1e-12
    assert seen == {0, 1}


def test_event_times_strictly_increasing_and_reset():
    spec = _constant_spec(rate=1.5)
    rec = prt.simulate_network(spec, 5, 8.0, seed=3)
    times = [e.time for e in rec.events]
    assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
    assert all(e.age_before >= 0.0 for e in rec.events)


# ---------------------------------------------------------------------------
# shared-signal evaluation


def test_evaluate_x_no_events_zero():
    spec = _constant_spec(rate=1.0, J=0.7)
    rec = prt.SimulationRecord("x", 1, 1.0, 0, [], np.array([]), [],
                               np.array([]), np.zeros(1))
    assert prt.evaluate_X(spec, rec, 0.5) == 0.0


def test_evaluate_x_single_event():
    spec = _constant_spec(rate=1.0, J=0.7)
    ev = prt.EventRecord(0.3, 0, 1.0, np.array([0.0]))
    rec = prt.SimulationRecord("x", 1, 1.0, 0, [ev], np.array([]), [],
                               np.array([]), np.zeros(1))
    got = prt.evaluate_X(spec, rec, 1.0)
    assert abs(got - 0.7 * math.exp(-(1.0 - 0.3) / 0.5)) < 1e-14


@pytest.mark.parametrize("kernel", ["exponential", "erlang",
                                    "finite-support-smooth"])
def test_trace_matches_lazy_sum(kernel):
    # the O(1) decaying-trace fast path against the reference lazy sum
    spec = _constant_spec(rate=1.2, J=0.6, kernel=kernel)
    saves = [0.5, 1.0, 2.0, 3.5, 5.0]
    rec = prt.simulate_network(spec, 8, 5.0, seed=11, save_times=saves)
    assert len(rec.events) >= 3
    for t, x_fast in zip(saves, rec.x_path_emp):
        x_lazy = prt.evaluate_X(spec, rec, t, horizon=np.inf)
        assert abs(x_fast - x_lazy) < 1e-12


_BASELINES = {"zero": {}, "constant-random": {"mean": 0.3, "std": 0.2},
              "exp-decay-from-M0": {}}
# every kernel, baseline and state modulation at d = 1, and at d = 2 where
# the baseline allows it (exp-decay-from-M0 needs d = 1)
_FAMILIES = [(kernel, baseline, modulation, d)
             for kernel in ("exponential", "erlang", "finite-support-smooth")
             for baseline in _BASELINES
             for modulation in ("none", "linear-in-m")
             for d in (1, 2) if d == 1 or baseline != "exp-decay-from-M0"]


@pytest.mark.parametrize("kernel, baseline, modulation, d", _FAMILIES,
                         ids=["-".join(map(str, c)) for c in _FAMILIES])
def test_trace_matches_lazy_sum_on_every_family(kernel, baseline, modulation,
                                                d):
    # the running signal against the reference lazy sum, with the signal
    # fed back into f
    spec = mdl.ModelSpec(
        d=d,
        Lambda=(1.0, 0.5)[:d],
        f=mdl.IntensitySpec(family="sigmoid-affine", f_min=0.5, f_max=2.0,
                            c_a=0.4, c_x=0.8, c_m=(0.6, -0.3)[:d], b=0.1),
        h=mdl.InteractionSpec(kernel=kernel, tau=0.5, J=0.6,
                              modulation=modulation, mod_intercept=1.0,
                              mod_slope=0.4),
        jump=mdl.JumpSpec(family="translation", alpha_vec=(-0.5, 0.3)[:d]),
        init_law=mdl.InitialLaw(mem=(("uniform", -1.0, 0.0),
                                     ("uniform", 0.0, 0.5))[:d]),
        H=mdl.BaselineSpec(family=baseline, **_BASELINES[baseline]),
    )
    saves = [0.0, 0.5, 1.0, 2.0, 3.5, 5.0]
    rec = prt.simulate_network(spec, 8, 5.0, seed=11, save_times=saves)
    assert len(rec.events) >= 10
    for t, x_fast in zip(saves, rec.x_path_emp):
        x_lazy = prt.evaluate_X(spec, rec, t, horizon=np.inf)
        assert abs(x_fast - x_lazy) < 1e-12


def test_finite_support_trace_keeps_only_last_tau():
    # the pruned event queue gives the bits of the unpruned newest-first
    # sum, and holds no more events than fall in one kernel support
    spec = _constant_spec(rate=1.0, J=0.6, kernel="finite-support-smooth")
    tau = spec.h.tau
    trace = spec.signal_trace(np.zeros(50))
    rng = np.random.default_rng(5)
    times = np.cumsum(rng.exponential(0.02, 5000))
    all_t, all_g, longest = [], [], 0
    for t, g in zip(times, rng.uniform(0.5, 1.5, times.size)):
        acc = 0.0
        for te, ge in zip(reversed(all_t), reversed(all_g)):
            if t - te >= tau:
                break
            acc += ge * float(mdl.kernel_eval(spec.h, t - te))
        assert trace.value(t) == spec.h.J * acc / 50
        trace.add_event(t, g)
        all_t.append(t)
        all_g.append(g)
        longest = max(longest, len(trace.recent))
    window = np.searchsorted(times, times + tau) - np.arange(times.size)
    assert longest <= window.max() + 1 < 100


def test_x_bound_at_save_times():
    spec = _constant_spec(rate=1.2, J=0.6)
    saves = np.linspace(0.25, 5.0, 20)
    rec = prt.simulate_network(spec, 8, 5.0, seed=13, save_times=saves)
    bound = abs(spec.h.J) * len(rec.events) / rec.N  # H is zero
    assert np.all(np.abs(rec.x_path_emp) <= bound + 1e-12)


# ---------------------------------------------------------------------------
# empirical measure


def test_empirical_measure_single_point():
    spec = _constant_spec(rate=1.0)
    rec = prt.simulate_network(spec, 1, 1.0, seed=0, save_times=[1.0])
    pts, w = prt.empirical_measure(rec, 1.0)
    assert pts.shape == (1, 2)
    assert abs(w.sum() - 1.0) < 1e-15


def test_empirical_measure_mass_and_missing_time():
    spec = _constant_spec(rate=1.0)
    rec = prt.simulate_network(spec, 50, 1.0, seed=0, save_times=[0.5])
    pts, w = prt.empirical_measure(rec, 0.5)
    assert abs(w.sum() - 1.0) < 1e-15
    with pytest.raises(KeyError):
        prt.empirical_measure(rec, 0.25)


def test_initial_snapshot_matches_init_law():
    # KS test of the t=0 age marginal against the exponential initial law
    spec = _constant_spec(rate=1.0)
    rec = prt.simulate_network(spec, 10_000, 0.5, seed=42, save_times=[0.0])
    ages = rec.snapshots[0].ages
    res = stats.kstest(ages, "expon", args=(0.0, 1.0))
    assert res.pvalue > 0.01


# ---------------------------------------------------------------------------
# determinism and errors


def test_same_seed_bit_identical():
    spec = _constant_spec(rate=1.3, J=0.4)
    r1 = prt.simulate_network(spec, 6, 4.0, seed=99, save_times=[2.0, 4.0])
    r2 = prt.simulate_network(spec, 6, 4.0, seed=99, save_times=[2.0, 4.0])
    assert len(r1.events) == len(r2.events)
    for a, b in zip(r1.events, r2.events):
        assert a.time == b.time and a.neuron == b.neuron
        assert a.age_before == b.age_before
        assert np.array_equal(a.memory_before, b.memory_before)
    assert np.array_equal(r1.x_path_emp, r2.x_path_emp)


def test_bad_arguments_rejected():
    spec = _constant_spec(rate=1.0)
    with pytest.raises(ValueError):
        prt.simulate_network(spec, 0, 1.0, seed=0)
    with pytest.raises(ValueError):
        prt.simulate_network(spec, 1, 0.0, seed=0)
    # a save time outside [0, T] would never be snapshotted
    for saves in ([-0.1, 0.5], [0.5, 1.5], [math.nan]):
        with pytest.raises(ValueError, match="save times"):
            prt.simulate_network(spec, 2, 1.0, seed=0, save_times=saves)


def test_event_cap_aborts():
    spec = _constant_spec(rate=5.0)
    with pytest.raises(RuntimeError):
        prt.simulate_network(spec, 20, 10.0, seed=0, event_cap=10)


def test_invalid_model_refused():
    spec = _constant_spec(rate=1.0)
    bad = dataclasses.replace(
        spec, jump=mdl.JumpSpec(family="custom", fn=lambda m: 2.0 * m,
                                fn_inv=lambda m: 0.5 * m))
    with pytest.raises(mdl.ConfigurationError):
        prt.simulate_network(bad, 2, 1.0, seed=0)


def test_assumption_verdict_not_inherited_through_reused_id(monkeypatch):
    # custom callables make a spec unserializable; once it is collected its
    # verdict must not pass to a new spec that gets the same id
    monkeypatch.setattr(prt, "id", lambda obj: 12345, raising=False)
    base = _constant_spec(rate=1.0)
    good = dataclasses.replace(
        base, jump=mdl.JumpSpec(family="custom", fn=lambda m: 0.5 * m,
                                fn_inv=lambda m: 2.0 * m))
    prt.simulate_network(good, 2, 1.0, seed=0)
    del good
    gc.collect()
    bad = dataclasses.replace(
        base, jump=mdl.JumpSpec(family="custom", fn=lambda m: 2.0 * m,
                                fn_inv=lambda m: 0.5 * m))
    with pytest.raises(mdl.ConfigurationError):
        prt.simulate_network(bad, 2, 1.0, seed=0)


def test_unhashable_custom_spec_validated_without_caching():
    # a list where ModelSpec declares a tuple makes a custom spec unhashable;
    # it is checked on every call and never enters the verdict cache
    base = presets.preset("adaptation-1d")
    good = dataclasses.replace(
        base, Lambda=[1.0],
        jump=mdl.JumpSpec(family="custom", fn=lambda m: m - 0.4,
                          fn_inv=lambda m: m + 0.4))
    before = prt._assumption_report.cache_info()
    for _ in range(2):
        rec = prt.simulate_network(good, 3, 0.5, seed=0)
        assert rec.spec_hash == "unserializable"
    assert prt._assumption_report.cache_info() == before
    bad = dataclasses.replace(
        good, jump=mdl.JumpSpec(family="custom", fn=lambda m: 2.0 * m,
                                fn_inv=lambda m: 0.5 * m))
    with pytest.raises(mdl.ConfigurationError):
        prt.simulate_network(bad, 3, 0.5, seed=0)


def test_equal_specs_share_one_assumption_check(monkeypatch):
    # the verdict cache keys by value: a second, equal spec object is not
    # validated again
    calls = []
    real = mdl.validate_assumptions

    def counting(spec, **kw):
        calls.append(spec)
        return real(spec, **kw)

    monkeypatch.setattr(mdl, "validate_assumptions", counting)
    s1, s2 = _constant_spec(rate=1.2345), _constant_spec(rate=1.2345)
    assert s1 is not s2 and s1 == s2
    for s in (s1, s2):
        prt.simulate_network(s, 1, 1e-6, seed=0)
    assert len(calls) == 1


def test_assumption_cache_bounded():
    assert prt._assumption_report.cache_info().maxsize == 64
    for k in range(64 + 5):
        prt.simulate_network(_constant_spec(rate=1.0 + k / 64), 1, 1e-6, seed=0)
    assert prt._assumption_report.cache_info().currsize == 64


# ---------------------------------------------------------------------------
# pinned candidate stream
#
# Each candidate draws its gap, its neuron and its uniform, in that order, on
# one generator per run.  These logs pin that stream and every state form:
# scalar d = 1 (translation and affine-contraction jumps), d = 2 and the
# kernel-form memory.  Neurons must match exactly, floats to 1e-13 relative.


def _d2_spec():
    return mdl.ModelSpec(
        d=2,
        Lambda=(1.0, 0.5),
        f=mdl.IntensitySpec(family="sigmoid-affine", f_min=0.3, f_max=2.0,
                            c_a=0.5, c_x=0.8, c_m=(0.7, -0.4), b=0.1),
        h=mdl.InteractionSpec(kernel="erlang", tau=0.4, J=0.9,
                              modulation="linear-in-m", mod_intercept=1.0,
                              mod_slope=0.3),
        jump=mdl.JumpSpec(family="affine-contraction", alpha=0.3,
                          offset=(0.2, -0.1)),
        init_law=mdl.InitialLaw(age=("exponential", 1.0),
                                mem=(("uniform", -1.0, 0.0), ("uniform", 0.0, 0.5))),
        H=mdl.BaselineSpec(family="constant-random", mean=0.1, std=0.2),
    )


# N = 10, T = 3, seed 4, saves at 1, 2, 3: event count, (time, neuron) of the
# first 20 events and the empirical signal at the save times
_ADAPTATION_LOG = (
    27,
    [0.1417684103190498, 0.27023434835091714, 0.3465301760180147,
     0.4963918107126687, 0.6069839890216762, 0.6136649119657509,
     0.7075543431134131, 0.7971887737384242, 0.9144842914843672,
     0.9862844581871083, 1.1083059701898506, 1.3761131721210798,
     1.423150576739821, 1.549333053642349, 1.5928925773157785,
     1.595630908419724, 1.5980638120613038, 1.60255218822833,
     1.8412214955180606, 2.1680982604817953],
    [9, 5, 6, 4, 1, 7, 2, 8, 3, 9, 7, 0, 0, 6, 7, 5, 5, 3, 3, 7],
    [0.27667484958371513, 0.3040564013846837, 0.31511257393614683],
)
_STREAM_PINS = {
    "adaptation-1d": _ADAPTATION_LOG,
    "stp": (
        22,
        [0.1417684103190498, 0.27023434835091714, 0.3465301760180147,
         0.4963918107126687, 0.6069839890216762, 0.6136649119657509,
         0.7075543431134131, 0.7971887737384242, 0.9144842914843672,
         0.9862844581871083, 1.1083059701898506, 1.3761131721210798,
         1.423150576739821, 1.549333053642349, 1.595630908419724,
         1.5980638120613038, 1.8412214955180606, 2.1680982604817953,
         2.44539769477168, 2.5294916211483085],
        [9, 5, 6, 4, 1, 7, 2, 8, 3, 9, 7, 0, 0, 6, 5, 5, 3, 7, 5, 1],
        [0.29115505478388, 0.14785223491776286, 0.14029352181079427],
    ),
    "d2": (
        44,
        [0.0032500486184603183, 0.023843452231617313, 0.08833869553426715,
         0.13379774644418793, 0.3426180428927627, 0.3730134605046153,
         0.5069092691852393, 0.6289307811879816, 0.6507991234335947,
         0.6869485363045447, 0.7104352041782179, 0.7584807994930549,
         0.7734786199454913, 0.8170381436189207, 0.8807916773452441,
         0.8832245809868239, 0.9196001953324534, 0.9758042930167337,
         1.0412399159876653, 1.0447178025554713],
        [6, 4, 1, 8, 5, 1, 1, 3, 8, 2, 6, 5, 5, 4, 0, 0, 1, 1, 0, 9],
        [0.5225622075587917, 0.6442011555730288, 0.6170114072731415],
    ),
    # the kernel form of adaptation-1d gives the state form's log
    "hawkes": _ADAPTATION_LOG,
}


@pytest.mark.parametrize("case", sorted(_STREAM_PINS))
def test_thinning_stream_pinned(case):
    saves = (1.0, 2.0, 3.0)
    if case == "hawkes":
        spec = presets.preset("adaptation-1d")
        rec = prt.simulate_equivalent_hawkes(spec, 10, 3.0, 4, save_times=saves)
    else:
        spec = _d2_spec() if case == "d2" else presets.preset(case)
        rec = prt.simulate_network(spec, 10, 3.0, 4, save_times=saves)
    n_events, times, neurons, x = _STREAM_PINS[case]
    assert len(rec.events) == n_events
    assert [e.neuron for e in rec.events[:20]] == neurons
    np.testing.assert_allclose([e.time for e in rec.events[:20]], times,
                               rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(rec.x_path_emp, x, rtol=1e-13, atol=0.0)
    assert all(e.memory_before.shape == (spec.d,) for e in rec.events)
    assert all(s.memories.shape == (10, spec.d) for s in rec.snapshots)


@pytest.mark.parametrize("name, per_replica", [
    ("adaptation-1d",
     [0.0, 0.3373131896231811, 0.4051651342878027, 0.3768644239025887]),
    ("stp", [0.0, 0.0, 0.23838421320686473, 0.06137378834347348]),
])
def test_coupled_pair_stream_pinned(name, per_replica):
    # N = 3 against a flat reference path, so accept decisions part ways
    ts = np.linspace(0.0, 3.0, 301)
    out = prt.simulate_coupled_pair(presets.preset(name), 3, 3.0,
                                    XPath(ts, np.zeros_like(ts)), seed=3,
                                    n_replicas=4)
    np.testing.assert_allclose(out.per_replica, per_replica, rtol=1e-13, atol=0.0)
    assert out.sup_distance == pytest.approx(float(np.mean(per_replica)),
                                             rel=1e-13, abs=0.0)


# ---------------------------------------------------------------------------
# coupled finite-N / limit pair


def test_coupled_pair_no_interaction_distance_zero(constant_rate_spec):
    ts = np.linspace(0.0, 3.0, 301)
    xp = XPath(ts, np.zeros_like(ts))
    out = prt.simulate_coupled_pair(constant_rate_spec, 50, 3.0, xp, seed=5,
                                    n_replicas=3)
    assert out.sup_distance == 0.0


def test_coupled_pair_short_path_rejected(constant_rate_spec):
    ts = np.linspace(0.0, 1.0, 101)
    xp = XPath(ts, np.zeros_like(ts))
    with pytest.raises(ValueError):
        prt.simulate_coupled_pair(constant_rate_spec, 10, 3.0, xp, seed=5)


def test_coupled_pair_mismatched_signal_positive(interacting_spec):
    # N=1 with strong coupling: the empirical signal cannot match a flat
    # reference path, so accept/reject mismatches occur with high probability
    ts = np.linspace(0.0, 5.0, 501)
    xp = XPath(ts, np.zeros_like(ts))
    out = prt.simulate_coupled_pair(interacting_spec, 1, 5.0, xp, seed=8,
                                    n_replicas=20)
    assert out.sup_distance > 0.0
    assert np.all(out.per_replica >= 0.0)


# ---------------------------------------------------------------------------
# kernel-form equivalence


def test_hawkes_equivalence_identical_logs():
    spec = _constant_spec(rate=1.2, J=0.6, alpha=-0.5)
    for seed in range(10):
        r1 = prt.simulate_network(spec, 10, 5.0, seed=seed)
        r2 = prt.simulate_equivalent_hawkes(spec, 10, 5.0, seed=seed)
        assert len(r1.events) == len(r2.events)
        for a, b in zip(r1.events, r2.events):
            assert a.time == b.time and a.neuron == b.neuron


def test_hawkes_equivalence_alpha_zero():
    spec = _constant_spec(rate=1.2, J=0.6, alpha=0.0)
    r1 = prt.simulate_network(spec, 10, 5.0, seed=1)
    r2 = prt.simulate_equivalent_hawkes(spec, 10, 5.0, seed=1)
    assert [e.time for e in r1.events] == [e.time for e in r2.events]


def test_hawkes_equivalence_requires_translation():
    spec = _constant_spec(rate=1.0)
    bad = dataclasses.replace(
        spec, jump=mdl.JumpSpec(family="affine-contraction", alpha=0.3))
    with pytest.raises(mdl.ConfigurationError):
        prt.simulate_equivalent_hawkes(bad, 2, 1.0, seed=0)


# ---------------------------------------------------------------------------
# CSV export


def test_events_csv_without_events_is_header_only(tmp_path):
    rec = prt.simulate_network(_constant_spec(rate=1.0), 1, 1e-3, seed=0)
    assert rec.events == []
    path = tmp_path / "events.csv"
    prt.events_to_csv(rec, path)
    assert path.read_bytes() == b"time,neuron,age_before,m1\r\n"


def test_snapshots_csv_prints_float64_X_as_float(tmp_path):
    # stp's linear-in-m modulation gives an np.float64 trace value, which
    # was written as np.float64(...)
    rec = prt.simulate_network(presets.preset("stp"), 5, 1.0, seed=3,
                               save_times=[0.5, 1.0])
    assert all(type(s.X) is np.float64 for s in rec.snapshots)
    path = tmp_path / "snapshots.csv"
    prt.snapshots_to_csv(rec, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "neuron", "age", "m1", "X"]
    assert [row[-1] for row in rows[1:]] == [
        repr(float(s.X)) for s in rec.snapshots for _ in range(5)]


def test_events_csv_lossless(tmp_path):
    spec = _constant_spec(rate=1.5, J=0.4)
    rec = prt.simulate_network(spec, 4, 3.0, seed=17)
    path = tmp_path / "events.csv"
    prt.events_to_csv(rec, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["time", "neuron", "age_before", "m1"]
    assert len(rows) - 1 == len(rec.events)
    for row, e in zip(rows[1:], rec.events):
        assert float(row[0]) == e.time
        assert int(row[1]) == e.neuron
        assert float(row[2]) == e.age_before
        assert float(row[3]) == e.memory_before[0]
