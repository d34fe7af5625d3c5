"""Event-driven simulation of the finite-N interacting system by thinning.

One global exponential candidate clock runs at rate N*f_max; each candidate
picks a uniform neuron and is accepted with probability f/f_max evaluated at
the pre-candidate state.  Between candidates ages grow linearly and memories
decay by exp(-Lambda*dt), both advanced lazily per neuron.  One loop,
_thin, runs this clock for every simulator here; each passes it the
per-candidate step of its own state form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import model as mdl

EVENT_CAP_DEFAULT = 10_000_000


@functools.lru_cache(maxsize=64)
def _assumption_report(spec: mdl.ModelSpec):
    """validate_assumptions for spec, cached by value: equal specs share one
    verdict."""
    return mdl.validate_assumptions(spec, n_samples=4000, seed=1234)


def _ensure_assumptions(spec: mdl.ModelSpec):
    try:
        hash(spec)
    except TypeError:
        # a custom spec with an unhashable field, such as a list where
        # ModelSpec declares a tuple, is validated on every call instead
        report = _assumption_report.__wrapped__(spec)
    else:
        report = _assumption_report(spec)
    if not report.all_pass:
        bad = [k for k, v in report.passes.items() if not v]
        raise mdl.ConfigurationError(f"model fails assumption checks: {bad}")


@dataclass
class EventRecord:
    time: float
    neuron: int
    age_before: float
    memory_before: np.ndarray


@dataclass
class ParticleState:
    t: float
    ages: np.ndarray
    memories: np.ndarray
    X: float


@dataclass
class SimulationRecord:
    spec_hash: str
    N: int
    T: float
    seed: int
    events: list
    save_times: np.ndarray
    snapshots: list
    x_path_emp: np.ndarray
    H_params: np.ndarray


def _start(spec, N, T, seed, spawn_key=()):
    """Generator, initial ages and memories and the signal trace: the draws
    every simulator makes before its first candidate.  Raises ValueError
    first unless N >= 1 and 0 < T < inf: N = 0 leaves the candidate clock
    no rate, and T <= 0 an empty run."""
    if not (N >= 1 and 0.0 < T < math.inf):
        raise ValueError(f"need N >= 1 and a finite T > 0, got N {N}, T {T}")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=spawn_key))
    ages0, mems0 = spec.init_law.sample(rng, N)
    trace = spec.signal_trace(spec.sample_H_params(rng, N, mems0))
    return rng, ages0, mems0, trace


def _thin(rng, N, fmax, T, step, save_times=(), snapshot=None,
          event_cap=math.inf):
    """Ogata thinning on [0, T] against one dominating clock of rate N*fmax.

    Each candidate draws its exponential gap, its uniform neuron and its
    uniform u, in that order; step(t, i, u*fmax) returns the EventRecord of
    an accepted candidate, None otherwise.  snapshot(ts) runs at each save
    time ts before the first candidate past it.  Returns the event log and
    raises RuntimeError once it holds more than event_cap events.
    """
    scale = 1.0 / (N * fmax)
    events = []
    save_idx = 0
    t = 0.0
    while True:
        t_cand = t + rng.exponential(scale)
        i = int(rng.integers(N))
        u = rng.random()
        lim = min(t_cand, T)
        while save_idx < len(save_times) and save_times[save_idx] <= lim:
            snapshot(save_times[save_idx])
            save_idx += 1
        if t_cand > T:
            return events
        event = step(t_cand, i, u * fmax)
        if event is not None:
            events.append(event)
            if len(events) > event_cap:
                raise RuntimeError(f"event cap {event_cap} exceeded")
        t = t_cand


def _logged_run(spec, N, T, seed, save_times, event_cap, rng, trace, step,
                state_at):
    """_thin with snapshots of state_at(ts) -> (ages, memories), assembled
    into the SimulationRecord of one network run."""
    save_times = np.asarray(sorted(save_times), dtype=float)
    if not np.all((save_times >= 0.0) & (save_times <= T)):
        raise ValueError(f"save times must lie in [0, {T}]")
    snapshots = []

    def snapshot(ts):
        ages, mems = state_at(ts)
        snapshots.append(ParticleState(ts, ages, mems, trace.value(ts)))

    events = _thin(rng, N, spec.f_max, T, step, save_times, snapshot, event_cap)
    try:
        shash = spec.spec_hash()
    except mdl.ConfigurationError:
        shash = "unserializable"
    return SimulationRecord(shash, N, T, seed, events, save_times, snapshots,
                            np.asarray([s.X for s in snapshots]), trace.H_params)


def simulate_network(spec: mdl.ModelSpec, N: int, T: float, seed: int,
                     save_times=(), event_cap=EVENT_CAP_DEFAULT) -> SimulationRecord:
    """Exact thinning simulation of the N-neuron system on [0, T]."""
    _ensure_assumptions(spec)
    rng, ages0, mems0, trace = _start(spec, N, T, seed)
    f = spec.scalar_intensity()
    jump = mdl.scalar_jump(spec.jump)
    gmod = spec.scalar_modulation()
    decay = spec.scalar_flow()
    mem_ref = mems0[:, 0].copy() if spec.d == 1 else mems0.copy()
    t_ref = np.zeros(N)
    age_ref = ages0.copy()

    def state_at(ts):
        el = ts - t_ref
        return age_ref + el, spec.flow(mem_ref.reshape(N, -1), el)

    def step(t, i, v):
        el = t - t_ref[i]
        a = age_ref[i] + el
        m = decay(mem_ref[i], el)
        if not v <= f(a, m, trace.value(t)):
            return None
        trace.add_event(t, gmod(a, m))
        t_ref[i] = t
        age_ref[i] = 0.0
        mem_ref[i] = jump(m)
        return EventRecord(t, i, a, np.array(m, ndmin=1))

    return _logged_run(spec, N, T, seed, save_times, event_cap, rng, trace,
                       step, state_at)


def evaluate_X(spec: mdl.ModelSpec, record: SimulationRecord, t: float,
               horizon=None) -> float:
    """Lazy-sum evaluation of the shared signal from the full event log.

    Reference implementation cross-checked against the trace fast path.
    """
    he = spec.H_emp_mean(record.H_params, t)
    if spec.h.J == 0.0 or not record.events:
        return he
    if horizon is None:
        horizon = mdl.kernel_horizon(spec.h)
    acc = 0.0
    for e in record.events:
        lag = t - e.time
        if lag < 0 or lag > horizon:
            continue
        acc += float(spec.interaction(lag, e.age_before, e.memory_before))
    return he + acc / record.N


def empirical_measure(record: SimulationRecord, t: float):
    """N uniformly weighted (age, memory) points at a saved time."""
    for snap in record.snapshots:
        if abs(snap.t - t) < 1e-12:
            pts = np.column_stack([snap.ages, snap.memories])
            return pts, np.full(record.N, 1.0 / record.N)
    raise KeyError(f"time {t} not among save times")


# ---------------------------------------------------------------------------
# coupled finite-N / limit pair


@dataclass
class CoupledRunSummary:
    N: int
    T: float
    seed: int
    sup_distance: float
    n_replicas: int
    per_replica: np.ndarray = field(default=None)


def simulate_coupled_pair(spec: mdl.ModelSpec, N: int, T: float, x_path,
                          seed: int, n_replicas: int = 1) -> CoupledRunSummary:
    """N-system and N limit processes on shared candidate streams.

    Both systems share initial conditions and the (time, neuron, uniform)
    candidate triples; the limit side replaces the empirical signal with the
    deterministic x_path.  Returns the replica-and-neuron average of
    sup_t |psi(A^N) - psi(A)| + |M^N - M|_1.
    """
    if spec.d != 1:
        raise NotImplementedError("coupled pair implemented for d = 1")
    _ensure_assumptions(spec)
    if x_path.grid[-1] < T - 1e-12:
        raise ValueError("x_path does not cover [0, T]")
    if n_replicas < 1:
        raise ValueError(f"need n_replicas >= 1, got {n_replicas}")

    f = spec.scalar_intensity()
    jump = mdl.scalar_jump(spec.jump)
    gmod = spec.scalar_modulation()
    psi_s = mdl.scalar_psi(spec.psi)
    decay = spec.scalar_flow()

    def replica(rep):
        rng, ages0, mems0, trace = _start(spec, N, T, seed, spawn_key=(rep,))
        mN = mems0[:, 0].copy()
        tN = np.zeros(N); aN = ages0.copy()
        tL = np.zeros(N); aL = ages0.copy(); mL = mN.copy()
        sup = np.zeros(N)

        def step(t, i, v):
            # finite-N side
            elN = t - tN[i]
            a1 = aN[i] + elN
            m1 = decay(mN[i], elN)
            acc1 = v <= f(a1, m1, trace.value(t))
            # limit side
            elL = t - tL[i]
            a2 = aL[i] + elL
            m2 = decay(mL[i], elL)
            acc2 = v <= f(a2, m2, x_path(t))
            if acc1:
                trace.add_event(t, gmod(a1, m1))
                tN[i] = t; aN[i] = 0.0; mN[i] = jump(m1)
            if acc2:
                tL[i] = t; aL[i] = 0.0; mL[i] = jump(m2)
            if acc1 or acc2:
                an = 0.0 if acc1 else a1
                al = 0.0 if acc2 else a2
                mn = mN[i] if acc1 else m1
                ml = mL[i] if acc2 else m2
                diff = abs(psi_s(an) - psi_s(al)) + abs(mn - ml)
                if diff > sup[i]:
                    sup[i] = diff
            return None

        _thin(rng, N, spec.f_max, T, step)    # no event log: step gives None
        return float(np.mean(sup))

    vals = np.array([replica(rep) for rep in range(n_replicas)], dtype=float)
    return CoupledRunSummary(N, T, seed, float(np.mean(vals)), n_replicas, vals)


# ---------------------------------------------------------------------------
# pre-transformation simulation of the exponential self-interaction form


def simulate_equivalent_hawkes(spec: mdl.ModelSpec, N: int, T: float, seed: int,
                               save_times=(),
                               event_cap=EVENT_CAP_DEFAULT) -> SimulationRecord:
    """Simulates the memory process in kernel form instead of state form.

    Each neuron's memory is reconstructed as M0*exp(-Lambda t) plus a sum of
    alpha*exp(-Lambda(t-s)) over its own event log, which for d=1 translation
    jumps is algebraically equal to the jump-and-decay state.  Under the same
    seed the candidate stream matches simulate_network, so the event logs
    must coincide.
    """
    affine = spec.jump.affine
    if spec.d != 1 or affine is None or affine[0] != 1.0:
        raise mdl.ConfigurationError(
            "kernel-form simulation needs d=1 and a translation jump")
    _ensure_assumptions(spec)
    rng, ages0, mems0, trace = _start(spec, N, T, seed)
    decay = spec.scalar_flow()
    alpha = affine[1].item()
    f = spec.scalar_intensity()
    gmod = spec.scalar_modulation()
    m0 = mems0[:, 0]
    own_events = [[] for _ in range(N)]
    last_event = np.zeros(N)
    age_off = ages0.copy()

    def mem_at(i, t):
        v = decay(m0[i], t)
        for s in own_events[i]:
            v += decay(alpha, t - s)
        return v

    def state_at(ts):
        return (age_off + ts - last_event,
                np.array([[mem_at(i, ts)] for i in range(N)]))

    def step(t, i, v):
        a = age_off[i] + t - last_event[i]
        m = mem_at(i, t)
        if not v <= f(a, m, trace.value(t)):
            return None
        trace.add_event(t, gmod(a, m))
        own_events[i].append(t)
        last_event[i] = t
        age_off[i] = 0.0
        return EventRecord(t, i, a, np.array([m]))

    return _logged_run(spec, N, T, seed, save_times, event_cap, rng, trace,
                       step, state_at)


# ---------------------------------------------------------------------------
# artifact export


def events_to_csv(record: SimulationRecord, path):
    d = record.events[0].memory_before.shape[0] if record.events else 1
    mdl.write_csv(path, ["time", "neuron", "age_before"]
                  + [f"m{k+1}" for k in range(d)],
                  ((e.time, e.neuron, e.age_before, *e.memory_before)
                   for e in record.events))


def snapshots_to_csv(record: SimulationRecord, path):
    d = record.snapshots[0].memories.shape[1] if record.snapshots else 1
    mdl.write_csv(path, ["t", "neuron", "age"] + [f"m{k+1}" for k in range(d)]
                  + ["X"],
                  ((snap.t, i, age, *mem, snap.X) for snap in record.snapshots
                   for i, (age, mem) in enumerate(zip(snap.ages, snap.memories))))
