"""Event-driven simulation of the finite-N interacting system by thinning.

One global exponential candidate clock runs at rate N*f_max; each candidate
picks a uniform neuron and is accepted with probability f/f_max evaluated at
the pre-candidate state.  Between candidates ages grow linearly and memories
decay by exp(-Lambda*dt), both advanced lazily per neuron.  One loop,
_thin, runs this clock for every simulator here; each passes it the
per-candidate step of its own state form.
"""

from __future__ import annotations

import csv
import functools
import math
from collections import deque
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


class _XTrace:
    """O(1) running evaluation of the shared signal for separable h.

    Exponential and erlang kernels keep decaying sufficient statistics; the
    finite-support kernel falls back to a lazy sum over the events of the
    last tau.  Queries come at nondecreasing times, no earlier than the last
    event, so an event that is a full tau old stays out of every later sum.
    """

    def __init__(self, spec, N, H_params):
        self.spec = spec
        self.N = N
        self.H_params = H_params
        # spec.H_emp_mean(H_params, t), with the O(N) mean taken once per run
        self.h_mean = float(np.mean(H_params))
        self.h_rate = spec.lam[0] if spec.H.family == "exp-decay-from-M0" else None
        self.kernel = spec.h.kernel
        self.tau = spec.h.tau
        self.J = spec.h.J
        self.t = 0.0
        self.s0 = 0.0
        self.s1 = 0.0
        self.recent = deque()    # (time, g) of the finite-support events
        self._horizon = spec.h.tau

    def value(self, t):
        he = self.h_mean
        if self.h_rate is not None:
            he = he * math.exp(-self.h_rate * t)
        if self.J == 0.0:
            return he
        dt = t - self.t
        r = math.exp(-dt / self.tau)
        if self.kernel == "exponential":
            return he + self.J * self.s0 * r / self.N
        if self.kernel == "erlang":
            s1 = r * (self.s1 + (dt / self.tau) * self.s0)
            return he + self.J * s1 / self.N
        # finite-support bump: lazy sum over recent events
        acc = 0.0
        for te, g in reversed(self.recent):
            lag = t - te
            if lag >= self._horizon:
                break
            acc += g * float(mdl.kernel_eval(self.spec.h, lag))
        return he + self.J * acc / self.N

    def add_event(self, t, g):
        if self.J == 0.0:
            return
        if self.kernel in ("exponential", "erlang"):
            dt = t - self.t
            r = math.exp(-dt / self.tau)
            if self.kernel == "erlang":
                self.s1 = r * (self.s1 + (dt / self.tau) * self.s0)
            self.s0 = r * self.s0 + g
            self.t = t
        else:
            recent = self.recent
            while recent and t - recent[0][0] >= self._horizon:
                recent.popleft()
            recent.append((t, g))


def _scalar_modulation(spec):
    h = spec.h
    if spec.d > 1:
        return lambda a, m: float(mdl.modulation_eval(h, a, m))
    if h.modulation == "none":
        return lambda a, m: 1.0
    if h.modulation == "linear-in-m":
        return lambda a, m: h.mod_intercept + h.mod_slope * m
    return lambda a, m: float(h.mod_fn(np.asarray(a), np.asarray([m])))


def make_scalar_intensity(spec: mdl.ModelSpec):
    """Intensity closure for one neuron's state in the thinning loops: pure
    python on a float memory when d = 1, spec.intensity on a (d,) memory
    otherwise."""
    if spec.d > 1:
        return spec.intensity
    f = spec.f
    lo, hi = f.f_min, f.f_max - f.f_min
    K, kap = spec.psi.K, spec.psi.kappa
    if f.family == "constant":
        return lambda a, m, x: lo
    if f.family == "stp-composite":
        cx, b, amp, rate = f.c_x, f.b, f.psi_amp, f.psi_rate
        def fn(a, m, x):
            u = cx * (x - amp * math.exp(-rate * a)) + b
            return lo + hi / (1.0 + math.exp(-u)) if u > -500 else lo
        return fn
    ca, cx, b = f.c_a, f.c_x, f.b
    cm = f.c_m[0]
    if f.family == "sigmoid-affine":
        def fn(a, m, x):
            u = ca * K * (1.0 - math.exp(-a * kap / K)) + cm * m + cx * x + b
            return lo + hi / (1.0 + math.exp(-u)) if u > -500 else lo
        return fn
    def fn(a, m, x):
        u = ca * K * (1.0 - math.exp(-a * kap / K)) + cm * m + cx * x + b
        sp = math.log1p(math.exp(u)) if u < 30 else u
        return lo + hi * (1.0 - math.exp(-sp))
    return fn


def make_scalar_jump(j: mdl.JumpSpec):
    """gamma for one neuron's memory: a float when d = 1, a (d,) array
    otherwise, with the numbers of mdl.jump_apply (a one-element b is a
    float); a custom map is applied to a batch of one."""
    if j.affine is None:
        return lambda m: mdl.jump_apply(j, np.asarray([m]))[0]
    c, b = j.affine
    b = b.item() if b.size == 1 else b
    return lambda m: b + c * m


def _memory_decay(spec, mems0):
    """The lazily decayed memory array and decay(m, el) = m exp(-Lambda el)
    for one row of it: python floats through math.exp when d = 1, (d,) rows
    through np.exp otherwise."""
    if spec.d == 1:
        nl = -float(spec.lam[0])
        return mems0[:, 0].copy(), lambda m, el: m * math.exp(nl * el)
    nl = -spec.lam
    return mems0.copy(), lambda m, el: m * np.exp(nl * el)


def _start(spec, N, seed, spawn_key=()):
    """Generator, initial ages and memories and the signal trace: the draws
    every simulator makes before its first candidate."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=spawn_key))
    ages0, mems0 = spec.init_law.sample(rng, N)
    trace = _XTrace(spec, N, spec.sample_H_params(rng, N, mems0))
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
    if N < 1 or T <= 0:
        raise ValueError("need N >= 1 and T > 0")
    _ensure_assumptions(spec)
    rng, ages0, mems0, trace = _start(spec, N, seed)
    f = make_scalar_intensity(spec)
    jump = make_scalar_jump(spec.jump)
    gmod = _scalar_modulation(spec)
    mem_ref, decay = _memory_decay(spec, mems0)
    neg_lam = -spec.lam
    t_ref = np.zeros(N)
    age_ref = ages0.copy()

    def state_at(ts):
        el = ts - t_ref
        return (age_ref + el,
                mem_ref.reshape(N, -1) * np.exp(el[:, None] * neg_lam))

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
    xg = np.asarray(x_path.grid, dtype=float)
    xv = np.asarray(x_path.values, dtype=float)
    if xg[-1] < T - 1e-12:
        raise ValueError("x_path does not cover [0, T]")

    f = make_scalar_intensity(spec)
    jump = make_scalar_jump(spec.jump)
    gmod = _scalar_modulation(spec)
    K, kap = spec.psi.K, spec.psi.kappa

    def psi_s(a):
        return K * (1.0 - math.exp(-a * kap / K))

    def replica(rep):
        rng, ages0, mems0, trace = _start(spec, N, seed, spawn_key=(rep,))
        mN, decay = _memory_decay(spec, mems0)
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
            acc2 = v <= f(a2, m2, float(np.interp(t, xg, xv)))
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
    rng, ages0, mems0, trace = _start(spec, N, seed)
    lam0 = float(spec.lam[0])
    alpha = affine[1].item()
    f = make_scalar_intensity(spec)
    gmod = _scalar_modulation(spec)
    m0 = mems0[:, 0]
    own_events = [[] for _ in range(N)]
    last_event = np.zeros(N)
    age_off = ages0.copy()

    def mem_at(i, t):
        v = m0[i] * math.exp(-lam0 * t)
        for s in own_events[i]:
            v += alpha * math.exp(-lam0 * (t - s))
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
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "neuron", "age_before"] + [f"m{k+1}" for k in range(d)])
        for e in record.events:
            w.writerow([repr(float(e.time)), e.neuron, repr(float(e.age_before))]
                       + [repr(float(v)) for v in e.memory_before])


def snapshots_to_csv(record: SimulationRecord, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        d = record.snapshots[0].memories.shape[1] if record.snapshots else 1
        w.writerow(["t", "neuron", "age"] + [f"m{k+1}" for k in range(d)] + ["X"])
        for snap in record.snapshots:
            for i in range(len(snap.ages)):
                w.writerow([repr(float(snap.t)), i, repr(float(snap.ages[i]))]
                           + [repr(float(v)) for v in snap.memories[i]]
                           + [repr(snap.X)])
