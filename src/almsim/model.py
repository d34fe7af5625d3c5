"""Parametric model ingredients for age / leaky-memory point-process networks.

A network is specified by an intensity function f(a, m, x), an interaction
function h(t, a, m), a memory jump mapping gamma(m) = m + Gamma(m), a diagonal
decay matrix Lambda, a saturating age transform psi, an initial law for
(A_0, M_0) and a family of baseline signals H_t.  Everything is collected in
an immutable ModelSpec shared by the simulators and the PDE solvers.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

SCHEMA_VERSION = 1


class ConfigurationError(ValueError):
    """Raised when a spec is internally inconsistent or not supported."""


def step_count(T, dt):
    """The number G >= 1 of dt steps that make up [0, T].  A dt whose T/dt is
    more than 1e-9 from a whole G, or rounds to 0, would end a march short of
    T or leave one knot, so it raises ConfigurationError("dt must divide T")."""
    G = int(round(T / dt))
    if abs(T / dt - G) > 1e-9 or G < 1:
        raise ConfigurationError("dt must divide T")
    return G


# ---------------------------------------------------------------------------
# saturating age transform


@dataclass(frozen=True)
class PsiParams:
    """Parameters of the bounded age transform K*(1 - exp(-a*kappa/K))."""

    K: float = 1.0
    kappa: float = 1.0

    def __post_init__(self):
        if self.K <= 0 or self.kappa <= 0:
            raise ConfigurationError("PsiParams requires K > 0 and kappa > 0")


def psi_eval(a, p: PsiParams):
    """Evaluate the saturating age transform; strictly increasing, < K."""
    a = np.asarray(a, dtype=float)
    if np.any(a < 0):
        raise ValueError("age must be nonnegative")
    return p.K * (-np.expm1(-a * p.kappa / p.K))


def scalar_psi(p: PsiParams):
    """psi_eval on one float64 age, with its bits: the same operations in the
    same order, without the array conversion and the sign check."""
    K, kappa = p.K, p.kappa

    def psi(a):
        return K * (-np.expm1(-a * kappa / K))
    return psi


def psi_prime(a, p: PsiParams):
    a = np.asarray(a, dtype=float)
    return p.kappa * np.exp(-a * p.kappa / p.K)


# ---------------------------------------------------------------------------
# intensity


@dataclass(frozen=True)
class IntensitySpec:
    """Bounded Lipschitz event rate, always in [f_min, f_max].

    Families:
      constant         -- f_min (requires f_min == f_max)
      sigmoid-affine   -- f_min + (f_max-f_min)*sigmoid(c_a*psi(a) + c_m.m + c_x*x + b)
      exp-saturating   -- f_min + (f_max-f_min)*(1 - exp(-softplus(u))), same u
      stp-composite    -- sigmoid family evaluated at c_x*(x + Psi(a)) + b with
                          Psi(a) = -psi_amp*exp(-psi_rate*a)
    """

    family: str = "constant"
    f_min: float = 1.0
    f_max: float = 1.0
    c_a: float = 0.0
    c_x: float = 0.0
    c_m: tuple = (0.0,)
    b: float = 0.0
    psi_amp: float = 1.0
    psi_rate: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.f_min <= self.f_max < math.inf):
            raise ConfigurationError("need 0 < f_min <= f_max < inf")
        if self.family == "constant" and self.f_min != self.f_max:
            raise ConfigurationError("constant intensity requires f_min == f_max")
        if self.family not in (
            "constant",
            "sigmoid-affine",
            "exp-saturating",
            "stp-composite",
        ):
            raise ConfigurationError(f"unknown intensity family {self.family!r}")

    @property
    def age_free(self):
        """True when f does not depend on age: the constant family, and the
        sigmoid-affine and exp-saturating families with c_a == 0."""
        return self.family == "constant" or (
            self.family != "stp-composite" and self.c_a == 0.0)

    @property
    def memory_free(self):
        """True when f does not depend on memory: the constant and
        stp-composite families, and the sigmoid-affine and exp-saturating
        families with every c_m == 0."""
        return self.family in ("constant", "stp-composite") or all(
            c == 0.0 for c in self.c_m)


def _sigmoid(u):
    # e = exp(-|u|) never overflows, and the result is bit for bit
    # 1/(1+exp(-u)) on u >= 0 and exp(u)/(1+exp(u)) elsewhere; np.minimum
    # returns its first argument when that is NaN, so a NaN keeps its sign.
    # One division, in place: a third faster than both branches on large u
    e = np.minimum(u, -u, out=np.empty(np.shape(u)))
    np.exp(e, out=e)
    den = 1.0 + e
    np.copyto(e, 1.0, where=u >= 0)
    e /= den
    return e


def intensity_eval(spec: IntensitySpec, psi: PsiParams, a, m, x):
    """Evaluate f(a, m, x).  Broadcasts; m has the memory dimension last."""
    a = np.asarray(a, dtype=float)
    m = np.atleast_1d(np.asarray(m, dtype=float))
    x = np.asarray(x, dtype=float)
    if spec.family == "constant":
        shape = np.broadcast_shapes(a.shape, m.shape[:-1], x.shape)
        return np.full(shape, spec.f_min)
    if spec.family == "stp-composite":
        u = spec.c_x * (x + (-spec.psi_amp) * np.exp(-spec.psi_rate * a)) + spec.b
        u = np.asarray(u, dtype=float)
        return spec.f_min + (spec.f_max - spec.f_min) * _sigmoid(u)
    cm = np.asarray(spec.c_m, dtype=float)
    u = np.tensordot(m, cm, axes=([-1], [0]))
    # an age-free u keeps the memory shape, so the nonlinearity runs once per
    # memory node instead of once per (age, memory) node; the result takes
    # the full broadcast shape at the end
    if not spec.age_free:
        u = spec.c_a * psi_eval(a, psi) + u
    elif np.any(a < 0):
        raise ValueError("age must be nonnegative")
    u = np.asarray(u + spec.c_x * x + spec.b, dtype=float)
    if spec.family == "sigmoid-affine":
        g = _sigmoid(u)
    else:  # exp-saturating
        g = -np.expm1(-np.logaddexp(0.0, u))
    out = spec.f_min + (spec.f_max - spec.f_min) * g
    if a.ndim > 0:
        shape = np.broadcast_shapes(a.shape, out.shape)
        if shape != out.shape:
            out = np.broadcast_to(out, shape).copy()
    return out


def _scalar_sigmoid(u):
    # _sigmoid on one value; min returns u when u is NaN, as np.minimum does
    e = np.exp(min(u, -u))
    return 1.0 / (1.0 + e) if u >= 0 else e / (1.0 + e)


def _scalar_intensity(spec: IntensitySpec, psi: PsiParams):
    """f(a, m, x) for d = 1 on float64 scalars, m the one memory coordinate.

    The operations are intensity_eval's, in its order, so the value has the
    bits of intensity_eval(spec, psi, a, [m], x) on 0-d inputs: a length-one
    tensordot is m * c_m up to the sign of a zero, which no family's output
    shows.  A negative age raises ValueError where intensity_eval does."""
    lo, span = spec.f_min, spec.f_max - spec.f_min
    if spec.family == "constant":
        return lambda a, m, x: lo
    cx, b = float(spec.c_x), float(spec.b)
    if spec.family == "stp-composite":
        amp, rate = -spec.psi_amp, -spec.psi_rate

        def stp(a, m, x):
            return lo + span * _scalar_sigmoid(cx * (x + amp * np.exp(rate * a)) + b)
        return stp
    ca, cm = float(spec.c_a), float(spec.c_m[0])
    K, kappa = psi.K, psi.kappa
    age_free = spec.age_free
    if spec.family == "sigmoid-affine":
        g = _scalar_sigmoid
    else:  # exp-saturating
        def g(u):
            return -np.expm1(-np.logaddexp(0.0, u))

    def affine(a, m, x):
        if a < 0:
            raise ValueError("age must be nonnegative")
        u = m * cm
        if not age_free:
            u = ca * (K * (-np.expm1(-a * kappa / K))) + u
        return lo + span * g(u + cx * x + b)
    return affine


# ---------------------------------------------------------------------------
# interaction


@dataclass(frozen=True)
class InteractionSpec:
    """Separable interaction h(t, a, m) = J * kernel(t) * g(a, m).

    Temporal kernels: exponential exp(-t/tau), erlang (t/tau)exp(-t/tau),
    finite-support-smooth (a C^inf bump supported on [0, tau)).
    State modulation g: none (1), linear-in-m (g0 + g1*m[0]), or a bounded
    user callable.
    """

    kernel: str = "exponential"
    tau: float = 1.0
    J: float = 1.0
    modulation: str = "none"
    mod_intercept: float = 1.0
    mod_slope: float = 0.0
    mod_fn: object = None

    def __post_init__(self):
        if self.kernel not in ("exponential", "erlang", "finite-support-smooth"):
            raise ConfigurationError(f"unknown kernel {self.kernel!r}")
        if self.modulation not in ("none", "linear-in-m", "custom-bounded"):
            raise ConfigurationError(f"unknown modulation {self.modulation!r}")
        if self.tau <= 0:
            raise ConfigurationError("kernel scale tau must be positive")
        if self.modulation == "custom-bounded" and self.mod_fn is None:
            raise ConfigurationError("custom-bounded modulation needs mod_fn")

    @property
    def age_free(self):
        """True when g does not depend on age: every modulation but the
        custom one."""
        return self.modulation != "custom-bounded"

    @property
    def memory_free(self):
        """True when g does not depend on memory: no modulation."""
        return self.modulation == "none"


def kernel_eval(spec: InteractionSpec, t):
    t = np.asarray(t, dtype=float)
    s = t / spec.tau
    if spec.kernel == "exponential":
        return np.where(t >= 0, np.exp(-np.minimum(s, 700.0)), 0.0)
    if spec.kernel == "erlang":
        return np.where(t >= 0, s * np.exp(-np.minimum(s, 700.0)), 0.0)
    # smooth bump on [0, tau)
    inside = (t >= 0) & (s < 1.0)
    out = np.zeros_like(s)
    ss = np.clip(s, 0.0, 1.0 - 1e-12)
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ss[inside] ** 2))
    return out


def scalar_kernel(spec: InteractionSpec):
    """kernel_eval at one float lag as a python float, with its bits: the
    same operations in the same order on the one value."""
    tau = spec.tau
    if spec.kernel == "exponential":
        def kernel(t):
            return float(np.exp(-min(t / tau, 700.0))) if t >= 0 else 0.0
    elif spec.kernel == "erlang":
        def kernel(t):
            s = t / tau
            return float(s * np.exp(-min(s, 700.0))) if t >= 0 else 0.0
    else:
        def kernel(t):
            s = t / tau
            if not (t >= 0 and s < 1.0):
                return 0.0
            ss = min(s, 1.0 - 1e-12)
            return float(np.exp(1.0 - 1.0 / (1.0 - ss * ss)))
    return kernel


class SignalTrace:
    """O(1) running evaluation of the shared signal of one N-neuron run,
    (1/N) sum_j H_t(j) + (J/N) sum over events of kernel(t - s) g(a, m).

    Exponential and erlang kernels keep decaying sufficient statistics; the
    finite-support kernel falls back to a lazy sum over the events of the
    last tau.  Queries come at nondecreasing times, no earlier than the last
    event, so an event that is a full tau old stays out of every later sum.
    """

    def __init__(self, spec: ModelSpec, H_params):
        self.N = len(H_params)
        self.H_params = H_params
        # spec.H_emp_mean(H_params, t), with the O(N) mean taken once per run
        self.h_mean = float(np.mean(H_params))
        self.h_rate = spec.lam[0] if spec.H.family == "exp-decay-from-M0" else None
        self.kernel, self.tau, self.J = spec.h.kernel, spec.h.tau, spec.h.J
        self.t = self.s0 = self.s1 = 0.0
        self.recent = deque()    # (time, g) of the finite-support events
        self._kernel = scalar_kernel(spec.h)

    def value(self, t):
        he = self.h_mean
        if self.h_rate is not None:
            he = he * math.exp(-self.h_rate * t)
        if self.J == 0.0:
            return he
        if self.kernel == "finite-support-smooth":
            acc = 0.0
            for te, g in reversed(self.recent):
                lag = t - te
                if lag >= self.tau:
                    break
                acc += g * self._kernel(lag)
            return he + self.J * acc / self.N
        dt = t - self.t
        r = math.exp(-dt / self.tau)
        if self.kernel == "exponential":
            return he + self.J * self.s0 * r / self.N
        s1 = r * (self.s1 + (dt / self.tau) * self.s0)
        return he + self.J * s1 / self.N

    def add_event(self, t, g):
        if self.J == 0.0:
            return
        if self.kernel == "finite-support-smooth":
            recent = self.recent
            while recent and t - recent[0][0] >= self.tau:
                recent.popleft()
            recent.append((t, g))
            return
        dt = t - self.t
        r = math.exp(-dt / self.tau)
        if self.kernel == "erlang":
            self.s1 = r * (self.s1 + (dt / self.tau) * self.s0)
        self.s0 = r * self.s0 + g
        self.t = t


def modulation_eval(spec: InteractionSpec, a, m):
    a = np.asarray(a, dtype=float)
    m = np.atleast_1d(np.asarray(m, dtype=float))
    if spec.modulation == "none":
        return np.ones(np.broadcast_shapes(a.shape, m.shape[:-1]))
    if spec.modulation == "linear-in-m":
        return spec.mod_intercept + spec.mod_slope * m[..., 0] + 0.0 * a
    return np.asarray(spec.mod_fn(a, m), dtype=float)


def interaction_eval(spec: InteractionSpec, t, a, m):
    """Full h(t, a, m)."""
    return spec.J * kernel_eval(spec, t) * modulation_eval(spec, a, m)


def kernel_horizon(spec: InteractionSpec, atol=1e-12):
    """Lag beyond which |J*kernel| < atol (event pruning horizon)."""
    if abs(spec.J) <= atol:
        return 0.0
    if spec.kernel == "finite-support-smooth":
        return spec.tau
    # erlang tail is below the exponential's once t/tau > 1
    return spec.tau * (math.log(abs(spec.J) / atol) + 10.0)


# ---------------------------------------------------------------------------
# jump mapping


@dataclass(frozen=True)
class JumpSpec:
    """Memory jump mapping gamma(m) = m + Gamma(m).

    translation        : gamma(m) = m + alpha_vec
    affine-contraction : gamma(m) = offset + (1 - alpha) * m, alpha in (0, 1);
                         offset None means alpha on every axis
    custom             : user callables fn / fn_inv (fn_inv optional)
    """

    family: str = "translation"
    alpha_vec: tuple = (0.0,)
    alpha: float = 0.5
    offset: tuple = None
    fn: object = None
    fn_inv: object = None

    def __post_init__(self):
        if self.family not in ("translation", "affine-contraction", "custom"):
            raise ConfigurationError(f"unknown jump family {self.family!r}")
        if self.family == "affine-contraction" and not (0.0 < self.alpha < 1.0):
            raise ConfigurationError("affine-contraction needs alpha in (0,1)")
        if self.family == "custom" and self.fn is None:
            raise ConfigurationError("custom jump needs fn")

    @property
    def affine(self):
        """(c, b) with gamma(m) = b + c*m, b a float64 array that broadcasts
        against the memory; None for a custom map."""
        if self.family == "translation":
            return 1.0, np.asarray(self.alpha_vec, dtype=float)
        if self.family == "affine-contraction":
            b = self.alpha if self.offset is None else self.offset
            return 1.0 - self.alpha, np.asarray(b, dtype=float)
        return None


def jump_apply(j: JumpSpec, m):
    """gamma(m); m has the memory dimension last."""
    m = np.atleast_1d(np.asarray(m, dtype=float))
    if j.affine is not None:
        c, b = j.affine
        return b + c * m
    return np.asarray(j.fn(m), dtype=float)


def scalar_jump(j: JumpSpec):
    """gamma for one neuron's memory: a float when d = 1, a (d,) array
    otherwise, with the numbers of jump_apply (a one-element b is a float);
    a custom map is applied to a batch of one."""
    if j.affine is None:
        return lambda m: jump_apply(j, np.asarray([m]))[0]
    c, b = j.affine
    b = b.item() if b.size == 1 else b
    return lambda m: b + c * m


def jump_inverse(j: JumpSpec, m):
    """gamma^{-1}(m); round-trips with jump_apply to ~1e-12."""
    m = np.atleast_1d(np.asarray(m, dtype=float))
    if j.affine is not None:
        c, b = j.affine
        return (m - b) / c
    if j.fn_inv is None:
        raise ConfigurationError("custom jump has no inverse")
    return np.asarray(j.fn_inv(m), dtype=float)


def jump_inverse_jacobian_logdet(j: JumpSpec, m):
    """log |det D gamma^{-1}(m)|; finite differences for custom specs."""
    m = np.atleast_1d(np.asarray(m, dtype=float))
    d = m.shape[-1]
    if j.affine is not None:
        # 0.0 - 0.0 keeps a translation's +0.0
        return np.full(m.shape[:-1], 0.0 - d * math.log(j.affine[0]))
    if j.fn_inv is None:
        raise ConfigurationError("custom jump has no inverse")
    flat = m.reshape(-1, d)
    out = np.empty(flat.shape[0])
    for i, mi in enumerate(flat):
        # each point's own step, so that its value does not depend on the
        # other points of the batch
        eps = 1e-6 * max(1.0, float(np.max(np.abs(mi))))
        J = np.empty((d, d))
        for k in range(d):
            e = np.zeros(d)
            e[k] = eps
            J[:, k] = (jump_inverse(j, mi + e) - jump_inverse(j, mi - e)) / (2 * eps)
        out[i] = math.log(abs(np.linalg.det(J)))
    return out.reshape(m.shape[:-1])


# ---------------------------------------------------------------------------
# initial law and baseline family


def _log_gauss_mass(a, b):
    """log(Phi(b) - Phi(a)) by the three branches of scipy.stats.truncnorm."""
    from scipy.special import log1p, log_ndtr, logsumexp, ndtr
    if b <= 0:
        return np.real(logsumexp([log_ndtr(b), log_ndtr(a) + np.pi * 1j]))
    if a > 0:
        return _log_gauss_mass(-b, -a)
    return log1p(-ndtr(a) - ndtr(-b))


@dataclass(frozen=True)
class InitialLaw:
    """Product law for (A_0, M_0): a named age law times per-dimension memory laws.

    age: ("exponential", rate > 0) or ("uniform", lo, hi), 0 <= lo < hi
    mem: tuple of per-dimension laws, each ("uniform", lo, hi), lo < hi, or
         ("truncnorm", mean, sd, lo, hi), sd > 0 and lo < hi
    Every parameter is finite.
    """

    age: tuple = ("exponential", 1.0)
    mem: tuple = (("uniform", -1.0, 0.0),)

    def __post_init__(self):
        age = self.age
        if not (((len(age) == 2 and age[0] == "exponential" and age[1] > 0)
                 or (len(age) == 3 and age[0] == "uniform" and 0 <= age[1] < age[2]))
                and all(map(math.isfinite, age[1:]))):
            raise ConfigurationError(
                f"age law {age} is not ('exponential', rate > 0) or "
                f"('uniform', lo, hi) with 0 <= lo < hi, all finite")
        for law in self.mem:
            if not (((len(law) == 3 and law[0] == "uniform" and law[1] < law[2])
                     or (len(law) == 5 and law[0] == "truncnorm" and law[2] > 0
                         and law[3] < law[4]))
                    and all(map(math.isfinite, law[1:]))):
                raise ConfigurationError(
                    f"memory law {law} is not ('uniform', lo, hi) with lo < hi "
                    f"or ('truncnorm', mean, sd, lo, hi) with sd > 0 and lo < hi, "
                    f"all finite")

    @property
    def d(self):
        return len(self.mem)

    def sample(self, rng, n):
        if self.age[0] == "exponential":
            ages = rng.exponential(1.0 / self.age[1], size=n)
        else:
            ages = rng.uniform(self.age[1], self.age[2], size=n)
        if any(law[0] == "truncnorm" for law in self.mem):
            from scipy.stats import truncnorm
        cols = []
        for law in self.mem:
            if law[0] == "uniform":
                cols.append(rng.uniform(law[1], law[2], size=n))
            else:
                mean, sd, lo, hi = law[1:]
                a, b = (lo - mean) / sd, (hi - mean) / sd
                cols.append(truncnorm.rvs(a, b, loc=mean, scale=sd, size=n, random_state=rng))
        return ages, np.stack(cols, axis=-1)

    def density_age(self, a):
        a = np.asarray(a, dtype=float)
        kind = self.age[0]
        if kind == "exponential":
            r = self.age[1]
            return np.where(a >= 0, r * np.exp(-r * np.maximum(a, 0.0)), 0.0)
        lo, hi = self.age[1], self.age[2]
        return np.where((a >= lo) & (a <= hi), 1.0 / (hi - lo), 0.0)

    def density_mem(self, m):
        m = np.atleast_1d(np.asarray(m, dtype=float))
        for k, law in enumerate(self.mem):
            mk = m[..., k]
            if law[0] == "uniform":
                lo, hi = law[1], law[2]
                fk = np.where((mk >= lo) & (mk <= hi), 1.0 / (hi - lo), 0.0)
            else:
                mean, sd, lo, hi = law[1:]
                a, b = (lo - mean) / sd, (hi - mean) / sd
                z = (mk - mean) / sd
                # scipy.stats.truncnorm.pdf's arithmetic, with the mass once,
                # at the nodes not outside the support (a NaN z among them)
                keep = ~((z < a) | (z > b))
                fk = np.zeros(z.shape)
                fk[keep] = np.exp(-z[keep]**2 / 2.0 - np.log(np.sqrt(2 * np.pi))
                                  - _log_gauss_mass(a, b)) / sd
            out = fk if k == 0 else out * fk
        return out

    def density(self, a, m):
        return self.density_age(a) * self.density_mem(m)

    def age_cutoff(self):
        """Age beyond which the initial age law carries less than 1e-12 mass."""
        if self.age[0] == "exponential":
            return -math.log(1e-12) / self.age[1]
        return self.age[2]

    def mem_mean(self):
        if any(law[0] == "truncnorm" for law in self.mem):
            from scipy.stats import truncnorm
        out = []
        for law in self.mem:
            if law[0] == "uniform":
                out.append(0.5 * (law[1] + law[2]))
            else:
                mean, sd, lo, hi = law[1:]
                a, b = (lo - mean) / sd, (hi - mean) / sd
                out.append(truncnorm.mean(a, b, loc=mean, scale=sd))
        return np.asarray(out)


@dataclass(frozen=True)
class BaselineSpec:
    """Family of i.i.d. baseline signals H_t(i).

    zero              : H_t(i) = 0
    constant-random   : H_t(i) = c_i with c_i ~ N(mean, std^2)
    exp-decay-from-M0 : H_t(i) = M_0(i) * exp(-Lambda t)   (d = 1 only)

    mean and std are finite, std >= 0, and both stay 0.0 unless the family
    is constant-random, the one family that reads them.
    """

    family: str = "zero"
    mean: float = 0.0
    std: float = 0.0

    def __post_init__(self):
        if self.family not in ("zero", "constant-random", "exp-decay-from-M0"):
            raise ConfigurationError(f"unknown baseline family {self.family!r}")
        if not (math.isfinite(self.mean) and 0.0 <= self.std < math.inf):
            raise ConfigurationError(
                "baseline needs a finite mean and a finite std >= 0")
        if self.family != "constant-random" and (self.mean, self.std) != (0.0, 0.0):
            raise ConfigurationError(f"baseline family {self.family!r} reads no "
                                     f"mean or std; leave them at 0.0")


# ---------------------------------------------------------------------------
# full model spec


def _encode(obj):
    """Dataclasses as dicts and tuples as lists, recursively.  A module
    function, not a closure: a closure that calls itself is a reference
    cycle, garbage that only the cyclic collector frees."""
    if dataclasses.is_dataclass(obj):
        d = {}
        for f_ in dataclasses.fields(obj):
            v = getattr(obj, f_.name)
            if callable(v) and v is not None:
                raise ConfigurationError("custom callables are not serializable")
            d[f_.name] = _encode(v)
        return d
    if isinstance(obj, tuple):
        return [_encode(v) for v in obj]
    return obj


@dataclass(frozen=True)
class ModelSpec:
    """Complete parametric description of one network model."""

    d: int = 1
    Lambda: tuple = (1.0,)
    psi: PsiParams = field(default_factory=PsiParams)
    f: IntensitySpec = field(default_factory=IntensitySpec)
    h: InteractionSpec = field(default_factory=InteractionSpec)
    jump: JumpSpec = field(default_factory=JumpSpec)
    init_law: InitialLaw = field(default_factory=InitialLaw)
    H: BaselineSpec = field(default_factory=BaselineSpec)

    def __post_init__(self):
        if self.d < 1 or len(self.Lambda) != self.d:
            raise ConfigurationError("Lambda must have length d >= 1")
        if any(l <= 0 for l in self.Lambda):
            raise ConfigurationError("decay rates must be positive")
        if self.init_law.d != self.d:
            raise ConfigurationError("init_law dimension mismatch")
        if self.f.family not in ("constant", "stp-composite") and len(self.f.c_m) != self.d:
            raise ConfigurationError("intensity c_m dimension mismatch")
        if self.H.family == "exp-decay-from-M0" and self.d != 1:
            raise ConfigurationError("exp-decay-from-M0 baseline requires d = 1")

    @property
    def lam(self):
        return np.asarray(self.Lambda, dtype=float)

    @property
    def f_max(self):
        return self.f.f_max

    @property
    def f_min(self):
        return self.f.f_min

    def intensity(self, a, m, x):
        return intensity_eval(self.f, self.psi, a, m, x)

    def scalar_intensity(self):
        """f at one state: _scalar_intensity's closure when d = 1, which
        takes the memory as its one coordinate; self.intensity on a (d,)
        memory otherwise, because its tensordot fixes the summation order."""
        if self.d == 1:
            return _scalar_intensity(self.f, self.psi)
        return self.intensity

    def scalar_modulation(self):
        """g(a, m) at one state as a python float: plain arithmetic on the
        memory's one coordinate when d = 1, modulation_eval on a (d,)
        memory otherwise."""
        h = self.h
        if self.d > 1:
            return lambda a, m: float(modulation_eval(h, a, m))
        if h.modulation == "none":
            return lambda a, m: 1.0
        if h.modulation == "linear-in-m":
            return lambda a, m: h.mod_intercept + h.mod_slope * m
        return lambda a, m: float(h.mod_fn(np.asarray(a), np.asarray([m])))

    def signal_trace(self, H_params):
        """The running shared signal of a run of len(H_params) neurons with
        the per-neuron baseline parameters H_params."""
        return SignalTrace(self, H_params)

    def interaction(self, t, a, m):
        return interaction_eval(self.h, t, a, m)

    def Hbar(self, t):
        """E[H_t], analytic per family."""
        t = np.asarray(t, dtype=float)
        if self.H.family == "zero":
            return np.zeros_like(t)
        if self.H.family == "constant-random":
            return np.full_like(t, self.H.mean)
        m0 = float(self.init_law.mem_mean()[0])
        return m0 * np.exp(-self.lam[0] * t)

    def sample_H_params(self, rng, n, mems0):
        """Per-neuron baseline parameters; mems0 is the matching M_0 draw."""
        if self.H.family == "zero":
            return np.zeros(n)
        if self.H.family == "constant-random":
            return self.H.mean + self.H.std * rng.standard_normal(n)
        return mems0[:, 0].copy()

    def H_emp_mean(self, params, t):
        """(1/N) sum_j H_t(j) given the per-neuron parameters."""
        if self.H.family == "exp-decay-from-M0":
            return float(np.mean(params)) * math.exp(-self.lam[0] * t)
        return float(np.mean(params))

    # -- serialization ------------------------------------------------------

    def to_dict(self):
        out = _encode(self)
        out["schema_version"] = SCHEMA_VERSION
        return out

    def to_json(self, **kw):
        return json.dumps(self.to_dict(), sort_keys=True, **kw)

    def spec_hash(self):
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    @staticmethod
    def from_dict(data):
        data = dict(data)
        version = data.pop("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigurationError(f"unsupported schema_version {version}")
        unknown = sorted(set(data) - {f_.name for f_ in dataclasses.fields(ModelSpec)})
        if unknown:
            raise ConfigurationError(f"unknown model fields {unknown}")

        def tup(x):
            return tuple(tup(v) if isinstance(v, list) else v for v in x)

        def part(key, build=lambda v: v):
            """build(data[key]); a missing or malformed field names itself."""
            try:
                return build(data[key])
            except KeyError as exc:
                name = key if exc.args[0] == key else f"{key}.{exc.args[0]}"
                raise ConfigurationError(f"model field {name} is missing") from None
            except TypeError as exc:
                raise ConfigurationError(f"model field {key}: {exc}") from None

        return ModelSpec(
            d=part("d"),
            Lambda=part("Lambda", tuple),
            psi=part("psi", lambda v: PsiParams(**v)),
            f=part("f", lambda v: IntensitySpec(**{**v, "c_m": tuple(v["c_m"])})),
            h=part("h", lambda v: InteractionSpec(**v)),
            jump=part("jump", lambda v: JumpSpec(**{
                **v, "alpha_vec": tuple(v["alpha_vec"]),
                "offset": None if v["offset"] is None else tuple(v["offset"])})),
            init_law=part("init_law", lambda v: InitialLaw(**{
                **v, "age": tup(v["age"]), "mem": tup(v["mem"])})),
            H=part("H", lambda v: BaselineSpec(**v)),
        )

    @staticmethod
    def from_json(text):
        return ModelSpec.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# numerical validation of the standing assumptions


@dataclass
class ValidationReport:
    sup_f: float
    sup_h: float
    sup_gamma_jump: float
    omega: float
    lip_f: float
    lip_h: float
    lip_gamma: float
    inverse_roundtrip: float
    passes: dict

    @property
    def all_pass(self):
        return all(self.passes.values())


def _sample_states(spec: ModelSpec, rng, n):
    a = rng.exponential(2.0 * spec.psi.K / spec.psi.kappa, size=n)
    lo, hi = memory_box(spec)
    m = rng.uniform(lo, hi, size=(n, spec.d))
    x = rng.normal(0.0, 2.0, size=n)
    return a, m, x


def memory_box(spec: ModelSpec):
    """A box that the memory dynamics keep (approximately) invariant."""
    j = spec.jump
    d = spec.d
    if j.family == "affine-contraction":
        off = j.affine[1]
        lo = np.minimum(0.0, off / j.alpha)
        hi = np.maximum(0.0, off / j.alpha)
        pad = 0.05 * (hi - lo + 1.0)
        return lo - pad, hi + pad
    if j.family == "translation":
        av = np.asarray(j.alpha_vec, dtype=float)
        span = 3.0 * (np.abs(av) + 1.0)
        lo = np.minimum(-span, 5.0 * np.minimum(av, 0.0))
        hi = np.maximum(span, 5.0 * np.maximum(av, 0.0))
        return lo, hi
    return np.full(d, -5.0), np.full(d, 5.0)


def validate_assumptions(spec: ModelSpec, n_samples: int = 10_000, seed: int = 0):
    """Sampled check of boundedness, Lipschitz bounds, the 1-Lipschitz jump
    mapping and its invertibility.  Failures land in the report, not in
    exceptions."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    a1, m1, x1 = _sample_states(spec, rng, n_samples)
    a2, m2, x2 = _sample_states(spec, rng, n_samples)

    f1 = spec.intensity(a1, m1, x1)
    f2 = spec.intensity(a2, m2, x2)
    t1 = rng.uniform(0.0, 10.0, n_samples)
    t2 = rng.uniform(0.0, 10.0, n_samples)
    h1 = spec.interaction(t1, a1, m1)
    h2 = spec.interaction(t2, a2, m2)

    p1 = psi_eval(a1, spec.psi)
    p2 = psi_eval(a2, spec.psi)
    dm = np.sum(np.abs(m1 - m2), axis=-1)
    den_f = np.abs(p1 - p2) + dm + np.abs(x1 - x2)
    den_h = np.abs(t1 - t2) + np.abs(p1 - p2) + dm
    with np.errstate(invalid="ignore", divide="ignore"):
        lip_f = float(np.nanmax(np.where(den_f > 1e-12, np.abs(f1 - f2) / den_f, 0.0)))
        lip_h = float(np.nanmax(np.where(den_h > 1e-12, np.abs(h1 - h2) / den_h, 0.0)))
        g1 = jump_apply(spec.jump, m1)
        g2 = jump_apply(spec.jump, m2)
        lip_g = float(
            np.nanmax(np.where(dm > 1e-12, np.sum(np.abs(g1 - g2), axis=-1) / dm, 0.0))
        )

    try:
        rt = float(np.max(np.abs(jump_apply(spec.jump, jump_inverse(spec.jump, m1)) - m1)))
        invertible = rt < 1e-9
    except ConfigurationError:
        rt = math.inf
        invertible = False

    sup_gamma = float(np.max(np.sum(np.abs(g1 - m1), axis=-1)))
    report = ValidationReport(
        sup_f=float(np.max(f1)),
        sup_h=float(np.max(np.abs(h1))),
        sup_gamma_jump=sup_gamma,
        omega=float(np.min(np.concatenate([f1, f2]))),
        lip_f=lip_f,
        lip_h=lip_h,
        lip_gamma=lip_g,
        inverse_roundtrip=rt,
        passes={
            "bounded": bool(
                np.isfinite(sup_gamma)
                and np.max(f1) <= spec.f_max + 1e-12
                and np.isfinite(np.max(np.abs(h1)))
            ),
            "lipschitz_f": math.isfinite(lip_f),
            "lipschitz_h": math.isfinite(lip_h),
            "lower_bound": bool(np.min(f1) >= spec.f_min - 1e-12 and spec.f_min > 0),
            "gamma_1_lipschitz": lip_g <= 1.0 + 1e-9,
            "gamma_diffeomorphism": invertible,
        },
    )
    return report


# ---------------------------------------------------------------------------
# artifact tables and records


def write_csv(path, header, rows):
    """Writes an artifact table: the header row, then one row per item of
    rows.  An int or np.integer cell is written as it is, and every other
    cell as repr(float(v)), the shortest decimal that reads back to the same
    float64."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([v if isinstance(v, (int, np.integer)) else repr(float(v))
                     for v in row] for row in rows)


def _json_default(v):
    if isinstance(v, (np.ndarray, np.generic)):
        return v.tolist()
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def write_json(path, obj):
    """Writes an artifact record: json.dumps(obj, indent=2, sort_keys=True).
    A numpy array or scalar is written as its tolist() value; an np.float64
    is a float, written as its repr like every other float."""
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True, default=_json_default))
