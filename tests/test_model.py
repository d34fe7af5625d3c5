"""Model families and assumption validators."""

import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from almsim import model as mdl


# ---------------------------------------------------------------------------
# psi


def test_psi_at_zero_vanishes():
    for K, kappa in [(1.0, 1.0), (3.0, 0.5), (0.2, 7.0)]:
        assert mdl.psi_eval(0.0, mdl.PsiParams(K=K, kappa=kappa)) == 0.0


def test_psi_saturates_at_K():
    p = mdl.PsiParams(K=3.0, kappa=1.0)
    assert abs(mdl.psi_eval(1e4, p) - 3.0) < 1e-12
    a = np.linspace(0.0, 50.0, 500)
    vals = mdl.psi_eval(a, p)
    assert np.all(np.diff(vals) > 0)
    assert np.all(vals < 3.0)


def test_psi_closed_form_value():
    # K = 2, kappa = 1, a = 2 -> 2 (1 - e^{-1})
    val = mdl.psi_eval(2.0, mdl.PsiParams(K=2.0, kappa=1.0))
    assert abs(val - 2.0 * (1.0 - math.exp(-1.0))) < 1e-14


def test_psi_rejects_negative_age():
    with pytest.raises(ValueError):
        mdl.psi_eval(-0.1, mdl.PsiParams())


def test_psi_prime_identity_on_random_pairs(rng):
    # |psi'(a) - psi'(a*)| = (kappa / K) |psi(a) - psi(a*)| exactly
    p = mdl.PsiParams(K=1.7, kappa=0.9)
    a1 = rng.exponential(2.0, 1000)
    a2 = rng.exponential(2.0, 1000)
    lhs = np.abs(mdl.psi_prime(a1, p) - mdl.psi_prime(a2, p))
    rhs = (p.kappa / p.K) * np.abs(mdl.psi_eval(a1, p) - mdl.psi_eval(a2, p))
    assert np.max(np.abs(lhs - rhs)) < 1e-10


# ---------------------------------------------------------------------------
# intensity


def test_constant_intensity_is_constant():
    f = mdl.IntensitySpec(family="constant", f_min=0.8, f_max=0.8)
    p = mdl.PsiParams()
    vals = mdl.intensity_eval(f, p, np.linspace(0, 9, 7),
                              np.linspace(-2, 2, 7)[:, None], 1.3)
    assert np.all(vals == 0.8)


def test_sigmoid_affine_midpoint():
    f = mdl.IntensitySpec(family="sigmoid-affine", f_min=0.2, f_max=1.0,
                          c_a=0.0, c_x=0.0, c_m=(0.0,), b=0.0)
    val = mdl.intensity_eval(f, mdl.PsiParams(), 1.0, np.array([0.3]), -2.0)
    assert abs(val - 0.6) < 1e-14


def test_sigmoid_affine_frozen_value():
    # f_min 0.1, span 1.0, x = ln 3 -> 0.1 + 1.0 * 3/4 = 0.85
    f = mdl.IntensitySpec(family="sigmoid-affine", f_min=0.1, f_max=1.1,
                          c_a=0.0, c_x=1.0, c_m=(0.0,), b=0.0)
    val = mdl.intensity_eval(f, mdl.PsiParams(), 0.0, np.array([0.0]),
                             math.log(3.0))
    assert abs(val - 0.85) < 1e-12


def test_sigmoid_bits_match_masked_formula():
    # the mask-free logistic gives the bits of the two-branch masked form,
    # including +-0, +-inf, NaN of either sign and the exp over/underflow range
    def masked(u):
        out = np.empty_like(u, dtype=float)
        pos = u >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
        eu = np.exp(u[~pos])
        out[~pos] = eu / (1.0 + eu)
        return out

    edge = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324,
                     -5e-324, 1e-300, -1e-300, 1.0, -1.0, 36.8, -36.8, 709.8,
                     -709.8, 745.2, -745.2, 1e308, -1e308])
    u = np.concatenate([edge, np.random.default_rng(3).normal(0.0, 30.0, 5000)])
    assert np.array_equal(mdl._sigmoid(u).view(np.uint64),
                          masked(u).view(np.uint64))
    for v in edge:
        got, ref = mdl._sigmoid(np.asarray(v)), masked(np.asarray(v))
        assert got.shape == () and got.view(np.uint64) == ref.view(np.uint64)


@pytest.mark.parametrize("family", ["sigmoid-affine", "exp-saturating",
                                    "stp-composite"])
def test_intensity_bounds_hold_everywhere(family, rng):
    f = mdl.IntensitySpec(family=family, f_min=0.15, f_max=2.5,
                          c_a=1.2, c_x=-0.8, c_m=(2.0,), b=0.4)
    p = mdl.PsiParams(K=1.0, kappa=2.0)
    n = 100_000
    a = rng.exponential(3.0, n)
    m = rng.normal(0.0, 5.0, (n, 1))
    x = rng.normal(0.0, 5.0, n)
    vals = mdl.intensity_eval(f, p, a, m, x)
    assert np.all(vals >= 0.15 - 1e-12)
    assert np.all(vals <= 2.5 + 1e-12)


def _intensity_full_form(f, p, a, m, x):
    """f(a, m, x) with the age term always on the full (age, memory) shape,
    0 * psi(a) included when c_a is 0."""
    a = np.asarray(a, dtype=float)
    m = np.atleast_1d(np.asarray(m, dtype=float))
    x = np.asarray(x, dtype=float)
    if f.family == "constant":
        return np.full(np.broadcast_shapes(a.shape, m.shape[:-1], x.shape),
                       f.f_min)
    if f.family == "stp-composite":
        u = f.c_x * (x + (-f.psi_amp) * np.exp(-f.psi_rate * a)) + f.b
        return f.f_min + (f.f_max - f.f_min) * mdl._sigmoid(np.asarray(u))
    u = f.c_a * mdl.psi_eval(a, p) + np.tensordot(
        m, np.asarray(f.c_m, dtype=float), axes=([-1], [0]))
    u = np.asarray(u + f.c_x * x + f.b, dtype=float)
    if f.family == "sigmoid-affine":
        g = mdl._sigmoid(u)
    else:
        g = -np.expm1(-np.logaddexp(0.0, u))
    return f.f_min + (f.f_max - f.f_min) * g


def _intensity_inputs(d, rng):
    """0-d, (n,) and (age, memory) grid arguments in memory dimension d."""
    na, nm = 31, 17
    grid_m = np.stack(np.meshgrid(*[np.linspace(-2.0, 1.0, nm)] * d,
                                  indexing="ij"), axis=-1)
    return [
        (1.3, rng.normal(size=d), 0.4),
        (0.0, rng.normal(size=d), np.float64(-0.2)),
        (rng.exponential(2.0, 9), rng.normal(size=(9, d)), 0.7),
        (rng.exponential(2.0, 9), rng.normal(size=(9, d)), rng.normal(size=9)),
        (np.linspace(0.0, 12.0, na).reshape((na,) + (1,) * d), grid_m, -0.3),
        (0.0, grid_m, 1.1),
    ]


@pytest.mark.parametrize("c_a", [0.0, 0.7])
@pytest.mark.parametrize("family", ["constant", "sigmoid-affine",
                                    "exp-saturating", "stp-composite"])
@pytest.mark.parametrize("d", [1, 2])
def test_intensity_compact_path_matches_full_form(family, c_a, d, rng):
    # with c_a = 0 the age term is skipped, and the result is broadcast back
    # to the full shape: same shape, same bits, writable
    f_min = 1.2 if family == "constant" else 0.3
    f = mdl.IntensitySpec(family=family, f_min=f_min, f_max=1.2, c_a=c_a,
                          c_x=0.9, c_m=(0.8, -0.5)[:d], b=0.1)
    p = mdl.PsiParams(K=1.5, kappa=0.8)
    for a, m, x in _intensity_inputs(d, rng):
        got = mdl.intensity_eval(f, p, a, m, x)
        ref = _intensity_full_form(f, p, a, m, x)
        assert np.shape(got) == np.shape(ref)
        assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()
        if np.ndim(got) > 0:
            assert got.flags.writeable


@pytest.mark.parametrize("family", ["sigmoid-affine", "exp-saturating"])
def test_intensity_without_age_term_rejects_negative_age(family):
    f = mdl.IntensitySpec(family=family, f_min=0.3, f_max=1.2, c_a=0.0,
                          c_m=(0.5,))
    p = mdl.PsiParams()
    with pytest.raises(ValueError):
        mdl.intensity_eval(f, p, -0.1, np.array([0.0]), 0.0)
    with pytest.raises(ValueError):
        mdl.intensity_eval(f, p, np.array([0.5, -1e-300]), np.zeros((2, 1)), 0.0)


def test_age_free_predicate():
    # the one rule for "f ignores age", shared by intensity_eval's compact
    # path, the march's one-row intensity and solve_lm_pde's check
    def spec(family, c_a):
        f_min = 1.0 if family == "constant" else 0.3
        return mdl.IntensitySpec(family=family, f_min=f_min, f_max=1.0, c_a=c_a)

    assert spec("constant", 0.0).age_free and spec("constant", 0.7).age_free
    for family in ("sigmoid-affine", "exp-saturating"):
        assert spec(family, 0.0).age_free
        assert not spec(family, 0.7).age_free
    assert not spec("stp-composite", 0.0).age_free


def test_memory_free_predicate():
    # the rule for "f ignores memory", behind the march's one-node intensity
    # and density_on_grid's check; f at two memories agrees exactly when the
    # predicate holds
    p = mdl.PsiParams(K=1.0, kappa=1.0)
    m = np.array([[-0.8, 0.3], [0.5, -1.2]])

    def check(f, free):
        assert f.memory_free == free
        vals = mdl.intensity_eval(f, p, np.full(2, 0.4), m[:, :len(f.c_m)],
                                  0.2)
        assert (vals[0] == vals[1]) == free

    check(mdl.IntensitySpec(family="constant", f_min=1.0, f_max=1.0,
                            c_m=(0.5,)), True)
    check(mdl.IntensitySpec(family="stp-composite", f_min=0.3, f_max=1.0,
                            c_x=1.0, c_m=(0.5,)), True)
    for family in ("sigmoid-affine", "exp-saturating"):
        for c_m, free in (((0.0,), True), ((0.0, 0.0), True),
                          ((0.7,), False), ((0.0, -0.4), False)):
            check(mdl.IntensitySpec(family=family, f_min=0.3, f_max=1.0,
                                    c_a=0.7, c_m=c_m), free)


def test_intensity_spec_rejects_bad_bounds():
    with pytest.raises(mdl.ConfigurationError):
        mdl.IntensitySpec(family="sigmoid-affine", f_min=0.0, f_max=1.0)
    with pytest.raises(mdl.ConfigurationError):
        mdl.IntensitySpec(family="constant", f_min=0.5, f_max=1.0)


_FAMILIES = ("constant", "sigmoid-affine", "exp-saturating", "stp-composite")


def _d1_spec(family, c_a=0.0, c_m=0.8, c_x=1.3, b=-0.4):
    f_min, f_max = (0.7, 0.7) if family == "constant" else (0.2, 2.0)
    return mdl.ModelSpec(
        psi=mdl.PsiParams(K=1.7, kappa=0.6),
        f=mdl.IntensitySpec(family=family, f_min=f_min, f_max=f_max, c_a=c_a,
                            c_x=c_x, c_m=(c_m,), b=b, psi_amp=1.1,
                            psi_rate=0.9))


def _same_bits(got, want):
    got, want = float(got), float(want)
    return got == want or (math.isnan(got) and math.isnan(want))


# memories and signals reaching |u| > 500 on both sides, and NaN
_state = st.one_of(st.floats(-1e4, 1e4), st.sampled_from([-600.0, 600.0, math.nan]))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@given(family=st.sampled_from(_FAMILIES), c_a=st.sampled_from([0.0, 0.7]),
       c_m=st.floats(-3.0, 3.0), c_x=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0),
       a=st.floats(0.0, 60.0), m=_state, x=_state, numpy_in=st.booleans())
@settings(max_examples=600, deadline=None)
def test_scalar_intensity_same_bits_as_intensity_eval(family, c_a, c_m, c_x, b,
                                                      a, m, x, numpy_in):
    spec = _d1_spec(family, c_a, c_m, c_x, b)
    want = spec.intensity(a, np.array([m]), x)
    if numpy_in:
        a, x = np.float64(a), np.float64(x)
    assert _same_bits(spec.scalar_intensity()(a, np.float64(m), x), want)


@pytest.mark.parametrize("family", _FAMILIES)
@pytest.mark.parametrize("c_a", [0.0, 0.7])
def test_scalar_intensity_same_bits_on_many_states(family, c_a):
    # a dense sweep: math.exp, for one, differs from np.exp on about 5 % of
    # arguments, too rarely for the property test alone to see
    spec = _d1_spec(family, c_a)
    f = spec.scalar_intensity()
    rng = np.random.default_rng(11)
    for a, m, x in zip(rng.exponential(2.0, 1000), rng.normal(0.0, 3.0, 1000),
                       rng.normal(0.0, 0.3, 1000)):
        assert _same_bits(f(a, m, x), spec.intensity(a, np.array([m]), x))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("family", _FAMILIES)
@pytest.mark.parametrize("c_a", [0.0, 0.7])
@pytest.mark.parametrize("m, x", [(600.0, 0.0), (-600.0, 0.0), (0.0, 900.0),
                                  (0.0, -900.0), (math.nan, 0.2),
                                  (0.3, math.nan), (-0.0, -0.0)])
def test_scalar_intensity_edge_states(family, c_a, m, x):
    spec = _d1_spec(family, c_a, c_m=1.0, c_x=1.0, b=0.0)
    for a in (0.0, 0.4, 30.0):
        want = spec.intensity(a, np.array([m]), x)
        assert _same_bits(spec.scalar_intensity()(a, np.float64(m), x), want)


@pytest.mark.parametrize("family", _FAMILIES)
@pytest.mark.parametrize("c_a", [0.0, 0.7])
def test_scalar_intensity_negative_age_raises_as_intensity_eval(family, c_a):
    spec = _d1_spec(family, c_a)
    f = spec.scalar_intensity()
    try:
        want = spec.intensity(-0.25, np.array([0.3]), 0.1)
    except ValueError:
        with pytest.raises(ValueError, match="age must be nonnegative"):
            f(-0.25, np.float64(0.3), 0.1)
    else:
        # constant and stp-composite never checked the age
        assert family in ("constant", "stp-composite")
        assert _same_bits(f(-0.25, np.float64(0.3), 0.1), want)
    if family in ("sigmoid-affine", "exp-saturating"):
        with pytest.raises(ValueError):
            f(-1e-300, np.float64(0.3), 0.1)


def test_scalar_intensity_d2_is_intensity_eval():
    spec = mdl.ModelSpec(
        d=2, Lambda=(1.0, 0.5),
        f=mdl.IntensitySpec(family="sigmoid-affine", f_min=0.2, f_max=2.0,
                            c_a=0.7, c_x=1.1, c_m=(0.6, -1.3), b=0.2),
        init_law=mdl.InitialLaw(mem=(("uniform", -1.0, 0.0),) * 2))
    f = spec.scalar_intensity()
    assert f == spec.intensity
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, x = rng.uniform(0.0, 5.0), rng.normal()
        m = rng.normal(0.0, 2.0, 2)
        want = mdl.intensity_eval(spec.f, spec.psi, a, m, x)
        assert f(a, m, x).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# interaction


def test_kernel_values():
    h = mdl.InteractionSpec(kernel="exponential", tau=2.0, J=1.0)
    assert abs(mdl.kernel_eval(h, 2.0) - math.exp(-1.0)) < 1e-14
    assert mdl.kernel_eval(h, -0.5) == 0.0
    he = mdl.InteractionSpec(kernel="erlang", tau=1.0, J=1.0)
    assert abs(mdl.kernel_eval(he, 1.0) - math.exp(-1.0)) < 1e-14
    assert mdl.kernel_eval(he, 0.0) == 0.0
    hb = mdl.InteractionSpec(kernel="finite-support-smooth", tau=1.5, J=1.0)
    assert mdl.kernel_eval(hb, 1.5) == 0.0
    assert mdl.kernel_eval(hb, 0.0) == pytest.approx(1.0)


def test_modulation_linear_in_m():
    h = mdl.InteractionSpec(kernel="exponential", tau=1.0, J=2.0,
                            modulation="linear-in-m",
                            mod_intercept=1.0, mod_slope=-1.0)
    val = mdl.interaction_eval(h, 0.0, 0.0, np.array([0.25]))
    assert abs(val - 2.0 * 0.75) < 1e-14


def test_kernel_horizon_bounds_tail():
    for kernel in ("exponential", "erlang", "finite-support-smooth"):
        h = mdl.InteractionSpec(kernel=kernel, tau=0.7, J=1.3)
        hor = mdl.kernel_horizon(h, atol=1e-12)
        t = hor + np.linspace(0.0, 10.0, 50)
        assert np.all(np.abs(h.J * mdl.kernel_eval(h, t)) <= 1e-12)


# ---------------------------------------------------------------------------
# jumps


def test_translation_jump_values():
    j = mdl.JumpSpec(family="translation", alpha_vec=(0.0,))
    m = np.array([0.7])
    assert np.allclose(mdl.jump_apply(j, m), m)
    j2 = mdl.JumpSpec(family="translation", alpha_vec=(-0.3,))
    assert np.allclose(mdl.jump_apply(j2, np.array([0.5])), [0.2])
    assert np.allclose(mdl.jump_inverse(j2, np.array([0.2])), [0.5])
    assert mdl.jump_inverse_jacobian_logdet(j2, np.array([[0.4]]))[0] == 0.0


def test_affine_contraction_frozen_values():
    # gamma(m') = alpha + (1 - alpha) m' with the default offset
    j = mdl.JumpSpec(family="affine-contraction", alpha=0.25)
    assert abs(float(mdl.jump_apply(j, np.array([0.4]))[0]) - 0.55) < 1e-14
    assert np.allclose(mdl.jump_inverse(j, np.array([0.55])), [0.4])
    j2 = mdl.JumpSpec(family="affine-contraction", alpha=0.5)
    logdet = float(mdl.jump_inverse_jacobian_logdet(j2, np.zeros((1, 1)))[0])
    assert abs(logdet - math.log(2.0)) < 1e-12


def test_jump_roundtrip_on_random_points(rng):
    m = rng.normal(0.0, 2.0, (100, 2))
    for j in [mdl.JumpSpec(family="translation", alpha_vec=(-0.4, 0.2)),
              mdl.JumpSpec(family="affine-contraction", alpha=0.3,
                           offset=(0.1, -0.2))]:
        back = mdl.jump_inverse(j, mdl.jump_apply(j, m))
        assert np.max(np.abs(back - m)) < 1e-12


def test_custom_jump_fd_jacobian_matches_analytic():
    # gamma(m) = m - 0.5 tanh(m): strictly increasing in 1-d
    fn = lambda m: m - 0.5 * np.tanh(m)

    def fn_inv(m):
        out = np.asarray(m, dtype=float).copy()
        for _ in range(80):
            out = out - (fn(out) - m) / (1.0 - 0.5 / np.cosh(out) ** 2)
        return out

    j = mdl.JumpSpec(family="custom", fn=fn, fn_inv=fn_inv)
    pts = np.linspace(-1.5, 1.5, 9)[:, None]
    fd = mdl.jump_inverse_jacobian_logdet(j, pts)
    inv = mdl.jump_inverse(j, pts)
    analytic = -np.log(1.0 - 0.5 / np.cosh(inv[:, 0]) ** 2)
    assert np.max(np.abs(fd - analytic)) < 1e-6


def test_affine_default_offset_same_bits_as_explicit():
    # d = 2: an affine contraction without an offset is the one with offset
    # (alpha, alpha), to the bit, in every route that applies the jump
    from almsim import particle, pathint, pde
    from almsim.limit import XPath

    def spec(offset):
        return mdl.ModelSpec(
            d=2, Lambda=(1.0, 0.5),
            f=mdl.IntensitySpec(family="sigmoid-affine", f_min=0.3, f_max=2.0,
                                c_a=0.5, c_x=0.8, c_m=(0.7, -0.4), b=0.1),
            h=mdl.InteractionSpec(kernel="exponential", tau=0.4, J=0.9,
                                  modulation="none"),
            jump=mdl.JumpSpec(family="affine-contraction", alpha=0.3,
                              offset=offset),
            init_law=mdl.InitialLaw(age=("exponential", 1.0),
                                    mem=(("uniform", -1.0, 0.0),
                                         ("uniform", 0.0, 0.5))),
        )

    s0, s1 = spec(None), spec((0.3, 0.3))
    m = np.random.default_rng(5).normal(0.0, 1.0, (7, 2))
    for fn in (mdl.jump_apply, mdl.jump_inverse):
        assert fn(s0.jump, m).tobytes() == fn(s1.jump, m).tobytes()
    nodes = [np.linspace(-1.5, 0.5, 21), np.linspace(-0.5, 1.0, 17)]
    tabs = [pde._remap_tables(s, nodes, s.lam, 0.1)[1] for s in (s0, s1)]
    for t0, t1 in zip(*tabs):
        for name in ("idx", "w_m", "w_0", "w_1"):
            assert getattr(t0, name).tobytes() == getattr(t1, name).tobytes()
        assert all(np.array_equal(e0, e1) for e0, e1 in zip(t0.ends, t1.ends))
    recs = [particle.simulate_network(s, 6, 2.0, 3, save_times=(1.0, 2.0))
            for s in (s0, s1)]
    assert len(recs[0].events) == len(recs[1].events) > 5
    for e0, e1 in zip(recs[0].events, recs[1].events):
        assert (e0.time, e0.neuron, e0.age_before) == (e1.time, e1.neuron,
                                                       e1.age_before)
        assert e0.memory_before.tobytes() == e1.memory_before.tobytes()
    for p0, p1 in zip(recs[0].snapshots, recs[1].snapshots):
        assert p0.memories.tobytes() == p1.memories.tobytes()
    x = XPath(np.array([0.0, 1.0]), np.array([0.1, 0.4]))
    cfg = pathint.PathIntegralConfig(K_max=2, gl_orders={1: 6, 2: 3}, seed=1)
    vals = [pathint.density_at(0.6, 0.1, np.array([0.2, 0.35]), s.init_law,
                               x, cfg, s) for s in (s0, s1)]
    assert vals[0] == vals[1] and vals[0][0] > 0.0


_JUMP_FIELDS = {"family", "alpha_vec", "alpha", "offset", "offset_vec"}


def _is_jump(node, names):
    return ((isinstance(node, ast.Attribute) and node.attr == "jump")
            or (isinstance(node, ast.Name) and node.id in names))


def test_only_model_reads_jump_families():
    # outside model.py, jump arithmetic goes through JumpSpec.affine and the
    # jump_* functions.  Flags reads such as spec.jump.family, and j.alpha
    # where the module binds j to a .jump attribute or annotates it JumpSpec.
    bad = []
    for path in sorted(Path(mdl.__file__).parent.glob("*.py")):
        if path.name == "model.py":
            continue
        tree = ast.parse(path.read_text())
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and _is_jump(node.value, ()):
                names.update(t.id for t in node.targets
                             if isinstance(t, ast.Name))
            elif isinstance(node, ast.arg) and node.annotation is not None \
                    and "JumpSpec" in ast.unparse(node.annotation):
                names.add(node.arg)
        bad += [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and node.attr in _JUMP_FIELDS and _is_jump(node.value, names)]
    assert not bad


_INTENSITY_FIELDS = {"family", "c_a", "c_m", "c_x", "b", "psi_amp", "psi_rate"}


def _intensity_field_reads(source, exempt_function=None):
    """Reads of an IntensitySpec's family or coefficients in source: of
    spec.f, of a name bound to a .f attribute, or of an argument annotated
    IntensitySpec, outside the function named exempt_function."""
    tree = ast.parse(source)
    skip = {id(n) for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == exempt_function
            for n in ast.walk(fn)}
    nodes = [n for n in ast.walk(tree) if id(n) not in skip]
    names = set()

    def is_intensity(node):
        return ((isinstance(node, ast.Attribute) and node.attr == "f")
                or (isinstance(node, ast.Name) and node.id in names))

    for node in nodes:
        if isinstance(node, ast.Assign) and is_intensity(node.value):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.arg) and node.annotation is not None \
                and "IntensitySpec" in ast.unparse(node.annotation):
            names.add(node.arg)
    return [f"{node.lineno}: {ast.unparse(node)}" for node in nodes
            if isinstance(node, ast.Attribute)
            and node.attr in _INTENSITY_FIELDS and is_intensity(node.value)]


def test_only_model_reads_intensity_families():
    # outside model.py, intensity arithmetic goes through intensity_eval,
    # ModelSpec.scalar_intensity and the age_free / memory_free predicates;
    # particle.make_scalar_intensity keeps its own, because its event streams
    # are pinned
    assert sorted(_intensity_field_reads(
        "def g(spec, fs: mdl.IntensitySpec):\n    f = spec.f\n"
        "    return spec.f.c_a + f.family + fs.b\n")) == [
            "3: f.family", "3: fs.b", "3: spec.f.c_a"]
    bad = []
    for path in sorted(Path(mdl.__file__).parent.glob("*.py")):
        if path.name != "model.py":
            bad += [f"{path.name}:{r}" for r in _intensity_field_reads(
                path.read_text(), "make_scalar_intensity"
                if path.name == "particle.py" else None)]
    assert not bad


@given(alpha=st.floats(0.01, 0.99), m=st.floats(-5.0, 5.0))
@settings(max_examples=200, deadline=None)
def test_affine_contraction_is_strict_contraction(alpha, m):
    j = mdl.JumpSpec(family="affine-contraction", alpha=alpha)
    a = mdl.jump_apply(j, np.array([m]))
    b = mdl.jump_apply(j, np.array([m + 1.0]))
    assert abs(float(b[0] - a[0])) <= (1.0 - alpha) + 1e-12


# ---------------------------------------------------------------------------
# initial law and baseline


def test_initial_law_densities_normalize():
    law = mdl.InitialLaw(age=("exponential", 2.0),
                         mem=(("truncnorm", 0.3, 0.15, 0.0, 1.0),))
    a = np.linspace(0.0, 40.0, 20001)
    assert abs(np.trapezoid(law.density_age(a), a) - 1.0) < 5e-6
    m = np.linspace(0.0, 1.0, 2001)[:, None]
    assert abs(np.trapezoid(law.density_mem(m), m[:, 0]) - 1.0) < 1e-6


# one law per branch of the truncated normal's log-mass: central (stp's law),
# left (hi <= mean) and right (lo > mean)
_TRUNCNORM_LAWS = {
    "central": ("truncnorm", 0.3, 0.15, 0.0, 1.0),
    "left": ("truncnorm", 0.2, 0.4, -1.2, 0.2),
    "right": ("truncnorm", -0.5, 0.3, 0.1, 1.4),
}


@pytest.mark.parametrize("case", sorted(_TRUNCNORM_LAWS))
def test_density_mem_same_bits_as_truncnorm_pdf(case):
    from scipy.stats import truncnorm

    law = _TRUNCNORM_LAWS[case]
    mean, sd, lo, hi = law[1:]
    u0 = mdl.InitialLaw(mem=(law,))

    def pdf(m):
        return truncnorm.pdf(m, (lo - mean) / sd, (hi - mean) / sd,
                             loc=mean, scale=sd)

    # scipy tests the support on (m - mean)/sd, where a memory one ulp
    # outside [lo, hi] can round onto the bound and keep a positive density
    pts = np.array([lo, hi, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf),
                    np.nan, 0.5 * (lo + hi), lo - 0.1, hi + 0.1])
    got = u0.density_mem(pts[:, None])
    np.testing.assert_array_equal(got, pdf(pts))
    assert got[0] > 0.0 and got[1] > 0.0 and got[6] == got[7] == 0.0
    assert np.isnan(got[4])
    for v in pts:
        np.testing.assert_array_equal(u0.density_mem(np.array(v)), pdf(v))
    m = np.random.default_rng(5).uniform(lo - 0.3, hi + 0.3, size=(7, 601))
    np.testing.assert_array_equal(u0.density_mem(m[..., None]), pdf(m))


@pytest.mark.parametrize("law", [
    ("truncnorm", 0.0, 1.0, 1.0, 0.0),     # lo > hi
    ("truncnorm", 0.0, 1.0, 0.5, 0.5),     # lo == hi
    ("truncnorm", 0.0, -1.0, -1.0, 1.0),   # negative sd
    ("truncnorm", 0.0, 0.0, -1.0, 1.0),    # zero sd
])
def test_degenerate_truncnorm_density_rejected(law):
    with pytest.raises(mdl.ConfigurationError):
        mdl.InitialLaw(mem=(law,)).density_mem(np.array([[0.5]]))


def test_initial_law_sampling_matches_density(rng):
    law = mdl.InitialLaw(age=("uniform", 0.5, 2.5),
                         mem=(("uniform", -1.0, 0.0),))
    ages, mems = law.sample(rng, 50_000)
    assert ages.min() >= 0.5 and ages.max() <= 2.5
    assert abs(ages.mean() - 1.5) < 0.02
    assert abs(mems.mean() + 0.5) < 0.02


def test_baseline_families():
    assert float(mdl.ModelSpec().Hbar(3.0)) == 0.0
    spec = mdl.ModelSpec(H=mdl.BaselineSpec(family="constant-random",
                                            mean=0.4, std=0.1))
    assert float(spec.Hbar(2.0)) == pytest.approx(0.4)
    spec2 = mdl.ModelSpec(H=mdl.BaselineSpec(family="exp-decay-from-M0"))
    m0 = float(spec2.init_law.mem_mean()[0])
    assert float(spec2.Hbar(1.0)) == pytest.approx(m0 * math.exp(-1.0))


# ---------------------------------------------------------------------------
# ModelSpec serialization


def test_spec_json_roundtrip(interacting_spec):
    text = interacting_spec.to_json()
    back = mdl.ModelSpec.from_json(text)
    assert back == interacting_spec
    assert back.spec_hash() == interacting_spec.spec_hash()


def test_spec_dimension_validation():
    with pytest.raises(mdl.ConfigurationError):
        mdl.ModelSpec(d=2, Lambda=(1.0,))
    with pytest.raises(mdl.ConfigurationError):
        mdl.ModelSpec(d=1, Lambda=(-1.0,))


# ---------------------------------------------------------------------------
# assumption validation


def test_validate_constant_model_all_pass(constant_rate_spec):
    rep = mdl.validate_assumptions(constant_rate_spec, n_samples=2000, seed=3)
    assert rep.all_pass
    assert rep.lip_f == 0.0
    assert rep.lip_h == 0.0
    assert rep.omega == pytest.approx(1.0)


def test_validate_affine_contraction_ratio():
    spec = mdl.ModelSpec(
        jump=mdl.JumpSpec(family="affine-contraction", alpha=0.2),
        init_law=mdl.InitialLaw(age=("exponential", 1.0),
                                mem=(("uniform", 0.0, 1.0),)),
    )
    rep = mdl.validate_assumptions(spec, n_samples=5000, seed=1)
    assert rep.passes["gamma_1_lipschitz"]
    assert rep.lip_gamma == pytest.approx(0.8, abs=1e-9)


def test_validate_expanding_jump_fails():
    spec = mdl.ModelSpec(jump=mdl.JumpSpec(family="custom",
                                           fn=lambda m: 2.0 * m,
                                           fn_inv=lambda m: 0.5 * m))
    rep = mdl.validate_assumptions(spec, n_samples=5000, seed=1)
    assert not rep.passes["gamma_1_lipschitz"]
    assert rep.lip_gamma == pytest.approx(2.0, abs=1e-9)


def test_validate_translation_ratio_is_one(interacting_spec):
    rep = mdl.validate_assumptions(interacting_spec, n_samples=5000, seed=2)
    assert rep.lip_gamma == pytest.approx(1.0, abs=1e-12)
    assert rep.all_pass
    # report serializes
    assert "passes" in rep.to_dict()
