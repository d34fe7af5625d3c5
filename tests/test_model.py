"""Model families and assumption validators."""

import ast
import csv
import dataclasses
import gc
import json
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


def test_scalar_psi_same_bits_as_psi_eval(rng):
    ages = np.concatenate([[0.0, 1e-300, 1e-9, 0.5, 7.0, 1e4],
                           rng.exponential(2.0, 200)])
    for K, kappa in [(1.0, 1.0), (1.7, 0.9), (0.2, 7.0)]:
        p = mdl.PsiParams(K=K, kappa=kappa)
        psi = mdl.scalar_psi(p)
        for a in ages:
            want = mdl.psi_eval(a, p)
            for arg in (float(a), np.float64(a)):
                assert np.float64(psi(arg)).tobytes() == want.tobytes()


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
       a=st.floats(0.0, 60.0), m=_state, x=_state, numpy_in=st.booleans(),
       numpy_m=st.booleans())
@settings(max_examples=600, deadline=None)
def test_scalar_intensity_same_bits_as_intensity_eval(family, c_a, c_m, c_x, b,
                                                      a, m, x, numpy_in,
                                                      numpy_m):
    # the path integral passes an np.float64 memory, the thinning loops
    # often a python float
    spec = _d1_spec(family, c_a, c_m, c_x, b)
    want = spec.intensity(a, np.array([m]), x)
    if numpy_in:
        a, x = np.float64(a), np.float64(x)
    if numpy_m:
        m = np.float64(m)
    assert _same_bits(spec.scalar_intensity()(a, m, x), want)


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
                                  (0.3, math.nan), (-0.0, -0.0)]
                         # u below -500 and from 30 up, where a logistic or
                         # softplus might cut over to a limit form
                         + [(0.0, x) for x in (-1000.0, -600.0, -500.0,
                                               -499.0, 29.0, 30.0, 31.0,
                                               45.0, 800.0)])
def test_scalar_intensity_edge_states(family, c_a, m, x):
    spec = _d1_spec(family, c_a, c_m=1.0, c_x=1.0, b=0.0)
    f = spec.scalar_intensity()
    for a in (0.0, 0.4, 30.0):
        want = spec.intensity(a, np.array([m]), x)
        assert _same_bits(f(a, m, x), want)
        assert _same_bits(f(a, np.float64(m), x), want)


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


@pytest.mark.parametrize("kernel", ["exponential", "erlang",
                                    "finite-support-smooth"])
def test_scalar_kernel_same_bits_as_kernel_eval(kernel, rng):
    for tau in (0.3, 0.5, 1.0, 2.7):
        h = mdl.InteractionSpec(kernel=kernel, tau=tau, J=1.0)
        kern = mdl.scalar_kernel(h)
        # below zero, at zero, across the support and up to tau from below
        near = [tau - tau * 2.0 ** -k for k in (1, 4, 10, 20, 30, 40, 52)]
        lags = ([-1.0, -1e-12, -0.0, 0.0, 5e-324, 1e-12, tau, 2.0 * tau, 1e3]
                + near + [np.nextafter(tau, 0.0)]
                + list(rng.uniform(0.0, 1.5 * tau, 50)))
        for lag in lags:
            want = float(mdl.kernel_eval(h, np.float64(lag)))
            for arg in (float(lag), np.float64(lag)):
                got = kern(arg)
                assert type(got) is float
                assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_modulation_linear_in_m():
    h = mdl.InteractionSpec(kernel="exponential", tau=1.0, J=2.0,
                            modulation="linear-in-m",
                            mod_intercept=1.0, mod_slope=-1.0)
    val = mdl.interaction_eval(h, 0.0, 0.0, np.array([0.25]))
    assert abs(val - 2.0 * 0.75) < 1e-14


def test_modulation_free_predicates_match_modulation_eval(rng):
    # age_free and memory_free hold exactly when modulation_eval ignores age
    # or memory
    a = rng.uniform(0.0, 5.0, (6, 1))
    m = rng.normal(0.0, 1.0, (1, 7, 2))
    for h in [mdl.InteractionSpec(modulation="none"),
              mdl.InteractionSpec(modulation="linear-in-m", mod_slope=0.4),
              mdl.InteractionSpec(modulation="custom-bounded",
                                  mod_fn=lambda a, m: np.tanh(a + m[..., 1]))]:
        g = np.broadcast_to(mdl.modulation_eval(h, a, m), (6, 7))
        assert h.age_free == bool(np.all(g == g[:1]))
        assert h.memory_free == bool(np.all(g == g[:, :1]))


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


def test_custom_jump_fd_step_is_per_point():
    # the finite-difference step of one point does not depend on the other
    # points of the batch, and points with |m| <= 1 keep the step 1e-6
    j = mdl.JumpSpec(family="custom", fn=lambda m: 0.5 * np.sinh(m) - 0.3,
                     fn_inv=lambda m: np.arcsinh(2.0 * (m + 0.3)))
    alone = mdl.jump_inverse_jacobian_logdet(j, np.array([[-0.45]]))
    batch = mdl.jump_inverse_jacobian_logdet(j, np.array([[-0.45], [40.0]]))
    assert batch[0] == alone[0]
    exact = -0.5 * math.log(1.0 + (2.0 * (-0.45 + 0.3)) ** 2) + math.log(2.0)
    assert abs(alone[0] - exact) < 1e-9
    m = np.linspace(-1.0, 1.0, 7)[:, None]
    eps = 1e-6
    inv = lambda v: mdl.jump_inverse(j, v)[:, 0]
    fd = (inv(m + eps) - inv(m - eps)) / (2 * eps)
    assert mdl.jump_inverse_jacobian_logdet(j, m).tobytes() == \
        np.log(np.abs(fd)).tobytes()


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
    tabs = [pde._jump_tables(s, nodes) for s in (s0, s1)]
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


def _field_reads(source, holder, cls, fields):
    """Reads of the named fields of a spec in source: of x.<holder>.<field>,
    of a name bound to a .<holder> attribute, or of an argument annotated
    cls."""
    tree = ast.parse(source)
    names = set()

    def is_spec(node):
        return ((isinstance(node, ast.Attribute) and node.attr == holder)
                or (isinstance(node, ast.Name) and node.id in names))

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and is_spec(node.value):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.arg) and node.annotation is not None \
                and cls in ast.unparse(node.annotation):
            names.add(node.arg)
    return [f"{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in fields and is_spec(node.value)]


def _reads_outside_model(*args):
    return [f"{path.name}:{r}"
            for path in sorted(Path(mdl.__file__).parent.glob("*.py"))
            if path.name != "model.py"
            for r in _field_reads(path.read_text(), *args)]


_JUMP = ("jump", "JumpSpec", {"family", "alpha_vec", "alpha", "offset",
                              "offset_vec"})
_INTENSITY = ("f", "IntensitySpec",
              {"family", "c_a", "c_m", "c_x", "b", "psi_amp", "psi_rate"})
_MODULATION = ("h", "InteractionSpec",
               {"modulation", "mod_intercept", "mod_slope", "mod_fn"})
_PSI = ("psi", "PsiParams", {"K", "kappa"})
_KERNEL = ("h", "InteractionSpec", {"kernel", "tau"})
_BASELINE = ("H", "BaselineSpec", {"family", "mean", "std"})


def test_only_model_reads_jump_families():
    # outside model.py, jump arithmetic goes through JumpSpec.affine and the
    # jump_* functions.  Flags reads such as spec.jump.family, and j.alpha
    # where the module binds j to a .jump attribute or annotates it JumpSpec.
    assert not _reads_outside_model(*_JUMP)


def test_only_model_reads_intensity_families():
    # outside model.py, intensity arithmetic goes through intensity_eval,
    # ModelSpec.scalar_intensity and the age_free / memory_free predicates
    assert sorted(_field_reads(
        "def g(spec, fs: mdl.IntensitySpec):\n    f = spec.f\n"
        "    return spec.f.c_a + f.family + fs.b + f.f_max\n", *_INTENSITY)) == [
            "3: f.family", "3: fs.b", "3: spec.f.c_a"]
    assert not _reads_outside_model(*_INTENSITY)


def test_only_model_reads_modulation_families():
    # outside model.py, the state modulation g(a, m) goes through
    # modulation_eval and ModelSpec.scalar_modulation
    assert sorted(_field_reads(
        "def g(spec, hs: mdl.InteractionSpec):\n    h = spec.h\n"
        "    return spec.h.modulation + h.mod_slope + hs.mod_fn + h.J\n",
        *_MODULATION)) == ["3: h.mod_slope", "3: hs.mod_fn", "3: spec.h.modulation"]
    assert not _reads_outside_model(*_MODULATION)


def test_only_model_reads_psi_params():
    # outside model.py, the age transform goes through psi_eval and
    # scalar_psi
    assert sorted(_field_reads(
        "def g(spec, ps: mdl.PsiParams):\n    p = spec.psi\n"
        "    return spec.psi.K + p.kappa + ps.K + p.other\n", *_PSI)) == [
            "3: p.kappa", "3: ps.K", "3: spec.psi.K"]
    assert not _reads_outside_model(*_PSI)


def test_only_model_reads_kernel_families():
    # outside model.py, the temporal kernel goes through kernel_eval,
    # kernel_horizon and ModelSpec.signal_trace
    assert sorted(_field_reads(
        "def g(spec, hs: mdl.InteractionSpec):\n    h = spec.h\n"
        "    return spec.h.kernel + h.tau + hs.kernel + h.J\n", *_KERNEL)) == [
            "3: h.tau", "3: hs.kernel", "3: spec.h.kernel"]
    assert not _reads_outside_model(*_KERNEL)


def test_only_model_reads_baseline_families():
    # outside model.py, the baseline goes through ModelSpec.Hbar,
    # sample_H_params, H_emp_mean and signal_trace
    assert sorted(_field_reads(
        "def g(spec, bs: mdl.BaselineSpec):\n    H = spec.H\n"
        "    return spec.H.family + H.mean + bs.std + H.other\n",
        *_BASELINE)) == ["3: H.mean", "3: bs.std", "3: spec.H.family"]
    assert not _reads_outside_model(*_BASELINE)


# the module functions that write an artifact's format
_FORMAT_WRITERS = {"csv": ("writer", "DictWriter"), "json": ("dump", "dumps")}


def _artifact_writes(source):
    """Calls in source that write an artifact: a function of
    _FORMAT_WRITERS through its module (under any import name) or through a
    name imported from it; open(f, mode) or x.open(mode) whose mode is not a
    literal without w, a, x or +; and x.write_text or x.write_bytes."""
    tree = ast.parse(source)
    modules, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((a.asname or a.name, _FORMAT_WRITERS[a.name])
                           for a in node.names if a.name in _FORMAT_WRITERS)
        elif isinstance(node, ast.ImportFrom) and node.module in _FORMAT_WRITERS:
            names.update(a.asname or a.name for a in node.names
                         if a.name in _FORMAT_WRITERS[node.module])

    def opens_for_writing(call):
        fn = call.func
        at = (1 if isinstance(fn, ast.Name) and fn.id == "open" else
              0 if isinstance(fn, ast.Attribute) and fn.attr == "open" else None)
        if at is None:
            return False
        mode = ([k.value for k in call.keywords if k.arg == "mode"]
                or call.args[at:at + 1])
        return bool(mode) and not (isinstance(mode[0], ast.Constant)
                                   and not set("wax+") & set(str(mode[0].value)))

    def writes(call):
        fn = call.func
        return ((isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name)
                 and fn.attr in modules.get(fn.value.id, ()))
                or (isinstance(fn, ast.Name) and fn.id in names)
                or (isinstance(fn, ast.Attribute)
                    and fn.attr in ("write_text", "write_bytes"))
                or opens_for_writing(call))

    return [f"{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and writes(node)]


def test_only_model_writes_csv():
    # every artifact goes through model.write_csv or model.write_json, the
    # two places that know the table and record formats: no other module
    # calls a csv writer or json.dump(s), or opens a file for writing
    assert _artifact_writes(
        "import csv\nimport csv as c\nfrom csv import writer as w\n"
        "csv.writer(fh)\nc.DictWriter(fh, f)\nw(fh)\ncsv.reader(fh)\n"
        "other.writer(fh)\n") == ["4: csv.writer(fh)", "5: c.DictWriter(fh, f)",
                                   "6: w(fh)"]
    assert _artifact_writes(
        "import json as j\nfrom json import dump\nj.dumps(o)\ndump(o, fh)\n"
        "j.loads(s)\ncsv.dumps(o)\nopen(p, 'w')\nopen(p, mode='a')\n"
        "open(p, m)\nopen(p, 'rb')\nopen(p)\nq.open('x')\nq.open()\n"
        "q.write_text(s)\nq.read_bytes()\n") == [
            "3: j.dumps(o)", "4: dump(o, fh)", "7: open(p, 'w')",
            "8: open(p, mode='a')", "9: open(p, m)", "12: q.open('x')",
            "14: q.write_text(s)"]
    assert not [f"{path.name}:{call}"
                for path in sorted(Path(mdl.__file__).parent.glob("*.py"))
                if path.name != "model.py"
                for call in _artifact_writes(path.read_text())]


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


_AGE, _MEM = ("exponential", 1.0), ("uniform", -1.0, 0.0)


@pytest.mark.parametrize("age, mem, named", [
    (("gamma", 1.0), _MEM, "age law"),
    (("exponential", -1.0), _MEM, "age law"),
    (("exponential", 0.0), _MEM, "age law"),
    (("exponential", float("nan")), _MEM, "age law"),
    (("exponential",), _MEM, "age law"),
    (("uniform", -0.5, 1.0), _MEM, "age law"),
    (("uniform", 1.0, 1.0), _MEM, "age law"),
    (_AGE, ("uniform", 0.0, -1.0), "memory law"),
    (_AGE, ("uniform", 0.5, 0.5), "memory law"),
    (_AGE, ("normal", 0.0, 1.0), "memory law"),
    (_AGE, ("truncnorm", 0.0, 1.0, -1.0), "memory law"),
], ids=["gamma-age", "negative-rate", "zero-rate", "nan-rate", "no-rate",
        "negative-age", "empty-age", "reversed-mem", "empty-mem",
        "unknown-mem", "truncnorm-no-hi"])
def test_initial_law_rejects_law_it_cannot_evaluate(age, mem, named):
    # such a law was accepted, and failed or gave a negative or zero
    # density only where it was evaluated
    with pytest.raises(mdl.ConfigurationError, match=named):
        mdl.InitialLaw(age=age, mem=(mem,))


_INF = float("inf")


@pytest.mark.parametrize("age, mem", [
    (("exponential", _INF), _MEM),
    (("uniform", 0.0, _INF), _MEM),
    (_AGE, ("uniform", -1.0, _INF)),
    (_AGE, ("uniform", -_INF, 0.0)),
    (_AGE, ("truncnorm", 0.0, _INF, -1.0, 1.0)),
    (_AGE, ("truncnorm", 0.0, 1.0, -_INF, 1.0)),
    (_AGE, ("truncnorm", float("nan"), 1.0, -1.0, 1.0)),
], ids=["inf-rate", "inf-age-hi", "inf-mem-hi", "inf-mem-lo", "inf-sd",
        "inf-truncnorm-lo", "nan-mean"])
def test_initial_law_rejects_nonfinite_parameter(age, mem):
    # such a law was accepted: an infinite uniform bound or sd gave
    # density_mem 0.0 everywhere, an infinite rate density_age NaN
    with pytest.raises(mdl.ConfigurationError, match="all finite"):
        mdl.InitialLaw(age=age, mem=(mem,))


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


@pytest.mark.parametrize("family, mean, std, named", [
    ("constant-random", float("nan"), 0.1, "finite mean and a finite std >= 0"),
    ("constant-random", float("inf"), 0.1, "finite mean and a finite std >= 0"),
    ("constant-random", 0.1, float("inf"), "finite mean and a finite std >= 0"),
    ("constant-random", 0.1, -0.2, "finite mean and a finite std >= 0"),
    ("zero", 0.5, 0.0, "reads no mean or std"),
    ("exp-decay-from-M0", 0.0, 0.2, "reads no mean or std"),
], ids=["nan-mean", "inf-mean", "inf-std", "negative-std", "zero-with-mean",
        "exp-decay-with-std"])
def test_baseline_rejects_values_it_cannot_use(family, mean, std, named):
    # a NaN mean made a run with no events whose run.json held x_emp [NaN];
    # zero and exp-decay-from-M0 ignored the values they were given
    with pytest.raises(mdl.ConfigurationError, match=named):
        mdl.BaselineSpec(family=family, mean=mean, std=std)
    assert mdl.BaselineSpec(family="constant-random", mean=-1.0, std=0.0).std == 0.0


# ---------------------------------------------------------------------------
# ModelSpec serialization


def test_spec_json_roundtrip(interacting_spec):
    text = interacting_spec.to_json()
    back = mdl.ModelSpec.from_json(text)
    assert back == interacting_spec
    assert back.spec_hash() == interacting_spec.spec_hash()


def test_from_dict_rejects_unknown_top_level_keys():
    # the keys were dropped and the dict decoded to the preset unchanged
    from almsim import presets
    data = presets.preset("plain-hawkes").to_dict()
    assert "schema_version" in data
    assert mdl.ModelSpec.from_dict(data) == presets.preset("plain-hawkes")
    data.update(seed=99, comment="a note", Lambda_typo=[2.0])
    with pytest.raises(mdl.ConfigurationError) as exc:
        mdl.ModelSpec.from_dict(data)
    assert str(exc.value) == (
        "unknown model fields ['Lambda_typo', 'comment', 'seed']")


def test_from_dict_rejects_unknown_init_law_keys():
    # the key was dropped and the dict decoded to the preset unchanged
    from almsim import presets
    data = presets.preset("plain-hawkes").to_dict()
    data["init_law"]["bogus"] = 1
    with pytest.raises(mdl.ConfigurationError, match="init_law.*'bogus'"):
        mdl.ModelSpec.from_dict(data)


def test_to_dict_leaves_no_cyclic_garbage():
    # a run hashes its spec; garbage that only the cyclic collector frees
    # would pile up across runs in one process
    from almsim import presets
    spec = presets.preset("stp")
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            spec.to_dict()
        assert gc.collect() == 0
    finally:
        gc.enable()
    # the encoder keeps every hash, and with it the manifests' spec_hash
    assert {n: presets.preset(n).spec_hash()[:16]
            for n in ("adaptation-1d", "stp", "plain-hawkes")} == {
        "adaptation-1d": "c358faad3e5e9e1c", "stp": "0d6deb36ec6da293",
        "plain-hawkes": "3d4c44c7708c4a2a"}


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


def test_validate_translation_ratio_is_one(interacting_spec, tmp_path):
    rep = mdl.validate_assumptions(interacting_spec, n_samples=5000, seed=2)
    assert rep.lip_gamma == pytest.approx(1.0, abs=1e-12)
    assert rep.all_pass
    # report serializes
    mdl.write_json(tmp_path / "v.json", vars(rep))
    assert json.loads((tmp_path / "v.json").read_text())["passes"] == rep.passes


# ---------------------------------------------------------------------------
# artifact tables


def test_write_csv_int_cells_as_written(tmp_path):
    path = tmp_path / "t.csv"
    mdl.write_csv(path, ["i", "j", "k", "x"],
                  [(3, np.int64(-4), np.int32(5), 2), (0, np.int64(2 ** 62), 1, 1.0)])
    assert path.read_bytes() == (b"i,j,k,x\r\n3,-4,5,2\r\n"
                                 b"0,4611686018427387904,1,1.0\r\n")


def test_write_csv_float_cells_read_back_to_the_same_bits(tmp_path):
    rng = np.random.default_rng(3)
    vals = np.concatenate([
        [np.nan, np.inf, -np.inf, 0.0, -0.0, 0.1, 1.0, 1e300, 5e-324,
         np.finfo(float).tiny, np.nextafter(1.0, 2.0)],
        rng.normal(0.0, 1.0, 41) * 10.0 ** rng.integers(-300, 300, 41)])
    cells = [float(v) for v in vals[:20]] + list(vals[20:])  # float and float64
    path = tmp_path / "t.csv"
    mdl.write_csv(path, ["a", "b"], zip(cells[::2], cells[1::2]))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["a", "b"]
    back = np.array([float(c) for row in rows[1:] for c in row])
    assert back.view(np.uint64).tolist() == vals.view(np.uint64).tolist()
    assert "np.float64" not in path.read_text()


def test_write_json_plain_input_is_json_dumps(tmp_path):
    obj = {"b": [1, 2.5, None, True, "s"], "a": {"z": 1, "y": [0.1, -0.0]},
           "c": math.nan, "d": -math.inf, "10": 1e300, "5": []}
    path = tmp_path / "r.json"
    mdl.write_json(path, obj)
    assert path.read_text() == json.dumps(obj, indent=2, sort_keys=True)


def test_write_json_numpy_values_as_python_values(tmp_path):
    rng = np.random.default_rng(4)
    vals = np.concatenate([
        [np.nan, np.inf, -np.inf, 0.0, -0.0, 0.1, 1e300, 5e-324,
         np.nextafter(1.0, 2.0)],
        rng.normal(0.0, 1.0, 41) * 10.0 ** rng.integers(-300, 300, 41)])
    path = tmp_path / "r.json"
    mdl.write_json(path, {"arr": vals, "f": vals[5], "grid": np.arange(4).reshape(2, 2),
                          "i": np.int64(2 ** 62), "i32": np.int32(-3),
                          "ok": np.bool_(True), "no": np.bool_(False)})
    back = json.loads(path.read_text())
    assert back["grid"] == [[0, 1], [2, 3]]
    assert back["i"] == 2 ** 62 and type(back["i"]) is int
    assert back["i32"] == -3 and type(back["i32"]) is int
    assert back["ok"] is True and back["no"] is False
    assert back["f"] == 0.1 and "np.float64" not in path.read_text()
    assert (np.array(back["arr"]).view(np.uint64).tolist()
            == vals.view(np.uint64).tolist())


@pytest.mark.parametrize("value", [object(), {1, 2}, np.datetime64("2020-01-01")])
def test_write_json_unsupported_object_raises_type_error(value, tmp_path):
    with pytest.raises(TypeError, match="not JSON serializable"):
        mdl.write_json(tmp_path / "r.json", {"x": value})
