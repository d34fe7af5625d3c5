"""Shipped model presets.

All numerical constants here are package defaults chosen to give lively but
stable dynamics at desk scale; they are not taken from any reference.
"""

from __future__ import annotations

from . import model as mdl
from .pde import Grid

PRESET_NAMES = ("adaptation-1d", "stp", "plain-hawkes")


def preset(name: str) -> mdl.ModelSpec:
    """Fully parameterized example models.

    adaptation-1d: one-dimensional memory pushed down by each event
      (refractoriness / spike-frequency adaptation), exponential interaction
      kernel, baseline decaying from the initial memory.
    stp: short-term synaptic resource dynamics expressed in transformed
      coordinates m' = 1 - m, under which the drift toward 1 becomes plain
      exponential decay and the proportional resource drop becomes the affine
      contraction m' -> alpha + (1 - alpha) m' on the invariant box [0, 1].
      The intensity depends on the signal and on age through the additive
      refractory offset -exp(-a).
    plain-hawkes: degenerate configuration with a zero jump and an intensity
      ignoring age and memory, reducing to a mean-field nonlinear Hawkes
      process.
    """
    if name == "adaptation-1d":
        return mdl.ModelSpec(
            d=1,
            Lambda=(1.0,),
            psi=mdl.PsiParams(K=1.0, kappa=1.0),
            f=mdl.IntensitySpec(family="sigmoid-affine", f_min=0.2, f_max=2.0,
                                c_a=0.0, c_x=1.0, c_m=(1.0,), b=0.5),
            h=mdl.InteractionSpec(kernel="exponential", tau=0.5, J=0.8,
                                  modulation="none"),
            jump=mdl.JumpSpec(family="translation", alpha_vec=(-0.4,)),
            init_law=mdl.InitialLaw(age=("exponential", 1.0),
                                    mem=(("uniform", -1.0, 0.0),)),
            H=mdl.BaselineSpec(family="exp-decay-from-M0"),
        )
    if name == "stp":
        return mdl.ModelSpec(
            d=1,
            Lambda=(1.0,),
            psi=mdl.PsiParams(K=1.0, kappa=1.0),
            f=mdl.IntensitySpec(family="stp-composite", f_min=0.5, f_max=2.0,
                                c_x=1.0, b=0.0, psi_amp=1.0, psi_rate=1.0),
            h=mdl.InteractionSpec(kernel="exponential", tau=0.3, J=1.0,
                                  modulation="linear-in-m",
                                  mod_intercept=1.0, mod_slope=-1.0),
            jump=mdl.JumpSpec(family="affine-contraction", alpha=0.2,
                              offset=(0.2,)),
            init_law=mdl.InitialLaw(age=("exponential", 1.0),
                                    mem=(("truncnorm", 0.3, 0.15, 0.0, 1.0),)),
            H=mdl.BaselineSpec(family="zero"),
        )
    if name == "plain-hawkes":
        return mdl.ModelSpec(
            d=1,
            Lambda=(1.0,),
            psi=mdl.PsiParams(K=1.0, kappa=1.0),
            f=mdl.IntensitySpec(family="sigmoid-affine", f_min=0.2, f_max=2.0,
                                c_a=0.0, c_x=1.0, c_m=(0.0,), b=0.0),
            h=mdl.InteractionSpec(kernel="exponential", tau=0.5, J=1.0,
                                  modulation="none"),
            jump=mdl.JumpSpec(family="translation", alpha_vec=(0.0,)),
            init_law=mdl.InitialLaw(age=("exponential", 1.0),
                                    mem=(("uniform", -0.5, 0.5),)),
            H=mdl.BaselineSpec(family="zero"),
        )
    raise KeyError(f"unknown preset {name!r}")


def default_grid(name: str, T=5.0, dt=0.01) -> Grid:
    """Default solver resolution for each preset."""
    if name == "adaptation-1d":
        return Grid(a_max=15.0, n_a=1500, m_lo=(-3.5,), m_hi=(0.5,),
                    n_m=(400,), T=T, dt=dt)
    if name == "stp":
        return Grid(a_max=15.0, n_a=1500, m_lo=(0.0,), m_hi=(1.0,),
                    n_m=(400,), T=T, dt=dt)
    if name == "plain-hawkes":
        return Grid(a_max=15.0, n_a=1500, m_lo=(-1.0,), m_hi=(1.0,),
                    n_m=(200,), T=T, dt=dt)
    raise KeyError(f"unknown preset {name!r}")
