"""Quantized two-piece string in the decoupled limit (x -> 0, integer s).

First-branch oscillators in 26 flat spacetime dimensions with L = pi.
The mass-squared excess over the vacuum is linear in the occupation
numbers; the one-loop free energy is an integral over the torus modulus
tau = tau_1 + i tau_2 combining a theta_3 heat-kernel factor with powers
of Dedekind eta:

    F(beta) = -(1/24)(s + 1/s - 2)
              - 2^{-40} pi^{-26} t^{-13}
                Int_0^inf dtau_2 / tau_2^{14} Int_{-1/2}^{1/2} dtau_1
                [theta_3(0 | i beta^2 t / (8 pi^2 tau_2)) - 1]
                |eta((1+s) tau)|^{-48}  eta(2 i s (1+s) tau_2)^{-24},

with t = pi * mean tension.  The tau_2 -> 0 end converges only for low
enough temperature; its breakdown is the Hagedorn transition.  On the
dominant ray tau_1 = 0 the modular transformation of eta gives the log
integrand -delta/tau_2 + 22 ln tau_2 + O(1), with
delta(beta) = beta^2 t / (8 pi^2) - pi (4s+1) / (s (1+s)), so the integral
converges exactly when delta >= 0 (like tau_2^22 at delta = 0), that is
for beta >= beta* = sqrt(8 pi^2 (4s+1) / T_II) / s.  beta* is not the
paper's closed-form critical point ``hagedorn_beta`` (11.21 against 5.94
at s = 1, T_II = pi).  The tau_2 -> infinity end grows without bound
for every beta (the tachyonic (q qbar)^{-1} content of the eta powers),
so the integral carries an explicit upper cutoff ``tau2_max``; all
reported values are understood with that regularization.

Everything is evaluated in log space: the bare prefactor is ~1e-34 while
the integrand spans hundreds of e-folds.
"""

import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .energy import _contour
from .errors import DomainError, QuadratureError, _count, _positive, _real
from .modular import log_abs_dedekind_eta

__all__ = [
    "QuantumStringConfig",
    "OccupationState",
    "ThermoResult",
    "mean_tension",
    "translational_energy",
    "mass_squared_excess",
    "free_energy",
    "thermo_derivatives",
    "hagedorn_beta",
]

_TRANSVERSE_DIMS = 24
_ETA_BLOCK = 1 << 16  # eta arguments per call, which bounds memory
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class QuantumStringConfig:
    """Integer length ratio s and the finite companion tension T_II."""

    s: int
    tension_ii: float
    spacetime_dim: int = 26

    def __post_init__(self):
        _count("s", self.s)
        _positive("tension_ii", self.tension_ii)
        if self.spacetime_dim != 26:
            raise DomainError("only the critical dimension 26 is supported")


@dataclass(frozen=True)
class OccupationState:
    """Finitely supported occupation numbers for the three oscillator towers.

    Keys are (mode index n >= 1, transverse direction i in 1..24); values
    are nonnegative integers.  ``a``/``a_tilde`` are the two traveling
    towers, ``c`` the standing-wave tower of the companion region.
    """

    a_modes: dict = field(default_factory=dict)
    a_tilde_modes: dict = field(default_factory=dict)
    c_modes: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, modes in (
            ("a_modes", self.a_modes),
            ("a_tilde_modes", self.a_tilde_modes),
            ("c_modes", self.c_modes),
        ):
            for (n, i), occ in modes.items():
                _count(f"{name}: mode index", n)
                if _count(f"{name}: direction", i) > _TRANSVERSE_DIMS:
                    raise DomainError(f"{name}: direction must be an integer in 1..24, got {i!r}")
                _count(f"{name}: occupation", occ, least=0)


@dataclass(frozen=True)
class ThermoResult:
    """Free energy and (optionally) its derived quantities at one beta."""

    free_energy: float
    beta: float
    convergence_flag: str  # converged | diverged-below-hagedorn
    internal_energy: Optional[float] = None
    entropy: Optional[float] = None
    identity_residual: Optional[float] = None
    abs_error_estimate: float = 0.0

    def __post_init__(self):
        if self.convergence_flag not in ("converged", "diverged-below-hagedorn"):
            raise DomainError(f"unknown convergence flag {self.convergence_flag!r}")
        _positive("beta", self.beta)
        _real("abs_error_estimate", self.abs_error_estimate, lambda v: v >= 0, ">= 0")


def mean_tension(cfg):
    """Mean tension of the composite string, T_II s / (1 + s)."""
    return cfg.tension_ii * cfg.s / (1.0 + cfg.s)


def translational_energy(cfg):
    """Translational energy pi * mean tension (equals the mass scale t)."""
    return math.pi * mean_tension(cfg)


def mass_squared_excess(cfg, occ):
    """Mass-squared above the vacuum for an occupation state.

    t(s) sum omega_n (N^a + N^a~) + 2 s t(s) sum omega_n N^c with first
    branch frequencies omega_n = (1 + s) n.  Additive over disjoint
    occupations; the divergent vacuum constants are not part of this
    (they survive only as the regularized constant in the free energy).
    """
    t = translational_energy(cfg)
    rate = 1.0 + cfg.s
    total = 0.0
    for modes, weight in ((occ.a_modes, t), (occ.a_tilde_modes, t), (occ.c_modes, 2.0 * cfg.s * t)):
        for (n, _i), number in modes.items():
            total += weight * rate * n * number
    return total


def hagedorn_beta(cfg):
    """Critical inverse temperature beta_c = (4/s) sqrt(pi (1+s) / T_II)."""
    return (4.0 / cfg.s) * math.sqrt(math.pi * (1.0 + cfg.s) / cfg.tension_ii)


def _ln_theta3_minus_one(a):
    """ln(theta_3(0 | i a) - 1) = ln(2 sum_{n>=1} e^{-a n^2}) for an array a > 0.

    Summed directly for a >= 1 and after Poisson summation,
    sum_n e^{-a n^2} = sqrt(pi/a) sum_n e^{-pi^2 n^2 / a}, below; either way
    the terms left out are below e^{-48} of the sum.
    """
    a = np.asarray(a, dtype=float)
    out = np.empty_like(a)
    hi = a >= 1.0
    ah, al = a[hi], a[~hi]
    tail = np.exp(-np.multiply.outer(ah, np.arange(2, 8) ** 2 - 1.0)).sum(axis=-1)
    out[hi] = math.log(2.0) - ah + np.log1p(tail)
    dual = np.exp(-np.multiply.outer(math.pi**2 / al, np.arange(1, 4) ** 2)).sum(axis=-1)
    ln_theta = 0.5 * np.log(math.pi / al) + np.log1p(2.0 * dual)
    out[~hi] = ln_theta + np.log(-np.expm1(-ln_theta))
    return out


def _log_integrand(tau2, s, beta, t, n_tau1):
    """ln(tau_2 I(tau_2)) at an array of tau_2, the tau_1 integral the
    n_tau1-node trapezoid of the periodic direction, and the summed magnitude
    of its terms, which sets its rounding error (about that times eps).
    Each chunk of about _ETA_BLOCK eta arguments takes one eta call.
    """
    tau1 = -0.5 + np.arange(n_tau1) / n_tau1
    ln_value, magnitude = np.empty_like(tau2), np.empty_like(tau2)
    rows = max(1, _ETA_BLOCK // (n_tau1 + 1))
    for lo in range(0, tau2.size, rows):
        y = tau2[lo : lo + rows]
        z = (1.0 + s) * (tau1 + 1j * y[:, None])
        ln_eta = log_abs_dedekind_eta(np.concatenate([z.ravel(), 2j * s * (1.0 + s) * y]))
        ln_eta_imag = ln_eta[z.size :]
        powers = -48.0 * ln_eta[: z.size].reshape(z.shape)
        top = powers.max(axis=1)
        ln_tau1 = top + np.log(np.exp(powers - top[:, None]).sum(axis=1) / n_tau1)
        ln_theta = _ln_theta3_minus_one(beta * beta * t / (8.0 * math.pi**2 * y))
        terms = (ln_theta, -24.0 * ln_eta_imag, -13.0 * np.log(y), ln_tau1)
        ln_value[lo : lo + rows] = sum(terms)
        magnitude[lo : lo + rows] = sum(np.abs(term) for term in terms) + 1.0
    return ln_value, magnitude


def free_energy(cfg, beta, tau2_max=1.0, n_tau1=64, max_octaves=48):
    """One-loop free energy of the first-branch string gas at inverse
    temperature beta (partial result: F only).

    Below beta*, where delta(beta) < 0 (see the module docstring), the
    result is flagged ``diverged-below-hagedorn`` with ``free_energy`` =
    -inf, the direction in which the integral term runs away.  Otherwise the
    integral over v = ln(tau2_max / tau_2) in (0, max_octaves ln 2] is a
    trapezoid sum after the double-exponential map of the contour routes,
    which also resolves the tau2_max end, where the integrand is largest.
    ``abs_error_estimate`` bounds the kernel's discretization and noise, the
    rounding of the log integrand and of its exponential, about |ln| eps
    relative with |ln| up to hundreds, and the rounding of F itself.
    """
    if not isinstance(cfg, QuantumStringConfig):
        raise DomainError("free_energy expects a QuantumStringConfig")
    _positive("beta", beta)
    _positive("tau2_max", tau2_max)
    _count("n_tau1", n_tau1)
    _count("max_octaves", max_octaves)
    if math.log(tau2_max) - max_octaves * math.log(2.0) < -660.0:
        raise DomainError("tau2_max / 2^max_octaves must exceed e^-660")
    s = cfg.s
    t = translational_energy(cfg)
    constant = -((s - 1) ** 2) / (24.0 * s)  # -(s + 1/s - 2)/24, rounded once
    if beta * beta * t / (8.0 * math.pi**2) < math.pi * (4.0 * s + 1.0) / (s * (1.0 + s)):
        return ThermoResult(-math.inf, beta, "diverged-below-hagedorn")
    shift = float(_log_integrand(np.array([tau2_max]), s, beta, t, n_tau1)[0][0])
    if shift == -math.inf:  # the integrand underflows everywhere
        return ThermoResult(constant, beta, "converged", abs_error_estimate=_EPS * abs(constant))
    sums = np.zeros(2)  # sums of f and of f times its log magnitude over all nodes

    def f(v):
        ln_value, magnitude = _log_integrand(tau2_max * np.exp(-v), s, beta, t, n_tau1)
        excess = ln_value - shift
        if not np.all(excess <= 700.0):  # near delta = 0, rounding at small tau_2
            raise QuadratureError(f"modulus integrand not representable (s={s}, beta={beta})")
        value = np.exp(excess)
        sums[:] += value.sum(), (value * magnitude).sum()
        return value

    integral = _contour(f, 1.0, max_octaves * math.log(2.0))
    ln_prefactor = -40.0 * math.log(2.0) - 26.0 * math.log(math.pi) - 13.0 * math.log(t)
    ln_term = ln_prefactor + shift + math.log(integral.value)
    if ln_term > 700.0:
        raise QuadratureError(f"modulus integral not representable in double precision "
                              f"(ln {ln_term:.1f}); lower tau2_max")
    term = math.exp(ln_term)
    rounding = _EPS * (sums[1] / sums[0] + abs(ln_term) + abs(ln_prefactor))
    error = term * (integral.abs_error_estimate / integral.value + rounding)
    error += _EPS * abs(constant - term)  # the rounding of the constant and of F
    return ThermoResult(constant - term, beta, "converged", abs_error_estimate=float(error))


def thermo_derivatives(cfg, beta, step_frac=1e-3, tau2_max=1.0):
    """Internal energy U = d(beta F)/d beta and entropy S = beta^2 dF/d beta
    by Richardson-refined central differences.

    The residual of the identity F = U - S/beta measures the differencing
    error alone (it holds algebraically) and is reported alongside;
    ``abs_error_estimate`` is the bar of the central F.  ``step_frac`` must
    lie in (0, 1), so that the stencil stays at positive beta.
    """
    _positive("beta", beta)
    _real("step_frac", step_frac, lambda v: 0 < v < 1, "in (0, 1)")
    h = step_frac * beta
    betas = [beta, beta + h, beta - h, beta + h / 2.0, beta - h / 2.0]
    results = [free_energy(cfg, b, tau2_max=tau2_max) for b in betas]
    if any(r.convergence_flag != "converged" for r in results):
        raise QuadratureError(
            f"free energy diverged at a difference stencil point near beta={beta}"
        )
    f0, fp, fm, fph, fmh = (r.free_energy for r in results)

    def derivs(step, f_plus, f_minus):
        d_f = (f_plus - f_minus) / (2.0 * step)
        u = ((beta + step) * f_plus - (beta - step) * f_minus) / (2.0 * step)
        return u, beta * beta * d_f

    u_h, s_h = derivs(h, fp, fm)
    u_h2, s_h2 = derivs(h / 2.0, fph, fmh)
    u = (4.0 * u_h2 - u_h) / 3.0
    entropy = (4.0 * s_h2 - s_h) / 3.0
    residual = abs(f0 - u + entropy / beta)
    return ThermoResult(
        free_energy=f0,
        beta=beta,
        convergence_flag="converged",
        internal_energy=u,
        entropy=entropy,
        identity_residual=residual,
        abs_error_estimate=results[0].abs_error_estimate,
    )
