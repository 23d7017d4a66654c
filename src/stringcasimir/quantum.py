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
enough temperature; its breakdown is the Hagedorn transition and is
detected empirically by halving the lower integration limit.  The
tau_2 -> infinity end grows without bound for every beta (the tachyonic
(q qbar)^{-1} content of the eta powers), so the integral carries an
explicit upper cutoff ``tau2_max``; all reported values are understood
with that regularization.

Everything is evaluated in log space: the bare prefactor is ~1e-34 while
the integrand spans hundreds of e-folds.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, QuadratureError
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


@dataclass(frozen=True)
class QuantumStringConfig:
    """Integer length ratio s and the finite companion tension T_II."""

    s: int
    tension_ii: float
    spacetime_dim: int = 26

    def __post_init__(self):
        if not (isinstance(self.s, (int, np.integer)) and self.s >= 1):
            raise DomainError(f"s must be an integer >= 1, got {self.s}")
        if not self.tension_ii > 0:
            raise DomainError(f"tension_ii must be positive, got {self.tension_ii}")
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
                if not (isinstance(n, (int, np.integer)) and n >= 1):
                    raise DomainError(f"{name}: mode index must be >= 1, got {n}")
                if not 1 <= i <= _TRANSVERSE_DIMS:
                    raise DomainError(f"{name}: direction must lie in 1..24, got {i}")
                if not (isinstance(occ, (int, np.integer)) and occ >= 0):
                    raise DomainError(f"{name}: occupation must be >= 0, got {occ}")


@dataclass(frozen=True)
class ThermoResult:
    """Free energy and (optionally) its derived quantities at one beta."""

    free_energy: float
    beta: float
    convergence_flag: str  # converged | diverged-below-hagedorn
    internal_energy: Optional[float] = None
    entropy: Optional[float] = None
    identity_residual: Optional[float] = None

    def __post_init__(self):
        if self.convergence_flag not in ("converged", "diverged-below-hagedorn"):
            raise DomainError(f"unknown convergence flag {self.convergence_flag!r}")
        if not self.beta > 0:
            raise DomainError("beta must be positive")


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
    """ln(theta_3(0 | i a) - 1) = ln(2 sum_{n>=1} e^{-a n^2}), a > 0."""
    extra = 0.0
    n = 2
    while True:
        term = math.exp(-a * (n * n - 1))
        extra += term
        if term < 1e-20 * (1.0 + extra) or n > 10**4:
            break
        n += 1
    return math.log(2.0) - a + math.log1p(extra)


def _logsumexp(a, weights=1.0):
    """ln sum(weights e^a) for positive weights, shifted by max(a) so that
    no exponential overflows."""
    top = float(np.max(a))
    if not math.isfinite(top):
        return top
    return top + math.log(float(np.sum(weights * np.exp(a - top))))


def _log_integrand_tau1_integrated(tau2, s, beta, t, n_tau1):
    """ln of the tau_1-integrated integrand at one tau_2 (log-space)."""
    a = beta * beta * t / (8.0 * math.pi**2 * tau2)
    ln_theta = _ln_theta3_minus_one(a)
    ln_eta_imag = log_abs_dedekind_eta(2j * s * (1.0 + s) * tau2)
    tau1 = -0.5 + np.arange(n_tau1) / n_tau1
    z = (1.0 + s) * (tau1 + 1j * tau2)
    ln_eta_c = log_abs_dedekind_eta(z)
    # trapezoid over the periodic tau_1 direction, weight 1/n each
    ln_tau1_integral = _logsumexp(-48.0 * ln_eta_c) - math.log(n_tau1)
    return ln_theta - 24.0 * ln_eta_imag - 14.0 * math.log(tau2) + ln_tau1_integral


def _log_integrand_ray(tau2, s, beta, t):
    """ln integrand on the tau_1 = 0 ray, where the small-tau2 growth of
    the eta factors is maximal (the other growth rays tau_1 = k/(1+s) are
    copies by periodicity)."""
    a = beta * beta * t / (8.0 * math.pi**2 * tau2)
    return (
        _ln_theta3_minus_one(a)
        - 48.0 * log_abs_dedekind_eta(1j * (1.0 + s) * tau2)
        - 24.0 * log_abs_dedekind_eta(2j * s * (1.0 + s) * tau2)
        - 14.0 * math.log(tau2)
    )


def _small_tau2_diverges(s, beta, t):
    """Empirical Hagedorn test: does the integrand grow without bound as
    tau_2 -> 0?

    Probes the dominant ray at successively halved tau_2 deep below any
    crossover scale; past the transient the log integrand behaves like
    -delta/tau_2 + (powers) ln tau_2, so persistent growth under halving
    pins delta < 0 (divergent) and persistent decay pins delta > 0.
    """
    tau2 = 1e-4
    prev = _log_integrand_ray(tau2, s, beta, t)
    rising = falling = 0
    for _ in range(40):
        tau2 /= 2.0
        cur = _log_integrand_ray(tau2, s, beta, t)
        if cur > prev + 1e-9:
            rising += 1
            falling = 0
        else:
            falling += 1
            rising = 0
        if rising >= 3:
            return True
        if falling >= 3:
            return False
        prev = cur
    raise QuadratureError(
        f"small-tau2 behavior undecided after deep probing (s={s}, beta={beta})"
    )


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def _log_prefactor(cfg):
    t = translational_energy(cfg)
    return -40.0 * math.log(2.0) - 26.0 * math.log(math.pi) - 13.0 * math.log(t)


def _log_octave_integral(lo, hi, s, beta, t, n_tau1):
    """ln of Int_lo^hi (integrand) dtau_2 over one octave, Gauss-Legendre
    on the log-tau_2 substitution."""
    u_lo, u_hi = math.log(lo), math.log(hi)
    mid, half = 0.5 * (u_hi + u_lo), 0.5 * (u_hi - u_lo)
    us = mid + half * _GL_NODES
    logs = np.array(
        [_log_integrand_tau1_integrated(math.exp(u), s, beta, t, n_tau1) + u for u in us]
    )
    return _logsumexp(logs, _GL_WEIGHTS * half)


def free_energy(cfg, beta, tau2_max=1.0, n_tau1=64, max_octaves=48):
    """One-loop free energy of the first-branch string gas at inverse
    temperature beta (partial result: F only).

    The tau_2 -> 0 end is classified first by probing the integrand on
    its dominant ray at successively halved tau_2: persistent growth is
    the Hagedorn divergence and the result is flagged
    ``diverged-below-hagedorn`` (``free_energy`` = -inf, the direction in
    which the integral term runs away).  Otherwise the integral is
    accumulated octave by octave downward from ``tau2_max`` until two
    successive octaves contribute below 1e-8 of the running total; a
    growth of more than 10x per octave along the way raises, so
    quadrature trouble is never mistaken for the physical divergence.
    """
    if not isinstance(cfg, QuantumStringConfig):
        raise DomainError("free_energy expects a QuantumStringConfig")
    if not beta > 0:
        raise DomainError(f"beta must be positive, got {beta}")
    s = cfg.s
    t = translational_energy(cfg)
    constant = -(s + 1.0 / s - 2.0) / 24.0
    log_prefactor = _log_prefactor(cfg)

    if _small_tau2_diverges(s, beta, t):
        return ThermoResult(
            free_energy=-math.inf, beta=beta, convergence_flag="diverged-below-hagedorn"
        )

    log_total = -math.inf
    small_streak = 0
    hi = tau2_max
    prev_contrib = None
    for _ in range(max_octaves):
        lo = hi / 2.0
        contrib = _log_octave_integral(lo, hi, s, beta, t, n_tau1)
        log_total = float(np.logaddexp(log_total, contrib))
        if prev_contrib is not None and contrib > prev_contrib + math.log(10.0):
            raise QuadratureError(
                f"integrand grew past the convergent small-tau2 classification "
                f"(s={s}, beta={beta}, tau2~{lo:.3e})"
            )
        if contrib < log_total + math.log(1e-8):
            small_streak += 1
            if small_streak >= 2:
                if log_prefactor + log_total > 700.0:
                    raise QuadratureError(
                        f"modulus integral not representable in double precision "
                        f"(ln value {log_prefactor + log_total:.1f}); lower tau2_max"
                    )
                value = constant - math.exp(log_prefactor + log_total)
                return ThermoResult(
                    free_energy=value, beta=beta, convergence_flag="converged"
                )
        else:
            small_streak = 0
        prev_contrib = contrib
        hi = lo
    raise QuadratureError(
        f"tau_2 integration reached {max_octaves} octaves without stabilizing "
        f"(s={s}, beta={beta})"
    )


def thermo_derivatives(cfg, beta, step_frac=1e-3, tau2_max=1.0):
    """Internal energy U = d(beta F)/d beta and entropy S = beta^2 dF/d beta
    by Richardson-refined central differences.

    The residual of the identity F = U - S/beta measures the differencing
    error alone (it holds algebraically) and is reported alongside.
    """
    if not beta > 0:
        raise DomainError(f"beta must be positive, got {beta}")
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
    )
