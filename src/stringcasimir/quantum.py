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
the integrand spans hundreds of e-folds.  beta enters only through theta_3,
so dF/d beta, and with it U and S, is one more row of the same kernel pass.

The tau_1 integral is the n_tau1-node trapezoid, and each tau_2 node takes the cheapest of
three routes that gives it to rounding.  Level matching makes the exact integral
sum_n p_24(n)^2 e^{-4 pi Y (n-1)}, Y = (1+s) tau_2 (Polchinski, String Theory I, 7.3); the
rule differs from it by its aliasing, at most 2 sum_m p_24(m+N) p_24(m) e^{-2 pi Y (2m+N)}
relative, N = n_tau1 / gcd(n_tau1, 1+s).  From Y_c = max(0.408, (5.87 + 1.38 sqrt N) / N) up
(1.22, 0.71, 0.43 and 0.41 at N = 8, 16, 32, 64) that and the tail past the 21 tabulated p_24
are below 2^-60, so the level sum stands in for the rule and n_tau1 keeps its meaning.  Below,
|eta(tau)| >= eta(i Im tau) bounds a node by its tau_1 = 0 ray, whose 1/tau_2 terms are formed
as -delta/tau_2: a node bounded 746 e-folds below the row at tau2_max is 0 in double precision
and skipped; the others take eta at the folded tau_1 phases m / (2N).  eta(iw) is real arithmetic.
"""

import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .energy import _contour
from .errors import DomainError, QuadratureError, _count, _instance, _positive, _real
from .modular import log_abs_dedekind_eta

__all__ = ["QuantumStringConfig", "OccupationState", "ThermoResult", "mean_tension",
           "translational_energy", "mass_squared_excess", "free_energy", "thermo_derivatives",
           "hagedorn_beta"]

_TRANSVERSE_DIMS = 24
_ETA_BLOCK = 1 << 16  # eta arguments per call, which bounds memory
_EPS = sys.float_info.epsilon
# p_24(n), the partitions of n in 24 colours: eta(w)^{-24} = sum_n p_24(n) e^{2 pi i w (n-1)}
_P24 = np.array([1, 24, 324, 3200, 25650, 176256, 1073720, 5930496, 30178575, 143184000,
                 639249300, 2705114880, 10914317934, 42189811200, 156883829400, 563116739584,
                 1956790259235, 6599620022400, 21651325216200, 69228721526400, 216108718571250],
                dtype=float)


@dataclass(frozen=True)
class QuantumStringConfig:
    """Integer length ratio s and the finite companion tension T_II, held as a Python float."""

    s: int
    tension_ii: float
    spacetime_dim: int = 26

    def __post_init__(self):
        _count("s", self.s)
        object.__setattr__(self, "tension_ii", float(_positive("tension_ii", self.tension_ii)))
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
    """Free energy and its derived quantities at one beta, these None where F diverges."""

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
    return _instance("mean_tension", cfg, QuantumStringConfig).tension_ii * cfg.s / (1.0 + cfg.s)


def translational_energy(cfg):
    """Translational energy pi * mean tension (equals the mass scale t)."""
    return math.pi * mean_tension(_instance("translational_energy", cfg, QuantumStringConfig))


def mass_squared_excess(cfg, occ):
    """Mass-squared above the vacuum for an occupation state.

    t(s) sum omega_n (N^a + N^a~) + 2 s t(s) sum omega_n N^c with first
    branch frequencies omega_n = (1 + s) n.  Additive over disjoint
    occupations; the divergent vacuum constants are not part of this
    (they survive only as the regularized constant in the free energy).
    """
    t = translational_energy(_instance("mass_squared_excess", cfg, QuantumStringConfig))
    _instance("mass_squared_excess", occ, OccupationState)
    rate, total = 1.0 + cfg.s, 0.0
    for modes, weight in ((occ.a_modes, t), (occ.a_tilde_modes, t), (occ.c_modes, 2.0 * cfg.s * t)):
        for (n, _i), number in modes.items():
            total += weight * rate * n * number
    return total


def hagedorn_beta(cfg):
    """Critical inverse temperature beta_c = (4/s) sqrt(pi (1+s) / T_II), finite and > 0:
    where pi (1+s) / T_II overflows, the roots are taken apart and (4/s) applied first."""
    s, tension = _instance("hagedorn_beta", cfg, QuantumStringConfig).s, cfg.tension_ii
    if math.pi * (1.0 + s) / tension < math.inf:
        return (4.0 / s) * math.sqrt(math.pi * (1.0 + s) / tension)
    return (4.0 / s) * math.sqrt(math.pi) * math.sqrt(1.0 + s) / math.sqrt(tension)


def _ln_theta3_minus_one(a):
    """ln(theta_3(0 | i a) - 1) = ln(2 sum_{n>=1} e^{-a n^2}) for a float array a > 0,
    and its derivative in a from the same truncated sums.

    Summed directly for a >= 1 and after Poisson summation, sum_n e^{-a n^2} =
    sqrt(pi/a) sum_n e^{-pi^2 n^2 / a}, below, each only where some a needs it;
    either way the terms left out are below e^{-48} of the sum.
    """
    hi = a >= 1.0
    if hi.all():
        k = np.arange(2, 8) ** 2 - 1.0
        terms = np.exp(-np.multiply.outer(a, k))
        tail = terms.sum(axis=-1)
        return math.log(2.0) - a + np.log1p(tail), -1.0 - terms @ k / (1.0 + tail)
    if hi.any():  # each part on its own
        out, slope = np.empty_like(a), np.empty_like(a)
        for part in (hi, ~hi):
            out[part], slope[part] = _ln_theta3_minus_one(a[part])
        return out, slope
    k = np.arange(1, 4) ** 2
    terms = np.exp(-np.multiply.outer(math.pi**2 / a, k))
    dual = terms.sum(axis=-1)
    ln_theta = 0.5 * np.log(math.pi / a) + np.log1p(2.0 * dual)
    part = -np.expm1(-ln_theta)  # (theta - 1) / theta
    dual_slope = 2.0 * math.pi**2 / np.maximum(a, 1e-3) ** 2  # terms is 0 below 1e-3, a^2 may be 0
    slope = (-0.5 / a + dual_slope * (terms @ k) / (1.0 + 2.0 * dual)) / part
    return ln_theta + np.log(part), slope


def _phases(s, n_tau1):
    """The distinct folded phases |r - round(r)| of the n_tau1 nodes, r = (1+s) tau_1, their
    counts and N = n_tau1 / g, g = gcd(n_tau1, 1+s): r = m / (2N) mod 1 takes each m of the parity
    of (1+s) N g times, so a phase m / (2N), 0 <= m <= N, comes from m and from 2N - m."""
    g = math.gcd(n_tau1, 1 + s)
    n = n_tau1 // g
    m = np.arange((1 + s) * n % 2, n + 1, 2)
    return m / (2.0 * n), g * (2 - (m == 0) - (m == n)), n


def _ln_eta_imag(w):
    """ln eta(i w) at a float array w > 0, and that plus pi / (12 w), free of 1/w terms:
    eta(i w) = w^{-1/2} eta(i / w) below w = 1, then ``modular``'s pentagonal series."""
    v = np.maximum(w, 1.0 / w)
    q = np.exp(-2.0 * math.pi * v)
    q2 = q * q
    regular = np.log1p(q2 * q2 * q * (1.0 + q2) - q - q2) - 0.5 * np.log(np.minimum(w, 1.0))
    return regular - math.pi / 12.0 * v, regular + math.pi / 12.0 * (1.0 / w - v)


def _ln_level_sum(y):
    """ln Int_{-1/2}^{1/2} du |eta(u + i y)|^{-48} = ln sum_n p_24(n)^2 e^{-4 pi y (n-1)}
    for a float array y, cut at n = 20: the level-matched terms of |eta^{-24}|^2."""
    levels = np.exp(np.multiply.outer(-4.0 * math.pi * y, np.arange(len(_P24))) + 2.0 * np.log(_P24))
    return 4.0 * math.pi * y + np.log(levels.sum(axis=-1))  # row by row, as the fold's sums


def _log_integrand(tau2, s, beta, t, n_tau1, shift=-math.inf):
    """Rows ln(tau_2 I(tau_2)) at an array of tau_2, the tau_1 integral the n_tau1-node
    trapezoid of the periodic direction; the summed magnitude of its terms, which sets its
    rounding error (about that times eps); and its beta derivative, each node by the routes
    of the module docstring.  Row 0 is -inf where the ray bound is 746 e-folds below ``shift``
    (None: node 0's row, where it takes the level sum).  eta is taken at the distinct folded
    phases of ``_phases`` (17, 33, 9 of 64 nodes for s = 1, 2, 3) weighted by their counts, about
    _ETA_BLOCK per eta call.  Rows 0 and 1 of an element are the bits a call on it alone gives.
    """
    (phase, count, n), y = _phases(s, n_tau1), (1.0 + s) * tau2
    level = y >= max(0.408, (5.87 + 1.38 * math.sqrt(n)) / n)  # aliasing falls as e^{-2 pi n y}
    ln_tau1 = np.full(tau2.shape, -math.inf)
    ln_tau1[level] = _ln_level_sum(y[level])
    with np.errstate(over="ignore"):  # a overflows only an ulp or more below tau2_max
        a = beta * beta * t / (8.0 * math.pi**2 * tau2)
        ln_theta, d_theta = _ln_theta3_minus_one(a)
        slope = 2.0 * a / beta * d_theta
        (ln_eta_imag, _), (regular, regular_y) = _ln_eta_imag(np.array([2.0 * s * (1.0 + s) * tau2, y]))
        terms = [ln_theta, -24.0 * ln_eta_imag, -13.0 * np.log(tau2)]
        # |eta(tau)| >= eta(i Im tau); the 1/tau_2 terms of the bound make -delta/tau_2 at once
        delta = max(beta * beta * t / (8.0 * math.pi**2) - math.pi * (4 * s + 1) / (s * (1 + s)), 0.0)
        bound = (np.where(a < 1.0, ln_theta + np.minimum(a, 1.0), math.log(-2.0 / math.expm1(-3.0)))
                 - 24.0 * regular - 48.0 * regular_y + terms[2] - delta / tau2)
    if shift is None:
        shift = sum(terms)[0] + ln_tau1[0] if level[0] else -math.inf
    ray = np.flatnonzero(~level & (bound >= shift - 746.0))
    rows = max(1, _ETA_BLOCK // phase.size)
    for part in (ray[lo : lo + rows] for lo in range(0, ray.size, rows)):
        powers = -48.0 * log_abs_dedekind_eta(phase + 1j * y[part, None])
        top = powers.max(axis=1)
        sums = (np.exp(powers - top[:, None]) * count).sum(axis=1)  # row by row, not BLAS
        ln_tau1[part] = top + np.log(sums / n_tau1)
    terms.append(ln_tau1)
    return np.array([sum(terms), sum(np.abs(term) for term in terms) + 1.0, slope])


def free_energy(cfg, beta, tau2_max=1.0, n_tau1=64, max_octaves=48):
    """One-loop free energy F of the first-branch string gas at inverse temperature beta,
    with U = d(beta F)/d beta, S = beta^2 dF/d beta and the residual of F = U - S/beta;
    dF/d beta = -term J'/J, J and J' the sums of rows 0 and 2 of F's one kernel pass.  Below
    beta*, where delta(beta) < 0 (see the module docstring), the result is flagged
    ``diverged-below-hagedorn`` with ``free_energy`` = -inf, the direction in which the
    integral term runs away, and U, S and the residual None; a delta within 4 eps of its
    terms is delta = 0, which converges.  Otherwise the integral over v = ln(tau2_max / tau_2)
    in (0, max_octaves ln 2] is a trapezoid sum after the double-exponential map of the contour
    routes, which also resolves the tau2_max end, where the integrand is largest.  Its
    normalisation is row 0 at the contour's first node, v = e^{-94.5}, where tau_2 is tau2_max;
    where that is -inf, F is the constant.  Past those two returns, DomainError where the log
    integrand's largest term, 4 pi s (1+s) tau2_max, is not a float.  ``abs_error_estimate``
    bounds the kernel's discretization and noise, the rounding of the log integrand and of its
    exponential, about |ln| eps relative with |ln| up to hundreds, and the rounding of F itself.
    """
    _instance("free_energy", cfg, QuantumStringConfig)
    beta = float(_positive("beta", beta))  # a numpy beta would warn where beta^2 overflows
    _positive("tau2_max", tau2_max)
    if _count("n_tau1", n_tau1) > 1 << 16:  # so that a tau_2 node's phases fit in one eta block
        raise DomainError(f"n_tau1 must be at most 65536, got {n_tau1}")
    _count("max_octaves", max_octaves)
    if math.log(tau2_max) - max_octaves * math.log(2.0) < -660.0:
        raise DomainError("tau2_max / 2^max_octaves must exceed e^-660")
    s, t = cfg.s, translational_energy(cfg)
    constant = -((s - 1) ** 2) / (24 * s)  # -(s + 1/s - 2)/24, rounded once, in integers
    heat, vacuum = beta * beta * t / (8.0 * math.pi**2), math.pi * (4.0 * s + 1.0) / (s * (1.0 + s))
    if heat - vacuum < -4.0 * _EPS * (heat + vacuum):  # delta < 0 beyond the rounding of its terms
        return ThermoResult(-math.inf, beta, "diverged-below-hagedorn")
    if beta * beta * t / (8.0 * math.pi**2 * tau2_max) == math.inf:  # a overflows: F is the constant
        return ThermoResult(constant, beta, "converged", constant + 0.0, 0.0, 0.0, _EPS * abs(constant))
    if not 4.0 * math.pi * s * (1.0 + s) * tau2_max < math.inf:  # -24 ln eta at tau2_max
        raise DomainError(f"s={s:.4g} puts 4 pi s (1+s) tau2_max, the modulus integrand's "
                          "largest term, past the float range")
    shift = None

    def f(v):
        nonlocal shift
        rows = _log_integrand(tau2_max * np.exp(-v), s, beta, t, n_tau1, shift)
        shift = float(rows[0, 0]) if shift is None else shift  # the first node is tau2_max
        excess = rows[0] - shift
        if not np.all(excess <= 700.0):  # near delta = 0, rounding at small tau_2
            raise QuadratureError(f"modulus integrand not representable (s={s}, beta={beta})")
        rows[0], rows[1] = 1.0, _EPS * rows[1]  # the value, its rounding, its beta slope
        rows[:, excess < -746.0] = 0.0  # e^excess = 0: no 0 * inf where a overflowed
        return np.exp(excess) * rows

    (integral, _, d_integral), err = _contour(f, 1.0, max_octaves * math.log(2.0))
    ln_prefactor = -40.0 * math.log(2.0) - 26.0 * math.log(math.pi) - 13.0 * math.log(t)
    ln_term = ln_prefactor + shift + math.log(integral)
    if ln_term > 700.0:
        raise QuadratureError(f"modulus integral not representable in double precision "
                              f"(ln {ln_term:.4g}); lower tau2_max")
    term = math.exp(ln_term)
    error = term * (err / integral + _EPS * (abs(ln_term) + abs(ln_prefactor)))
    error += _EPS * abs(constant - term)  # the rounding of the constant and of F
    value, slope = constant - term, -term * d_integral / integral
    u = value + beta * slope
    entropy = beta * beta * slope if slope else slope  # 0, not inf * 0, where beta^2 overflows
    return ThermoResult(value, beta, "converged", u, entropy, abs(value - u + entropy / beta), error)


def thermo_derivatives(cfg, beta, step_frac=1e-3, tau2_max=1.0):
    """``free_energy`` at beta, with U, S and the residual of F = U - S/beta from
    its one kernel pass; ``step_frac`` must lie in (0, 1) but no longer changes
    the result.  Below beta*, where F diverges, raises QuadratureError."""
    _real("step_frac", step_frac, lambda v: 0 < v < 1, "in (0, 1)")
    res = free_energy(cfg, beta, tau2_max)
    if res.convergence_flag != "converged":
        raise QuadratureError(f"free energy diverged below the Hagedorn point at beta={beta}")
    return res
