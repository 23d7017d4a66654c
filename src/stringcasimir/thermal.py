"""Finite-temperature Casimir energies by Matsubara summation.

The thermal energy replaces the imaginary-axis integral of :mod:`.energy`
by the primed sum over Matsubara frequencies xi_n = 2 pi n T (n = 0 term
at half weight, evaluated through the analytic xi -> 0 limit of the
summand): the trapezoid rule with step 2 pi T for the same integral.  It
is summed over sub-lattices from 8 to 15 nodes down to the full lattice.
The summand is even and analytic for x > 0, so the sub-lattice sums
converge exponentially; once two agree within rounding the sum stops, at a
cost bounded in T.  At x = 0 the dropped 2N zero mode leaves a T ln T term
and the full lattice is summed.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import NPieceConfig, imag_axis_log_ratio, log_sinh
from .energy import EnergyResult, _trapezoid, _two_n_integrand, _two_piece_integrand
from .errors import DomainError

__all__ = ["ThermalConfig", "casimir_two_piece_thermal", "high_t_limit", "mirror_limit",
           "casimir_2n_thermal", "casimir_2n_thermal_x0", "frequency_ratio"]


@dataclass(frozen=True)
class ThermalConfig:
    """Temperature in energy units (k_B = 1)."""

    temperature: float

    def __post_init__(self):
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise DomainError(f"temperature must be finite and >= 0, got {self.temperature}")

    def matsubara(self, n):
        return 2.0 * math.pi * n * self.temperature

    @property
    def beta(self):
        if self.temperature == 0:
            raise DomainError("beta undefined at T = 0")
        return 1.0 / self.temperature


def _matsubara(f, b, h, floor=0.0):
    """h/(2 pi) [f(0)/2 + sum_{n>=1} f(n h)] over n h <= b, as a result."""
    nodes = b / h if h > 0 else math.inf
    if not math.isfinite(nodes):  # a temperature so small that h underflows
        raise DomainError(f"temperature too small: the Matsubara step {h:g} underflows")
    k = max(0, int(nodes).bit_length() - 4)  # the coarsest level has 8 to 15 nodes
    value, err, _ = _trapezoid(f, 0.0, b, h * 2**k, halvings=k, floor=floor)
    return EnergyResult(value, "matsubara", err)


def casimir_two_piece_thermal(cfg, th):
    """Thermal Casimir energy of the two-piece string (Matsubara form).

    T = 0 callers should use :func:`..energy.casimir_two_piece`; the sum
    vanishes identically for s = 1 and for the uniform string x = 1.
    """
    if th.temperature <= 0:
        raise DomainError("casimir_two_piece_thermal requires T > 0")
    if cfg.tension_ratio == 1.0:
        return EnergyResult(0.0, "analytic-limit", 0.0)
    f, xi_max = _two_piece_integrand(cfg)
    return _matsubara(f, xi_max, 2.0 * math.pi * th.temperature)


def high_t_limit(cfg, th):
    """High-temperature form: the n = 0 Matsubara term alone,

        E(T) = (T/2) ln[(F + 4s/(s+1)^2) / (F + 1)].

    Valid once the thermal frequency exceeds the geometric one
    (``frequency_ratio`` >= 1).
    """
    if th.temperature <= 0:
        raise DomainError("high_t_limit requires T > 0")
    if cfg.tension_ratio == 1.0:
        return EnergyResult(0.0, "analytic-limit", 0.0)
    value = 0.5 * th.temperature * imag_axis_log_ratio(0.0, cfg)
    return EnergyResult(value, "analytic-limit", 0.0)


def mirror_limit(x, th, printed_form=False):
    """Large-companion limit (s -> infinity) of the high-temperature energy,

        E(T) = -(T/2) ln(1 + 1/F(x)).

    The temperature prefactor is restored here for dimensional consistency
    with the finite-s high-temperature form; ``printed_form`` drops it to
    reproduce the bare -(1/2) ln(1 + 1/F) variant.
    """
    if not 0.0 < x < 1.0:
        raise DomainError(f"x must lie in (0, 1), got {x}")
    if th.temperature <= 0:
        raise DomainError("mirror_limit requires T > 0")
    f = 4.0 * x / (1.0 - x) ** 2
    value = -0.5 * math.log1p(1.0 / f)
    if not printed_form:
        value *= th.temperature
    return EnergyResult(value, "analytic-limit", 0.0)


def casimir_2n_thermal(cfg, th):
    """Thermal Casimir energy of the 2N-piece string (Matsubara form).

    Vanishes identically for x = 1 and for N = 1.  At x = 0 with N >= 2
    the n = 0 summand diverges logarithmically (each decoupled piece
    contributes a classical zero mode), so that term is omitted; the
    remaining sum is finite and matches :func:`casimir_2n_thermal_x0`.
    """
    if th.temperature <= 0:
        raise DomainError("casimir_2n_thermal requires T > 0")
    n = cfg.piece_pairs
    if cfg.tension_ratio == 1.0 or n == 1:
        return EnergyResult(0.0, "analytic-limit", 0.0)
    f, q_max = _two_n_integrand(cfg)
    return _matsubara(f, q_max, 2.0 * math.pi * th.temperature * cfg.total_length / n)


def casimir_2n_thermal_x0(piece_pairs, th, total_length):
    """Decoupled-limit thermal energy,

        E = 2T sum'_{n>=0} ln[2^N sinh^N(xi_n L / 2N) / (2 sinh(xi_n L / 2))].

    The n = 0 summand is ln of a quantity vanishing like xi^{N-1} (extra
    zero modes of the N decoupled pieces) and is omitted for N >= 2, the
    same convention as :func:`casimir_2n_thermal` at x = 0.
    """
    cfg = NPieceConfig(piece_pairs, 0.0, total_length)  # checks N and L
    if th.temperature <= 0:
        raise DomainError("casimir_2n_thermal_x0 requires T > 0")
    n = piece_pairs
    if n == 1:
        return EnergyResult(0.0, "analytic-limit", 0.0)
    prefactor = n / (2.0 * math.pi * total_length)

    def f(q):  # the summand in q = xi_n L / N, its n = 0 term dropped
        with np.errstate(invalid="ignore"):
            v = 2.0 * ((n - 1) * math.log(2.0) + n * log_sinh(q / 2.0) - log_sinh(n * q / 2.0))
        return prefactor * np.where(q > 0.0, v, 0.0)

    # the log sinh terms round their parts linear in q, about eps N q a node
    _, q_max = _two_n_integrand(cfg)
    floor = sys.float_info.epsilon * n * q_max**2 * prefactor
    return _matsubara(f, q_max, 2.0 * math.pi * th.temperature * total_length / n, floor)


def frequency_ratio(cfg, th):
    """Thermal-to-geometric frequency ratio  T L_I / (2 pi).

    >= 1 marks the high-temperature regime (the n = 0 Matsubara term
    dominates); << 1 the low-temperature regime.
    """
    return th.temperature * cfg.piece_length_i / (2.0 * math.pi)
