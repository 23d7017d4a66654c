"""Finite-temperature Casimir energies by Matsubara summation.

The thermal energy replaces the imaginary-axis integral of :mod:`.energy`
by the primed sum over Matsubara frequencies xi_n = 2 pi n T (n = 0 term
at half weight, evaluated through the analytic xi -> 0 limit of the
summand): the trapezoid rule with step 2 pi T for the same integrand in xi,
``energy._integrand``, of both geometries.  It is summed over sub-lattices
from 8 to 15 nodes down to the full lattice.
The summand is even and analytic for x > 0, so the sub-lattice sums
converge exponentially; once two agree within rounding the sum stops, at a
cost bounded in T.  At x = 0 the dropped 2N zero mode leaves a T ln T term
and the full lattice is summed.
"""

import math
from dataclasses import dataclass

from .core import NPieceConfig, StringConfig, imag_axis_log_ratio, tension_contrast
from .energy import EnergyResult, _integrand, _representable, _trapezoid, _vanishes
from .errors import DomainError, _instance, _positive, _real

__all__ = ["ThermalConfig", "casimir_two_piece_thermal", "high_t_limit", "mirror_limit",
           "casimir_2n_thermal", "casimir_2n_thermal_x0", "frequency_ratio"]


@dataclass(frozen=True)
class ThermalConfig:
    """Temperature in energy units (k_B = 1)."""

    temperature: float

    def __post_init__(self):
        _real("temperature", self.temperature, lambda v: v >= 0, ">= 0")

    def matsubara(self, n):
        return 2.0 * math.pi * n * self.temperature

    @property
    def beta(self):
        return 1.0 / _positive("temperature", self.temperature)


def _temperature(name, cfg, kind, th):
    """``th.temperature`` once ``name`` is given a ``kind`` and a ThermalConfig."""
    _instance(name, cfg, kind)
    return _instance(name, th, ThermalConfig).temperature


def _matsubara(f, b, h):
    """h [f(0)/2 + sum_{n>=1} f(n h)] over n h <= b, as a result; with h = 2 pi T and
    f = (1/2 pi) ln|ratio| it is T times the primed sum of ln|ratio(xi_n)|."""
    nodes = b / h if 0 < h < math.inf else math.inf
    if not math.isfinite(nodes):  # h underflows (T too small) or overflows (T too large)
        raise DomainError(f"temperature out of range: the Matsubara step {h:g} under- or overflows")
    k = max(0, int(nodes).bit_length() - 4)  # the coarsest level has 8 to 15 nodes
    value, err, _ = _trapezoid(f, 0.0, b, h * 2**k, halvings=k)
    return EnergyResult(_representable(value), "matsubara", err)


def casimir_two_piece_thermal(cfg, th):
    """Thermal Casimir energy of the two-piece string (Matsubara form).

    T = 0 callers should use :func:`..energy.casimir_two_piece`; the sum
    vanishes identically for s = 1 and for the uniform string x = 1.
    """
    t = _positive("temperature", _temperature("casimir_two_piece_thermal", cfg, StringConfig, th))
    if _vanishes(cfg):
        return EnergyResult(0.0, "analytic-limit", 0.0)
    return _matsubara(*_integrand(cfg), 2.0 * math.pi * t)


def high_t_limit(cfg, th):
    """High-temperature form: the n = 0 Matsubara term alone,

        E(T) = (T/2) ln[(F + 4s/(s+1)^2) / (F + 1)].

    Valid once the thermal frequency exceeds the geometric one
    (``frequency_ratio`` >= 1).
    """
    t = _positive("temperature", _temperature("high_t_limit", cfg, StringConfig, th))
    value = 0.5 * t * imag_axis_log_ratio(0.0, cfg)
    return EnergyResult(_representable(value), "analytic-limit", 0.0)


def mirror_limit(x, th, printed_form=False):
    """Large-companion limit (s -> infinity) of the high-temperature energy,

        E(T) = -(T/2) ln(1 + 1/F(x)).

    The temperature prefactor is restored here for dimensional consistency
    with the finite-s high-temperature form; ``printed_form`` drops it to
    reproduce the bare -(1/2) ln(1 + 1/F) variant.
    """
    _real("x", x, lambda v: 0 < v < 1, "in (0, 1)")
    _positive("temperature", _instance("mirror_limit", th, ThermalConfig).temperature)
    value = -0.5 * math.log1p(1.0 / tension_contrast(x))
    if not printed_form:
        value *= th.temperature
    return EnergyResult(_representable(value), "analytic-limit", 0.0)


def casimir_2n_thermal(cfg, th):
    """Thermal Casimir energy of the 2N-piece string (Matsubara form).

    Vanishes identically for x = 1 and for N = 1.  At x = 0 with N >= 2
    the n = 0 summand diverges logarithmically (each decoupled piece
    contributes a classical zero mode), so that term is omitted and the
    remaining sum is finite.
    """
    t = _positive("temperature", _temperature("casimir_2n_thermal", cfg, NPieceConfig, th))
    if _vanishes(cfg):
        return EnergyResult(0.0, "analytic-limit", 0.0)
    return _matsubara(*_integrand(cfg), 2.0 * math.pi * t)


def casimir_2n_thermal_x0(piece_pairs, th, total_length):
    """Decoupled-limit thermal energy,

        E = 2T sum'_{n>=0} ln[2^N sinh^N(xi_n L / 2N) / (2 sinh(xi_n L / 2))],

    that is :func:`casimir_2n_thermal` at x = 0.  The n = 0 summand is ln of
    a quantity vanishing like xi^{N-1} (extra zero modes of the N decoupled
    pieces) and is omitted for N >= 2.
    """
    return casimir_2n_thermal(NPieceConfig(piece_pairs, 0.0, total_length), th)


def frequency_ratio(cfg, th):
    """Thermal-to-geometric frequency ratio  T L_I / (2 pi).

    >= 1 marks the high-temperature regime (the n = 0 Matsubara term
    dominates); << 1 the low-temperature regime.
    """
    t = _temperature("frequency_ratio", cfg, StringConfig, th)
    return t * cfg.piece_length_i / (2.0 * math.pi)
