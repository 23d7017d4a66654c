"""Finite-temperature Casimir energies by Matsubara summation and by mode sums.

The thermal energy replaces the imaginary-axis integral of :mod:`.energy`
by the primed sum over Matsubara frequencies xi_n = 2 pi n T (n = 0 term
at half weight, evaluated through the analytic xi -> 0 limit of the
summand): the trapezoid rule with step 2 pi T for the same integrand in xi,
``energy._integrand``, of both geometries.  It is summed over sub-lattices
from 8 to 15 nodes down to the full lattice.
The summand is even and analytic for x > 0, so the sub-lattice sums
converge exponentially; once two agree within rounding the sum stops, at a
cost bounded in T.

For 0 < x < 1 the 2N modes are the closed-form Bloch spectrum, so the sum's
Poisson dual runs instead where its terms cost at most the lattice's nodes
plus one call's overhead (``_thermal``): E_N plus T sum ln(1 - e^{-omega/T})
over the modes, each paired with the uniform string's mode it replaces, in
one array pass whatever x.  Only the pairs whose lower mode lies below 40 T
are built, a prefix of the Bloch angles on the + branches and a suffix on
the - branches (``_ranges``), so their number follows the uniform modes
below 40 T, not N; the rest are bounded in the bar (``_left_out``).  E_N is
the exact Bloch sum up to N = 1024 and the contour of :mod:`.energy` above.
At x = 0, where the dropped 2N zero mode leaves a T ln T term, the sum is
2T [N ln phi(e^{-c}) - ln phi(e^{-Nc})], c = 2 pi T L/N, phi(q) = prod (1 - q^n),
in closed form through the modular transformation of the Dedekind eta.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import NPieceConfig, StringConfig, _bloch_angles, imag_axis_log_ratio, tension_contrast
from .energy import _NOISE, EnergyResult, _bloch_energy, _integrand, _representable, casimir_2n
from .energy import _trapezoid, _vanishes
from .errors import DomainError, _instance, _positive, _real

__all__ = ["ThermalConfig", "casimir_two_piece_thermal", "high_t_limit", "mirror_limit",
           "casimir_2n_thermal", "casimir_2n_thermal_x0", "frequency_ratio"]

_REACH = 40.0  # omega/T of the lower modes the 2N mode sum takes: a pair past it is below e^{-40}
_MAX_PAIRS = 1 << 17  # most pairs of a mode sum's two ranges, whose arrays then peak near 17 MB
_EXACT_PAIRS = 1 << 10  # most N whose E_N is the Bloch sum; it and the contour take 0.06-0.1 ms here
_TERM_COST = 3.0  # lattice nodes that take as long as one mode-sum term: 2.5 to 3.6 at N = 2^14-2^17
_CALL_COST = 256.0  # lattice nodes that take as long as a lattice call's overhead over a mode sum's


@dataclass(frozen=True)
class ThermalConfig:
    """Temperature in energy units (k_B = 1), held as a Python float."""

    temperature: float

    def __post_init__(self):
        object.__setattr__(self, "temperature", float(_real("temperature", self.temperature,
                                                             lambda v: v >= 0, ">= 0")))

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
    k = max(0, int(b / h).bit_length() - 4)  # the coarsest level has 8 to 15 nodes
    value, err, _ = _trapezoid(f, 0.0, b, h * 2**k, halvings=k)
    return EnergyResult(_representable(value), "matsubara", err)


def _thermal(name, cfg, kind, th):
    """The thermal energy of ``cfg``, a ``kind``, after the lattice's checks: 2N at x = 0 in closed
    form, else the mode sum where its ranges hold at most _MAX_PAIRS pairs and their terms, the
    pairs times the periods below 40 T plus one, cost at most the lattice's b/h nodes plus one
    call's overhead, else the lattice."""
    t = _positive("temperature", _temperature(name, cfg, kind, th))
    if _vanishes(cfg):
        return EnergyResult(0.0, "analytic-limit", 0.0)
    (f, b), h = _integrand(cfg), 2.0 * math.pi * t
    nodes = b / h  # the lattice's; h > 0 as T is
    if not (h < math.inf and math.isfinite(nodes)):  # T too small or too large
        raise DomainError(f"temperature out of range: the Matsubara step {h:g} under- or overflows")
    if kind is NPieceConfig:
        if cfg.tension_ratio == 0.0:
            return _decoupled_sum(cfg, t)
        prefix, suffix, periods = _ranges(cfg, t)
        terms = (prefix + suffix) * (periods / cfg.piece_pairs + 1.0)
        if prefix + suffix <= _MAX_PAIRS and _TERM_COST * terms <= nodes + _CALL_COST:
            return _mode_sum(cfg, t)
    return _matsubara(f, b, h)


def casimir_two_piece_thermal(cfg, th):
    """Thermal Casimir energy of the two-piece string (Matsubara form).

    T = 0 callers should use :func:`..energy.casimir_two_piece`; the sum
    vanishes identically for s = 1 and for the uniform string x = 1.
    """
    return _thermal("casimir_two_piece_thermal", cfg, StringConfig, th)


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
    """Thermal Casimir energy of the 2N-piece string: the mode sum (``mode-sum``)
    for 0 < x < 1 where it costs less than the lattice (``_thermal``), else the Matsubara sum.

    Vanishes identically for x = 1 and for N = 1.  At x = 0 with N >= 2
    the n = 0 summand diverges logarithmically (each decoupled piece
    contributes a classical zero mode), so that term is omitted and the
    remaining sum is finite; it is taken in closed form (``analytic-limit``)
    at any T.  Every route runs after the lattice's checks.
    """
    return _thermal("casimir_2n_thermal", cfg, NPieceConfig, th)


def _decoupled_sum(cfg, t):
    """The x = 0 sum, its n = 0 term omitted, in closed form as a result:
    E = 2T [N ln phi(e^{-2 pi y}) - ln phi(e^{-2 pi N y})], y = TL/N, phi(q) = prod (1 - q^n).
    For z >= 1, 2T ln phi(e^{-2 pi z}) is -2T q as one exp, a float even where q underflows, plus
    2T [log1p(-q - q^2 + q^5 + q^7) + q] (Euler's pentagonal series, to below q^12 < 1e-32); below,
    eta(iz) = z^{-1/2} eta(i/z) gives pi z/12 - ln(z)/2 - pi/(12 z) + ln phi(e^{-2 pi/z}), and where
    both terms take that form their pi z/12 cancel algebraically.  The bar is 64 eps times each
    term's size times 1 + its exponent 2 pi z or 2 pi/z, which amplifies z's rounding."""
    n, tl = cfg.piece_pairs, t * cfg.total_length
    y = t * (cfg.total_length / n)  # > 0, as the lattice's checks hold; tl may be inf
    terms = []  # (a term of E, its exponent)
    for weight, z in ((n, y), (-1.0, tl)):
        if z < 1.0:
            terms += [(-t * (weight * math.log(z)), 0.0),
                      (-2.0 * t * (weight * math.pi / (12.0 * z)), 0.0)]
            z = 1.0 / z
        q, e = math.exp(-2.0 * math.pi * z), 2.0 * math.pi * z
        lead = math.exp(math.log(2.0 * t) + math.log(abs(weight)) - e)
        rest = 2.0 * t * (weight * (math.log1p(-q - q * q + q**5 + q**7) + q))
        terms += [(-math.copysign(lead, weight), e), (rest, e)]
    if y < 1.0 <= tl:  # the first term's N pi y/12 has no partner
        terms.append((t * (math.pi * tl / 6.0), 0.0))
    value = math.fsum(v for v, _ in terms)
    bar = _NOISE * math.fsum(abs(v) * (1.0 + e) for v, e in terms if v)
    return EnergyResult(_representable(value), "analytic-limit", bar)


def _ranges(cfg, t):
    """(p, s, periods): the prefix m = 1..p of + branch pairs, whose lower mode N theta_m/L lies
    below _REACH T where sin(pi m/N) < sin(20TL/N)/sqrt(w); the suffix of the last s m <= N/2 on
    the - branches, whose lower mode, the uniform 2 pi (N - m)/L, lies there where
    m > N - 20TL/pi; and 40TL/2 pi, the periods 2 pi N/L below _REACH T.  From one period up
    both ranges are every m >= 1."""
    n, x, reach = cfg.piece_pairs, cfg.tension_ratio, _REACH * t * cfg.total_length
    root, half = 2.0 * math.sqrt(x) / (1.0 + x), reach / (2.0 * n)  # sqrt(w), theta/2 at _REACH T
    ratio = math.sin(half) / root if half < 0.5 * math.pi else 1.0  # sin(pi m/N) at _REACH T
    prefix = n // 2 if ratio >= 1.0 else min(n // 2, math.floor(n * (math.asin(ratio) / math.pi)))
    periods = reach / (2.0 * math.pi)
    return prefix, max(0, n // 2 - math.floor(max(0.0, n - periods))), periods


def _left_out(cfg, t, prefix, suffix):
    """A bound on the pairs that ``_ranges`` leaves out, each at every period.  A pair's term is
    at most T e^{-a} (1 - e^{-delta}) / (1 - e^{-a}), a its lower mode and delta its gap over T.
    Each branch holds N - 1 pairs a period, counted with multiplicity, and the next period's lie
    e^{-2 pi N/(L T)} times further.  The gap phi - theta grows with m, as
    d theta/d phi = sqrt(w) cos(phi/2)/cos(theta/2) <= 1, and sin(gap/2) is at most alpha and at
    most alpha^2 tan(phi/2)/(1 + sqrt(w)), as cos(theta/2) >= cos(phi/2): so the bound keeps the
    terms' alpha^2 as x -> 1.  The - branches leave out m up to N/2 - s, at or past the lower
    mode and under the gap of the last; the + branches m from p + 1, at or past its lower mode,
    under the gap at phi = pi/2 up to there, and past it at least N theta/L, sin(theta/2) =
    sqrt(w/2).  It is taken twice over, for the rounding of the modes and of the ranges."""
    n, x, top = cfg.piece_pairs, cfg.tension_ratio, cfg.piece_pairs // 2
    if prefix == top == suffix:
        return 0.0
    root, alpha = 2.0 * math.sqrt(x) / (1.0 + x), (1.0 - x) / (1.0 + x)
    scale = n * min(1.0 / cfg.total_length / t, 1e300)  # omega/T per unit angle

    def edge(m):  # 1 - e^{-delta} at the widest gap up to m, sin and cos of phi/2 as in the angles
        sin_phi, cos_phi = math.sin(m * (math.pi / n)), math.sin((0.5 * n - m) * (math.pi / n))
        wide = alpha if cos_phi == 0.0 else min(alpha, alpha * alpha * sin_phi / (1.0 + root) / cos_phi)
        return -math.expm1(-scale * 2.0 * math.asin(wide))

    total = 0.0
    if suffix < top:
        last = top - suffix
        total += math.exp(-scale * (2.0 * math.pi * ((n - last) / n))) * edge(last)
    if prefix < top:
        low = scale * 2.0 * math.asin(root * math.sin(math.pi * (prefix + 1) / n))
        high = max(low, scale * 2.0 * math.asin(math.sqrt(0.5) * root))
        total += math.exp(-low) * edge(0.25 * n) + math.exp(-high) * edge(0.5 * n)
    return 2.0 * t * (n - 1.0) * total / -math.expm1(-2.0 * math.pi * scale)


def _pair_terms(start, delta, mult, t, scale, periods):
    """(sum, bar) of T [ln(1 - e^{-a}) - ln(1 - e^{-a - delta})] times the signed multiplicity over
    the pairs, a = scale (2 pi j + start) their lower mode over T in each of ``periods`` periods
    and delta their gap over T.  The bar adds the terms' rounding (a to a few eps moves a term by
    (1 + a) eps times itself) and the tail past the last period."""
    edge = -np.expm1(-delta)
    lower = scale * (2.0 * math.pi * np.arange(periods)[:, None] + start)
    down = -lower
    upper = np.expm1(down - delta)  # e^{-omega/T} - 1 of the upper mode of each pair
    # ln(1 - e^{-lower}) - ln(1 - e^{-upper}) = log1p(q) <= 0, or the log of the ratio below 1/2
    q = np.exp(down) * edge / upper
    pair = np.log(np.expm1(down) / upper)
    np.log1p(q, out=pair, where=q >= -0.5)
    terms = (t * pair * mult).ravel()
    bar = _NOISE * math.fsum((np.abs(terms) * (1.0 + lower.ravel())).tolist())
    # past the grid each branch is below its next term over 1 - e^{-2 pi N/(L T)}, twice over
    tail = np.exp(-(lower[-1] + 2.0 * math.pi * scale)) * (np.abs(mult) * edge)
    bar += 2.0 * t * math.fsum(tail.tolist()) / -math.expm1(-2.0 * math.pi * scale)
    return math.fsum(terms.tolist()), bar


def _mode_sum(cfg, t):
    """E_N + T [sum_modes ln(1 - e^{-omega/T}) - 2 sum_{k>=1} ln(1 - e^{-2 pi k/(L T)})], the free
    energy less the uniform string's, as a result.  Each Bloch mode N(2 pi j +- theta_m)/L is
    paired with the uniform mode N(2 pi j +- phi_m)/L (at m = 0 the two coincide, the shared
    zero mode too); a pair's term, from the lower mode and the gap N(phi_m - theta_m)/L, keeps its
    relative accuracy as x -> 1.  Only the pairs of ``_ranges`` are summed, on one grid of j past
    omega = _REACH T; every other pair has its lower mode past _REACH T.  Up to N = _EXACT_PAIRS,
    E_N is the Bloch sum ``_bloch_energy`` over every angle, and the ranges' angles are its;
    above, E_N is the contour ``casimir_2n`` and the angles of the ranges alone are built.
    The bar adds E_N's, ``_pair_terms``' and ``_left_out``'s."""
    n, (prefix, suffix, periods) = cfg.piece_pairs, _ranges(cfg, t)
    top = n // 2
    if n <= _EXACT_PAIRS:
        angles = _bloch_angles(cfg)
        energy, bar = _bloch_energy(cfg, angles)
        plus, minus = slice(1, prefix + 1), slice(top + 1 - suffix, top + 1)  # m = 0 is no pair
    else:
        zero = casimir_2n(cfg)
        energy, bar = zero.value, zero.abs_error_estimate
        m, later = np.arange(1, prefix + 1), max(top - suffix, prefix) + 1
        if later <= top:  # the union of the ranges
            m = np.concatenate([m, np.arange(later, top + 1)])
        angles = _bloch_angles(cfg, m) if m.size else None
        plus, minus = slice(0, prefix), slice(m.size - suffix, m.size)
    bar += _left_out(cfg, t, prefix, suffix)
    if not prefix + suffix:
        return EnergyResult(_representable(energy), "mode-sum", bar)
    (theta, _, gap, rest_phi), mult = angles
    scale = n * min(1.0 / cfg.total_length / t, 1e300)  # omega/T per unit angle, 0 terms past 1e300
    # per pair, on the + branches then the - branches: the lower mode's angle within a period
    # (the 2N one on the + branches, the uniform one on the -), the gap, the signed multiplicity
    start, delta, mult = np.concatenate([theta[plus], math.pi + rest_phi[minus], gap[plus],
                                         gap[minus], mult[plus], -mult[minus]]).reshape(3, -1)
    value, terms_bar = _pair_terms(start, scale * delta, mult, t, scale, int(periods / n) + 1)
    return EnergyResult(_representable(energy + value), "mode-sum", bar + terms_bar)


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
