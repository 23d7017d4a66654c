"""Exponential-cutoff regularization: the slow, independent oracle.

Each mode is damped by exp(-eps * omega), the same damped sum is computed
for the uniform reference string of equal total length (whose asymptotic
mode density matches, so the 1/eps^2 divergences cancel in the
difference), and the damping parameter is extrapolated to zero through a
quadratic fit.  Deliberately built on explicitly enumerated spectra
rather than the contour machinery it cross-checks.
"""

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .core import StringConfig
from .energy import EnergyResult
from .errors import DomainError, ExtrapolationUnstableError, SpectrumTruncationError
from .errors import _instance, _positive, _real
from .spectrum import _BISECT_RTOL, Spectrum, _omega_limit, find_spectrum, uniform_spectrum

__all__ = ["CutoffResult", "damped_mode_sum", "casimir_by_cutoff", "DEFAULT_EPSILON_FRACTIONS"]

# Fractions of L used for the default damping grid, of 4 min(L_I, L_II) where
# that is shorter (s outside [1/3, 3]).  Kept small enough
# that the quartic structure of the damped difference stays far below the
# quadratic-fit residual tolerance, while eps_min * omega_max = 40 keeps
# the spectra around 10^3 modes.
DEFAULT_EPSILON_FRACTIONS = (0.04, 0.032, 0.025, 0.02, 0.016, 0.0125)

_OMEGA_EPS_MIN = 40.0
# Most eps_max / min(L_I, L_II) of a caller's grid: the fit's bar covered its error up to 0.6
# (at 0.74 to 0.94 of the bar) and not from about 0.7 on, for 1/2 <= s <= 20, x in {0, 0.3, 0.9}.
_EPS_MAX_SHORT = 0.6


@dataclass(frozen=True)
class CutoffResult:
    """Extrapolated energy with the damped samples behind it."""

    extrapolated_energy: float
    epsilon_samples: tuple  # ((eps, damped_difference), ...) decreasing in eps
    fit_residual: float
    _root_error: float = field(default=0.0, repr=False)  # see casimir_by_cutoff

    def __post_init__(self):
        eps = [e for e, _ in self.epsilon_samples]
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise DomainError("epsilon_samples must be strictly decreasing")
        _real("fit_residual", self.fit_residual)

    def as_energy_result(self):
        """The energy with an error bar: how far c0 moves when the fit takes
        one more power of eps, plus what the spectrum's root tolerance can
        move it.  The fit residual itself is 10-20 times too small."""
        eps, diffs = np.array(self.epsilon_samples).T
        eps, scale = _scaled(eps)
        cubic = math.ldexp(np.polynomial.polynomial.polyfit(eps, np.ldexp(diffs, scale), 3)[0], -scale)
        bar = abs(cubic - self.extrapolated_energy) + self._root_error
        return EnergyResult(self.extrapolated_energy, "cutoff-oracle", bar)


def _scaled(epsilons):
    """The epsilons over 2^k, k the binary exponent of the largest, and k: the fits take
    eps / 2^k and the differences times 2^k, exact scalings that keep eps^3 and the sums of
    squares in the float range at every L."""
    scale = math.frexp(max(epsilons))[1]
    return np.ldexp(np.asarray(epsilons, dtype=float), -scale), scale


def damped_mode_sum(spec, epsilon):
    """(1/2) sum of multiplicity * omega * exp(-epsilon * omega) over a spectrum.

    Requires omega_max * epsilon >= 40 so the discarded tail is below
    1e-17 of the retained sum.
    """
    _positive("epsilon", epsilon)
    _instance("damped_mode_sum", spec, Spectrum)
    if len(spec.entries) == 0:
        return 0.0
    if spec.omega_max * epsilon < _OMEGA_EPS_MIN:
        raise SpectrumTruncationError(
            f"spectrum reaches omega_max={spec.omega_max:.6g} but epsilon={epsilon:.6g} "
            f"needs omega_max >= {_OMEGA_EPS_MIN / epsilon:.6g}"
        )
    w = spec.omegas()
    m = spec.multiplicities()
    return 0.5 * float(np.sum(m * w * np.exp(-epsilon * w)))


def casimir_by_cutoff(cfg, epsilons=None):
    """Casimir energy via damped mode sums and eps -> 0 extrapolation.

    For each damping parameter the uniform-string damped sum (same total
    length, modes 2 pi n / L doubly degenerate) is subtracted from the
    composite one; the differences are fit with c0 + c1 eps + c2 eps^2 and
    c0 is the extrapolated energy.  The linear term is analytically absent
    but guards against imperfect cancellation from the finite spectrum.
    Raises ExtrapolationUnstableError past a fit residual of 1e-3 |c0| + root error, and
    DomainError for a caller's grid whose largest epsilon passes 0.6 min(L_I, L_II): past it
    the fit's bar falls short of its error, by 1.1-1.4 times at 0.9 and 5-11 times at 1.5,
    and from L, where the uniform string's damped sum (2 pi/L) e^{-a}/(1 - e^{-a})^2,
    a = 2 pi eps/L, ends its series in eps, every sum may be 0 (a fit of 0 with a bar of 0).  From
    one bound on ratio = eps_min / L checked before any spectrum (the default grid's from s),
    DomainError where the smallest epsilon needs a spectrum over 2^18 half-periods pi/L (the
    default grid outside about 1/1026 <= s <= 1026), else where the spectra or damped sums pass
    the float range (the default grid below L of about 1.4e-304 for 1/3 <= s <= 3; the fits,
    in eps / 2^k, serve every L above).
    """
    _instance("casimir_by_cutoff", cfg, StringConfig)
    length, default = cfg.total_length, epsilons is None
    if default:  # on the shorter piece's scale below L/4; ratio from s, as an eps may underflow
        s, scale = cfg.length_ratio, min(length, 4.0 * min(cfg.piece_length_i, cfg.piece_length_ii))
        ratio = DEFAULT_EPSILON_FRACTIONS[-1] * min(1.0, 4.0 * min(1.0, s) / (1.0 + s))
        epsilons = [f * scale for f in DEFAULT_EPSILON_FRACTIONS]
    else:
        epsilons = [float(_positive("epsilon", e)) for e in epsilons]
        if len(epsilons) < 4:
            raise DomainError("need at least 4 epsilon samples")
        if any(b >= a for a, b in zip(epsilons, epsilons[1:])):
            raise DomainError("epsilon samples must be strictly decreasing")
        top = _EPS_MAX_SHORT * min(cfg.piece_length_i, cfg.piece_length_ii)
        if epsilons[0] > top:
            raise DomainError(f"largest epsilon={epsilons[0]:g} is past {top:g}, "
                              f"{_EPS_MAX_SHORT} of the shorter piece, where the fit's bar "
                              "no longer covers its error")
        ratio = epsilons[-1] / length
    fits = _OMEGA_EPS_MIN * 1.002 / _omega_limit(1.0)  # the least ratio whose spectra fit
    if ratio < fits:  # first, so that ratio > 0 below
        if default:  # the smallest epsilon is 4 f L/(1 + s) past s = 3, as s <-> 1/s below 1/3
            top = 4.0 * DEFAULT_EPSILON_FRACTIONS[-1] / fits - 1.0
            raise DomainError(f"length_ratio={cfg.length_ratio:g} is past the default damping "
                              f"grid's range of about 1/{top:.0f} <= s <= {top:.0f}")
        raise DomainError(f"smallest epsilon={epsilons[-1]:g} is below {fits * length:g}, "
                          "the least that fits")
    least = 4.0 * max(_OMEGA_EPS_MIN / ratio, ratio**-2) / sys.float_info.max  # no OverflowError
    if length < least:
        raise DomainError(f"total_length={length:g} is below {least:.3g}, the least L whose spectra "
                          "and damped sums this damping grid keeps in the float range")
    omega_max = _OMEGA_EPS_MIN / epsilons[-1] * 1.002
    composite = find_spectrum(cfg, omega_max)
    uniform = uniform_spectrum(length, omega_max)

    sums = np.array([[damped_mode_sum(sp, e) for sp in (composite, uniform)] for e in epsilons])
    diffs = sums[:, 0] - sums[:, 1]
    eps, scale = _scaled(epsilons)
    coeffs = np.polynomial.polynomial.polyfit(eps, np.ldexp(diffs, scale), 2)
    fit = np.polynomial.polynomial.polyval(eps, coeffs)
    residual = math.ldexp(float(np.max(np.abs(fit - np.ldexp(diffs, scale)))), -scale)
    c0 = math.ldexp(float(coeffs[0]), -scale)
    # A root off by r w moves its term w e^{-eps w} by r |1 - eps w| w e^{-eps w};
    # over a mode density like the uniform one that sums to at most 3 r times
    # the damped sum.  c0 weighs the samples by the fit's first pseudo-inverse row.
    weights = np.abs(np.linalg.pinv(np.vander(eps, 3, increasing=True))[0])
    root_error = 4.0 * _BISECT_RTOL * float(weights @ sums.sum(axis=1))
    if residual > 1e-3 * abs(c0) + root_error:
        raise ExtrapolationUnstableError(
            f"extrapolation unstable: fit residual {residual:.3e} vs c0={c0:.6e}",
            diagnostics={
                "epsilons": epsilons,
                "differences": diffs.tolist(),
                "coefficients": coeffs.tolist(),
            },
        )
    samples = tuple(zip(epsilons, diffs.tolist()))
    return CutoffResult(c0, samples, residual, root_error)
