"""Exponential-cutoff regularization: the slow, independent oracle.

Each mode is damped by exp(-eps * omega), the same damped sum is computed
for the uniform reference string of equal total length (whose asymptotic
mode density matches, so the 1/eps^2 divergences cancel in the
difference), and the damping parameter is extrapolated to zero through a
quadratic fit.  Deliberately built on explicitly enumerated spectra
rather than the contour machinery it cross-checks.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import StringConfig
from .energy import EnergyResult
from .errors import DomainError, ExtrapolationUnstableError, SpectrumTruncationError
from .errors import _positive, _real
from .spectrum import _BISECT_RTOL, Spectrum, find_spectrum, uniform_spectrum

__all__ = ["CutoffResult", "damped_mode_sum", "casimir_by_cutoff", "DEFAULT_EPSILON_FRACTIONS"]

# Fractions of L used for the default damping grid.  Kept small enough
# that the quartic structure of the damped difference stays far below the
# quadratic-fit residual tolerance, while eps_min * omega_max = 40 keeps
# the spectra around 10^3 modes.
DEFAULT_EPSILON_FRACTIONS = (0.04, 0.032, 0.025, 0.02, 0.016, 0.0125)

_OMEGA_EPS_MIN = 40.0


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
        cubic = np.polynomial.polynomial.polyfit(eps, diffs, 3)[0]
        bar = abs(cubic - self.extrapolated_energy) + self._root_error
        return EnergyResult(self.extrapolated_energy, "cutoff-oracle", bar)


def damped_mode_sum(spec, epsilon):
    """(1/2) sum of multiplicity * omega * exp(-epsilon * omega) over a spectrum.

    Requires omega_max * epsilon >= 40 so the discarded tail is below
    1e-17 of the retained sum.
    """
    _positive("epsilon", epsilon)
    if not isinstance(spec, Spectrum):
        raise DomainError("damped_mode_sum expects a Spectrum")
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
    """
    if not isinstance(cfg, StringConfig):
        raise DomainError("casimir_by_cutoff expects a StringConfig")
    length = cfg.total_length
    if epsilons is None:
        epsilons = [f * length for f in DEFAULT_EPSILON_FRACTIONS]
    epsilons = [float(_positive("epsilon", e)) for e in epsilons]
    if len(epsilons) < 4:
        raise DomainError("need at least 4 epsilon samples")
    if any(b >= a for a, b in zip(epsilons, epsilons[1:])):
        raise DomainError("epsilon samples must be strictly decreasing")
    if epsilons[-1] < 1e-3:
        raise DomainError("smallest epsilon below 1e-3: spectrum size would explode")

    omega_max = _OMEGA_EPS_MIN / epsilons[-1] * 1.002
    composite = find_spectrum(cfg, omega_max)
    uniform = uniform_spectrum(length, omega_max)

    sums = np.array([[damped_mode_sum(sp, e) for sp in (composite, uniform)] for e in epsilons])
    diffs = sums[:, 0] - sums[:, 1]
    eps = np.array(epsilons)
    coeffs = np.polynomial.polynomial.polyfit(eps, diffs, 2)
    fit = np.polynomial.polynomial.polyval(eps, coeffs)
    residual = float(np.max(np.abs(fit - diffs)))
    c0 = float(coeffs[0])
    if residual > 1e-3 * abs(c0) + 1e-6:
        raise ExtrapolationUnstableError(
            f"extrapolation unstable: fit residual {residual:.3e} vs c0={c0:.6e}",
            diagnostics={
                "epsilons": epsilons,
                "differences": diffs.tolist(),
                "coefficients": coeffs.tolist(),
            },
        )
    samples = tuple(zip(epsilons, diffs.tolist()))
    # A root off by r w moves its term w e^{-eps w} by r |1 - eps w| w e^{-eps w};
    # over a mode density like the uniform one that sums to at most 3 r times
    # the damped sum.  c0 weighs the samples by the fit's first pseudo-inverse row.
    weights = np.abs(np.linalg.pinv(np.vander(eps, 3, increasing=True))[0])
    root_error = 4.0 * _BISECT_RTOL * float(weights @ sums.sum(axis=1))
    return CutoffResult(c0, samples, residual, root_error)
