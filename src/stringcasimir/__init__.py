"""Casimir energies, eigenfrequency spectra, and finite-temperature
thermodynamics of piecewise uniform relativistic closed strings.

The composite string carries piecewise constant tension with the
transverse sound speed pinned to the speed of light, which makes its
vacuum energy regularizable by several independent routes implemented
here: contour integration along the imaginary frequency axis (the fast
path), Matsubara summation at finite temperature, and an exponential
cutoff over explicitly enumerated spectra (the slow oracle used for
cross-validation).  A quantized version of the two-piece string in the
decoupled limit provides the one-loop free energy and its Hagedorn
temperature.
"""

# each layer's __all__ declares its public names; the package exports them in this order
from .core import *
from .spectrum import *
from .energy import *
from .thermal import *
from .cutoff import *
from .modular import *
from .quantum import *
from .errors import *
from . import core, cutoff, energy, errors, modular, quantum, spectrum, thermal

__version__ = "0.1.0"

# bound here too but not exported: the log-ratio kernels, log_sinh and the oracle's default grid
_UNEXPORTED = {"imag_axis_log_ratio", "imag_axis_log_ratio_2n", "log_sinh",
               "DEFAULT_EPSILON_FRACTIONS"}
__all__ = [name for layer in (core, spectrum, energy, thermal, cutoff, modular, quantum, errors)
           for name in layer.__all__ if name not in _UNEXPORTED] + ["__version__"]
