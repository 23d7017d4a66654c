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

# each module's __all__ declares its public names; the package's own __all__ pins what it exports
from .core import *
from .spectrum import *
from .energy import *
from .thermal import *
from .cutoff import *
from .modular import *
from .quantum import *
from .errors import *

__version__ = "0.1.0"

__all__ = [
    "StringConfig", "NPieceConfig", "TransferMatrix", "EigenPair",
    "tension_contrast", "alpha_param", "dispersion_two_piece",
    "transfer_matrix", "system_matrix", "lambda_pair", "dispersion_2n",
    "Spectrum", "ContourCount", "find_spectrum", "count_modes",
    "branch_spectrum_x0", "uniform_spectrum",
    "EnergyResult", "casimir_two_piece", "casimir_two_piece_x0",
    "casimir_2n", "casimir_2n_x0", "scaling_function", "scaling_fit",
    "ThermalConfig", "casimir_two_piece_thermal", "high_t_limit",
    "mirror_limit", "casimir_2n_thermal", "casimir_2n_thermal_x0",
    "frequency_ratio",
    "CutoffResult", "damped_mode_sum", "casimir_by_cutoff",
    "ModularPoint", "dedekind_eta", "dedekind_eta_with_bound",
    "jacobi_theta3", "jacobi_theta3_with_bound", "log_abs_dedekind_eta",
    "QuantumStringConfig", "OccupationState", "ThermoResult",
    "mean_tension", "translational_energy", "mass_squared_excess",
    "free_energy", "thermo_derivatives", "hagedorn_beta",
    "StringCasimirError", "DomainError", "QuadratureError",
    "MultiplicityUndecidedError", "ExtrapolationUnstableError",
    "SpectrumTruncationError", "ModularLiftRequiredError",
    "__version__",
]
