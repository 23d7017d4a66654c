"""The public API stays as it is: the names the package exports, the
parameters of every public callable (names, kinds and defaults, not
annotations), and the option strings of the command line.  A change to any
of them must change this file too.
"""

import inspect

import stringcasimir as sc
from stringcasimir import cli

ALL = [
    "StringConfig", "NPieceConfig", "TransferMatrix", "EigenPair", "tension_contrast",
    "alpha_param", "dispersion_two_piece", "transfer_matrix", "system_matrix", "lambda_pair",
    "dispersion_2n", "Spectrum", "ContourCount", "find_spectrum", "count_modes",
    "branch_spectrum_x0", "uniform_spectrum", "EnergyResult", "casimir_two_piece",
    "casimir_two_piece_x0", "casimir_2n", "casimir_2n_x0", "scaling_function", "scaling_fit",
    "ThermalConfig", "casimir_two_piece_thermal", "high_t_limit", "mirror_limit",
    "casimir_2n_thermal", "casimir_2n_thermal_x0", "frequency_ratio", "CutoffResult",
    "damped_mode_sum", "casimir_by_cutoff", "ModularPoint", "dedekind_eta",
    "dedekind_eta_with_bound", "jacobi_theta3", "jacobi_theta3_with_bound",
    "log_abs_dedekind_eta", "QuantumStringConfig", "OccupationState", "ThermoResult",
    "mean_tension", "translational_energy", "mass_squared_excess", "free_energy",
    "thermo_derivatives", "hagedorn_beta", "StringCasimirError", "DomainError",
    "QuadratureError", "MultiplicityUndecidedError", "ExtrapolationUnstableError",
    "SpectrumTruncationError", "ModularLiftRequiredError", "__version__",
]

# None: an exception class that keeps the built-in constructor
SIGNATURES = {
    "StringConfig": "(length_ratio, tension_ratio, total_length=3.141592653589793)",
    "NPieceConfig": "(piece_pairs, tension_ratio, total_length=3.141592653589793)",
    "TransferMatrix": "(a, b)",
    "TransferMatrix.as_matrix": "(self)",
    "EigenPair": "(lambda_plus, lambda_minus)",
    "tension_contrast": "(x)",
    "alpha_param": "(x)",
    "dispersion_two_piece": "(omega, cfg)",
    "transfer_matrix": "(alpha, p)",
    "system_matrix": "(cfg, p)",
    "lambda_pair": "(alpha, q)",
    # slow_exact keeps its name and default; it now selects the eigenvalue form from
    # lambda_pair here and the exact Bloch mode sum in casimir_2n, not junction-matrix powers
    "dispersion_2n": "(q, cfg, slow_exact=False)",
    "Spectrum": "(entries, omega_max)",
    "Spectrum.omegas": "(self)",
    "Spectrum.multiplicities": "(self)",
    "Spectrum.total_count": "(self)",
    "ContourCount": "(zeros_minus_poles, contour)",
    "find_spectrum": "(cfg, omega_max)",
    "count_modes": "(cfg, omega_max, im_extent=0.5)",
    "branch_spectrum_x0": "(s, branch, n_max)",
    "uniform_spectrum": "(total_length, omega_max)",
    "EnergyResult": "(value, method, abs_error_estimate=0.0)",
    "casimir_two_piece": "(cfg)",
    "casimir_two_piece_x0": "(s, total_length)",
    "casimir_2n": "(cfg, slow_exact=False)",
    "casimir_2n_x0": "(piece_pairs, total_length)",
    "scaling_function": "(piece_pairs, x)",
    "scaling_fit": "(x)",
    "ThermalConfig": "(temperature)",
    "ThermalConfig.matsubara": "(self, n)",
    "casimir_two_piece_thermal": "(cfg, th)",
    "high_t_limit": "(cfg, th)",
    "mirror_limit": "(x, th, printed_form=False)",
    "casimir_2n_thermal": "(cfg, th)",
    "casimir_2n_thermal_x0": "(piece_pairs, th, total_length)",
    "frequency_ratio": "(cfg, th)",
    "CutoffResult": "(extrapolated_energy, epsilon_samples, fit_residual, _root_error=0.0)",
    "CutoffResult.as_energy_result": "(self)",
    "damped_mode_sum": "(spec, epsilon)",
    "casimir_by_cutoff": "(cfg, epsilons=None)",
    "ModularPoint": "(tau)",
    "dedekind_eta": "(p)",
    "dedekind_eta_with_bound": "(p)",
    "jacobi_theta3": "(v, xarg)",
    "jacobi_theta3_with_bound": "(v, xarg)",
    "log_abs_dedekind_eta": "(z)",
    "QuantumStringConfig": "(s, tension_ii, spacetime_dim=26)",
    "OccupationState": "(a_modes=<factory>, a_tilde_modes=<factory>, c_modes=<factory>)",
    "ThermoResult": "(free_energy, beta, convergence_flag, internal_energy=None, entropy=None, "
                    "identity_residual=None, abs_error_estimate=0.0)",
    "mean_tension": "(cfg)",
    "translational_energy": "(cfg)",
    "mass_squared_excess": "(cfg, occ)",
    "free_energy": "(cfg, beta, tau2_max=1.0, n_tau1=64, max_octaves=48)",
    "thermo_derivatives": "(cfg, beta, step_frac=0.001, tau2_max=1.0)",
    "hagedorn_beta": "(cfg)",
    "StringCasimirError": None,
    "DomainError": None,
    "QuadratureError": "(message, best_estimate=None, abs_error=None)",
    "MultiplicityUndecidedError": "(message, omega=None)",
    "ExtrapolationUnstableError": "(message, diagnostics=None)",
    "SpectrumTruncationError": None,
    "ModularLiftRequiredError": None,
}

CLI_SIGNATURES = {
    "RunConfig": "(command, parameters=<factory>, output_path='', output_format='csv')",
    "dispatch": "(cfg)",
    "compare_methods": "(cfg, epsilons=None)",
    "main": "(argv=None)",
}

OPTIONS = [
    "-h", "--help", "--config", "--s", "--x", "--L", "--N", "--T", "--T-II", "--beta",
    "--tau2-max", "--derivatives", "--omega-max", "--epsilons", "--command", "--scan-command",
    "--jobs", "--output", "--format",
]
COMMANDS = ("energy", "energy-n", "spectrum", "thermal", "free-energy", "hagedorn", "oracle", "scan")


def _bare(obj):
    """The signature without annotations, or None where there is none."""
    try:
        sig = inspect.signature(obj)
    except ValueError:
        return None
    params = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=params, return_annotation=sig.empty))


def _signatures(module):
    """The bare signature of each public callable of ``module`` and of each
    public method its classes define."""
    out = {}
    for name in module.__all__:
        obj = getattr(module, name)
        if not callable(obj):
            continue
        out[name] = _bare(obj)
        if inspect.isclass(obj):
            out.update((f"{name}.{attr}", _bare(member)) for attr, member in vars(obj).items()
                       if not attr.startswith("_") and inspect.isfunction(member))
    return out


def test_exported_names():
    assert sc.__all__ == ALL


def test_signatures():
    assert _signatures(sc) == SIGNATURES
    assert _signatures(cli) == CLI_SIGNATURES


def test_cli_options_and_commands():
    parser = cli._build_parser()
    assert [s for action in parser._actions for s in action.option_strings] == OPTIONS
    assert [a.choices for a in parser._actions if not a.option_strings] == [COMMANDS]
