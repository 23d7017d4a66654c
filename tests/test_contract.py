"""The input contract: every public entry point raises DomainError for a
non-finite, boolean or out-of-range number, instead of returning nan or a
wrong count or failing deeper down with another exception.

Each row names one argument of one entry point: a function of that
argument alone, a value it accepts, and the values it must reject.
"""

import math

import pytest

import stringcasimir as sc

NAN, INF = math.nan, math.inf
REAL = [NAN, INF, -INF, True]  # never a valid real argument
COUNT = [NAN, INF, -INF, True, 2.5]  # never a valid count

S2 = sc.StringConfig(2.0, 0.3)
N3 = sc.NPieceConfig(3, 0.3)
Q1 = sc.QuantumStringConfig(1, math.pi)
TH = sc.ThermalConfig(0.5)
SPEC = sc.uniform_spectrum(math.pi, 50.0)
EPSILONS = [0.1, 0.08, 0.06]

CASES = {
    # core
    "StringConfig.length_ratio": (lambda v: sc.StringConfig(v, 0.3), 2.0, REAL + [0.0, -1.0]),
    "StringConfig.tension_ratio": (lambda v: sc.StringConfig(2.0, v), 0.3, REAL + [-0.1]),
    "StringConfig.total_length": (lambda v: sc.StringConfig(2.0, 0.3, v), 1.0, REAL + [0.0]),
    "NPieceConfig.piece_pairs": (lambda v: sc.NPieceConfig(v, 0.3), 3, COUNT + [0]),
    "NPieceConfig.tension_ratio": (lambda v: sc.NPieceConfig(3, v), 0.3, REAL + [-0.1]),
    "NPieceConfig.total_length": (lambda v: sc.NPieceConfig(3, 0.3, v), 1.0, REAL + [0.0]),
    "tension_contrast.x": (sc.tension_contrast, 0.3, REAL + [0.0, -1.0, 1.0]),
    "alpha_param.x": (sc.alpha_param, 0.3, REAL + [-0.1, 1.5]),
    "transfer_matrix.alpha": (lambda v: sc.transfer_matrix(v, 0.5), 0.3, REAL + [-0.1, 1.0]),
    "transfer_matrix.p": (lambda v: sc.transfer_matrix(0.3, v), 0.5, REAL),
    "system_matrix.p": (lambda v: sc.system_matrix(N3, v), 0.5, REAL),
    "lambda_pair.alpha": (lambda v: sc.lambda_pair(v, 0.5), 0.3, REAL + [-0.1, 1.0]),
    "lambda_pair.q": (lambda v: sc.lambda_pair(0.3, v), 0.5, REAL + [-1.0]),
    "dispersion_2n.q": (lambda v: sc.dispersion_2n(v, N3), 0.5, REAL + [-1.0]),
    # spectrum
    "Spectrum.multiplicity": (lambda v: sc.Spectrum(((1.0, v),), 5.0), 2, COUNT + [0]),
    "Spectrum.omega_max": (lambda v: sc.Spectrum(((1.0, 2),), v), 5.0, REAL + [0.0]),
    "find_spectrum.cfg": (lambda v: sc.find_spectrum(v, 5.0), S2, [N3]),
    "find_spectrum.omega_max": (lambda v: sc.find_spectrum(S2, v), 5.0, REAL + [0.0, -1.0]),
    "count_modes.cfg": (lambda v: sc.count_modes(v, 10.0), S2, [N3]),
    "count_modes.omega_max": (lambda v: sc.count_modes(S2, v), 10.0, REAL + [0.0, -1.0]),
    "count_modes.im_extent": (lambda v: sc.count_modes(S2, 10.0, im_extent=v), 0.5,
                              REAL + [0.0, -1.0]),
    "branch_spectrum_x0.s": (lambda v: sc.branch_spectrum_x0(v, "first", 3), 2, COUNT + [0]),
    "branch_spectrum_x0.n_max": (lambda v: sc.branch_spectrum_x0(2, "first", v), 3, COUNT + [0]),
    "uniform_spectrum.total_length": (lambda v: sc.uniform_spectrum(v, 10.0), math.pi,
                                      REAL + [0.0, -1.0]),
    "uniform_spectrum.omega_max": (lambda v: sc.uniform_spectrum(math.pi, v), 10.0,
                                   REAL + [0.0, -1.0]),
    # energy
    "EnergyResult.abs_error_estimate": (lambda v: sc.EnergyResult(1.0, "contour", v), 0.0,
                                        REAL + [-1.0]),
    "casimir_two_piece_x0.s": (lambda v: sc.casimir_two_piece_x0(v, math.pi), 2.0, REAL + [0.0]),
    "casimir_two_piece_x0.total_length": (lambda v: sc.casimir_two_piece_x0(2.0, v), math.pi,
                                          REAL + [0.0]),
    "casimir_2n_x0.piece_pairs": (lambda v: sc.casimir_2n_x0(v, math.pi), 3, COUNT + [0]),
    "casimir_2n_x0.total_length": (lambda v: sc.casimir_2n_x0(3, v), math.pi, REAL + [0.0]),
    "scaling_function.piece_pairs": (lambda v: sc.scaling_function(v, 0.5), 2, COUNT + [1]),
    "scaling_function.x": (lambda v: sc.scaling_function(2, v), 0.5, REAL + [0.0, 1.0]),
    "scaling_fit.x": (sc.scaling_fit, 0.5, REAL + [-0.1, 1.5]),
    # thermal
    "ThermalConfig.temperature": (sc.ThermalConfig, 0.5, REAL + [-1.0]),
    "ThermalConfig.beta": (lambda v: sc.ThermalConfig(v).beta, 0.5, [0.0]),
    "casimir_two_piece_thermal.T": (lambda v: sc.casimir_two_piece_thermal(S2, sc.ThermalConfig(v)),
                                    0.5, [0.0]),
    "high_t_limit.T": (lambda v: sc.high_t_limit(S2, sc.ThermalConfig(v)), 0.5, [0.0]),
    "mirror_limit.x": (lambda v: sc.mirror_limit(v, TH), 0.3, REAL + [0.0, 1.0]),
    "mirror_limit.T": (lambda v: sc.mirror_limit(0.3, sc.ThermalConfig(v)), 0.5, [0.0]),
    "casimir_2n_thermal.T": (lambda v: sc.casimir_2n_thermal(N3, sc.ThermalConfig(v)), 0.5, [0.0]),
    "casimir_2n_thermal_x0.piece_pairs": (lambda v: sc.casimir_2n_thermal_x0(v, TH, math.pi), 3,
                                          COUNT + [0]),
    "casimir_2n_thermal_x0.T": (lambda v: sc.casimir_2n_thermal_x0(3, sc.ThermalConfig(v), math.pi),
                                0.5, [0.0]),
    "casimir_2n_thermal_x0.total_length": (lambda v: sc.casimir_2n_thermal_x0(3, TH, v), math.pi,
                                           REAL + [0.0]),
    # cutoff
    "CutoffResult.fit_residual": (lambda v: sc.CutoffResult(-0.1, ((0.2, 1.0), (0.1, 0.5)), v),
                                  0.0, REAL),
    "damped_mode_sum.epsilon": (lambda v: sc.damped_mode_sum(SPEC, v), 1.0, REAL + [0.0, -1.0]),
    "casimir_by_cutoff.epsilons": (lambda v: sc.casimir_by_cutoff(S2, [v] + EPSILONS), 0.12,
                                   REAL + [-1.0]),
    # quantum
    "QuantumStringConfig.s": (lambda v: sc.QuantumStringConfig(v, math.pi), 1, COUNT + [0]),
    "QuantumStringConfig.tension_ii": (lambda v: sc.QuantumStringConfig(1, v), math.pi,
                                       REAL + [0.0]),
    "OccupationState.mode_index": (lambda v: sc.OccupationState(a_modes={(v, 1): 1}), 2,
                                   COUNT + [0]),
    "OccupationState.direction": (lambda v: sc.OccupationState(a_modes={(1, v): 1}), 24,
                                  COUNT + [0, 25, 1.5]),
    "OccupationState.occupation": (lambda v: sc.OccupationState(c_modes={(1, 1): v}), 0,
                                   COUNT + [-1]),
    "ThermoResult.beta": (lambda v: sc.ThermoResult(-1.0, v, "converged"), 20.0, REAL + [0.0]),
    "ThermoResult.abs_error_estimate": (
        lambda v: sc.ThermoResult(-1.0, 20.0, "converged", abs_error_estimate=v), 0.0,
        REAL + [-1.0]),
    "free_energy.beta": (lambda v: sc.free_energy(Q1, v), 25.0, REAL + [0.0]),
    "free_energy.tau2_max": (lambda v: sc.free_energy(Q1, 25.0, tau2_max=v), 1.0, REAL + [0.0]),
    "free_energy.n_tau1": (lambda v: sc.free_energy(Q1, 25.0, n_tau1=v), 16, COUNT + [0]),
    "free_energy.max_octaves": (lambda v: sc.free_energy(Q1, 25.0, max_octaves=v), 24,
                                COUNT + [0]),
    "thermo_derivatives.beta": (lambda v: sc.thermo_derivatives(Q1, v), 25.0, REAL + [0.0]),
    "thermo_derivatives.step_frac": (lambda v: sc.thermo_derivatives(Q1, 25.0, step_frac=v),
                                     1e-3, REAL + [0.0, 1.0]),
}


@pytest.mark.parametrize("case", CASES)
def test_accepts_valid_value(case):
    call, good, _ = CASES[case]
    call(good)


@pytest.mark.parametrize("case, bad", [
    pytest.param(case, bad, id=f"{case}-{bad!r}")
    for case, (_, _, bads) in CASES.items() for bad in bads
])
def test_rejects_invalid_value(case, bad):
    call, _, _ = CASES[case]
    with pytest.raises(sc.DomainError):
        call(bad)
