"""The input contract: every public entry point raises DomainError for a
non-finite, boolean or out-of-range number, or a config of the wrong class,
instead of returning nan or a wrong count or failing deeper down with
another exception.

Each row names one argument of one entry point: a function of that
argument alone, a value it accepts, and the values it must reject.  Two
standing checks follow the table: every config parameter of each layer's
public functions, and a log-uniform sweep across the float range.
"""

import inspect
import math
import warnings

import numpy as np
import pytest

import stringcasimir as sc
from stringcasimir import core

NAN, INF = math.nan, math.inf
REAL = [NAN, INF, -INF, True]  # never a valid real argument
COUNT = [NAN, INF, -INF, True, 2.5]  # never a valid count
BIG = 10**400  # an integer past the float range: its first float operation overflowed
# never a valid argument of the array kernels, alone or in an array
KERNEL = [NAN, INF, -INF, -1.0, -1e-300]
# never a valid point of the upper half-plane
TAU = [complex(NAN, 1), complex(INF, 1), complex(-INF, 1), complex(1, NAN), complex(1, INF), -1j]

S2 = sc.StringConfig(2.0, 0.3)
N3 = sc.NPieceConfig(3, 0.3)
Q1 = sc.QuantumStringConfig(1, math.pi)
TH = sc.ThermalConfig(0.5)
SPEC = sc.uniform_spectrum(math.pi, 50.0)
EPSILONS = [0.1, 0.08, 0.06]

CASES = {
    # core
    "StringConfig.length_ratio": (lambda v: sc.StringConfig(v, 0.3), 2.0,
                                  REAL + [0.0, -1.0, BIG]),
    "StringConfig.tension_ratio": (lambda v: sc.StringConfig(2.0, v), 0.3, REAL + [-0.1]),
    "StringConfig.total_length": (lambda v: sc.StringConfig(2.0, 0.3, v), 1.0, REAL + [0.0]),
    "NPieceConfig.piece_pairs": (lambda v: sc.NPieceConfig(v, 0.3), 3, COUNT + [0, BIG]),
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
    "dispersion_2n.slow_exact_x": (
        lambda v: sc.dispersion_2n(0.5, sc.NPieceConfig(3, v), slow_exact=True), 0.3, [0.0]),
    "imag_axis_log_ratio.xi": (lambda v: core.imag_axis_log_ratio(v, S2), 0.0, KERNEL),
    "imag_axis_log_ratio.xi_array": (
        lambda v: core.imag_axis_log_ratio(np.array([0.0, 0.5, v]), S2), 2.0, KERNEL),
    "imag_axis_log_ratio_2n.q": (lambda v: core.imag_axis_log_ratio_2n(v, N3), 0.0, KERNEL),
    "imag_axis_log_ratio_2n.q_array": (
        lambda v: core.imag_axis_log_ratio_2n(np.array([0.0, 0.5, v]), N3), 2.0, KERNEL),
    # spectrum
    "Spectrum.multiplicity": (lambda v: sc.Spectrum(((1.0, v),), 5.0), 2, COUNT + [0]),
    "Spectrum.entries": (lambda v: sc.Spectrum(v, 5.0), ((1.0, 2), (2.0, 1)),
                         [((2.0, 1), (1.0, 2)), ((1.0, 2), (1.0, 1))]),
    "Spectrum.omega_max": (lambda v: sc.Spectrum(((1.0, 2),), v), 5.0, REAL + [0.0]),
    "find_spectrum.cfg": (lambda v: sc.find_spectrum(v, 5.0), S2, [N3]),
    "find_spectrum.omega_max": (lambda v: sc.find_spectrum(S2, v), 5.0, REAL + [0.0, -1.0]),
    "count_modes.cfg": (lambda v: sc.count_modes(v, 10.0), S2, [N3]),
    # a piece length that rounds to 0 in the closed forms at x = 0 and x = 1: ZeroDivisionError
    "find_spectrum.length_ratio_x0": (
        lambda v: sc.find_spectrum(sc.StringConfig(v, 0.0, 0.4), 5.0), 0.5, [5e-324]),
    "find_spectrum.total_length_x0": (
        lambda v: sc.find_spectrum(sc.StringConfig(2.0, 0.0, v), 5.0), 0.5, [5e-324]),
    "find_spectrum.total_length_x1": (
        lambda v: sc.find_spectrum(sc.StringConfig(2.0, 1.0, v), 5.0), 0.5, [5e-324]),
    "count_modes.length_ratio_x0": (
        lambda v: sc.count_modes(sc.StringConfig(v, 0.0, 0.4), 5.0), 0.5, [5e-324]),
    "count_modes.omega_max": (lambda v: sc.count_modes(S2, v), 10.0, REAL + [0.0, -1.0]),
    "count_modes.im_extent": (lambda v: sc.count_modes(S2, 10.0, im_extent=v), 0.5,
                              REAL + [0.0, -1.0]),
    # sin^2(omega L / 2) overflows once im_extent L passes about 700
    "count_modes.im_extent_times_L": (lambda v: sc.count_modes(S2, 10.0, im_extent=v), 200.0,
                                      [223.0, 300.0, 1e6]),
    "branch_spectrum_x0.s": (lambda v: sc.branch_spectrum_x0(v, "first", 3), 2, COUNT + [0, BIG]),
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
    # the exact Bloch sum takes x = 0 too: NPieceConfig's checks are all it makes of x
    "casimir_2n.slow_exact_x": (lambda v: sc.casimir_2n(sc.NPieceConfig(3, v), slow_exact=True),
                                0.0, []),
    # length scales whose truncation point 21 / min(L_I, L_II) or (48 + ln(1+N)) N / L,
    # alone or times L, is not a float: these raised OverflowError or ValueError
    "casimir_two_piece.length_ratio_range": (
        lambda v: sc.casimir_two_piece(sc.StringConfig(v, 0.3)), 1e15, [1e308, 1e-308]),
    "casimir_two_piece.total_length_range": (
        lambda v: sc.casimir_two_piece(sc.StringConfig(2.0, 0.3, v)), 1e-300, [1e-310]),
    "casimir_2n.total_length_range": (lambda v: sc.casimir_2n(sc.NPieceConfig(2, 0.3, v)),
                                      1e-300, [1e-320]),
    "casimir_2n.piece_pairs_range": (lambda v: sc.casimir_2n(sc.NPieceConfig(v, 0.3, 1e-300)),
                                     2, [10**18]),
    # the exact Bloch sum holds N/2 + 1 angles: N is capped at 2^20 before any array is built
    "casimir_2n.slow_exact_piece_pairs": (
        lambda v: sc.casimir_2n(sc.NPieceConfig(v, 1e-3), slow_exact=True), 1000, [2**20 + 1]),
    "EnergyResult.method": (lambda v: sc.EnergyResult(1.0, v), "contour", ["exact", ""]),
    "scaling_function.piece_pairs": (lambda v: sc.scaling_function(v, 0.5), 2, COUNT + [1]),
    "scaling_function.x": (lambda v: sc.scaling_function(2, v), 0.5, REAL + [0.0, 1.0]),
    "scaling_fit.x": (sc.scaling_fit, 0.5, REAL + [-0.1, 1.5]),
    # thermal
    "ThermalConfig.temperature": (sc.ThermalConfig, 0.5, REAL + [-1.0, BIG]),
    "ThermalConfig.beta": (lambda v: sc.ThermalConfig(v).beta, 0.5, [0.0]),
    "casimir_two_piece_thermal.T": (lambda v: sc.casimir_two_piece_thermal(S2, sc.ThermalConfig(v)),
                                    0.5, [0.0, 1e308]),
    "high_t_limit.T": (lambda v: sc.high_t_limit(S2, sc.ThermalConfig(v)), 0.5, [0.0]),
    "mirror_limit.x": (lambda v: sc.mirror_limit(v, TH), 0.3, REAL + [0.0, 1.0]),
    "mirror_limit.T": (lambda v: sc.mirror_limit(0.3, sc.ThermalConfig(v)), 0.5, [0.0]),
    "casimir_2n_thermal.T": (lambda v: sc.casimir_2n_thermal(N3, sc.ThermalConfig(v)), 0.5,
                             [0.0, 1e308]),
    "casimir_2n_thermal_x0.piece_pairs": (lambda v: sc.casimir_2n_thermal_x0(v, TH, math.pi), 3,
                                          COUNT + [0]),
    "casimir_2n_thermal_x0.T": (lambda v: sc.casimir_2n_thermal_x0(3, sc.ThermalConfig(v), math.pi),
                                0.5, [0.0]),
    "casimir_2n_thermal_x0.total_length": (lambda v: sc.casimir_2n_thermal_x0(3, TH, v), math.pi,
                                           REAL + [0.0]),
    # a config of the wrong class, or a bare number for the temperature
    "casimir_two_piece_thermal.cfg": (lambda v: sc.casimir_two_piece_thermal(v, TH), S2, [N3, 2.0]),
    "casimir_two_piece_thermal.th": (lambda v: sc.casimir_two_piece_thermal(S2, v), TH, [0.5, S2]),
    "casimir_2n_thermal.cfg": (lambda v: sc.casimir_2n_thermal(v, TH), N3, [S2, 3]),
    "casimir_2n_thermal.th": (lambda v: sc.casimir_2n_thermal(N3, v), TH, [0.5, N3]),
    "casimir_2n_thermal_x0.th": (lambda v: sc.casimir_2n_thermal_x0(3, v, math.pi), TH, [0.5]),
    "high_t_limit.cfg": (lambda v: sc.high_t_limit(v, TH), S2, [N3, 2.0]),
    "high_t_limit.th": (lambda v: sc.high_t_limit(S2, v), TH, [0.5, S2]),
    "mirror_limit.th": (lambda v: sc.mirror_limit(0.3, v), TH, [0.5]),
    "frequency_ratio.cfg": (lambda v: sc.frequency_ratio(v, TH), S2, [N3, 2.0]),
    "frequency_ratio.th": (lambda v: sc.frequency_ratio(S2, v), TH, [0.5, S2]),
    # modular
    "ModularPoint.tau": (sc.ModularPoint, 1j, TAU),
    "dedekind_eta.tau": (sc.dedekind_eta, 1j, TAU),
    "dedekind_eta_with_bound.tau": (sc.dedekind_eta_with_bound, 0.5 + 1j, TAU),
    "jacobi_theta3.v": (lambda v: sc.jacobi_theta3(v, 1j), 0.25, [NAN, INF, -INF, complex(0, NAN)]),
    "jacobi_theta3.x": (lambda v: sc.jacobi_theta3(0.25, v), 1j, TAU),
    "jacobi_theta3_with_bound.v": (lambda v: sc.jacobi_theta3_with_bound(v, 1j), 0.25,
                                   [NAN, INF, complex(INF, 0)]),
    "jacobi_theta3_with_bound.x": (lambda v: sc.jacobi_theta3_with_bound(0.25, v), 1j, TAU),
    # the truncation assumes |e^{2 pi i v n}| = 1: v is a real number, not a bool
    "jacobi_theta3.v_real": (lambda v: sc.jacobi_theta3(v, 1j), 0.25,
                             [True, 0.25 + 2j, np.array([0.25, 0.5]), "0.25"]),
    "jacobi_theta3_with_bound.v_real": (lambda v: sc.jacobi_theta3_with_bound(v, 0.3j), 0.25,
                                        [True, 0.25 + 2j, np.array([0.25, 0.5]), "0.25"]),
    # the theta_3 series would need 1.3e7 terms at Im x = 1e-12
    "jacobi_theta3.x_near_the_real_axis": (lambda v: sc.jacobi_theta3(0.0, v), 1e-6j,
                                           [1e-300j, 1e-12j, 0.5 + 9e-7j]),
    "log_abs_dedekind_eta.z": (sc.log_abs_dedekind_eta, 1j, TAU),
    "log_abs_dedekind_eta.z_array": (
        lambda v: sc.log_abs_dedekind_eta(np.array([0.5 + 1j, v])), 1j, TAU),
    # cutoff
    "CutoffResult.fit_residual": (lambda v: sc.CutoffResult(-0.1, ((0.2, 1.0), (0.1, 0.5)), v),
                                  0.0, REAL),
    "CutoffResult.epsilon_samples": (lambda v: sc.CutoffResult(-0.1, v, 0.0),
                                     ((0.2, 1.0), (0.1, 0.5)),
                                     [((0.1, 0.5), (0.2, 1.0)), ((0.1, 0.5), (0.1, 1.0))]),
    "damped_mode_sum.epsilon": (lambda v: sc.damped_mode_sum(SPEC, v), 1.0, REAL + [0.0, -1.0]),
    "casimir_by_cutoff.epsilons": (lambda v: sc.casimir_by_cutoff(S2, [v] + EPSILONS), 0.12,
                                   REAL + [-1.0]),
    # quantum
    "QuantumStringConfig.s": (lambda v: sc.QuantumStringConfig(v, math.pi), 1, COUNT + [0, BIG]),
    "QuantumStringConfig.tension_ii": (lambda v: sc.QuantumStringConfig(1, v), math.pi,
                                       REAL + [0.0, BIG]),
    "OccupationState.mode_index": (lambda v: sc.OccupationState(a_modes={(v, 1): 1}), 2,
                                   COUNT + [0, BIG]),
    "OccupationState.direction": (lambda v: sc.OccupationState(a_modes={(1, v): 1}), 24,
                                  COUNT + [0, 25, 1.5]),
    "OccupationState.occupation": (lambda v: sc.OccupationState(c_modes={(1, 1): v}), 0,
                                   COUNT + [-1]),
    "ThermoResult.beta": (lambda v: sc.ThermoResult(-1.0, v, "converged"), 20.0, REAL + [0.0]),
    "ThermoResult.convergence_flag": (lambda v: sc.ThermoResult(-1.0, 20.0, v), "converged",
                                      ["diverged", ""]),
    "ThermoResult.abs_error_estimate": (
        lambda v: sc.ThermoResult(-1.0, 20.0, "converged", abs_error_estimate=v), 0.0,
        REAL + [-1.0]),
    "free_energy.beta": (lambda v: sc.free_energy(Q1, v), 25.0, REAL + [0.0, BIG]),
    "free_energy.tau2_max": (lambda v: sc.free_energy(Q1, 25.0, tau2_max=v), 1.0, REAL + [0.0]),
    # refused before its tau_1 nodes are built
    "free_energy.n_tau1": (lambda v: sc.free_energy(Q1, 25.0, n_tau1=v), 16, COUNT + [0, 2**40]),
    "free_energy.max_octaves": (lambda v: sc.free_energy(Q1, 25.0, max_octaves=v), 24,
                                COUNT + [0, BIG]),
    "thermo_derivatives.beta": (lambda v: sc.thermo_derivatives(Q1, v), 25.0, REAL + [0.0]),
    "thermo_derivatives.step_frac": (lambda v: sc.thermo_derivatives(Q1, 25.0, step_frac=v),
                                     1e-3, REAL + [0.0, 1.0]),
}


@pytest.mark.parametrize("case", CASES)
def test_accepts_valid_value(case):
    call, good, _ = CASES[case]
    call(good)


@pytest.mark.parametrize("case, bad", [
    pytest.param(case, bad, id=f"{case}-{'10**400' if bad is BIG else repr(bad)}")
    for case, (_, _, bads) in CASES.items() for bad in bads
])
def test_rejects_invalid_value(case, bad):
    call, _, _ = CASES[case]
    with pytest.raises(sc.DomainError):
        call(bad)


@pytest.mark.parametrize("call", [lambda: sc.NPieceConfig(-10**5000, 0.3),
                                  lambda: sc.casimir_2n_x0(-10**5000, 1.0)])
def test_huge_negative_count_is_a_domain_error(call):
    # the message printed the count, and the repr of an int past 4300 digits raises ValueError
    with pytest.raises(sc.DomainError, match="negative 16610-bit integer"):
        call()


# a valid value of each other required parameter of a function that takes a config; ``cfg``
# is the first of S2, N3 and Q1 the function accepts
VALID = {"p": 0.5, "q": 0.5, "xi": 0.5, "omega_max": 5.0, "x": 0.3, "piece_pairs": 3,
         "total_length": math.pi, "epsilon": 1.0, "beta": 25.0, "th": TH,
         "occ": sc.OccupationState(), "spec": SPEC}
CONFIGS = ("cfg", "th", "occ", "spec")
LAYERS = (core, sc.spectrum, sc.energy, sc.thermal, sc.cutoff, sc.modular, sc.quantum, sc.errors)


def _required(fn):
    return [p for p, v in inspect.signature(fn).parameters.items() if v.default is v.empty]


def _accepts(fn, args):
    try:
        fn(**args)
    except Exception:
        return False
    return True


@pytest.mark.parametrize("fn, param", [
    pytest.param(getattr(layer, name), param, id=f"{name}.{param}")
    for layer in LAYERS for name in layer.__all__ if inspect.isfunction(getattr(layer, name))
    for param in _required(getattr(layer, name)) if param in CONFIGS
    and name != "dispersion_two_piece"  # unchecked, as the README documents
])
def test_every_config_parameter_is_checked(fn, param):
    # a bare number for a config raised AttributeError in eight functions; a public function
    # added without the check of its config fails here
    calls = [{p: cfg if p == "cfg" else VALID[p] for p in _required(fn)} for cfg in (S2, N3, Q1)]
    args = next(args for args in calls if _accepts(fn, args))
    with pytest.raises(sc.DomainError):
        fn(**{**args, param: 3.0})


def test_float_range_sweep():
    """s, L, x, N, xi, T and the quantum string's s and T_II drawn log-uniformly across the float
    range, as Python and as numpy numbers: the public log ratios, ``high_t_limit``,
    ``hagedorn_beta`` and the cutoff oracle past its contrast range return no nan or +inf, warn
    nothing and raise only the package's errors; no value is checked against a reference."""
    rng = np.random.default_rng(30)
    n = 1500

    def draw(lo, hi, zeros=0.0):
        values = np.exp(rng.uniform(math.log(lo), math.log(hi), n))
        return np.where(rng.random(n) < zeros, 0.0, values)

    s, length, x = draw(1e-308, 1e308), draw(5e-324, 1.7e308), draw(1e-300, 1.0, 0.2)
    xi, temperature = draw(5e-324, 1.7e308, 0.2), draw(5e-324, 1.7e308)
    pairs = np.floor(draw(1.0, 2.0**62)).astype(np.int64)
    quantum_s, tension = [int(v) for v in draw(1.0, 2.0**1023)], draw(5e-324, 1.7e308)
    failures = []

    def check(label, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                value = np.asarray(call(), dtype=float)
            except sc.StringCasimirError:
                return
            except Exception as exc:  # a warning raised as an error, or a raw exception
                failures.append(f"{label}: {type(exc).__name__}: {exc}")
                return
        if np.isnan(value).any() or (value == math.inf).any():
            failures.append(f"{label}: {value}")

    for i in range(n):
        kind = float if i % 2 else np.float64  # Python floats, then numpy scalars
        cfg = sc.StringConfig(kind(s[i]), kind(x[i]), kind(length[i]))
        ncfg = sc.NPieceConfig(int(pairs[i]) if i % 2 else pairs[i], kind(x[i]), kind(length[i]))
        th = sc.ThermalConfig(kind(temperature[i]))
        nodes = np.array([0.0, xi[i], xi[i - 1]])
        check(f"imag_axis_log_ratio({nodes}, {cfg})", lambda: core.imag_axis_log_ratio(nodes, cfg))
        check(f"imag_axis_log_ratio_2n({nodes}, {ncfg})",
              lambda: core.imag_axis_log_ratio_2n(nodes, ncfg))
        check(f"high_t_limit({cfg}, {th})", lambda: sc.high_t_limit(cfg, th).value)
        qcfg = sc.QuantumStringConfig(quantum_s[i], kind(tension[i]))
        # beta_c is finite and > 0: one <= 0 reads as nan
        check(f"hagedorn_beta({qcfg})", lambda: max(sc.hagedorn_beta(qcfg), 0.0) or math.nan)
        if not 1 / 1026 <= s[i] <= 1026:  # refused before any spectrum is built
            check(f"casimir_by_cutoff({cfg})",
                  lambda: sc.casimir_by_cutoff(cfg).extrapolated_energy)
    assert failures == []
