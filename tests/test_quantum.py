import importlib.util
import math
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from stringcasimir import (
    DomainError,
    OccupationState,
    QuadratureError,
    QuantumStringConfig,
    ThermoResult,
    casimir_two_piece_x0,
    free_energy,
    hagedorn_beta,
    log_abs_dedekind_eta,
    mass_squared_excess,
    mean_tension,
    thermo_derivatives,
    translational_energy,
)
from stringcasimir import energy, quantum
from stringcasimir.quantum import _ln_theta3_minus_one

EPS = sys.float_info.epsilon


def beta_star(s, tension_ii):
    """Where delta(beta) = beta^2 t / (8 pi^2) - pi (4s+1) / (s (1+s)) vanishes."""
    return math.sqrt(8.0 * math.pi**2 * (4 * s + 1) / tension_ii) / s


def level_threshold(s, n_tau1):
    """Y_c of ``quantum._log_integrand``: nodes with Y = (1+s) tau_2 >= Y_c take the level sum."""
    n = n_tau1 // math.gcd(n_tau1, 1 + s)
    return max(0.408, (5.87 + 1.38 * math.sqrt(n)) / n)


def p24(top):
    """p_24(0..top) in exact integers from n p(n) = 24 sum_k sigma(k) p(n-k)."""
    sigma = [0] + [sum(d for d in range(1, k + 1) if k % d == 0) for k in range(1, top + 1)]
    p = [1]
    for n in range(1, top + 1):
        total = 24 * sum(sigma[k] * p[n - k] for k in range(1, n + 1))
        assert total % n == 0
        p.append(total // n)
    return p


def thermal_free_energies():
    """(s, T_II, beta) of the free energies in the benchmark's thermal workload, seeds 1-3."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [(p["s"], p["T_II"], p["beta"]) for seed in (1, 2, 3)
            for fn, p in workloads.build(seed) if fn == "free_energy"]


def diverges_by_probe(s, beta, t):
    """Empirical Hagedorn test: does the integrand grow without bound as
    tau_2 -> 0?

    Probes the dominant ray tau_1 = 0 at successively halved tau_2 deep below
    any crossover scale; past the transient the log integrand behaves like
    -delta/tau_2 + (powers) ln tau_2, so persistent growth under halving pins
    delta < 0 (divergent) and persistent decay pins delta > 0.
    """

    def ray(tau2):
        a = beta * beta * t / (8.0 * math.pi**2 * tau2)
        return (
            _ln_theta3_minus_one(np.array([a]))[0][0]
            - 48.0 * log_abs_dedekind_eta(1j * (1.0 + s) * tau2)
            - 24.0 * log_abs_dedekind_eta(2j * s * (1.0 + s) * tau2)
            - 14.0 * math.log(tau2)
        )

    tau2 = 1e-4
    prev = ray(tau2)
    rising = falling = 0
    for _ in range(40):
        tau2 /= 2.0
        cur = ray(tau2)
        if cur > prev + 1e-9:
            rising, falling = rising + 1, 0
        else:
            rising, falling = 0, falling + 1
        if rising >= 3:
            return True
        if falling >= 3:
            return False
        prev = cur
    raise AssertionError(f"probe undecided (s={s}, beta={beta})")


def _mp_ln_abs_eta(z):
    """ln|eta(z)| at 30 digits: SL(2, Z) reduction, then mpmath's q-product."""
    acc = mp.mpf(0)
    while True:
        z -= mp.nint(z.real)
        if abs(z) >= 1 - mp.mpf(10) ** -25:
            break
        acc -= mp.log(abs(z)) / 2
        z = -1 / z
    return acc - mp.pi * z.imag / 12 + mp.log(abs(mp.qp(mp.exp(2j * mp.pi * z))))


def _mp_theta3_minus_one(a):
    # theta_3(q) = theta_3(q^4) + theta_2(q^4) splits the even and odd n, so
    # theta_3(q) - 1 = sum_k theta_2(q^{4^k}) has no cancellation
    total, k = mp.mpf(0), 1
    while True:
        term = mp.jtheta(2, 0, mp.exp(-a * 4**k))
        total += term
        if term < mp.mpf(10) ** -40 * total:
            return total
        k += 1


def mp_free_energy(s, tension_ii, beta, tau2_max, n_tau1, max_octaves=48):
    """F at 30 digits with the same n_tau1-node tau_1 sum, integrated over
    v = ln(tau2_max / tau_2) by Gauss-Legendre on fixed intervals."""
    mp.mp.dps = 30
    t = mp.pi * mp.mpf(tension_ii) * s / (1 + s)
    beta = mp.mpf(beta)
    weights = {}  # |eta| is even and 1-periodic in Re z: fold the tau_1 nodes
    for k in range(n_tau1):
        x = ((1 + s) * mp.mpf(2 * k - n_tau1) / (2 * n_tau1)) % 1
        x = min(x, 1 - x)
        weights[x] = weights.get(x, 0) + 1

    def integrand(v):
        y = mp.mpf(tau2_max) * mp.exp(-v)
        tau1 = mp.fsum(c * mp.exp(-48 * _mp_ln_abs_eta(mp.mpc(x, (1 + s) * y)))
                       for x, c in weights.items()) / n_tau1
        eta_imag = mp.exp(-24 * _mp_ln_abs_eta(mp.mpc(0, 2 * s * (1 + s) * y)))
        return y**-13 * _mp_theta3_minus_one(beta**2 * t / (8 * mp.pi**2 * y)) * eta_imag * tau1

    points = [0, mp.mpf("0.05"), mp.mpf("0.5"), 3, max_octaves * mp.log(2)]
    value = mp.quad(integrand, points, method="gauss-legendre", maxdegree=5)
    prefactor = mp.mpf(2) ** -40 * mp.pi**-26 * t**-13
    return -mp.mpf((s - 1) ** 2) / (24 * s) - prefactor * value


class TestConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            QuantumStringConfig(s=0, tension_ii=1.0)
        with pytest.raises(DomainError):
            QuantumStringConfig(s=1.5, tension_ii=1.0)
        with pytest.raises(DomainError):
            QuantumStringConfig(s=1, tension_ii=0.0)
        with pytest.raises(DomainError):
            QuantumStringConfig(s=1, tension_ii=1.0, spacetime_dim=10)

    @pytest.mark.parametrize("s, tension", [
        (1, math.inf), (1, math.nan), (1, -1.0), (1, "1"), (2.0, 1.0), ("2", 1.0), (-1, 1.0),
    ])
    def test_rejects_bad_input(self, s, tension):
        with pytest.raises(DomainError):
            QuantumStringConfig(s, tension)


class TestInputContract:
    """Every bad argument is a DomainError, raised before any work and
    without a warning."""

    CFG = QuantumStringConfig(1, math.pi)

    @pytest.mark.parametrize("kwargs", [
        {"beta": math.inf}, {"beta": math.nan}, {"beta": 0.0}, {"beta": -3.0}, {"beta": "17"},
        {"tau2_max": 0.0}, {"tau2_max": math.nan}, {"tau2_max": math.inf}, {"tau2_max": -1.0},
        {"n_tau1": 0}, {"n_tau1": 64.0}, {"n_tau1": -8},
        {"max_octaves": 0}, {"max_octaves": 2.5}, {"max_octaves": 10**4},
    ])
    def test_free_energy(self, kwargs):
        kwargs = {"beta": 17.0, **kwargs}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                free_energy(self.CFG, **kwargs)

    def test_free_energy_needs_its_config(self):
        with pytest.raises(DomainError):
            free_energy((1, math.pi), 17.0)

    @pytest.mark.parametrize("kwargs", [
        {"step_frac": 0.0}, {"step_frac": math.nan}, {"step_frac": math.inf},
        {"step_frac": 1.0}, {"step_frac": -1e-3}, {"beta": math.inf}, {"tau2_max": 0.0},
    ])
    def test_thermo_derivatives(self, kwargs):
        kwargs = {"beta": 17.0, **kwargs}
        with pytest.raises(DomainError):
            thermo_derivatives(self.CFG, **kwargs)

    def test_result_bar_is_nonnegative(self):
        assert ThermoResult(-1.0, 2.0, "converged").abs_error_estimate == 0.0
        with pytest.raises(DomainError):
            ThermoResult(-1.0, 2.0, "converged", abs_error_estimate=-1.0)


class TestMeanTension:
    def test_values(self):
        assert mean_tension(QuantumStringConfig(1, 2.0)) == pytest.approx(1.0)
        assert mean_tension(QuantumStringConfig(3, 4.0)) == pytest.approx(3.0)

    def test_monotone_approach_to_companion_tension(self):
        vals = [mean_tension(QuantumStringConfig(s, 5.0)) for s in (1, 2, 5, 20, 100)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 5.0

    def test_translational_energy(self):
        cfg = QuantumStringConfig(3, 4.0)
        assert translational_energy(cfg) == pytest.approx(math.pi * 3.0)


class TestMassSquaredExcess:
    def test_vacuum(self):
        cfg = QuantumStringConfig(2, 1.0 / math.pi)
        assert mass_squared_excess(cfg, OccupationState()) == 0.0

    def test_single_traveling_quantum(self):
        cfg = QuantumStringConfig(2, 1.0 / math.pi)  # t = 2/3
        occ = OccupationState(a_modes={(1, 1): 1})
        assert mass_squared_excess(cfg, occ) == pytest.approx(2.0, rel=1e-13)

    def test_single_standing_quantum(self):
        cfg = QuantumStringConfig(2, 1.0 / math.pi)
        occ = OccupationState(c_modes={(1, 1): 1})
        assert mass_squared_excess(cfg, occ) == pytest.approx(8.0, rel=1e-13)

    def test_additive_over_disjoint_states(self):
        cfg = QuantumStringConfig(3, 0.7)
        occ_a = OccupationState(a_modes={(2, 3): 1}, c_modes={(1, 5): 2})
        occ_b = OccupationState(a_tilde_modes={(4, 1): 3})
        combined = OccupationState(
            a_modes={(2, 3): 1}, c_modes={(1, 5): 2}, a_tilde_modes={(4, 1): 3}
        )
        assert mass_squared_excess(cfg, combined) == pytest.approx(
            mass_squared_excess(cfg, occ_a) + mass_squared_excess(cfg, occ_b), rel=1e-14
        )

    def test_occupation_validation(self):
        with pytest.raises(DomainError):
            OccupationState(a_modes={(0, 1): 1})
        with pytest.raises(DomainError):
            OccupationState(a_modes={(1, 25): 1})
        with pytest.raises(DomainError):
            OccupationState(c_modes={(1, 1): -1})


class TestHagedorn:
    def test_anchor_values(self):
        assert hagedorn_beta(QuantumStringConfig(1, math.pi)) == pytest.approx(
            4.0 * math.sqrt(2.0), rel=1e-14
        )
        assert hagedorn_beta(QuantumStringConfig(2, math.pi)) == pytest.approx(
            2.0 * math.sqrt(3.0), rel=1e-14
        )

    def test_decreasing_in_s(self):
        vals = [hagedorn_beta(QuantumStringConfig(s, math.pi)) for s in (1, 2, 3, 5, 9)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("s", [1, 10**150, 10**300, 2**1023])
    @pytest.mark.parametrize("tension", [5e-324, 1e-300, math.pi, 1e300, 1.7e308])
    def test_finite_across_the_float_range(self, s, tension):
        # pi (1+s) / T_II overflowed before 4/s scaled it back: inf at (10^300, 1e-300)
        got = hagedorn_beta(QuantumStringConfig(s, tension))
        with mp.workdps(50):
            ref = 4 / mp.mpf(s) * mp.sqrt(mp.pi * (1 + mp.mpf(s)) / mp.mpf(tension))
        assert 0.0 < got < math.inf
        assert abs(got - ref) <= 3 * math.ulp(float(ref))


class TestFreeEnergy:
    def test_constant_term_matches_decoupled_energy(self):
        # the beta-independent part of F equals the zero-temperature
        # decoupled-limit energy at L = pi
        for s in range(1, 7):
            constant = -(s + 1.0 / s - 2.0) / 24.0
            assert constant == pytest.approx(
                casimir_two_piece_x0(s, math.pi).value, rel=1e-14, abs=1e-18
            )

    def test_converges_just_above_threshold(self):
        cfg = QuantumStringConfig(1, math.pi)
        res = free_energy(cfg, 2.0 * hagedorn_beta(cfg))
        assert res.convergence_flag == "converged"
        assert math.isfinite(res.free_energy)
        assert res.free_energy < 0.0

    def test_diverges_at_high_temperature(self):
        for s in (1, 2):
            cfg = QuantumStringConfig(s, math.pi)
            res = free_energy(cfg, 0.5 * hagedorn_beta(cfg))
            assert res.convergence_flag == "diverged-below-hagedorn"
            assert res.free_energy == -math.inf
            assert (res.internal_energy, res.entropy, res.identity_residual) == (None, None, None)

    def test_tau1_resolution_stable(self):
        cfg = QuantumStringConfig(1, math.pi)
        beta = 2.0 * hagedorn_beta(cfg)
        a = free_energy(cfg, beta, n_tau1=64).free_energy
        b = free_energy(cfg, beta, n_tau1=128).free_energy
        assert abs(a / b - 1.0) < 1e-6

    @pytest.mark.parametrize("s, tension, frac", [(1, math.pi, 2.0), (3, math.pi, 1.3), (2, 0.7, 1.01)])
    def test_deeper_lower_end_within_bar(self, s, tension, frac):
        # max_octaves sets the v range; doubling it adds only what lies below
        # tau2_max 2^-48, far below the bar
        cfg = QuantumStringConfig(s, tension)
        beta = frac * beta_star(s, tension)
        res = free_energy(cfg, beta)
        deep = free_energy(cfg, beta, max_octaves=96)
        assert abs(deep.free_energy - res.free_energy) <= res.abs_error_estimate

    @pytest.mark.parametrize("s, tension, frac", [(1, math.pi, 2.0), (3, math.pi, 1.3), (2, 0.7, 1.01)])
    def test_finer_tau1_within_bar(self, s, tension, frac):
        cfg = QuantumStringConfig(s, tension)
        beta = frac * beta_star(s, tension)
        res = free_energy(cfg, beta)
        fine = free_energy(cfg, beta, n_tau1=256)
        assert abs(fine.free_energy - res.free_energy) <= res.abs_error_estimate

    @pytest.mark.parametrize("s, tension, frac, tau2_max, n_tau1", [
        (1, math.pi, 1.5, 1.0, 8),
        (3, math.pi, 3.0, 1.0, 8),
        (2, 1.7, 1.2, 0.5, 8),
        (3, 0.7, 1.01, 2.0, 4),
        (5, 2.0, 2.0, 0.25, 4),
        (1, 4.0, 1.001, 1.0, 8),
        (1, math.pi, 1.5, 1.0, 7),
        (2, 1.7, 1.2, 0.5, 12),
    ])
    def test_bar_covers_mpmath(self, s, tension, frac, tau2_max, n_tau1):
        beta = frac * beta_star(s, tension)
        res = free_energy(QuantumStringConfig(s, tension), beta, tau2_max=tau2_max, n_tau1=n_tau1)
        ref = mp_free_energy(s, tension, beta, tau2_max, n_tau1)
        assert res.convergence_flag == "converged"
        assert abs(res.free_energy - ref) <= res.abs_error_estimate
        # the bar is within a few hundred eps of the integral term
        assert res.abs_error_estimate <= 1e-12 * abs(ref + mp.mpf((s - 1) ** 2) / (24 * s)) + 1e-17

    def test_tau1_nodes_on_the_unit_circle(self):
        # nodes with (1+s) tau_1 = 1/2 (mod 1) put z = (1+s) tau on the line
        # Re z = 1/2, where some tau_2 nodes reduce onto the arc |z| = 1
        res = free_energy(QuantumStringConfig(3, math.pi), 9.0, tau2_max=0.5)
        assert res.convergence_flag == "converged"
        assert res.free_energy < -(2**2) / 72.0

    def test_large_beta_approaches_constant(self):
        cfg = QuantumStringConfig(2, math.pi)
        res = free_energy(cfg, 8.0 * hagedorn_beta(cfg))
        assert res.free_energy == pytest.approx(-1.0 / 48.0, abs=1e-12)

    @pytest.mark.parametrize("beta", [1e147, 1e148, 1e150, 1e152, 1e153, 1.3e154,
                                      1e155, 1e200, 1e308])
    def test_huge_beta_is_the_constant(self, beta):
        # beta^2 t / (8 pi^2 tau_2) overflows at small tau_2 from beta ~ 1e147;
        # those nodes turned the rows into nan and ran the kernel out of nodes
        cfg = QuantumStringConfig(2, math.pi)
        assert free_energy(cfg, beta).free_energy == -1.0 / 48.0
        assert thermo_derivatives(cfg, beta).entropy == 0.0
        for s in (1, 2, 3):  # the bar is never -0.0, not even where the constant is 0
            bar = free_energy(QuantumStringConfig(s, math.pi), beta).abs_error_estimate
            assert math.copysign(1.0, bar) == 1.0

    @pytest.mark.parametrize("tau2_max", [1e154, 1e200, 1e300])
    def test_huge_tau2_max_refused_in_a_short_message(self, tau2_max):
        # a = beta^2 t / (8 pi^2 tau_2) below 1.5e-154 underflowed a^2 in the theta_3 slope:
        # "divide by zero" (an error in this suite); the message printed ln of the term to 300 digits
        with pytest.raises(QuadratureError, match="lower tau2_max") as info:
            free_energy(QuantumStringConfig(1, math.pi), 20.0, tau2_max=tau2_max)
        assert len(str(info.value)) < 200

    @pytest.mark.parametrize("s", [2**512, 10**153, 10**154, 10**155, 10**300])
    @pytest.mark.parametrize("tension", [1e-300, math.pi, 1e300])
    @pytest.mark.parametrize("beta", [20.0, 1e3])
    def test_huge_s_is_a_value_or_a_package_error(self, s, tension, beta):
        # (s - 1)^2 as a float raised OverflowError past s = 1.34e154, and at s = 10^154 the rows
        # met inf - inf ("invalid value encountered in subtract")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                res = free_energy(QuantumStringConfig(s, tension), beta)
            except (QuadratureError, DomainError):
                return
        assert res.free_energy == -math.inf or math.isfinite(res.free_energy)

    def test_huge_s_refusal_names_s(self):
        with pytest.raises(DomainError, match=r"s=1e\+154 puts 4 pi s \(1\+s\) tau2_max"):
            free_energy(QuantumStringConfig(10**154, math.pi), 20.0)

    def test_constant_is_rounded_once_in_integers(self):
        # the constant's divisor is the integer 24 s: one rounding of the exact quotient
        for s in (1, 2, 3, 7, 2**40 + 1, 10**100):  # at beta = 1e200 F is the constant
            res = free_energy(QuantumStringConfig(s, math.pi), 1e200)
            assert res.free_energy == float(-Fraction((s - 1) ** 2, 24 * s))

    def test_numpy_beta_is_taken_as_a_float(self):
        # an np.float64 beta warned where beta^2 overflows, and the record kept its type
        cfg = QuantumStringConfig(2, math.pi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = free_energy(cfg, np.float64(1e200))
        assert type(res.beta) is float and res == free_energy(cfg, 1e200)

    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("beta", [1e155, 1e200, 1e308])
    def test_huge_beta_derivatives(self, s, beta):
        # beta^2 overflowed from beta ~ 1.34e154 and S = inf * 0 was nan
        res = thermo_derivatives(QuantumStringConfig(s, 3.0), beta)
        assert res.internal_energy == res.free_energy
        assert (res.entropy, res.identity_residual) == (0.0, 0.0)

    def test_integral_term_grows_toward_transition(self):
        # at fixed s the integral part swells as beta drops toward the
        # divergence, i.e. F decreases
        cfg = QuantumStringConfig(1, math.pi)
        betas = [20.0, 16.0, 13.0, 11.5]
        values = [free_energy(cfg, b).free_energy for b in betas]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            free_energy(QuantumStringConfig(1, math.pi), 0.0)


class TestRoundingBar:
    """The kernel's noise bound includes the rounding of the log integrand, so
    far below the Hagedorn temperature, where F is the constant to rounding,
    the sums stop instead of chasing noise."""

    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("frac", [300.0, 1000.0])
    def test_low_temperature_converges(self, s, frac, monkeypatch):
        nodes, log_integrand = [], quantum._log_integrand

        def counting(tau2, *args):
            nodes.append(tau2.size)
            return log_integrand(tau2, *args)

        monkeypatch.setattr(quantum, "_log_integrand", counting)
        res = free_energy(QuantumStringConfig(s, math.pi), frac * beta_star(s, math.pi))
        assert res.convergence_flag == "converged"
        assert abs(res.free_energy + (s - 1) ** 2 / (24 * s)) <= res.abs_error_estimate
        assert sum(nodes) <= 2**10

    @pytest.mark.parametrize("s, tension, frac", [(1, math.pi, 1.3), (2, math.pi, 3.0), (3, 2.0, 1.05)])
    def test_independent_of_the_first_call_size(self, s, tension, frac, monkeypatch):
        # every row is summed level by level, so batching moves no bit of F or its bar
        cfg, beta = QuantumStringConfig(s, tension), frac * beta_star(s, tension)
        res = free_energy(cfg, beta)
        for batch in (64, 1024):
            monkeypatch.setattr(energy, "_BATCH", batch)
            other = free_energy(cfg, beta)
            assert (other.free_energy, other.abs_error_estimate) == (
                res.free_energy, res.abs_error_estimate)


class TestHagedornRule:
    """The divergence is the sign of delta(beta); the empirical ray probe,
    which the library used before, agrees on a grid that straddles beta*."""

    FRACS = (0.5, 0.9, 0.99, 0.999, 1.001, 1.01, 1.1, 2.0, 5.0)

    @pytest.mark.parametrize("s", range(1, 7))
    def test_probe_agrees_with_delta(self, s):
        for tension in (0.3, 1.0, math.pi, 10.0):
            t = translational_energy(QuantumStringConfig(s, tension))
            for frac in self.FRACS:
                assert diverges_by_probe(s, frac * beta_star(s, tension), t) == (frac < 1.0)

    @pytest.mark.parametrize("s", range(1, 5))
    def test_flag_agrees_with_probe(self, s):
        for tension in (0.3, math.pi, 10.0):
            cfg = QuantumStringConfig(s, tension)
            for frac in self.FRACS:
                beta = frac * beta_star(s, tension)
                res = free_energy(cfg, beta)
                probe = diverges_by_probe(s, beta, translational_energy(cfg))
                assert (res.convergence_flag == "diverged-below-hagedorn") == probe
                assert (res.free_energy == -math.inf) == probe


class TestDeltaRounding:
    """delta(beta*) = 0 rounds to either sign; within 4 eps of its terms it
    counts as 0, where the integral converges like tau_2^22."""

    @pytest.mark.parametrize("s", range(1, 9))
    def test_converges_at_beta_star(self, s):
        # tau2_max = 0.5 keeps F representable up to s = 8
        cfg, beta = QuantumStringConfig(s, math.pi), beta_star(s, math.pi)
        res = free_energy(cfg, beta, tau2_max=0.5)
        assert res.convergence_flag == "converged"
        assert math.isfinite(res.free_energy) and res.free_energy < 0.0
        assert free_energy(cfg, 0.99 * beta, tau2_max=0.5).convergence_flag == (
            "diverged-below-hagedorn")


def unfolded_log_integrand(tau2, s, beta, t, n_tau1):
    """The rows of ``quantum._log_integrand`` with eta taken at every one of
    the n_tau1 tau_1 nodes, as before the fold; each node's real part
    (1+s) tau_1 mod 1 is rounded once, as in ``mp_free_energy``."""
    phase = (1 + s) * (2 * np.arange(n_tau1) - n_tau1) % (2 * n_tau1) / (2.0 * n_tau1)
    z = phase + 1j * (1.0 + s) * tau2[:, None]
    ln_eta = log_abs_dedekind_eta(np.concatenate([z.ravel(), 2j * s * (1.0 + s) * tau2]))
    powers = -48.0 * ln_eta[: z.size].reshape(z.shape)
    top = powers.max(axis=1)
    ln_tau1 = top + np.log(np.exp(powers - top[:, None]).sum(axis=1) / n_tau1)
    a = beta * beta * t / (8.0 * math.pi**2 * tau2)
    ln_theta, d_theta = _ln_theta3_minus_one(a)
    terms = (ln_theta, -24.0 * ln_eta[z.size :], -13.0 * np.log(tau2), ln_tau1)
    return np.array([sum(terms), sum(np.abs(term) for term in terms) + 1.0,
                     2.0 * a / beta * d_theta])


class TestTau1Fold:
    """eta at the distinct folded tau_1 phases only, weighted by multiplicity, below Y_c;
    the level sum from Y_c up."""

    TAU2 = np.geomspace(2.0**-40, 2.0, 41)

    @pytest.mark.parametrize("s", range(1, 9))
    @pytest.mark.parametrize("n_tau1", [1, 7, 16, 64, 100, 256])
    def test_matches_unfolded(self, s, n_tau1):
        cfg = QuantumStringConfig(s, math.pi)
        beta, t = 1.5 * beta_star(s, math.pi), translational_energy(cfg)
        edge = level_threshold(s, n_tau1) / (1.0 + s)  # on both sides of the threshold
        tau2 = np.sort(np.append(self.TAU2, edge * np.array([1.0 - 1e-12, 1.0 + 1e-12])))
        got = quantum._log_integrand(tau2, s, beta, t, n_tau1)
        ref = unfolded_log_integrand(tau2, s, beta, t, n_tau1)
        # each row's rounding is a few eps of the summed magnitude of its terms
        assert np.all(np.abs(got[:2] - ref[:2]) <= 2 * EPS * ref[1])
        assert np.array_equal(got[2], ref[2])

    @pytest.mark.parametrize("s", range(1, 13))
    def test_phases_are_the_exact_fold(self, s):
        # node k sits at r = (1+s)(2k - n) / (2n) mod 1, folded here in exact integers; a fold of
        # the rounded r kept mirrored phases apart, 3 phases for 2 at (s, n) = (1, 3)
        for n in [*range(1, 301), 1 << 16]:
            j = (1 + s) * (2 * np.arange(n) - n) % (2 * n)
            m, count = np.unique(np.minimum(j, 2 * n - j), return_counts=True)
            phase, got, period = quantum._phases(s, n)
            assert phase.tolist() == [float(Fraction(int(v), 2 * n)) for v in m]
            assert got.tolist() == count.tolist() and period == n // math.gcd(n, 1 + s)

    @pytest.mark.parametrize("s, n_tau1, phases, below, kept", [
        (1, 64, 17, 37, 3), (2, 64, 33, 37, 4), (3, 64, 9, 37, 4),
        (1, 100, 26, 37, 3), (2, 100, 51, 37, 4), (3, 100, 13, 37, 4)])
    def test_eta_arguments_per_node(self, s, n_tau1, phases, below, kept, monkeypatch):
        # the distinct folded phases of the n_tau1 nodes at each tau_2 node below Y_c, none from
        # Y_c up, and none on the imaginary axis; with the floor of node 0, tau_2 = 2 on the
        # level route, only at the nodes whose ray bound lies above it
        points, eta = [], quantum.log_abs_dedekind_eta

        def counting(z):
            points.append(np.size(z))
            return eta(z)

        monkeypatch.setattr(quantum, "log_abs_dedekind_eta", counting)
        cfg, tau2 = QuantumStringConfig(s, math.pi), self.TAU2[::-1].copy()
        beta, t = 1.5 * beta_star(s, math.pi), translational_energy(cfg)
        assert np.sum((1.0 + s) * tau2 < level_threshold(s, n_tau1)) == below
        quantum._log_integrand(tau2, s, beta, t, n_tau1)
        assert sum(points) == phases * below
        points.clear()
        rows = quantum._log_integrand(tau2, s, beta, t, n_tau1, None)
        assert sum(points) == phases * kept
        assert np.sum(rows[0] == -math.inf) == below - kept


class TestLevelSum:
    """From Y_c up, the level-matched sum over 21 tabulated p_24 stands in for the tau_1 rule."""

    def test_p24_literal(self):
        assert [int(p) for p in quantum._P24] == p24(20)
        assert quantum._P24.tolist() == [float(p) for p in p24(20)]  # each exact in a double

    def test_threshold_bounds_aliasing_and_tail(self):
        # the rule is off by 2 sum_{j >= 1} sum_m p(m) p(m + jN) e^{-2 pi Y (2m + jN)}, relative to
        # sum_n p(n)^2 e^{-4 pi Y n}; the table leaves out n > 20.  Both are below 2^-60 from Y_c,
        # and the formula is within 4% of the aliasing's own point wherever it binds
        p = np.array(p24(300), dtype=float)
        m = np.arange(p.size)

        def level(y, start=0):
            return np.sum(p[start:] ** 2 * np.exp(-4.0 * math.pi * y * m[start:]))

        def aliasing(n, y):
            total = sum(np.sum(p[:-d] * p[d:] * np.exp(-2.0 * math.pi * y * (2 * m[:-d] + d)))
                        for d in range(n, p.size, n))
            return 2.0 * total / level(y)

        assert level(0.408, 21) / level(0.408) <= 2.0**-60 < level(0.4, 21) / level(0.4)
        for n in range(1, 129):
            yc = level_threshold(n, n)  # gcd(n, n + 1) = 1
            assert aliasing(n, yc) <= 2.0**-60
            if yc > 0.408:
                assert aliasing(n, 0.96 * yc) > 2.0**-60

    @pytest.mark.parametrize("y", [level_threshold(s, 64) for s in (1, 2, 3)] + [1.0, 3.0])
    def test_matches_mpmath_quadrature(self, y):
        # Int_{-1/2}^{1/2} dtau_1 |eta((1+s) tau)|^{-48} depends on Y = (1+s) tau_2 alone: Y_c of
        # s = 1, 2, 3 at n_tau1 = 64, then 1 and 3
        with mp.workdps(30):  # |eta| is even and 1-periodic in Re: twice the integral over [0, 1/2]
            f = lambda u: mp.exp(-48 * _mp_ln_abs_eta(mp.mpc(u, y)))
            ref = mp.log(2 * mp.quad(f, [0, mp.mpf(1) / 4, mp.mpf(1) / 2]))
        got = quantum._ln_level_sum(np.array([y]))[0]
        assert abs(got - ref) <= 2 * EPS * abs(ref)


class TestScreen:
    """Nodes whose tau_1 = 0 ray bound lies more than 746 e-folds below the row at tau2_max
    are 0 in double precision: skipping them changes no bit, and keeps the rounding noise of
    deep nodes near beta* out of the sums."""

    def test_changes_no_bit(self, monkeypatch):
        cases = thermal_free_energies() + [(1, math.pi, math.sqrt(40 * math.pi))]  # the last at beta*
        points, eta = [], quantum.log_abs_dedekind_eta
        monkeypatch.setattr(quantum, "log_abs_dedekind_eta", lambda z: points.append(np.size(z)) or eta(z))

        def run():
            points.clear()
            return [repr(free_energy(QuantumStringConfig(s, tension), beta)) for s, tension, beta in cases]

        screened, screened_points = run(), sum(points)
        log_integrand = quantum._log_integrand
        monkeypatch.setattr(quantum, "_log_integrand",
                            lambda tau2, *args: log_integrand(tau2, *args[:4], -math.inf))
        assert len(cases) == 73 and run() == screened
        assert screened_points < sum(points) / 2

    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("octaves", [96, 900])
    def test_beta_star_at_any_depth(self, s, octaves):
        # the logs below tau2_max 2^-48 are rounding noise of terms like 1/tau_2 and reached past
        # the 700 e-fold check from about 60 octaves; their bound, with -delta/tau_2 = 0, skips them
        cfg = QuantumStringConfig(s, math.pi)
        beta = math.sqrt(40 * math.pi) if s == 1 else beta_star(s, math.pi)
        ref, deep = free_energy(cfg, beta), free_energy(cfg, beta, max_octaves=octaves)
        assert abs(deep.free_energy - ref.free_energy) <= ref.abs_error_estimate


def _two_branch_theta(a):
    """``_ln_theta3_minus_one`` as both of its forms on every call, each on its part of a."""
    out, slope = np.empty_like(a), np.empty_like(a)
    hi = a >= 1.0
    ah, al = a[hi], a[~hi]
    k = np.arange(2, 8) ** 2 - 1.0
    terms = np.exp(-np.multiply.outer(ah, k))
    tail = terms.sum(axis=-1)
    out[hi] = math.log(2.0) - ah + np.log1p(tail)
    slope[hi] = -1.0 - terms @ k / (1.0 + tail)
    k = np.arange(1, 4) ** 2
    terms = np.exp(-np.multiply.outer(math.pi**2 / al, k))
    dual = terms.sum(axis=-1)
    ln_theta = 0.5 * np.log(math.pi / al) + np.log1p(2.0 * dual)
    part = -np.expm1(-ln_theta)
    out[~hi] = ln_theta + np.log(part)
    slope[~hi] = (-0.5 / al + 2.0 * math.pi**2 / al**2 * (terms @ k) / (1.0 + 2.0 * dual)) / part
    return out, slope


class TestModulusPass:
    """One kernel pass per free energy: row 0 at its first node, tau2_max, normalises every
    call."""

    @pytest.mark.parametrize("a", [np.geomspace(1.0, 700.0, 257), np.geomspace(1e-3, 0.99, 257),
                                   np.geomspace(1e-3, 700.0, 257), np.geomspace(700.0, 1e-3, 100),
                                   np.array([1.0]), np.array([0.5])])
    def test_theta_forms_match_the_two_branch_form(self, a):
        got, ref = _ln_theta3_minus_one(a), _two_branch_theta(a)
        assert got[0].tobytes() == ref[0].tobytes() and got[1].tobytes() == ref[1].tobytes()

    @pytest.mark.parametrize("s, frac", [(1, 1.3), (2, 3.0), (3, 1.05), (2, 1e150)])
    def test_one_log_integrand_call_per_integrand_call(self, s, frac, monkeypatch):
        calls, log_integrand, contour = [], quantum._log_integrand, quantum._contour

        def counting(tau2, *args):
            calls.append("log_integrand")
            return log_integrand(tau2, *args)

        def counting_contour(f, *args):
            return contour(lambda v: calls.append("integrand") or f(v), *args)

        monkeypatch.setattr(quantum, "_log_integrand", counting)
        monkeypatch.setattr(quantum, "_contour", counting_contour)
        free_energy(QuantumStringConfig(s, math.pi), frac * beta_star(s, math.pi))
        assert calls.count("integrand") >= 1
        assert calls == ["integrand", "log_integrand"] * calls.count("integrand")

    def test_shift_is_row_0_at_tau2_max(self, monkeypatch):
        # the contour's first node, v = e^{-94.5}, is tau2_max to the last bit; the last is the far end
        args, log_integrand = [], quantum._log_integrand

        def recording(tau2, *rest):
            args.append(tau2)
            return log_integrand(tau2, *rest)

        monkeypatch.setattr(quantum, "_log_integrand", recording)
        free_energy(QuantumStringConfig(1, math.pi), 20.0, tau2_max=0.7)
        assert args[0][0] == 0.7 and args[0][-1] < 0.7

    @pytest.mark.parametrize("s, n_tau1, tau2_max, frac", [
        (1, 64, 1.0, 1.5), (3, 64, 1.0, 1.5), (2, 128, 0.5, 2.0), (1, 256, 0.25, 1.2),
        (2, 256, 0.25, 1.5)])
    def test_rows_0_and_1_match_one_node_calls(self, s, n_tau1, tau2_max, frac):
        # a BLAS product can round a row otherwise with the number of rows: with OpenBLAS 0.3.31
        # it did at 9 of these 5780 elements, (2, 256, 0.25, 1.5) at 130 nodes among them
        cfg = QuantumStringConfig(s, math.pi)
        beta, t = frac * beta_star(s, math.pi), translational_energy(cfg)
        for n in (1, 130, 1025):
            tau2 = np.append(tau2_max * np.exp(-np.linspace(0.01, 30.0, n - 1)), tau2_max)
            rows = quantum._log_integrand(tau2, s, beta, t, n_tau1)[:2]
            alone = [quantum._log_integrand(np.array([y]), s, beta, t, n_tau1)[:2, 0] for y in tau2]
            assert rows.T.tobytes() == np.array(alone).tobytes()

    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("tau2_max", [1.0, 3.0, 1e-3])
    def test_no_kernel_pass_exactly_where_row_0_at_tau2_max_is_minus_inf(self, s, tau2_max, monkeypatch):
        # the betas around the one where a = beta^2 t / (8 pi^2 tau2_max), as the rows form
        # it, overflows: beta^2 t first, or the quotient where 8 pi^2 tau2_max < 1
        cfg = QuantumStringConfig(s, math.pi)
        t, constant = translational_energy(cfg), -((s - 1) ** 2) / (24.0 * s)
        calls, log_integrand = [], quantum._log_integrand
        monkeypatch.setattr(quantum, "_log_integrand", lambda *args: calls.append(1) or log_integrand(*args))
        edge = math.sqrt(sys.float_info.max / t) * min(1.0, math.sqrt(8.0 * math.pi**2 * tau2_max))
        minus_inf = []
        for beta in (edge * (1.0 + EPS * np.arange(-6, 7))).tolist():
            calls.clear()
            res = free_energy(cfg, beta, tau2_max)
            minus_inf.append(log_integrand(np.array([tau2_max]), s, beta, t, 64)[0][0] == -math.inf)
            assert (not calls) == minus_inf[-1]
            if minus_inf[-1]:
                assert res == ThermoResult(constant, beta, "converged", constant + 0.0, 0.0, 0.0,
                                           EPS * abs(constant))
        assert not minus_inf[0] and minus_inf[-1]


class TestThermoDerivatives:
    def test_identity_residual_small(self):
        cfg = QuantumStringConfig(1, math.pi)
        res = thermo_derivatives(cfg, 3.0 * hagedorn_beta(cfg))
        assert res.identity_residual < 1e-5 * abs(res.free_energy)

    def test_entropy_nonnegative_at_samples(self):
        cfg = QuantumStringConfig(1, math.pi)
        for mult in (2.5, 3.0):
            res = thermo_derivatives(cfg, mult * hagedorn_beta(cfg))
            assert res.entropy >= 0.0

    def test_bar_of_the_central_free_energy(self):
        cfg = QuantumStringConfig(2, math.pi)
        beta = 1.5 * beta_star(2, math.pi)
        res = thermo_derivatives(cfg, beta)
        assert res.abs_error_estimate == free_energy(cfg, beta).abs_error_estimate > 0.0

    def test_raises_when_stencil_hits_divergence(self):
        cfg = QuantumStringConfig(2, math.pi)
        with pytest.raises(QuadratureError):
            thermo_derivatives(cfg, 1.2 * hagedorn_beta(cfg))


def richardson(cfg, beta, step_frac):
    """U and S by Richardson-refined central differences of F, steps h and
    h/2 with h = step_frac beta: the stencil thermo_derivatives used before
    its analytic route, kept as an independent check of it."""
    h = step_frac * beta
    f = {k: free_energy(cfg, beta + k * h).free_energy for k in (-1.0, -0.5, 0.5, 1.0)}

    def central(k):
        step = k * h
        u = ((beta + step) * f[k] - (beta - step) * f[-k]) / (2.0 * step)
        return u, beta * beta * (f[k] - f[-k]) / (2.0 * step)

    (u_h, s_h), (u_h2, s_h2) = central(1.0), central(0.5)
    return (4.0 * u_h2 - u_h) / 3.0, (4.0 * s_h2 - s_h) / 3.0


class TestAnalyticDerivatives:
    """U and S from the beta-slope row of the kernel pass that gives F."""

    @pytest.mark.parametrize("a", [0.02, 0.3, 0.9, 0.999999, 1.0, 1.000001, 1.7, 6.0, 30.0])
    def test_theta_slope_against_mpmath(self, a):
        # both sides of a = 1, where the sums switch to the Poisson-dual form;
        # theta_3 - 1 cancels about a / ln 10 digits, so 30 are left of 50
        with mp.workdps(50):
            ref = mp.diff(lambda b: mp.log(mp.jtheta(3, 0, mp.exp(-b)) - 1), mp.mpf(a))
        slope = _ln_theta3_minus_one(np.array([a]))[1][0]
        assert abs(slope - ref) <= 4 * EPS * abs(ref)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_richardson_stencil_agrees(self, s):
        cfg = QuantumStringConfig(s, math.pi)
        beta = 1.5 * beta_star(s, math.pi)
        res = thermo_derivatives(cfg, beta)
        u, entropy = richardson(cfg, beta, 1e-4)
        assert abs(u - res.internal_energy) <= 1e-10 * abs(res.internal_energy)
        assert abs(entropy - res.entropy) <= 1e-10 * abs(res.entropy)
        scale = abs(res.free_energy) + abs(res.internal_energy) + abs(res.entropy) / beta
        assert res.identity_residual <= 8 * EPS * scale
        assert res.free_energy == free_energy(cfg, beta).free_energy

    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("frac", [1.0, 1.0005])
    def test_converges_at_beta_star(self, s, frac):
        # a difference stencil here reaches below beta*, where F diverges
        res = thermo_derivatives(QuantumStringConfig(s, math.pi), frac * beta_star(s, math.pi))
        assert res.convergence_flag == "converged"
        assert all(math.isfinite(v) for v in (res.free_energy, res.internal_energy, res.entropy))
        assert res.entropy > 0.0

    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("frac", [1.001, 1.3, 5.0, None])  # None: beta = 1e155, the constant
    def test_free_energy_is_the_derivatives_record(self, s, frac):
        # free_energy carries U, S and the residual from the slope row it sums
        cfg = QuantumStringConfig(s, math.pi)
        beta = 1e155 if frac is None else frac * beta_star(s, math.pi)
        res = free_energy(cfg, beta)
        assert res == thermo_derivatives(cfg, beta)
        assert None not in (res.internal_energy, res.entropy, res.identity_residual)

    def test_one_modulus_pass(self, monkeypatch):
        # F, its rounding and dF/d beta are rows of one kernel pass
        calls, contour = [], quantum._contour

        def counting(*args, **kwargs):
            calls.append(args)
            return contour(*args, **kwargs)

        cfg, beta = QuantumStringConfig(2, math.pi), 1.5 * beta_star(2, math.pi)
        monkeypatch.setattr(quantum, "_contour", counting)
        free_energy(cfg, beta)
        assert len(calls) == 1
        thermo_derivatives(cfg, beta)
        assert len(calls) == 2

    def test_step_frac_does_not_change_the_result(self):
        cfg = QuantumStringConfig(1, math.pi)
        beta = 3.0 * hagedorn_beta(cfg)
        assert thermo_derivatives(cfg, beta, step_frac=0.5) == thermo_derivatives(cfg, beta)
