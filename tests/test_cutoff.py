import math
import warnings

import pytest

from stringcasimir import (
    DomainError,
    ExtrapolationUnstableError,
    Spectrum,
    SpectrumTruncationError,
    StringConfig,
    casimir_by_cutoff,
    casimir_two_piece,
    casimir_two_piece_x0,
    damped_mode_sum,
    find_spectrum,
    uniform_spectrum,
)
from stringcasimir.cli import compare_methods
from stringcasimir.cutoff import DEFAULT_EPSILON_FRACTIONS


class TestDampedModeSum:
    def test_empty_spectrum(self):
        assert damped_mode_sum(Spectrum(entries=(), omega_max=50.0), 1.0) == 0.0

    def test_uniform_geometric_series(self):
        # (1/2) sum 2 n e^{-n} = e/(e-1)^2
        spec = uniform_spectrum(2 * math.pi, 60.0)
        got = damped_mode_sum(spec, 1.0)
        assert got == pytest.approx(math.e / (math.e - 1.0) ** 2, rel=1e-12)
        assert got == pytest.approx(0.9206735942077923, rel=1e-12)

    def test_monotone_in_epsilon(self):
        spec = find_spectrum(StringConfig(2, 0.0, math.pi), 90.0)
        sums = [damped_mode_sum(spec, e) for e in (0.5, 0.7, 1.0, 1.5)]
        assert all(b < a for a, b in zip(sums, sums[1:]))

    def test_insufficient_spectrum_rejected(self):
        spec = uniform_spectrum(2 * math.pi, 10.0)
        with pytest.raises(SpectrumTruncationError):
            damped_mode_sum(spec, 0.5)  # needs omega_max >= 80

    def test_epsilon_domain(self):
        spec = uniform_spectrum(2 * math.pi, 60.0)
        with pytest.raises(DomainError):
            damped_mode_sum(spec, 0.0)


class TestCasimirByCutoff:
    def test_equal_pieces_vanish(self):
        res = casimir_by_cutoff(StringConfig(1, 0.5, math.pi))
        assert abs(res.extrapolated_energy) < 1e-6

    def test_decoupled_anchor(self):
        res = casimir_by_cutoff(StringConfig(2, 0.0, math.pi))
        assert res.extrapolated_energy == pytest.approx(-1.0 / 48.0, abs=1e-4)
        assert res.as_energy_result().method == "cutoff-oracle"

    @pytest.mark.parametrize("length", [1e-3, 0.05, 1e3])
    def test_default_grid_is_scale_free(self, length):
        # the default damping grid scales with L and spans about 1020
        # half-periods pi/L at every L, so E L is the same within the bars
        ref = casimir_by_cutoff(StringConfig(2, 0.3, math.pi)).as_energy_result()
        res = casimir_by_cutoff(StringConfig(2, 0.3, length)).as_energy_result()
        bar = res.abs_error_estimate * length + ref.abs_error_estimate * math.pi
        assert abs(res.value * length - ref.value * math.pi) <= bar

    @pytest.mark.parametrize("length", [1e-300, 1e-100, 1e100, 1e300, 1.7e308])
    def test_fits_stay_in_range_at_any_length(self, length, capfd):
        # the fits took eps itself: eps^2 and the damped sums left the float range, which raised
        # LinAlgError past L = 1e200 and ExtrapolationUnstableError below L = 1e-100, with
        # RuntimeWarnings, a RankWarning and LAPACK lines on stderr
        ref = casimir_by_cutoff(StringConfig(2, 0.3, math.pi)).as_energy_result()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = casimir_by_cutoff(StringConfig(2, 0.3, length)).as_energy_result()
        bar = res.abs_error_estimate * length + ref.abs_error_estimate * math.pi
        assert abs(res.value * length - ref.value * math.pi) <= bar
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("length, epsilons", [
        (1e-304, None), (1e-310, None), (5e-324, None), (1e-305, [4e-307, 3e-307, 2e-307, 1e-307])])
    def test_refuses_lengths_past_the_float_range(self, length, epsilons, capfd):
        # omega_max = 40/eps_min or the damped sums, about L/(2 pi eps_min^2), pass the float range:
        # the refusal names L and the least L the grid serves, not an omega_max or an epsilon
        with pytest.raises(DomainError, match=r"total_length=\S+ is below \S+, the least L"):
            casimir_by_cutoff(StringConfig(2, 0.3, length), epsilons)
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("length", [math.pi, 1e3])
    def test_fit_residual_rule_is_scale_free(self, length):
        # on a grid 4x coarser than the default the residual is 0.13% of c0 at
        # every L; an absolute 1e-6 in the rule let it pass at L = 1e3 only
        epsilons = [4.0 * f * length for f in DEFAULT_EPSILON_FRACTIONS]
        with pytest.raises(ExtrapolationUnstableError):
            casimir_by_cutoff(StringConfig(2, 0.3, length), epsilons)

    def test_agrees_with_contour(self):
        cfg = StringConfig(3, 0.4, math.pi)
        oracle = casimir_by_cutoff(cfg).extrapolated_energy
        contour = casimir_two_piece(cfg).value
        assert abs(oracle - contour) < 1e-4

    def test_divergences_cancel(self):
        # each raw sum blows up like 1/eps^2 but their ratio tends to 1
        # and the difference stays bounded across the sampled range
        cfg = StringConfig(2, 0.3, math.pi)
        length = cfg.total_length
        omega_max = 40.0 / (0.0125 * length) * 1.002
        comp = find_spectrum(cfg, omega_max)
        unif = uniform_spectrum(length, omega_max)
        ratios, diffs = [], []
        for frac in DEFAULT_EPSILON_FRACTIONS:
            eps = frac * length
            a, b = damped_mode_sum(comp, eps), damped_mode_sum(unif, eps)
            ratios.append(a / b)
            diffs.append(a - b)
        assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)
        assert abs(ratios[-1] - 1.0) < 1e-3
        assert max(abs(d) for d in diffs) < 1.0

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 6])
    def test_error_bar_covers_closed_form(self, s):
        # the fit residual alone was 12.6 times smaller than the true error
        res = casimir_by_cutoff(StringConfig(s, 0.0, math.pi)).as_energy_result()
        closed = casimir_two_piece_x0(s, math.pi).value
        assert abs(res.value - closed) <= res.abs_error_estimate

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_error_bar_covers_contour(self, s):
        for x in (0.0, 0.1, 0.5, 0.9):
            report = compare_methods(StringConfig(s, x, math.pi))
            bars = report["contour_error"] + report["oracle_error"]
            assert report["abs_difference"] <= bars
            assert report["agree"]

    @pytest.mark.parametrize("s, x", [(100, 0.3), (0.01, 0.3), (1000, 0.0)])
    def test_error_bar_covers_contour_at_high_contrast(self, s, x):
        # on a grid of fractions of L the fit raised at s = 100: it was not small against L/(1 + s)
        cfg = StringConfig(s, x)
        oracle, contour = casimir_by_cutoff(cfg).as_energy_result(), casimir_two_piece(cfg)
        assert abs(oracle.value - contour.value) <= oracle.abs_error_estimate + contour.abs_error_estimate

    @pytest.mark.parametrize("s", [2000, 1 / 2000])
    def test_default_grid_refuses_past_its_contrast(self, s):
        # its smallest epsilon would need a spectrum over 2^18 half-periods pi/L; the refusal
        # names s and its range, not an omega_max the caller never gave
        with pytest.raises(DomainError, match=r"length_ratio=.* about 1/1026 <= s <= 1026"):
            casimir_by_cutoff(StringConfig(s, 0.3))

    @pytest.mark.parametrize("s, length", [(1e-200, math.pi), (1e200, math.pi), (5e-324, 1.0)])
    def test_default_grid_refuses_extreme_contrast_by_name(self, s, length):
        # the float-range check ran first and divided by ratio^2, which underflows to 0 for s
        # past about 1e161 or below 1e-161: a raw ZeroDivisionError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"length_ratio=\S+ is past the default damping grid"):
                casimir_by_cutoff(StringConfig(s, 0.3, length))

    def test_default_grid_past_both_bounds_gets_the_contrast_message(self):
        # s = 1e4 is past the spectra's reach and L = 1e-305 below the float range: the reach
        # is checked first (this got the float-range message)
        with pytest.raises(DomainError, match=r"length_ratio=10000 is past the default damping grid"):
            casimir_by_cutoff(StringConfig(1e4, 0.3, 1e-305))

    def test_caller_grid_far_above_length_raises_no_overflow_error(self):
        # 1 / ratio^2 of the float-range check raised OverflowError once eps_min / L passed 1.3e154;
        # such a grid is now refused by its largest epsilon, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"largest epsilon=1e\+300 is past 0\.628319"):
                casimir_by_cutoff(StringConfig(2, 0.3), [1e300, 1e299, 1e298, 1e297])

    def test_caller_grid_refuses_its_largest_epsilon(self):
        # every damped sum is 0 here (omega_max = 40/70 is below the first mode), and the fit
        # returned 0.0 with a bar of 0.0 where the contour gives -0.005872
        with pytest.raises(DomainError, match=r"largest epsilon=100 is past 0\.628319, 0\.6 of "
                                              r"the shorter piece"):
            casimir_by_cutoff(StringConfig(2, 0.3), [100, 90, 80, 70])

    @pytest.mark.parametrize("s", [2.0, 0.5, 1.5, 5.0])
    @pytest.mark.parametrize("x", [0.0, 0.3, 0.9])
    def test_caller_grid_bar_covers_the_contour(self, s, x):
        # eps_max (1, 0.9, 0.8, 0.7): at eps_max = 0.5 L, s = 2 (1.5 of the shorter piece) the bar
        # fell short of the error 5.5 to 11 times; at 0.6 of the shorter piece it covers it
        cfg = StringConfig(s, x)
        short, ref = min(cfg.piece_length_i, cfg.piece_length_ii), casimir_two_piece(cfg).value
        with pytest.raises(DomainError, match=r"largest epsilon=\S+ is past \S+, 0\.6 of the"):
            casimir_by_cutoff(cfg, [f * 0.5 * math.pi for f in (1.0, 0.9, 0.8, 0.7)])
        res = casimir_by_cutoff(cfg, [f * 0.6 * short for f in (1.0, 0.9, 0.8, 0.7)])
        res = res.as_energy_result()
        assert abs(res.value - ref) <= res.abs_error_estimate

    def test_caller_grid_refuses_its_smallest_epsilon(self):
        with pytest.raises(DomainError, match=r"smallest epsilon=1e-05 is below 0\.000152893"):
            casimir_by_cutoff(StringConfig(2, 0.3, math.pi), [0.1, 0.05, 0.02, 1e-5])

    @pytest.mark.parametrize("s", [1 / 3 + 1e-15, 0.5, 1.8, 2.2, 3])
    def test_default_grid_is_fractions_of_length_from_one_third_to_three(self, s):
        res = casimir_by_cutoff(StringConfig(s, 0.3, 7.0))
        assert [e for e, _ in res.epsilon_samples] == [f * 7.0 for f in DEFAULT_EPSILON_FRACTIONS]

    def test_extrapolation_stable_under_refinement(self):
        cfg = StringConfig(2, 0.5, math.pi)
        base = casimir_by_cutoff(cfg).extrapolated_energy
        fracs = list(DEFAULT_EPSILON_FRACTIONS) + [DEFAULT_EPSILON_FRACTIONS[-1] / 2]
        refined = casimir_by_cutoff(cfg, epsilons=[f * cfg.total_length for f in fracs])
        assert abs(refined.extrapolated_energy - base) < 1e-4

    def test_samples_recorded_decreasing(self):
        res = casimir_by_cutoff(StringConfig(2, 0.1, math.pi))
        eps = [e for e, _ in res.epsilon_samples]
        assert all(b < a for a, b in zip(eps, eps[1:]))
        assert len(eps) == len(DEFAULT_EPSILON_FRACTIONS)

    def test_epsilon_validation(self):
        cfg = StringConfig(2, 0.5, math.pi)
        with pytest.raises(DomainError):
            casimir_by_cutoff(cfg, epsilons=[0.1, 0.05, 0.02])  # too few
        with pytest.raises(DomainError):
            casimir_by_cutoff(cfg, epsilons=[0.02, 0.05, 0.1, 0.2])  # increasing
        with pytest.raises(DomainError):
            casimir_by_cutoff(cfg, epsilons=[0.1, 0.05, 0.02, 1e-4])  # too small
