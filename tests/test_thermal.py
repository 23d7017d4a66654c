import math

import mpmath as mp
import pytest

from stringcasimir import (
    DomainError,
    NPieceConfig,
    StringConfig,
    ThermalConfig,
    casimir_2n_thermal,
    casimir_2n_thermal_x0,
    casimir_two_piece,
    casimir_two_piece_thermal,
    frequency_ratio,
    high_t_limit,
    mirror_limit,
)

# frozen from 40-digit direct summation of the raw dispersion-ratio formula
_ORACLE_TWO_PIECE = -0.0070700029524425411494   # s=2, x=0.3, T=0.4, L=pi
_ORACLE_2N = -0.29870927317441174203            # N=3, x=0.2, T=0.3, L=pi


@pytest.mark.parametrize("t", [math.inf, math.nan, -1.0])
def test_thermal_config_rejects_non_finite_or_negative(t):
    # T = nan used to spin to the old term limit and return nan
    with pytest.raises(DomainError):
        ThermalConfig(t)


@pytest.mark.parametrize("thermal_sum, cfg", [
    (casimir_two_piece_thermal, StringConfig(2, 0.3)),
    (casimir_2n_thermal, NPieceConfig(3, 0.3)),
    (casimir_2n_thermal, NPieceConfig(3, 0.0)),
])
def test_underflowing_temperature_is_a_domain_error(thermal_sum, cfg):
    # the Matsubara step 2 pi T underflows; this used to raise OverflowError
    with pytest.raises(DomainError):
        thermal_sum(cfg, ThermalConfig(1e-320))


class TestTwoPieceThermal:
    def test_against_high_precision_sum(self):
        res = casimir_two_piece_thermal(StringConfig(2, 0.3, math.pi), ThermalConfig(0.4))
        assert res.value == pytest.approx(_ORACLE_TWO_PIECE, abs=1e-13)
        assert res.method == "matsubara"

    def test_equal_pieces_vanish(self):
        res = casimir_two_piece_thermal(StringConfig(1, 0.3), ThermalConfig(0.7))
        assert res.value == 0.0

    def test_uniform_vanishes(self):
        res = casimir_two_piece_thermal(StringConfig(3, 1.0), ThermalConfig(0.7))
        assert res.value == 0.0
        assert res.method == "analytic-limit"

    def test_low_temperature_matches_zero_t(self):
        cfg = StringConfig(3, 0.2, math.pi)
        cold = casimir_two_piece_thermal(cfg, ThermalConfig(0.01 / math.pi))
        assert abs(cold.value - casimir_two_piece(cfg).value) < 1e-4

    def test_zero_temperature_rejected(self):
        with pytest.raises(DomainError):
            casimir_two_piece_thermal(StringConfig(2, 0.3), ThermalConfig(0.0))

    def test_nonpositive_on_grid(self):
        for s in (1.5, 3.0):
            for x in (0.0, 0.4, 0.9):
                for t in (0.2, 1.0, 5.0):
                    res = casimir_two_piece_thermal(StringConfig(s, x), ThermalConfig(t))
                    assert res.value <= 0.0

    def test_thermal_shift_bounded_by_fitted_quadratic(self):
        # |E(T) - E(0)| < C T^2 with C fitted at the largest temperature
        cfg = StringConfig(2, 0.5, math.pi)
        e0 = casimir_two_piece(cfg).value
        t0 = 0.4
        c = abs(casimir_two_piece_thermal(cfg, ThermalConfig(t0)).value - e0) / t0**2
        for t in (t0 / 2, t0 / 4):
            err = abs(casimir_two_piece_thermal(cfg, ThermalConfig(t)).value - e0)
            assert err < 1.05 * c * t * t


class TestHighTLimit:
    def test_equal_pieces_vanish(self):
        assert high_t_limit(StringConfig(1, 0.4), ThermalConfig(2.0)).value == 0.0

    def test_closed_form_value(self):
        res = high_t_limit(StringConfig(2, 0.5), ThermalConfig(1.0))
        assert res.value == pytest.approx(0.5 * math.log(80.0 / 81.0), rel=1e-13)
        assert res.value == pytest.approx(-0.006211259999, abs=1e-9)

    def test_dominates_once_thermal_frequency_wins(self):
        cfg = StringConfig(2, 0.3, math.pi)
        th = ThermalConfig(2.0 * 2.0 * math.pi / cfg.piece_length_i)  # ratio = 2
        assert frequency_ratio(cfg, th) == pytest.approx(2.0, rel=1e-14)
        full = casimir_two_piece_thermal(cfg, th).value
        approx = high_t_limit(cfg, th).value
        assert abs(full / approx - 1.0) < 1e-6


class TestMirrorLimit:
    def test_values(self):
        assert mirror_limit(0.5, ThermalConfig(1.0)).value == pytest.approx(
            -0.5 * math.log(9.0 / 8.0), rel=1e-13
        )
        assert mirror_limit(1.0 / 3.0, ThermalConfig(2.0)).value == pytest.approx(
            -math.log(4.0 / 3.0), rel=1e-13
        )

    def test_printed_form_drops_temperature(self):
        with_t = mirror_limit(0.5, ThermalConfig(3.0)).value
        bare = mirror_limit(0.5, ThermalConfig(3.0), printed_form=True).value
        assert with_t == pytest.approx(3.0 * bare, rel=1e-14)

    def test_matches_large_companion_high_t(self):
        th = ThermalConfig(1.0)
        for x in (0.5, 0.9):
            big = high_t_limit(StringConfig(1e6, x), th).value
            lim = mirror_limit(x, th).value
            assert abs(big - lim) < 1e-6
        # at x = 0.9 the truncation term (T/2) * 4/(s F) is below 1e-8
        assert abs(high_t_limit(StringConfig(1e6, 0.9), th).value
                   - mirror_limit(0.9, th).value) < 1e-8

    def test_vanishes_toward_uniform(self):
        assert abs(mirror_limit(0.999999, ThermalConfig(1.0)).value) < 1e-5

    def test_domain(self):
        with pytest.raises(DomainError):
            mirror_limit(0.0, ThermalConfig(1.0))
        with pytest.raises(DomainError):
            mirror_limit(1.0, ThermalConfig(1.0))


class TestNPieceThermal:
    def test_against_high_precision_sum(self):
        res = casimir_2n_thermal(NPieceConfig(3, 0.2, math.pi), ThermalConfig(0.3))
        assert res.value == pytest.approx(_ORACLE_2N, abs=1e-13)

    def test_uniform_vanishes(self):
        assert casimir_2n_thermal(NPieceConfig(3, 1.0), ThermalConfig(0.7)).value == 0.0

    def test_single_pair_vanishes(self):
        assert casimir_2n_thermal(NPieceConfig(1, 0.3), ThermalConfig(0.7)).value == 0.0

    @pytest.mark.parametrize("n", list(range(1, 7)))
    def test_decoupled_routes_agree(self, n):
        # the x = 0 sum against its direct summation at 30 digits,
        # 2T sum_{k>=1} ln[2^{N-1} sinh^N(xi_k L/2N) / sinh(xi_k L/2)]
        for t in (0.5, 0.02):
            res = casimir_2n_thermal_x0(n, ThermalConfig(t), math.pi)
            with mp.workdps(30):
                a = mp.pi * t * math.pi / n  # xi_1 L / 2N
                total, k = mp.mpf(0), 1
                while True:
                    term = (n - 1) * mp.log(2) + n * mp.log(mp.sinh(a * k)) - mp.log(mp.sinh(n * a * k))
                    total += term
                    if abs(term) < 1e-30:
                        break
                    k += 1
                expected = float(2 * t * total)
            assert abs(res.value - expected) <= res.abs_error_estimate, t

    def test_nonpositive(self):
        for n in (2, 5):
            for x in (0.0, 0.3, 0.8):
                for t in (0.1, 1.0):
                    assert casimir_2n_thermal(NPieceConfig(n, x), ThermalConfig(t)).value <= 0


class TestNPieceThermalDecoupled:
    def test_single_pair_vanishes(self):
        assert casimir_2n_thermal_x0(1, ThermalConfig(2.0), math.pi).value == 0.0

    def test_high_temperature_negligible(self):
        # T L = 10: every n >= 1 summand is exponentially small and the
        # zero-mode term is omitted, so the sum is within 1e-6 of zero
        th = ThermalConfig(10.0 / math.pi)
        res = casimir_2n_thermal_x0(2, th, math.pi)
        assert abs(res.value) < 1e-6

    @pytest.mark.parametrize("t_l", [0.01, 0.1])
    def test_two_pair_modular_closed_form(self, t_l):
        # independent oracle: 2T sum ln tanh(pi n T L / 2) =
        #   -pi/(2L) + T ln(4/(T L))  up to exponentially small corrections
        length = math.pi
        t = t_l / length
        res = casimir_2n_thermal_x0(2, ThermalConfig(t), length)
        predicted = -math.pi / (2 * length) + t * math.log(4.0 / (t * length))
        assert res.value == pytest.approx(predicted, abs=1e-12)

    def test_low_temperature_approach_has_logarithmic_offset(self):
        # the T -> 0 defect of the zero-mode-stripped sum is exactly
        # T ln(4/(T L)); verify the offset shrinks but is NOT quadratic
        length = math.pi
        zero_t = -0.5
        errs = []
        for t_l in (0.02, 0.01, 0.005):
            t = t_l / length
            val = casimir_2n_thermal_x0(2, ThermalConfig(t), length).value
            errs.append(abs(val - zero_t))
        assert errs[2] < errs[1] < errs[0]
        assert errs[1] / errs[2] < 4.0  # slower than quadratic


class TestFrequencyRatio:
    def test_examples(self):
        cfg = StringConfig(1, 0.5, math.pi)
        assert frequency_ratio(cfg, ThermalConfig(4.0)) == pytest.approx(1.0, rel=1e-14)
        assert frequency_ratio(cfg, ThermalConfig(0.0)) == 0.0
        crossover = 2.0 * math.pi / cfg.piece_length_i
        assert frequency_ratio(cfg, ThermalConfig(crossover)) == pytest.approx(1.0, rel=1e-14)
