import math

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stringcasimir import (
    DomainError,
    NPieceConfig,
    QuadratureError,
    StringConfig,
    ThermalConfig,
    casimir_2n,
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


def test_matsubara_frequency():
    assert ThermalConfig(0.5).matsubara(3) == 3.0 * math.pi


@pytest.mark.parametrize("thermal_sum, cfg", [
    (casimir_two_piece_thermal, StringConfig(2, 0.3)),
    (casimir_2n_thermal, NPieceConfig(3, 0.3)),
    (casimir_2n_thermal, NPieceConfig(3, 0.0)),
])
def test_underflowing_temperature_is_a_domain_error(thermal_sum, cfg):
    # the Matsubara step 2 pi T underflows; this used to raise OverflowError
    with pytest.raises(DomainError):
        thermal_sum(cfg, ThermalConfig(1e-320))


@pytest.mark.parametrize("thermal_sum, cfg", [
    (casimir_two_piece_thermal, StringConfig(1e308, 0.3)),
    (casimir_2n_thermal, NPieceConfig(2, 0.3, 1e-320)),
])
def test_out_of_range_length_scale_is_named(thermal_sum, cfg):
    # the infinite truncation point was reported as a temperature too small
    with pytest.raises(DomainError, match="length scales"):
        thermal_sum(cfg, ThermalConfig(1.0))


@pytest.mark.parametrize("energy", [
    lambda: high_t_limit(StringConfig(1e100, 0.0), ThermalConfig(1e308)),
    lambda: mirror_limit(5e-324, ThermalConfig(1.0)),  # 1/F overflows
    lambda: casimir_2n_thermal(NPieceConfig(10**6, 0.3, 1e-300), ThermalConfig(1e306)),
])
def test_overflowing_energy_is_a_quadrature_error(energy):
    # each returned -inf
    with pytest.raises(QuadratureError, match="not representable"):
        energy()


@pytest.mark.parametrize("result", [
    lambda th: casimir_two_piece(StringConfig(1, 0.3)),
    lambda th: casimir_two_piece(StringConfig(2.0, 1.0)),
    lambda th: casimir_two_piece_thermal(StringConfig(1, 0.3), th),
    lambda th: casimir_two_piece_thermal(StringConfig(2.0, 1.0), th),
    lambda th: high_t_limit(StringConfig(1, 0.3), th),
    lambda th: high_t_limit(StringConfig(2.0, 1.0), th),
    lambda th: casimir_2n(NPieceConfig(1, 0.3)),
    lambda th: casimir_2n(NPieceConfig(1, 0.0)),
    lambda th: casimir_2n(NPieceConfig(1, 0.3), slow_exact=True),
    lambda th: casimir_2n(NPieceConfig(4, 1.0)),
    lambda th: casimir_2n_thermal(NPieceConfig(1, 0.3), th),
    lambda th: casimir_2n_thermal(NPieceConfig(4, 1.0), th),
])
def test_vanishing_integrand_is_the_analytic_limit(result, monkeypatch):
    # x = 1, s = 1 and N = 1 take one tag at every temperature, before any kernel pass
    def no_pass(*args, **kwargs):
        raise AssertionError("kernel pass over an integrand that vanishes")

    monkeypatch.setattr("stringcasimir.energy._trapezoid", no_pass)
    monkeypatch.setattr("stringcasimir.thermal._trapezoid", no_pass)
    res = result(ThermalConfig(0.3))
    assert (repr(res.value), res.method, res.abs_error_estimate) == ("0.0", "analytic-limit", 0.0)


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

    def test_uniform_vanishes(self):
        res = high_t_limit(StringConfig(2, 1.0), ThermalConfig(2.0))
        assert (res.value, res.method) == (0.0, "analytic-limit")

    def test_closed_form_value(self):
        res = high_t_limit(StringConfig(2, 0.5), ThermalConfig(1.0))
        assert res.value == pytest.approx(0.5 * math.log(80.0 / 81.0), rel=1e-13)
        assert res.value == pytest.approx(-0.006211259999, abs=1e-9)

    @pytest.mark.parametrize("s", [1e15, 1e16, 1e-16, 1e100])
    def test_closed_form_at_extreme_length_ratio(self, s):
        # at x = 0 the kernel's 1 - r^2 cancelled: -inf at s = 1e16, -18.02 at 1e-16
        res = high_t_limit(StringConfig(s, 0.0), ThermalConfig(1.0))
        assert res.value == pytest.approx(0.5 * (math.log(4.0 * s) - 2.0 * math.log1p(s)),
                                          rel=4e-16)

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

    @pytest.mark.parametrize("n", [2, 3, 5, 40])
    @pytest.mark.parametrize("t_l", [1e-6, 1e-3, 0.1, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0])
    def test_closed_form_bar_covers_mpmath(self, n, t_l):
        self._check_closed_form(n, t_l / math.pi)

    # the lattice took 0.8 s at (3, 1e-6) and ran out of nodes at (40, 1e-5); at T = 20/pi it
    # was 855 bars off at N = 5 and returned 0.0 +- 0.0 at N = 2
    @pytest.mark.parametrize("n, t", [(3, 1e-6), (40, 1e-5), (5, 20 / math.pi), (2, 20 / math.pi)])
    def test_closed_form_where_the_lattice_failed(self, n, t):
        self._check_closed_form(n, t)

    def test_closed_form_past_the_float_range(self):
        # T L overflows: every term is below the smallest float, and so is the bar
        res = casimir_2n_thermal(NPieceConfig(2, 0.0, 1e300), ThermalConfig(1e10))
        assert (res.value, res.method, res.abs_error_estimate) == (0.0, "analytic-limit", 0.0)

    # e^{-2 pi T L/N} underflows from T L = 118.6e12 at N = 1e12, where this returned 0.0 +- 0.0:
    # the energy, about -2TN e^{-2 pi T L/N}, is -9.4e-299 at 118.7e12, subnormal at 122.5e12,
    # and below the smallest float at 130e12, where 0.0 +- 0.0 is right.  The bar is up to
    # 64 eps (1 + 2 pi T L/N) of the value, 1.1e-11 here.
    @pytest.mark.parametrize("t_l", [110e12, 118.7e12, 122.5e12, 130e12])
    def test_closed_form_where_the_leading_term_underflows(self, t_l):
        self._check_closed_form(10**12, t_l / math.pi, bar=2e-11)

    @staticmethod
    def _check_closed_form(n, t, bar=1e-11):
        res = casimir_2n_thermal(NPieceConfig(n, 0.0), ThermalConfig(t))
        with mp.workdps(40):
            t_l = mp.mpf(t) * mp.mpf(math.pi)
            ref = 2 * mp.mpf(t) * (n * _mp_log_phi(t_l / n) - _mp_log_phi(t_l))
        assert res.method == "analytic-limit"
        assert abs(res.value - float(ref)) <= res.abs_error_estimate <= bar * abs(float(ref))

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


def _mp_log_phi(z):
    # ln prod_{k>=1} (1 - e^{-2 pi k z}) summed term by term where that takes at most about
    # 170 terms (z >= 1/10), below through ln eta(iz) = ln eta(i/z) - ln(z)/2, eta(iz) =
    # e^{-pi z/12} prod_{k>=1} (1 - e^{-2 pi k z}); the x = 0 sum is
    # 2T [N ln phi(e^{-2 pi T L/N}) - ln phi(e^{-2 pi T L})]
    if z < mp.mpf(1) / 10:
        return mp.pi * z / 12 - mp.log(z) / 2 - mp.pi / (12 * z) + _mp_log_phi(1 / z)
    total, k = mp.mpf(0), 1
    while True:
        term = mp.log1p(-mp.exp(-2 * mp.pi * k * z))
        total += term
        if abs(term) < mp.mpf(10) ** -45 * abs(total):
            return total
        k += 1


class TestFrequencyRatio:
    def test_examples(self):
        cfg = StringConfig(1, 0.5, math.pi)
        assert frequency_ratio(cfg, ThermalConfig(4.0)) == pytest.approx(1.0, rel=1e-14)
        assert frequency_ratio(cfg, ThermalConfig(0.0)) == 0.0
        crossover = 2.0 * math.pi / cfg.piece_length_i
        assert frequency_ratio(cfg, ThermalConfig(crossover)) == pytest.approx(1.0, rel=1e-14)


def n_ge_1_bound(cfg, th):
    """A bound on T sum_{n>=1} |ln ratio(xi_n)|, what the n = 0 term leaves out.

    ln ratio = log1p(-u) with u = r^2 / (F + 1), r = sinh(d xi/2) / sinh(L xi/2)
    and L - d = 2m, m = min(L_I, L_II).  As sinh(a)/sinh(b) <= e^{a-b} for
    0 <= a <= b, u <= r^2 <= e^{-2 m xi} = q^n at xi_n = 2 pi n T, and
    |log1p(-u)| <= u/(1-u) <= q^n/(1-q), so the sum is at most T q/(1-q)^2.
    """
    m = min(cfg.piece_length_i, cfg.piece_length_ii)
    q = math.exp(-4.0 * math.pi * m * th.temperature)
    return th.temperature * q / (1.0 - q) ** 2


@settings(max_examples=40, deadline=None, derandomize=True)
@given(s=st.floats(-2.0, 2.0).map(lambda e: 10.0**e),
       x=st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
       length=st.floats(0.1, 10.0), ratio=st.floats(1.0, 50.0))
def test_high_t_limit_property(s, x, length, ratio):
    # where frequency_ratio >= 1 the Matsubara sum is its n = 0 term,
    # high_t_limit, up to the bar and the bounded n >= 1 terms
    cfg = StringConfig(s, x, length)
    th = ThermalConfig(ratio * 2.0 * math.pi / cfg.piece_length_i)
    assume(frequency_ratio(cfg, th) >= 1.0)
    full = casimir_two_piece_thermal(cfg, th)
    limit = high_t_limit(cfg, th)
    assert abs(full.value - limit.value) <= full.abs_error_estimate + n_ge_1_bound(cfg, th)
