import math
import sys

import mpmath as mp
import numpy as np
import pytest

from stringcasimir import (
    DomainError,
    NPieceConfig,
    StringConfig,
    alpha_param,
    dispersion_2n,
    dispersion_two_piece,
    lambda_pair,
    system_matrix,
    tension_contrast,
    transfer_matrix,
)
from stringcasimir import ThermalConfig, casimir_two_piece, casimir_two_piece_thermal, core, energy
from stringcasimir import casimir_2n, casimir_2n_thermal, high_t_limit
from stringcasimir.core import imag_axis_log_ratio, imag_axis_log_ratio_2n


class TestConfigs:
    def test_piece_lengths_sum_exactly(self):
        for s in (0.3, 1.0, 2.0, 7.5):
            cfg = StringConfig(length_ratio=s, tension_ratio=0.5, total_length=math.pi)
            assert cfg.piece_length_i + cfg.piece_length_ii == cfg.total_length

    def test_tension_ratio_above_one_maps_to_reciprocal(self):
        cfg = StringConfig(length_ratio=2.0, tension_ratio=4.0)
        assert cfg.tension_ratio == 0.25
        assert NPieceConfig(piece_pairs=3, tension_ratio=4.0).tension_ratio == 0.25

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            StringConfig(length_ratio=0.0, tension_ratio=0.5)
        with pytest.raises(DomainError):
            StringConfig(length_ratio=1.0, tension_ratio=-0.1)
        with pytest.raises(DomainError):
            StringConfig(length_ratio=1.0, tension_ratio=0.5, total_length=0.0)
        with pytest.raises(DomainError):
            NPieceConfig(piece_pairs=0, tension_ratio=0.5)
        with pytest.raises(DomainError):
            NPieceConfig(piece_pairs=2.5, tension_ratio=0.5)

    @pytest.mark.parametrize("field", ["length_ratio", "tension_ratio", "total_length"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_string_config_rejects_non_finite(self, field, value):
        # x = inf used to map silently to the decoupled case, L = inf to 0
        kwargs = {"length_ratio": 2.0, "tension_ratio": 0.3, "total_length": math.pi}
        with pytest.raises(DomainError):
            StringConfig(**{**kwargs, field: value})

    @pytest.mark.parametrize("field", ["tension_ratio", "total_length"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_npiece_config_rejects_non_finite(self, field, value):
        kwargs = {"piece_pairs": 3, "tension_ratio": 0.3, "total_length": math.pi}
        with pytest.raises(DomainError):
            NPieceConfig(**{**kwargs, field: value})


class TestTensionContrast:
    def test_values(self):
        assert tension_contrast(0.5) == pytest.approx(8.0, rel=1e-15)
        assert tension_contrast(1.0 / 3.0) == pytest.approx(3.0, rel=1e-14)

    def test_pole_and_domain(self):
        with pytest.raises(DomainError):
            tension_contrast(1.0)
        with pytest.raises(DomainError):
            tension_contrast(0.0)
        with pytest.raises(DomainError):
            tension_contrast(-2.0)

    def test_reciprocal_symmetry(self):
        for x in (0.05, 0.3, 0.8):
            assert tension_contrast(x) == pytest.approx(tension_contrast(1.0 / x), rel=1e-13)

    def test_strictly_increasing(self):
        xs = np.linspace(0.01, 0.99, 50)
        fs = [tension_contrast(x) for x in xs]
        assert all(b > a for a, b in zip(fs, fs[1:]))


class TestAlphaParam:
    def test_endpoints(self):
        assert alpha_param(1.0) == 0.0
        assert alpha_param(0.0) == 1.0
        assert alpha_param(1.0 / 3.0) == pytest.approx(0.5, rel=1e-15)

    def test_weight_identity(self):
        for x in np.linspace(0.01, 1.0, 23):
            a = alpha_param(x)
            assert 1.0 - a * a == pytest.approx(4.0 * x / (1.0 + x) ** 2, rel=4e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            alpha_param(-0.2)
        with pytest.raises(DomainError):
            alpha_param(1.5)


class TestDispersionTwoPiece:
    def test_zero_at_origin(self):
        for cfg in (StringConfig(2, 0.3), StringConfig(1, 0.0), StringConfig(5, 1.0)):
            assert dispersion_two_piece(0.0, cfg) == pytest.approx(0.0, abs=1e-15)

    def test_decoupled_equal_pieces(self):
        # s=1, L=pi, x=0: g = sin^2(omega pi / 2), zeros at even integers
        cfg = StringConfig(1, 0.0, math.pi)
        w = np.linspace(0.1, 6, 101)
        assert np.allclose(dispersion_two_piece(w, cfg), np.sin(w * math.pi / 2) ** 2, atol=1e-14)
        assert abs(dispersion_two_piece(4.0, cfg)) < 1e-14

    def test_decoupled_branches_s2(self):
        # both branch families are zeros: (1+s)n and (1+1/s)n
        cfg = StringConfig(2, 0.0, math.pi)
        assert abs(dispersion_two_piece(3.0, cfg)) < 1e-12
        assert abs(dispersion_two_piece(1.5, cfg)) < 1e-12

    def test_even_in_omega(self):
        cfg = StringConfig(2.7, 0.4)
        w = np.linspace(0.3, 8, 17)
        assert np.allclose(dispersion_two_piece(w, cfg), dispersion_two_piece(-w, cfg), rtol=1e-13)

    def test_uniform_limit(self):
        cfg = StringConfig(3, 1.0, 2 * math.pi)
        w = np.linspace(0.1, 4, 50)
        assert np.allclose(dispersion_two_piece(w, cfg), np.sin(w * math.pi) ** 2, atol=1e-14)

    def test_length_ratio_inversion_invariance(self):
        a = StringConfig(2.5, 0.4, math.pi)
        b = StringConfig(1 / 2.5, 0.4, math.pi)
        w = np.linspace(0.2, 12, 301)
        assert np.allclose(dispersion_two_piece(w, a), dispersion_two_piece(w, b), atol=1e-13)

    def test_tension_inversion_invariance(self):
        a = StringConfig(2.0, 3.0, math.pi)   # mapped to x = 1/3
        b = StringConfig(2.0, 1 / 3.0, math.pi)
        w = np.linspace(0.2, 9, 101)
        assert np.allclose(dispersion_two_piece(w, a), dispersion_two_piece(w, b), rtol=1e-14)


class TestTransferMatrix:
    def test_identity_at_origin(self):
        tm = transfer_matrix(0.0, 0.0)
        assert tm.a == pytest.approx(1.0)
        assert tm.b == pytest.approx(0.0)
        assert np.allclose(tm.as_matrix(), np.eye(2))

    def test_entries_at_pi(self):
        tm = transfer_matrix(0.5, math.pi)
        assert tm.a == pytest.approx(-1.25, abs=1e-15)
        assert tm.b == pytest.approx(-1.0, abs=1e-15)

    def test_determinant_invariant(self):
        for alpha in (0.0, 0.3, 0.5, 0.9):
            for p in np.linspace(-7, 7, 29):
                tm = transfer_matrix(alpha, p)
                assert abs(tm.determinant - (1 - alpha**2) ** 2) < 1e-12

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            transfer_matrix(1.0, 0.5)


class TestSystemMatrix:
    def test_unimodular(self):
        # phases kept in the oscillatory regime, where the matrix powers
        # stay O(1) and the determinant identity is testable at 1e-10
        for n in range(1, 11):
            for x in (0.3, 0.5, 0.9):
                for p in (0.3, 0.9, 1.5):
                    m = system_matrix(NPieceConfig(n, x), p)
                    assert abs(np.linalg.det(m) - 1.0) < 1e-10

    def test_unimodular_growing_regime_small_n(self):
        for n in (1, 2, 3, 4):
            for p in (2.5, 4.1):
                m = system_matrix(NPieceConfig(n, 0.4), p)
                assert abs(np.linalg.det(m) - 1.0) < 1e-10

    def test_rejects_decoupled(self):
        with pytest.raises(DomainError):
            system_matrix(NPieceConfig(2, 0.0), 0.5)


class TestLambdaPair:
    def test_degenerate_at_zero(self):
        for alpha in (0.0, 0.4, 0.8):
            pair = lambda_pair(alpha, 0.0)
            assert pair.lambda_plus == pytest.approx(1 - alpha**2, rel=1e-14)
            assert pair.lambda_minus == pytest.approx(1 - alpha**2, rel=1e-14)

    def test_uniform_exponentials(self):
        for q in (0.2, 1.0, 3.5):
            pair = lambda_pair(0.0, q)
            assert pair.lambda_plus == pytest.approx(math.exp(q), rel=1e-13)
            assert pair.lambda_minus == pytest.approx(math.exp(-q), rel=1e-13)

    def test_half_alpha_reference_values(self):
        # independently frozen from numpy eigenvalues of the junction matrix
        pair = lambda_pair(0.5, 1.0)
        assert pair.lambda_plus == pytest.approx(2.34643600131517, rel=1e-13)
        assert pair.lambda_minus == pytest.approx(0.2397252683153177, rel=1e-13)
        assert pair.lambda_plus * pair.lambda_minus == pytest.approx(0.5625, rel=1e-12)

    def test_invariants_on_grid(self):
        for alpha in np.linspace(0.0, 0.95, 11):
            for q in np.linspace(0.0, 6.0, 13):
                pair = lambda_pair(alpha, q)
                assert abs(
                    pair.lambda_plus + pair.lambda_minus - 2 * (math.cosh(q) - alpha**2)
                ) < 1e-12 * max(1.0, math.cosh(q))
                assert abs(pair.lambda_plus * pair.lambda_minus - (1 - alpha**2) ** 2) < 1e-12
                if q > 0 and alpha < 1:
                    assert pair.lambda_plus >= pair.lambda_minus > 0


class TestDispersion2N:
    def test_zero_at_origin(self):
        # on both routes; lambda_pair's lambda_minus = w^2/w can miss w by an ulp, which left
        # the eigenvalue form a D of about -1e-16 at q = 0 without its own check
        for n, x in ((1, 0.5), (3, 0.1), (6, 0.9), (2, 0.05120100502512563)):
            for slow_exact in (False, True):
                assert dispersion_2n(0.0, NPieceConfig(n, x), slow_exact=slow_exact) == 0.0

    def test_uniform_closed_form(self):
        cfg = NPieceConfig(4, 1.0)
        for q in (0.1, 1.0, 2.5):
            assert dispersion_2n(q, cfg) == pytest.approx(2 - 2 * math.cosh(4 * q), rel=1e-13)

    def test_matrix_power_cross_check(self):
        for n, x, q in ((2, 0.1, 0.5), (4, 0.3, 1.0), (8, 0.9, 0.2), (3, 0.5, 3.0)):
            cfg = NPieceConfig(n, x)
            fast = dispersion_2n(q, cfg)
            slow = dispersion_2n(q, cfg, slow_exact=True)
            assert abs(fast - slow) <= 1e-10 * max(1.0, abs(slow))

    @pytest.mark.parametrize("slow_exact", [False, True])
    @pytest.mark.parametrize("n, x, q", [(2, 0.5, 360.0), (2, 0.5, 400.0), (2, 0.01, 1e4),
                                         (40, 0.3, 18.0), (100, 0.9, 100.0), (3, 0.9, 1e300)])
    def test_minus_infinity_past_the_float_range(self, n, x, q, slow_exact):
        # D_N leaves the float range once N q passes about 709; this raised
        # OverflowError (fast route) or warned (matrix powers)
        assert dispersion_2n(q, NPieceConfig(n, x), slow_exact=slow_exact) == -math.inf

    def test_negative_on_imaginary_axis(self):
        for n in range(2, 9):
            for x in (0.1, 0.5, 0.9):
                cfg = NPieceConfig(n, x)
                for q in np.linspace(0.05, 5.0, 40):
                    assert dispersion_2n(q, cfg) < 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 40])
    def test_against_mpmath(self, n):
        # -4 w^N sinh^2(N theta/2) at 50 digits, -(2 sinh(q/2))^{2N} at x = 0.
        # The old x = 1 branch, 2 - 2 cosh(Nq), returned 0 at q = 1e-12.
        # The exponent, up to 700 in size, rounds to a few eps times N and
        # its size: 1.5e-13 relative at worst on this grid.
        def reference(q, x):
            with mp.workdps(50):
                q, x = mp.mpf(q), mp.mpf(x)
                if x == 0:
                    return -((2 * mp.sinh(q / 2)) ** (2 * n))
                w = 4 * x / (1 + x) ** 2
                theta = 2 * mp.asinh(mp.sinh(q / 2) / mp.sqrt(w))
                return -4 * w**n * mp.sinh(n * theta / 2) ** 2

        for x in (0.0, 0.1, 0.5, 0.9, 1.0 - 1e-9, 1.0):
            for q in np.geomspace(1e-12, 600.0 / n, 25):
                expected = reference(q, x)
                if not 1e-300 < abs(expected) < 1e300:  # not a double
                    continue
                got = dispersion_2n(q, NPieceConfig(n, x))
                assert got < 0.0
                assert got == pytest.approx(float(expected), rel=5e-13), (x, q)


class TestLogRatios:
    def test_two_piece_zero_limit(self):
        cfg = StringConfig(2, 0.3, math.pi)
        f = tension_contrast(0.3)
        expected = math.log((f + 4 * 2 / 9) / (f + 1))
        assert imag_axis_log_ratio(0.0, cfg) == pytest.approx(expected, rel=1e-13)

    def test_two_piece_matches_raw_formula(self):
        cfg = StringConfig(3, 0.2, math.pi)
        l_i = cfg.piece_length_i
        f = tension_contrast(0.2)
        for xi in (0.1, 0.7, 2.3, 6.0):
            raw = math.log(
                (f + math.sinh(xi * l_i) * math.sinh(3 * xi * l_i)
                 / math.sinh(2 * xi * l_i) ** 2) / (f + 1)
            )
            assert imag_axis_log_ratio(xi, cfg) == pytest.approx(raw, rel=1e-11)

    @pytest.mark.parametrize("s, x", [(1e16, 0.0), (1e-16, 0.0), (1e100, 0.0), (1e16, 1e-20)])
    def test_two_piece_relative_accuracy_at_any_s(self, s, x):
        # from s ~ 1e15 at x = 0, 1 - r^2 cancelled: log1p(-1) = -inf near xi = 0
        cfg = StringConfig(s, x, math.pi)
        m = min(cfg.piece_length_i, cfg.piece_length_ii)
        xis = np.concatenate([[0.0], np.geomspace(1e-3, 30.0 / m, 15)])
        got = imag_axis_log_ratio(xis, cfg)
        with mp.workdps(150):  # at s = 1e100 the reference's xi L / 2 must resolve m xi, 1e-100 of it
            # the shorter piece as given, the longer one the rest of L
            short, length, f = mp.mpf(m), mp.mpf(math.pi), mp.mpf(4 * x / (1 - x) ** 2)
            for xi, value in zip(xis, got):
                if xi == 0.0:
                    ratio = 4 * short * (length - short) / length**2
                else:
                    ratio = (mp.sinh(xi * short) * mp.sinh(xi * (length - short))
                             / mp.sinh(xi * length / 2) ** 2)
                expected = mp.log((f + ratio) / (f + 1))
                assert value == pytest.approx(float(expected), rel=1e-13), xi

    @pytest.mark.parametrize("s", [1.9, 2.3, 0.45, 1e-3, 1e3])
    @pytest.mark.parametrize("x", [0.0, 0.05, 0.3, 0.9])
    def test_two_piece_nodes_within_noise_of_mpmath(self, s, x, monkeypatch):
        cfg = StringConfig(s, x)
        nodes = _contour_nodes(cfg, monkeypatch)
        got = imag_axis_log_ratio(nodes, cfg)
        for xi, value, expected in zip(nodes, got, _mp_log_ratio(nodes, cfg)):
            assert abs(value - expected) <= energy._NOISE * abs(expected), xi

    @pytest.mark.parametrize("s", [1e300, 1e-300])
    @pytest.mark.parametrize("x", [0.0, 0.05, 0.3, 0.9])
    def test_two_piece_nodes_at_extreme_length_ratio(self, s, x, monkeypatch):
        # no RuntimeWarning (an error in this suite) and a finite value <= 0 at every node of
        # the contour's 5588; every 16th against mpmath, and every node where m xi is below
        # the smallest normal float: there m xi is rounded to a multiple of 5e-324, or
        # underflows, so the gap form at x = 0 takes ln(1 - e^{-m xi}) as ln m + ln xi.
        cfg = StringConfig(s, x)
        nodes = _contour_nodes(cfg, monkeypatch)
        got = imag_axis_log_ratio(nodes, cfg)
        assert np.all(np.isfinite(got)) and np.all(got <= 0.0)
        m = min(cfg.piece_length_i, cfg.piece_length_ii)
        picked = (np.arange(nodes.size) % 16 == 0) | (m * nodes < np.finfo(float).tiny)
        nodes, got = nodes[picked], got[picked]
        for xi, value, expected in zip(nodes, got, _mp_log_ratio(nodes, cfg)):
            assert abs(value - expected) <= energy._NOISE * abs(expected), xi

    @pytest.mark.parametrize("xi", [1e-310, 1e-322, 5e-324])
    def test_two_piece_subnormal_xi_is_the_zero_limit(self, xi):
        # d xi and L xi would round to multiples of 5e-324 (at 5e-324, L xi to 0: 0/0)
        cfg = StringConfig(2, 0.3, 0.1)
        zero = imag_axis_log_ratio(0.0, cfg)
        assert repr(imag_axis_log_ratio(xi, cfg)) == repr(zero)
        grid = np.array([[0.0, xi, 1.0], [xi, 0.0, 0.5]])
        got = imag_axis_log_ratio(grid, cfg)
        one, half = imag_axis_log_ratio(1.0, cfg), imag_axis_log_ratio(0.5, cfg)
        assert got.tobytes() == np.array([[zero, zero, one], [zero, zero, half]]).tobytes()

    @pytest.mark.parametrize("length", [1e300, sys.float_info.max])
    def test_two_piece_xi_past_the_float_range_of_m_xi(self, length):
        # m xi overflows to inf, where the ratio is 0; it warned "overflow encountered in multiply"
        for xi in (1e300, sys.float_info.max):
            assert imag_axis_log_ratio(xi, StringConfig(2, 0.3, length)) == 0.0
            assert imag_axis_log_ratio(xi, StringConfig(1e-300, 0.0, length)) == 0.0

    def test_2n_zero_limit(self):
        cfg = NPieceConfig(4, 0.3)
        w = 4 * 0.3 / 1.3**2
        assert imag_axis_log_ratio_2n(0.0, cfg) == pytest.approx(3 * math.log(w), rel=1e-13)

    def test_2n_matches_eigenvalue_formula(self):
        from stringcasimir import alpha_param, lambda_pair

        cfg = NPieceConfig(3, 0.4)
        a = alpha_param(0.4)
        for q in (0.2, 1.0, 4.0):
            pair = lambda_pair(a, q)
            num = 2 * (1 - a * a) ** 3 - (pair.lambda_plus**3 + pair.lambda_minus**3)
            raw = math.log(abs(num) / (4 * math.sinh(1.5 * q) ** 2))
            assert imag_axis_log_ratio_2n(q, cfg) == pytest.approx(raw, rel=1e-10)

    def test_tails_decay_without_rounding_floor(self):
        cfg = NPieceConfig(3, 0.2)
        vals = [abs(imag_axis_log_ratio_2n(float(q), cfg)) for q in (20, 40, 60, 120)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-50
        assert imag_axis_log_ratio_2n(2000.0, cfg) == 0.0

    @pytest.mark.parametrize("x", [0.0, 0.3])
    def test_2n_q_past_the_float_range_of_n_q(self, x):
        # N q overflows to inf, where the ratio is 0; at x = 0 it warned "overflow encountered
        # in multiply"
        for q in (1e308, sys.float_info.max):
            assert imag_axis_log_ratio_2n(q, NPieceConfig(3, x)) == 0.0

    @pytest.mark.parametrize("s, x, length", [(1e-300, 0.0, 1e-300), (1e300, 0.3, 1e-300)])
    def test_two_piece_refuses_a_piece_that_rounds_to_zero(self, s, x, length):
        # m = 0, which the energies refuse too: at x = 0 the gap form took the log of 0 ("divide
        # by zero encountered in log"), and at x = 0.3 it returned a value for a piece of length 0
        cfg = StringConfig(s, x, length)
        with pytest.raises(DomainError, match="piece lengths"):
            imag_axis_log_ratio(np.array([0.0, 1.0, 30.0]), cfg)
        with pytest.raises(DomainError, match="piece lengths"):
            high_t_limit(cfg, ThermalConfig(1.0))


def _masked_log_ratio(xi, cfg):
    """``imag_axis_log_ratio`` of a float array xi >= 0 in its earlier form, which masks
    the zeros of xi in any order and lets 0/0 pass under ``np.errstate``."""
    s, length = cfg.length_ratio, cfg.total_length
    if cfg.tension_ratio == 1.0 or s == 1.0:
        return np.zeros_like(xi)
    d = length * abs(s - 1.0) / (s + 1.0)
    m = min(cfg.piece_length_i, cfg.piece_length_ii)
    with np.errstate(invalid="ignore"):
        r = np.exp(-m * xi) * np.expm1(-d * xi) / np.expm1(-length * xi)
    r[xi == 0.0] = d / length
    f = core._contrast_or_zero(cfg.tension_ratio)
    part = r * r / (f + 1.0)
    if (d / length) ** 2 <= 0.5 * (f + 1.0):
        return np.log1p(-part)
    lead = core._log1mexp(m * xi)
    if m > 0.0:
        sub = (m * xi < np.finfo(float).tiny) & (xi > 0.0)
        lead[sub] = math.log(m) + np.log(xi[sub])
    gap = np.exp(np.log1p(np.exp(-(length - m) * xi)) + lead - core._log1mexp(length * xi))
    gap[xi == 0.0] = 2.0 * m / length
    return np.where(part > 0.5, np.log((f + gap * (1.0 + r)) / (f + 1.0)),
                    np.log1p(-np.minimum(part, 0.5)))


class TestTrustedBody:
    """The kernel passes call ``core._log_ratio``, the body of ``imag_axis_log_ratio``,
    on their own nodes without the input check; it gives the bits of the earlier masked
    form ``_masked_log_ratio`` and of the public function, with the nodes in any order."""

    @staticmethod
    def _kernel_nodes(run, monkeypatch):
        nodes, kernel = [], energy._log_ratio
        with monkeypatch.context() as patch:
            patch.setattr(energy, "_log_ratio", lambda xi, c: nodes.append(xi.copy()) or kernel(xi, c))
            run()
        return nodes

    @staticmethod
    def _same_bits(nodes, cfg):
        body = core._log_ratio(nodes, cfg)
        assert body.tobytes() == _masked_log_ratio(nodes, cfg).tobytes()
        assert body.tobytes() == imag_axis_log_ratio(nodes, cfg).tobytes()
        # nodes in any order, zeros last or among the others: the same bits, permuted alike
        order = np.random.default_rng(nodes.size).permutation(nodes.size)
        for perm in (np.arange(nodes.size)[::-1], order):
            assert core._log_ratio(nodes[perm], cfg).tobytes() == body[perm].tobytes()
            assert imag_axis_log_ratio(nodes[perm], cfg).tobytes() == body[perm].tobytes()
        # node by node, where each array holds one zero or none: the first 8 and every 16th
        picked = np.r_[0 : min(8, nodes.size), 8 : nodes.size : 16]
        single = np.array([imag_axis_log_ratio(xi, cfg) for xi in nodes[picked].tolist()])
        assert body[picked].tobytes() == single.tobytes()

    @pytest.mark.parametrize("s", [1e-3, 0.45, 2.0, 1e3])
    @pytest.mark.parametrize("x", [0.0, 1e-9, 0.3, 0.999])
    def test_matsubara_nodes_from_zero(self, s, x, monkeypatch):
        cfg = StringConfig(s, x)
        nodes = self._kernel_nodes(lambda: casimir_two_piece_thermal(cfg, ThermalConfig(0.05)), monkeypatch)
        assert nodes[0][0] == 0.0 and nodes[0][1] > 0.0
        for xi in nodes:
            self._same_bits(xi, cfg)

    @pytest.mark.parametrize("s", [1e-3, 0.45, 2.0, 1e3])
    @pytest.mark.parametrize("x", [0.0, 1e-9, 0.3, 0.999])
    def test_contour_nodes(self, s, x, monkeypatch):
        cfg = StringConfig(s, x)
        for xi in self._kernel_nodes(lambda: casimir_two_piece(cfg), monkeypatch):
            self._same_bits(xi, cfg)

    @pytest.mark.parametrize("x", [0.0, 1e-9, 0.3, 0.999])
    def test_contour_nodes_with_a_leading_run_of_zeros(self, x, monkeypatch):
        # past L = 1e282 the first nodes xi = e^{t - e^{-t}}/L underflow to 0
        cfg = StringConfig(2, x, 1e300)
        nodes = self._kernel_nodes(lambda: casimir_two_piece(cfg), monkeypatch)
        assert np.count_nonzero(nodes[0] == 0.0) >= 3
        for xi in nodes:
            self._same_bits(xi, cfg)

    def test_gap_form_is_covered(self):
        # s = 1e-3 and 1e3 at x <= 1e-9 take the gap form: (d/L)^2 > (F + 1)/2
        for s in (1e-3, 1e3):
            for x in (0.0, 1e-9):
                cfg = StringConfig(s, x)
                d = abs(s - 1.0) / (s + 1.0)
                assert d * d > 0.5 * (core._contrast_or_zero(cfg.tension_ratio) + 1.0)

    @pytest.mark.parametrize("s, x", [(2.0, 0.3), (1e3, 0.0), (1e-3, 1e-9), (0.45, 0.999)])
    @pytest.mark.parametrize("zeros", [0, 1, 5])
    def test_any_shape(self, s, x, zeros):
        # the public function is elementwise on any shape, zeros anywhere in it
        cfg = StringConfig(s, x)
        xi = np.random.default_rng(zeros).uniform(0.0, 5.0, 24)
        xi[np.random.default_rng(1).permutation(24)[:zeros]] = 0.0
        for arr in (xi.reshape(2, 3, 4), xi.reshape(4, 6).T, np.asfortranarray(xi.reshape(6, 4))):
            got = imag_axis_log_ratio(arr, cfg)
            single = [imag_axis_log_ratio(v, cfg) for v in arr.ravel().tolist()]
            assert got.shape == arr.shape
            assert got.ravel().tobytes() == np.array(single).tobytes()
            assert got.ravel().tobytes() == _masked_log_ratio(arr.ravel(), cfg).tobytes()

    def test_kernel_passes_skip_the_input_check(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("input check on the kernel's own nodes")

        monkeypatch.setattr(core, "_nonnegative_array", refuse)
        cfg = StringConfig(2.1, 0.3)
        assert casimir_two_piece_thermal(cfg, ThermalConfig(1e-3)).method == "matsubara"
        assert casimir_two_piece(cfg).method == "contour"
        # the 2N contour and lattice call the body ``core._log_ratio_2n`` too
        for x in (0.3, 0.0):
            assert casimir_2n(NPieceConfig(3, x)).method == "contour"
        assert casimir_2n_thermal(NPieceConfig(2**14, 0.3), ThermalConfig(100.0)).method == "matsubara"


def _contour_nodes(cfg, monkeypatch):
    """xi = 0 and every node the contour of ``cfg`` evaluates, up to its truncation point."""
    nodes, kernel = [np.zeros(1)], energy._log_ratio  # the body the contour calls, unchecked
    with monkeypatch.context() as patch:
        patch.setattr(energy, "_log_ratio", lambda xi, c: nodes.append(xi) or kernel(xi, c))
        casimir_two_piece(cfg)
    return np.concatenate(nodes)


def _mp_log_ratio(nodes, cfg):
    """The two-piece log ratio at 40 digits from the float m, d, L and F of the kernel:
    log1p(-r^2/(F+1)), r = e^{-m xi}(1 - e^{-d xi})/(1 - e^{-L xi}), d/L at xi = 0.  Where the
    kernel forms F + 1 - r^2 from 1 - r = (1 + e^{-(L-m) xi})(1 - e^{-m xi})/(1 - e^{-L xi}), r^2
    above (F+1)/2 with (d/L)^2 above it too, so does this: float d and L - 2m differ by rounding,
    which a small 1 - r amplifies."""
    s, length = cfg.length_ratio, cfg.total_length
    d = length * abs(s - 1.0) / (s + 1.0)
    m = min(cfg.piece_length_i, cfg.piece_length_ii)
    f = core._contrast_or_zero(cfg.tension_ratio)
    out = []
    with mp.workdps(40):
        m, d, length, f = mp.mpf(m), mp.mpf(d), mp.mpf(length), mp.mpf(f)
        gap_form = (d / length) ** 2 > (f + 1) / 2
        for xi in nodes:
            xi = mp.mpf(xi)
            if xi == 0:
                r, rest = d / length, 2 * m / length
            else:
                r = mp.exp(-m * xi) * mp.expm1(-d * xi) / mp.expm1(-length * xi)
                rest = (1 + mp.exp(-(length - m) * xi)) * mp.expm1(-m * xi) / mp.expm1(-length * xi)
            if gap_form and r * r > (f + 1) / 2:
                out.append(float(mp.log((f + rest * (1 + r)) / (f + 1))))
            else:
                out.append(float(mp.log1p(-r * r / (f + 1))))
    return out
