import math

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
from stringcasimir.core import imag_axis_log_ratio, imag_axis_log_ratio_2n


class TestConfigs:
    def test_piece_lengths_sum_exactly(self):
        for s in (0.3, 1.0, 2.0, 7.5):
            cfg = StringConfig(length_ratio=s, tension_ratio=0.5, total_length=math.pi)
            assert cfg.piece_length_i + cfg.piece_length_ii == cfg.total_length

    def test_tension_ratio_above_one_maps_to_reciprocal(self):
        cfg = StringConfig(length_ratio=2.0, tension_ratio=4.0)
        assert cfg.tension_ratio == 0.25

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
        for n, x in ((1, 0.5), (3, 0.1), (6, 0.9)):
            assert dispersion_2n(0.0, NPieceConfig(n, x)) == 0.0

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
