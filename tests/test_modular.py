import cmath
import math
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from stringcasimir import (
    DomainError,
    ModularLiftRequiredError,
    ModularPoint,
    dedekind_eta,
    dedekind_eta_with_bound,
    jacobi_theta3,
    jacobi_theta3_with_bound,
    log_abs_dedekind_eta,
)

mp.mp.dps = 30
EPS = sys.float_info.epsilon


def _eta_reference(tau):
    q = mp.e ** (2j * mp.pi * mp.mpc(tau))
    return complex(mp.e ** (1j * mp.pi * mp.mpc(tau) / 12) * mp.qp(q))


class TestDedekindEta:
    def test_far_up_the_imaginary_axis(self):
        # q ~ 4e-28 makes the product 1 to well past 10 digits
        got = dedekind_eta(10j)
        assert got.real == pytest.approx(math.exp(-10 * math.pi / 12), rel=1e-13)
        assert got.real == pytest.approx(0.0729490608493391296, rel=1e-13)
        assert abs(got.imag) < 1e-16

    def test_known_value_at_i(self):
        expected = math.gamma(0.25) / (2 * math.pi ** 0.75)
        assert dedekind_eta(1j).real == pytest.approx(expected, rel=1e-13)

    def test_against_high_precision_product(self):
        for tau in (0.3 + 0.8j, -0.45 + 0.35j, 0.1 + 2.5j):
            assert dedekind_eta(tau) == pytest.approx(_eta_reference(tau), rel=1e-12)

    def test_accepts_modular_point(self):
        p = ModularPoint(0.3 + 0.8j)
        assert dedekind_eta(p) == dedekind_eta(0.3 + 0.8j)

    def test_period_law(self):
        rng = np.random.default_rng(3)
        phase = cmath.exp(1j * math.pi / 12.0)
        for _ in range(10):
            tau = complex(rng.uniform(-1, 1), rng.uniform(0.3, 2.5))
            lhs = dedekind_eta(tau + 1.0)
            rhs = phase * dedekind_eta(tau)
            assert abs(lhs - rhs) < 1e-12

    def test_inversion_law(self):
        for im in np.linspace(0.5, 3.0, 8):
            for re in (-0.4, 0.0, 0.3):
                tau = complex(re, im)
                lhs = dedekind_eta(-1.0 / tau)
                rhs = cmath.sqrt(-1j * tau) * dedekind_eta(tau)
                assert abs(lhs - rhs) < 1e-10

    def test_refuses_small_imaginary_part(self):
        with pytest.raises(ModularLiftRequiredError):
            dedekind_eta(0.3 + 1e-7j)

    def test_rejects_lower_half_plane(self):
        with pytest.raises(DomainError):
            dedekind_eta(0.3 - 0.5j)
        with pytest.raises(DomainError):
            ModularPoint(1.0 - 0.2j)

    def test_truncation_bound_holds(self):
        for tau in (0.2 + 0.4j, 1.7 + 0.9j, 0.05 + 0.05j):
            value, bound = dedekind_eta_with_bound(tau)
            assert abs(value - _eta_reference(tau)) <= bound + 1e-15

    @pytest.mark.parametrize("tau", [1e-3j, 0.5 + 1e-3j, 0.5 + 3e-4j, 0.5 + 1e-4j, 3e-4j])
    def test_bound_covers_rounding(self, tau):
        # the error of q^n grows like n eps |2 pi tau|, and at 3e-4j the product
        # ends in gradual underflow, where it has no relative accuracy left
        value, bound = dedekind_eta_with_bound(tau)
        with mp.workdps(50):
            exact = complex(mp.eta(mp.mpc(tau)))
        assert abs(value - exact) <= bound

    def test_product_memory_is_bounded(self):
        # n* = 6.5 million factors here; all at once they took 261 MB
        tracemalloc.start()
        try:
            assert dedekind_eta_with_bound(0.3 + 1.01e-6j) == (0j, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestJacobiTheta3:
    def test_single_dominant_term(self):
        assert jacobi_theta3(0.0, 100j) == pytest.approx(1.0, abs=1e-12)

    def test_direct_sum_value(self):
        # 1 + 2 sum e^{-n^2}
        assert jacobi_theta3(0.0, 1j).real == pytest.approx(1.772637204826652, rel=1e-13)

    def test_alternating_value(self):
        # v = 1/2 flips the term signs
        direct = 1.0 + 2.0 * sum((-1) ** n * math.exp(-n * n) for n in range(1, 20))
        got = jacobi_theta3(0.5, 1j)
        assert got.real == pytest.approx(direct, rel=1e-13)
        assert got.real == pytest.approx(0.3006258008689843, rel=1e-12)

    def test_against_mpmath(self):
        for v, x in ((0.17, 0.4j), (0.6, 0.3 + 0.7j), (-0.25, 2j)):
            ref = complex(mp.jtheta(3, mp.pi * mp.mpf(str(v)), mp.e ** (1j * mp.mpc(x))))
            assert jacobi_theta3(v, x) == pytest.approx(ref, rel=1e-12)

    def test_even_and_periodic_in_v(self):
        for v in (0.13, 0.41):
            for x in (0.8j, 0.2 + 1.1j):
                assert abs(jacobi_theta3(v, x) - jacobi_theta3(-v, x)) < 1e-14
                assert abs(jacobi_theta3(v + 1.0, x) - jacobi_theta3(v, x)) < 1e-14

    def test_real_for_imaginary_argument(self):
        assert abs(jacobi_theta3(0.0, 0.6j).imag) < 1e-15

    def test_domain(self):
        with pytest.raises(DomainError):
            jacobi_theta3(0.1, 1.0)
        with pytest.raises(DomainError):
            jacobi_theta3(0.1, 0.5 - 0.2j)

    def test_truncation_bound_holds(self):
        for v, x in ((0.3, 0.5j), (0.1, 0.05j)):
            value, bound = jacobi_theta3_with_bound(v, x)
            ref = complex(mp.jtheta(3, mp.pi * mp.mpf(str(v)), mp.e ** (1j * mp.mpc(x))))
            assert abs(value - ref) <= bound + 1e-15

    @pytest.mark.parametrize("v, x", [(0.25, 3.1 + 1e-3j), (0.4, 6 + 1e-4j), (3.7, 10 + 1e-4j),
                                      (0.25, 3.1 + 2e-6j)])
    def test_bound_covers_rounding(self, v, x):
        # each term's phase x n^2 + 2 pi v n is rounded to eps of its own size;
        # the terms past |n| = sqrt(100 / Im x) are below e^-100
        value, bound = jacobi_theta3_with_bound(v, x)
        top = math.ceil(math.sqrt(100.0 / x.imag))
        with mp.workdps(40):
            xm, vm = mp.mpc(x), mp.mpf(v)
            exact = complex(mp.fsum(mp.exp(1j * xm * n * n + 2j * mp.pi * vm * n)
                                    for n in range(-top, top + 1)))
        assert abs(value - exact) <= bound


class TestLogAbsEta:
    def test_matches_series_at_moderate_height(self):
        for tau in (0.3 + 0.8j, 1.2 + 0.4j, 2j):
            assert log_abs_dedekind_eta(tau) == pytest.approx(
                math.log(abs(dedekind_eta(tau))), rel=1e-12
            )

    def test_imaginary_axis_inversion_identity(self):
        # ln eta(i y) = ln eta(i / y) - (1/2) ln y, valid arbitrarily deep
        for y in (1e-3, 1e-6, 1e-9):
            lhs = log_abs_dedekind_eta(1j * y)
            rhs = log_abs_dedekind_eta(1j / y) - 0.5 * math.log(y)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_tiny_imaginary_part_off_axis(self):
        # well below the q-series floor; near the rational point p/q = 1/2
        # the magnitude collapses like exp(-pi/(12 q^2 eps))
        eps = 1e-8
        val = log_abs_dedekind_eta(0.5 + 1j * eps)
        assert math.isfinite(val)
        assert val == pytest.approx(-math.pi / (48.0 * eps), rel=1e-4)

    def test_unit_circle(self):
        # Re z = 1/2 (mod 1) reduces onto |z| = 1, where rounding used to flip
        # z and -conj(z) until the step cap
        z0 = -1.5 + 0.8014040962657041j
        assert log_abs_dedekind_eta(z0) == pytest.approx(
            math.log(abs(_eta_reference(z0))), rel=1e-13
        )
        ys = np.linspace(0.1, 0.99, 2000)
        got = log_abs_dedekind_eta(0.5 + 1j * ys)
        assert np.all(np.isfinite(got))
        for y, g in zip(ys[::50], got[::50]):
            assert g == pytest.approx(math.log(abs(_eta_reference(0.5 + 1j * y))), rel=1e-12)

    def test_against_mpmath(self):
        # the five-term pentagonal series drops less than 2 |q|^12 ~ 1e-28, so
        # what is left is the rounding of the reduction, about eps / Im z
        rng = np.random.default_rng(3)
        ys = [1e-5, 3e-5, 1e-4, 1e-3, 0.01, 0.1, 0.5, math.sqrt(3) / 2, 1.0, 2.0, 5.0]
        zs = [complex(x, y) for x in (-1.5, -0.5, -0.3, 0.0, 0.1, 0.25, 1 / 3, 0.5, 0.7, 2.5)
              for y in ys]
        zs += [cmath.exp(1j * th) for th in np.linspace(math.pi / 3, 2 * math.pi / 3, 9)]
        zs += [complex(0.5, y) for y in np.linspace(0.1, 0.99, 7)]
        zs += list(rng.uniform(-2, 2, 100) + 1j * np.exp(rng.uniform(math.log(1e-5), 1, 100)))
        got = log_abs_dedekind_eta(np.array(zs))
        with mp.workdps(40):
            for z, g in zip(zs, got):
                w, ref = mp.mpc(z.real, z.imag), mp.mpf(0)
                while True:
                    w -= mp.nint(w.real)
                    if abs(w) >= 1 - mp.mpf(10) ** -30:
                        break
                    ref -= mp.log(abs(w)) / 2
                    w = -1 / w
                ref += -mp.pi * w.imag / 12 + mp.log(abs(mp.qp(mp.exp(2j * mp.pi * w))))
                assert abs(g - ref) <= 4 * EPS * (1 + 1 / z.imag), z

    def test_reduction_runs_to_the_end(self):
        # at Im z = 2^-1074 these real parts take 257 and 258 inversions, past the 256 after
        # which the reduction stopped with a DomainError; below Im 1/2 each inversion at least
        # doubles Im, so no z takes more than 1074 and a few
        zs = np.array([0.4152280207003459, -0.46046786222382863, 0.36818150343259637]) + 5e-324j
        assert np.all(np.isfinite(log_abs_dedekind_eta(zs)))

    def test_array_input(self):
        zs = np.array([0.3 + 0.8j, 1.2 + 0.4j, 0.1 + 2.5j])
        got = log_abs_dedekind_eta(zs)
        assert got.shape == (3,)
        for z, g in zip(zs, got):
            assert g == pytest.approx(log_abs_dedekind_eta(complex(z)), rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_abs_dedekind_eta(0.3 - 0.1j)
