import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stringcasimir import (
    DomainError,
    NPieceConfig,
    QuadratureError,
    StringConfig,
    casimir_2n,
    casimir_2n_x0,
    casimir_two_piece,
    casimir_two_piece_x0,
    scaling_fit,
    scaling_function,
)


class TestTwoPiece:
    def test_equal_pieces_vanish(self):
        for x in (0.0, 0.2, 0.8):
            assert abs(casimir_two_piece(StringConfig(1, x)).value) < 1e-12

    def test_uniform_vanishes_analytically(self):
        res = casimir_two_piece(StringConfig(3, 1.0))
        assert res.value == 0.0
        assert res.method == "analytic-limit"

    def test_decoupled_anchor(self):
        res = casimir_two_piece(StringConfig(2, 0.0, math.pi))
        assert res.value == pytest.approx(-1.0 / 48.0, abs=1e-10)
        assert res.method == "contour"

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 6])
    def test_decoupled_limit_consistency(self, s):
        quad = casimir_two_piece(StringConfig(s, 0.0, math.pi)).value
        closed = casimir_two_piece_x0(s, math.pi).value
        assert abs(quad - closed) < 1e-8

    @pytest.mark.parametrize("s", [1e15, 1e16, 1e-16, 1e100, 1e300])
    def test_decoupled_limit_at_extreme_length_ratio(self, s):
        # 1 - r^2 cancelled in the kernel: log1p(-1), then out of nodes
        res = casimir_two_piece(StringConfig(s, 0.0))
        assert abs(res.value - casimir_two_piece_x0(s, math.pi).value) <= res.abs_error_estimate

    @pytest.mark.parametrize("x", [0.0, 1e-9, 0.3, 0.999])
    def test_length_times_contrast_past_the_float_range(self, x):
        # pieces 1 and 1e300: L |s - 1| overflows, so d is L (|s - 1| / (s + 1)) there
        big, ref = (casimir_two_piece(StringConfig(s, x, s)) for s in (1e300, 1e200))
        assert abs(big.value - ref.value) <= big.abs_error_estimate + ref.abs_error_estimate

    def test_length_ratio_inversion(self):
        for s, x in ((2.0, 0.3), (4.5, 0.1), (1.7, 0.85)):
            a = casimir_two_piece(StringConfig(s, x, math.pi)).value
            b = casimir_two_piece(StringConfig(1.0 / s, x, math.pi)).value
            assert abs(a - b) < 1e-10

    def test_tension_inversion_via_mapping(self):
        a = casimir_two_piece(StringConfig(3, 5.0, math.pi)).value
        b = casimir_two_piece(StringConfig(3, 0.2, math.pi)).value
        assert abs(a - b) < 1e-12

    def test_negative_on_grid(self):
        for s in (1.5, 2.0, 4.0):
            for x in (0.0, 0.2, 0.6, 0.95):
                assert casimir_two_piece(StringConfig(s, x)).value < 0.0

    def test_length_scaling(self):
        a = casimir_two_piece(StringConfig(2, 0.3, math.pi)).value
        b = casimir_two_piece(StringConfig(2, 0.3, 2 * math.pi)).value
        assert a == pytest.approx(2.0 * b, rel=1e-9)


class TestTwoPieceClosedForm:
    def test_values(self):
        assert casimir_two_piece_x0(1, math.pi).value == 0.0
        assert casimir_two_piece_x0(2, math.pi).value == pytest.approx(-1 / 48, rel=1e-15)
        assert casimir_two_piece_x0(4, math.pi).value == pytest.approx(-3 / 32, rel=1e-15)

    def test_inversion_invariance(self):
        for s in (2.0, 3.7, 9.0):
            assert casimir_two_piece_x0(s, 1.0).value == pytest.approx(
                casimir_two_piece_x0(1 / s, 1.0).value, rel=1e-13
            )

    def test_domain(self):
        with pytest.raises(DomainError):
            casimir_two_piece_x0(0.0, math.pi)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0, -1])
@pytest.mark.parametrize("closed_form, good", [(casimir_two_piece_x0, (2, math.pi)),
                                               (casimir_2n_x0, (2, math.pi))])
@pytest.mark.parametrize("arg", [0, 1])
def test_closed_forms_reject_bad_input(closed_form, good, arg, bad):
    # casimir_two_piece_x0(2, inf) used to return -0.0 with a bar of 0
    args = list(good)
    args[arg] = bad
    with pytest.raises(DomainError):
        closed_form(*args)


@pytest.mark.parametrize("energy", [
    lambda: casimir_two_piece_x0(1.0, 5e-324),  # pi / (24 L) overflows: inf * 0 was nan
    lambda: casimir_2n_x0(1, 5e-324),
    lambda: casimir_two_piece_x0(2.0, 5e-324),
    lambda: casimir_2n_x0(2, 5e-324),
    lambda: casimir_2n(NPieceConfig(10**6, 0.3, 1e-300)),  # overflowed in fsum
    lambda: casimir_2n_x0(10**155, 1.0),  # N^2 as an integer: OverflowError
])
def test_overflowing_energy_is_a_quadrature_error(energy):
    with pytest.raises(QuadratureError, match="not representable"):
        energy()


class TestNPiece:
    def test_single_pair_vanishes(self):
        for x in (0.0, 0.3, 0.9):
            assert abs(casimir_2n(NPieceConfig(1, x)).value) < 1e-12

    def test_uniform_vanishes(self):
        res = casimir_2n(NPieceConfig(4, 1.0))
        assert res.value == 0.0
        assert res.method == "analytic-limit"

    def test_decoupled_anchor(self):
        assert casimir_2n(NPieceConfig(2, 0.0, math.pi)).value == pytest.approx(-0.5, abs=1e-10)

    @pytest.mark.parametrize("n", list(range(1, 9)))
    def test_decoupled_limit_consistency(self, n):
        quad = casimir_2n(NPieceConfig(n, 0.0, math.pi)).value
        closed = casimir_2n_x0(n, math.pi).value
        assert abs(quad - closed) < 1e-8

    @pytest.mark.parametrize("n, length", [(2, 1e300), (3, 1e283), (4, 1.7e308)])
    def test_decoupled_limit_where_the_first_node_underflows(self, n, length):
        # past L = 1e282 the contour's first node xi = e^{-94.5}/L is 0, where ln|ratio_N| is -inf
        quad, closed = casimir_2n(NPieceConfig(n, 0.0, length)), casimir_2n_x0(n, length)
        assert abs(quad.value - closed.value) <= quad.abs_error_estimate

    def test_matrix_power_route_agrees(self):
        fast = casimir_2n(NPieceConfig(4, 0.3, math.pi)).value
        slow = casimir_2n(NPieceConfig(4, 0.3, math.pi), slow_exact=True).value
        assert abs(fast - slow) <= 1e-8

    @pytest.mark.parametrize("n", [2, 13, 20, 40, 100])
    @pytest.mark.parametrize("x", [0.001, 0.3, 0.9])
    def test_matrix_power_route_within_bars(self, n, x):
        # slow_exact is the exact sum over the real-axis Bloch spectrum, which
        # shares nothing with the contour
        cfg = NPieceConfig(n, x)
        fast, slow = casimir_2n(cfg), casimir_2n(cfg, slow_exact=True)
        assert abs(fast.value - slow.value) <= fast.abs_error_estimate + slow.abs_error_estimate
        assert slow.abs_error_estimate <= 1e-11 * abs(fast.value) + 1e-9

    @pytest.mark.parametrize("n", [2, 3, 40, 1000])
    def test_exact_route_at_x0_is_the_closed_form(self, n):
        exact = casimir_2n(NPieceConfig(n, 0.0), slow_exact=True)
        assert exact.method == "mode-sum"
        assert abs(exact.value - casimir_2n_x0(n, math.pi).value) <= exact.abs_error_estimate

    @pytest.mark.parametrize("n, x", [(120, 1e-3), (1000, 1e-3), (1000, 1e-9)])
    def test_exact_route_where_w_to_the_n_underflows(self, n, x):
        # w^(N-1) = (4x/(1+x)^2)^(N-1) is below e^-600, where N-th powers of
        # the junction matrix underflow; the Bloch angles do not
        cfg = NPieceConfig(n, x)
        fast, exact = casimir_2n(cfg), casimir_2n(cfg, slow_exact=True)
        assert abs(fast.value - exact.value) <= fast.abs_error_estimate + exact.abs_error_estimate

    def test_exact_route_runs_no_kernel_pass(self, monkeypatch):
        def no_pass(*args, **kwargs):
            raise AssertionError("kernel pass on the exact route")

        monkeypatch.setattr("stringcasimir.energy._trapezoid", no_pass)
        for x in (0.0, 1e-9, 0.3, 0.9):
            assert casimir_2n(NPieceConfig(5, x), slow_exact=True).method == "mode-sum"

    def test_monotone_in_piece_count(self):
        for x in (0.1, 0.5, 0.9):
            values = [casimir_2n(NPieceConfig(n, x)).value for n in range(1, 9)]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_small_tension_ratio_quadrature(self):
        # sharp integrand dip near q ~ sqrt(w) must still be resolved; the
        # approach to the x = 0 value has a sqrt(x) cusp, so at x = 1e-4
        # the energy sits ~2.5% above it, right on the collapse curve
        res = casimir_2n(NPieceConfig(3, 1e-4, math.pi))
        closed = casimir_2n_x0(3, math.pi).value
        assert res.value < 0.0
        assert abs(res.value - closed) < 0.04
        assert res.value == pytest.approx(closed * (1.0 - math.sqrt(1e-4)) ** 2.5, abs=2e-3)


class TestNPieceClosedForm:
    def test_values(self):
        assert casimir_2n_x0(1, math.pi).value == 0.0
        assert casimir_2n_x0(2, math.pi).value == pytest.approx(-0.5, rel=1e-15)
        assert casimir_2n_x0(5, math.pi).value == pytest.approx(-4.0, rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            casimir_2n_x0(0, math.pi)


class TestScaling:
    def test_fit_endpoints(self):
        assert scaling_fit(0.0) == 1.0
        assert scaling_fit(1.0) == 0.0
        assert scaling_fit(0.25) == pytest.approx(0.1767766952966369, rel=1e-14)

    def test_scaling_function_near_fit(self):
        assert scaling_function(2, 0.25) == pytest.approx(scaling_fit(0.25), abs=0.02)

    def test_limits(self):
        assert scaling_function(2, 1e-6) == pytest.approx(1.0, abs=1e-2)
        assert scaling_function(2, 0.999999) == pytest.approx(0.0, abs=1e-2)

    def test_strictly_decreasing(self):
        xs = np.linspace(0.05, 0.95, 10)
        fs = [scaling_function(3, x) for x in xs]
        assert all(b < a for a, b in zip(fs, fs[1:]))

    @pytest.mark.parametrize("x", [1e-3, 0.1, 0.3, 0.5, 0.9, 0.99, 1 - 1e-6])
    def test_collapse_law(self, x):
        # f_N = f_inf - (1 - sqrt(w) - f_inf)/(N^2 - 1) + O(N^-4), w = 4x/(1+x)^2, where
        # f_inf = 6 Int_0^1 B_2(theta(t)/2 pi) dt, sin(theta/2) = sqrt(w)|sin pi t|, is the
        # large-N limit of the Bloch sum.  The remainder times N^4 is at most 0.39 f_inf on this
        # grid.  The law is formed at 30 digits: 1 - sqrt(w) in floats is off by eps, which
        # at x = 1 - 1e-6 is 1e-3 of it.
        with mp.workdps(30):
            xm = mp.mpf(x)
            root = 2 * mp.sqrt(xm) / (1 + xm)  # sqrt(w)

            def b2(t):
                a = mp.asin(root * mp.sin(mp.pi * t)) / mp.pi  # theta / 2 pi
                return a * a - a + mp.mpf(1) / 6

            f_inf = 12 * mp.quad(b2, [0, 0.5])
            slope = (1 - mp.sqrt(xm)) ** 2 / (1 + xm) - f_inf  # 1 - sqrt(w) = (1 - sqrt x)^2/(1+x)
            laws = {n: float(f_inf - slope / (n * n - 1)) for n in (2, 3, 8, 40)}
        for n, law in laws.items():
            bar = casimir_2n(NPieceConfig(n, x)).abs_error_estimate / -casimir_2n_x0(n, math.pi).value
            assert abs(scaling_function(n, x) - law) <= 0.5 * float(f_inf) / n**4 + bar

    def test_domain(self):
        with pytest.raises(DomainError):
            scaling_function(1, 0.5)
        with pytest.raises(DomainError):
            scaling_function(2, 0.0)
        with pytest.raises(DomainError):
            scaling_fit(1.2)


# Property forms of the point checks above: each compares within the bars,
# which cover the error against the exact value.
_PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)
_RATIO = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)
_TENSION = st.one_of(st.just(0.0), st.floats(0.0, 0.99))
_LENGTH = st.floats(0.1, 10.0)


@_PROPERTY
@given(s=_RATIO, x=_TENSION, length=_LENGTH)
def test_length_ratio_inversion_property(s, x, length):
    a = casimir_two_piece(StringConfig(s, x, length))
    b = casimir_two_piece(StringConfig(1.0 / s, x, length))
    assert abs(a.value - b.value) <= a.abs_error_estimate + b.abs_error_estimate


@_PROPERTY
@given(s=_RATIO, x=_TENSION, length=_LENGTH, n=st.integers(1, 200))
def test_energy_nonpositive_property(s, x, length, n):
    two = casimir_two_piece(StringConfig(s, x, length))
    many = casimir_2n(NPieceConfig(n, x, length))
    assert two.value <= two.abs_error_estimate
    assert many.value <= many.abs_error_estimate


@_PROPERTY
@given(n=st.integers(1, 199), step=st.integers(1, 50), x=_TENSION, length=_LENGTH)
def test_magnitude_monotone_in_piece_count_property(n, step, x, length):
    fewer = casimir_2n(NPieceConfig(n, x, length))
    more = casimir_2n(NPieceConfig(n + step, x, length))
    assert abs(more.value) >= abs(fewer.value) - fewer.abs_error_estimate - more.abs_error_estimate
