import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stringcasimir import (
    DomainError,
    MultiplicityUndecidedError,
    StringConfig,
    branch_spectrum_x0,
    casimir_by_cutoff,
    count_modes,
    find_spectrum,
    uniform_spectrum,
)
from stringcasimir.spectrum import _BISECT_RTOL, _winding_number


class TestWindingRefinement:
    def test_stable_for_simple_pole_free_zero(self):
        assert _winding_number(lambda z: z - (1.0 + 0.0j), 0.5, 1.5, 0.4) == 1
        assert _winding_number(lambda z: (z - 1.0) ** 3, 0.5, 1.5, 0.4) == 3

    def test_refuses_degenerate_function(self):
        # identically zero: no resolution can ever produce a phase
        with pytest.raises(MultiplicityUndecidedError):
            _winding_number(lambda z: np.zeros_like(z), 0.0, 1.0, 0.5, n_max=256)


class TestBatchedWinding:
    """The winding's level rule, and the oracle's memory."""

    def test_level_with_a_zero_keeps_the_previous_integer(self):
        calls = []

        def func(z):
            calls.append(z.shape)
            vals = (z - 0.5) * (z - 2.5) ** 2
            if len(calls) == 2:  # the 128-node level
                vals[3] = 0.0
            return vals

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wind = _winding_number(func, 2.0, 3.0, 0.4, n_max=256)
        # 64: 2; 128: a zero, passed over; 256: settles on the 2 kept from level 64
        assert wind == 2
        assert calls == [(64,), (128,), (256,)]

    def test_oracle_memory_is_bounded(self):
        # an unblocked level holds every perimeter at once: about 10 MB here
        cfg = StringConfig(2, 0.3)
        casimir_by_cutoff(cfg)
        tracemalloc.start()
        try:
            casimir_by_cutoff(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestFindSpectrum:
    def test_uniform_doubly_degenerate(self):
        spec = find_spectrum(StringConfig(1, 1.0, 2 * math.pi), 3.5)
        assert [(round(w, 9), m) for w, m in spec.entries] == [(1.0, 2), (2.0, 2), (3.0, 2)]

    def test_decoupled_s2_merged_branches(self):
        spec = find_spectrum(StringConfig(2, 0.0, math.pi), 10.0)
        expected = [(1.5, 1), (3.0, 2), (4.5, 1), (6.0, 2), (7.5, 1), (9.0, 2)]
        assert len(spec.entries) == len(expected)
        for (w, m), (we, me) in zip(spec.entries, expected):
            assert w == pytest.approx(we, abs=1e-9)
            assert m == me

    def test_equal_pieces_tangential(self):
        spec = find_spectrum(StringConfig(1, 0.5, math.pi), 2.5)
        assert len(spec.entries) == 1
        w, m = spec.entries[0]
        assert w == pytest.approx(2.0, abs=1e-10)
        assert m == 2

    def test_matches_decoupled_branch_merge(self):
        s, omega_max = 3, 9.0
        spec = find_spectrum(StringConfig(s, 0.0, math.pi), omega_max)
        first = branch_spectrum_x0(s, "first", 10).omegas()
        second = branch_spectrum_x0(s, "second", 30).omegas()
        merged = {}
        for w in np.concatenate([first, second]):
            if w > omega_max + 1e-9:
                continue
            key = round(w, 9)
            merged[key] = merged.get(key, 0) + 1
        assert len(spec.entries) == len(merged)
        for (w, m) in spec.entries:
            assert m == merged[round(w, 9)]

    @pytest.mark.parametrize("s", [2, 3])
    def test_decoupled_roots_to_rounding(self, s):
        # polished to adjacent floats; the old 1e-13 tolerance was off by 2.5e-14
        spec = find_spectrum(StringConfig(s, 0.0), 30)
        branches = np.concatenate([branch_spectrum_x0(s, "first", 40).omegas(),
                                   branch_spectrum_x0(s, "second", 40).omegas()])
        merged = {round(w, 9): w for w in branches if w <= 30 + 1e-9}
        exact = [merged[k] for k in sorted(merged)]
        np.testing.assert_allclose(spec.omegas(), exact, rtol=1e-15, atol=0)

    def test_inversion_symmetry(self):
        a = find_spectrum(StringConfig(2.6, 0.35, math.pi), 12.0)
        b = find_spectrum(StringConfig(1 / 2.6, 0.35, math.pi), 12.0)
        assert a.multiplicities().tolist() == b.multiplicities().tolist()
        assert np.allclose(a.omegas(), b.omegas(), atol=1e-9)

    def test_weyl_density(self):
        cfg = StringConfig(2, 0.3, math.pi)
        omega_max = 80.0  # omega_max * L > 200
        spec = find_spectrum(cfg, omega_max)
        density = spec.total_count() * math.pi / (cfg.total_length * omega_max)
        assert abs(density - 1.0) < 0.05

    def test_domain(self):
        with pytest.raises(DomainError):
            find_spectrum(StringConfig(1, 0.5), 0.0)


def _mp_roots(cfg, omega_max):
    """The roots of g in (0, omega_max] at 40 digits: one per sign change of
    g between neighbouring points k pi/L, bisected 140 times."""
    with mpmath.workdps(40):
        length, s, x = (mpmath.mpf(v) for v in (cfg.total_length, cfg.length_ratio, cfg.tension_ratio))
        f = 4 * x / (1 - x) ** 2
        l_i = length / (1 + s)
        g = lambda w: f * mpmath.sin(w * length / 2) ** 2 + mpmath.sin(w * l_i) * mpmath.sin(w * s * l_i)
        nodes = [k * mpmath.pi / length for k in range(1, int(omega_max * cfg.total_length / math.pi) + 3)]
        roots = []
        for a, b in zip(nodes, nodes[1:]):
            side = mpmath.sign(g(a))
            if side * g(b) >= 0:
                continue
            for _ in range(140):
                mid = (a + b) / 2
                a, b = (mid, b) if mpmath.sign(g(mid)) == side else (a, mid)
            roots.append(a)
        return [float(r) for r in roots if r <= omega_max]


class TestInterlacing:
    """One root per half-period between the points k pi/L, or a double root
    at an even point where 2k/(1+s) is an integer."""

    @pytest.mark.parametrize("s, x, omega_max", [(0.25, 0.999999, 3.0), (1.0000001, 0.5, 3.0),
                                                 (1e5, 0.5, 4e-3), (1e5, 0.5, 10.0),
                                                 (1e-3, 0.5, 10.0)])
    def test_roots_match_mpmath(self, s, x, omega_max):
        # the first two are narrow pairs, 2 -+ 3.03e-7 and 2 -+ 3.33e-8, that a
        # tangency test on |g| once merged into one double root each
        cfg = StringConfig(s, x)
        spec = find_spectrum(cfg, omega_max)
        exact = _mp_roots(cfg, omega_max)
        assert spec.multiplicities().tolist() == [1] * len(exact)
        np.testing.assert_allclose(spec.omegas(), exact, rtol=_BISECT_RTOL, atol=0)

    def test_double_roots_missed_by_rounding(self):
        # 2k/(1+s) misses an integer by rounding only: the sign at 2k pi/L comes
        # from the closed form, so no spurious root appears at the odd point 43
        cfg = StringConfig(20.000000000000004, 0.2)
        spec = find_spectrum(cfg, 60.0)
        assert [e for e in spec.entries if e[1] == 2] == [(42.0, 2)]
        assert np.min(np.abs(spec.omegas() - 43.0)) > 0.1
        assert spec.total_count() == 59
        third = find_spectrum(StringConfig(1 / 3, 0.5), 60.0)
        doubles = [w for w, m in third.entries if m == 2]
        np.testing.assert_allclose(doubles, 4.0 * np.arange(1, 16), rtol=1e-15)
        assert third.total_count() == 60 and len(third.entries) == 45

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(s=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
           x=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_count_equals_contour_count_property(self, s, x):
        cfg = StringConfig(s, x)
        count = count_modes(cfg, 20.0)
        assert find_spectrum(cfg, count.contour[1]).total_count() == count.zeros_minus_poles


class TestCountModes:
    def test_uniform_count(self):
        res = count_modes(StringConfig(1, 1.0, 2 * math.pi), 3.5)
        assert res.zeros_minus_poles == 6

    def test_below_first_root(self):
        res = count_modes(StringConfig(1, 1.0, 2 * math.pi), 0.5)
        assert res.zeros_minus_poles == 0

    def test_matches_spectrum_multiplicity_sum(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = float(rng.uniform(0.4, 3.5))
            x = float(rng.uniform(0.0, 1.0))
            cfg = StringConfig(s, x, math.pi)
            res = count_modes(cfg, 9.3)
            spec = find_spectrum(cfg, res.contour[1])
            assert res.zeros_minus_poles == spec.total_count()

    def test_no_offaxis_roots_with_taller_contour(self):
        cfg = StringConfig(2.2, 0.45, math.pi)
        shallow = count_modes(cfg, 8.7, im_extent=0.25)
        tall = count_modes(cfg, 8.7, im_extent=1.0)
        assert shallow.zeros_minus_poles == tall.zeros_minus_poles

    def test_root_at_boundary_shifts(self):
        # omega_max exactly on the doubly degenerate root at 2
        cfg = StringConfig(1, 1.0, math.pi)
        res = count_modes(cfg, 2.0)
        assert res.contour[1] > 2.0
        assert res.zeros_minus_poles == 2

    @pytest.mark.parametrize("omega_max", [29.9, 30.0, 30.01])
    def test_edge_halfway_between_the_roots_either_side(self, omega_max):
        # roots at 29.64 and 30.30, and a double root at 32 that moved a shift
        # by the median gap far enough to count 30.30 too
        cfg = StringConfig(2.2, 0.3)
        res = count_modes(cfg, omega_max)
        assert res.zeros_minus_poles == find_spectrum(cfg, omega_max).total_count() == 29
        assert res.contour[1] == pytest.approx(0.5 * (29.644816595999515 + 30.299688738255014))


class TestBranchSpectrum:
    def test_first_branch_examples(self):
        assert branch_spectrum_x0(1, "first", 3).omegas().tolist() == [2.0, 4.0, 6.0]
        assert branch_spectrum_x0(2, "first", 1).omegas().tolist() == [3.0]

    def test_second_branch_example(self):
        got = branch_spectrum_x0(3, "second", 2).omegas()
        assert np.allclose(got, [4.0 / 3.0, 8.0 / 3.0], rtol=1e-15)

    def test_validation(self):
        with pytest.raises(DomainError):
            branch_spectrum_x0(1.5, "first", 3)
        with pytest.raises(DomainError):
            branch_spectrum_x0(2, "third", 3)
        with pytest.raises(DomainError):
            branch_spectrum_x0(2, "first", 0)


class TestUniformSpectrum:
    def test_entries(self):
        spec = uniform_spectrum(2 * math.pi, 3.5)
        assert [(w, m) for w, m in spec.entries] == [(1.0, 2), (2.0, 2), (3.0, 2)]

    def test_matches_find_spectrum(self):
        cfg = StringConfig(1, 1.0, math.pi)
        direct = find_spectrum(cfg, 9.0)
        analytic = uniform_spectrum(math.pi, 9.0)
        assert direct.multiplicities().tolist() == analytic.multiplicities().tolist()
        assert np.allclose(direct.omegas(), analytic.omegas(), atol=1e-10)

    @pytest.mark.parametrize("s", [0.25, 1.0, 3.7])
    @pytest.mark.parametrize("length", [0.01, math.pi, 100.0])
    def test_is_find_spectrum_at_x_one(self, s, length):
        for omega_max in (0.5, 9.0, 60.0, 2 * math.pi * 7):
            assert (uniform_spectrum(length, omega_max / length)
                    == find_spectrum(StringConfig(s, 1.0, length), omega_max / length))

    @pytest.mark.parametrize("n", [1, 2, 7, 1000])
    def test_mode_within_the_edge_tolerance_counts(self, n):
        # a mode within 1e-12 of omega_max, relative, counts, as at x != 1
        length = math.pi
        omega = 2 * math.pi * n / length
        assert uniform_spectrum(length, omega * (1 - 5e-13)).total_count() == 2 * n
        assert uniform_spectrum(length, omega * (1 - 2e-12)).total_count() == 2 * (n - 1)


class TestSizeLimit:
    """A spectrum is refused past a count of half-periods pi/L, before any of
    it is allocated."""

    @pytest.mark.parametrize("call", [
        lambda: find_spectrum(StringConfig(2, 0.3), 1e9),
        lambda: find_spectrum(StringConfig(2, 0.0), 1e9),
        lambda: find_spectrum(StringConfig(2, 1.0), 1e9),
        lambda: find_spectrum(StringConfig(2, 0.3, total_length=1e6), 1.0),
        lambda: count_modes(StringConfig(2, 0.3), 1e5),
        lambda: uniform_spectrum(math.pi, 1e9),
        lambda: branch_spectrum_x0(2, "first", 10**9),
    ])
    def test_over_the_limit_raises_at_once(self, call):
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="limit"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e5

    def test_limits(self):
        # omega_max L / pi half-periods: 2^18 for a spectrum, 2^13 for count_modes;
        # the x = 0 spectrum is the cheap one to take up to its limit
        cfg = StringConfig(2, 0.0, total_length=1.0)
        assert find_spectrum(cfg, 0.99 * math.pi * 2**18).total_count() > 2**17
        with pytest.raises(DomainError):
            find_spectrum(cfg, 1.01 * math.pi * 2**18)
        cfg = StringConfig(2, 0.3, total_length=1.0)
        assert count_modes(cfg, 0.99 * math.pi * 2**13 - 4 * math.pi).zeros_minus_poles > 2**12
        with pytest.raises(DomainError):
            count_modes(cfg, 1.01 * math.pi * 2**13)
