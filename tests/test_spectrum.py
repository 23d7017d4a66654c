import math
import tracemalloc
import warnings

import numpy as np
import pytest

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
from stringcasimir import spectrum
from stringcasimir.spectrum import _winding_number


class TestWindingRefinement:
    def test_stable_for_simple_pole_free_zero(self):
        assert _winding_number(lambda z: z - (1.0 + 0.0j), 0.5, 1.5, 0.4) == 1
        assert _winding_number(lambda z: (z - 1.0) ** 3, 0.5, 1.5, 0.4) == 3

    def test_refuses_degenerate_function(self):
        # identically zero: no resolution can ever produce a phase
        with pytest.raises(MultiplicityUndecidedError):
            _winding_number(lambda z: np.zeros_like(z), 0.0, 1.0, 0.5, n_max=256)


class TestBatchedWinding:
    """_winding_number over many rectangles at once, level by level."""

    @pytest.mark.parametrize("block", [64, 320])
    def test_blocked_equals_one_at_a_time(self, monkeypatch, block):
        # the oracle's spectrum: about 850 roots up to omega = 40 / (0.0125 pi)
        cfg = StringConfig(2, 0.3)
        batched = find_spectrum(cfg, 1021.0)
        assert len(batched.entries) > 800
        one = spectrum._winding_number

        def one_at_a_time(func, lo, hi, h, roots=None):
            return np.array([one(func, *rect) for rect in zip(lo, hi, h)], dtype=int)

        monkeypatch.setattr(spectrum, "_BLOCK_NODES", block)
        assert find_spectrum(cfg, 1021.0) == batched
        monkeypatch.setattr(spectrum, "_winding_number", one_at_a_time)
        assert find_spectrum(cfg, 1021.0) == batched

    def test_level_with_a_zero_keeps_the_previous_integer(self):
        calls = []

        def func(z):
            calls.append(z.shape)
            vals = (z - 0.5) * (z - 2.5) ** 2
            if len(calls) == 2:  # the 128-node level of the first rectangle
                vals[0, 3] = 0.0
            return vals

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wind = _winding_number(func, np.array([0.0, 2.0]), np.array([1.0, 3.0]), 0.4, n_max=256)
        # 64: both 1 and 2; 128: the first has a zero, the second settles;
        # 256: the first settles on the 1 kept from level 64
        assert wind.tolist() == [1, 2]
        assert calls == [(2, 64), (2, 128), (1, 256)]

    def test_undecided_rectangle_is_named(self):
        roots = np.array([0.5, 2.5, 4.5, 6.5])

        def func(z):
            vals = (z - 0.5) * (z - 2.5) * (z - 4.5) * (z - 6.5)
            return np.where(np.abs(z.real - 2.5) <= 0.45, 0.0, vals)

        assert _winding_number(func, roots[[0, 2, 3]] - 0.45, roots[[0, 2, 3]] + 0.45,
                               0.45, roots=roots[[0, 2, 3]]).tolist() == [1, 1, 1]
        with pytest.raises(MultiplicityUndecidedError, match=r"^multiplicity-undecided at omega=2.5$") as exc:
            _winding_number(func, roots - 0.45, roots + 0.45, 0.45, n_max=1024, roots=roots)
        assert exc.value.omega == 2.5

    def test_find_spectrum_names_the_first_undecided_root(self, monkeypatch):
        cfg = StringConfig(2, 0.3)
        omegas = find_spectrum(cfg, 10.0).omegas()
        undecided = omegas[[2, 4]]
        g = spectrum.dispersion_two_piece

        def blind(z, cfg):
            if not np.iscomplexobj(z):
                return g(z, cfg)
            # zero every perimeter that encloses one of the two chosen roots
            lo = z.real.min(axis=-1, keepdims=True)[..., None]
            hi = z.real.max(axis=-1, keepdims=True)[..., None]
            return np.where(np.any((lo < undecided) & (undecided < hi), axis=-1), 0.0, g(z, cfg))

        monkeypatch.setattr(spectrum, "dispersion_two_piece", blind)
        with pytest.raises(MultiplicityUndecidedError) as exc:
            find_spectrum(cfg, 10.0)
        assert exc.value.omega == omegas[2]
        assert str(exc.value) == f"multiplicity-undecided at omega={omegas[2]:.12g}"

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
