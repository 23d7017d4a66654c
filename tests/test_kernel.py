"""The trapezoid kernel behind the contour integrals and the Matsubara sums.

Every error bar is checked against an independent value: a closed form, an
mpmath quadrature of the original integrand, or the other route.
"""

import itertools
import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from stringcasimir import (
    NPieceConfig,
    QuadratureError,
    QuantumStringConfig,
    StringConfig,
    ThermalConfig,
    casimir_2n,
    casimir_2n_thermal,
    casimir_2n_x0,
    casimir_two_piece,
    casimir_two_piece_thermal,
    casimir_two_piece_x0,
    free_energy,
)
from stringcasimir import core, energy, thermal

L = math.pi


@pytest.fixture
def evaluations(monkeypatch):
    """Records the evaluation count of every kernel call made through thermal."""
    counts = []

    def counting(*args, **kwargs):
        value, err, evals = energy._trapezoid(*args, **kwargs)
        counts.append(evals)
        return value, err, evals

    monkeypatch.setattr(thermal, "_trapezoid", counting)
    return counts


class TestLattice:
    def test_analytic_summand_stops_early(self, evaluations):
        # T sum' e^{-xi^2} equals 1/(4 sqrt(pi)) up to e^{-1/(4 T^2)} (Poisson)
        g = lambda xi: np.exp(-xi * xi) / (2.0 * math.pi)
        res = thermal._matsubara(g, 40.0, 2e-6 * math.pi)
        assert abs(res.value - 1.0 / (4.0 * math.sqrt(math.pi))) <= res.abs_error_estimate < 1e-14
        assert evaluations[-1] < 1000

    def test_algebraic_levels_sum_the_whole_lattice(self, evaluations):
        # e^{-xi} is not even: its sub-lattice sums converge only like h^2, so
        # no early stop is allowed; the sum is (T/2) coth(pi T)
        t = 1e-4
        h = 2.0 * math.pi * t
        res = thermal._matsubara(lambda xi: np.exp(-xi) / (2.0 * math.pi), 40.0, h)
        assert abs(res.value - 0.5 * t / math.tanh(math.pi * t)) <= res.abs_error_estimate < 1e-14
        assert evaluations[-1] == int(40.0 / h) + 1

    def test_geometric_levels_do_not_stop_early(self):
        # sums of g = xi are (1 + h)/2, differences h/2 (ratio 1/2); with an
        # error row of 1e-3, which sums to 1e-3 (1 + h/2), two differences in a
        # row fall within the bound at h = 1/512 and 1/1024.  Sums without a
        # finest level stop there; a lattice, whose differences never shrink
        # eightfold, runs to its finest step 1/4096.
        g = lambda xi: np.stack([xi, np.full_like(xi, 1e-3)])
        _, _, evals = energy._trapezoid(g, 0.0, 1.0, 1 / 8, halvings=9)
        assert evals == 4096 + 1
        (value, _), err, evals = energy._trapezoid(g, 0.0, 1.0, 1 / 8)
        assert evals == 1024 + 1 and abs(value - 0.5) <= err

    def test_node_budget_raises_instead_of_a_partial_sum(self, monkeypatch):
        # the x = 0 summand sums the whole lattice (a T ln T term)
        monkeypatch.setattr(energy, "_MAX_NODES", 4096)
        with pytest.raises(QuadratureError) as info:
            thermal._matsubara(*energy._integrand(NPieceConfig(2, 0.0)), 2e-3 * math.pi)
        assert math.isfinite(info.value.best_estimate)


def _level_by_level(g, a, b, step, halvings=None):
    """The kernel with one call of g per level, each evaluating only that
    level's new nodes: the reference the batched first call must reproduce."""
    parts, extra, mass, evals = [], [], 0.0, 0
    value = diff = bound = math.nan
    for k in itertools.count():
        h = step / 2**k
        top = int((b - a) / h)
        first, stride = (0, 1) if k == 0 else (1, 2)
        evals += (top - first) // stride + 1
        if evals > energy._MAX_NODES:
            raise QuadratureError("over budget", value, abs_error=diff)
        for lo in range(first, top + 1, stride * energy._BLOCK):
            v = g(a + h * np.arange(lo, min(lo + stride * energy._BLOCK, top + 1), stride))
            if lo == 0:
                v[..., 0] *= 0.5
            if v.ndim > 1:  # rows: the values, then their errors and others
                v, *others = v
                extra.append([math.fsum(row) for row in others])
            parts.append(math.fsum(v))
            mass += float(np.sum(np.abs(v)))
        sums = [h * math.fsum(row) for row in zip(*extra)]
        value, prev = h * math.fsum(parts), value
        last, last_bound = diff, bound
        diff, bound = abs(value - prev), energy._NOISE * h * mass + sum(sums[:1])
        out = [value, *sums] if sums else value
        if k == halvings:
            return out, bound, evals
        if diff <= bound and (8.0 * diff <= last or halvings is None and last <= last_bound):
            return out, diff + bound, evals


def _run(kernel, g, *args, **kwargs):
    """The kernel's result, or the estimate and bar its QuadratureError
    carries, with the nodes of each call of g."""
    calls = []

    def recorded(x):
        calls.append(x.copy())
        return g(x)

    try:
        return kernel(recorded, *args, **kwargs), calls
    except QuadratureError as err:
        return ("raised", err.best_estimate, err.abs_error), calls


# x converges only like h^2; its error row of 1e-3 lets two levels agree
_SUMMANDS = {"gauss": lambda x: np.exp(-x * x), "exp": lambda x: np.exp(-x),
             "linear": lambda x: np.stack([x, np.full_like(x, 1e-3)])}


class TestBatchedFirstCall:
    """The first call takes every level within _BATCH nodes; the sums, bars and
    levels must be those of one call per level."""

    @pytest.mark.parametrize("name", sorted(_SUMMANDS))
    @pytest.mark.parametrize("coarse", [8, 15])  # nodes of the coarsest level
    @pytest.mark.parametrize("halvings", [None, 0, 3, 4, 6, 9])
    def test_identical_to_one_call_per_level(self, name, coarse, halvings, monkeypatch):
        monkeypatch.setattr(energy, "_MAX_NODES", 1 << 14)  # e^-x and x without a lattice raise
        step = 0.5
        args = (_SUMMANDS[name], 0.0, (coarse - 0.5) * step, step, halvings)
        got, calls = _run(energy._trapezoid, *args)
        ref, ref_calls = _run(_level_by_level, *args)
        assert got[:2] == ref[:2]
        later = len(calls) - 1  # calls past the first are the reference's last ones
        assert [c.size for c in calls[1:]] == [c.size for c in ref_calls[len(ref_calls) - later:]]
        assert calls[0].size <= energy._BATCH
        assert np.isin(np.concatenate(ref_calls), np.concatenate(calls)).all()  # the same floats
        if got[0] != "raised":
            assert got[2] == sum(c.size for c in calls) >= ref[2]

    @pytest.mark.parametrize("name", sorted(_SUMMANDS))
    @pytest.mark.parametrize("coarse", [8, 15])
    @pytest.mark.parametrize("halvings", [None, 0, 3, 4, 6, 9])
    def test_rows_with_a_zero_error_row(self, name, coarse, halvings, monkeypatch):
        # g with one more row of zeros is the call of g to the bit: value, bound
        # and evaluations; so it is the reference's
        monkeypatch.setattr(energy, "_MAX_NODES", 1 << 14)
        g = _SUMMANDS[name]
        args = (0.0, (coarse - 0.5) * 0.5, 0.5, halvings)
        got, _ = _run(energy._trapezoid, lambda x: np.vstack([g(x), np.zeros_like(x)]), *args)
        one, _ = _run(energy._trapezoid, g, *args)
        ref, _ = _run(_level_by_level, g, *args)
        if got[0] == "raised":
            assert got == one == ref
        else:
            rows = one[0] if isinstance(one[0], list) else [one[0]]
            assert (got[0][:-1], *got[1:]) == (rows, *one[1:]) and one[:2] == ref[:2]
            assert got[0][-1] == 0.0

    def test_rows_sum_alike_and_errors_join_the_bound(self):
        g = lambda x: np.exp(-x * x)
        value, bound, evals = energy._trapezoid(g, 0.0, 6.0, 0.5)
        rows, row_bound, row_evals = energy._trapezoid(
            lambda x: np.stack([g(x), np.full_like(x, 1e-9), -2.0 * g(x)]), 0.0, 6.0, 0.5)
        assert rows[0] == value and rows[2] == -2.0 * value and row_evals == evals
        # h sum(error) is 1e-9 times the interval, up to the trapezoid's end nodes
        assert row_bound - bound == pytest.approx(rows[1]) and rows[1] == pytest.approx(6e-9, rel=0.1)

    def test_contour_runs_past_the_first_call(self):
        # the step of a contour: 33 nodes at level 0, and the first call takes every level
        # whose 32 2^k intervals stay under _BATCH; this integrand needs a finer one
        g = lambda t: np.exp(-np.exp(t)) * np.exp(t) * np.cos(3.0 * np.exp(t))
        got, calls = _run(energy._trapezoid, g, -4.5, 11.5, 0.5)
        ref, ref_calls = _run(_level_by_level, g, -4.5, 11.5, 0.5)
        depth = max(k for k in range(1, 20) if 32 * 2**k < energy._BATCH)
        assert got == ref and len(calls) > 1 and calls[0].size == 32 * 2**depth + 1

    def test_node_budget_raise_carries_the_same_estimate(self, monkeypatch):
        monkeypatch.setattr(energy, "_MAX_NODES", 1000)
        args = (lambda x: np.exp(-x), 0.0, 7.5, 0.5)
        got, _ = _run(energy._trapezoid, *args)
        ref, _ = _run(_level_by_level, *args)
        assert got[0] == "raised" and got == ref and math.isfinite(got[1])


@pytest.fixture
def integrand_calls(monkeypatch):
    """The number of integrand calls of each kernel pass."""
    calls = []
    kernel = energy._trapezoid

    def counting(g, *args, **kwargs):
        calls.append(0)

        def counted(x):
            calls[-1] += 1
            return g(x)

        return kernel(counted, *args, **kwargs)

    monkeypatch.setattr(energy, "_trapezoid", counting)
    monkeypatch.setattr(thermal, "_trapezoid", counting)
    return calls


class TestIntegrandCalls:
    """Most of a summand call's cost is fixed, so the kernel's call count is
    its cost; one call per level was 5, 4 and 4 calls here."""

    def test_matsubara_sum(self, integrand_calls):
        casimir_two_piece_thermal(StringConfig(2, 0.3), ThermalConfig(1e-3))
        assert integrand_calls == [1]

    def test_contour(self, integrand_calls):
        casimir_two_piece(StringConfig(2, 0.3))
        assert integrand_calls == [1]

    @pytest.mark.parametrize("s, beta", [(1, 17.0), (2, 11.3), (3, 9.0)])
    def test_modulus_integral(self, s, beta, integrand_calls):
        # levels 0-4 in one call: s = 2 and 3 took a second call for level 4
        free_energy(QuantumStringConfig(s, math.pi), beta)
        assert integrand_calls == [1]


class TestTwoPieceSummandRoute:
    """The two-piece summand's r = e^{-m xi} expm1(-d xi) / expm1(-L xi) needs no
    ln(1 - e^{-x}); only the gap form of a high-contrast string still takes it."""

    @pytest.fixture
    def no_log_form(self, monkeypatch):
        def raising(x):
            raise AssertionError("the log form")

        monkeypatch.setattr(core, "_log1mexp", raising)

    def test_matsubara_sum_and_contour(self, no_log_form):
        casimir_two_piece_thermal(StringConfig(2, 0.3), ThermalConfig(1e-3))
        casimir_two_piece(StringConfig(2, 0.3))

    def test_gap_form_keeps_the_log_form(self, no_log_form):
        with pytest.raises(AssertionError, match="the log form"):
            casimir_two_piece(StringConfig(1e-3, 0.0))


class TestTwoNRoute:
    """The 2N thermal route, seen from whether the lattice kernel runs."""

    @pytest.fixture
    def no_lattice(self, monkeypatch):
        def no_pass(*args, **kwargs):
            raise AssertionError("a lattice pass")

        monkeypatch.setattr(thermal, "_trapezoid", no_pass)

    def test_mode_sum_runs_no_lattice(self, no_lattice):
        res = casimir_2n_thermal(NPieceConfig(4, 0.3), ThermalConfig(1e-3))
        assert res.method == "mode-sum"

    @pytest.mark.parametrize("cfg, t", [(NPieceConfig(2**14, 0.3), 100.0),  # 2399 pairs, 479 nodes
                                        (NPieceConfig(4, 0.3), 1e4),  # T L >> 1: terms >> nodes
                                        # 3 terms pass the nodes by 1329: the lattice takes
                                        # 0.09 ms, the mode sum 0.16
                                        (NPieceConfig(64, 0.3), 60.0 / L)])
    def test_lattice_runs_past_the_mode_sum(self, cfg, t, no_lattice):
        with pytest.raises(AssertionError, match="a lattice pass"):
            casimir_2n_thermal(cfg, ThermalConfig(t))

    @pytest.mark.parametrize("cfg, t", [(NPieceConfig(2**14, 0.3), 1e-3),
                                        (NPieceConfig(20000, 0.3), 1e-3),
                                        (NPieceConfig(10**5, 1e-6), 1e-4),
                                        (NPieceConfig(10**6, 0.3), 1e-3)])
    def test_mode_sum_runs_past_one_block(self, cfg, t, no_lattice):
        # no pair, or one, below 40 T: the lattice took 20 to 40 times as long here, at
        # (1e5, 1e-6) it ran out of nodes, and at (1e6, 0.3) it raised
        assert casimir_2n_thermal(cfg, ThermalConfig(t)).method == "mode-sum"

    @pytest.mark.parametrize("cfg, t", [(NPieceConfig(128, 0.3), 1.0),
                                        (NPieceConfig(512, 0.3), 1.0),
                                        (NPieceConfig(2, 0.3), 0.6), (NPieceConfig(6, 0.3), 1.8),
                                        (NPieceConfig(2**14, 0.3), 2.0),
                                        (NPieceConfig(16000, 0.3), 19.0),
                                        (NPieceConfig(8192, 0.3), 60.0 / L)])
    def test_mode_sum_runs_within_one_call_of_the_lattice(self, cfg, t, no_lattice):
        # the ranges' 3 terms within the lattice's nodes plus one call's overhead: at (512, T = 1)
        # 23 pairs against 1407 nodes, where the lattice takes 0.34 ms and the mode sum 0.11;
        # N = 2 and 6 at T/N = 0.3 are the benchmark's corners (3 terms pass the nodes by 34
        # and 118); the last three took the lattice while the mode sum built every Bloch angle,
        # and now take 0.18 ms against 2.3, 0.25 against 0.42 and, 3 terms passing the nodes
        # by 184, 0.25 against 0.26
        assert casimir_2n_thermal(cfg, ThermalConfig(t)).method == "mode-sum"

    @pytest.mark.parametrize("cfg, t", [(NPieceConfig(4, 0.0), 1e-3), (NPieceConfig(3, 0.0), 1e-6),
                                        (NPieceConfig(40, 0.0), 1e-5),
                                        (NPieceConfig(10**6, 0.0), 1e4)])
    def test_decoupled_pieces_run_no_lattice(self, cfg, t, no_lattice):
        # 0.8 s on the lattice at (3, 1e-6); over its node budget at (40, 1e-5)
        assert casimir_2n_thermal(cfg, ThermalConfig(t)).method == "analytic-limit"

    @pytest.mark.parametrize("n", [10**5, 2**17, 10**6, 2**20])
    @pytest.mark.parametrize("t", [1e-3, 0.05])
    def test_large_n_agrees_with_the_exact_sum(self, n, t, no_lattice):
        # at T = 1e-3 no pair lies below 40 T, at 0.05 the prefix holds one: E_N is the contour's,
        # checked here against the exact Bloch sum, and the thermal part lies far inside both bars
        cfg = NPieceConfig(n, 0.3)
        res, zero = casimir_2n_thermal(cfg, ThermalConfig(t)), casimir_2n(cfg, slow_exact=True)
        assert res.method == "mode-sum" and thermal._ranges(cfg, t)[:2] == ((0, 0) if t < 0.01 else (1, 0))
        assert abs(res.value - zero.value) <= res.abs_error_estimate + zero.abs_error_estimate

    @pytest.mark.parametrize("n, x, t", [(10**5, 0.3, 1.0), (2**20, 0.9, 3.0), (2000, 0.3, 60.0),
                                         (1000, 0.05, 0.4), (64, 1 - 1e-6, 0.5), (40, 0.3, 1.5),
                                         (41, 0.7, 1.6), (7, 0.3, 3.0)])
    def test_terms_hold_only_the_ranges(self, n, x, t, monkeypatch):
        # the term arrays hold the pairs whose lower mode lies below 40 T, found here from every
        # angle: N theta_m/L on the + branches, 2 pi (N - m)/L on the -; past _EXACT_PAIRS, where
        # E_N is the contour's, the angles built are those pairs' alone
        sizes, built = [], []
        pair_terms, bloch_angles = thermal._pair_terms, thermal._bloch_angles
        monkeypatch.setattr(thermal, "_pair_terms",
                            lambda start, *rest: sizes.append(start.size) or pair_terms(start, *rest))
        monkeypatch.setattr(thermal, "_bloch_angles",
                            lambda cfg, m=None: built.append(m) or bloch_angles(cfg, m))
        cfg, top = NPieceConfig(n, x), n // 2
        (theta, _, _, rest_phi), _ = core._bloch_angles(cfg)
        scale = n / (L * t)
        plus = (np.flatnonzero(scale * theta[1:] < thermal._REACH) + 1).tolist()
        minus = (np.flatnonzero(scale * (math.pi + rest_phi[1:]) < thermal._REACH) + 1).tolist()
        thermal._mode_sum(cfg, t)
        assert plus == list(range(1, len(plus) + 1)) and minus == list(range(top + 1 - len(minus), top + 1))
        assert thermal._ranges(cfg, t)[:2] == (len(plus), len(minus)) and sizes == [len(plus) + len(minus)]
        if n > thermal._EXACT_PAIRS:
            assert [m.tolist() for m in built] == [sorted({*plus, *minus})]


class TestFormerQuadratureFailures:
    @pytest.mark.parametrize(
        "compute, closed",
        [
            (lambda: casimir_2n(NPieceConfig(1000, 0.0)), casimir_2n_x0(1000, L).value),
            (lambda: casimir_two_piece(StringConfig(1e-4, 0.0)),
             casimir_two_piece_x0(1e-4, L).value),
            (lambda: casimir_two_piece(StringConfig(1e-6, 0.0)),
             casimir_two_piece_x0(1e-6, L).value),
        ],
    )
    def test_within_bar_of_closed_form(self, compute, closed, capfd):
        res = compute()
        assert abs(res.value - closed) <= res.abs_error_estimate
        assert res.abs_error_estimate <= 1e-13 * abs(closed)
        assert capfd.readouterr().err == ""


class TestMatsubara:
    @pytest.mark.parametrize("t", [1e-6, 2e-7])
    def test_low_temperature_bar_covers_zero_temperature(self, t, evaluations):
        # the sum used to cost 1/T and, below T ~ 2.6e-7, to stop at a term limit
        cfg = StringConfig(2, 0.3)
        cold = casimir_two_piece_thermal(cfg, ThermalConfig(t))
        zero = casimir_two_piece(cfg)
        assert abs(cold.value - zero.value) <= cold.abs_error_estimate + zero.abs_error_estimate
        assert evaluations[-1] < 1000

    @pytest.mark.parametrize("t_l", [1e-2, 1e-3])
    def test_zero_mode_sum_does_not_stop_early(self, t_l):
        # at x = 0 the levels converge algebraically (a T ln T term); an
        # early stop would miss -pi/(2L) + T ln(4/(T L))
        t = t_l / L
        res = casimir_2n_thermal(NPieceConfig(2, 0.0), ThermalConfig(t))
        predicted = -math.pi / (2 * L) + t * math.log(4.0 / (t * L))
        assert res.value == pytest.approx(predicted, abs=1e-12)


def test_import_leaves_out_scipy_integrate():
    # no scipy module at all: the runtime needs numpy only
    code = "import sys, stringcasimir; print([m for m in sys.modules if m.startswith('scipy')])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": ":".join(sys.path)})
    assert out.stdout.strip() == "[]"


def test_star_import_binds_the_package_all():
    # __all__ is the layers' lists joined; the four names it leaves out stay attributes
    import stringcasimir as sc

    names = {}
    exec("from stringcasimir import *", names)
    assert sorted(set(names) - {"__builtins__"}) == sorted(sc.__all__)
    for name in ("imag_axis_log_ratio", "imag_axis_log_ratio_2n", "log_sinh",
                 "DEFAULT_EPSILON_FRACTIONS"):
        assert name not in sc.__all__ and hasattr(sc, name)


def _mp_two_piece(s, x):
    s, x, length = mp.mpf(s), mp.mpf(x), mp.mpf(L)
    f = 4 * x / (1 - x) ** 2
    l_i, l_ii = length / (1 + s), s * length / (1 + s)
    d, m = abs(l_ii - l_i), min(l_i, l_ii)
    ratio = lambda xi: mp.sinh(d * xi / 2) / mp.sinh(length * xi / 2)
    integrand = lambda xi: mp.log1p(-ratio(xi) ** 2 / (f + 1))
    return _mp_integral(integrand, 1 / length, 60 / m) / (2 * mp.pi)


def _mp_two_n(n, x):
    # the exact Bloch spectrum, independent of the imaginary-axis integrand:
    # E_N = pi/(6L) - (pi N/L) sum_m B_2(theta_m / 2 pi), B_2(a) = a^2 - a + 1/6,
    # sin(theta_m / 2) = sqrt(w) sin(pi m / N), w = 4x/(1+x)^2; exactly 0 at N = 1
    x, sixth = mp.mpf(x), mp.mpf(1) / 6
    root_w = 2 * mp.sqrt(x) / (1 + x)
    a = [mp.asin(root_w * mp.sin(mp.pi * m / n)) / mp.pi for m in range(n)]
    return mp.pi / L * (sixth - n * mp.fsum(t * t - t + sixth for t in a))


def _mp_integral(integrand, lo, hi):
    # split at octaves between the smallest and the largest scale
    points = [mp.mpf(0)] + [lo * 2**k for k in range(int(mp.log(hi / lo, 2)) + 2)]
    value, err = mp.quad(integrand, points, error=True)
    assert err < mp.mpf(10) ** -20 * abs(value) + mp.mpf(10) ** -40
    return value


_PROPERTY = settings(max_examples=12, deadline=None, derandomize=True,
                     suppress_health_check=[HealthCheck.too_slow])
_S = st.floats(-6.0, 6.0).map(lambda e: 10.0**e)
_X = st.one_of(st.just(0.0), st.floats(0.0, 0.99))


@_PROPERTY
@given(s=_S, x=_X)
def test_two_piece_bar_covers_mpmath(s, x):
    mp.mp.dps = 30
    res = casimir_two_piece(StringConfig(s, x))
    ref = _mp_two_piece(s, x)
    assert abs(res.value - float(ref)) <= res.abs_error_estimate
    if x == 0.0:
        assert abs(res.value - casimir_two_piece_x0(s, L).value) <= res.abs_error_estimate


def _mp_pair_sum(s, x):
    # the root-by-root sum of a rational s = p/q, which needs no imaginary-axis integrand:
    # the modes 2 pi n/L + delta, n = 1..p+q, repeat with period P = 2 pi (p+q)/L, and
    # (F+1) sin^2(delta L/2) = sin^2((phi_n + delta D)/2), D = L_II - L_I = L (p-q)/(p+q),
    # phi_n = 2 pi (n(p-q) mod (p+q))/(p+q), has one root in [-pi/L, 0) and one in (0, pi/L],
    # or where phi_n = 0 a double root delta = 0, which adds nothing.  With each root paired
    # with the uniform mode 2 pi n/L, the Hurwitz zeta sum gives E = -(P/4) sum (a - b)(a + b - 1),
    # a - b = delta/P and b = n/(p+q).  The root in (0, pi/L] at phi is minus the one in
    # [-pi/L, 0) at 2 pi - phi, so only the latter are found: bisected in floats, all at once,
    # then polished at the working precision by Newton steps with the float root's slope, each
    # of which gains about 15 digits.
    p, q = Fraction(s).as_integer_ratio()
    k = p + q
    turns = {n: n * (p - q) % k for n in range(1, k + 1)}  # phi_n = 2 pi turns / k
    turn = np.array(sorted(set(turns.values()) - {0}))
    phi, f, diff = 2.0 * math.pi * turn / k, 4.0 * x / (1.0 - x) ** 2, L * (p - q) / k
    lo, hi = np.full(turn.size, -math.pi / L), np.zeros(turn.size)  # g(lo) >= F > 0 > g(hi)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        above = (f + 1.0) * np.sin(mid * L / 2) ** 2 > np.sin((phi + mid * diff) / 2) ** 2
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    slope = (f + 1.0) * L / 2 * np.sin(lo * L) - diff / 2 * np.sin(phi + lo * diff)
    length, x = mp.mpf(L), mp.mpf(x)
    f_1, half, period = 4 * x / (1 - x) ** 2 + 1, length * (p - q) / (2 * k), 2 * mp.pi * k / length
    tol, left = mp.mpf(10) ** (3 - mp.mp.dps), {}
    for t, delta, dg in zip(turn.tolist(), lo.tolist(), slope.tolist()):
        half_phi, delta = mp.pi * t / k, mp.mpf(delta)
        for _ in range(6):
            step = (f_1 * mp.sin(delta * length / 2) ** 2 - mp.sin(half_phi + delta * half) ** 2) / dg
            delta -= step
            if abs(step) < tol:
                break
        else:
            raise AssertionError(f"Newton steps did not settle at phi = 2 pi {t}/{k}")
        left[t] = delta / period
    total = mp.mpf(0)
    for n, t in turns.items():
        if t:
            b = mp.mpf(n) / k
            total += mp.fsum(a * (2 * b + a - 1) for a in (left[t], -left[k - t]))
    return -period / 4 * total


# dyadic s: p/q exactly; at s = 1000 and 1/1024 (1000+ roots) the cutoff oracle raises, so
# this is the contour's only independent check there
@pytest.mark.parametrize("s", [2.0, 0.5, 1.5, 13 / 8, 17 / 16, 1000.0, 1 / 1024])
@pytest.mark.parametrize("x", [1e-3, 0.3, 0.9])
def test_two_piece_bar_covers_rational_pair_sum(s, x):
    with mp.workdps(40):
        ref = _mp_pair_sum(s, x)
    res = casimir_two_piece(StringConfig(s, x))
    assert abs(res.value - float(ref)) <= res.abs_error_estimate


@_PROPERTY
@given(n=st.integers(1, 1000), x=_X)
@example(n=2, x=1 - 1e-9)
@example(n=40, x=1 - 1e-9)
@example(n=1000, x=1e-9)
@example(n=10**4, x=1 - 1e-9)
def test_two_n_bar_covers_mpmath(n, x):
    mp.mp.dps = 50  # near x = 1 the sum cancels to about 1e-19 of its terms
    res = casimir_2n(NPieceConfig(n, x))
    ref = _mp_two_n(n, x)
    assert abs(res.value - float(ref)) <= res.abs_error_estimate
    if x == 0.0:
        assert abs(res.value - casimir_2n_x0(n, L).value) <= res.abs_error_estimate


@settings(max_examples=40, deadline=None, derandomize=True)
@given(s=st.floats(-2.0, 2.0).map(lambda e: 10.0**e), x=_X, n=st.integers(2, 200),
       x_n=st.floats(1e-3, 0.99), u=st.floats(-7.0, -2.0).map(lambda e: 10.0**e))
def test_matsubara_bar_covers_contour(s, x, n, x_n, u):
    # The summand is analytic in a strip that narrows like sqrt(min(s, 1/s) + x)
    # (two-piece) and N sqrt(w) (2N); far below it the Matsubara sum equals the
    # integral up to e^{-1/u}.  The lattice must resolve the same scales before
    # two levels agree, which for s far from 1, large N or small x takes more
    # nodes than the budget; hence the narrower ranges here.
    cfg = StringConfig(s, x)
    th = ThermalConfig(u * min(1.0, math.sqrt(min(s, 1.0 / s) + x)) / L)
    cold, zero = casimir_two_piece_thermal(cfg, th), casimir_two_piece(cfg)
    assert abs(cold.value - zero.value) <= cold.abs_error_estimate + zero.abs_error_estimate
    cfg = NPieceConfig(n, x_n)
    th = ThermalConfig(u * min(1.0, n * math.sqrt(4.0 * x_n / (1.0 + x_n) ** 2)) / L)
    cold, zero = casimir_2n_thermal(cfg, th), casimir_2n(cfg)
    assert abs(cold.value - zero.value) <= cold.abs_error_estimate + zero.abs_error_estimate


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(2, 200), x=st.floats(-9.0, math.log10(0.99)).map(lambda e: 10.0**e))
@example(n=3, x=1e-9)  # 0.5 s on the lattice
def test_mode_sum_bar_covers_contour(n, x):
    # at T = 1e-6 the Bloch modes lie at least 80 T up, so the thermal energy is
    # E_N to within e^{-80}; the lattice needed over 2^23 nodes from x ~ 1e-8
    cfg = NPieceConfig(n, x)
    cold, zero = casimir_2n_thermal(cfg, ThermalConfig(1e-6)), casimir_2n(cfg)
    assert cold.method == "mode-sum"
    assert abs(cold.value - zero.value) <= cold.abs_error_estimate + zero.abs_error_estimate


@pytest.mark.parametrize("n, x", [*itertools.product([2**14 + 1, 20000, 10**5], [1e-6, 0.3, 0.99]),
                                  (30000, 1e-9)])
def test_mode_sum_past_one_block_covers_contour(n, x):
    # at T = 1e-6 the lowest Bloch mode, near 2 pi sqrt(w)/L for large N, lies over 100 T up
    cfg = NPieceConfig(n, x)
    cold, zero = casimir_2n_thermal(cfg, ThermalConfig(1e-6)), casimir_2n(cfg)
    assert cold.method == "mode-sum"
    assert abs(cold.value - zero.value) <= cold.abs_error_estimate + zero.abs_error_estimate


@pytest.mark.parametrize("t", [0.3, 0.6])
def test_mode_sum_past_one_block_agrees_with_the_lattice(t):
    # the thermal parts, -1.4e-3 and -3.4e-2, are far above the bars of 9e-8; the lattice
    # takes 20 ms and 10 ms (at T = 0.1 the thermal part would be below the bars)
    cfg = NPieceConfig(2**14 + 1, 0.3)
    dual = casimir_2n_thermal(cfg, ThermalConfig(t))
    lattice = thermal._matsubara(*energy._integrand(cfg), 2.0 * math.pi * t)
    assert dual.method == "mode-sum"
    assert abs(dual.value - lattice.value) <= dual.abs_error_estimate + lattice.abs_error_estimate


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.floats(1.0, 14.0).map(lambda e: round(2.0**e)),
       x=st.one_of(st.floats(-9.0, -0.3).map(lambda e: 10.0**e),
                   st.floats(-6.0, -0.3).map(lambda e: 1.0 - 10.0**e)),
       t_l=st.floats(0.0, math.log10(200.0)).map(lambda e: 10.0**e))
@example(n=16000, x=0.3, t_l=19.0 * L)
@example(n=8192, x=0.3, t_l=60.0)
def test_routes_agree_across_the_crossover(n, x, t_l):
    # where the router moves 2N inputs to the lattice, at high T L; both routes are kept
    # below 2^14 terms and nodes, so each takes a few ms at most
    cfg, t = NPieceConfig(n, x), t_l / L
    f, b = energy._integrand(cfg)
    assume(b / (2.0 * math.pi * t) <= 2**14 and n + thermal._REACH * t_l / (2.0 * math.pi) <= 2**14)
    dual, lattice = thermal._mode_sum(cfg, t), thermal._matsubara(f, b, 2.0 * math.pi * t)
    assert abs(dual.value - lattice.value) <= dual.abs_error_estimate + lattice.abs_error_estimate


def test_mode_sum_peak_memory_at_the_cap():
    # the arrays grow as the ranges' pairs (where 3 terms <= nodes they span one period), so
    # the peak at about 2^15 pairs, scaled to _MAX_PAIRS, bounds it there; tracing the cap
    # itself takes over 1 s, as tracemalloc slows each float of a tolist
    cfg, t = NPieceConfig(2**26, 0.3), 1380.0
    prefix, suffix, _ = thermal._ranges(cfg, t)
    assert 2**14 < prefix + suffix <= 2**15
    tracemalloc.start()
    try:
        assert casimir_2n_thermal(cfg, ThermalConfig(t)).method == "mode-sum"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak * (thermal._MAX_PAIRS / (prefix + suffix)) <= 24e6


_X_NEAR_ONE = st.floats(-9.0, -0.3).map(lambda e: 1.0 - 10.0**e)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(2, 40),
       x=st.one_of(st.floats(-6.0, -0.3).map(lambda e: 10.0**e), _X_NEAR_ONE),
       u=st.floats(-3.0, 1.0).map(lambda e: 10.0**e))
def test_mode_sum_agrees_with_the_lattice(n, x, u):
    # T L = u: the lattice takes at most about 3e5 nodes
    cfg, t = NPieceConfig(n, x), u / L
    dual = casimir_2n_thermal(cfg, ThermalConfig(t))
    lattice = thermal._matsubara(*energy._integrand(cfg), 2.0 * math.pi * t)
    assert dual.method == "mode-sum"
    assert abs(dual.value - lattice.value) <= dual.abs_error_estimate + lattice.abs_error_estimate


def _mp_two_n_thermal(n, x, t):
    # (E_N, E(T)) at high precision over the distinct Bloch angles, m <= N/2, each branch
    # to omega/T = 100: E_N is the B_2 sum of _mp_two_n, and E(T) adds
    # T [sum_modes ln(1 - e^{-omega/T}) - 2 sum_k ln(1 - e^{-2 pi k/(L T)})]
    root_w, sixth = 2 * mp.sqrt(mp.mpf(x)) / (1 + mp.mpf(x)), mp.mpf(1) / 6
    b2, logs = [], []
    branch = lambda first, step: [mp.log(-mp.expm1(-(first + j * step)))
                                  for j in range(int((100 - first) / step) + 1)]
    step = 2 * mp.pi * n / (L * t)
    for m in range(n // 2 + 1):
        mult = 1 if m == 0 or 2 * m == n else 2
        theta = 2 * mp.asin(root_w * mp.sin(mp.pi * m / n))
        a = theta / (2 * mp.pi)
        b2.append(mult * (a * a - a + sixth))
        first = [n * (2 * mp.pi - theta), n * (theta + (2 * mp.pi if m == 0 else 0))]
        logs += [mult * v for f in first for v in branch(f / (L * t), step)]
    logs += [-2 * v for v in branch(2 * mp.pi / (L * t), 2 * mp.pi / (L * t))]
    zero = mp.pi / L * (sixth - n * mp.fsum(b2))
    return zero, zero + t * mp.fsum(logs)


@pytest.mark.parametrize("n, x, t", [(64, 1 - 1e-6, 0.5), (1000, 0.05, 0.4), (41, 0.7, 1.6),
                                     (10, 0.9, 0.3), (6, 0.3, 0.2), (3, 1e-9, 0.05),
                                     (2**12, 0.3, 2.0), (7, 1 - 1e-9, 0.2)])
def test_left_out_bounds_the_pairs_left_out(n, x, t):
    # the pairs outside the ranges, every period of them, summed from the full angles
    cfg = NPieceConfig(n, x)
    prefix, suffix, _ = thermal._ranges(cfg, t)
    (theta, _, gap, rest_phi), mult = core._bloch_angles(cfg)
    plus, minus = slice(prefix + 1, None), slice(1, n // 2 + 1 - suffix)
    start = np.concatenate([theta[plus], math.pi + rest_phi[minus]])
    scale = n / (L * t)
    delta = scale * np.concatenate([gap[plus], gap[minus]])
    signed = np.concatenate([mult[plus], -mult[minus]]).astype(float)
    rows = int(800.0 / (2.0 * math.pi * scale)) + 2  # past e^{-800} every term is 0
    left_out, _ = thermal._pair_terms(start, delta, signed, t, scale, rows)
    bound = thermal._left_out(cfg, t, prefix, suffix)
    assert start.size and abs(left_out) <= bound <= 1e-12 * abs(energy._bloch_energy(cfg)[0])


@pytest.mark.parametrize("n, x, t", [(2, 0.3, 0.5), (3, 1e-9, 1e-6), (5, 0.05, 0.02),
                                     (10, 0.9, 3.0), (40, 1e-3, 0.4), (7, 1 - 1e-9, 1.0),
                                     (1000, 0.3, 1e-3), (10**4, 1 - 1e-9, 1.0)])
def test_mode_sum_bar_covers_mpmath(n, x, t):
    with mp.workdps(40):  # near x = 1, E_N cancels to about 1e-19 of its terms
        zero, ref = _mp_two_n_thermal(n, x, t)
    res = casimir_2n_thermal(NPieceConfig(n, x), ThermalConfig(t))
    # at (10^4, T = 1) the ranges' 20 pairs take the mode sum, where all 10^4 took the lattice
    assert res.method == "mode-sum"
    # each Bloch mode paired with the uniform one keeps the bar relative, also near x = 1,
    # where at (10^4, T = 1) E_N is the contour's and most pairs are left out
    assert abs(res.value - float(ref)) <= res.abs_error_estimate <= 1e-12 * abs(res.value)
    value, bar = energy._bloch_energy(NPieceConfig(n, x))
    assert abs(value - float(zero)) <= bar
