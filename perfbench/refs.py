"""Independent references and the correctness checks of each workload.

The references never call the package: closed forms at x = 0, the high-T
form and beta_c written out here, beta* from ``workloads``, and mpmath
quadratures of the original integrands (not the cancellation-free forms
the package evaluates).  The
checks also compare the package's routes with one another and test
properties every result must have.  Tolerances, one per route:

    contour vs mpmath and closed forms                 1e-9 relative
    Matsubara at T L / 2 pi < 1e-3 vs the contour      1e-9 relative
    Matsubara at frequency_ratio = 20 vs the high-T form 1e-12 relative
    cutoff oracle vs mpmath                            1e-3 relative
    each with an absolute floor of 1e-13.

Nothing is cached: every run computes its references anew.
"""

import csv
import io
import math
import random

import mpmath as mp

from workloads import hagedorn_beta_star

L = math.pi
RTOL_CONTOUR = 1e-9
RTOL_LOW_T = 1e-9
RTOL_HIGH_T = 1e-12
RTOL_ORACLE = 1e-3
ATOL = 1e-13


def two_n_x0(n, length=L):
    """Decoupled 2N-piece energy -(pi / 6 L)(N^2 - 1)."""
    return -(math.pi / (6.0 * length)) * (n * n - 1.0)


def mp_two_piece(s, x, length=L):
    """(1/2 pi) Int ln[(F + sinh(xi L_I) sinh(xi L_II) / sinh^2(xi L/2)) / (F+1)]
    at 25 digits.  The upper limit is finite, 40 / min(L_I, L_II), where
    the integrand is below e^-80: at an infinite limit mpmath loses every
    digit.  L_II is L - L_I, as in the package, so that L_I + L_II = L holds
    exactly; otherwise the integrand keeps a spurious linear tail."""
    mp.mp.dps = 25
    big_l = mp.mpf(length)
    l_i = big_l / (1 + mp.mpf(s))
    l_ii = big_l - l_i
    f = mp.mpf(4 * x) / (1 - mp.mpf(x)) ** 2
    d_min = min(l_i, l_ii)

    def integrand(xi):
        ratio = mp.sinh(xi * l_i) * mp.sinh(xi * l_ii) / mp.sinh(xi * big_l / 2) ** 2
        return mp.log((f + ratio) / (f + 1))

    total = mp.quad(integrand, [0, 1 / d_min, 4 / d_min, 40 / d_min])
    return float(total / (2 * mp.pi))


def contrast(x):
    return 4.0 * x / (1.0 - x) ** 2


def high_t_form(s, x, temperature):
    """E(T) = (T/2) ln[(F + 4s/(s+1)^2) / (F + 1)], the n = 0 term alone."""
    f = contrast(x)
    return 0.5 * temperature * math.log((f + 4.0 * s / (s + 1.0) ** 2) / (f + 1.0))


def dispersion_residual(omega, s, x, length=L):
    """|F sin^2(omega L/2) + sin(omega L_I) sin(omega L_II)| / (F + 1)."""
    f = contrast(x)
    l_i = length / (1.0 + s)
    val = f * math.sin(omega * length / 2) ** 2 + math.sin(omega * l_i) * math.sin(omega * (length - l_i))
    return abs(val) / (f + 1.0)


def hagedorn_beta_c(s, tension_ii):
    """Closed-form critical inverse temperature (4/s) sqrt(pi (1+s) / T_II)."""
    return (4.0 / s) * math.sqrt(math.pi * (1.0 + s) / tension_ii)


def free_energy_constant(s):
    return -(s + 1.0 / s - 2.0) / 24.0


class Checker:
    """Collects failed checks; a run is correct when none failed."""

    def __init__(self):
        self.failures = []
        self.count = 0

    def true(self, label, cond):
        self.count += 1
        if not cond:
            self.failures.append(label)

    def close(self, label, got, want, rtol):
        got = float(got)
        err = abs(got - want)
        self.true(f"{label}: got {got!r}, want {want!r}, |diff| {err:.3e}",
                  err <= rtol * abs(want) + ATOL)


def check_thermal(pkg, ops, results, seed):
    """E <= 0; T -> 0 tends to the contour value; frequency_ratio >> 1
    gives the high-T form; the Hagedorn flag agrees with beta* away from
    it and a converged F lies below the constant term."""
    chk = Checker()
    rng = random.Random(f"thermal-check:{seed}")
    two, many = [], []
    for (fn, p), res in zip(ops, results):
        if isinstance(res, Exception):
            chk.true(f"{fn}{p} failed: {res!r}", False)
            continue
        if fn == "free_energy":
            s = p["s"]
            frac = p["beta"] / hagedorn_beta_star(s, p["T_II"])
            if frac < 0.95:
                chk.true(f"F{p} not flagged divergent", res.convergence_flag == "diverged-below-hagedorn")
            elif frac > 1.05:
                chk.true(f"F{p} not converged", res.convergence_flag == "converged")
                chk.true(f"F{p} = {res.free_energy!r} above the constant term",
                         res.free_energy <= free_energy_constant(s))
            continue
        chk.true(f"{fn}{p} = {res.value!r} > 0", res.value <= 0.0)
        cold = p["T"] * L / (2 * math.pi) < 1e-3
        if fn == "casimir_two_piece_thermal":
            two.append((p, res.value, cold))
        elif cold:
            many.append((p, res.value))
    cold_two = [(p, v) for p, v, cold in two if cold]
    for p, v in rng.sample(cold_two, min(12, len(cold_two))):
        zero = pkg.casimir_two_piece(pkg.StringConfig(p["s"], p["x"])).value
        chk.close(f"two-piece thermal {p} vs contour", v, zero, RTOL_LOW_T)
    for p, v in rng.sample(cold_two, min(2, len(cold_two))):
        chk.close(f"two-piece thermal {p} vs mpmath", v, mp_two_piece(p["s"], p["x"]), RTOL_LOW_T)
    for p, v in rng.sample(many, min(6, len(many))):
        zero = pkg.casimir_2n(pkg.NPieceConfig(p["N"], p["x"])).value
        chk.close(f"2N thermal {p} vs contour", v, zero, RTOL_LOW_T)
    for p, _, _ in rng.sample(two, min(4, len(two))):
        # frequency_ratio = T L_I / 2 pi = 20
        hot = 20.0 * 2.0 * math.pi * (1.0 + p["s"]) / L
        cfg = pkg.StringConfig(p["s"], p["x"])
        got = pkg.casimir_two_piece_thermal(cfg, pkg.ThermalConfig(hot)).value
        chk.close(f"two-piece thermal {p} at T={hot:.4g} vs high-T form", got,
                  high_t_form(p["s"], p["x"], hot), RTOL_HIGH_T)
    return chk


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def check_cli(commands, outputs):
    """Parse each command's CSV output and compare it with the references.
    ``outputs`` maps the command name to (exit code, stdout, stderr)."""
    chk = Checker()
    for argv, p in commands:
        name = argv[0]
        code, out, err = outputs[name]
        chk.true(f"{name} exited {code}: {err.strip()[-200:]}", code == 0)
        if code != 0:
            continue
        rows = _rows(out)
        chk.true(f"{name} printed no rows", len(rows) > 0)
        if not rows:
            continue
        row = rows[0]
        if name in ("energy", "thermal"):
            s, x = float(row["s"]), float(row["x"])
            chk.close(f"cli {name} {p}", float(row["value"]), mp_two_piece(s, x), RTOL_CONTOUR)
        elif name == "energy-n":
            for r in rows:
                chk.close(f"cli energy-n {p} {r['method']}", float(r["value"]),
                          two_n_x0(int(r["N"])), RTOL_CONTOUR)
            chk.true("cli energy-n lacks the closed-form row", len(rows) == 2)
        elif name == "spectrum":
            prev = 0.0
            for r in rows:
                omega = float(r["omega"])
                chk.true(f"cli spectrum omega={omega!r} not a root",
                         dispersion_residual(omega, float(r["s"]), float(r["x"])) < 1e-9)
                chk.true(f"cli spectrum multiplicity {r['multiplicity']}", r["multiplicity"] in ("1", "2"))
                chk.true(f"cli spectrum omega={omega!r} out of order", prev < omega <= p["omega_max"])
                prev = omega
        elif name == "free-energy":
            chk.true(f"cli free-energy {p} flag {row['convergence_flag']}",
                     row["convergence_flag"] == "converged")
            chk.true(f"cli free-energy {p} above the constant term",
                     float(row["free_energy"]) <= free_energy_constant(p["s"]))
        elif name == "hagedorn":
            want = hagedorn_beta_c(p["s"], float(row["T_II"]))
            chk.close(f"cli hagedorn {p}", float(row["beta_c"]), want, 1e-13)
            chk.close(f"cli hagedorn {p} T_c", float(row["T_c"]), 1.0 / want, 1e-13)
        elif name == "oracle":
            ref = mp_two_piece(float(row["s"]), float(row["x"]))
            by_method = {r["method"]: float(r["value"]) for r in rows}
            chk.close(f"cli oracle {p} contour", by_method.get("contour", math.nan), ref, RTOL_CONTOUR)
            chk.close(f"cli oracle {p} cutoff", by_method.get("cutoff-oracle", math.nan), ref, RTOL_ORACLE)
            chk.true(f"cli oracle {p} routes disagree", "difference" in by_method)
        elif name == "scan":
            chk.true(f"cli scan printed {len(rows)} rows", len(rows) == len(p["x"]))
            for r in rows:
                s, x = float(r["s"]), float(r["x"])
                chk.close(f"cli scan s={s} x={x}", float(r["value"]), mp_two_piece(s, x), RTOL_CONTOUR)
    return chk
