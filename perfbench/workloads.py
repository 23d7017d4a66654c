"""Seeded inputs of the two benchmark workloads.

A workload is a fixed list of operations built from the seed; a run repeats
the list in whole passes.  Inputs are stratified: every stratum of a
parameter range receives one draw, placed inside the stratum by the seed.
The inputs change with the seed while the cost distribution of a pass, and
with it every latency quantile, stays put.

An operation is ``(function, params)``: ``function`` names a public function
of the ``stringcasimir`` package and ``params`` holds the plain numbers it is
called with, which the reference checks reuse.
"""

import math
import random

WORKLOADS = ("thermal", "cli")

# One cheap call per function, made in set-up so that lazy work inside numpy
# and scipy is not timed.
WARMUP = {
    "casimir_two_piece_thermal": {"s": 2.0, "x": 0.3, "T": 0.5},
    "casimir_2n_thermal": {"N": 2, "x": 0.3, "T": 0.5},
    "free_energy": {"s": 1, "T_II": math.pi, "beta": 25.0},
}


def strata(rng, lo, hi, n, log=False):
    """One uniform draw inside each of ``n`` equal strata of [lo, hi],
    returned in a seeded random order."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    width = (b - a) / n
    vals = [a + (i + rng.random()) * width for i in range(n)]
    rng.shuffle(vals)
    return [math.exp(v) for v in vals] if log else vals


def grid(lo, hi, n):
    """Midpoints of n equal strata of [lo, hi] on a log scale."""
    a, b = math.log(lo), math.log(hi)
    return [math.exp(a + (i + 0.5) * (b - a) / n) for i in range(n)]


def _count(n, size):
    return max(1, round(n * size))


def _flip_half(rng, values):
    # E(s) = E(1/s) at fixed L: half of the length ratios go below 1
    return [1.0 / v if i % 2 else v for i, v in enumerate(values)]


def hagedorn_beta_star(s, tension_ii):
    """Measured divergence point of the modulus integral,
    beta* = sqrt(8 pi^2 (4s+1) / T_II) / s."""
    return math.sqrt(8.0 * math.pi**2 * (4 * s + 1) / tension_ii) / s


def thermal_ops(rng, size=1.0):
    """Matsubara energies over log-uniform T down to 1e-5, and the free
    energy on both sides of beta*.

    The cost of a Matsubara sum grows like 1/(T min(L_I, L_II)), so the
    length ratios stay within [1.9, 2.3] and its reciprocal: T alone sets
    the cost.
    """
    ops = []
    n2 = _count(288, size)
    temps = grid(1e-5, 0.6, n2)
    ratios = _flip_half(rng, strata(rng, 1.9, 2.3, n2, log=True))
    tension_ratios = strata(rng, 0.0, 0.9, n2)
    for t, s, x in zip(temps, ratios, tension_ratios):
        ops.append(("casimir_two_piece_thermal", {"s": s, "x": x, "T": t}))
    nn = _count(96, size)
    # 2N sums cost like N/T: draw u = T/N so that N does not set the cost
    for i, (u, x) in enumerate(zip(grid(5e-6, 0.3, nn),
                                   strata(rng, 0.05, 0.9, nn))):
        n = 2 + i % 5
        ops.append(("casimir_2n_thermal", {"N": n, "x": x, "T": n * u}))
    nf = _count(12, size)
    below = strata(rng, 0.6, 0.9, nf)
    above = strata(rng, 1.1, 2.0, nf)
    for i, (frac, tension) in enumerate(zip(below + above, strata(rng, 1.0, 4.0, 2 * nf))):
        s = 1 + i % 3
        beta = frac * hagedorn_beta_star(s, tension)
        ops.append(("free_energy", {"s": s, "T_II": tension, "beta": beta}))
    rng.shuffle(ops)
    return ops


def cli_commands(seed):
    """One ``stringcasimir`` command line per command; ``scan`` runs with the
    default number of jobs.  Each entry is (argv, params)."""
    rng = random.Random(f"cli:{seed}")
    s = strata(rng, 1.8, 2.2, 1, log=True)[0]
    x_energy, x_thermal, x_spectrum = strata(rng, 0.1, 0.9, 3)
    # the oracle command is the slowest one and sets the p95: a narrow range
    # keeps its cost steady across seeds
    x_oracle = strata(rng, 0.2, 0.4, 1)[0]
    n = rng.randint(2, 20)
    tension = strata(rng, 1.0, 4.0, 1)[0]
    q = rng.randint(1, 3)
    beta = strata(rng, 1.2, 2.0, 1)[0] * hagedorn_beta_star(q, tension)
    temp = strata(rng, 1e-3, 1e-2, 1, log=True)[0]
    x0 = round(strata(rng, 0.02, 0.08, 1)[0], 3)
    f = repr
    return [
        (["energy", "--s", f(s), "--x", f(x_energy)], {"s": s, "x": x_energy}),
        (["energy-n", "--N", str(n), "--x", "0"], {"N": n, "x": 0.0}),
        (["thermal", "--s", f(s), "--x", f(x_thermal), "--T", f(temp)],
         {"s": s, "x": x_thermal, "T": temp}),
        (["spectrum", "--s", f(s), "--x", f(x_spectrum), "--omega-max", "20"],
         {"s": s, "x": x_spectrum, "omega_max": 20.0}),
        (["free-energy", "--s", str(q), "--T-II", f(tension), "--beta", f(beta)],
         {"s": q, "T_II": tension, "beta": beta}),
        (["hagedorn", "--s", str(q), "--T-II", f(tension)], {"s": q, "T_II": tension}),
        (["oracle", "--s", f(s), "--x", f(x_oracle)], {"s": s, "x": x_oracle}),
        (["scan", "--command", "energy", "--s", f(s), "--x", f"{x0}:{x0 + 0.81:.3f}:0.09"],
         {"s": s, "x": [x0 + 0.09 * k for k in range(10)]}),
    ]


def build(seed, size=1.0):
    """The operation list of the thermal workload for one seed; ``size``
    scales the number of strata (the self-test runs small passes)."""
    return thermal_ops(random.Random(f"thermal:{seed}"), size)
