"""One-loop free energy of the quantized decoupled string and its
Hagedorn structure.

Sweeps the inverse temperature: far below the transition the free energy
sits on its constant term (the zero-temperature decoupled energy); as
beta drops, the modulus integral swells until its small-tau_2 end stops
converging.  Note the divergence threshold of the modulus integral, where
delta(beta) changes sign, lies above the closed-form critical beta; both
are printed.  U and S come from the beta derivative of the modulus
integrand, so the identity F = U - S/beta holds to rounding.
"""

import math
import sys

from stringcasimir import (
    QuantumStringConfig,
    casimir_two_piece_x0,
    free_energy,
    hagedorn_beta,
    mass_squared_excess,
    mean_tension,
    thermo_derivatives,
    OccupationState,
)

for s in (1, 2):
    cfg = QuantumStringConfig(s, math.pi)
    bc = hagedorn_beta(cfg)
    print(f"s = {s}: mean tension {mean_tension(cfg):.6f}, "
          f"closed-form beta_c = {bc:.6f}")
    # delta(beta) = 0: coefficient balance of the tau_2 -> 0 exponentials
    threshold = math.sqrt(8 * math.pi**2 * (4 * s + 1) / cfg.tension_ii) / s
    print(f"        modulus-integral threshold beta* = {threshold:.6f}")
    print(f"        constant term {-(s + 1 / s - 2) / 24:+.8f} "
          f"(decoupled two-piece energy at L = pi: "
          f"{casimir_two_piece_x0(s, math.pi).value:+.8f})")
    for mult in (0.95, 1.05, 2.0, 3.0):
        res = free_energy(cfg, mult * bc)
        val = f"{res.free_energy:+.6e}" if math.isfinite(res.free_energy) else "   -inf"
        bar = f" +- {res.abs_error_estimate:.1e}" if math.isfinite(res.free_energy) else ""
        print(f"        beta = {mult:4.2f} beta_c : F = {val}{bar}   [{res.convergence_flag}]")
    print()

cfg = QuantumStringConfig(1, math.pi)
beta = 3.0 * hagedorn_beta(cfg)
res = thermo_derivatives(cfg, beta)
print(f"thermodynamics at beta = 3 beta_c (s = 1):")
print(f"  F = {res.free_energy:+.6e}")
print(f"  U = {res.internal_energy:+.6e}")
print(f"  S = {res.entropy:+.6e}")
# dF/dbeta is its own integral, not a difference of F values, so the
# identity F = U - S/beta holds to rounding
scale = abs(res.free_energy) + abs(res.internal_energy) + abs(res.entropy) / beta
print(f"  |F - U + S/beta| = {res.identity_residual:.2e} "
      f"({res.identity_residual / (sys.float_info.epsilon * scale):.2f} eps of "
      f"|F| + |U| + |S|/beta: rounding level)")

print("\nmass levels above the vacuum (s = 2, T_II = 1/pi):")
cfg = QuantumStringConfig(2, 1.0 / math.pi)
for label, occ in (
    ("vacuum", OccupationState()),
    ("one traveling quantum, n = 1", OccupationState(a_modes={(1, 1): 1})),
    ("one standing quantum,  n = 1", OccupationState(c_modes={(1, 1): 1})),
    ("two traveling quanta,  n = 1, 2", OccupationState(a_modes={(1, 1): 1, (2, 2): 1})),
):
    print(f"  M^2 - M^2_vac = {mass_squared_excess(cfg, occ):6.2f}   ({label})")
