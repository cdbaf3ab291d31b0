"""Wigner functions of number states and deformed coherent mixtures.

Number-state Wigner functions are radial: W_n = 2 (-1)^n e^{-v} L_n(2v)
with v = (q^2 + p^2)/hbar.  A deformed coherent state contributes the
weighted diagonal mixture with weights N_f^2 |zeta|^(2n) / (n! (f(n)!)^2).
"""

import numpy as np

from fstarq import (default_grid, fcs_wigner, field_report, field_to_csv,
                    fock_wigner, integrate, mesh, qdef_spec, sqrt_n_spec,
                    wigner_weights)

grid = default_grid()
print(f"grid: [{grid.q_min}, {grid.q_max}]^2 at {grid.n_q}x{grid.n_p}, "
      f"half-cell offset {grid.offset} (keeps the origin off-grid)")

# --- number states -----------------------------------------------------
for n in (0, 1, 5):
    w = fock_wigner(n, grid)
    norm = integrate(w).real
    Q, P = mesh(grid)
    near_origin = np.unravel_index(np.argmin(Q**2 + P**2), Q.shape)
    print(f"W_{n}: integral dq dp/(2 pi hbar) = {norm:.9f}, "
          f"value near origin = {w.values[near_origin].real:+.4f} "
          f"(sign (-1)^{n})")

# negativity is the quantum signature: W_1 dips to -2 at the origin
w1 = fock_wigner(1, grid)
print(f"min of W_1 = {w1.values.real.min():.4f} (Wigner bound is |W| <= 2)")

# --- deformed coherent mixtures ----------------------------------------
for spec in (sqrt_n_spec(), qdef_spec(1.2)):
    weights = wigner_weights(spec, zeta_abs2=1.0)
    w = fcs_wigner(spec, 1.0, grid)
    print(f"\nmixture for {w.label}:")
    print(f"  weights truncated at n = {len(weights) - 1}, "
          f"sum = {weights.sum():.12f}")
    print(f"  leading weights: {np.array2string(weights[:5], precision=5)}")
    print(f"  integral = {integrate(w).real:.9f}")

# --- export -------------------------------------------------------------
field_to_csv(w1, "wigner_n1.csv")
print("\nwrote wigner_n1.csv (columns q, p, re, im)")
print("summary report:", field_report(w1)["stats"])
