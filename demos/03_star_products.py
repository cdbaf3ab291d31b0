"""Star products: exact Moyal on polynomials, deformed product on grids.

On polynomial symbols the Moyal series terminates, so products, commutators
and associativity can be checked exactly.  On sampled fields the deformed
product k *_f g = kg + (i hbar/2) F(n) {k, g} is evaluated pointwise with
n = (q^2 + p^2)/(2 hbar).
"""

import numpy as np

from fstarq import (PhaseGrid, annihilation_symbol, creation_symbol,
                    field_from_poly, fstar_apply, identity_spec, mesh,
                    moyal_exact, parse_symbol, sqrt_n_spec, star_commutator)

hbar = 1.0

# --- exact Moyal algebra -------------------------------------------------
q = parse_symbol("q")
p = parse_symbol("p")
print("q * p  =", moyal_exact(q, p, hbar).to_string())
print("p * q  =", moyal_exact(p, q, hbar).to_string())

a = annihilation_symbol()
abar = creation_symbol()
comm = (moyal_exact(a, abar, hbar) - moyal_exact(abar, a, hbar)) * (1 / hbar)
print("(1/hbar) [a, abar]_* =", comm.to_string())

k = parse_symbol("(q+i*p)^2")
g = parse_symbol("q*p - 1")
h = parse_symbol("q^2 + p^2")
left = moyal_exact(moyal_exact(k, g, hbar), h, hbar)
right = moyal_exact(k, moyal_exact(g, h, hbar), hbar)
print("associativity defect (exact Moyal):",
      (left - right).max_abs_coeff())

# --- deformed product on a grid -------------------------------------------
grid = PhaseGrid(-6, 6, -6, 6, 257, 257, hbar=hbar, offset=0.5)
qf = field_from_poly(q, grid)
pf = field_from_poly(p, grid)

prod_plain = fstar_apply(qf, pf, identity_spec())
print("\nidentity deformation: q *_f p - (qp + i hbar/2) has max",
      np.abs(prod_plain.values - (mesh(grid)[0] * mesh(grid)[1] + 0.5j * hbar)).max())

prod_deformed = fstar_apply(qf, pf, sqrt_n_spec())
Q, P = mesh(grid)
idx = np.unravel_index(np.argmin((Q - 1.4) ** 2 + P**2), Q.shape)
print(f"sqrt_n deformation: (q *_f p) at (q,p)=({Q[idx]:.3f},{P[idx]:.3f}) =",
      prod_deformed.values[idx])

# the deformed commutator of the ladder fields is reported in demo 05;
# here, antisymmetry: [k, k] = 0
self_comm = star_commutator(qf, qf, sqrt_n_spec())
print("[q, q]_f max:", np.abs(self_comm.values).max())
