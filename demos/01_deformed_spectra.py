"""Deformation functions and the spectra they generate.

A deformation f(n) reshapes the oscillator ladder: level energies become
E_n = (hbar w / 2) [(n+1) f(n+1)^2 + n f(n)^2].  This script walks through
the built-in deformations and prints f, the star amplitude F(n), the
commutator target, and the first few level energies for each.
"""

import numpy as np

from fstarq import (amplitude_F, commutator_target, eval_f, normalization_Nf,
                    registry_specs, spec_to_text, spectrum)

ns = np.arange(0.0, 6.0)

for spec in registry_specs():
    name = spec_to_text(spec)
    print(f"\n=== {name} ===")

    print("  f(n) on n = 1..5:   ",
          np.array2string(eval_f(spec, ns[1:]), precision=6))
    # F(n) multiplies the Poisson bracket inside the deformed star product;
    # it is singular at n = 0 whenever f(0) = 0 (e.g. sqrt_n), so probe n >= 1
    print("  F(n) on n = 1..5:   ",
          np.array2string(amplitude_F(spec, ns[1:]), precision=6))
    print("  target (n=0..5):    ",
          np.array2string(commutator_target(spec, ns), precision=6))

    E = spectrum(spec, 5).tolist()  # E[n] = E_n
    print("  E_n (hbar = w = 1): ", [round(e, 6) for e in E])

    # the identity deformation reproduces the harmonic ladder exactly
    if spec.kind == "identity":
        assert E == [n + 0.5 for n in range(6)]

    # normalization constant of the coherent superposition at |zeta|^2 = 1
    print("  N_f(|zeta|^2 = 1):  ", round(normalization_Nf(spec, 1.0), 8))

print("\nThe sqrt_n spectrum grows quadratically, ((n+1)^2 + n^2)/2, while "
      "qdef with q near 1 stays close to the harmonic ladder.")
