"""Associativity and the commutator correspondence under deformation.

The first-order deformed product is associative only up to O(hbar^2):
sweeping hbar over two decades and fitting log defect vs log hbar shows a
slope of ~3 for sqrt_n (the leading obstruction carries an extra power
here), comfortably above the second-order floor.  The deformed commutator
of the ladder fields tracks its closed-form first-order prediction to
roundoff, while its deviation from the operator-algebra target is a real,
structural effect that shrinks with the deformation strength.
"""

from fstarq import (associativity_defect, commutator_deviation, default_grid, expr_spec,
                    identity_spec, spec_to_text, sqrt_n_spec)
from fstarq.genvalue import ASSOC_HBARS, assoc_probe

grid = default_grid()
k, g, h = assoc_probe(grid)  # the probe of `fstarq assoc` and verify

print("associativity defect (k, g, h) = (q, p, q+p):")
for spec in (identity_spec(), sqrt_n_spec()):
    result = associativity_defect(k, g, h, spec, ASSOC_HBARS)
    print(f"\n  {spec_to_text(spec)}:")
    for hbar, defect in result.points:
        print(f"    hbar = {hbar:g}: L2 defect = {defect:.6e}")
    if result.slope is None:
        print("    exact-zero case (Moyal products of polynomials associate exactly)")
    else:
        print(f"    fitted log-log slope = {result.slope:.3f} (>= 1.9 expected)")

print("\ncommutator correspondence (1/hbar) [A, Abar]_f vs (n+1)f(n+1)^2 - n f(n)^2:")
for text in ("identity", "sqrt_n", "expr:1+0.01*n", "expr:1+0.005*n"):
    spec = {"identity": identity_spec(), "sqrt_n": sqrt_n_spec()}.get(text) \
        or expr_spec(text.split(":", 1)[1])
    rep = commutator_deviation(spec, grid)[1]
    print(f"  {text:16s} deviation max = {rep.max_abs:.6e}, "
          f"closed-form match = {rep.extra['closed_form_match']:.2e}")

print("\nthe deviation shrinks with the deformation parameter (close to "
      "proportionally; the grid corners sit at n ~ 64 where eps*n corrections "
      "are still visible), while the closed-form match stays at roundoff: the "
      "first-order product reproduces the deformed algebra as the deformation "
      "switches off.")
