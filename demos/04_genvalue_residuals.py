"""Star-genvalue residuals: where the eigenvalue equation holds, and how
far it drifts under deformation.

For the identity deformation the harmonic symbol (q^2+p^2)/2 satisfies
H * W_n = (n + 1/2) W_n exactly (Moyal product, analytic derivatives); the
residual is pure roundoff.  For deformed cases the first-order equation
leaves a real, radial residual that the report quantifies.  The imaginary
part is the bracket term (i hbar / 2) F(n) {H, W_n}, and it is roundoff: H and
W_n are both radial, so their Poisson bracket vanishes and the deformation
never enters the residual through it.
"""

from fstarq import (build_hamiltonian, default_grid, fock_wigner, fstar_apply,
                    genvalue_residual, identity_spec, report_to_json, sqrt_n_spec)

grid = default_grid()

print("identity deformation (exact anchor):")
for n in (0, 3, 10):
    rep = genvalue_residual(identity_spec(), n, grid)
    print(f"  n={n:2d}: max|R| = {rep.max_abs:.3e}, max|Im| = {rep.imag_max:.3e}, "
          f"E_n = {rep.extra['energy']:.1f}")

print("\nsqrt_n deformation (residual reported, not asserted):")
for n in (0, 1, 2):
    rep = genvalue_residual(sqrt_n_spec(), n, grid)
    print(f"  n={n}: max|R| = {rep.max_abs:.6f} at "
          f"(q,p)=({rep.witness.q:+.4f},{rep.witness.p:+.4f}), "
          f"max|Im| = {rep.imag_max:.3e}")
    print(f"        E_n = {rep.extra['energy']:.1f}, "
          f"phase-space average of H*W = {rep.extra['phase_space_average_re']:.4f}")

# Im(H *_f W_2) is the bracket term: roundoff, because H and W_2 are both radial
star = fstar_apply(build_hamiltonian(sqrt_n_spec(), grid), fock_wigner(2, grid), sqrt_n_spec())
print(f"\nmax |Im(H *_f W_2)| = {abs(star.values.imag).max():.3e} "
      "(roundoff: H and W_2 are both radial)")

rep = genvalue_residual(sqrt_n_spec(), 1, grid)
print("\nfull JSON report for sqrt_n, n=1:")
print(report_to_json(rep))
