"""The second-order pointwise expansion of a lattice walk.

Compares exact probabilities with the two-term corrected Gaussian formula,
then recovers the 1/n and 1/n^2 correction coefficients empirically from
exact probabilities and checks them against the closed forms.  The same
fit arbitrates the sign of the quadratic correction between the two
printed displays.
"""

from brwllt import (
    constants_for,
    fit_correction_coefficients,
    gamma_residual,
    rw_expansion,
    validate,
)

law = validate(1, 0.0, [[1.0]])  # simple symmetric walk; bipartite
c = constants_for(law)  # carries the law's moments and walk class
print(f"constants: tau={c.tau_d}, lambda={c.lambda_d}, chi={c.chi_d}")

print("\nscaled residual gamma_n(0) = n^(d/2+2) (P_exact - prediction):")
for n in (64, 256, 1024):
    print(f"  n={n:5d}: prediction {rw_expansion(c, n, (0,)):.10e}, "
          f"gamma {gamma_residual(law, n, (0,)):.3e}")

fit = fit_correction_coefficients(law, (2,), (256, 1024, 4096))
print(f"\nempirical coefficients at z=2 (n up to 4096):")
print(f"  c1_hat = {fit.c1_hat:.8f}   closed form {fit.c1_exact:.8f}")
print(f"  c2_hat = {fit.c2_hat:.8f}")
print(f"  candidate with printed quadratic sign : {fit.c2_theorem:.8f}")
print(f"  candidate with the sign flipped       : {fit.c2_flipped:.8f}")
which = "printed" if abs(fit.c2_hat - fit.c2_theorem) <= abs(fit.c2_hat - fit.c2_flipped) else "flipped"
print(f"  exact probabilities favour the {which} sign")
