"""Fitting the exponential growth of cluster counts.

Irreducible cluster counts grow roughly geometrically in the weight;
the fitted growth base should stay below the per-step branching of the
counting ceiling (here w - 1 = 3 for the toric lattice, whose
self-avoiding-walk growth constant is near 2.64).
"""

from clusterbounds import enumerate_clusters, fit_log_growth, toric_code

code = toric_code(6)
census = enumerate_clusters(code, 10, sector="x")

print("toric L=6, X-type census to weight 10")
print(f"{'m':>2} {'irreducible':>12} {'nonstabilizer':>14}")
for m in census.weights():
    if census.irreducible[m]:
        print(f"{m:>2} {census.irreducible[m]:>12}"
              f" {census.irreducible_nonstabilizer[m]:>14}")
print()

fit = fit_log_growth(census.counts("irreducible"), (4, 10))
print(f"ln(count) = {fit.intercept:.3f} + {fit.slope:.3f} * m"
      f"  over weights {fit.weights}")
print(f"growth base e^slope = {fit.growth_base:.3f}  (ceiling base w-1 = {code.w_Z - 1})")
print(f"residual sum of squares = {fit.rss:.3e}")
