"""The combined code for repeated noisy syndrome measurement.

Over m measurement rounds, qubit errors accumulate while syndrome-bit
errors do not; differencing consecutive rounds turns both into a single
binary code whose check matrix P couples each round's checks to the
adjacent rounds' syndrome bits.  Rows of P gain at most 2 over the
original check weight, and the degeneracy matrix Q spans everything a
decoder may safely ignore.
"""

from clusterbounds import (
    brute_force_census,
    census_bound,
    cluster_count_bound_ft,
    enumerate_clusters,
    ft_extend,
    toric_code,
)

code = toric_code(2)
for m in (1, 2, 3):
    ft = ft_extend(code, m, errors="x")
    ortho = (ft.P @ ft.Q.transpose()).is_zero()
    print(
        f"rounds={m}: N={ft.N} K={ft.K} D_ft={ft.D_ft}"
        f"  max row weight {ft.w} (base {code.w_Z} + 2)"
        f"  P Q^T = 0: {ortho}"
    )
print()

ft = ft_extend(code, 2, errors="x")
print("check matrix P for two rounds:")
print(ft.P)
print()

census = enumerate_clusters(ft, 4, sector="ft")
oracle = brute_force_census(ft, 4, sector="ft")
print("space-time cluster census (weights 1..4):")
print("  distinct               :", census.distinct[1:])
print("  irreducible            :", census.irreducible[1:])
print("  outside degeneracy group:", census.irreducible_nonstabilizer[1:])
print("  matches exhaustive scan:", census.same_counts(oracle))
print()

# cluster_count_bound_ft splits the space-time ceiling by m_q, the number
# of qubit steps among a path's m - 1 continuations; the parts add up to
# the census's bound column
print("recursion paths against the ceiling, split by m_q = 0..m:")
for m in census.weights():
    split = [cluster_count_bound_ft(ft.n, ft.r, code.w_Z, m, m_q) for m_q in range(m + 1)]
    print(
        f"  m={m}: paths {census.paths[m]:>3} <= {census_bound(ft, 'ft', m):>4}"
        f" = {' + '.join(map(str, split))}"
    )
