"""Counting undetectable clusters and checking the counting ceiling.

The recursive search records every undetectable configuration it can
assemble by repeatedly repairing the first violated check.  The census
splits the distinct clusters into irreducible ones (no disjoint split)
and the subset of those outside the stabilizer group; the latter are
the operators that can actually fool a minimum-energy decoder.
"""

from clusterbounds import (
    brute_force_census,
    census_bound,
    decompose,
    enumerate_clusters,
    is_irreducible,
    toric_code,
)

code = toric_code(3)
census = enumerate_clusters(code, 6, sector="x", keep_clusters=True)
oracle = brute_force_census(code, 6, sector="x")

print("toric L=3, X-type clusters up to weight 6")
widths = (9, 12, 14, 6)  # distinct, irreducible, nonstabilizer, paths
print(f"{'m':>2} {'distinct':>9} {'irreducible':>12} {'nonstabilizer':>14}"
      f" {'paths':>6} {'bound':>7}")
for m in census.weights():
    if census.distinct[m]:
        counts = [f"{vals[m]:>{w}}" for vals, w in zip(census.count_fields().values(), widths)]
        print(f"{m:>2}", *counts, f"{census_bound(code, 'x', m):>7}")
print("matches the exhaustive scan:", census.same_counts(oracle))
print()

# the smallest nonstabilizer clusters are the six straight winding loops
loops = [c for c in census.clusters[3]]
print("weight-3 clusters:", [c.positions for c in loops])

# a reducible cluster splits into irreducible pieces on disjoint supports
for cluster in census.clusters[6]:
    if not is_irreducible(code, cluster, sector="x"):
        parts = decompose(code, cluster, sector="x")
        print("reducible weight-6 cluster", cluster.positions)
        print("  splits into", [p.positions for p in parts])
        break
