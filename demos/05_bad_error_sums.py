"""Exact bad-error sums next to their closed-form ceilings.

For one undetectable cluster of weight m, an error is bad when flipping
it on the cluster support does not lower its probability.  The exact
sums integrate over that region; the closed forms bound them by an
effective erasure rate to the power m, which is what the threshold
conditions use.
"""

from clusterbounds import (
    bad_probability_bound_css,
    bad_probability_bound_depol,
    bad_probability_bound_ft,
    exact_bad_probability_css,
    exact_bad_probability_depol,
    exact_bad_probability_ft,
    ft_total_bad_bound,
)

y, p = 0.05, 0.02
print(f"one CSS sector, y={y}, p={p}")
print(f"{'m':>2} {'exact':>12} {'bound':>12} {'ratio':>7}")
for m in range(1, 9):
    exact = exact_bad_probability_css(m, y, p)
    bound = bad_probability_bound_css(m, y, p)
    print(f"{m:>2} {exact:>12.3e} {bound:>12.3e} {exact / bound:>7.3f}")
print()

print(f"depolarizing channel, y={y}, p={p}")
for m in (2, 4, 6):
    exact = exact_bad_probability_depol(m, y, p)
    bound = bad_probability_bound_depol(m, y, p)
    print(f"  m={m}: exact {exact:.3e} <= bound {bound:.3e}")
print()

p, q, w = 0.001, 0.002, 4
print(f"space-time clusters, p={p} qubit flips, q={q} syndrome flips")
m = 6
for m_q in range(0, m + 1, 2):
    exact = exact_bad_probability_ft(m, m_q, p, q)
    bound = bad_probability_bound_ft(m, m_q, p, q)
    print(f"  m={m} m_q={m_q}: exact {exact:.3e} <= bound {bound:.3e}")
# the geometric series over all cluster weights m >= d that the
# space-time threshold condition keeps finite; it falls as d grows
print(f"  total over m >= d, n * sum base^m, check weight w={w}:")
for L in (3, 7, 11, 15):
    n = 2 * L * L
    print(f"    toric L={L} (n={n}, d={L}): {ft_total_bad_bound(n, w, L, p, q):.3e}")
