"""Evaluating and solving the decodability conditions.

Each condition compares a weight-dependent multiple of an effective
erasure rate against exp(-1/D), where D is the distance growth constant
(infinite D means super-logarithmic distance scaling and a right-hand
side of exactly 1).
"""

import math

from clusterbounds import (
    ChannelParams,
    CodeParams,
    condition_holds,
    condition_lhs,
    effective_erasure,
    effective_erasure_css,
    erasure_tail_bound,
    solve_threshold,
    threshold_curve,
)

print("effective erasure rates")
for y, p in ((0.1, 0.0), (0.0, 0.01), (0.1, 0.01)):
    print(f"  y={y} p={p}:  generic {effective_erasure(y, p):.6f}"
          f"   one CSS sector {effective_erasure_css(y, p):.6f}")
print()

code = CodeParams(w=4, D=math.inf)
print("weight-4 CSS family, unbounded distance growth")
print("  erasure threshold  :", f"{solve_threshold(code, 'y', model='css'):.9f}")
print("  X/Z flip threshold :", f"{solve_threshold(code, 'pZ', model='css'):.9f}")
print("  generic stabilizer erasure bound:",
      f"{solve_threshold(code, 'y', model='stabilizer'):.9f}")
print("  syndrome-noise-only threshold   :",
      f"{solve_threshold(code, 'q', model='ft-css'):.9f}")
print()

finite = CodeParams(w=4, D=2.0)
ch = ChannelParams(y=0.25)
print(f"with D=2 the condition at y=0.25 gives lhs="
      f"{condition_lhs(finite, ch, 'css'):.4f} vs rhs={finite.rhs():.4f}"
      f" -> holds: {condition_holds(finite, ch, 'css')}")
print()

# trade-off curve: erasures vs flips for the fault-tolerant CSS model
print("erasure vs flip trade-off (ft-css, w=4, q=0.001)")
for y, p in threshold_curve(CodeParams(w=4), "y", "p", ChannelParams(q=0.001), "ft-css", 6):
    print(f"  y={y:.4f}  p_max={p:.6f}")
print()

# the closed-form failure series for erasures only
print("erasure failure ceiling, n=100, w=4, d=8:")
for y in (0.05, 0.10, 0.15):
    print(f"  y={y}: {erasure_tail_bound(100, 4, 8, y):.3e}")
