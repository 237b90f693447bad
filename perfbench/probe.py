"""Set-up probe: one fresh interpreter imports clusterbounds and builds a
workload's codes, then prints CLOCK_MONOTONIC, which the launching
process shares, so the launcher can time set-up from launch to here.

    python3 probe.py ROOT SPEC...

A SPEC is toric:L, ft:L:ROUNDS:SECTOR or hgp:H1_ALIST:H2_ALIST.  The
probe imports nothing else, so its time is what every CLI call pays
before it starts work.
"""

import sys
import time

sys.path.insert(0, sys.argv[1] + "/src")

import clusterbounds as cb  # noqa: E402
from clusterbounds.matio import read_matrix  # noqa: E402

for spec in sys.argv[2:]:
    kind, *args = spec.split(":")
    if kind == "toric":
        cb.toric_code(int(args[0]))
    elif kind == "ft":
        cb.ft_extend(cb.toric_code(int(args[0])), int(args[1]), errors=args[2])
    elif kind == "hgp":
        cb.hypergraph_product(read_matrix(args[0]), read_matrix(args[1]))
    else:
        raise SystemExit(f"unknown code spec {spec!r}")
print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
