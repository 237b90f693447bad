"""Steadiness check: two sets of runs of every workload on one commit.

    python3 perfbench/steady.py [--runs 10]
    python3 perfbench/steady.py --report perfbench/runs/steady-....json

Each set runs every workload in BENCHMARK.json --runs times at its
run_seconds, cycling through the workloads so that machine drift spreads
over all of them.  Run k of a set has seed k in set A and seed runs + k
in set B.  For every end-to-end metric the report gives each set's
median, quartiles and spread (quartile distance over median), and whether
the sets agree within the bounds in BENCHMARK.json: each spread within
its bound, the two medians within the bound of each other in either
direction, and the same share of failed operations.  It also
reports the reference loop each run times, and the spread of wall time
relative to that loop, which shows how much of the spread is machine
drift.  Raw results are saved under perfbench/runs/ as they arrive.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 180


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    reference = [float(ln.split()[1]) for ln in lines if ln.startswith("reference_loop_s ")]
    return {
        "workload": workload,
        "seed": seed,
        "elapsed_s": time.monotonic() - start,
        "reference_loop_s": reference[0],
        **result,
    }


def quartiles(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, spread), spread being (q3 - q1) / median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def report(data: dict) -> bool:
    spec = data["spec"]
    runs = data["runs"]
    agree = True
    print("| workload | metric | set | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|---|")
    verdicts = []
    for w in spec["workloads"]:
        name = w["name"]
        sets = [[r for r in runs if r["workload"] == name and r["set"] == k] for k in (0, 1)]
        if not all(len(s) >= 2 for s in sets):
            continue
        for metric in spec["end_to_end"]:
            m, bound = metric["name"], metric["bound"]
            stats = []
            for k, s in enumerate(sets):
                stats.append(quartiles([r["metrics"][m]["value"] for r in s]))
                med, q1, q3, spread = stats[-1]
                print(f"| {name} | {m} | {'AB'[k]} | {med:.4g} | {q1:.4g} | {q3:.4g} | {spread:.3f} | {bound} |")
            change = stats[1][0] / stats[0][0] - 1
            ok = all(st[3] <= bound for st in stats) and abs(change) <= bound
            agree &= ok
            verdicts.append(f"{name} {m}: spreads {stats[0][3]:.3f}/{stats[1][3]:.3f}, B vs A {change:+.3f},"
                            f" bound {bound} -> {'ok' if ok else 'NOT OK'}"
                            + (" (spread above a third of the bound)" if max(stats[0][3], stats[1][3]) > bound / 3 else ""))
        shares = [{Fraction(r["failed"], r["attempted"]) for r in s} for s in sets]
        same_share = len(shares[0] | shares[1]) == 1
        agree &= same_share
        verdicts.append(f"{name} failed share: {', '.join(map(str, sorted(shares[0] | shares[1])))}"
                        f" -> {'ok' if same_share else 'NOT OK'}")
        for k, s in enumerate(sets):
            ref = quartiles([r["reference_loop_s"] for r in s])
            rel = quartiles([r["metrics"]["wall_s"]["value"] / r["reference_loop_s"] for r in s])
            verdicts.append(f"{name} set {'AB'[k]}: reference loop median {ref[0]:.4g} s spread {ref[3]:.3f};"
                            f" wall_s / reference spread {rel[3]:.3f}; all correct: {all(r['correct'] for r in s)}")
            agree &= all(r["correct"] for r in s)
    print()
    for line in verdicts:
        print(line)
    print(f"\nsets agree within bounds: {'yes' if agree else 'NO'}")
    return agree


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload in each set")
    parser.add_argument("--report", help="print the report of a saved result file and exit")
    args = parser.parse_args(argv)
    if args.report:
        with open(args.report) as fh:
            return 0 if report(json.load(fh)) else 1
    names = [w["name"] for w in spec["workloads"]]
    os.makedirs(os.path.join(HERE, "runs"), exist_ok=True)
    out = os.path.join(HERE, "runs", time.strftime("steady-%Y%m%d-%H%M%S.json"))
    data = {"spec": spec, "runs": []}
    seed = 1
    for k in (0, 1):
        for _ in range(args.runs):
            for name in names:
                run = one_run(name, seed, spec["run_seconds"])
                run["set"] = k
                data["runs"].append(run)
                with open(out, "w") as fh:
                    json.dump(data, fh, indent=1)
                print(f"set {'AB'[k]} {name} seed {seed}: wall_s {run['metrics']['wall_s']['value']:.4f}"
                      f" setup_s {run['metrics']['setup_s']['value']:.4f}"
                      f" ref {run['reference_loop_s']:.4f} ({run['elapsed_s']:.1f} s)", flush=True)
            seed += 1
    print(f"results in {out}")
    return 0 if report(data) else 1


if __name__ == "__main__":
    sys.exit(main())
