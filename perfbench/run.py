"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports clusterbounds from
``src/`` there and writes only under ``perfbench/runs/``.  A run makes
one warm-up pass, whose outputs go through the workload's correctness
checks, then repeats passes for S seconds; every later pass must
reproduce the warm-up outputs exactly.  Between passes it times a fixed
pure-Python reference loop and launches one set-up probe.

With --trace 0 the metrics are the end-to-end ones, each the median
over passes or probes.  With --trace 1 untraced and traced passes
alternate and the metrics are the per-layer ones, taken from the traced
passes; the spans are written to ``perfbench/runs/trace-NAME.json``.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from checks import CheckFailed
from spans import Tracer, children_cpu
from workloads import WORKLOADS, Session

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "runs")
PROBE = os.path.join(HERE, "probe.py")

MIN_PASSES = 5
MIN_TRACED_PASSES = 3
MIN_PROBES = 15
PROBE_TIMEOUT_S = 60


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of BENCHMARK.json's end_to_end or per_layer metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def reference_loop() -> float:
    """Time of a fixed pure-Python loop; shows machine drift next to the
    metrics and is not itself a metric."""
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc * 1103515245 + i) & 0x7FFFFFFF
    return time.perf_counter() - start


def probe(specs: list[str], importtime: bool = False) -> tuple[float, str]:
    """Launch a fresh interpreter that imports clusterbounds and builds
    the codes; returns the seconds from launch to built, and stderr."""
    argv = [sys.executable] + (["-X", "importtime"] if importtime else []) + [PROBE, ROOT] + specs
    launched = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - launched, proc.stderr


def import_split(stderr: str) -> tuple[float, float]:
    """(clusterbounds without numpy, numpy) import seconds from the
    interpreter's -X importtime report."""
    cumulative = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cum, name = (part.strip() for part in line[len("import time:"):].split("|"))
        cumulative.setdefault(name, int(cum) / 1e6)
    numpy_s = cumulative.get("numpy", 0.0)
    return cumulative["clusterbounds"] - numpy_s, numpy_s


class Runner:
    def __init__(self, workload, seed: int, tmp: str) -> None:
        self.workload = workload
        self.tmp = tmp
        self.inputs = workload.prepare(tmp, seed)
        self.specs = workload.probe_specs(self.inputs)
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.correct = True

    def one_pass(self, workers: int | None = None):
        """One pass over the workload's operations, as a fresh CLI process
        would run it: the program's problem cache starts empty."""
        clusters = sys.modules["clusterbounds.clusters"]
        build = getattr(clusters, "_build_problem", None)
        if hasattr(build, "cache_clear"):
            build.cache_clear()
        gc.collect()
        session = Session(self.tmp)
        cpu0, child0 = time.process_time(), children_cpu()
        start = time.perf_counter()
        self.workload.run_pass(session, self.inputs, workers)
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu0 + children_cpu() - child0
        self.attempted += session.attempted
        self.failed += session.failed
        if self.reference is None:
            self.reference = session
            self.deep_check(session)
        elif session.outputs != self.reference.outputs:
            self.fail("a pass's outputs differ from the warm-up pass")
        return wall, cpu

    def deep_check(self, session) -> None:
        try:
            self.workload.check(session, self.inputs)
        except CheckFailed as exc:
            self.fail(str(exc))

    def fail(self, message: str) -> None:
        print(f"check failed: {message}", file=sys.stderr)
        self.correct = False

    def result(self, metrics: dict[str, float], units: dict[str, str]) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }


def measure(runner: Runner, seconds: float) -> dict:
    runner.one_pass()
    # the only children so far are the warm-up pass's census workers, if
    # any; read their peak before the probes become children too
    worker_peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    probe(runner.specs)  # compiles bytecode; users have it cached
    walls, cpus, setups, refs = [], [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(walls) < MIN_PASSES:
        wall, cpu = runner.one_pass()
        walls.append(wall)
        cpus.append(cpu)
        refs.append(reference_loop())
        setups.append(probe(runner.specs)[0])
    while len(setups) < MIN_PROBES:
        setups.append(probe(runner.specs)[0])
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, worker_peak_kb)
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_kb / 1024,
    }
    print(f"passes {len(walls)} probes {len(setups)}")
    print(f"reference_loop_s {statistics.median(refs)!r}")
    return runner.result(metrics, metric_units("end_to_end"))


def measure_traced(runner: Runner, seconds: float, trace_path: str) -> dict:
    tracer = Tracer()
    parallel = runner.workload.workers > 1
    runner.one_pass()
    probe(runner.specs)
    plain, traced, one_worker, layers, imports = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(traced) < MIN_TRACED_PASSES:
        plain.append(runner.one_pass()[0])
        tracer.pass_id = len(traced)
        tracer.install()
        try:
            traced.append(runner.one_pass()[0])
        finally:
            tracer.uninstall()
        layers.append(layer_metrics(tracer.pass_metrics(tracer.pass_id), tracer.take_counts()))
        if parallel:
            one_worker.append(runner.one_pass(workers=1)[0])
        imports.append(import_split(probe(runner.specs, importtime=True)[1]))
    tracer.dump(trace_path)
    metrics = {k: statistics.median(p[k] for p in layers) for k in layers[0]}
    metrics["clusters.speedup_2w"] = (
        statistics.median(one_worker) / statistics.median(plain) if parallel else 0.0
    )
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics["import.clusterbounds_s"] = statistics.median(i[0] for i in imports)
    metrics["import.numpy_s"] = statistics.median(i[1] for i in imports)
    print(f"passes {len(plain)} untraced, {len(traced)} traced; spans in {trace_path}")
    return runner.result(metrics, metric_units("per_layer"))


def layer_metrics(pm: dict, counts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass; a layer that did not run
    reads 0."""
    s, calls, incl = pm["layer_s"], pm["layer_calls"], pm["inclusive_s"]

    def rate(count: str, layer: str) -> float:
        return counts.get(count, 0) / incl[layer] if incl.get(layer) else 0.0

    return {
        "codes.build_s": s.get("codes.build", 0.0),
        "codes.build_calls": calls.get("codes.build", 0),
        "codes.distance_s": s.get("codes.distance", 0.0),
        "gf2.linalg_s": s.get("gf2.linalg", 0.0),
        "gf2.linalg_calls": calls.get("gf2.linalg", 0),
        "clusters.enumerate_s": s.get("clusters.enumerate", 0.0),
        "clusters.paths_per_s": rate("clusters.paths", "clusters.enumerate"),
        "clusters.paths": counts.get("clusters.paths", 0),
        "clusters.distinct": counts.get("clusters.distinct", 0),
        "clusters.irreducible": counts.get("clusters.irreducible", 0),
        "clusters.worker_cpu_s": counts.get("clusters.worker_cpu_s", 0.0),
        "clusters.census_bound_s": s.get("clusters.census_bound", 0.0),
        "clusters.brute_force_s": s.get("clusters.brute_force", 0.0),
        "clusters.configs_scanned": counts.get("clusters.configs_scanned", 0),
        "clusters.configs_per_s": rate("clusters.configs_scanned", "clusters.brute_force"),
        "clusters.cluster_calls": calls.get("clusters.irreducible_check", 0) + calls.get("clusters.decompose", 0),
        "clusters.irreducible_check_s": s.get("clusters.irreducible_check", 0.0),
        "clusters.decompose_s": s.get("clusters.decompose", 0.0),
        "bounds.exact_sum_s": s.get("bounds.exact_sum", 0.0),
        "bounds.exact_sum_calls": calls.get("bounds.exact_sum", 0),
        "bounds.solve_s": s.get("bounds.solve", 0.0),
        "bounds.solve_calls": calls.get("bounds.solve", 0),
        "fitting.fit_s": s.get("fitting.fit", 0.0),
        "matio.read_s": s.get("matio.read", 0.0),
        "matio.write_s": s.get("matio.write", 0.0),
        "matio.bytes_written": counts.get("matio.bytes_written", 0),
        "cli.self_s": s.get("cli", 0.0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "clusterbounds", "__init__.py")):
        print(f"error: no clusterbounds package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # the program reads its default worker count from here; a user's
    # plain census runs one worker
    os.environ.pop("CLUSTERBOUNDS_WORKERS", None)
    import clusterbounds  # imported once, as every pass's CLI call finds it

    if not clusterbounds.__file__.startswith(SRC + os.sep):
        print(f"error: clusterbounds imported from {clusterbounds.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    os.makedirs(RUNS, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=workload.name + "-", dir=RUNS)
    try:
        runner = Runner(workload, args.seed, tmp)
        if args.trace:
            result = measure_traced(runner, args.seconds, os.path.join(RUNS, f"trace-{workload.name}.json"))
        else:
            result = measure(runner, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
