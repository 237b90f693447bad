"""Spans around the calls into each clusterbounds module.

The tracer replaces each public function named in LAYERS with a wrapper
in every clusterbounds namespace that holds it (``cli`` and the package
``__init__`` import them by name), and each listed ``BitMatrix`` method
on the class.  A wrapper records one span (name, start, end, parent,
pass) per call and, for some functions, counts read from the arguments
and the result.  Spans stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from collections import defaultdict
from math import comb

# span name -> layer; a layer's time is the self time of its spans
LAYERS = {
    "codes.toric_code": "codes.build",
    "codes.hypergraph_product": "codes.build",
    "codes.new_css": "codes.build",
    "codes.ft_extend": "codes.build",
    "codes.css_distance_bruteforce": "codes.distance",
    "gf2.BitMatrix.rank": "gf2.linalg",
    "gf2.BitMatrix.kernel_basis": "gf2.linalg",
    "gf2.BitMatrix.row_space_contains": "gf2.linalg",
    "gf2.BitMatrix.kron": "gf2.linalg",
    "gf2.BitMatrix.transpose": "gf2.linalg",
    "gf2.BitMatrix.__matmul__": "gf2.linalg",
    "clusters.enumerate_clusters": "clusters.enumerate",
    "clusters.census_bound": "clusters.census_bound",
    "clusters.brute_force_census": "clusters.brute_force",
    "clusters.is_irreducible": "clusters.irreducible_check",
    "clusters.is_irreducible_bruteforce": "clusters.irreducible_check",
    "clusters.decompose": "clusters.decompose",
    "bounds.exact_bad_probability_css": "bounds.exact_sum",
    "bounds.exact_bad_probability_depol": "bounds.exact_sum",
    "bounds.exact_bad_probability_ft": "bounds.exact_sum",
    "bounds.solve_threshold": "bounds.solve",
    "fitting.fit_log_growth": "fitting.fit",
    "matio.read_matrix": "matio.read",
    "matio.read_census_csv": "matio.read",
    "matio.write_csv": "matio.write",
    "matio.write_alist": "matio.write",
    "matio.dump_json": "matio.write",
    "cli.main": "cli",
}


def children_cpu() -> float:
    """CPU seconds of the child processes reaped so far."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _configs(code, m_max: int, sector: str) -> int:
    """Configurations a brute-force census scans: every support of up to
    m_max columns, times three Pauli labels per entry in the full sector."""
    if sector.startswith("ft"):
        n, labels = code.N, 1
    else:
        n, labels = code.n, 3 if sector.startswith("full") else 1
    return sum(comb(n, m) * labels**m for m in range(1, m_max + 1))


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.pass_id = 0
        self.counts: dict[str, float] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []
        # span name -> hook reading counts from (args, kwargs, result, child CPU)
        self._counters = {
            "clusters.enumerate_clusters": self._count_census,
            "clusters.brute_force_census": self._count_brute_force,
            "matio.write_csv": self._count_write_csv,
            "matio.write_alist": self._count_text,
            "matio.dump_json": self._count_text,
        }

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        counter = self._counters.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer.stack.append(index)
            cpu0 = children_cpu() if counter is not None else 0.0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.pass_id)
            if counter is not None:
                counter(args, kwargs, result, children_cpu() - cpu0)
            return result

        return wrapper

    def _count_census(self, args, kwargs, census, child_cpu) -> None:
        self.counts["clusters.paths"] += sum(census.paths)
        self.counts["clusters.distinct"] += sum(census.distinct)
        self.counts["clusters.irreducible"] += sum(census.irreducible)
        self.counts["clusters.worker_cpu_s"] += child_cpu

    def _count_brute_force(self, args, kwargs, census, child_cpu) -> None:
        sector = _arg(args, kwargs, 2, "sector", "full")
        self.counts["clusters.configs_scanned"] += _configs(args[0], args[1], sector)

    def _count_text(self, args, kwargs, text, child_cpu) -> None:
        self.counts["matio.bytes_written"] += len(text.encode())

    def _count_write_csv(self, args, kwargs, text, child_cpu) -> None:
        if args[0]:  # written to a file, not returned for stdout
            self._count_text(args, kwargs, text, child_cpu)

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function in every clusterbounds namespace."""
        modules = [m for k, m in sys.modules.items() if k == "clusterbounds" or k.startswith("clusterbounds.")]
        for name in LAYERS:
            module_name, _, attr = name.partition(".")
            module = sys.modules["clusterbounds." + module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- reporting ----------------------------------------------------------

    def pass_metrics(self, pass_id: int) -> dict[str, float]:
        """Per-layer self times, calls and counts of one traced pass."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == pass_id]
        child_time: dict[int, float] = defaultdict(float)
        for _, (name, start, end, parent, _) in spans:
            if parent >= 0:
                child_time[parent] += end - start
        layer_s: dict[str, float] = defaultdict(float)
        layer_calls: dict[str, int] = defaultdict(int)
        inclusive: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, _) in spans:
            layer = LAYERS[name]
            layer_s[layer] += (end - start) - child_time[i]
            layer_calls[layer] += 1
            inclusive[layer] += end - start
        return {
            "layer_s": dict(layer_s),
            "layer_calls": dict(layer_calls),
            "inclusive_s": dict(inclusive),
        }

    def take_counts(self) -> dict[str, float]:
        counts = dict(self.counts)
        self.counts.clear()
        return counts

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "pass"], "spans": self.spans},
                fh,
            )
