"""The benchmark's workloads: what one pass runs and how its outputs are
checked.

A pass drives the program as a user does: it calls
``clusterbounds.cli.main`` in process with the arguments a user would
type and writes every output under the run's temporary directory.  The
verify workload also calls the library functions a user calls before
trusting a census.  Census inputs are toric codes, fixed by their
lattice size; only the verify workload draws inputs from the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected")

# Stored copies of outputs that no closed form gives: file -> CLI arguments.
# The two-worker census is compared against a copy made with one worker.
STORED = {
    "census-ft.csv": ["census", "toric", "--L", "3", "--sector", "ft-x", "--rounds", "4", "--m-max", "8"],
    "census-full.csv": ["census", "toric", "--L", "4", "--sector", "full", "--m-max", "8", "--workers", "1"],
    "verify-toric3-full.csv": ["census", "toric", "--L", "3", "--sector", "full", "--m-max", "6", "--oracle"],
    "verify-toric4-x.csv": ["census", "toric", "--L", "4", "--sector", "x", "--m-max", "8"],
    "verify-toric6-x.csv": ["census", "toric", "--L", "6", "--sector", "x", "--m-max", "8"],
}

# (rows, columns, row weight) of the two classical matrices of each
# hypergraph-product code in the verify workload; the seed places the ones.
HGP_SHAPES = (((2, 4, 2), (2, 3, 2)), ((1, 3, 3), (2, 3, 2)))
RATE_GRID = tuple(round(0.05 * i, 2) for i in range(1, 10))
BADPROB_M_MAX = 8
ORACLE_M_MAX = 5


def stored(name: str) -> str:
    with open(os.path.join(EXPECTED, name)) as fh:
        return fh.read()


class Session:
    """Runs a pass's operations, counting attempted and failed ones and
    keeping each successful operation's output under its label."""

    def __init__(self, tmp: str) -> None:
        self.tmp = tmp
        self.attempted = 0
        self.failed = 0
        self.outputs: dict[str, object] = {}
        self.failed_labels: set[str] = set()

    def path(self, name: str) -> str:
        return os.path.join(self.tmp, name)

    def cli(self, label: str, argv: list[str], output: str | None = None) -> None:
        """One CLI call; its output is the file it wrote, or its stdout."""
        from clusterbounds.cli import main

        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv + (["-o", self.path(output)] if output else []))
        except (Exception, SystemExit) as exc:
            # a crash, or an exit raised inside main (argparse on a bad
            # flag), is a failed operation, not a benchmark error
            rc = f"{type(exc).__name__}: {exc}"
        if rc != 0:
            self.failed += 1
            self.failed_labels.add(label)
            return
        if output:
            with open(self.path(output)) as fh:
                self.outputs[label] = fh.read()
        else:
            self.outputs[label] = out.getvalue()

    def call(self, label: str, fn, *args) -> None:
        self.attempted += 1
        try:
            self.outputs[label] = fn(*args)
        except Exception:  # a crash is a failed operation, not a benchmark error
            self.failed += 1
            self.failed_labels.add(label)

    def output(self, label: str):
        """A successful operation's output; None when it failed, so its
        checks are skipped."""
        if label in self.failed_labels:
            return None
        return self.outputs[label]


class Workload:
    name = ""  # the workload's name in BENCHMARK.json, which says why it is there
    workers = 1  # worker processes of the workload's census

    def prepare(self, tmp: str, seed: int) -> dict:
        """Write the seeded inputs; returns what the pass needs."""
        return {}

    def probe_specs(self, inputs: dict) -> list[str]:
        """Codes a set-up probe builds, as probe.py reads them."""
        raise NotImplementedError

    def run_pass(self, session: Session, inputs: dict, workers: int | None = None) -> None:
        raise NotImplementedError

    def check(self, session: Session, inputs: dict) -> None:
        """Deep correctness checks of one pass's outputs."""
        raise NotImplementedError


def _census_rows(text):
    return checks.parse_census_csv(text)[1]


class CensusFt(Workload):
    name = "census-ft"
    argv = STORED["census-ft.csv"]

    def probe_specs(self, inputs):
        return ["ft:3:4:x"]

    def run_pass(self, session, inputs, workers=None):
        session.cli("census", self.argv, "census.csv")

    def check(self, session, inputs):
        import clusterbounds as cb

        text = session.output("census")
        if text is not None:
            checks.check_same_text(text, stored("census-ft.csv"), "census-ft CSV")
            rows = _census_rows(text)
            checks.check_census(rows, 8, "ft", n=18, w=4, r=9)
            # below weight min(L, rounds) = 3 nothing is logical; at weight 3
            # the 2L straight loops sit in any one of the 4 rounds
            for m in (1, 2):
                checks.check_nonstab_at(rows, m, 0, "below the space-time distance")
            checks.check_nonstab_at(rows, 3, 2 * 3 * 4, "2L loops in each of 4 rounds")
        ft = cb.ft_extend(cb.toric_code(3), 4, errors="x")
        checks.check_space_time(ft.P.rows, ft.Q.rows, ft.N, n=18, r=9, rounds=4)


class CensusFull2w(Workload):
    name = "census-full-2w"
    argv = ["census", "toric", "--L", "4", "--sector", "full", "--m-max", "8"]
    workers = 2

    def probe_specs(self, inputs):
        return ["toric:4"]

    def run_pass(self, session, inputs, workers=None):
        session.cli("census", self.argv + ["--workers", str(workers or self.workers)], "census.csv")

    def check(self, session, inputs):
        text = session.output("census")
        if text is None:
            return
        checks.check_same_text(text, stored("census-full.csv"), "two-worker CSV against one-worker copy")
        rows = _census_rows(text)
        checks.check_census(rows, 8, "full", n=32, w=4)
        checks.check_nonstab_at(rows, 4, 4 * 4, "4L X and Z logical loops")


def random_matrix(rng: random.Random, rows: int, cols: int, weight: int) -> list[int]:
    """Rows of a random binary matrix with fixed row weight and no empty
    column, as bit masks."""
    while True:
        out = [sum(1 << j for j in rng.sample(range(cols), weight)) for _ in range(rows)]
        if all(any((r >> j) & 1 for r in out) for j in range(cols)):
            return out


def _weights(rows: list[int], cols: int) -> tuple[int, int]:
    """(max row weight, max column weight)."""
    col_w = max(sum((r >> c) & 1 for r in rows) for c in range(cols))
    return max(r.bit_count() for r in rows), col_w


def _entry_columns(code, cluster, sector: str) -> list[int]:
    """Per-entry syndromes of a cluster, from the generator rows."""
    if sector == "x":
        checks_rows = code.G_Z.rows
        return [sum(((row >> j) & 1) << i for i, row in enumerate(checks_rows)) for j in cluster.positions]
    x_rows, z_rows = code.G_X.rows, code.G_Z.rows
    columns = []
    for j, label in zip(cluster.positions, cluster.paulis):
        # X-type generators detect the Z part of an entry, Z-type ones the X part
        z_hits = [(row >> j) & 1 if label in "ZY" else 0 for row in x_rows]
        x_hits = [(row >> j) & 1 if label in "XY" else 0 for row in z_rows]
        columns.append(sum(bit << i for i, bit in enumerate(z_hits + x_hits)))
    return columns


def _kept_census(L: int, sector: str, m_max: int):
    """A kept census of a toric code, then both irreducibility tests and
    the decomposition of every cluster in it."""
    from clusterbounds import decompose, enumerate_clusters, is_irreducible, is_irreducible_bruteforce, toric_code

    code = toric_code(L)
    census = enumerate_clusters(code, m_max, sector=sector, keep_clusters=True)
    per_cluster = [
        (cl, is_irreducible(code, cl, sector), is_irreducible_bruteforce(code, cl, sector), decompose(code, cl, sector))
        for group in census.clusters
        for cl in group
    ]
    return census, per_cluster


def _distance(L: int, max_weight: int):
    from clusterbounds import css_distance_bruteforce, toric_code

    return css_distance_bruteforce(toric_code(L), max_weight)


THRESHOLD_SOLVES = (("css", "y"), ("stabilizer", "y"), ("css", "pZ"), ("ft-css", "q"), ("ft-stabilizer", "q"))


class Verify(Workload):
    name = "verify"

    def prepare(self, tmp, seed):
        from clusterbounds.gf2 import BitMatrix
        from clusterbounds.matio import write_alist

        rng = random.Random(seed)
        hgp = []
        for i, shapes in enumerate(HGP_SHAPES):
            mats = []
            for k, (rows, cols, weight) in enumerate(shapes):
                m = random_matrix(rng, rows, cols, weight)
                path = os.path.join(tmp, f"hgp{i}_h{k + 1}.alist")
                with open(path, "w") as fh:
                    fh.write(write_alist(BitMatrix.from_rows(m, cols)))
                mats.append((path, m, cols))
            hgp.append(mats)
        y, p, q = (rng.choice(RATE_GRID) for _ in range(3))
        return {"hgp": hgp, "y": y, "p": p, "q": q}

    def probe_specs(self, inputs):
        specs = ["toric:3", "toric:4", "toric:5", "toric:6"]
        specs += [f"hgp:{a[0]}:{b[0]}" for a, b in inputs["hgp"]]
        return specs

    def run_pass(self, session, inputs, workers=None):
        s = session
        s.cli("toric3-full-oracle", STORED["verify-toric3-full.csv"], "toric3-full.csv")
        for i, (a, b) in enumerate(inputs["hgp"]):
            s.cli(f"hgp{i}-oracle", ["census", "hgp", "--h1", a[0], "--h2", b[0], "--sector", "full",
                                     "--m-max", "5", "--oracle"], f"hgp{i}.csv")
        s.cli("toric6-x", STORED["verify-toric6-x.csv"], "toric6-x.csv")
        s.cli("toric4-x", STORED["verify-toric4-x.csv"], "toric4-x.csv")
        s.cli("fit", ["fit", s.path("toric4-x.csv"), "--field", "irreducible", "--m-min", "4", "--m-max", "8"],
              "fit.json")
        s.call("clusters-toric4-x", _kept_census, 4, "x", 8)
        s.call("clusters-toric3-full", _kept_census, 3, "full", 6)
        s.call("distance-toric5", _distance, 5, 5)
        y, p, q = (str(inputs[k]) for k in "ypq")
        m_max = str(BADPROB_M_MAX)
        s.cli("badprob-css", ["badprob", "--kind", "css", "--m-max", m_max, "--y", y, "--p", p], "bad-css.csv")
        s.cli("badprob-depol", ["badprob", "--kind", "depol", "--m-max", m_max, "--y", y, "--p", p], "bad-depol.csv")
        s.cli("badprob-ft", ["badprob", "--kind", "ft", "--m-max", m_max, "--p", p, "--q", q], "bad-ft.csv")
        for model, free in THRESHOLD_SOLVES:
            s.cli(f"solve-{model}-{free}", ["threshold", "--model", model, "--w", "4", "--solve", free],
                  f"solve-{model}-{free}.json")
        s.cli("curve-css", ["threshold", "--model", "css", "--w", "4", "--curve", "y:pZ"], "curve.csv")

    def check(self, session, inputs):
        import clusterbounds as cb

        out = session.output
        text = out("toric3-full-oracle")
        if text is not None:
            checks.check_same_text(text, stored("verify-toric3-full.csv"), "toric L=3 full oracle CSV")
            config, rows = checks.parse_census_csv(text)
            checks.check_oracle_columns(config, rows)
            checks.check_census(rows, 6, "full", n=18, w=4)
            for m in (1, 2):
                checks.check_nonstab_at(rows, m, 0, "below the distance")
            checks.check_nonstab_at(rows, 3, 4 * 3, "4L X and Z logical loops")
        for i, (a, b) in enumerate(inputs["hgp"]):
            text = out(f"hgp{i}-oracle")
            if text is None:
                continue
            config, rows = checks.parse_census_csv(text)
            checks.check_oracle_columns(config, rows)
            (_, h1, n1), (_, h2, n2) = a, b
            w1, c1 = _weights(h1, n1)
            w2, c2 = _weights(h2, n2)
            n = n1 * n2 + len(h1) * len(h2)
            checks.check_census(rows, 5, "full", n=n, w=max(w1 + c2, w2 + c1))
        text = out("toric6-x")
        if text is not None:
            checks.check_same_text(text, stored("verify-toric6-x.csv"), "toric L=6 x CSV")
            rows = _census_rows(text)
            checks.check_census(rows, 8, "x", n=72, w=4)
            checks.check_toric_x(rows, L=6, m_max=8)
        text = out("toric4-x")
        if text is not None:
            checks.check_same_text(text, stored("verify-toric4-x.csv"), "toric L=4 x CSV")
            checks.check_census(_census_rows(text), 8, "x", n=32, w=4)
        fit = out("fit")
        if fit is not None:
            checks.check_growth_base(json.loads(fit)["result"]["growth_base"])
        for label, L, sector, copy, m_max in (("clusters-toric4-x", 4, "x", "verify-toric4-x.csv", 8),
                                               ("clusters-toric3-full", 3, "full", "verify-toric3-full.csv", 6)):
            result = out(label)
            if result is not None:
                self._check_clusters(cb.toric_code(L), sector, result, _census_rows(stored(copy)), m_max)
        distance = out("distance-toric5")
        if distance is not None:
            checks.require(distance == 5, f"toric L=5 distance {distance}, expected 5")
        rates = {"css": (inputs["y"], inputs["p"]), "depol": (inputs["y"], inputs["p"]),
                 "ft": (inputs["p"], inputs["q"])}
        for kind, kind_rates in rates.items():
            text = out(f"badprob-{kind}")
            if text is not None:
                header, *body = _csv(text)
                rows = [dict(zip(header, map(float, r))) for r in body]
                checks.check_badprob(kind, rows, kind_rates, ORACLE_M_MAX)
        for model, free in THRESHOLD_SOLVES:
            text = out(f"solve-{model}-{free}")
            if text is not None:
                checks.check_threshold(model, free, json.loads(text)["result"][free])
        text = out("curve-css")
        if text is not None:
            _, *body = _csv(text)
            checks.check_css_curve([(float(a), float(b)) for a, b in body])

    @staticmethod
    def _check_clusters(code, sector, result, stored_rows, m_max):
        census, per_cluster = result
        for field in checks.FIELDS:
            checks.require(list(getattr(census, field)) == checks.count_vector(stored_rows, field, m_max),
                           f"kept {sector} census: {field} differs from the stored copy")
        irreducible = [0] * (m_max + 1)

        def undetectable(cl):
            acc = 0
            for c in _entry_columns(code, cl, sector):
                acc ^= c
            return acc == 0

        def irreducible_test(cl):
            return checks.subset_irreducible(_entry_columns(code, cl, sector))

        for cl, irr, irr_bf, pieces in per_cluster:
            checks.require(irr == irr_bf, f"is_irreducible and is_irreducible_bruteforce differ on {cl}")
            checks.require(irr == irreducible_test(cl), f"is_irreducible is wrong on {cl}")
            irreducible[cl.weight] += irr
            checks.check_decomposition(cl, pieces, undetectable, irreducible_test)
        checks.require(irreducible == list(census.irreducible), f"kept {sector} census: irreducible counts differ")


def _csv(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines() if line and not line.startswith("#")]


WORKLOADS = {w.name: w for w in (CensusFt(), CensusFull2w(), Verify())}
