import errno
import itertools
import os
import random
import subprocess
import sys
import time
from collections import Counter
from functools import partial, reduce
from operator import or_, xor
from unittest.mock import patch

import pytest
from conftest import make_random_matrix
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    cubic_polygons,
    kernel_split_literal,
    orderings_literal,
    problem_literal,
    subset_xors,
)

from clusterbounds import (
    Cluster,
    ClusterBoundsError,
    PauliOp,
    ResourceCapError,
    ValidationError,
    brute_force_census,
    census_bound,
    cluster_count_bound,
    cluster_count_bound_css,
    cluster_count_bound_ft,
    cluster_count_bound_ft_total,
    decompose,
    enumerate_clusters,
    ft_extend,
    ft_extend_matrices,
    hypergraph_product,
    is_irreducible,
    is_irreducible_bruteforce,
    new_css,
    new_stabilizer,
    toric_code,
)
import clusterbounds.clusters as clusters_module
from clusterbounds.cli import main
from clusterbounds.clusters import _build_problem, _frontier, _problem
from clusterbounds.codes import CssCode, FtCode
from clusterbounds.gf2 import BitMatrix, BitVector, echelon, residue, set_bits


def syndrome_of(key, syn):
    """The XOR of the syndrome words of a key's entries."""
    return reduce(xor, (syn[e] for e in set_bits(key)), 0)


def split_key(problem, key):
    """The entry bits of a search key, after checking the bits above
    them.  In a graph-like sector (one entry per position, none flipping
    more than two checks) they are the checks the key's entries touch:
    each entry's checks, and a phantom check one bit past the last for an
    entry that flips fewer than two.  In any other sector there are
    none."""
    n = len(problem.syn)
    entries = key & ((1 << n) - 1)
    touched = 0
    if problem.width == 1 and all(s.bit_count() <= 2 for s in problem.syn):
        phantom = 1 << len(problem.branches)
        for e in set_bits(entries):
            s = problem.syn[e]
            touched |= s if s.bit_count() == 2 else s | phantom
    assert key >> n == touched
    return entries


def seed_edges(problem):
    """Each entry's bits above the entries in its key bit, after checking
    that the entry bit is its own."""
    n = len(problem.syn)
    assert [bit & ((1 << n) - 1) for _, bit, _ in problem.seeds] == [1 << e for e in range(n)]
    return [bit >> n for _, bit, _ in problem.seeds]


def plaquette_supports(code):
    return [tuple(j for j in range(code.n) if (row >> j) & 1) for row in code.G_X.rows]


def disjoint_plaquette_pair(code):
    supports = plaquette_supports(code)
    for a, b in itertools.combinations(supports, 2):
        if not set(a) & set(b):
            return a, b
    raise AssertionError("no disjoint plaquettes found")


def vertex_sharing_plaquette_pair(code):
    """Two plaquettes with disjoint bonds that still touch a common
    site check: the union is a connected figure-eight cluster."""
    supports = plaquette_supports(code)
    sites = [set(j for j in range(code.n) if (row >> j) & 1) for row in code.G_Z.rows]
    for a, b in itertools.combinations(supports, 2):
        if set(a) & set(b):
            continue
        if any(site & set(a) and site & set(b) for site in sites):
            return a, b
    raise AssertionError("no vertex-sharing disjoint plaquettes found")


def x_cluster(positions):
    return Cluster(tuple(sorted(positions)))


def assert_sound_census(code, census, sector):
    if sector in ("x", "z"):
        checks, _ = code.sector(sector)
        for group in census.clusters:
            for cl in group:
                vec = BitVector.from_indices(code.n, cl.positions)
                assert not checks.mul_vec(vec)
    elif sector == "full":
        stab = code.stabilizer if hasattr(code, "stabilizer") else code
        for group in census.clusters:
            for cl in group:
                op = PauliOp.from_label("I" * stab.n)
                for j, ch in zip(cl.positions, cl.paulis):
                    op = op * PauliOp.single(stab.n, j, ch)
                assert not stab.syndrome(op)


class TestEnumerate:
    def test_toric3_x_small_weights(self, toric3):
        census = enumerate_clusters(toric3, 3, sector="x")
        assert census.irreducible_nonstabilizer == (0, 0, 0, 6)
        assert census.distinct == (0, 0, 0, 6)

    def test_toric4_weight_four(self, toric4):
        census = enumerate_clusters(toric4, 4, sector="x")
        assert census.irreducible[4] == 24
        assert census.irreducible_nonstabilizer[4] == 8

    # m_max 1 runs no search, 2 closes each seed by the syndrome lookup,
    # 3 closes each seed by the two-entry close and 4 runs one repair
    # level before it
    @pytest.mark.parametrize("m_max", range(1, 5))
    def test_toric2_x_matches_bruteforce(self, toric2, m_max):
        census = enumerate_clusters(toric2, m_max, sector="x", keep_clusters=True)
        oracle = brute_force_census(toric2, m_max, sector="x", keep_clusters=True)
        assert census.same_counts(oracle)
        assert census.clusters == oracle.clusters
        if m_max >= 2:
            # four weight-2 loops wind the two directions of the L=2 torus
            assert census.irreducible_nonstabilizer[2] == 4

    @pytest.mark.parametrize("m_max", range(1, 6))
    def test_full_pauli_matches_bruteforce(self, toric2, m_max):
        census = enumerate_clusters(toric2, m_max, sector="full", keep_clusters=True)
        oracle = brute_force_census(toric2, m_max, sector="full", keep_clusters=True)
        assert census.same_counts(oracle)
        assert census.clusters == oracle.clusters
        assert_sound_census(toric2, census, "full")

    @pytest.mark.parametrize("m_max", range(1, 5))
    def test_space_time_sector_matches_bruteforce(self, toric2, m_max):
        ft = ft_extend(toric2, 2, errors="x")
        census = enumerate_clusters(ft, m_max, sector="ft")
        oracle = brute_force_census(ft, m_max, sector="ft")
        assert census.same_counts(oracle)

    def test_soundness_binary(self, toric3):
        census = enumerate_clusters(toric3, 5, sector="x", keep_clusters=True)
        assert_sound_census(toric3, census, "x")

    def test_toric3_full_weight_seven_matches_bruteforce(self, toric3):
        census = enumerate_clusters(toric3, 7, sector="full", keep_clusters=True)
        oracle = brute_force_census(toric3, 7, sector="full", keep_clusters=True)
        assert census.same_counts(oracle)
        assert census.clusters == oracle.clusters

    def test_cycle_ordering_multiplicity(self, toric3):
        # below weight 6 every recorded cluster is one self-avoiding
        # cycle, and a cycle admits exactly one ordering per start edge
        census = enumerate_clusters(toric3, 5, sector="x")
        for m in range(1, 6):
            assert census.paths[m] == m * census.distinct[m]

    def test_weight_one_cluster_on_unchecked_column(self):
        gx = BitMatrix.from_lists([[1, 1, 0]])
        gz = BitMatrix.from_lists([[1, 1, 0]])
        code = new_css(gx, gz)
        census = enumerate_clusters(code, 1, sector="x")
        assert census.distinct[1] == 1
        assert census.irreducible_nonstabilizer[1] == 1

    def test_m_max_validation(self, toric2):
        with pytest.raises(ValidationError):
            enumerate_clusters(toric2, 0, sector="x")

    def test_memory_cap(self, toric3):
        with pytest.raises(ResourceCapError):
            enumerate_clusters(toric3, 6, sector="x", max_stored=5)

    def test_memory_cap_propagates_from_workers(self, toric3):
        with pytest.raises(ResourceCapError):
            enumerate_clusters(toric3, 6, sector="x", workers=2, max_stored=5)

    def test_memory_cap_counts_distinct_clusters_whatever_the_workers(
        self, toric2, toric3, toric4
    ):
        # toric L=2 x at m_max 3 has a frontier of its 8 seeds, so nine
        # workers make eight shares of one seed each, none of them over the
        # cap alone; toric L=4 full at m_max 8 meets about seven times as
        # many syndromes as it has distinct clusters, so its tables stop
        # growing at the cap
        for code, sector, m_max, workers in [
            (toric3, "x", 6, 1), (toric3, "x", 6, 2), (toric3, "x", 6, 8), (toric2, "x", 3, 9),
            (toric4, "full", 8, 1), (toric4, "full", 8, 2),
        ]:
            uncapped = enumerate_clusters(code, m_max, sector=sector)
            total = sum(uncapped.distinct)
            census = enumerate_clusters(
                code, m_max, sector=sector, workers=workers, max_stored=total
            )
            assert census.same_counts(uncapped), (sector, workers)
            with pytest.raises(ResourceCapError):
                enumerate_clusters(
                    code, m_max, sector=sector, workers=workers, max_stored=total - 1
                )

    def test_toric12_full_weight_four(self):
        L = 12
        code = toric_code(L)
        problem = _build_problem(code, "full")
        rows = sum(len(pairs) for pairs in problem.pairs.values())
        # one row per ordered pair under the lowest check both flip
        assert rows <= sum(len(flipping) ** 2 for flipping in problem.branches)
        # a table of all ordered pairs would hold about (3n)^2 / 2 rows
        assert rows * 50 < len(problem.syn) ** 2 // 2
        # one tail word per entry, plus one per entry and check whose
        # reach its word meets, so at most the reach of each of its checks
        words = max(s.bit_count() for s in problem.syn)
        reach = max(r.bit_count() for r in problem.reach)
        assert len(problem.tails) <= len(problem.syn) * (1 + words * reach)
        assert len(problem.tails) * 50 < len(problem.syn) ** 2 // 2
        census = enumerate_clusters(code, 4, sector="full")
        # below the distance L only the weight-4 stabilizer generators close
        assert census.distinct == census.irreducible == (0, 0, 0, 0, 2 * L * L)
        assert census.irreducible_nonstabilizer == (0,) * 5
        assert census.paths == (0, 0, 0, 0, 1152)

    def test_bruteforce_guard(self, toric3):
        with pytest.raises(ResourceCapError):
            brute_force_census(toric3, 6, sector="full", guard=10)

    def test_bruteforce_guard_counts_the_scan(self, toric3):
        # 165,045 table rows and lookups, against 15,886,503 configurations
        census = brute_force_census(toric3, 6, sector="full", guard=10**6)
        assert census.same_counts(enumerate_clusters(toric3, 6, sector="full"))

    def test_bruteforce_refuses_an_irreducible_cluster_with_no_ordering(self, toric2):
        # an explicit error, not an assert, so python -O keeps the check
        with (
            patch.object(clusters_module, "_count_orderings", lambda *args: 0),
            pytest.raises(ClusterBoundsError, match="missed by the ordering rule"),
        ):
            brute_force_census(toric2, 4, sector="x")

    def test_degeneracy_rows_must_be_undetectable(self, toric2):
        # unit rows flip the checks of their column
        with pytest.raises(ValidationError, match="row 0 is detectable"):
            ft_extend_matrices(toric2.G_Z, BitMatrix.identity(toric2.n), 2)
        # a code built around that check still fails the census's own
        ft = FtCode(1, toric2.G_Z, BitMatrix.identity(toric2.n))
        with pytest.raises(ValidationError, match="undetectable"):
            enumerate_clusters(ft, 2, sector="ft")

    def test_only_exact_sector_names(self, toric2):
        for sector in ("X-type", "Full", " x", "full-pauli"):
            with pytest.raises(ValidationError, match="unknown sector"):
                enumerate_clusters(toric2, 3, sector=sector)


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def spy_on(monkeypatch, name: str) -> list:
    """Record every call of the clusters module's gf2 routine name (echelon
    or kernel) in this process."""
    calls = []
    real = getattr(clusters_module, name)

    def spy(words):
        calls.append(words)
        return real(words)

    monkeypatch.setattr(clusters_module, name, spy)
    return calls


class TestParallel:
    def test_worker_counts_agree(self, toric2, toric3):
        # toric L=2 x at m_max 3 has a frontier of its 8 seeds, fewer than
        # the 9 workers asked for; the full sectors leave every class to
        # the parent's rank
        cases = [
            (toric3, "x", 6, 2),
            (toric3, "x", 6, 8),
            (toric2, "x", 3, 9),
            (ft_extend(toric3, 2, errors="x"), "ft", 6, 2),
            (toric3, "full", 6, 3),
            (five_qubit_code(True), "full", 5, 2),
        ]
        for code, sector, m_max, workers in cases:
            one = enumerate_clusters(code, m_max, sector=sector, workers=1, keep_clusters=True)
            many = enumerate_clusters(
                code, m_max, sector=sector, workers=workers, keep_clusters=True
            )
            assert many.same_counts(one), (sector, workers)
            assert many.clusters == one.clusters, (sector, workers)

    def test_one_share_runs_in_process(self, toric3, monkeypatch):
        def no_fork():
            raise AssertionError("a census of one share forked a worker")

        monkeypatch.setattr(os, "fork", no_fork)
        assert sum(enumerate_clusters(toric3, 6, sector="x", workers=1).distinct) == 119
        # a one-qubit code's x sector has one entry, so its frontier holds
        # one key whatever the worker count
        one_qubit = new_css(BitMatrix((1,), 1), BitMatrix((), 1))
        census = enumerate_clusters(one_qubit, 3, sector="x", workers=4)
        assert census.distinct == census.paths == (0, 1, 0, 0)

    def test_no_child_outlives_a_census(self, toric3, monkeypatch):
        assert sum(enumerate_clusters(toric3, 6, sector="full", workers=2).distinct) == 460
        no_child_left()
        # 10 stops a share inside its worker, and 459 stops the merge in
        # the parent; the error reads as on one worker either way
        for cap in (10, 459):
            with pytest.raises(ResourceCapError) as one:
                enumerate_clusters(toric3, 6, sector="full", max_stored=cap)
            with pytest.raises(ResourceCapError) as pooled:
                enumerate_clusters(toric3, 6, sector="full", workers=2, max_stored=cap)
            assert str(pooled.value) == str(one.value)
            no_child_left()
        # the first share's worker dies without a result while the others
        # still run: the parent kills and reaps them
        problem = _build_problem(toric3, "full")
        first = next(iter(_frontier(problem, 6, 2048)))

        def die(problem, starts, m_max, cap):
            if starts[0][0] == first:
                os._exit(3)
            time.sleep(60)

        monkeypatch.setattr(clusters_module, "_run_seeds", die)
        start = time.monotonic()
        with pytest.raises(ClusterBoundsError, match="without a result") as lost:
            enumerate_clusters(toric3, 6, sector="full", workers=3)
        assert type(lost.value) is ClusterBoundsError
        assert time.monotonic() - start < 30
        no_child_left()

    def test_census_without_fork_runs_in_process(self, toric3, monkeypatch):
        one = enumerate_clusters(toric3, 6, sector="full", keep_clusters=True)
        monkeypatch.delattr(os, "fork")
        many = enumerate_clusters(toric3, 6, sector="full", workers=2, keep_clusters=True)
        assert many.same_counts(one)
        assert many.clusters == one.clusters

    def test_pooled_census_loads_no_process_pool(self):
        script = (
            "import sys\n"
            "from clusterbounds import enumerate_clusters, toric_code\n"
            "census = enumerate_clusters(toric_code(3), 6, sector='full', workers=2)\n"
            "print(sum(census.distinct))\n"
            "print(*(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [*sys.path, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "460\n\n"

    def test_pooled_shares_do_not_pickle_the_problem(self, toric3, monkeypatch):
        one = enumerate_clusters(toric3, 6, sector="full", keep_clusters=True)

        def refuse(self, protocol):
            raise AssertionError("a pooled census pickled its problem")

        monkeypatch.setattr(clusters_module._Problem, "__reduce_ex__", refuse)
        many = enumerate_clusters(toric3, 6, sector="full", workers=2, keep_clusters=True)
        assert many.same_counts(one)
        assert many.clusters == one.clusters

    def test_graph_like_census_runs_no_rank_pass(self, toric3, monkeypatch):
        ft = ft_extend(toric3, 2, errors="x")
        # the problem build ranks the checks, so the problems are cached first
        for code, sector in ((toric3, "x"), (ft, "ft")):
            _build_problem(code, sector)
        calls = spy_on(monkeypatch, "echelon")
        for workers in (1, 2):
            assert sum(enumerate_clusters(toric3, 6, sector="x", workers=workers).distinct) == 119
            enumerate_clusters(ft, 6, sector="ft", workers=workers)
        assert not calls

    def test_pooled_census_ranks_in_the_parent(self, toric3, monkeypatch):
        _build_problem(toric3, "full")
        calls = spy_on(monkeypatch, "echelon")
        one = enumerate_clusters(toric3, 6, sector="full")
        assert len(calls) == sum(one.distinct) == 460
        # a forked worker would record into its own copy of the list, so
        # every call seen here is the parent's
        calls.clear()
        pooled = enumerate_clusters(toric3, 6, sector="full", workers=2)
        assert len(calls) == 460
        assert pooled.same_counts(one)

    @pytest.mark.parametrize("call", ["fork", "pipe"])
    def test_a_worker_that_cannot_start_fails_cleanly(self, toric3, monkeypatch, capsys, call):
        real = getattr(os, call)
        calls = []

        def fail_second(*args):
            calls.append(None)
            if len(calls) == 2:
                raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
            return real(*args)

        monkeypatch.setattr(os, call, fail_second)
        fds = "/proc/self/fd"
        before = sorted(os.listdir(fds)) if os.path.isdir(fds) else None
        with pytest.raises(ResourceCapError, match="worker 2 of 3 could not start") as capped:
            enumerate_clusters(toric3, 6, sector="full", workers=3)
        assert capped.value.__cause__.errno == errno.EMFILE
        if before is not None:
            assert sorted(os.listdir(fds)) == before
        no_child_left()
        calls.clear()
        argv = ["census", "toric", "--L", "3", "--sector", "full", "--m-max", "6", "--workers", "2"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("resource cap: census worker 2 of 2 could not start")
        assert err.count("\n") == 1
        no_child_left()


# codes whose census must not depend on how far the frontier is grown
BUDGET_SWEEP = {
    "toric4-full-m7": (lambda: toric_code(4), "full", 7),
    "ft-toric3-z-3rounds-m7": (lambda: ft_extend(toric_code(3), 3, errors="z"), "ft", 7),
    "toric6-x-m10": (lambda: toric_code(6), "x", 10),
}


class TestFrontier:
    @pytest.mark.parametrize("case", BUDGET_SWEEP)
    def test_census_does_not_depend_on_the_frontier_budget(self, case, monkeypatch):
        make, sector, m_max = BUDGET_SWEEP[case]
        code = make()
        # budget 0 keeps the seeds as the frontier: one search per seed
        monkeypatch.setattr(clusters_module, "_FRONTIER_BUDGET", 0)
        reference = enumerate_clusters(code, m_max, sector=sector, keep_clusters=True)
        for budget, workers in itertools.product((0, 1, 7, 100, 10**6), (1, 2)):
            if (budget, workers) == (0, 1):
                continue
            monkeypatch.setattr(clusters_module, "_FRONTIER_BUDGET", budget)
            census = enumerate_clusters(
                code, m_max, sector=sector, workers=workers, keep_clusters=True
            )
            assert census.same_counts(reference), (budget, workers)
            assert census.clusters == reference.clusters, (budget, workers)

    @pytest.mark.parametrize("case", BUDGET_SWEEP)
    def test_states_carry_their_keys_syndromes(self, case):
        make, sector, m_max = BUDGET_SWEEP[case]
        problem = _build_problem(make(), sector)
        for limit in (0, 7, 100, 2048):
            frontier = _frontier(problem, m_max, limit)
            assert frontier
            for key, (s, mult) in frontier.items():
                assert s == syndrome_of(split_key(problem, key), problem.syn)
                assert mult >= 1

    def test_frontier_holds_its_limit_plus_one_states_children(self, toric4):
        problem = _build_problem(toric4, "full")
        children = max(len(problem.syn), *(len(b) for b in problem.branches))
        for limit in (0, 1, 7, 50, 100, 500, 2048):
            frontier = _frontier(problem, 8, limit)
            assert len(frontier) <= limit + children

    def test_max_stored_caps_the_frontier(self, toric4, monkeypatch):
        problem = _build_problem(toric4, "full")
        children = max(len(problem.syn), *(len(b) for b in problem.branches))
        sizes = []

        def spy(*args):
            frontier = _frontier(*args)
            sizes.append(len(frontier))
            return frontier

        monkeypatch.setattr(clusters_module, "_frontier", spy)
        monkeypatch.setattr(clusters_module, "_FRONTIER_BUDGET", 10**6)
        for max_stored in (50, 300):
            with pytest.raises(ResourceCapError):
                enumerate_clusters(toric4, 8, sector="full", max_stored=max_stored)
        assert sizes[0] <= 50 + children
        assert len(problem.syn) < sizes[1] <= 300 + children


def mixed_rows(matrix, rng, times=4):
    """matrix after times random row additions, row j += row i for rows
    that differ: an invertible mix that keeps the row space and leaves no
    zero row."""
    rows = list(matrix.rows)
    for _ in range(times):
        pairs = [(i, j) for i, a in enumerate(rows) for j, b in enumerate(rows) if a != b]
        if pairs:
            i, j = rng.choice(pairs)
            rows[j] ^= rows[i]
    return BitMatrix(tuple(rows), matrix.cols)


def row_mixed(code, sector, rng):
    """The same code with the sector's check rows and degeneracy rows
    mixed: G_Z and G_X apart in a single sector, P and Q apart in the
    space-time code, and the generators, which give both, in the full
    sector."""
    if sector == "ft":
        return FtCode(code.m, mixed_rows(code.P, rng), mixed_rows(code.Q, rng), code.D_ft)
    if sector == "full":
        return new_stabilizer(mixed_rows(code.stabilizer.G, rng), d=code.d)
    return new_css(mixed_rows(code.G_X, rng), mixed_rows(code.G_Z, rng), d=code.d)


# graph-like and full-Pauli censuses past brute-force reach
ROW_MIXING = {
    "toric4-x-m10": (lambda: toric_code(4), "x", 10),
    "toric6-x-m10": (lambda: toric_code(6), "x", 10),
    "toric3-full-m7": (lambda: toric_code(3), "full", 7),
    "ft-toric5-x-3rounds-m8": (lambda: ft_extend(toric_code(5), 3, errors="x"), "ft", 8),
}


@st.composite
def random_shapes(draw, max_rows=2, max_cols=3):
    """(rows, cols, row weight) of a matrix of at most max_rows x
    max_cols whose rows can cover every column."""
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(2, max_cols))
    return rows, cols, draw(st.integers(-(-cols // rows), cols))


class TestInvariance:
    def test_irreducible_counts_survive_row_permutation(self, toric3):
        base = enumerate_clusters(toric3, 6, sector="x")
        rng = random.Random(7)
        for _ in range(3):
            perm = list(range(toric3.G_Z.nrows))
            rng.shuffle(perm)
            shuffled = new_css(
                toric3.G_X,
                BitMatrix(tuple(toric3.G_Z.rows[i] for i in perm), toric3.n),
                d=3,
            )
            cen = enumerate_clusters(shuffled, 6, sector="x")
            assert cen.irreducible == base.irreducible
            assert cen.irreducible_nonstabilizer == base.irreducible_nonstabilizer

    @pytest.mark.parametrize("case", ROW_MIXING)
    def test_classes_survive_row_mixing(self, case):
        """Irreducibility and membership of the degeneracy group depend on
        the row spaces only; distinct and paths follow the check order."""
        make, sector, m_max = ROW_MIXING[case]
        code = make()
        base = enumerate_clusters(code, m_max, sector=sector)
        assert any(base.irreducible_nonstabilizer)
        rng = random.Random(20)
        for _ in range(2):
            mixed = row_mixed(code, sector, rng)
            # the mixed checks are not graph-like, so the census ranks by
            # elimination where the base counts touched checks
            assert not any(seed_edges(_build_problem(mixed, sector)))
            census = enumerate_clusters(mixed, m_max, sector=sector)
            assert census.irreducible == base.irreducible
            assert census.irreducible_nonstabilizer == base.irreducible_nonstabilizer

    def test_counts_survive_qubit_relabeling(self, toric3):
        base = enumerate_clusters(toric3, 6, sector="x")
        rng = random.Random(8)
        relab = list(range(toric3.n))
        rng.shuffle(relab)

        def relabel(m):
            rows = tuple(
                sum(((r >> j) & 1) << relab[j] for j in range(toric3.n)) for r in m.rows
            )
            return BitMatrix(rows, toric3.n)

        cen = enumerate_clusters(
            new_css(relabel(toric3.G_X), relabel(toric3.G_Z), d=3), 6, sector="x"
        )
        assert cen.distinct == base.distinct
        assert cen.irreducible == base.irreducible
        assert cen.paths == base.paths

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shapes=st.tuples(random_shapes(), random_shapes()),
        sector=st.sampled_from(["full", "x"]),
        m_max=st.integers(1, 5),
    )
    def test_counts_survive_qubit_permutation(self, seed, shapes, sector, m_max):
        rng = random.Random(seed)
        code = hypergraph_product(*(make_random_matrix(rng, *shape) for shape in shapes))
        perm = list(range(code.n))
        rng.shuffle(perm)

        def permuted(m):
            return BitMatrix(
                tuple(sum(((r >> j) & 1) << perm[j] for j in range(m.cols)) for r in m.rows),
                m.cols,
            )

        relabeled = new_css(permuted(code.G_X), permuted(code.G_Z), d=code.d)
        mixed = row_mixed(code, sector, rng)
        for census in (enumerate_clusters, brute_force_census):
            base = census(code, m_max, sector=sector)
            moved = census(relabeled, m_max, sector=sector)
            assert moved.distinct == base.distinct
            assert moved.irreducible == base.irreducible
            assert moved.irreducible_nonstabilizer == base.irreducible_nonstabilizer
            remixed = census(mixed, m_max, sector=sector)
            assert remixed.irreducible == base.irreducible
            assert remixed.irreducible_nonstabilizer == base.irreducible_nonstabilizer


class TestIrreducibility:
    def test_single_plaquette(self, toric3):
        supp = plaquette_supports(toric3)[0]
        assert is_irreducible(toric3, x_cluster(supp), sector="x")
        assert is_irreducible_bruteforce(toric3, x_cluster(supp), sector="x")

    def test_two_disjoint_plaquettes(self, toric3):
        a, b = disjoint_plaquette_pair(toric3)
        cl = x_cluster(a + b)
        assert not is_irreducible(toric3, cl, sector="x")
        assert not is_irreducible_bruteforce(toric3, cl, sector="x")

    def test_figure_eight(self, toric3):
        a, b = vertex_sharing_plaquette_pair(toric3)
        cl = x_cluster(a + b)
        assert not is_irreducible(toric3, cl, sector="x")
        assert not is_irreducible_bruteforce(toric3, cl, sector="x")

    def test_weight_one(self):
        code = new_css(BitMatrix.from_lists([[1, 1, 0]]), BitMatrix.from_lists([[1, 1, 0]]))
        cl = Cluster((2,))
        assert is_irreducible(code, cl, sector="x")
        assert is_irreducible_bruteforce(code, cl, sector="x")

    def test_detectable_cluster_rejected(self, toric3):
        with pytest.raises(ValidationError):
            is_irreducible(toric3, Cluster((0,)), sector="x")
        with pytest.raises(ValidationError):
            is_irreducible_bruteforce(toric3, Cluster((0,)), sector="x")

    def test_weight_cap(self, toric4):
        positions = tuple(range(21))
        with pytest.raises(ValidationError):
            is_irreducible_bruteforce(toric4, Cluster(positions), sector="x")

    def test_agreement_on_census(self, toric3):
        census = enumerate_clusters(toric3, 6, sector="x", keep_clusters=True)
        for group in census.clusters:
            for cl in group:
                assert is_irreducible(toric3, cl, sector="x") == is_irreducible_bruteforce(
                    toric3, cl, sector="x"
                )

    def test_full_pauli_cluster(self, toric2):
        stab = toric2.stabilizer
        gen = stab.generator(0)
        cl = Cluster(gen.support(), tuple(gen.entry(j) for j in gen.support()))
        assert is_irreducible(toric2, cl, sector="full")


class TestOracleKernels:
    """The brute-force oracles' subset table, ordering count and zero
    test, against literal scans and hand-counted clusters."""

    def test_table_and_orderings_match_the_literal_scans(self):
        seen = set()

        @settings(max_examples=200, deadline=None)
        @given(
            words=st.lists(st.integers(0, 15), min_size=1, max_size=7),
            closed=st.booleans(),
        )
        def check(words, closed):
            # the brute-force census counts the orderings of undetectable
            # configurations, so half the lists are closed to XOR zero
            if closed and len(words) < 7:
                words = [*words, reduce(xor, words)]
            table = clusters_module._subset_syndromes(words)
            assert len(table) == 1 << len(words)
            for acc, masks in subset_xors(words).items():
                assert all(table[mask] == acc for mask in masks)
            count = clusters_module._count_orderings(words, table)
            assert count == orderings_literal(words)
            if 0 in words:
                seen.add("zero word")
            if len(set(words)) < len(words):
                seen.add("repeated word")
            if 0 in table[1:-1]:
                seen.add("zero proper subset")
            if count:
                seen.add("admitted")
            if len(words) == 7:
                seen.add("seven words")

        check()
        assert seen == {"zero word", "repeated word", "zero proper subset", "admitted", "seven words"}

    # An undetectable cluster's pieces come in pairs: a piece and the
    # rest.  Here the only pair is a zero-word entry and the others, so
    # the subset table's only inner zeros sit at masks 1 and 2^m - 2 when
    # the zero word is first, and at 2^(m-1) - 1 and 2^(m-1) when it is
    # last.  Two zero words are two one-entry pieces.  In the census the
    # whole cluster has no admissible ordering, as a zero word ends every
    # prefix it starts or completes.
    @pytest.mark.parametrize(
        "checks, degeneracy, pieces, counts",
        [
            ([[0, 1, 0, 1], [0, 0, 1, 1]], [[0, 1, 1, 1]], [(0,), (1, 2, 3)],
             ((0, 1, 0, 1, 0), (0, 1, 0, 1, 0), (0, 1, 0, 0, 0), (0, 1, 0, 3, 0))),
            ([[1, 0, 1, 0], [0, 1, 1, 0]], [[1, 1, 1, 0]], [(0, 1, 2), (3,)],
             ((0, 1, 0, 1, 0), (0, 1, 0, 1, 0), (0, 1, 0, 0, 0), (0, 1, 0, 3, 0))),
            ([[0, 0, 1, 1]], [[0, 0, 1, 1]], [(0,), (1,)],
             ((0, 2, 1, 0, 0), (0, 2, 1, 0, 0), (0, 2, 0, 0, 0), (0, 2, 2, 0, 0))),
        ],
        ids=["zero first", "zero last", "two zeros"],
    )
    def test_zero_word_pieces(self, checks, degeneracy, pieces, counts):
        # the X sector's checks are G_Z, and its degeneracy rows G_X
        code = new_css(BitMatrix.from_lists(degeneracy), BitMatrix.from_lists(checks))
        pieces = [Cluster(piece) for piece in pieces]
        whole = Cluster(tuple(sorted(j for piece in pieces for j in piece.positions)))
        for cl in pieces:
            assert is_irreducible_bruteforce(code, cl, sector="x")
            assert is_irreducible(code, cl, sector="x")
        assert not is_irreducible_bruteforce(code, whole, sector="x")
        assert not is_irreducible(code, whole, sector="x")
        assert sorted(decompose(code, whole, sector="x"), key=lambda c: c.positions) == pieces
        census = brute_force_census(code, 4, sector="x")
        assert (census.distinct, census.irreducible, census.irreducible_nonstabilizer, census.paths) == counts
        assert census.same_counts(enumerate_clusters(code, 4, sector="x"))


class TestMalformedClusters:
    CHECKS = (is_irreducible, is_irreducible_bruteforce, decompose)

    @pytest.mark.parametrize("check", CHECKS)
    def test_label_outside_xyz(self, toric2, check):
        with pytest.raises(ValidationError):
            check(toric2, Cluster((0,), ("I",)), "full")

    @pytest.mark.parametrize("check", CHECKS)
    def test_position_beyond_code(self, toric2, check):
        with pytest.raises(ValidationError):
            check(toric2, Cluster((toric2.n,)), "x")

    @pytest.mark.parametrize("check", CHECKS)
    @pytest.mark.parametrize("cluster, sector", [(Cluster(()), "x"), (Cluster((), ()), "full")])
    def test_empty_cluster(self, toric3, check, cluster, sector):
        with pytest.raises(ValidationError, match="no entries"):
            check(toric3, cluster, sector)

    @pytest.mark.parametrize("check", CHECKS)
    @pytest.mark.parametrize(
        "positions", [(-1,), (0.0, 1.0), ("a", "b")], ids=["negative", "float", "string"]
    )
    def test_position_not_a_column_index(self, toric2, check, positions):
        # a negative index must not wrap round to the last column, and a
        # position that is no integer is refused before it indexes anything
        with pytest.raises(ValidationError):
            check(toric2, Cluster(positions), "x")


def literal_pieces(code, cluster, sector):
    """The pieces of an undetectable cluster by the oracle's kernel split."""
    problem = _build_problem(code, sector)
    entries = problem.entries_of_cluster(cluster)
    parts = kernel_split_literal([problem.syn[e] for e in entries])
    return tuple(problem.cluster_of([entries[i] for i in part]) for part in parts)


class TestDecompose:
    def test_figure_eight_splits_into_plaquettes(self, toric3):
        a, b = vertex_sharing_plaquette_pair(toric3)
        parts = decompose(toric3, x_cluster(a + b), sector="x")
        assert sorted(p.positions for p in parts) == sorted(
            [tuple(sorted(a)), tuple(sorted(b))]
        )
        for p in parts:
            assert is_irreducible(toric3, p, sector="x")

    def test_irreducible_is_fixed_point(self, toric3):
        supp = plaquette_supports(toric3)[0]
        assert decompose(toric3, x_cluster(supp), sector="x") == (x_cluster(supp),)

    def test_three_way_split(self, toric4):
        supports = plaquette_supports(toric4)
        chosen = []
        for s in supports:
            if all(not set(s) & set(t) for t in chosen):
                chosen.append(s)
            if len(chosen) == 3:
                break
        cl = x_cluster(tuple(itertools.chain.from_iterable(chosen)))
        parts = decompose(toric4, cl, sector="x")
        assert len(parts) == 3
        assert sorted(p.positions for p in parts) == sorted(tuple(sorted(s)) for s in chosen)

    @pytest.mark.parametrize("L, sector, m_max", [(3, "full", 6), (4, "x", 8)])
    def test_irreducible_pieces_take_no_kernel(self, monkeypatch, L, sector, m_max):
        code = toric_code(L)
        census = enumerate_clusters(code, m_max, sector=sector, keep_clusters=True)
        kept = [c for group in census.clusters for c in group]
        irreducible = [c for c in kept if is_irreducible(code, c, sector)]
        assert len(irreducible) == sum(census.irreducible) < len(kept)
        kernels = spy_on(monkeypatch, "kernel")
        for cluster in irreducible:
            assert decompose(code, cluster, sector) == (cluster,)
        assert not kernels
        # the reducible ones split into the long way's pieces, in its order
        for cluster in kept:
            assert decompose(code, cluster, sector) == literal_pieces(code, cluster, sector)


class TestBounds:
    def test_full_pauli_seed_count(self):
        assert cluster_count_bound(18, 4, 1) == 54

    def test_css_bound_value(self):
        assert cluster_count_bound_css(18, 4, 3) == 162

    def test_space_time_bound_value(self):
        assert cluster_count_bound_ft(8, 4, 6, 2, 1) == 168

    def test_space_time_split_sums_to_total(self):
        for n, r, w in ((8, 4, 4), (18, 9, 4), (10, 5, 6)):
            for m in range(1, 8):
                total = sum(cluster_count_bound_ft(n, r, w, m, mq) for mq in range(m + 1))
                assert total == cluster_count_bound_ft_total(n, r, w, m)

    def test_space_time_split_counts_qubit_steps_not_entries(self, toric2):
        # the split is 0 at m_q = m, yet all-qubit clusters of weight m exist
        ft = ft_extend(toric2, 2, errors="x")
        census = enumerate_clusters(ft, 4, sector="ft", keep_clusters=True)
        all_qubit = [c for c in census.clusters[4] if c.positions[-1] < ft.qubit_cols]
        assert len(all_qubit) == 38
        assert cluster_count_bound_ft(ft.n, ft.r, toric2.w_Z, 4, 4) == 0

    def test_paths_within_bounds(self, toric3, random_css_codes):
        census = enumerate_clusters(toric3, 6, sector="full")
        stab = toric3.stabilizer
        for m in census.weights():
            assert census.paths[m] <= cluster_count_bound(toric3.n, stab.w, m)
        for code in random_css_codes[:2]:
            cen = enumerate_clusters(code, 4, sector="x")
            for m in cen.weights():
                assert cen.paths[m] <= cluster_count_bound_css(code.n, code.w_Z, m)
                assert cen.irreducible[m] <= cluster_count_bound_css(code.n, code.w_Z, m)

    def test_census_bound_dispatch(self, toric3, toric2):
        assert census_bound(toric3, "x", 3) == cluster_count_bound_css(18, 4, 3)
        stab_w = toric3.stabilizer.w
        assert census_bound(toric3, "full", 3) == cluster_count_bound(18, stab_w, 3)
        ft = ft_extend(toric2, 2, errors="x")
        assert census_bound(ft, "ft", 3) == cluster_count_bound_ft_total(8, 4, 4, 3)

    def test_bound_validation(self):
        with pytest.raises(ValidationError):
            cluster_count_bound(4, 3, 0)
        with pytest.raises(ValidationError):
            cluster_count_bound_ft(4, 2, 3, 2, 5)


def count_simple_cycles_by_length(code, max_len):
    """Independent cycle counter on the lattice graph whose vertices are
    the site checks and whose edges are the qubits.  Counts vertex-self-
    avoiding closed walks by edge set, grouped by length."""
    n_sites = code.G_Z.nrows
    site_of = [[i for i in range(n_sites) if (code.G_Z.rows[i] >> j) & 1]
               for j in range(code.n)]
    adj = [[] for _ in range(n_sites)]
    for j, sites in enumerate(site_of):
        assert len(sites) == 2
        a, b = sites
        adj[a].append((b, j))
        adj[b].append((a, j))
    counts = {}

    def walk(root, v, visited, used_edges, length):
        for w, edge in adj[v]:
            if edge in used_edges:
                continue
            if w == root and length + 1 >= 3:
                counts[length + 1] = counts.get(length + 1, 0) + 1
            elif w > root and w not in visited and length + 1 < max_len:
                walk(root, w, visited | {w}, used_edges | {edge}, length + 1)

    for root in range(n_sites):
        walk(root, root, {root}, frozenset(), 0)
    return {m: c // 2 for m, c in counts.items() if c}  # two directions each


class TestSelfAvoidingCycleCorrespondence:
    def test_toric3_irreducible_clusters_are_cycles(self, toric3):
        census = enumerate_clusters(toric3, 6, sector="x")
        cycles = count_simple_cycles_by_length(toric3, 6)
        for m in census.weights():
            assert census.irreducible[m] == cycles.get(m, 0)

    def test_toric4_irreducible_clusters_are_cycles(self, toric4):
        census = enumerate_clusters(toric4, 6, sector="x")
        cycles = count_simple_cycles_by_length(toric4, 6)
        for m in census.weights():
            assert census.irreducible[m] == cycles.get(m, 0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_toric11_irreducible_clusters_are_lattice_polygons(self, workers):
        # below the lattice size no cycle wraps the torus, so each
        # irreducible cluster is a square-lattice polygon placed at one of
        # L^2 sites; polygons by half-perimeter are 1, 2, 7, 28 (OEIS A002931)
        L = 11
        census = enumerate_clusters(toric_code(L), 10, sector="x", workers=workers)
        polygons = {4: 1, 6: 2, 8: 7, 10: 28}
        assert census.irreducible == tuple(L * L * polygons.get(m, 0) for m in range(11))
        assert census.irreducible_nonstabilizer == (0,) * 11


class TestSpaceTimePolygons:
    """The x-sector space-time code of toric L over T rounds is the
    edge-vertex incidence of an L x L x T slab, periodic in space and open
    in time, so its irreducible clusters are simple cycles.  Below weight
    L none wraps space, so each is a cubic-lattice polygon of time extent
    h < T, placed at one of L^2 (T - h) sites."""

    def test_walker_totals(self):
        polygons = cubic_polygons(10)
        # per site: OEIS A001413 over 2m; in one plane: A002931
        per_site = {m: sum(c.values()) for m, c in polygons.items()}
        in_plane = {m: c[0] for m, c in polygons.items()}
        assert per_site == {4: 3, 6: 22, 8: 207, 10: 2412}
        assert in_plane == {4: 1, 6: 2, 8: 7, 10: 28}

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("L, T, m_max", [(7, 4, 6), (9, 3, 8)])
    def test_ft_irreducible_clusters_are_cubic_polygons(self, L, T, m_max, workers):
        polygons = cubic_polygons(m_max)
        expected = tuple(
            L * L * sum((T - h) * c for h, c in polygons.get(m, {}).items() if h < T)
            for m in range(m_max + 1)
        )
        if L == 9:
            assert expected[4::2] == (567, 3564, 28107)
        code = ft_extend(toric_code(L), T, errors="x")
        census = enumerate_clusters(code, m_max, sector="ft", workers=workers)
        assert census.irreducible == expected
        assert census.irreducible_nonstabilizer == (0,) * (m_max + 1)


def labelled(cluster):
    """(position, label) pairs of a cluster; the label is None for a
    binary cluster."""
    return list(zip(cluster.positions, cluster.paulis or (None,) * cluster.weight))


class TestRandomCodes:
    def test_enumeration_matches_bruteforce(self, random_css_codes):
        for code in random_css_codes:
            census = enumerate_clusters(code, 4, sector="full")
            oracle = brute_force_census(code, 4, sector="full")
            assert census.same_counts(oracle)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shapes=st.tuples(random_shapes(), random_shapes()),
        sector=st.sampled_from(["full", "x", "z", "ft-x", "ft-z"]),
        # the frontier grows only from m_max 4 on, so most draws go there
        m_max=st.integers(4, 6) | st.integers(1, 3),
        budget=st.integers(0, 16),
        past_the_entries=st.booleans(),
    )
    def test_hypergraph_product_census_matches_bruteforce(
        self, seed, shapes, sector, m_max, budget, past_the_entries
    ):
        rng = random.Random(seed)
        code = hypergraph_product(*(make_random_matrix(rng, *shape) for shape in shapes))
        if sector.startswith("ft-"):
            code, sector = ft_extend(code, 2, errors=sector[3:]), "ft"
        # small budgets leave partly grown, mixed-depth frontiers; the first
        # layer holds every entry, so only a budget past the entry count
        # grows the frontier on most of these codes
        if past_the_entries:
            budget += len(_build_problem(code, sector).syn)
        with patch.object(clusters_module, "_FRONTIER_BUDGET", budget):
            census = enumerate_clusters(code, m_max, sector=sector, keep_clusters=True)
        oracle = brute_force_census(code, m_max, sector=sector, keep_clusters=True)
        assert census.same_counts(oracle)
        assert census.clusters == oracle.clusters
        # decompose splits each cluster into disjoint pieces that cover it;
        # the oracle rejects a detectable piece and finds a reducible one
        for cluster in (c for group in census.clusters for c in group):
            parts = decompose(code, cluster, sector)
            assert parts == literal_pieces(code, cluster, sector)
            assert sorted(p for part in parts for p in labelled(part)) == labelled(cluster)
            assert all(is_irreducible_bruteforce(code, part, sector) for part in parts)


def five_qubit_code(y_qubit: bool):
    """The [[5,1,3]] code from XZZXI and its cyclic shifts, optionally
    with a sixth qubit stabilized by Y."""
    base = "XZZXI"
    labels = [base[-s:] + base[:-s] if s else base for s in range(5)]
    if y_qubit:
        labels = [lab + "I" for lab in labels] + ["IIIIIY"]
    rows = tuple(PauliOp.from_label(lab).to_binary().bits for lab in labels)
    return new_stabilizer(BitMatrix(rows, 2 * len(labels[0])))


class TestNonCssCodes:
    @pytest.mark.parametrize(
        "y_qubit, distinct",
        [(False, (0, 0, 0, 30, 15, 18)), (True, (0, 1, 0, 30, 15, 18))],
    )
    def test_census_matches_bruteforce(self, y_qubit, distinct):
        code = five_qubit_code(y_qubit)
        census = enumerate_clusters(code, 5, sector="full", keep_clusters=True)
        oracle = brute_force_census(code, 5, sector="full", keep_clusters=True)
        assert census.distinct == distinct
        assert census.same_counts(oracle)
        assert census.clusters == oracle.clusters
        assert_sound_census(code, census, "full")

    def test_irreducibility_and_decomposition(self):
        code = five_qubit_code(True)
        census = enumerate_clusters(code, 5, sector="full", keep_clusters=True)
        assert census.clusters[1] == (Cluster((5,), ("Y",)),)
        for group in census.clusters:
            for cl in group:
                irreducible = is_irreducible(code, cl)
                assert irreducible == is_irreducible_bruteforce(code, cl)
                parts = decompose(code, cl)
                assert (len(parts) == 1) == irreducible
                pairs = sorted(p for part in parts for p in zip(part.positions, part.paulis))
                assert pairs == list(zip(cl.positions, cl.paulis))
                assert all(is_irreducible(code, part) for part in parts)


class TestTailCut:
    """The tail cut before each two-entry step drops only dead ends."""

    def test_every_one_or_two_entry_completion_passes(self):
        fired = []

        @settings(max_examples=120, deadline=None)
        @given(
            seed=st.integers(0, 2**32 - 1),
            which=st.sampled_from(["hgp", "five", "five-y"]),
            shapes=st.tuples(random_shapes(3, 5), random_shapes(3, 5)),
        )
        def check(seed, which, shapes):
            rng = random.Random(seed)
            if which == "hgp":
                code = hypergraph_product(*(make_random_matrix(rng, *s) for s in shapes))
            else:
                code = five_qubit_code(which == "five-y")
            problem = _build_problem(code, "full")
            syn, reach, tails = problem.syn, problem.reach, problem.tails

            # a problem builds tails, and cuts, only where some word has
            # more than two bits
            assert bool(tails) == any(d.bit_count() > 2 for d in syn)

            def passes(w):
                # the search's test of a nonzero word w, j its lowest check
                j = (w & -w).bit_length() - 1
                tail = w & ~reach[j]
                return not tail or not tails or tail in tails

            ordered = []
            for a, da in enumerate(syn):
                if da:
                    assert passes(da)
                for b, db in enumerate(syn):
                    w = da ^ db
                    # the first entry flips the lowest bit of the pair's word
                    if a // 3 != b // 3 and w and da & w & -w:
                        assert passes(w)
                        ordered.append((a, w))
            # three entries on distinct positions: the cut rejects some
            rejected = 0
            for a, w in rng.sample(ordered, min(40, len(ordered))):
                for c, dc in enumerate(syn):
                    t = w ^ dc
                    if c // 3 != a // 3 and t and not passes(t):
                        rejected += 1
            fired.append(rejected > 0)

        check()
        assert any(fired)


def ordered_completions(problem, s, taken, left):
    """Every sequence of at most left entries on distinct free positions
    that clears syndrome s, each entry flipping the lowest violated check
    that the ones before it leave; taken holds the used positions."""
    width, syn = problem.width, problem.syn
    if s == 0:
        return [()]
    if left == 0:
        return []
    low = s & -s
    out = []
    for e in range(len(syn)):
        if syn[e] & low and e // width not in taken:
            out += [
                (e, *rest)
                for rest in ordered_completions(problem, s ^ syn[e], taken | {e // width}, left - 1)
            ]
    return out


def traced_fills(problem, starts, m_max, cap):
    """_run_seeds's result, and each call of its table routine complete(s,
    left) as (s, left, the rows it returned, the size of tables[left]
    after it), read by a trace function."""
    complete = next(
        c for c in clusters_module._run_seeds.__code__.co_consts
        if getattr(c, "co_name", None) == "complete"
    )
    fills = []

    def on_return(frame, event, arg):
        if event == "return":
            local = frame.f_locals
            left = local["left"]
            fills.append((local["s"], left, arg, len(local["tables"][left])))

    def on_call(frame, event, arg):
        if frame.f_code is complete:
            frame.f_trace_lines = False
            return on_return
        return None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = clusters_module._run_seeds(problem, starts, m_max, cap)
    finally:
        sys.settrace(previous)
    return result, fills


class TestCompletionTables:
    """A single start, entering the search as the empty state's one
    child, lists every ordered completion once, whether it branches, is
    finished from the per-syndrome tables or has nothing left to place.
    Each table row is an ordered completion of the empty key, each
    (syndrome, entries left) is filled once, and a table stops growing at
    the cap."""

    def test_rows_match_ordered_completions(self):
        met = Counter()

        @settings(max_examples=100, deadline=None)
        @given(
            seed=st.integers(0, 2**32 - 1),
            which=st.sampled_from(["x", "z", "full", "ft-x", "ft-z", "five", "five-y"]),
            shapes=st.tuples(random_shapes(), random_shapes()),
            m_max=st.integers(4, 6),
            budget=st.integers(0, 16),
        )
        def check(seed, which, shapes, m_max, budget):
            rng = random.Random(seed)
            if which.startswith("five"):
                code, sector = five_qubit_code(which == "five-y"), "full"
            else:
                code = hypergraph_product(*(make_random_matrix(rng, *s) for s in shapes))
                sector = which
                if which.startswith("ft-"):
                    code, sector = ft_extend(code, 2, errors=which[3:]), "ft"
            # a small budget leaves states three short of the cap to the search
            with patch.object(clusters_module, "_FRONTIER_BUDGET", budget):
                census = enumerate_clusters(code, m_max, sector=sector)
            assert census.same_counts(brute_force_census(code, m_max, sector=sector))
            problem = _build_problem(code, sector)
            width, syn, seeds = problem.width, problem.syn, problem.seeds
            n = len(syn) // width

            def row(completion):
                return (
                    reduce(or_, (seeds[e][1] for e in completion)),
                    reduce(or_, (seeds[e][2] for e in completion)),
                )

            for _ in range(20):
                # a single start: a random partial cluster, half the time
                # grown by the repair rule as the search grows its states
                used = rng.sample(range(n), rng.randint(1, min(4, n)))
                entries = [width * j + rng.randrange(width) for j in used]
                if rng.random() < 0.5:
                    entries, s = entries[:1], syn[entries[0]]
                    while len(entries) < len(used):
                        taken = {e // width for e in entries}
                        free = [
                            e for e, d in enumerate(syn) if d & s & -s and e // width not in taken
                        ]
                        if not free:
                            break
                        entries.append(rng.choice(free))
                        s ^= syn[entries[-1]]
                key = reduce(or_, (seeds[e][1] for e in entries))
                s = syndrome_of(split_key(problem, key), syn)
                depth, left = len(entries), rng.randint(0, 5)
                (paths, found), fills = traced_fills(problem, [(key, s, 1)], depth + left, 10**6)
                taken = {e // width for e in entries}
                completions = ordered_completions(problem, s, taken, left)
                expected = [0] * (depth + left + 1)
                for c in completions:
                    expected[depth + len(c)] += 1
                assert paths == expected
                bits = split_key(problem, key)
                assert set(found) == {bits | sum(1 << e for e in c) for c in completions}
                if not s:
                    kind = "closed"
                elif not left:
                    kind = "stuck"
                elif left > 3:
                    kind = "branched"
                else:
                    kind = "served" if s.bit_count() <= 2 else "served wide"
                met[kind] += 1
                met[kind, "recorded"] += bool(found)
                # each fill lists the empty key's ordered completions, once
                # per syndrome and entries left
                assert len({(w, k) for w, k, _, _ in fills}) == len(fills)
                for w, k, rows, _ in fills:
                    assert 1 <= k <= 3 and w
                    assert sorted(rows) == sorted(map(row, ordered_completions(problem, w, set(), k)))
                    met["wide fill"] += w.bit_count() > 2
                # capped at its distinct clusters, the run keeps at most
                # that many syndromes per table, and its counts
                cap = max(1, len(found))
                (capped_paths, capped), capped_fills = traced_fills(
                    problem, [(key, s, 1)], depth + left, cap
                )
                assert capped_paths == paths and capped == found
                assert all(size <= cap for _, _, _, size in capped_fills)
                met["refilled"] += len(capped_fills) > len(fills)

        check()
        assert all(met[kind, "recorded"] for kind in ("branched", "served", "served wide"))
        assert met["wide fill"] and met["refilled"]
        # a closed start records itself, and a stuck one nothing
        assert met["closed"] == met["closed", "recorded"] > 0
        assert met["stuck"] and not met["stuck", "recorded"]


def random_graph_checks(rng, rows, cols):
    """A random check matrix whose columns flip at most two checks, with
    columns of weight 0, 1 and 2 and one column repeated."""
    columns = [rng.sample(range(rows), rng.randint(0, min(2, rows))) for _ in range(cols)]
    columns.append(rng.choice(columns))
    return BitMatrix(
        tuple(sum(1 << j for j, col in enumerate(columns) if i in col) for i in range(rows)),
        len(columns),
    )


class TestGraphLikeClassification:
    """Where every entry flips at most two checks, the census counts the
    checks a recorded cluster touches instead of eliminating."""

    def test_counts_match_elimination(self):
        seen = Counter()

        @settings(max_examples=100, deadline=None)
        @given(
            seed=st.integers(0, 2**32 - 1),
            rows=st.integers(1, 4),
            cols=st.integers(1, 5),
            rounds=st.integers(1, 3),
            m_max=st.integers(1, 6),
        )
        # fixed draws that reach every category, so the closing assertion
        # holds on a fresh example database: two reducible clusters, and
        # unchecked qubits that close alone
        @example(seed=19, rows=2, cols=3, rounds=2, m_max=4)
        @example(seed=1, rows=1, cols=1, rounds=1, m_max=1)
        def check(seed, rows, cols, rounds, m_max):
            rng = random.Random(seed)
            H = random_graph_checks(rng, rows, cols)
            G = BitMatrix(tuple(v.bits for v in H.kernel_basis() if rng.random() < 0.5), H.cols)
            code = ft_extend_matrices(H, G, rounds)
            problem = _build_problem(code, "ft")
            assert all(seed_edges(problem))
            frontier = _frontier(problem, m_max, 2048)
            starts = [(key, s, mult) for key, (s, mult) in frontier.items()]
            paths, found = clusters_module._run_seeds(problem, starts, m_max, 10**6)
            census = clusters_module._classify(problem, found, paths, False)
            degeneracy = echelon(code.Q.rows)
            expected = {f: [0] * (m_max + 1) for f in ("distinct", "irreducible", "nonstab")}
            for key, irreducible in found.items():
                words = [problem.syn[e] for e in set_bits(key)]
                m = len(words)
                expected["distinct"][m] += 1
                # the search classified the cluster when it first met it
                assert irreducible == (m - len(echelon(words)) == 1)
                if m - len(echelon(words)) == 1:
                    expected["irreducible"][m] += 1
                    expected["nonstab"][m] += residue(degeneracy, key) != 0
                    seen["weight one"] += m == 1
                    seen["boundary"] += any(w.bit_count() == 1 for w in words)
                    seen["stabilizer"] += not residue(degeneracy, key)
                else:
                    seen["reducible"] += 1
            assert census.distinct == tuple(expected["distinct"])
            assert census.irreducible == tuple(expected["irreducible"])
            assert census.irreducible_nonstabilizer == tuple(expected["nonstab"])

        check()
        assert all(seen[k] for k in ("weight one", "boundary", "stabilizer", "reducible"))


class TestDegeneracyParities:
    """An undetectable word is in the degeneracy group exactly when it
    meets each of the problem's parity vectors evenly."""

    def test_parities_agree_with_the_row_space(self):
        seen = set()

        @settings(max_examples=100, deadline=None)
        @given(
            seed=st.integers(0, 2**32 - 1),
            which=st.sampled_from(["full", "x", "z", "ft-x", "ft-z", "five", "five-y"]),
            shapes=st.tuples(random_shapes(3, 5), random_shapes(3, 5)),
            rounds=st.integers(1, 3),
        )
        def check(seed, which, shapes, rounds):
            rng = random.Random(seed)
            if which.startswith("five"):
                code, sector = five_qubit_code(which == "five-y"), "full"
            else:
                code = hypergraph_product(*(make_random_matrix(rng, *s) for s in shapes))
                sector = which
                if which.startswith("ft-"):
                    code, sector = ft_extend(code, rounds, errors=which[3:]), "ft"
            if sector == "full":
                stab = code.stabilizer if isinstance(code, CssCode) else code
                checks, degeneracy, count = stab.H, stab.G, 2 * stab.k
            elif sector == "ft":
                checks, degeneracy, count = code.P, code.Q, code.K
            else:
                (checks, degeneracy), count = code.sector(sector), code.k
            problem = _build_problem(code, sector)
            parities = problem.parities
            assert len(parities) == count
            # a word's key: in a binary sector the word itself; in the full
            # sector one labelled entry per qubit, the entry whose (v|u)
            # word is the word's part on that qubit
            entry_of = {w: e for e, w in enumerate(problem.deg)}
            n = len(problem.syn) // problem.width
            assert all(p >> len(problem.syn) == 0 for p in parities)
            undetectable = [v.bits for v in checks.kernel_basis()]
            for _ in range(20):
                # a degeneracy word, plus an undetectable word half the time
                word = reduce(xor, (r for r in degeneracy.rows if rng.random() < 0.5), 0)
                if rng.random() < 0.5:
                    word ^= reduce(xor, (v for v in undetectable if rng.random() < 0.5), 0)
                key = word
                if problem.width == 3:
                    parts = (word & (1 << j | 1 << (n + j)) for j in range(n))
                    key = sum(1 << entry_of[part] for part in parts if part)
                    assert reduce(xor, (problem.deg[e] for e in set_bits(key)), 0) == word
                even = not any((key & p).bit_count() & 1 for p in parities)
                assert even == degeneracy.row_space_contains(BitVector(degeneracy.cols, word))
                seen.add(even)

        check()
        assert seen == {True, False}


def planar_code():
    """The [[13, 1, 3]] planar code, the hypergraph product of two 2 x 3
    repetition check matrices; its entries at the open ends flip one
    check."""
    rep = BitMatrix((0b011, 0b110), 3)
    return hypergraph_product(rep, rep)


class TestBoundaryEntries:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("sector, m_max, boundary", [("x", 6, 6), ("z", 6, 6), ("ft", 5, 12)])
    def test_planar_census_matches_bruteforce(self, sector, m_max, boundary, workers):
        code = planar_code()
        if sector == "ft":
            code = ft_extend(code, 2, errors="x")
        problem = _build_problem(code, sector)
        edges = seed_edges(problem)
        # an entry with fewer than two checks also sits on the phantom
        # check, one bit past the last
        phantom = 1 << len(problem.branches)
        assert sum(bool(s & phantom) for s in edges) == boundary
        assert all(s.bit_count() == 2 for s in edges)
        assert all(split_key(problem, bit) == 1 << e for e, (_, bit, _) in enumerate(problem.seeds))
        census = enumerate_clusters(code, m_max, sector=sector, workers=workers)
        assert census.same_counts(brute_force_census(code, m_max, sector=sector))
        # the shortest logicals run from one open end to the other
        assert census.irreducible_nonstabilizer[3] > 0

    def test_which_sectors_are_graph_like(self, toric3):
        for code, sector in (
            (toric3, "x"),
            (toric3, "z"),
            (ft_extend(toric3, 3, errors="x"), "ft"),
            (ft_extend(toric3, 3, errors="z"), "ft"),
        ):
            assert all(seed_edges(_build_problem(code, sector)))
        assert not any(seed_edges(_build_problem(toric3, "full")))
        rng = random.Random(5)
        code = hypergraph_product(make_random_matrix(rng, 1, 3, 3), make_random_matrix(rng, 2, 3, 2))
        problem = _build_problem(code, "x")
        assert max(s.bit_count() for s in problem.syn) == 3
        assert not any(seed_edges(problem))


class TestProblemProduct:
    def test_matches_the_entry_scan(self):
        """Each check's entries, each entry's syndrome, key bit and edge
        tag, and each kernel class's parity mask, read off one GF(2)
        product, equal a scan of the words bit by bit."""
        seen = set()

        @settings(max_examples=250, deadline=None)
        @given(
            data=st.data(),
            width=st.sampled_from([1, 3]),
            cols=st.integers(0, 6),
            positions=st.integers(0, 4),
        )
        def run(data, width, cols, positions):
            word = st.integers(0, (1 << cols) - 1)
            checks = BitMatrix(tuple(data.draw(st.lists(word, max_size=5))), cols)
            # sums of the checks' kernel vectors are undetectable rows
            kernel = [v.bits for v in checks.kernel_basis()]
            picks = data.draw(st.lists(st.integers(0, (1 << len(kernel)) - 1), max_size=3))
            degeneracy = BitMatrix(
                tuple(reduce(xor, (k for i, k in enumerate(kernel) if p >> i & 1), 0) for p in picks),
                cols,
            )
            size = width * positions
            words = data.draw(st.lists(word, min_size=size, max_size=size))
            problem = _problem(checks, words, width, degeneracy, partial(int))
            assert (problem.syn, problem.seeds, problem.branches, problem.parities) == (
                problem_literal(checks, words, width, degeneracy)
            )
            seen.add(f"width {width}")
            if any(bit >> size for _, bit, _ in problem.seeds):
                seen.add("edge tags")
            if not checks.rows:
                seen.add("no checks")
            if any(w and not s for w, s in zip(words, problem.syn)) and checks.rows:
                seen.add("zero column")
            flipping = [s for s in problem.syn if s]
            if len(set(flipping)) < len(flipping):
                seen.add("repeated column")
            if 0 in words:
                seen.add("zero word")
            if any(problem.parities):
                seen.add("parity mask")

        run()
        assert seen == {
            "width 1",
            "width 3",
            "no checks",
            "zero column",
            "repeated column",
            "zero word",
            "parity mask",
            "edge tags",
        }
