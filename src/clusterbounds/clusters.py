"""Enumeration, classification and counting of undetectable error clusters.

Every sector is one flat list of entry columns.  An entry is a
single-position error: a column of a binary sector (a single CSS sector
or the space-time code), or one label on one qubit of the full-Pauli
sector, where entry 3j + l puts "XYZ"[l] on qubit j.  Each entry carries
its syndrome word, its key bit and an exclusion mask over every entry of
its position.  Of n entries, entry e's key bit is 1 << e, and in a
graph-like sector (below) also its edge, n bits up.  So a cluster's key,
the OR of its entries' bits, marks the positions it uses and, in a
graph-like sector, the checks it touches.  Exclusion and parity masks
cover only the low n bits, so they read a key as its entries.

The search seeds a single entry somewhere, then repeatedly repairs the
first violated check by placing one more entry inside that check's
support, choosing a free entry that flips the violated bit.  Every state
whose syndrome reaches zero is one recorded cluster; states that cannot
repair the first violated bit, or that hit the depth cap, backtrack.
Each completion event is one recursion path, so a cluster is counted
once per ordering of its entries that the repair rule admits.  The last
entries are not searched for: a state at most three entries short of
the cap is finished in one step, which records every completion that
the repair rule admits where it finds it.  One entry completes with
word s, the state's syndrome, looked up in a syndrome -> entries table.
Two entries have words XORing to s, the first flipping the lowest bit
of s.  Two entries sharing a check are looked up under s in a table of
check-sharing pairs, which has at most the sum over checks of |entries
flipping it|^2 rows, so it grows linearly with the code.  Any other
first entry lies inside s and has the lowest bit of s as its own lowest
bit, so it comes from that check's short list, and its partner is
looked up under the rest of s.  Three entries branch once more over the
entries flipping the lowest bit of s and close each child by the
two-entry step.  The brute-force scan below closes its choices by lookup
too, with no repair rule.

A state's completions depend on its key only through the exclusion
masks: the completions of a state are those of the empty key whose
masks miss its key.  So each search run keeps the empty key's
completions, as (key bits, exclusion mask) rows, per syndrome and number
of entries left, listed behind two cuts the first time it meets them,
and every finished state is served by one lookup and one AND against its
key per row; a syndrome with no completion keeps one shared empty tuple.
A state whose syndrome is zero is served one shared row that adds no
entry, so the loop over a state's rows is the one place that records.
The tables pay by reuse: on toric L=4 full at m_max 8 one run serves
75,848 states from 33,258 syndromes, 7,262 of them with rows.  They grow
with the search, so each stops growing at the memory cap, and later
syndromes are listed each time they are met.  Where every entry flips
at most two checks, a repair step clears one bit and sets at most one,
so the tables hold at most r(r + 1)/2 syndromes for r checks.

The reach cut comes before the three-entry step branches: reach[i] is
the OR of the syndrome words of every entry flipping check i, so the
child's entry, which flips the lowest bit i of s, changes no bit of s
outside reach[i].  Checks that no entry flips together need one entry
each, and a completion has at most two entries left.  So when the bits
of s outside reach[i] hold three such checks the state has no
completion, and when they hold two, a and b, a child whose syndrome has
a bit outside reach[a] | reach[b] has none.  The tail cut comes before
each two-entry step, from a syndrome w with lowest check j: the first
entry of a one- or two-entry completion flips j, so it lies inside
reach[j], and w & ~reach[j] is 0 or the second entry's bits outside
reach[j].  Those are the tails: every entry's word, and its bits
outside the reach of each check whose reach it meets, so a code with
bounded reach holds a number linear in its entries.  A syndrome whose
bits outside reach[j] are neither has no completion.  Where no entry's
word has more than two bits the problem builds no tails and the search
makes no tail cut.  The cuts drop only states with no completion, and
skipping one drops none, so every count stays exact.

A state's whole subtree depends only on its key, and most partial
clusters are reached by several orderings, mostly from different seeds.
So the first levels are grown breadth-first into a frontier that maps
each distinct partial cluster's key to its state: its syndrome, the
parent's XOR the word of the entry placed, and its path multiplicity,
the number of search paths reaching it.  The depth-first search enters
each frontier state as the empty state's one child, so one dispatch
finishes every state.  It counts each completion below a frontier state
with that state's multiplicity, and recomputes no syndrome from a key.
A fixed budget and the memory cap bound the frontier's size.  A census
deals the frontier's states into one strided share per worker, as (key,
syndrome, multiplicity) starts, searches each share apart (in process
when there is one, on a process pool otherwise), and merges the shares'
path counts and their maps from each distinct cluster's entry bits to
its class.  A share names its problem by code and sector, which a worker
reads from the problem cache, so no problem is pickled.

A census deduplicates recorded keys and classifies each distinct cluster
as irreducible (it admits no split into two undetectable pieces on
disjoint supports) and as a member of the degeneracy group or not.  A
weight-m cluster is irreducible when its entries' syndrome words have
rank m - 1.  A sector is graph-like when every position holds one entry
and every entry flips at most two checks (the toric code's single
sectors and its space-time code, planar hypergraph products): an entry
is an edge between its two checks, or from its one check to a phantom
check one bit past the last, and an entry that flips no check is a loop
at the phantom.  Every edge then has two ends, so the words of a
connected cluster have rank V - 1 for the V checks it touches, phantom
included.  The repair rule places every entry on a check that an earlier
entry left violated, so a recorded cluster is connected, and it is
irreducible exactly when V = m.  The key's bits above its entries are
the V checks, so the search classifies each cluster when it first
records it.  In every other sector the census takes the rank from
gf2.echelon after the search, on the map that ran it, in one strided
part of the merged clusters per share.  A cluster's word is the XOR of
one word per entry, (v|u) for a Pauli label and the column bit for a
binary entry.  An undetectable word lies in the degeneracy group exactly when
it meets every vector of the degeneracy rows' kernel evenly, and the
kernel vectors inside the checks' span meet every undetectable word
evenly; the problem build refuses degeneracy rows that a check meets
oddly, by gf2's BitMatrix.first_odd_pair.  So the census tests one
kernel vector per class modulo the checks' span: k of them in a single
sector, K in the space-time code and 2k in the full sector.  A
cluster's word meets such a vector oddly exactly when an odd number of
its entries' words do, so each vector is kept as the key mask of those
entries, its product by gf2's BitMatrix @ with the entries' words (in a
binary sector the vector itself), and every sector tests a cluster by
the parity of its key under each mask.  is_irreducible keeps the
rank by gf2.echelon, decompose splits along gf2.kernel vectors, and the
brute-force census tests subsets and the residue by the degeneracy rows'
echelon basis, so each checks the census's rules independently.

The brute-force census reproduces all four per-weight counts
independently: the zero-sum scanner gf2.zero_sum_choices, which also
serves the distance search, covers every choice of up to m_max
positions with one entry each and keeps the undetectable ones.  From
m_max 4 on it closes each choice's last two positions by one lookup in
a table of entry pairs on two positions, at most C(n, 2) w^2 rows for n
positions of w entries each, built per call and dropped when it returns.
Each undetectable choice, like each cluster is_irreducible_bruteforce
checks, gets the syndrome of every subset of its entries, a table that
doubles once per entry, and it is irreducible when no entry of the table
but the first and the last is zero.  Admissible orderings are counted,
not recursed over: one prefix size at a time, each prefix that some
ordering reaches pushes its count forward to every prefix one entry
larger that the repair rule admits, so a prefix no ordering reaches
costs nothing.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from itertools import repeat
from math import comb
from operator import add, or_, xor

from .codes import CssCode, FtCode, PauliOp, StabilizerCode
from .errors import ClusterBoundsError, ResourceCapError, ValidationError
from .gf2 import BitMatrix, echelon, kernel, residue, set_bits, zero_sum_choices, zero_sum_work

DEFAULT_CLUSTER_CAP = 10**7
# partial clusters held between the breadth-first and the depth-first
# search; a pooled census pickles each worker's share of them, and larger
# frontiers save little search time for their memory
_FRONTIER_BUDGET = 2048
_PAULI_LABELS = "XYZ"
_PAULI_LABEL_INDEX = {lab: i for i, lab in enumerate(_PAULI_LABELS)}
# the first entries of a state two entries short of the cap: one empty
# entry, so that it runs the two-entry step that a state three short runs
# after each first entry flipping the lowest bit of its syndrome
_NO_ENTRY = ((0, 0, 0),)
# the one row of a state whose syndrome is zero: it adds no entry and
# excludes nothing, so the state itself is recorded
_DONE = ((0, 0),)


@dataclass(frozen=True)
class Cluster:
    """One undetectable error configuration.

    positions are distinct column indices in ascending order; paulis
    gives the single-qubit label per position for full-Pauli clusters
    and is None for binary (single-sector or space-time) clusters.
    """

    positions: tuple[int, ...]
    paulis: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if len(set(self.positions)) != len(self.positions):
            raise ValidationError("cluster positions must be distinct")
        if tuple(sorted(self.positions)) != self.positions:
            raise ValidationError("cluster positions must be sorted")
        if self.paulis is not None and len(self.paulis) != len(self.positions):
            raise ValidationError("one Pauli label per position required")

    @property
    def weight(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class ClusterCensus:
    """Per-weight counts of recorded clusters, indexed by weight 0..m_max.

    distinct counts deduplicated clusters; irreducible counts the
    distinct ones admitting no disjoint-support split; subtracting the
    degeneracy-group members leaves irreducible_nonstabilizer.  paths
    counts completion events, i.e. clusters with ordering multiplicity.
    """

    distinct: tuple[int, ...]
    irreducible: tuple[int, ...]
    irreducible_nonstabilizer: tuple[int, ...]
    paths: tuple[int, ...]
    clusters: tuple[tuple[Cluster, ...], ...] | None = None

    @property
    def m_max(self) -> int:
        return len(self.distinct) - 1

    def weights(self) -> range:
        return range(1, self.m_max + 1)

    def count_fields(self) -> dict[str, tuple[int, ...]]:
        return {
            "distinct": self.distinct,
            "irreducible": self.irreducible,
            "irreducible_nonstabilizer": self.irreducible_nonstabilizer,
            "paths": self.paths,
        }

    def counts(self, field: str) -> dict[int, int]:
        values = self.count_fields()[field]
        return {m: values[m] for m in self.weights()}

    def same_counts(self, other: "ClusterCensus") -> bool:
        return self.count_fields() == other.count_fields()


# -- internal problem representation ----------------------------------


@dataclass(frozen=True)
class _Problem:
    width: int  # entries per position: 3 (labels X, Y, Z) in the full-Pauli sector, else 1
    syn: tuple[int, ...]  # per entry: syndrome word over the checks in search order
    # per entry: its word in the degeneracy group's space, (v|u) for a
    # Pauli label and the column bit for a binary entry
    deg: tuple[int, ...]
    # per check in search order: (syndrome word, key bit, exclusion mask)
    # of every entry that flips it
    branches: tuple
    # syndrome word -> (key bit, exclusion mask) of every entry with
    # exactly that word, in entry order
    closers: dict
    # syndrome word w -> (key bits, exclusion mask) of every ordered pair
    # of entries on different positions that share a check, have syndrome
    # words XORing to w, and whose first entry flips the lowest bit of w
    pairs: dict
    # per check in search order: (syndrome word, key bit, exclusion mask)
    # of every entry whose lowest syndrome bit is that check
    lowest: tuple
    # per check in search order: the OR of the syndrome words of every
    # entry that flips it, the checks an entry placed there can touch
    reach: tuple
    # where some entry's word has more than two bits: every entry's
    # syndrome word d, and d & ~reach[c] for every check c whose reach d
    # meets (0 for each check of d), so the bits outside reach[j] of every
    # one- or two-entry completion word whose lowest check is j; elsewhere
    # empty, and the search makes no tail cut
    tails: frozenset
    # per entry: (syndrome word, key bit, exclusion mask); in a
    # graph-like sector (width 1, no word of more than two bits) entry
    # e's key bit also sets its edge len(syn) bits up: its syndrome word,
    # with a phantom check one bit past the last for an entry that flips
    # fewer than two checks
    seeds: tuple
    # echelon basis of the degeneracy group's rows
    degeneracy: dict
    # one key mask per class of the degeneracy rows' kernel modulo the
    # checks' span, setting the entries whose words meet the class's
    # vector oddly: an undetectable cluster lies in the degeneracy group
    # exactly when its key meets each of them evenly
    parities: tuple
    # m -> closed-form ceiling on the weight-m recursion paths
    bound: partial

    def cluster_of(self, entries) -> Cluster:
        positions = tuple(e // self.width for e in entries)
        if self.width == 1:
            return Cluster(positions)
        return Cluster(positions, tuple(_PAULI_LABELS[e % 3] for e in entries))

    def entries_of_cluster(self, cluster: Cluster) -> tuple[int, ...]:
        n = len(self.syn) // self.width
        if not all(0 <= j < n for j in cluster.positions):
            raise ValidationError(f"cluster positions must lie in 0..{n - 1}")
        if self.width == 1:
            if cluster.paulis is not None:
                raise ValidationError("binary sector expects clusters without Pauli labels")
            return cluster.positions
        if cluster.paulis is None:
            raise ValidationError("full-Pauli sector expects labelled clusters")
        labels = [_PAULI_LABEL_INDEX.get(str(ch).upper()) for ch in cluster.paulis]
        if None in labels:
            raise ValidationError(f"Pauli labels must be X, Y or Z, got {cluster.paulis}")
        return tuple(3 * j + lab for j, lab in zip(cluster.positions, labels))

    def in_degeneracy(self, entries) -> bool:
        """Whether the XOR of the entries' words lies in the degeneracy group."""
        return not residue(self.degeneracy, reduce(xor, (self.deg[e] for e in entries), 0))


# every caller works on one code at a time, and a large code's problem
# holds megabytes (toric L=12 full: about 3.4 MB), so only a few are kept
@lru_cache(maxsize=4)
def _build_problem(code, sector: str) -> _Problem:
    if sector == "full":
        if isinstance(code, CssCode):
            stab = code.stabilizer
        elif isinstance(code, StabilizerCode):
            stab = code
        else:
            raise ValidationError("full-Pauli enumeration needs a stabilizer or CSS code")
        n = stab.n
        words = [
            PauliOp.single(n, j, lab).to_binary().bits
            for j in range(n)
            for lab in _PAULI_LABELS
        ]
        # a check-matrix row meets a (v|u) word with odd parity exactly
        # when the generator and the entry anticommute
        return _problem(stab.H, words, 3, stab.G, partial(cluster_count_bound, n, stab.w))
    if sector in ("x", "z"):
        if not isinstance(code, CssCode):
            raise ValidationError("single-sector enumeration needs a CSS code")
        checks, degeneracy = code.sector(sector)
        bound = partial(cluster_count_bound_css, code.n, checks.max_row_weight())
    elif sector == "ft":
        if not isinstance(code, FtCode):
            raise ValidationError("space-time enumeration needs an FtCode")
        checks, degeneracy = code.P, code.Q
        qubit_mask = (1 << code.qubit_cols) - 1
        bound = partial(
            cluster_count_bound_ft_total,
            code.n,
            code.r,
            max((row & qubit_mask).bit_count() for row in checks.rows),
        )
    else:
        raise ValidationError(f"unknown sector {sector!r}, expected full, x, z or ft")
    return _problem(checks, [1 << j for j in range(checks.cols)], 1, degeneracy, bound)


def _problem(
    checks: BitMatrix, words: list[int], width: int, degeneracy: BitMatrix, bound: partial
) -> _Problem:
    """Entry e is word words[e] and flips check i when words[e] meets
    row i of checks with odd parity.  Checks are served in ascending
    order of the number of positions they touch, ties by row index.

    Which entries a row meets oddly is one GF(2) product: column e of
    meets is words[e], so row i of checks @ meets is the key mask of the
    entries flipping check i, and a kernel class's row times meets is
    its parity mask.  The entries' syndromes are the transpose of the
    flip masks taken in search order."""
    if degeneracy.first_odd_pair(checks):
        raise ValidationError("every degeneracy row must be undetectable by the checks")
    meets = BitMatrix(tuple(words), checks.cols).transpose()
    flips = (checks @ meets).rows
    order = sorted(
        range(len(flips)), key=lambda i: (len({e // width for e in set_bits(flips[i])}), i)
    )
    syn = BitMatrix(tuple(flips[c] for c in order), len(words)).transpose().rows
    position, n, phantom = (1 << width) - 1, len(words), 1 << len(order)
    graph_like = width == 1 and all(s.bit_count() <= 2 for s in syn)
    tags = [(s if s.bit_count() == 2 else s | phantom) << n if graph_like else 0 for s in syn]
    seeds = tuple((s, 1 << e | tags[e], position << (e - e % width)) for e, s in enumerate(syn))
    closers: dict[int, list[tuple[int, int]]] = {}
    lowest: list[list[tuple[int, int, int]]] = [[] for _ in order]
    for ds, bit, excl in seeds:
        closers.setdefault(ds, []).append((bit, excl))
        if ds:
            lowest[(ds & -ds).bit_length() - 1].append((ds, bit, excl))
    # a pair is listed once, under the lowest check both entries flip, so
    # the table has at most the sum over checks of |entries flipping it|^2
    # rows
    branches = tuple(tuple(seeds[e] for e in set_bits(flips[c])) for c in order)
    pairs: dict[int, list[tuple[int, int]]] = {}
    for i, flipping in enumerate(branches):
        for d1, b1, x1 in flipping:
            for d2, b2, x2 in flipping:
                shared, w = d1 & d2, d1 ^ d2
                if (shared & -shared) >> i == 1 and d1 & w & -w and not b1 & x2:
                    pairs.setdefault(w, []).append((b1 | b2, x1 | x2))
    reach = tuple(reduce(or_, (ds for ds, _, _ in flipping), 0) for flipping in branches)
    # reach is symmetric, check c lying in reach[i] when an entry flips
    # both, so the checks whose reach meets d are the reach of d's checks;
    # where no word has more than two bits the fills run without the cut
    tails = set(syn) if any(s.bit_count() > 2 for s in syn) else set()
    for ds in set(tails):
        near = reduce(or_, (reach[i] for i in set_bits(ds)), 0)
        tails.update(ds & ~reach[c] for c in set_bits(near))
    # the check rows lie in the degeneracy rows' kernel, so the kernel
    # vectors that give the checks' echelon basis new keys are a basis of
    # that kernel modulo the checks
    kernel_words = [v.bits for v in degeneracy.kernel_basis()]
    check_basis = echelon(checks.rows)
    basis = echelon([*checks.rows, *kernel_words])
    return _Problem(
        width=width,
        syn=syn,
        deg=tuple(words),
        branches=branches,
        closers=closers,
        pairs=pairs,
        lowest=tuple(tuple(low) for low in lowest),
        reach=reach,
        tails=frozenset(tails),
        seeds=seeds,
        degeneracy=echelon(degeneracy.rows),
        parities=(
            BitMatrix(tuple(p for top, p in basis.items() if top not in check_basis), checks.cols)
            @ meets
        ).rows,
        bound=bound,
    )


# -- recursive enumeration ---------------------------------------------


def _frontier(problem: _Problem, m_max: int, limit: int) -> dict[int, tuple[int, int]]:
    """Grow the search breadth-first from the single entries; returns a
    map from each partial cluster's key to its state: its syndrome and
    its multiplicity, the number of search paths that reach it.  A
    child's syndrome is its parent's XOR the word of the entry it adds.

    A state's subtree depends only on its key: the syndrome, the depth,
    the next check and the exclusions all follow from it.  So every
    ordering that reaches a key is searched once, from that key, with
    its multiplicity.  Only states of depth m_max - 3 or less are
    expanded (deeper ones are finished in one step), and only while the
    frontier holds at most limit keys, so it never holds more than limit
    keys plus one state's children (the first layer is
    the children of the empty cluster).  The unexpanded rest of a partly
    grown layer stays at its depth.  Completed keys (zero syndrome) stay
    in the frontier and are recorded from it."""
    layer = {bit: (s, 1) for s, bit, _ in problem.seeds}
    for _ in range(m_max - 3):
        grown: dict[int, tuple[int, int]] = {}
        while layer:
            if len(layer) + len(grown) > limit:
                grown.update(layer)
                return grown
            key, (s, mult) = layer.popitem()
            if s == 0:
                grown[key] = (s, mult)
                continue
            for ds, bit, excl in problem.branches[(s & -s).bit_length() - 1]:
                if not key & excl:
                    child = key | bit
                    grown[child] = (s ^ ds, grown.get(child, (0, 0))[1] + mult)
        layer = grown
    return layer


def _cap_error(cap: int) -> ResourceCapError:
    """The error of a census that finds more than cap distinct clusters."""
    return ResourceCapError(f"more than {cap} distinct clusters; raise the memory cap to continue")


def _run_seeds(code, sector: str, starts, m_max: int, cap: int):
    """Depth-first search from (key, syndrome, multiplicity) starts on the
    problem of (code, sector); returns per-weight path counts and a dict
    from each distinct recorded cluster's entry bits to its class,
    raising ResourceCapError once there are more than cap of them.  The
    class is whether the cluster is irreducible, V = m for the V checks
    its key's high bits name, in a graph-like sector, and None in any
    other.

    Each start is the empty state's one child, placed by an entry whose
    word is its syndrome and whose key bits are its key; that entry's
    exclusion mask 0 is only tested against the empty key.  So go alone
    decides how a state finishes, and every completion below a start is
    recorded with the start's multiplicity: paths counts the search paths
    through all orderings that reach the start's key.  A start with no
    entries left and a nonzero syndrome has no completion and is dropped.
    A state with zero syndrome takes the one row _DONE.  A state with
    nonzero syndrome and more than three entries left branches.  Any
    other is finished from this run's tables (module docstring):
    complete(s, left) lists the empty key's rows after the reach and tail
    cuts, the first time s is met with that many entries left, and keeps
    them while the table holds fewer than cap syndromes.  One loop over a
    state's rows records every completion: it counts the key's paths,
    stops the run past cap distinct keys and sets the key's class."""
    problem = _build_problem(code, sector)
    branches, closers, pairs, lowest, reach, tails = (
        problem.branches, problem.closers, problem.pairs, problem.lowest, problem.reach,
        problem.tails,
    )
    paths = [0] * (m_max + 1)
    found: dict[int, bool | None] = {}
    mult = 1
    n = len(problem.syn)
    entries = (1 << n) - 1
    # tables[left], for 1 <= left <= 3: syndrome -> the rows for key 0
    tables: tuple[dict[int, list], ...] = ({}, {}, {}, {})

    def complete(s: int, left: int):
        # the empty key's rows for syndrome s and left entries, kept in
        # tables[left] while it holds fewer than cap syndromes
        rows: list = []
        firsts, outside = _NO_ENTRY, 0
        if left == 1:
            rows, firsts = closers.get(s, ()), ()
        elif left == 3:
            # the reach cut: the checks of s outside reach[i] stay violated
            # in every child; three that no entry flips in pairs need three
            # more entries, and two, a and b, need one entry inside
            # reach[a] and one inside reach[b]
            i = (s & -s).bit_length() - 1
            firsts, kept = branches[i], s & ~reach[i]
            if kept:
                reach_a = reach[(kept & -kept).bit_length() - 1]
                rest = kept & ~reach_a
                if rest:
                    reach_b = reach[(rest & -rest).bit_length() - 1]
                    outside = ~(reach_a | reach_b)
                    if rest & ~reach_b:
                        firsts = ()
        for d0, b0, x0 in firsts:
            ns = s ^ d0
            if ns == 0:
                rows.append((b0, x0))
                continue
            if ns & outside:
                continue
            # the tail cut: the bits of ns outside reach[j] are none or the
            # second entry's bits outside it, both in tails where it is built
            j = (ns & -ns).bit_length() - 1
            if tails and ns & ~reach[j] not in tails:
                continue
            # the two-entry step from syndrome ns, after the first entry
            for bits, x in pairs.get(ns, ()):
                if not b0 & x:
                    rows.append((b0 | bits, x0 | x))
            for d1, b1, x1 in lowest[j]:
                if d1 & ~ns or b0 & x1:
                    continue
                if d1 == ns:
                    rows.append((b0 | b1, x0 | x1))
                    continue
                child = b0 | b1
                for b2, x2 in closers.get(ns ^ d1, ()):
                    if not child & x2:
                        rows.append((child | b2, x0 | x1 | x2))
        # a dead syndrome keeps the one shared empty tuple
        rows = rows or ()
        if len(tables[left]) < cap:
            tables[left][s] = rows
        return rows

    def go(key: int, s: int, left: int, firsts) -> None:
        left -= 1
        for ds, bit, excl in firsts:
            if key & excl:
                continue
            ns = s ^ ds
            child = key | bit
            if ns == 0:
                rows = _DONE
            elif left > 3:
                go(child, ns, left, branches[(ns & -ns).bit_length() - 1])
                continue
            else:
                rows = tables[left].get(ns)
                if rows is None:
                    rows = complete(ns, left)
            for bits, x in rows:
                if not child & x:
                    done = child | bits
                    k = done & entries
                    m = k.bit_count()
                    paths[m] += mult
                    if k not in found:
                        if len(found) >= cap:
                            raise _cap_error(cap)
                        touched = done >> n
                        found[k] = touched.bit_count() == m if touched else None

    for key, s, mult in starts:
        left = m_max - (key & entries).bit_count()
        if left or not s:
            go(0, 0, left + 1, ((s, key, 0),))
    # go refers to itself, so without this the run's tables would outlive
    # it until a full garbage collection
    del go
    return paths, found


def _rank(code, sector: str, keys: list[int]) -> list[bool]:
    """Whether each cluster, given by its entry bits, is irreducible: its
    entries' syndrome words have rank m - 1."""
    syn = _build_problem(code, sector).syn
    return [key.bit_count() - len(echelon([syn[e] for e in set_bits(key)])) == 1 for key in keys]


def _census(distinct, irred, nonstab, paths, kept) -> ClusterCensus:
    clusters = None
    if kept is not None:
        clusters = tuple(
            tuple(sorted(cl, key=lambda c: (c.positions, c.paulis or ()))) for cl in kept
        )
    return ClusterCensus(
        distinct=tuple(distinct),
        irreducible=tuple(irred),
        irreducible_nonstabilizer=tuple(nonstab),
        paths=tuple(paths),
        clusters=clusters,
    )


def _classify(problem: _Problem, found: dict, paths: list[int], keep: bool) -> ClusterCensus:
    m_max = len(paths) - 1
    distinct = [0] * (m_max + 1)
    irred = [0] * (m_max + 1)
    nonstab = [0] * (m_max + 1)
    kept: list[list[Cluster]] | None = [[] for _ in range(m_max + 1)] if keep else None
    parities = problem.parities
    for key, irreducible in found.items():
        m = key.bit_count()
        distinct[m] += 1
        if irreducible:
            irred[m] += 1
            for p in parities:
                if (key & p).bit_count() & 1:
                    nonstab[m] += 1
                    break
        if kept is not None:
            kept[m].append(problem.cluster_of(set_bits(key)))
    return _census(distinct, irred, nonstab, paths, kept)


def enumerate_clusters(
    code,
    m_max: int,
    sector: str = "full",
    workers: int = 1,
    max_stored: int = DEFAULT_CLUSTER_CAP,
    keep_clusters: bool = False,
) -> ClusterCensus:
    """Run the recursive search up to weight m_max and build a census.

    Checks are served in a fixed order (ascending weight, ties by
    original row index) so the counts are reproducible.  The first
    search levels are grown breadth-first into a frontier of distinct
    partial clusters, each searched once.  Frontier key i goes to share
    i mod N, for N = min(workers, frontier size), and one map runs the
    depth-first search on every share: the built-in map for one share,
    a pool of N worker processes for more.  A share carries (code,
    sector): a forked worker finds the problem in the _build_problem
    cache it inherited, and any other builds it once.  The shares' path
    counts are summed and their dicts of distinct clusters merged into
    the first, so the census does not depend on the worker count or the
    schedule.  The same map then ranks, in N strided parts, the merged
    clusters whose class the search left open (outside the graph-like
    sectors, where it leaves none and the map does not run), so a pooled
    census does no elimination in the parent.

    max_stored caps the census's distinct clusters: the run raises
    ResourceCapError exactly when there are more, whatever the worker
    count.  Each share's search stops once it holds more than max_stored
    distinct clusters, and the merged keys are checked once.  The search
    also holds up to min(_FRONTIER_BUDGET, max_stored) partial clusters
    in its frontier.  The shares overlap in the clusters they find, so a
    run on N workers may hold up to N times the cap.  Each share's
    search also holds its completion tables, one per number of entries
    left (1 to 3), keyed by the syndromes it meets and each stopping at
    max_stored keys; at most r(r + 1)/2 keys each for r checks in a
    graph-like sector.  In the full-Pauli sector they are most of what a
    worker holds: on toric L=12 full at m_max 8 one worker keeps about
    0.48 million syndromes and peaked at 92 MB RSS, against 24 MB when
    only syndromes of at most two bits were kept.  The problem's
    tails, like its pair table, are bounded by the code: at most one
    word per entry and check whose reach its word meets, plus the
    entries' own words.
    """
    if m_max < 1:
        raise ValidationError("m_max must be at least 1")
    if workers < 1:
        raise ValidationError("workers must be at least 1")
    if max_stored < 1:
        raise ValidationError(f"max_stored must be at least 1, got {max_stored}")
    problem = _build_problem(code, sector)
    limit = min(_FRONTIER_BUDGET, max_stored)
    starts = [(key, s, mult) for key, (s, mult) in _frontier(problem, m_max, limit).items()]
    n = min(workers, len(starts))
    pool, run = nullcontext(), map
    if n > 1:
        # only pooled runs pay for loading the process machinery
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(n)
        run = pool.map
    paths, found = [0] * (m_max + 1), {}
    with pool:
        shares = [starts[i::n] for i in range(n)]
        results = run(
            _run_seeds, repeat(code), repeat(sector), shares, repeat(m_max), repeat(max_stored)
        )
        # each share is freed once its run is done; dropping the frontier
        # keeps it out of the merge, where the parent's memory peaks
        del starts, shares
        for share_paths, share in results:
            paths = [*map(add, paths, share_paths)]
            if found:
                found.update(share)
            else:
                found = share
        if len(found) > max_stored:
            raise _cap_error(max_stored)
        # a graph-like sector's search leaves no class open, and its census
        # skips the map's round trip
        unranked = [key for key, irreducible in found.items() if irreducible is None]
        if unranked:
            parts = [unranked[i::n] for i in range(n)]
            for part, ranks in zip(parts, run(_rank, repeat(code), repeat(sector), parts)):
                found.update(zip(part, ranks))
    return _classify(problem, found, paths, keep_clusters)


# -- irreducibility -----------------------------------------------------


def _columns(code, cluster: Cluster, sector: str):
    """The problem, entries and per-entry syndrome words of a nonempty
    undetectable cluster."""
    problem = _build_problem(code, sector)
    entries = problem.entries_of_cluster(cluster)
    if not entries:
        raise ValidationError("cluster has no entries")
    cols = [problem.syn[e] for e in entries]
    if reduce(xor, cols, 0):
        raise ValidationError("cluster is detectable, not undetectable")
    return problem, entries, cols


def is_irreducible(code, cluster: Cluster, sector: str = "full") -> bool:
    """Kernel test for Definition-style irreducibility.

    The columns of per-entry syndromes span a space whose kernel always
    contains the all-ones vector (the whole cluster is undetectable);
    any further kernel vector selects an undetectable proper piece and
    its complement, i.e. a decomposition.  So the cluster is irreducible
    exactly when that kernel is one-dimensional.
    """
    _, entries, cols = _columns(code, cluster, sector)
    return len(entries) - len(echelon(cols)) == 1


def is_irreducible_bruteforce(code, cluster: Cluster, sector: str = "full") -> bool:
    """Oracle form: scan all proper nonempty sub-supports for an
    undetectable restriction.  Weight is capped at 20."""
    if cluster.weight > 20:
        raise ValidationError("brute-force irreducibility capped at weight 20")
    _, _, cols = _columns(code, cluster, sector)
    return _no_undetectable_part(_subset_syndromes(cols))


def decompose(code, cluster: Cluster, sector: str = "full") -> tuple[Cluster, ...]:
    """Split an undetectable cluster into irreducible pieces on disjoint
    supports (the pieces multiply back to the cluster)."""
    problem, entries, cols = _columns(code, cluster, sector)

    def split(entry_idx: list[int]) -> list[list[int]]:
        m = len(entry_idx)
        full = (1 << m) - 1
        x = next((x for x in kernel([cols[i] for i in entry_idx]) if x != full), None)
        if x is None:
            return [entry_idx]
        return split([entry_idx[i] for i in set_bits(x)]) + split(
            [entry_idx[i] for i in set_bits(full ^ x)]
        )

    parts = split(list(range(len(entries))))
    return tuple(problem.cluster_of([entries[i] for i in sorted(part)]) for part in parts)


# -- brute-force census --------------------------------------------------


def _subset_syndromes(syn_entry: list[int]) -> list[int]:
    """The syndrome of every subset of the entries, indexed by its mask
    (bit i for entry i).  The table doubles once per entry: the subsets
    holding entry i are those without it, each XORed with its word."""
    table = [0]
    for word in syn_entry:
        table += [t ^ word for t in table]
    return table


def _count_orderings(syn_entry: list[int], table: list[int]) -> int:
    """Number of entry orderings the repair rule admits.

    A prefix may extend only while its syndrome is nonzero, and the next
    entry must flip the lowest set syndrome bit of the prefix.  Each
    layer maps every prefix of one size that the rule reaches to its
    number of admissible orderings, and each prefix pushes its count
    forward to itself plus each entry outside it that flips that bit;
    a prefix whose syndrome is zero pushes nothing.
    """
    m = len(syn_entry)
    layer = {1 << i: 1 for i in range(m)}
    # entries flipping a syndrome bit, as one mask, per lowest bit met
    flips: dict[int, int] = {}
    for _ in range(m - 1):
        pushed: dict[int, int] = {}
        for s, count in layer.items():
            t = table[s]
            if not t:
                continue
            low = t & -t
            if low not in flips:
                flips[low] = sum(1 << i for i, word in enumerate(syn_entry) if word & low)
            rest = flips[low] & ~s
            while rest:
                bit = rest & -rest
                rest ^= bit
                pushed[s | bit] = pushed.get(s | bit, 0) + count
        layer = pushed
    return layer.get((1 << m) - 1, 0)


def _no_undetectable_part(table: list[int]) -> bool:
    """Whether no proper nonempty subset of an undetectable cluster is
    undetectable, from its subset table: the first zero after the empty
    subset's must be the whole cluster's, the last entry."""
    return table.index(0, 1) == len(table) - 1


def brute_force_census(
    code,
    m_max: int,
    sector: str = "full",
    guard: int = 10**8,
    keep_clusters: bool = False,
) -> ClusterCensus:
    """Exhaustive ground-truth census.

    Every configuration of up to m_max entries on distinct positions is
    scanned; undetectable ones are classified, and recursion-path counts
    are recovered by counting admissible orderings per configuration.
    Configurations with no admissible ordering (disconnected pieces the
    search can never assemble) are excluded from the distinct count,
    matching the recursive enumeration exactly.  A scan that would make
    more than guard table rows and lookups (gf2.zero_sum_work) is
    refused with ResourceCapError before it starts.
    """
    if m_max < 1:
        raise ValidationError("m_max must be at least 1")
    problem = _build_problem(code, sector)
    width = problem.width
    n = len(problem.syn) // width
    work = zero_sum_work([width] * n, m_max)
    if work > guard:
        raise ResourceCapError(
            f"brute-force scan needs {work} table rows and lookups, above the guard {guard}"
        )

    distinct = [0] * (m_max + 1)
    irred = [0] * (m_max + 1)
    nonstab = [0] * (m_max + 1)
    paths = [0] * (m_max + 1)
    kept: list[list[Cluster]] | None = [[] for _ in range(m_max + 1)] if keep_clusters else None

    def on_hit(entries: tuple[int, ...]) -> None:
        m = len(entries)
        syn_entry = [problem.syn[e] for e in entries]
        table = _subset_syndromes(syn_entry)
        orderings = _count_orderings(syn_entry, table)
        if _no_undetectable_part(table):
            if not orderings:
                raise ClusterBoundsError("irreducible cluster missed by the ordering rule")
            irred[m] += 1
            if not problem.in_degeneracy(entries):
                nonstab[m] += 1
        if orderings:
            distinct[m] += 1
            paths[m] += orderings
            if kept is not None:
                kept[m].append(problem.cluster_of(entries))

    groups = [
        [(problem.syn[e], e) for e in range(j * width, (j + 1) * width)] for j in range(n)
    ]
    zero_sum_choices(groups, m_max, on_hit)
    return _census(distinct, irred, nonstab, paths, kept)


# -- closed-form counting bounds -----------------------------------------


def cluster_count_bound(n: int, w: int, m: int) -> int:
    """Recursion-path ceiling for full-Pauli enumeration: 3n seeds and at
    most 2(w-1) continuations per repair step."""
    if m < 1:
        raise ValidationError("m must be at least 1")
    return 3 * n * (2 * (w - 1)) ** (m - 1)


def cluster_count_bound_css(n: int, w_opposite: int, m: int) -> int:
    """Single-sector ceiling: n seeds and w-1 continuations, where w is
    the opposite-type generator weight."""
    if m < 1:
        raise ValidationError("m must be at least 1")
    return n * (w_opposite - 1) ** (m - 1)


def cluster_count_bound_ft(n: int, r: int, w: int, m: int, m_q: int) -> int:
    """Space-time ceiling on weight-m recursion paths whose m - 1
    continuations are m_q qubit steps (w choices each) and m - 1 - m_q
    syndrome steps (2 each).  Summed over m_q it is
    cluster_count_bound_ft_total; it is 0 at m_q = m, so it does not
    bound clusters by qubit entries (toric L=2 over 2 rounds has 38
    all-qubit clusters of weight 4)."""
    if m < 1:
        raise ValidationError("m must be at least 1")
    if not 0 <= m_q <= m:
        raise ValidationError("need 0 <= m_q <= m")
    c = comb(m - 1, m_q)
    if c == 0:
        return 0
    return (3 * n + r) * c * w**m_q * 2 ** (m - m_q - 1)


def cluster_count_bound_ft_total(n: int, r: int, w: int, m: int) -> int:
    """Sum of the space-time ceiling over the qubit/syndrome split."""
    if m < 1:
        raise ValidationError("m must be at least 1")
    return (3 * n + r) * (w + 2) ** (m - 1)


def census_bound(code, sector: str, m: int) -> int:
    """Bound column for census tables, matched to the sector."""
    return _build_problem(code, sector).bound(m)
