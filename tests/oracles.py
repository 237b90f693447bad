"""Literal enumeration oracles.

zero_sum_choices_literal scans every choice of groups and entries
outright, for checking gf2.zero_sum_choices.  subset_xors lists the XOR
of every subset of a word list outright, for checking the echelon,
residue and kernel routines of gf2 and the brute-force census's subset
table.  orderings_literal walks every permutation of a word list and
applies the search's repair rule step by step, for checking the
brute-force census's ordering count.  toric_rows_literal lays out the
toric code's plaquette and site rows bond by bond, for checking that the
hypergraph-product construction keeps the lattice's check order.
cubic_polygons counts the simple cubic lattice's self-avoiding polygons
by walking them, for checking space-time censuses past brute-force
reach.  anticommuting_pair_literal, nonorthogonal_pair_literal and
detectable_row_literal scan pairs of rows one at a time, the way code
construction once checked generators and degeneracy rows, for checking
gf2.BitMatrix.first_odd_pair.  ft_extend_blocks lays out the space-time
code block by block, with the repetition code's transpose, a separate
single-round case and the source sizes stored beside the matrices, for
checking that codes.ft_extend_matrices builds the same code as one
hypergraph product.  problem_literal finds each check's entries, each
entry's syndrome and key bit and each kernel class's parity mask by
scanning words bit by bit, and write_alist_literal lists an alist's
columns by appending row indices, for checking that the census problem
and alist output read these off gf2.BitMatrix products and transposes.

Each bad-error oracle walks every error configuration on a weight-m support,
computes the configuration's probability and the probability of the
inverted configuration exactly (integer numerators over one shared
denominator of the given float rates), and adds up the configurations
whose inversion is at least as likely.  These stay independent of the
closed-form region sums they are used to check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from clusterbounds.errors import ValidationError
from clusterbounds.gf2 import BitMatrix, echelon, hstack


@lru_cache(maxsize=None)
def _count_classes(n_states: int, m: int):
    """Walk all n_states**m configurations, grouped by state counts."""
    hits: dict[tuple[int, ...], int] = {}
    for cfg in itertools.product(range(n_states), repeat=m):
        key = tuple(cfg.count(s) for s in range(n_states))
        hits[key] = hits.get(key, 0) + 1
    return tuple(hits.items())


def _bad_sum(state_probs: tuple[Fraction, ...], inverted: tuple[int, ...], m: int) -> float:
    # every configuration's probability and its inversion's are integer
    # numerators over one denominator, den**m, so they compare and add
    # as integers and the sum is divided once
    den = lcm(*(prob.denominator for prob in state_probs))
    nums = [prob.numerator * (den // prob.denominator) for prob in state_probs]
    total = 0
    for counts, mult in _count_classes(len(state_probs), m):
        pe = 1
        pinv = 1
        for s, c in enumerate(counts):
            if c:
                pe *= nums[s] ** c
                pinv *= nums[inverted[s]] ** c
        if pinv >= pe:
            total += mult * pe
    return float(Fraction(total, den**m))


def bad_sum_css(m: int, y: float, p: float) -> float:
    """States per position: intact, erased, flipped; inversion swaps
    intact and flipped."""
    fy, fp = Fraction(y), Fraction(p)
    probs = ((1 - fy) * (1 - fp), fy, (1 - fy) * fp)
    return _bad_sum(probs, (2, 1, 0), m)


def bad_sum_depol(m: int, y: float, p: float) -> float:
    """States: intact, erased, matching error, two differing errors;
    inversion swaps intact with matching and the two differing kinds."""
    fy, fp = Fraction(y), Fraction(p)
    third = (1 - fy) * fp / 3
    probs = ((1 - fy) * (1 - fp), fy, third, third, third)
    return _bad_sum(probs, (2, 1, 0, 4, 3), m)


def bad_sum_ft(m: int, m_q: int, p: float, q: float) -> float:
    """Binary flips on m_q qubit positions and m - m_q syndrome
    positions; inversion complements every position."""
    fp, fq = Fraction(p), Fraction(q)
    # integer numerators over the shared denominator pd**m_q * qd**(m - m_q)
    total = 0
    for cfg in itertools.product((0, 1), repeat=m):
        pe = 1
        pinv = 1
        for i, flip in enumerate(cfg):
            r = fp if i < m_q else fq
            pe *= r.numerator if flip else r.denominator - r.numerator
            pinv *= (r.denominator - r.numerator) if flip else r.numerator
        if pinv >= pe:
            total += pe
    return float(Fraction(total, fp.denominator**m_q * fq.denominator ** (m - m_q)))


def zero_sum_choices_literal(groups, max_size: int) -> list[tuple]:
    """Item tuples of every choice of at most max_size groups, one
    (word, item) pair from each, whose words XOR to zero."""
    hits = []
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(range(len(groups)), size):
            for pairs in itertools.product(*(groups[g] for g in combo)):
                acc = 0
                for word, _ in pairs:
                    acc ^= word
                if acc == 0:
                    hits.append(tuple(item for _, item in pairs))
    return hits


def anticommuting_pair_literal(G) -> tuple[int, int] | None:
    """The first pair i < j of symplectic generator rows, laid out
    (v | u), whose symplectic product is odd; None if all commute."""
    n = G.cols // 2
    mask = (1 << n) - 1
    for i, j in itertools.combinations(range(G.nrows), 2):
        ri, rj = G.rows[i], G.rows[j]
        sp = ((ri & mask) & (rj >> n)).bit_count() + ((ri >> n) & (rj & mask)).bit_count()
        if sp & 1:
            return i, j
    return None


def nonorthogonal_pair_literal(G_X, G_Z) -> tuple[int, int] | None:
    """The first (X row, Z row) pair, X rows outermost, that overlaps
    on an odd number of qubits; None if the sectors are orthogonal."""
    for i, rx in enumerate(G_X.rows):
        for j, rz in enumerate(G_Z.rows):
            if (rx & rz).bit_count() & 1:
                return i, j
    return None


def detectable_row_literal(H, G) -> int | None:
    """The first row of G that some row of H meets oddly; None if every
    row of G is undetectable by H."""
    for i, g in enumerate(G.rows):
        if any((h & g).bit_count() & 1 for h in H.rows):
            return i
    return None


def repetition_transpose(m: int) -> BitMatrix:
    """The m x (m-1) bidiagonal matrix coupling consecutive rounds: the
    transpose of the repetition code's checks, row i = bits i and i+1."""
    if m < 2:
        raise ValidationError("need m >= 2")
    return BitMatrix(tuple(3 << i for i in range(m - 1)), m).transpose()


@dataclass(frozen=True)
class FtBlocks:
    """A space-time code with its source sizes n and r stored beside P."""

    m: int
    P: BitMatrix
    Q: BitMatrix
    n: int
    r: int
    D_ft: int | None = None

    @property
    def N(self) -> int:
        return self.P.cols

    @property
    def w(self) -> int:
        return self.P.max_row_weight()

    @property
    def K(self) -> int:
        return self.N - self.P.rank() - self.Q.rank()

    @property
    def qubit_cols(self) -> int:
        return self.m * self.n


def ft_extend_blocks(H, G, m: int, d: int | None = None) -> FtBlocks:
    """The space-time code of a (checks, degeneracy) pair over m rounds,
    block by block: P = (I_m (x) H | R (x) I_r) and Q stacks
    (R^T (x) I_n | I_(m-1) (x) H^T) over (I_m (x) G | 0), with R the
    repetition transpose; one round is the bare pair."""
    if m < 1:
        raise ValidationError(f"need at least one measurement round, got {m}")
    if d is not None and d < 1:
        raise ValidationError(f"known distance must be at least 1, got {d}")
    r, n = H.shape
    if G.cols != n:
        raise ValidationError("H and G must act on the same columns")
    row = detectable_row_literal(H, G)
    if row is not None:
        raise ValidationError(f"degeneracy row {row} is detectable, not undetectable")
    if m == 1:
        return FtBlocks(1, H, G, n, r, d)
    im = BitMatrix.identity(m)
    R = repetition_transpose(m)
    P = hstack(im.kron(H), R.kron(BitMatrix.identity(r)))
    top = hstack(
        R.transpose().kron(BitMatrix.identity(n)),
        BitMatrix.identity(m - 1).kron(H.transpose()),
    )
    bottom = hstack(im.kron(G), BitMatrix((0,) * (m * G.nrows), (m - 1) * r))
    return FtBlocks(m, P, BitMatrix(top.rows + bottom.rows, top.cols), n, r, d)


def _bits(word: int) -> list[int]:
    return [b for b in range(word.bit_length()) if word >> b & 1]


def problem_literal(checks, words, width: int, degeneracy):
    """(syn, seeds, branches, parities) of the census problem, entry by
    entry: each check row's parity is taken over the entries holding its
    set bits, the checks are ordered by the positions they touch (ties by
    row index), and each kernel class's parity mask sets the entries
    whose words meet its vector oddly.  When every position holds one
    entry and no entry flips more than two checks, an entry's key bit
    also sets, len(words) bits up, the search index of each check it
    flips, and of a phantom check past the last if it flips fewer than
    two."""
    holders: dict[int, list[int]] = {}
    for e, w in enumerate(words):
        for b in _bits(w):
            holders.setdefault(b, []).append(e)
    flips = []
    for row in checks.rows:
        odd: set[int] = set()
        for b in _bits(row):
            odd.symmetric_difference_update(holders.get(b, ()))
        flips.append(sorted(odd))
    order = sorted(range(len(flips)), key=lambda i: (len({e // width for e in flips[i]}), i))
    syn = [0] * len(words)
    for i, c in enumerate(order):
        for e in flips[c]:
            syn[e] |= 1 << i
    ends = [[i for i, c in enumerate(order) if e in flips[c]] for e in range(len(words))]
    graph_like = width == 1 and all(len(flipped) <= 2 for flipped in ends)
    position = (1 << width) - 1
    seeds = []
    for e, flipped in enumerate(ends):
        bit = 1 << e
        if graph_like:
            for i in flipped if len(flipped) == 2 else [*flipped, len(order)]:
                bit |= 1 << (len(words) + i)
        seeds.append((syn[e], bit, position << (e - e % width)))
    branches = tuple(tuple(seeds[e] for e in flips[c]) for c in order)
    check_basis = echelon(checks.rows)
    basis = echelon([*checks.rows, *(v.bits for v in degeneracy.kernel_basis())])
    parities = tuple(
        sum(1 << e for e, w in enumerate(words) if (w & p).bit_count() & 1)
        for top, p in basis.items()
        if top not in check_basis
    )
    return tuple(syn), tuple(seeds), branches, parities


def write_alist_literal(matrix) -> str:
    """alist text of a matrix, its column lists appended row by row."""
    m, n = matrix.shape
    rws = [[c + 1 for c in _bits(row)] for row in matrix.rows]
    cols: list[list[int]] = [[] for _ in range(n)]
    for i, r in enumerate(rws):
        for c in r:
            cols[c - 1].append(i + 1)
    out = [
        f"{n} {m}",
        f"{max((len(c) for c in cols), default=0)} {max((len(r) for r in rws), default=0)}",
        " ".join(str(len(c)) for c in cols),
        " ".join(str(len(r)) for r in rws),
    ]
    out += [" ".join(map(str, c)) if c else "0" for c in cols]
    out += [" ".join(map(str, r)) if r else "0" for r in rws]
    return "\n".join(out) + "\n"


def subset_xors(words) -> dict[int, list[int]]:
    """Map each subset XOR of words to every subset mask reaching it;
    the keys are the span, and the masks reaching 0 are the kernel."""
    out: dict[int, list[int]] = {}
    for mask in range(1 << len(words)):
        acc = 0
        for i, w in enumerate(words):
            if (mask >> i) & 1:
                acc ^= w
        out.setdefault(acc, []).append(mask)
    return out


def orderings_literal(words) -> int:
    """Number of orderings of the words that the repair rule admits:
    every nonempty proper prefix has a nonzero XOR, and the word after
    it flips that XOR's lowest set bit."""
    total = 0
    for order in itertools.permutations(words):
        acc = 0
        for prev, word in zip(order, order[1:]):
            acc ^= prev
            if acc == 0 or not word & (acc & -acc):
                break
        else:
            total += 1
    return total


def toric_rows_literal(L: int) -> tuple[list[int], list[int]]:
    """(plaquette rows, site rows) of the L x L toric code, row-major
    over the lattice: horizontal bond (r, c) is bit r*L + c, vertical
    bond (r, c) is bit L^2 + r*L + c."""

    def hbond(r: int, c: int) -> int:
        return (r % L) * L + (c % L)

    def vbond(r: int, c: int) -> int:
        return L * L + (r % L) * L + (c % L)

    plaquettes = []
    sites = []
    for r in range(L):
        for c in range(L):
            plaq = (hbond(r, c), hbond(r + 1, c), vbond(r, c), vbond(r, c + 1))
            site = (hbond(r, c), hbond(r, c - 1), vbond(r, c), vbond(r - 1, c))
            plaquettes.append(sum(1 << j for j in plaq))
            sites.append(sum(1 << j for j in site))
    return plaquettes, sites


@lru_cache(maxsize=None)
def cubic_polygons(m_max: int) -> dict[int, dict[int, int]]:
    """{m: {h: count}}: the simple cubic lattice's self-avoiding polygons
    of m <= m_max steps and extent h along the third axis, up to
    translation.

    Walks from the origin back to it that visit no other site twice
    count each m-gon 2m times: from each of its sites, in each
    direction."""
    steps = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))
    origin = (0, 0, 0)
    walks: dict[tuple[int, int], int] = {}

    def walk(site, visited, length, low, high):
        length += 1
        for dx, dy, dz in steps:
            x, y, z = site[0] + dx, site[1] + dy, site[2] + dz
            nxt = (x, y, z)
            if nxt == origin:
                # two steps back and forth are no polygon
                if length > 2:
                    walks[length, high - low] = walks.get((length, high - low), 0) + 1
            elif nxt not in visited and length + abs(x) + abs(y) + abs(z) <= m_max:
                visited.add(nxt)
                walk(nxt, visited, length, min(low, z), max(high, z))
                visited.remove(nxt)

    walk(origin, {origin}, 0, 0, 0)
    out: dict[int, dict[int, int]] = {}
    for (m, h), count in sorted(walks.items()):
        out.setdefault(m, {})[h] = count // (2 * m)
    return out
