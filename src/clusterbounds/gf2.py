"""Dense linear algebra over GF(2) on bit-packed values.

Vectors and matrices are immutable and backed by Python integers: bit j
of a row word is column j.  XOR, popcount and hashing are cheap at any
width, and equal values compare and hash equal, so they can be used as
set/dict keys and shared freely across threads or processes.

set_bits is the one walk over a word's set bits, one step per set bit;
every other routine that visits set bits goes through it.

echelon is the one elimination: a basis keyed by each row's highest
bit.  residue reduces a word by it (0 exactly for span members), and
kernel runs it on tagged words to read off kernel vectors.  Rank, row
space membership, kernels, the cluster classifier and degeneracy test,
decomposition and the distance search all go through these three.

BitMatrix @ is the package's one sparse product: row i of a @ b is the
XOR of the rows of b at the set bits of row i of a, so it decides which
rows meet which columns with odd parity.  BitMatrix.first_odd_pair reads
the first pair of rows of two matrices that meet oddly off a @ b^T, and
every check that one matrix's rows are undetectable by another's goes
through it: commuting stabilizer generators, orthogonal CSS sectors,
and the degeneracy rows of a census's problem and of the space-time
code.  The census reads its entries' syndromes and its parity masks off
the same product, and transpose gives the alist writer its columns.

zero_sum_choices is the one exhaustive scan for zero-sum selections of
columns; the brute-force cluster census and the distance search use it.
It loops over all but the last groups of a choice and looks the rest up
by the word that cancels them: the last group alone through a word ->
entries table, or, when it scans sizes 4 and up, the last two through a
table of every pick from two groups, at most C(n, 2) w^2 rows for n
groups of at most w entries.  zero_sum_work counts those rows and
lookups ahead of a scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .errors import ValidationError


def _require_same_len(a: int, b: int) -> None:
    if a != b:
        raise ValidationError(f"length mismatch: {a} != {b}")


@dataclass(frozen=True)
class BitVector:
    """Fixed-length vector over GF(2), packed into one integer."""

    n: int
    bits: int = 0

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValidationError("negative vector length")
        if self.bits < 0 or self.bits >> self.n:
            raise ValidationError("bits set beyond vector length")

    @classmethod
    def from_indices(cls, n: int, indices: Iterable[int]) -> "BitVector":
        bits = 0
        for j in indices:
            if not 0 <= j < n:
                raise ValidationError(f"index {j} out of range for length {n}")
            bits |= 1 << j
        return cls(n, bits)

    @classmethod
    def from01(cls, text: str) -> "BitVector":
        text = text.strip().replace(" ", "")
        if set(text) - {"0", "1"}:
            raise ValidationError("expected a string of 0s and 1s")
        bits = 0
        for j, ch in enumerate(text):
            if ch == "1":
                bits |= 1 << j
        return cls(len(text), bits)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, j: int) -> int:
        if not 0 <= j < self.n:
            raise IndexError(j)
        return (self.bits >> j) & 1

    def __xor__(self, other: "BitVector") -> "BitVector":
        _require_same_len(self.n, other.n)
        return BitVector(self.n, self.bits ^ other.bits)

    def __bool__(self) -> bool:
        return self.bits != 0

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def support(self) -> tuple[int, ...]:
        return tuple(set_bits(self.bits))

    def dot(self, other: "BitVector") -> int:
        """Inner product mod 2."""
        _require_same_len(self.n, other.n)
        return (self.bits & other.bits).bit_count() & 1

    def concat(self, other: "BitVector") -> "BitVector":
        return BitVector(self.n + other.n, self.bits | (other.bits << self.n))

    def split(self, k: int) -> tuple["BitVector", "BitVector"]:
        """Split into the first k coordinates and the rest."""
        if not 0 <= k <= self.n:
            raise ValidationError(f"split point {k} out of range")
        return BitVector(k, self.bits & ((1 << k) - 1)), BitVector(self.n - k, self.bits >> k)

    def to01(self) -> str:
        return "".join("1" if (self.bits >> j) & 1 else "0" for j in range(self.n))

    def __str__(self) -> str:
        return self.to01()


@dataclass(frozen=True)
class BitMatrix:
    """Matrix over GF(2); each row is one packed integer."""

    rows: tuple[int, ...]
    cols: int

    def __post_init__(self) -> None:
        if self.cols < 0:
            raise ValidationError("negative column count")
        for i, row in enumerate(self.rows):
            if row < 0 or row >> self.cols:
                raise ValidationError(f"row {i} has bits beyond column {self.cols - 1}")

    # -- construction ------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(tuple(1 << j for j in range(n)), n)

    @classmethod
    def from_rows(cls, rows: Iterable[int], cols: int) -> "BitMatrix":
        return cls(tuple(rows), cols)

    @classmethod
    def from_lists(cls, entries: Sequence[Sequence[int]]) -> "BitMatrix":
        if not entries:
            return cls((), 0)
        ncols = len(entries[0])
        rows = []
        for r in entries:
            if len(r) != ncols:
                raise ValidationError("ragged rows")
            rows.append(sum((1 << j) for j, x in enumerate(r) if int(x) & 1))
        return cls(tuple(rows), ncols)

    # -- shape and access --------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), self.cols)

    def row(self, i: int) -> BitVector:
        return BitVector(self.cols, self.rows[i])

    def max_row_weight(self) -> int:
        return max((r.bit_count() for r in self.rows), default=0)

    def is_zero(self) -> bool:
        return not any(self.rows)

    def __iter__(self) -> Iterator[BitVector]:
        return (self.row(i) for i in range(len(self.rows)))

    def __str__(self) -> str:
        return "\n".join(self.row(i).to01() for i in range(len(self.rows)))

    # -- algebra ------------------------------------------------------

    def transpose(self) -> "BitMatrix":
        """Bit j of row i sets bit i of column j."""
        cols = [0] * self.cols
        for i, r in enumerate(self.rows):
            for j in set_bits(r):
                cols[j] |= 1 << i
        return BitMatrix(tuple(cols), len(self.rows))

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.nrows:
            raise ValidationError(f"cannot multiply {self.shape} by {other.shape}")
        out = []
        for r in self.rows:
            acc = 0
            for j in set_bits(r):
                acc ^= other.rows[j]
            out.append(acc)
        return BitMatrix(tuple(out), other.cols)

    def first_odd_pair(self, other: "BitMatrix") -> tuple[int, int] | None:
        """The first (i, j) in row-major order whose row i of self and
        row j of other meet with odd parity, read from self @ other^T;
        None when every pair meets evenly."""
        for i, row in enumerate((self @ other.transpose()).rows):
            if row:
                return i, (row & -row).bit_length() - 1
        return None

    def mul_vec(self, v: BitVector) -> BitVector:
        """Matrix-vector product; returns one bit per row."""
        _require_same_len(self.cols, v.n)
        bits = 0
        for i, r in enumerate(self.rows):
            if (r & v.bits).bit_count() & 1:
                bits |= 1 << i
        return BitVector(len(self.rows), bits)

    def kron(self, other: "BitMatrix") -> "BitMatrix":
        """Kronecker product over GF(2)."""
        oc = other.cols
        out = []
        for a in self.rows:
            shifts = [j * oc for j in set_bits(a)]
            for b in other.rows:
                w = 0
                for shift in shifts:
                    w |= b << shift
                out.append(w)
        return BitMatrix(tuple(out), self.cols * oc)

    # -- elimination ---------------------------------------------------

    def rank(self) -> int:
        return len(echelon(self.rows))

    def kernel_dimension(self) -> int:
        return self.cols - self.rank()

    def kernel_basis(self) -> list[BitVector]:
        """Basis of the right kernel, one vector per column that depends
        on the columns before it, in column order; that vector is the
        column plus the unique combination of earlier independent
        columns equal to it."""
        return [BitVector(self.cols, x) for x in kernel(self.transpose().rows)]

    def row_space_contains(self, x: BitVector) -> bool:
        """Whether x is a GF(2) combination of the rows."""
        _require_same_len(self.cols, x.n)
        return not residue(echelon(self.rows), x.bits)


def set_bits(word: int) -> list[int]:
    """Indices of the set bits of a nonnegative word, ascending."""
    out = []
    while word:
        low = word & -word
        out.append(low.bit_length() - 1)
        word ^= low
    return out


def residue(basis: dict[int, int], word: int) -> int:
    """word reduced by an echelon basis: the row of its highest bit is
    XORed off while there is one.  Every nonzero combination of basis
    rows has a key as its highest bit, so the result is 0 exactly when
    word lies in the span."""
    while word:
        row = basis.get(word.bit_length() - 1)
        if row is None:
            break
        word ^= row
    return word


def echelon(words: Iterable[int]) -> dict[int, int]:
    """Echelon basis of the span of words, keyed by each row's highest
    bit.  Each word is reduced by the basis so far; if it does not
    vanish its highest bit is new, and it becomes that bit's row.  The
    rank is the number of rows."""
    basis: dict[int, int] = {}
    for w in words:
        w = residue(basis, w)
        if w:
            basis[w.bit_length() - 1] = w
    return basis


def kernel(words: Sequence[int]) -> list[int]:
    """Basis of { x : the XOR of words[i] over the set bits i of x is 0 }.

    Word i is tagged with bit i below its own bits, (w << m) | 1 << i.
    A tagged word whose word part reduces to zero becomes the row of its
    own tag bit, the highest left, and that row is a kernel vector: bit i
    plus the unique combination of earlier independent words equal to
    word i.  One vector per dependent word, in index order."""
    m = len(words)
    basis = echelon((w << m) | 1 << i for i, w in enumerate(words))
    return [basis[i] for i in range(m) if i in basis]


def hstack(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    if a.nrows != b.nrows:
        raise ValidationError(f"row mismatch in hstack: {a.nrows} != {b.nrows}")
    rows = tuple(ra | (rb << a.cols) for ra, rb in zip(a.rows, b.rows))
    return BitMatrix(rows, a.cols + b.cols)


def zero_sum_choices(
    groups: Sequence[Sequence[tuple[int, object]]],
    max_size: int,
    on_hit: Callable[[tuple], object],
) -> bool:
    """Report every choice of at most max_size groups, one (word, item)
    pair from each, whose words XOR to zero.

    Choices go by size; on_hit gets the chosen items in group order.  A
    truthy return from on_hit stops the scan, and then this returns True.

    The last groups of a choice are not scanned for: a closer table maps
    each word to every pick from the closing groups that XORs to it, and
    the picks that cancel the rest are looked up.  When max_size >= 4 the
    table closes the last two groups.  It then holds one row per pick
    from each pair of groups, at most C(n, 2) w^2 rows for n groups of at
    most w pairs, fewer than the C(n, 3) w^3 lookups that closing one
    group makes at size 4 alone.  Below that, building it would cost as
    much as the scan it spares, so the table closes the last group only.
    """
    n = len(groups)
    span = _span(max_size)
    # word -> rows (first closing group, closing items...), first groups
    # descending
    closers: dict[int, list[tuple]] = {}
    for g in reversed(range(n)):
        for word, item in groups[g]:
            if span == 1:
                closers.setdefault(word, []).append((g, item))
                continue
            for h in range(g + 1, n):
                for other, last in groups[h]:
                    closers.setdefault(word ^ other, []).append((g, item, last))

    if max_size >= 1:
        for group in groups:
            for word, item in group:
                if not word and on_hit((item,)):
                    return True
    for size in range(2, max_size + 1):
        if size == span:
            if any(on_hit(row[1:]) for row in closers.get(0, ())):
                return True
        elif _close_choices(groups, closers, span, on_hit, 0, 0, (), size - span):
            return True
    return False


def _span(max_size: int) -> int:
    """How many last groups the closer table closes (see zero_sum_choices)."""
    return 2 if max_size >= 4 else 1


def zero_sum_work(sizes: Sequence[int], max_size: int) -> int:
    """Rows of the closer table plus closer lookups that zero_sum_choices
    makes on groups of these sizes; its time and memory grow with this
    count.  Its loops choose groups among all but the closing ones and
    look up once per pick of one entry from each chosen group."""
    span = _span(max_size)
    # picks[k]: picks of one entry from each of k groups the loops choose
    picks = [1] + [0] * max_size
    for size in sizes[: len(sizes) - span]:
        for k in range(max_size, 0, -1):
            picks[k] += picks[k - 1] * size
    total = sum(sizes)
    rows = total if span == 1 else (total * total - sum(s * s for s in sizes)) // 2
    return rows + sum(picks[1 : max_size - span + 1])


def _close_choices(groups, closers, span, on_hit, start, acc, chosen, left) -> bool:
    # choose `left` more groups from start on, the last of them looped
    # here, and close each choice by the closer rows whose first group
    # comes after it
    n = len(groups)
    if left > 1:
        for g in range(start, n - span - left + 1):
            for word, item in groups[g]:
                found = _close_choices(
                    groups, closers, span, on_hit, g + 1, acc ^ word, chosen + (item,), left - 1
                )
                if found:
                    return True
        return False
    for g in range(start, n - span):
        for word, item in groups[g]:
            for row in closers.get(acc ^ word, ()):
                if row[0] <= g:
                    break
                if on_hit(chosen + (item,) + row[1:]):
                    return True
    return False
