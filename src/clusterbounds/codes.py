"""Stabilizer and CSS codes in binary symplectic form.

A Pauli operator maps, up to phase, to a pair of length-n bit vectors
(v, u) with X-part v and Z-part u.  A code stores only its generator
matrices and a known distance; n, k, the weight caps and the check
matrix H = (A_Z | A_X) of G = (A_X | A_Z) are computed from them.  The
syndrome of an error is H times its binary form, and two operators
commute exactly when their symplectic product vanishes.

One hypergraph product builds the standard codes used in tests and
demos (toric code, hypergraph product) and the combined space-time code
that models m noisy syndrome measurement rounds: that code is the
product of the m-round repetition code's checks with one sector's
checks, plus the sector's degeneracy rows in each round, and it stores
only m, its two matrices and a known distance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .errors import CommutativityError, ValidationError
from .gf2 import BitMatrix, BitVector, echelon, hstack, residue, zero_sum_choices

_LABEL_FOR_BITS = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_BITS_FOR_LABEL = {lbl: vu for vu, lbl in _LABEL_FOR_BITS.items()}


@dataclass(frozen=True)
class PauliOp:
    """n-qubit Pauli operator as an (X-part, Z-part) bit-vector pair.

    Phases are dropped throughout: products are componentwise XOR and Y
    is treated as the X and Z bits both set.
    """

    v: BitVector
    u: BitVector

    def __post_init__(self) -> None:
        if self.v.n != self.u.n:
            raise ValidationError("X and Z parts must have equal length")

    @classmethod
    def from_label(cls, label: str) -> "PauliOp":
        """Build from a string like 'XIZY'."""
        n = len(label)
        vbits = ubits = 0
        for j, ch in enumerate(label.upper()):
            if ch not in _BITS_FOR_LABEL:
                raise ValidationError(f"unknown Pauli letter {ch!r}")
            vb, ub = _BITS_FOR_LABEL[ch]
            vbits |= vb << j
            ubits |= ub << j
        return cls(BitVector(n, vbits), BitVector(n, ubits))

    @classmethod
    def single(cls, n: int, j: int, label: str) -> "PauliOp":
        """Single-qubit Pauli at position j."""
        vb, ub = _BITS_FOR_LABEL[label.upper()]
        return cls(BitVector(n, vb << j), BitVector(n, ub << j))

    @classmethod
    def from_binary(cls, bits: BitVector) -> "PauliOp":
        """Inverse of to_binary: a length-2n vector laid out (v | u)."""
        if bits.n % 2:
            raise ValidationError("binary form must have even length")
        v, u = bits.split(bits.n // 2)
        return cls(v, u)

    @property
    def n(self) -> int:
        return self.v.n

    @property
    def weight(self) -> int:
        return (self.v.bits | self.u.bits).bit_count()

    def support(self) -> tuple[int, ...]:
        return BitVector(self.n, self.v.bits | self.u.bits).support()

    def entry(self, j: int) -> str:
        return _LABEL_FOR_BITS[(self.v[j], self.u[j])]

    def label(self) -> str:
        return "".join(self.entry(j) for j in range(self.n))

    def __mul__(self, other: "PauliOp") -> "PauliOp":
        return PauliOp(self.v ^ other.v, self.u ^ other.u)

    def to_binary(self) -> BitVector:
        """Length-2n vector laid out (v | u), matching generator rows."""
        return self.v.concat(self.u)


@dataclass(frozen=True)
class StabilizerCode:
    """Stabilizer code given by generator rows over 2n binary columns.

    The generator matrix may contain dependent rows; k is always
    computed from the rank.
    """

    G: BitMatrix
    d: int | None = None

    @property
    def n(self) -> int:
        return self.G.cols // 2

    @property
    def w(self) -> int:
        """Largest Pauli weight of a generator row."""
        n = self.n
        return max(((row & ((1 << n) - 1)) | (row >> n)).bit_count() for row in self.G.rows)

    @cached_property
    def k(self) -> int:
        return self.n - self.G.rank()

    @cached_property
    def H(self) -> BitMatrix:
        """Check matrix: G with its X and Z halves swapped."""
        n = self.n
        mask = (1 << n) - 1
        return BitMatrix(tuple((row >> n) | ((row & mask) << n) for row in self.G.rows), 2 * n)

    def generator(self, i: int) -> PauliOp:
        return PauliOp.from_binary(self.G.row(i))

    def syndrome(self, e: PauliOp) -> BitVector:
        """One bit per generator row; zero exactly when e is undetectable."""
        if e.n != self.n:
            raise ValidationError(f"operator acts on {e.n} qubits, code has {self.n}")
        return self.H.mul_vec(e.to_binary())

    def is_stabilizer_element(self, e: PauliOp) -> bool:
        """Whether an undetectable operator lies in the stabilizer group."""
        if self.syndrome(e):
            raise ValidationError("operator is detectable, not an undetectable error")
        return self.G.row_space_contains(e.to_binary())


def _check_distance(d: int | None) -> None:
    if d is not None and d < 1:
        raise ValidationError(f"known distance must be at least 1, got {d}")


def new_stabilizer(G: BitMatrix, d: int | None = None) -> StabilizerCode:
    """Validate a generator matrix and build the code.

    Rejects zero rows, any anticommuting row pair (reported by index)
    and a known distance below 1.
    """
    _check_distance(d)
    if G.cols % 2:
        raise ValidationError("generator matrix must have 2n columns")
    for i, row in enumerate(G.rows):
        if row == 0:
            raise ValidationError(f"generator row {i} is zero")
    code = StabilizerCode(G, d)
    # row j of H is row j of G with its halves swapped, so row i of G
    # meets it in their symplectic product; that product is symmetric
    # with a zero diagonal, so the first odd pair has i < j
    pair = G.first_odd_pair(code.H)
    if pair:
        raise CommutativityError(*pair)
    return code


@dataclass(frozen=True)
class CssCode:
    """CSS code with X-type generator rows G_X and Z-type rows G_Z."""

    G_X: BitMatrix
    G_Z: BitMatrix
    d: int | None = None

    @property
    def n(self) -> int:
        return self.G_X.cols

    @property
    def w_X(self) -> int:
        return self.G_X.max_row_weight()

    @property
    def w_Z(self) -> int:
        return self.G_Z.max_row_weight()

    @cached_property
    def k(self) -> int:
        return self.n - self.G_X.rank() - self.G_Z.rank()

    @cached_property
    def stabilizer(self) -> StabilizerCode:
        """Block-diagonal symplectic view of the same code; its rows
        commute because new_css checked the two sectors orthogonal."""
        G = BitMatrix((*self.G_X.rows, *(r << self.n for r in self.G_Z.rows)), 2 * self.n)
        return StabilizerCode(G, self.d)

    def sector(self, errors: str) -> tuple[BitMatrix, BitMatrix]:
        """(checks, degeneracy) pair for one error type.

        X errors trip the Z-type generators and are degenerate modulo
        the X-type generators, and vice versa.
        """
        if errors == "x":
            return self.G_Z, self.G_X
        if errors == "z":
            return self.G_X, self.G_Z
        raise ValidationError(f"unknown sector {errors!r}, expected 'x' or 'z'")


def new_css(G_X: BitMatrix, G_Z: BitMatrix, d: int | None = None) -> CssCode:
    """Validate orthogonality of the two sectors and a known distance
    (at least 1), and build the code."""
    _check_distance(d)
    if G_X.cols != G_Z.cols:
        raise ValidationError("G_X and G_Z must have the same number of columns")
    for name, M in (("G_X", G_X), ("G_Z", G_Z)):
        for i, row in enumerate(M.rows):
            if row == 0:
                raise ValidationError(f"{name} row {i} is zero")
    pair = G_X.first_odd_pair(G_Z)
    if pair:
        raise CommutativityError(*pair)
    return CssCode(G_X, G_Z, d)


def toric_code(L: int) -> CssCode:
    """Toric code on an L x L periodic square lattice, [[2L^2, 2, L]].

    Qubits sit on bonds.  Horizontal bonds are indexed row-major as
    r*L + c for 0 <= r, c < L; vertical bonds follow at L^2 + r*L + c.
    The X-type generators are the four bonds around each plaquette, the
    Z-type generators the four bonds meeting at each lattice site, both
    in row-major order.  The code is the hypergraph product of the
    L-cycle check matrix (row i = bits i and i+1 mod L) with its
    transpose.
    """
    if L < 2:
        raise ValidationError("toric code needs L >= 2")
    cycle = BitMatrix(tuple((1 << i) | (1 << (i + 1) % L) for i in range(L)), L)
    return replace(hypergraph_product(cycle, cycle.transpose()), d=L)


def _product(H1: BitMatrix, H2: BitMatrix) -> tuple[BitMatrix, BitMatrix]:
    """The hypergraph product's X-type and Z-type rows, zero rows kept.

    With H1 of shape r1 x n1 and H2 of shape r2 x n2, both blocks act on
    n1*n2 + r1*r2 columns and are orthogonal: X-type rows are
    (H1 (x) I | I (x) H2^T) and Z-type rows (I (x) H2 | H1^T (x) I).
    """
    r1, n1 = H1.shape
    r2, n2 = H2.shape
    gx = hstack(H1.kron(BitMatrix.identity(n2)), BitMatrix.identity(r1).kron(H2.transpose()))
    gz = hstack(BitMatrix.identity(n1).kron(H2), H1.transpose().kron(BitMatrix.identity(r2)))
    return gx, gz


def hypergraph_product(H1: BitMatrix, H2: BitMatrix) -> CssCode:
    """CSS code built from two classical parity-check matrices.

    With H1 of shape r1 x n1 and H2 of shape r2 x n2 the code has
    n1*n2 + r1*r2 qubits and the two sectors are orthogonal by
    construction; zero product rows are dropped.
    """
    if H1.is_zero() or H2.is_zero():
        raise ValidationError("constituent matrices must be nonzero")
    gx, gz = (BitMatrix(tuple(r for r in M.rows if r), M.cols) for M in _product(H1, H2))
    return new_css(gx, gz)


def _check_rounds(m: int) -> None:
    if m < 1:
        raise ValidationError(f"need at least one measurement round, got {m}")


@dataclass(frozen=True)
class FtCode:
    """Combined space-time binary code for m noisy measurement rounds.

    P is the check matrix over N = m*n + (m-1)*r columns, for a source
    sector of r checks on n qubits: the first m*n columns are per-round
    qubit errors, the trailing (m-1)*r columns are syndrome-bit errors
    (the last round is taken as read out exactly).  Q spans the
    degeneracy: products of generators and errors that cancel between
    consecutive rounds.  n and r are read off P's shape, which must
    factor over the m rounds, and Q acts on P's N columns.

    D_ft is the source code's known distance d.  It bounds the
    space-time distance from below, and is exact when the tracked
    sector's distance is d: the qubit errors of a nontrivial space-time
    error add up to a nontrivial error of that sector, and that error
    placed in one round is itself one, whatever the number of rounds.
    """

    m: int
    P: BitMatrix
    Q: BitMatrix
    D_ft: int | None = None

    def __post_init__(self) -> None:
        _check_rounds(self.m)
        m, r, n = self.m, self.r, self.n
        if n < 0 or self.P.shape != (m * r, m * n + (m - 1) * r):
            raise ValidationError(f"P of shape {self.P.shape} does not factor over {m} rounds")
        if self.Q.cols != self.P.cols:
            raise ValidationError(f"Q has {self.Q.cols} columns but P has {self.P.cols}")

    @property
    def r(self) -> int:
        """Checks per round: P has m*r rows."""
        return self.P.nrows // self.m

    @property
    def n(self) -> int:
        """Qubits per round: P has m*n + (m-1)*r columns."""
        return (self.P.cols - (self.m - 1) * self.r) // self.m

    @property
    def N(self) -> int:
        return self.P.cols

    @property
    def w(self) -> int:
        """Largest row weight of P."""
        return self.P.max_row_weight()

    @cached_property
    def K(self) -> int:
        return self.N - self.P.rank() - self.Q.rank()

    @property
    def qubit_cols(self) -> int:
        return self.m * self.n


def ft_extend_matrices(H: BitMatrix, G: BitMatrix, m: int, d: int | None = None) -> FtCode:
    """Build the combined code from a (checks, degeneracy) pair.

    Every degeneracy row must be undetectable, H G^T = 0.  With rep the
    (m-1) x m check matrix of the m-round repetition code, P and the
    first rows of Q are the Z-type and X-type rows of the hypergraph
    product of rep with H; the rest of Q is G in each round.  At m = 1
    rep has no rows, so P = H and Q = G.
    """
    _check_rounds(m)
    _check_distance(d)
    if G.cols != H.cols:
        raise ValidationError("H and G must act on the same columns")
    pair = G.first_odd_pair(H)
    if pair:
        raise ValidationError(f"degeneracy row {pair[0]} is detectable, not undetectable")
    top, P = _product(BitMatrix(tuple(3 << i for i in range(m - 1)), m), H)
    # each round's copy of G lies on the qubit columns, the first m*n
    Q = BitMatrix(top.rows + BitMatrix.identity(m).kron(G).rows, P.cols)
    return FtCode(m, P, Q, d)


def ft_extend(code: CssCode, m: int, errors: str = "x") -> FtCode:
    """Combined code for one CSS error sector over m measurement rounds.

    errors='x' tracks X-type qubit errors (checked by the Z-type
    generators) together with flips of those measured syndrome bits.
    """
    checks, degeneracy = code.sector(errors)
    return ft_extend_matrices(checks, degeneracy, m, d=code.d)


def min_nontrivial_weight(
    checks: BitMatrix, degeneracy: BitMatrix, max_weight: int
) -> int | None:
    """Smallest weight of a vector killed by checks but outside the row
    space of degeneracy, searching exhaustively up to max_weight."""
    basis = echelon(degeneracy.rows)
    found: list[int] = []

    def on_hit(combo: tuple[int, ...]) -> bool:
        if residue(basis, sum(1 << j for j in combo)):
            found.append(len(combo))
            return True
        return False

    columns = [((col, j),) for j, col in enumerate(checks.transpose().rows)]
    zero_sum_choices(columns, max_weight, on_hit)
    return found[0] if found else None


def css_distance_bruteforce(code: CssCode, max_weight: int) -> int | None:
    """Exhaustive CSS distance: the smaller of the two sector searches."""
    best = None
    for errors in ("x", "z"):
        checks, degeneracy = code.sector(errors)
        w = min_nontrivial_weight(checks, degeneracy, max_weight if best is None else best - 1)
        if w is not None:
            best = w if best is None else min(best, w)
    return best
