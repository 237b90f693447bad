import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterbounds import ValidationError
from clusterbounds.gf2 import (
    BitMatrix,
    BitVector,
    echelon,
    hstack,
    kernel,
    residue,
    set_bits,
    zero_sum_choices,
    zero_sum_work,
)
from oracles import subset_xors, zero_sum_choices_literal


def random_bitmatrix(rng, rows, cols):
    return BitMatrix(tuple(rng.getrandbits(cols) for _ in range(rows)), cols)


def naive_matmul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    al, bl = ([[(r >> j) & 1 for j in range(m.cols)] for r in m.rows] for m in (a, b))
    out = [
        [sum(al[i][k] * bl[k][j] for k in range(a.cols)) % 2 for j in range(b.cols)]
        for i in range(a.nrows)
    ]
    return BitMatrix.from_lists(out)


class TestBitVector:
    def test_xor_self_is_zero(self):
        v = BitVector.from01("10110")
        assert (v ^ v).bits == 0

    def test_weight_counts_set_bits(self):
        assert BitVector.from01("10110").weight == 3
        assert BitVector(7).weight == 0

    def test_round_trip(self):
        s = "0101100"
        assert BitVector.from01(s).to01() == s

    def test_support_and_indices(self):
        v = BitVector.from_indices(6, [1, 4])
        assert v.support() == (1, 4)
        assert v[1] == 1 and v[0] == 0

    def test_concat_split(self):
        a, b = BitVector.from01("101"), BitVector.from01("01")
        c = a.concat(b)
        assert c.to01() == "10101"
        left, right = c.split(3)
        assert (left, right) == (a, b)

    def test_dot_parity(self):
        assert BitVector.from01("110").dot(BitVector.from01("011")) == 1
        assert BitVector.from01("110").dot(BitVector.from01("101")) == 1
        assert BitVector.from01("110").dot(BitVector.from01("111")) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            BitVector(3) ^ BitVector(4)


class TestRankKernel:
    def test_zero_matrix_rank(self):
        assert BitMatrix((0,) * 3, 3).rank() == 0

    def test_identity_rank(self):
        assert BitMatrix.identity(3).rank() == 3

    def test_toric_plaquette_rank(self, toric2):
        # one global dependency among the four plaquettes
        assert toric2.G_X.rank() == 3

    def test_kernel_identity(self):
        assert BitMatrix.identity(3).kernel_dimension() == 0

    def test_kernel_all_ones(self):
        m = BitMatrix.from_lists([[1, 1, 1, 1], [1, 1, 1, 1]])
        assert m.rank() == 1
        assert m.kernel_dimension() == 3

    def test_kernel_zero_row(self):
        assert BitMatrix((0,), 5).kernel_dimension() == 5

    def test_rank_nullity(self):
        rng = random.Random(1)
        for _ in range(30):
            r, c = rng.randint(1, 8), rng.randint(1, 8)
            m = random_bitmatrix(rng, r, c)
            assert m.rank() + m.kernel_dimension() == c

    def test_kernel_basis_annihilates(self):
        rng = random.Random(2)
        for _ in range(20):
            m = random_bitmatrix(rng, rng.randint(1, 6), rng.randint(1, 9))
            for v in m.kernel_basis():
                assert not m.mul_vec(v)
            assert len(m.kernel_basis()) == m.kernel_dimension()

    def test_kernel_basis_deterministic(self):
        m = BitMatrix.from_lists([[1, 0, 1, 1], [0, 1, 1, 0]])
        assert m.kernel_basis() == m.kernel_basis()


class TestRowSpace:
    def test_identity_contains_everything(self):
        m = BitMatrix.identity(4)
        assert m.row_space_contains(BitVector.from01("1011"))

    def test_zero_matrix_contains_nothing_nonzero(self):
        m = BitMatrix((0,) * 2, 4)
        assert not m.row_space_contains(BitVector.from01("0100"))
        assert m.row_space_contains(BitVector(4))

    def test_toric_plaquette_combination(self, toric2):
        combo = BitVector(toric2.n, toric2.G_X.rows[0] ^ toric2.G_X.rows[1])
        assert toric2.G_X.row_space_contains(combo)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            BitMatrix.identity(3).row_space_contains(BitVector(4))

    def test_random_combinations_contained(self):
        rng = random.Random(3)
        for _ in range(20):
            m = random_bitmatrix(rng, 4, 7)
            acc = 0
            for row in m.rows:
                if rng.random() < 0.5:
                    acc ^= row
            assert m.row_space_contains(BitVector(7, acc))


class TestSetBits:
    @settings(max_examples=200, deadline=None)
    @given(
        word=st.one_of(
            # sparse words up to 5000 bits wide, the empty set giving 0
            st.frozensets(st.integers(0, 5000), max_size=6).map(lambda js: sum(1 << j for j in js)),
            st.integers(0, 2**300),
        )
    )
    def test_matches_position_scan(self, word):
        assert set_bits(word) == [j for j in range(word.bit_length()) if (word >> j) & 1]

    def test_zero_and_single_bits(self):
        assert set_bits(0) == []
        assert all(set_bits(1 << j) == [j] for j in (0, 1, 63, 64, 4999))


class TestEchelon:
    @settings(max_examples=200, deadline=None)
    @given(
        words=st.lists(st.integers(0, 63), max_size=8),
        probes=st.lists(st.integers(0, 63), max_size=6),
    )
    def test_matches_subset_xor_scan(self, words, probes):
        span = subset_xors(words)
        basis = echelon(words)
        assert len(span) == 1 << len(basis)
        assert all(row.bit_length() - 1 == h for h, row in basis.items())
        for x in list(span) + probes:
            assert (residue(basis, x) == 0) == (x in span)
        vectors = kernel(words)
        assert len(vectors) == len(words) - len(basis)
        # vector k ends at the index of the k-th word that depends on the
        # words before it, the order decompose splits by
        dependent = [i for i in range(len(words)) if words[i] in subset_xors(words[:i])]
        assert [x.bit_length() - 1 for x in vectors] == dependent
        assert all(x in span[0] for x in vectors)
        # independent: together they reach every zero-sum subset
        assert len(subset_xors(vectors)) == len(span[0])


class TestKron:
    def test_identity_times_identity(self):
        assert BitMatrix.identity(2).kron(BitMatrix.identity(3)) == BitMatrix.identity(6)

    def test_scalar_identity(self):
        rng = random.Random(4)
        a = random_bitmatrix(rng, 3, 5)
        one = BitMatrix.identity(1)
        assert a.kron(one) == a
        assert one.kron(a) == a

    def test_block_diagonal_copies(self, toric2):
        h = toric2.G_Z
        out = BitMatrix.identity(3).kron(h)
        assert out.shape == (12, 24)
        expected = BitMatrix(
            tuple(row << (8 * block) for block in range(3) for row in h.rows), 24
        )
        assert out == expected

    def test_dim_associativity(self):
        rng = random.Random(5)
        a = random_bitmatrix(rng, 2, 3)
        b = random_bitmatrix(rng, 3, 2)
        c = random_bitmatrix(rng, 1, 4)
        assert a.kron(b).kron(c).shape == a.kron(b.kron(c)).shape
        assert a.kron(b).kron(c) == a.kron(b.kron(c))


class TestMatmulStack:
    def test_matches_naive_product(self):
        rng = random.Random(6)
        for _ in range(15):
            a = random_bitmatrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            b = random_bitmatrix(rng, a.cols, rng.randint(1, 5))
            assert a @ b == naive_matmul(a, b)

    def test_first_odd_pair_is_the_first_odd_row_pair(self):
        rng = random.Random(9)
        found = 0
        for _ in range(60):
            cols = rng.randint(0, 5)
            a = random_bitmatrix(rng, rng.randint(0, 4), cols)
            b = random_bitmatrix(rng, rng.randint(0, 4), cols)
            entries = [
                (i, j) for i in range(a.nrows) for j in range(b.nrows) if a.row(i).dot(b.row(j))
            ]
            assert a.first_odd_pair(b) == (entries[0] if entries else None)
            found += bool(entries)
        assert 0 < found < 60

    def test_transpose_involution(self):
        rng = random.Random(7)
        m = random_bitmatrix(rng, 4, 6)
        assert m.transpose().transpose() == m

    def test_transpose_swaps_entries(self):
        rng = random.Random(8)
        for _ in range(30):
            m = random_bitmatrix(rng, rng.randint(0, 6), rng.randint(0, 70))
            t = m.transpose()
            assert t.shape == (m.cols, m.nrows)
            assert all(t.row(j)[i] == m.row(i)[j] for i in range(m.nrows) for j in range(m.cols))

    def test_hstack_vstack(self):
        a = BitMatrix.from_lists([[1, 0], [0, 1]])
        b = BitMatrix.from_lists([[1, 1], [0, 0]])
        assert hstack(a, b) == BitMatrix.from_lists([[1, 0, 1, 1], [0, 1, 0, 0]])

    def test_shape_errors(self):
        with pytest.raises(ValidationError):
            BitMatrix.identity(2) @ BitMatrix.identity(3)
        with pytest.raises(ValidationError):
            hstack(BitMatrix.identity(2), BitMatrix.identity(3))


# a few short words over 3 bits, so that zero sums are common
_groups = st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=3), max_size=8).map(
    lambda gs: [[(w, (g, k)) for k, w in enumerate(ws)] for g, ws in enumerate(gs)]
)
# every max_size up to 6 on up to 8 groups reaches each way a choice is
# closed: the lone closing group below size 4, and from 4 on the pair
# table under word 0 at size 2, one looped group and a pair at size 3,
# and deeper recursion above
_MAX_SIZES = range(7)


class TestZeroSumChoices:
    @settings(max_examples=150, deadline=None)
    @given(groups=_groups)
    def test_matches_literal_scan(self, groups):
        literal = sorted(zero_sum_choices_literal(groups, _MAX_SIZES[-1]))
        for max_size in _MAX_SIZES:
            hits = []
            assert not zero_sum_choices(groups, max_size, hits.append)
            assert sorted(hits) == [h for h in literal if len(h) <= max_size]
            assert [len(h) for h in hits] == sorted(len(h) for h in hits)
            for h in hits:
                assert [g for g, _ in h] == sorted({g for g, _ in h})

    @settings(max_examples=50, deadline=None)
    @given(groups=_groups, data=st.data())
    def test_truthy_hit_stops_the_scan(self, groups, data):
        sizes = sorted(len(h) for h in zero_sum_choices_literal(groups, _MAX_SIZES[-1]))
        for max_size in _MAX_SIZES:
            total = sum(m <= max_size for m in sizes)
            # any hit may stop the scan, the deepest ones included
            stop_at = data.draw(st.integers(1, total + 1))
            calls = []

            def on_hit(items):
                calls.append(items)
                return len(calls) == stop_at

            assert zero_sum_choices(groups, max_size, on_hit) == (total >= stop_at)
            assert len(calls) == min(total, stop_at)
            assert [len(h) for h in calls] == sizes[: len(calls)]

    @pytest.mark.parametrize("n, w", [(18, 3), (7, 1), (2, 3)])
    def test_work_of_uniform_groups(self, n, w):
        # below size 4 the table holds every entry and the loops pick up to
        # max_size - 1 groups of the first n - 1; from 4 on it holds every
        # pick from two groups and the loops pick from the first n - 2
        for max_size in range(1, 8):
            span = 2 if max_size >= 4 else 1
            rows = n * w if span == 1 else comb(n, 2) * w * w
            lookups = sum(comb(n - span, k) * w**k for k in range(1, max_size - span + 1))
            assert zero_sum_work([w] * n, max_size) == rows + lookups
