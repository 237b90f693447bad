import random
from dataclasses import fields

import pytest

from clusterbounds import (
    CommutativityError,
    PauliOp,
    ValidationError,
    css_distance_bruteforce,
    enumerate_clusters,
    ft_extend,
    ft_extend_matrices,
    hypergraph_product,
    min_nontrivial_weight,
    new_css,
    new_stabilizer,
    toric_code,
)
from clusterbounds.codes import CssCode, FtCode, StabilizerCode
from clusterbounds.gf2 import BitMatrix, BitVector

from conftest import make_random_matrix
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    anticommuting_pair_literal,
    detectable_row_literal,
    ft_extend_blocks,
    nonorthogonal_pair_literal,
    repetition_transpose,
    toric_rows_literal,
)


def symplectic_product(e1: PauliOp, e2: PauliOp) -> int:
    """1 when new_stabilizer rejects e1 and e2 as anticommuting
    generators, else 0; an extra qubit with X on both keeps an identity
    operator's row nonzero and commutes."""
    rows = [PauliOp.from_label(e.label() + "X").to_binary().bits for e in (e1, e2)]
    try:
        new_stabilizer(BitMatrix.from_rows(rows, 2 * (e1.n + 1)))
    except CommutativityError:
        return 1
    return 0


class TestPauliOp:
    def test_label_round_trip(self):
        op = PauliOp.from_label("XIZY")
        assert op.label() == "XIZY"
        assert op.weight == 3
        assert op.support() == (0, 2, 3)

    def test_product_is_xor(self):
        a = PauliOp.from_label("XIZ")
        b = PauliOp.from_label("ZIZ")
        assert (a * b).label() == "YII"

    def test_binary_round_trip(self):
        op = PauliOp.from_label("YXZI")
        assert PauliOp.from_binary(op.to_binary()) == op

    def test_single(self):
        op = PauliOp.single(4, 2, "Y")
        assert op.label() == "IIYI"


class TestSymplecticProduct:
    def test_x_vs_z(self):
        assert symplectic_product(PauliOp.from_label("X"), PauliOp.from_label("Z")) == 1

    def test_self_commutes(self):
        op = PauliOp.from_label("X")
        assert symplectic_product(op, op) == 0

    def test_y_vs_z(self):
        assert symplectic_product(PauliOp.from_label("Y"), PauliOp.from_label("Z")) == 1

    def test_symmetric_bilinear(self):
        rng = random.Random(11)
        labels = "IXYZ"
        for _ in range(40):
            ops = [
                PauliOp.from_label("".join(rng.choice(labels) for _ in range(5)))
                for _ in range(3)
            ]
            a, b, c = ops
            assert symplectic_product(a, b) == symplectic_product(b, a)
            assert symplectic_product(a * b, c) == (
                symplectic_product(a, c) ^ symplectic_product(b, c)
            )


class TestNewStabilizer:
    def test_toric_parameters(self, toric2):
        stab = toric2.stabilizer
        assert (stab.n, stab.k, stab.w) == (8, 2, 4)

    def test_single_generator(self):
        code = new_stabilizer(BitMatrix.from_rows([PauliOp.from_label("XX").to_binary().bits], 4))
        assert code.k == 1

    def test_commuting_mixed_rows_accepted(self):
        # X1 Z2 and Z1 X2 have symplectic product 1 + 1 = 0
        rows = [PauliOp.from_label(label).to_binary().bits for label in ("XZ", "ZX")]
        code = new_stabilizer(BitMatrix.from_rows(rows, 4))
        assert code.G.nrows == 2

    def test_anticommuting_pair_rejected(self):
        rows = [PauliOp.from_label(label).to_binary().bits for label in ("XI", "ZI")]
        with pytest.raises(CommutativityError) as err:
            new_stabilizer(BitMatrix.from_rows(rows, 4))
        assert err.value.rows == (0, 1)

    def test_zero_row_rejected(self):
        with pytest.raises(ValidationError):
            new_stabilizer(BitMatrix((0,), 4))

    def test_odd_column_count_rejected(self):
        with pytest.raises(ValidationError, match="2n columns"):
            new_stabilizer(BitMatrix.from_lists([[1, 1, 0]]))

    def test_dependent_rows_do_not_change_k(self, toric2):
        stab = toric2.stabilizer
        doubled = new_stabilizer(BitMatrix(stab.G.rows + stab.G.rows[:1], stab.G.cols))
        assert doubled.k == stab.k


class TestSyndrome:
    def test_identity_error(self, toric3):
        stab = toric3.stabilizer
        assert not stab.syndrome(PauliOp.from_label("I" * 18))

    def test_single_x_hits_two_sites(self, toric3):
        stab = toric3.stabilizer
        for j in range(toric3.n):
            assert stab.syndrome(PauliOp.single(18, j, "X")).weight == 2

    def test_generators_are_undetectable(self, toric3):
        stab = toric3.stabilizer
        for i in range(stab.G.nrows):
            assert not stab.syndrome(stab.generator(i))

    def test_linearity(self, toric3):
        stab = toric3.stabilizer
        rng = random.Random(12)
        for _ in range(20):
            a = PauliOp.from_label("".join(rng.choice("IXYZ") for _ in range(18)))
            b = PauliOp.from_label("".join(rng.choice("IXYZ") for _ in range(18)))
            assert stab.syndrome(a * b) == stab.syndrome(a) ^ stab.syndrome(b)

    def test_dimension_mismatch(self, toric3):
        with pytest.raises(ValidationError):
            toric3.stabilizer.syndrome(PauliOp.from_label("I" * 5))


class TestStabilizerMembership:
    def test_plaquette_is_member(self, toric2):
        stab = toric2.stabilizer
        assert stab.is_stabilizer_element(stab.generator(0))

    def test_product_of_plaquettes_is_member(self, toric2):
        stab = toric2.stabilizer
        assert stab.is_stabilizer_element(stab.generator(0) * stab.generator(1))

    def test_noncontractible_loop_is_not(self, toric2):
        loop = PauliOp(BitVector.from_indices(8, [0, 1]), BitVector(8))
        stab = toric2.stabilizer
        assert not stab.syndrome(loop)
        assert not stab.is_stabilizer_element(loop)

    def test_detectable_error_rejected(self, toric2):
        with pytest.raises(ValidationError):
            toric2.stabilizer.is_stabilizer_element(PauliOp.single(8, 0, "X"))


class TestToricCode:
    def test_small_parameters(self, toric2, toric3):
        assert (toric2.n, toric2.k, toric2.d) == (8, 2, 2)
        assert (toric3.n, toric3.k, toric3.d) == (18, 2, 3)
        assert toric2.w_X == toric2.w_Z == 4

    def test_distance_bruteforce(self, toric2, toric3):
        assert css_distance_bruteforce(toric2, 3) == 2
        assert css_distance_bruteforce(toric3, 4) == 3

    def test_distance_bruteforce_reaches_weight_six(self):
        # every choice of up to 5 of the 72 columns in each sector is
        # scanned before the first weight-6 logical
        assert css_distance_bruteforce(toric_code(6), 6) == 6

    def test_rank_L4(self, toric4):
        assert toric4.G_X.rank() == 15
        assert toric4.G_Z.rank() == 15

    def test_each_qubit_in_two_checks_per_type(self, toric3):
        for m in (toric3.G_X, toric3.G_Z):
            for j in range(toric3.n):
                assert sum((row >> j) & 1 for row in m.rows) == 2

    def test_generator_count_and_dependencies(self, toric3):
        assert toric3.G_X.nrows + toric3.G_Z.nrows == 2 * 9
        assert toric3.G_X.rank() == 8 and toric3.G_Z.rank() == 8

    def test_L_too_small(self):
        with pytest.raises(ValidationError):
            toric_code(1)

    @pytest.mark.parametrize("L", range(2, 9))
    def test_rows_match_lattice_oracle(self, L):
        # census paths depend on check order, so the rows must match
        # the lattice layout bit for bit and in order
        plaquettes, sites = toric_rows_literal(L)
        code = toric_code(L)
        assert list(code.G_X.rows) == plaquettes
        assert list(code.G_Z.rows) == sites
        assert code.d == L


class TestHypergraphProduct:
    def test_smallest_instance(self):
        rep2 = BitMatrix.from_lists([[1, 1]])
        code = hypergraph_product(rep2, rep2)
        assert code.n == 5
        assert (code.G_X @ code.G_Z.transpose()).is_zero()

    def test_cycle_matrix_gives_toric_parameters(self):
        rep3 = BitMatrix.from_lists([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        code = hypergraph_product(rep3, rep3)
        assert (code.n, code.k) == (18, 2)
        assert code.w_X == code.w_Z == 4

    def test_random_pairs_commute(self):
        rng = random.Random(13)
        for _ in range(5):
            h1 = make_random_matrix(rng, 2, 4, 2)
            h2 = make_random_matrix(rng, 2, 3, 2)
            code = hypergraph_product(h1, h2)
            assert (code.G_X @ code.G_Z.transpose()).is_zero()
            assert code.n == 4 * 3 + 2 * 2

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValidationError):
            hypergraph_product(BitMatrix((0,) * 2, 3), BitMatrix.identity(2))


class TestRepetitionTranspose:
    """The block oracle's coupling matrix between consecutive rounds."""

    def test_m2(self):
        assert repetition_transpose(2) == BitMatrix.from_lists([[1], [1]])

    def test_m3(self):
        assert repetition_transpose(3) == BitMatrix.from_lists([[1, 0], [1, 1], [0, 1]])

    def test_column_sums_are_two(self):
        for m in range(2, 8):
            r = repetition_transpose(m)
            for c in range(m - 1):
                assert sum((row >> c) & 1 for row in r.rows) == 2

    def test_m_too_small(self):
        with pytest.raises(ValidationError):
            repetition_transpose(1)


class TestFtExtend:
    def test_shape_toric2_three_rounds(self, toric2):
        ft = ft_extend(toric2, 3, errors="x")
        assert ft.P.shape == (12, 32)
        assert ft.N == 32

    def test_orthogonality_and_row_weight(self, toric2, toric3):
        for code in (toric2, toric3):
            for m in (1, 2, 3, 4):
                ft = ft_extend(code, m, errors="x")
                assert (ft.P @ ft.Q.transpose()).is_zero()
                assert ft.w <= code.w_Z + 2

    def test_closed_form_parameters(self, toric2, toric3):
        for code, L in ((toric2, 2), (toric3, 3)):
            r = L * L
            for m in (1, 2, 3, 4):
                ft = ft_extend(code, m, errors="x")
                assert ft.N == m * code.n + (m - 1) * r
                assert ft.K == code.k == 2
                # the last round is read exactly, so fewer rounds than L
                # do not lower the distance
                assert ft.D_ft == L

    def test_distance_bruteforce_small_instances(self, toric2, toric3):
        for code, rounds in ((toric2, (1, 2, 3)), (toric3, (1, 2, 3))):
            for m in rounds:
                ft = ft_extend(code, m, errors="x")
                assert min_nontrivial_weight(ft.P, ft.Q, ft.D_ft) == ft.D_ft == code.d

    def test_single_round_is_bare_pair(self, toric2):
        ft = ft_extend(toric2, 1, errors="x")
        assert ft.P == toric2.G_Z
        assert ft.Q == toric2.G_X
        assert ft.N == toric2.n

    def test_matrix_level_entry_point(self, toric2):
        ft = ft_extend_matrices(toric2.G_Z, toric2.G_X, 2)
        assert ft.N == 2 * 8 + 4
        assert (ft.P @ ft.Q.transpose()).is_zero()

    def test_bad_round_count(self, toric2):
        with pytest.raises(ValidationError, match="at least one measurement round"):
            ft_extend(toric2, 0, errors="x")

    def test_check_matrix_must_factor_over_the_rounds(self, toric3):
        ft = ft_extend(toric3, 2, errors="x")
        assert ft.P.shape == (18, 45) and (ft.n, ft.r) == (18, 9)
        with pytest.raises(ValidationError, match=r"\(18, 45\) does not factor over 5 rounds"):
            FtCode(5, ft.P, ft.Q)
        # 9 rounds split the 18 rows, but not the 45 - 8*2 columns
        with pytest.raises(ValidationError, match="does not factor over 9 rounds"):
            FtCode(9, ft.P, ft.Q)
        with pytest.raises(ValidationError, match="at least one measurement round"):
            FtCode(0, ft.P, ft.Q)
        assert FtCode(1, ft.P, ft.Q) == ft_extend_matrices(ft.P, ft.Q, 1)

    def test_degeneracy_rows_must_fit_the_checks(self, toric2):
        ft = ft_extend(toric2, 2, errors="x")
        assert ft.P.shape == (8, 20) and ft.Q.shape == (16, 20)
        wide = BitMatrix(ft.Q.rows, ft.Q.cols + 3)
        with pytest.raises(ValidationError, match="Q has 23 columns but P has 20"):
            FtCode(2, ft.P, wide)
        with pytest.raises(ValidationError, match="Q has 17 columns but P has 20"):
            FtCode(2, ft.P, BitMatrix(tuple(r & (1 << 17) - 1 for r in ft.Q.rows), 17))

    def test_matches_the_block_construction(self):
        """One hypergraph product with the repetition code builds what
        the block-by-block layout built, and refuses what it refused
        with the same error."""
        seen = set()

        @settings(max_examples=300, deadline=None)
        @given(
            data=st.data(),
            n=st.integers(1, 5),
            m=st.integers(-1, 5),
            d=st.none() | st.integers(-1, 4),
        )
        def run(data, n, m, d):
            H = BitMatrix(tuple(data.draw(rows_of(n))), n)
            if data.draw(st.booleans()):
                # undetectable rows: sums of H's kernel vectors
                basis = [v.bits for v in H.kernel_basis()]
                picks = data.draw(st.lists(st.integers(0, (1 << len(basis)) - 1), max_size=4))
                G = BitMatrix(tuple(span_element(basis, p) for p in picks), n)
            else:
                g_cols = data.draw(st.sampled_from([n, n, n, n + 1]))
                G = BitMatrix(tuple(data.draw(rows_of(g_cols))), g_cols)
            try:
                want = ft_extend_blocks(H, G, m, d)
            except ValidationError as err:
                with pytest.raises(type(err)) as got:
                    ft_extend_matrices(H, G, m, d)
                assert str(got.value) == str(err)
                seen.add(str(err).split(" ")[0])
                return
            ft = ft_extend_matrices(H, G, m, d)
            assert (ft.m, ft.P, ft.Q, ft.n, ft.r, ft.D_ft) == (
                want.m, want.P, want.Q, want.n, want.r, want.D_ft
            )
            assert (ft.N, ft.K, ft.w, ft.qubit_cols) == (want.N, want.K, want.w, want.qubit_cols)
            seen.add("built")

        run()
        # built, and refused for rounds ("need"), distance ("known"),
        # columns ("H") and a detectable row ("degeneracy")
        assert seen == {"built", "need", "known", "H", "degeneracy"}


@pytest.mark.parametrize("d", [0, -4])
def test_known_distance_below_one_rejected(toric2, d):
    with pytest.raises(ValidationError, match="known distance must be at least 1"):
        new_css(toric2.G_X, toric2.G_Z, d=d)
    with pytest.raises(ValidationError, match="known distance must be at least 1"):
        new_stabilizer(toric2.stabilizer.G, d=d)
    with pytest.raises(ValidationError, match="known distance must be at least 1"):
        ft_extend_matrices(toric2.G_Z, toric2.G_X, 2, d=d)
    assert new_css(toric2.G_X, toric2.G_Z, d=1).d == 1


def nonzero_rows(cols: int, max_rows: int):
    return st.lists(st.integers(1, (1 << cols) - 1), min_size=1, max_size=max_rows)


def rows_of(cols: int):
    """Up to four rows of the given width, zero rows allowed."""
    return st.lists(st.integers(0, (1 << cols) - 1), max_size=4)


def span_element(basis: list[int], mask: int) -> int:
    """XOR of the basis words picked by the set bits of mask."""
    word = 0
    for i, b in enumerate(basis):
        if (mask >> i) & 1:
            word ^= b
    return word


def for_random_matrices(check, max_cols: int):
    """Run check(data, n) on 200 draws of a column count n <= max_cols;
    check returns whether it found an odd pair, and both answers must
    come up."""
    seen = set()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, max_cols))
    def run(data, n):
        seen.add(check(data, n))

    run()
    assert seen == {False, True}


class TestOddPairs:
    """Every construction check reads the first odd pair of two row
    sets off one product; each old row-by-row scan is its oracle."""

    def test_anticommuting_generators(self):
        def check(data, n):
            G = BitMatrix(tuple(data.draw(nonzero_rows(2 * n, 5))), 2 * n)
            pair = anticommuting_pair_literal(G)
            assert G.first_odd_pair(StabilizerCode(G).H) == pair
            if pair is None:
                assert new_stabilizer(G).G == G
                return False
            with pytest.raises(CommutativityError) as err:
                new_stabilizer(G)
            assert err.value.rows == pair
            assert str(err.value) == f"generator rows {pair[0]} and {pair[1]} anticommute"
            # a code built without the check is refused when its census starts
            with pytest.raises(ValidationError, match="every degeneracy row must be undetectable"):
                enumerate_clusters(StabilizerCode(G), 1)
            return True

        for_random_matrices(check, 3)

    def test_nonorthogonal_css_sectors(self):
        def check(data, n):
            G_X = BitMatrix(tuple(data.draw(nonzero_rows(n, 4))), n)
            G_Z = BitMatrix(tuple(data.draw(nonzero_rows(n, 4))), n)
            pair = nonorthogonal_pair_literal(G_X, G_Z)
            assert G_X.first_odd_pair(G_Z) == pair
            if pair is None:
                assert new_css(G_X, G_Z) == CssCode(G_X, G_Z)
                return False
            with pytest.raises(CommutativityError) as err:
                new_css(G_X, G_Z)
            assert err.value.rows == pair
            with pytest.raises(ValidationError, match="every degeneracy row must be undetectable"):
                enumerate_clusters(CssCode(G_X, G_Z), 1, sector="x")
            return True

        for_random_matrices(check, 5)

    def test_detectable_degeneracy_rows(self):
        def check(data, n):
            H = BitMatrix(tuple(data.draw(nonzero_rows(n, 3))), n)
            G = BitMatrix(tuple(data.draw(nonzero_rows(n, 3))), n)
            rounds = data.draw(st.integers(1, 3))
            row = detectable_row_literal(H, G)
            pair = G.first_odd_pair(H)
            assert (None if pair is None else pair[0]) == row
            bare = FtCode(1, H, G)
            if row is None:
                ft = ft_extend_matrices(H, G, rounds)
                assert (ft.P @ ft.Q.transpose()).is_zero()
                enumerate_clusters(bare, 1, sector="ft")
                return False
            with pytest.raises(ValidationError) as err:
                ft_extend_matrices(H, G, rounds)
            assert str(err.value) == f"degeneracy row {row} is detectable, not undetectable"
            with pytest.raises(ValidationError, match="every degeneracy row must be undetectable"):
                enumerate_clusters(bare, 1, sector="ft")
            return True

        for_random_matrices(check, 5)


class TestCssValidation:
    def test_orthogonality_enforced(self):
        gx = BitMatrix.from_lists([[1, 1, 0]])
        gz = BitMatrix.from_lists([[1, 0, 1]])
        with pytest.raises(CommutativityError):
            new_css(gx, gz)

    def test_k_from_ranks(self, toric3):
        assert toric3.k == toric3.n - toric3.G_X.rank() - toric3.G_Z.rank()

    def test_sector_views(self, toric3):
        checks, degeneracy = toric3.sector("x")
        assert checks == toric3.G_Z and degeneracy == toric3.G_X
        checks, degeneracy = toric3.sector("z")
        assert checks == toric3.G_X and degeneracy == toric3.G_Z
        with pytest.raises(ValidationError):
            toric3.sector("w")

    def test_block_diagonal_stabilizer(self, toric2):
        stab = toric2.stabilizer
        assert stab.G.nrows == toric2.G_X.nrows + toric2.G_Z.nrows
        assert (stab.H @ stab.G.transpose()).is_zero()

    def test_check_times_generators_vanishes_everywhere(self, random_css_codes, toric3):
        for code in list(random_css_codes) + [toric3]:
            stab = code.stabilizer
            assert (stab.H @ stab.G.transpose()).is_zero()


class TestComputedAttributes:
    """Codes store only their defining matrices; every other attribute
    is computed from them."""

    def test_fields_are_the_defining_matrices(self, toric2):
        assert [f.name for f in fields(toric2.stabilizer)] == ["G", "d"]
        assert [f.name for f in fields(toric2)] == ["G_X", "G_Z", "d"]
        assert [f.name for f in fields(ft_extend(toric2, 2))] == ["m", "P", "Q", "D_ft"]

    def test_random_hypergraph_products_and_space_time_codes(self):
        rng = random.Random(7)
        for _ in range(12):
            h1 = make_random_matrix(rng, rng.randint(2, 3), rng.randint(2, 4), 2)
            h2 = make_random_matrix(rng, rng.randint(2, 3), rng.randint(2, 4), 2)
            code = hypergraph_product(h1, h2)
            n = h1.cols * h2.cols + h1.nrows * h2.nrows
            assert code.n == code.G_X.cols == code.G_Z.cols == n
            assert code.w_X == max(row.bit_count() for row in code.G_X.rows)
            assert code.w_Z == max(row.bit_count() for row in code.G_Z.rows)
            assert code.k == n - code.G_X.rank() - code.G_Z.rank()

            stab = code.stabilizer
            assert (stab.n, stab.k, stab.d) == (n, code.k, code.d)
            assert stab.w == max(stab.generator(i).weight for i in range(stab.G.nrows))
            assert stab.w == max(code.w_X, code.w_Z)
            for i, row in enumerate(stab.H.rows):
                g = stab.generator(i)
                assert row == PauliOp(g.u, g.v).to_binary().bits

            for errors in ("x", "z"):
                checks, _ = code.sector(errors)
                for m in (1, 2, 3):
                    ft = ft_extend(code, m, errors=errors)
                    assert (ft.m, ft.n, ft.r, ft.D_ft) == (m, n, checks.nrows, None)
                    assert ft.N == m * n + (m - 1) * checks.nrows == ft.P.cols == ft.Q.cols
                    assert ft.qubit_cols == m * n
                    assert ft.w == max(row.bit_count() for row in ft.P.rows)
                    assert ft.K == ft.N - ft.P.rank() - ft.Q.rank() == code.k

    def test_cached_values_stay_out_of_equality(self, toric3):
        fresh = toric_code(3)
        assert toric3.k == 2 and toric3.stabilizer.H.nrows == 18
        assert fresh == toric3 and hash(fresh) == hash(toric3)
