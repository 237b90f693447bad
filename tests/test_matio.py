import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterbounds import ValidationError
from clusterbounds.gf2 import BitMatrix
from clusterbounds.matio import (
    dump_json,
    format_float,
    parse_alist,
    parse_dense,
    read_census_csv,
    read_matrix,
    write_alist,
    write_csv,
)
from oracles import write_alist_literal


def random_bitmatrix(rng, rows, cols):
    return BitMatrix(tuple(rng.getrandbits(cols) for _ in range(rows)), cols)


_matrices = st.integers(1, 12).flatmap(
    lambda cols: st.lists(st.integers(0, 2**cols - 1), min_size=1, max_size=8).map(
        lambda rows: BitMatrix(tuple(rows), cols)
    )
)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("matio")


class TestAlist:
    def test_round_trip(self):
        rng = random.Random(21)
        for _ in range(10):
            m = random_bitmatrix(rng, rng.randint(1, 6), rng.randint(1, 9))
            assert parse_alist(write_alist(m)) == m

    def test_toric_round_trip(self, toric2):
        assert parse_alist(write_alist(toric2.G_Z)) == toric2.G_Z

    def test_zero_padding_tolerated(self):
        text = "3 2\n2 2\n1 2 1\n2 2\n1 0\n1 2\n2 0\n1 2 0\n2 3 0\n"
        m = parse_alist(text)
        assert m == BitMatrix.from_lists([[1, 1, 0], [0, 1, 1]])

    def test_zero_column_round_trip(self):
        m = BitMatrix.from_lists([[1, 0, 0], [1, 0, 1]])
        assert parse_alist(write_alist(m)) == m

    def test_bad_header(self):
        with pytest.raises(ValidationError, match="line 1"):
            parse_alist("x y\n1 1\n")

    def test_declared_weight_mismatch(self):
        text = "2 1\n1 1\n1 2\n2\n1\n1\n1 2\n"
        with pytest.raises(ValidationError, match="column"):
            parse_alist(text)

    def test_row_index_out_of_range(self):
        text = "2 1\n1 1\n1 1\n2\n1\n9\n1 2\n"
        with pytest.raises(ValidationError, match="out of range"):
            parse_alist(text)

    def test_contradicting_row_section(self):
        # the columns put row 1 at column 1 and row 2 at column 2; the
        # row sections say the opposite
        text = "2 2\n1 1\n1 1\n1 1\n1\n2\n2\n1\n"
        with pytest.raises(ValidationError, match=r"line 7: row 0 lists columns \[2\]"):
            parse_alist(text)

    def test_missing_row_section(self):
        with pytest.raises(ValidationError, match="line 6: missing row sections"):
            parse_alist("2 2\n1 1\n1 1\n1 1\n1\n2\n")
        with pytest.raises(ValidationError, match="line 7: missing row sections"):
            parse_alist("2 2\n1 1\n1 1\n1 1\n1\n2\n1\n")

    def test_row_weight_mismatch(self):
        text = "2 2\n1 1\n1 1\n2 1\n1\n2\n1\n2\n"
        match = r"line 7: row 0 lists columns \[1\] under declared weight 2"
        with pytest.raises(ValidationError, match=match):
            parse_alist(text)
        with pytest.raises(ValidationError, match="line 4: expected 2 row weights"):
            parse_alist("2 2\n1 1\n1 1\n1\n1\n2\n1\n2\n")

    def test_column_names_a_row_twice(self):
        # column 0 declares weight 2 and lists row 1 twice
        with pytest.raises(ValidationError, match="line 5: column 0 names a row twice"):
            parse_alist("2 1\n2 1\n2 0\n1\n1 1\n0\n1\n")

    def test_largest_weights_line_checked(self):
        # the sections are consistent, with largest weights 1 and 2
        with pytest.raises(ValidationError, match="line 2: expected the largest .* weights 1 2"):
            parse_alist("2 1\n9 9\n1 1\n2\n1\n1\n1 2\n")
        with pytest.raises(ValidationError, match="line 3: expected the largest .* weights 1 2"):
            parse_alist("2 1\n\n2 1\n1 1\n2\n1\n1\n1 2\n")
        assert parse_alist("2 1\n1 2\n1 1\n2\n1\n1\n1 2\n") == BitMatrix.from_lists([[1, 1]])

    def test_text_after_row_sections(self):
        with pytest.raises(ValidationError, match=r"line 9: unexpected '7 7 7' after the row"):
            parse_alist("2 1\n1 2\n1 1\n2\n1\n1\n1 2\n\n7 7 7\n\n")
        assert parse_alist("2 1\n1 2\n1 1\n2\n1\n1\n1 2\n\n\n") == BitMatrix.from_lists([[1, 1]])


class TestDense:
    def test_round_trip(self):
        rng = random.Random(22)
        for _ in range(10):
            m = random_bitmatrix(rng, rng.randint(1, 5), rng.randint(1, 8))
            assert parse_dense(str(m) + "\n") == m

    def test_spaces_allowed(self):
        assert parse_dense("1 0 1\n0 1 1\n") == BitMatrix.from_lists([[1, 0, 1], [0, 1, 1]])

    def test_bad_entry(self):
        with pytest.raises(ValidationError, match="line 2"):
            parse_dense("101\n1x1\n")

    def test_ragged(self):
        with pytest.raises(ValidationError, match="ragged"):
            parse_dense("101\n10\n")


class TestReadMatrix:
    def test_auto_detect(self, tmp_path):
        m = BitMatrix.from_lists([[1, 1, 0], [0, 1, 1]])
        alist_path = tmp_path / "m.alist"
        dense_path = tmp_path / "m.txt"
        alist_path.write_text(write_alist(m))
        dense_path.write_text(str(m) + "\n")
        assert read_matrix(str(alist_path)) == m
        assert read_matrix(str(dense_path)) == m

    @pytest.mark.parametrize(
        "text, rows",
        [
            ("11 01\n10 10\n", [[1, 1, 0, 1], [1, 0, 1, 0]]),
            ("# comment\n1 0 1\n\n0 1 1\n", [[1, 0, 1], [0, 1, 1]]),
            ("10\n01\n", [[1, 0], [0, 1]]),
            ("2 1\n1 2\n1 1\n2\n1\n1\n1 2\n", [[1, 1]]),
            ("1 1\n1 1\n1\n1\n1\n1\n", [[1]]),
        ],
    )
    def test_auto_detect_cases(self, tmp_path, text, rows):
        path = tmp_path / "m.txt"
        path.write_text(text)
        assert read_matrix(str(path)) == BitMatrix.from_lists(rows)

    def test_tabs_separate_like_spaces(self, tmp_path):
        spaced, tabbed = tmp_path / "spaced.txt", tmp_path / "tabbed.txt"
        spaced.write_text("1 0 1\n0 1 1\n")
        tabbed.write_text("1\t0\t1\n0\t1 \t1\n")
        assert read_matrix(str(tabbed)) == read_matrix(str(spaced))
        assert read_matrix(str(tabbed)) == BitMatrix.from_lists([[1, 0, 1], [0, 1, 1]])

    @pytest.mark.parametrize("text", ["101\n11\n", "1 0 1\n1 1\n", "1\t0\t1\n0\t1\n"])
    def test_ragged_dense_rows_reported(self, tmp_path, text):
        path = tmp_path / "m.txt"
        path.write_text(text)
        with pytest.raises(ValidationError, match="dense line 2: ragged row width"):
            read_matrix(str(path))

    def test_auto_detect_reports_alist_errors(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("11 01\n10 1\n")
        with pytest.raises(ValidationError, match="alist"):
            read_matrix(str(path))

    def test_missing_file(self):
        with pytest.raises(ValidationError, match="cannot read"):
            read_matrix("/nonexistent/matrix.alist")


class TestTables:
    def test_float_formatting(self):
        assert format_float(1.0 / 3.0) == "0.33333333333333331"

    def test_csv_layout(self, tmp_path):
        path = tmp_path / "out.csv"
        text = write_csv(
            str(path), ["m", "value"], [[1, 0.5], [2, 0.25]], {"command": "demo", "m_max": 2}
        )
        lines = text.splitlines()
        assert lines[0].startswith("# clusterbounds ")
        assert lines[1] == "# config: command=demo m_max=2"
        assert lines[2] == "m,value"
        assert lines[3] == "1,0.5"
        assert path.read_text() == text

    def test_json_floats_and_escaping(self):
        doc = dump_json({"result": {"x": 1.0 / 3.0, "name": 'a"b', "n": 3}}, {"command": "t"})
        assert "0.33333333333333331" in doc
        assert '"a\\"b"' in doc
        assert doc.endswith("\n")

    def test_json_escapes_control_characters(self):
        doc = dump_json({"result": {"y": 0.5}}, {"command": "threshold", "D": "inf\t"})
        assert json.loads(doc)["config"]["D"] == "inf\t"
        assert '"D": "inf\\t"' in doc

    @pytest.mark.parametrize("D", [" inf\n", "inf\r", "inf\x0b"])
    def test_csv_config_with_a_line_break_is_refused(self, tmp_path, D):
        path = tmp_path / "curve.csv"
        with pytest.raises(ValidationError) as err:
            write_csv(str(path), ["y", "pZ"], [[0.0, 0.5]], {"command": "threshold", "D": D})
        assert str(err.value) == f"config value D={D!r} holds a line break"
        assert not path.exists()

    def test_census_csv_round_trip(self, tmp_path):
        path = tmp_path / "census.csv"
        write_csv(
            str(path),
            ["m", "distinct", "paths"],
            [[3, 6, 18], [4, 9, 36]],
            {"command": "census"},
        )
        fields = read_census_csv(str(path))
        assert fields["distinct"] == {3: 6, 4: 9}
        assert fields["paths"] == {3: 18, 4: 36}

    def test_census_csv_reads_large_integers_exactly(self, tmp_path):
        path = tmp_path / "census.csv"
        big = 3 * 32 * 6**19 + 1
        write_csv(str(path), ["m", "distinct", "bound"], [[20, 1, big]], {"command": "census"})
        assert read_census_csv(str(path))["bound"] == {20: big}

    def test_census_csv_rejects_non_integer_cell(self, tmp_path):
        path = tmp_path / "census.csv"
        write_csv(str(path), ["m", "distinct"], [[3, 6], [4, 2.5]], {"command": "census"})
        with pytest.raises(ValidationError, match="line 5"):
            read_census_csv(str(path))

    def test_census_csv_rejects_repeated_weight(self, tmp_path):
        path = tmp_path / "census.csv"
        write_csv(str(path), ["m", "distinct"], [[4, 6], [5, 2], [4, 9]], {"command": "census"})
        with pytest.raises(ValidationError, match="^census CSV line 6: weight 4 repeats line 4$"):
            read_census_csv(str(path))

    def test_census_csv_missing_file(self):
        with pytest.raises(ValidationError, match="cannot read census file"):
            read_census_csv("/nonexistent/census.csv")


class TestRoundTripProperties:
    def test_alist_columns_match_the_row_append_listing(self):
        seen = set()

        @settings(max_examples=200, deadline=None)
        @given(data=st.data(), nrows=st.integers(0, 5), cols=st.integers(0, 8))
        def run(data, nrows, cols):
            row = st.integers(0, (1 << cols) - 1)
            m = BitMatrix(tuple(data.draw(st.lists(row, min_size=nrows, max_size=nrows))), cols)
            assert write_alist(m).encode() == write_alist_literal(m).encode()
            seen.add("0 x n" if not nrows else "r x 0" if not cols else "r x n")

        run()
        assert seen == {"0 x n", "r x 0", "r x n"}

    @settings(max_examples=50, deadline=None)
    @given(m=_matrices)
    def test_matrix_formats(self, m, scratch):
        path = scratch / "matrix.txt"
        for text, parse in ((write_alist(m), parse_alist), (str(m) + "\n", parse_dense)):
            assert parse(text) == m
            path.write_text(text)
            assert read_matrix(str(path)) == m

    @settings(max_examples=50, deadline=None)
    @given(
        table=st.dictionaries(
            st.integers(0, 64), st.tuples(st.integers(0, 10**60), st.integers(0, 10**60)),
            min_size=1, max_size=8,
        )
    )
    def test_census_csv(self, table, scratch):
        path = str(scratch / "census.csv")
        write_csv(path, ["m", "distinct", "paths"], [[m, *v] for m, v in table.items()], {})
        assert read_census_csv(path) == {
            "distinct": {m: v[0] for m, v in table.items()},
            "paths": {m: v[1] for m, v in table.items()},
        }
