import argparse
import json

import pytest

from clusterbounds import (
    ChannelParams,
    CodeParams,
    enumerate_clusters,
    solve_threshold,
    threshold_curve,
    toric_code,
)
from clusterbounds.cli import build_parser, main
from clusterbounds.matio import read_census_csv, read_matrix, write_csv


def run(*argv):
    return main(list(argv))


class TestBuild:
    def test_toric_summary(self, capsys):
        assert run("build", "toric", "--L", "3") == 0
        out = capsys.readouterr().out
        assert "n=18 k=2 d=3" in out
        assert "w_X=4 w_Z=4" in out

    def test_hgp_from_dense_file(self, tmp_path, capsys):
        path = tmp_path / "rep3.txt"
        path.write_text("110\n011\n101\n")
        assert run("build", "hgp", "--h1", str(path), "--h2", str(path)) == 0
        assert "n=18 k=2" in capsys.readouterr().out

    def test_stabilizer_from_file(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("1100\n")  # XX on two qubits
        assert run("build", "stabilizer", "--g", str(path)) == 0
        assert "k=1" in capsys.readouterr().out

    def test_missing_argument(self, capsys):
        assert run("build", "toric") == 2
        assert "needs --L" in capsys.readouterr().err

    def test_malformed_alist(self, tmp_path, capsys):
        path = tmp_path / "bad.alist"
        path.write_text("4 2\n2 2\n1 1 1 1\n2 2\n1\n1\n2\n2 99\n1 2\n3 4\n")
        assert run("build", "css", "--gx", str(path), "--gz", str(path)) == 2
        assert "line" in capsys.readouterr().err

    def test_contradicting_alist_rows(self, tmp_path, capsys):
        good = tmp_path / "rep.alist"
        good.write_text("3 2\n2 2\n1 2 1\n2 2\n1\n1 2\n2\n1 2\n2 3\n")
        bad = tmp_path / "bad.alist"
        bad.write_text("3 2\n2 2\n1 2 1\n2 2\n1\n1 2\n2\n1 3\n2 3\n")
        assert run("build", "hgp", "--h1", str(bad), "--h2", str(good)) == 2
        assert "alist line 8: row 0" in capsys.readouterr().err
        assert run("build", "hgp", "--h1", str(good), "--h2", str(good)) == 0

    @pytest.mark.parametrize(
        "text, error",
        [
            ("2 1\n2 1\n2 0\n1\n1 1\n0\n1\n", "alist line 5: column 0 names a row twice"),
            ("2 1\n9 9\n1 1\n2\n1\n1\n1 2\n", "alist line 2: expected the largest"),
            ("2 1\n1 2\n1 1\n2\n1\n1\n1 2\n7 7 7\n", "alist line 8: unexpected '7 7 7'"),
        ],
    )
    def test_malformed_alist_refused_by_hgp(self, tmp_path, capsys, text, error):
        good = tmp_path / "rep.alist"
        good.write_text("3 2\n2 2\n1 2 1\n2 2\n1\n1 2\n2\n1 2\n2 3\n")
        bad = tmp_path / "bad.alist"
        bad.write_text(text)
        assert run("build", "hgp", "--h1", str(good), "--h2", str(bad)) == 2
        assert error in capsys.readouterr().err

    def test_anticommuting_rows_reported(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("10\n01\n")  # X and Z on the same qubit
        assert run("build", "stabilizer", "--g", str(path)) == 2
        assert "anticommute" in capsys.readouterr().err


class TestCensus:
    def test_oracle_checked_census(self, tmp_path):
        out = tmp_path / "census.csv"
        rc = run(
            "census", "toric", "--L", "3", "--sector", "x",
            "--m-max", "6", "--oracle", "-o", str(out),
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[2].split(",")[:5] == ["m", "distinct", "irreducible",
                                           "irreducible_nonstabilizer", "paths"]
        data = [ln.split(",") for ln in lines[3:]]
        assert [row[0] for row in data] == ["3", "4", "5", "6"]
        assert data[0][3] == "6"
        for row in data:
            assert int(row[5]) >= int(row[4])  # bound >= paths

    def test_byte_identical_across_workers(self, tmp_path):
        paths = []
        for workers in (1, 2):
            out = tmp_path / f"census_{workers}.csv"
            rc = run(
                "census", "toric", "--L", "2", "--sector", "x",
                "--m-max", "4", "--workers", str(workers), "-o", str(out),
            )
            assert rc == 0
            paths.append(out.read_bytes())
        assert paths[0] == paths[1]

    def test_space_time_census(self, tmp_path):
        out = tmp_path / "ft.csv"
        rc = run(
            "census", "toric", "--L", "2", "--sector", "ft-x", "--rounds", "2",
            "--m-max", "3", "--oracle", "-o", str(out),
        )
        assert rc == 0
        assert "oracle=pass" in out.read_text()

    def test_resource_cap_exit_code(self, capsys):
        rc = run(
            "census", "toric", "--L", "3", "--sector", "x",
            "--m-max", "6", "--max-stored", "5",
        )
        assert rc == 3
        assert "resource cap" in capsys.readouterr().err

    def test_csv_has_no_rows_for_weights_without_clusters(self, tmp_path):
        out = tmp_path / "census.csv"
        assert run("census", "toric", "--L", "3", "--sector", "x", "--m-max", "6",
                   "-o", str(out)) == 0
        census = enumerate_clusters(toric_code(3), 6, sector="x")
        assert census.distinct[1] == census.distinct[2] == 0
        lines = out.read_text().splitlines()
        assert lines[2].split(",") == ["m", *census.count_fields(), "bound"]
        assert [ln.split(",")[0] for ln in lines[3:]] == ["3", "4", "5", "6"]
        fields = read_census_csv(str(out))
        for field, values in census.count_fields().items():
            assert fields[field] == {m: values[m] for m in range(3, 7)}

    def test_unwritable_output(self, capsys):
        assert run("census", "toric", "--L", "2", "--sector", "x", "--m-max", "2",
                   "-o", "/nonexistent/dir/census.csv") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "/nonexistent/dir/census.csv" in err

    def test_rounds_required_for_ft(self, capsys):
        rc = run("census", "toric", "--L", "2", "--sector", "ft-x", "--m-max", "2")
        assert rc == 2
        assert capsys.readouterr().err == "error: space-time census needs --rounds\n"
        rc = run("census", "toric", "--L", "2", "--sector", "ft-x", "--rounds", "0",
                 "--m-max", "2")
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == "error: need at least one measurement round, got 0\n"
        assert captured.out == ""

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_max_stored_below_one(self, capsys, cap):
        rc = run("census", "toric", "--L", "2", "--m-max", "2", "--max-stored", cap)
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: max_stored must be at least 1, got {cap}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one(self, capsys, workers):
        assert run("census", "toric", "--L", "2", "--m-max", "2", "--workers", workers) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: workers must be at least 1\n" and captured.out == ""


class TestThreshold:
    def test_solve_erasure(self, capsys):
        assert run("threshold", "--model", "css", "--w", "4", "--D", "inf",
                   "--solve", "y") == 0
        assert "y = 0.333333333" in capsys.readouterr().out

    def test_solve_flip(self, capsys):
        assert run("threshold", "--model", "css", "--w", "4", "--D", "inf",
                   "--solve", "pZ") == 0
        assert "pZ = 0.028595480" in capsys.readouterr().out

    def test_solve_stabilizer_erasure(self, capsys):
        assert run("threshold", "--model", "stabilizer", "--w", "4",
                   "--solve", "y") == 0
        assert "y = 0.166666667" in capsys.readouterr().out

    def test_json_output(self, tmp_path):
        out = tmp_path / "res.json"
        assert run("threshold", "--model", "css", "--w", "4", "--solve", "y",
                   "-o", str(out)) == 0
        text = out.read_text()
        assert '"tool": "clusterbounds"' in text
        assert "0.3333333" in text

    def test_curve_is_monotone(self, tmp_path):
        out = tmp_path / "curve.csv"
        rc = run(
            "threshold", "--model", "ft-css", "--w", "4", "--q", "0.001",
            "--curve", "y:p", "--points", "9", "-o", str(out),
        )
        assert rc == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()
                if ln and not ln.startswith("#") and not ln.startswith("y")]
        values = [float(r[1]) for r in rows]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(0.0, abs=1e-6)

    def test_curve_rejects_underscore_spelling(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert run("threshold", "--model", "css", "--w", "4", "--curve", "p_X:y",
                   "-o", str(out)) == 2
        assert "p_X" in capsys.readouterr().err
        assert not out.exists()

    def test_curve_csv_equals_threshold_curve(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run("threshold", "--model", "ft-css", "--w", "4", "--q", "0.001",
                   "--curve", "y:p", "--points", "7", "-o", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[2] == "y,p"
        rows = [tuple(map(float, ln.split(","))) for ln in lines[3:]]
        assert rows == threshold_curve(CodeParams(w=4), "y", "p", ChannelParams(q=0.001),
                                       "ft-css", 7)

    def test_curve_needs_a_point(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run("threshold", "--model", "css", "--w", "4", "--curve", "y:pZ",
                   "--points", "0", "-o", str(out)) == 2
        assert not out.exists()

    def test_one_curve_point_is_at_zero(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run("threshold", "--model", "css", "--w", "4", "--curve", "y:pZ",
                   "--points", "1", "-o", str(out)) == 0
        [row] = out.read_text().splitlines()[3:]
        assert row.startswith("0,")

    def test_curve_unconstrained_rate_is_at_its_bracket_top(self, tmp_path):
        # w_Z = 1 leaves p_X out of the condition until y passes 1/3,
        # where the last row fails already at p_X = 0
        out = tmp_path / "curve.csv"
        assert run("threshold", "--model", "css", "--wx", "4", "--wz", "1",
                   "--curve", "y:pX", "--points", "3", "-o", str(out)) == 0
        assert out.read_text().splitlines()[3:] == [
            "0,0.5", "0.16666666674427688,0.5", "0.33333333348855376,0",
        ]

    def test_curve_config_names_fixed_rates_and_points(self, capsys):
        argv = ("threshold", "--model", "ft-css", "--w", "4", "--curve", "y:pZ", "--points", "2")
        assert run(*argv) == 0
        bare = capsys.readouterr().out.splitlines()
        assert run(*argv, "--q", "0.001") == 0
        fixed = capsys.readouterr().out.splitlines()
        config = "# config: command=threshold model=ft-css w=4 w_X=None w_Z=None D=inf"
        assert bare[1] == f"{config} curve=y:pZ points=2"
        assert fixed[1] == f"{config} q=0.001 curve=y:pZ points=2"
        # the rows differ, and so must the configs above them
        assert bare[3].startswith("0,0.0158") and fixed[3].startswith("0,0.0120")

    def test_curve_config_names_the_default_point_count(self, capsys):
        assert run("threshold", "--model", "css", "--w", "4", "--curve", "y:pZ") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].endswith(" curve=y:pZ points=21")
        assert len(lines[3:]) == 21

    def test_solve_json_config_names_fixed_rates(self, tmp_path):
        out = tmp_path / "res.json"
        assert run("threshold", "--model", "css", "--w", "4", "--solve", "p", "--y", "0.1",
                   "-o", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["config"] == {
            "command": "threshold", "model": "css", "w": 4, "w_X": None, "w_Z": None,
            "D": "inf", "y": 0.1, "solve": "p",
        }
        assert doc["result"]["p"] == solve_threshold(CodeParams(w=4), "p", ChannelParams(y=0.1))

    @pytest.mark.parametrize("D", ["abc", "nan"])
    def test_bad_distance_constant(self, capsys, D):
        assert run("threshold", "--model", "css", "--w", "4", "--D", D, "--solve", "y") == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""

    @pytest.mark.parametrize(
        "D",
        [" inf", "inf\t", " inf\n", "inf\r", "inf\x0b", "\u2003inf",
         "Infinity", "+inf", "INF", "+Infinity", " INFINITY\n"],
    )
    def test_distance_is_written_as_read(self, tmp_path, capsys, D):
        # float() skips the whitespace around a number and reads infinity
        # in several spellings, so the output is that of the bare inf,
        # byte for byte
        for task in (("--curve", "y:pZ", "--points", "2"), ("--solve", "y")):
            outputs = []
            for text in ("inf", D):
                out = tmp_path / f"{len(outputs)}.out"
                argv = ("threshold", "--model", "css", "--w", "4", "--D", text, *task)
                assert run(*argv, "-o", str(out)) == 0
                outputs.append((out.read_bytes(), capsys.readouterr()))
            assert outputs[1] == outputs[0]
        assert json.loads(outputs[0][0])["config"]["D"] == "inf"

    @pytest.mark.parametrize(
        "D, text",
        [
            pytest.param(D, text, id=D)
            for D, text in [("10", "10"), (" 1e1", "10"), ("1_0", "10"), ("10.0", "10"),
                            ("2.50\n", "2.5"), ("1e22", "1e+22")]
        ],
    )
    def test_finite_distance_is_written_canonically(self, tmp_path, capsys, D, text):
        # every spelling of one finite value gives the output of its
        # canonical text, byte for byte
        for task in (("--curve", "y:pZ", "--points", "2"), ("--solve", "y")):
            outputs = []
            for spelling in (text, D):
                out = tmp_path / f"{len(outputs)}.out"
                argv = ("threshold", "--model", "css", "--w", "4", "--D", spelling, *task)
                assert run(*argv, "-o", str(out)) == 0
                outputs.append((out.read_bytes(), capsys.readouterr()))
            assert outputs[1] == outputs[0]
        assert json.loads(outputs[0][0])["config"]["D"] == text

    @pytest.mark.parametrize("D", ["Infinity", "INF"])
    def test_infinite_distance_constant(self, capsys, D):
        assert run("threshold", "--model", "css", "--w", "4", "--D", D, "--solve", "y") == 0
        assert "y = 0.333333333" in capsys.readouterr().out

    def test_curve_rejects_unknown_rate(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert run("threshold", "--model", "css", "--w", "4", "--curve", "y:bogus",
                   "-o", str(out)) == 2
        assert "bogus" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_solve_spec(self, capsys):
        assert run("threshold", "--model", "css", "--w", "4") == 2

    @pytest.mark.parametrize("w", ["-3", "0"])
    def test_weight_below_one(self, capsys, w):
        assert run("threshold", "--model", "ft-stabilizer", "--w", w, "--solve", "q") == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: w must be at least 1, got {w}\n" and captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("build", "css", "--gx", "{h}", "--gz", "{h}"),
        ("ft-extend", "css", "--gx", "{h}", "--gz", "{h}", "--sector", "x", "--rounds", "3"),
    ],
)
def test_known_distance_below_one(tmp_path, capsys, argv):
    path = tmp_path / "ham.txt"
    path.write_text("1111000\n0110110\n0011101\n")
    argv = [a.format(h=path) for a in argv]
    assert run(*argv, "--d", "-4") == 2
    captured = capsys.readouterr()
    assert captured.err == "error: known distance must be at least 1, got -4\n"
    assert captured.out == ""
    assert run(*argv, "--d", "3") == 0


class TestFtExtendCommand:
    def test_writes_alist_pair(self, tmp_path, capsys):
        prefix = str(tmp_path / "ft")
        rc = run("ft-extend", "toric", "--L", "2", "--sector", "x",
                 "--rounds", "3", "-o", prefix)
        assert rc == 0
        out = capsys.readouterr().out
        assert "N=32 K=2 D_ft=2" in out
        assert "P Q^T = 0: pass" in out
        p = read_matrix(prefix + ".p.alist")
        assert p.shape == (12, 32)
        assert p.max_row_weight() <= 6

    def test_single_round_round_trip(self, tmp_path, capsys):
        prefix = str(tmp_path / "bare")
        rc = run("ft-extend", "toric", "--L", "2", "--sector", "x",
                 "--rounds", "1", "-o", prefix)
        assert rc == 0
        from clusterbounds import toric_code

        assert read_matrix(prefix + ".p.alist") == toric_code(2).G_Z


class TestBadprob:
    def test_css_table_dominates(self, tmp_path):
        out = tmp_path / "bp.csv"
        rc = run("badprob", "--kind", "css", "--m-max", "6", "--y", "0.1",
                 "--p", "0.05", "-o", str(out))
        assert rc == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()[3:]]
        for row in rows:
            assert float(row[1]) <= float(row[2]) + 1e-12

    def test_ft_table(self, tmp_path):
        out = tmp_path / "bpft.csv"
        rc = run("badprob", "--kind", "ft", "--m-max", "3", "--p", "0.1",
                 "--q", "0.05", "-o", str(out))
        assert rc == 0
        header = out.read_text().splitlines()[2]
        assert header == "m,m_q,exact,bound"

    def test_m_max_below_one(self, tmp_path, capsys):
        out = tmp_path / "bp.csv"
        assert run("badprob", "--m-max", "0", "-o", str(out)) == 2
        assert capsys.readouterr().err == "error: m_max must be at least 1\n"
        assert not out.exists()


class TestFit:
    def test_fit_from_census_csv(self, tmp_path, capsys):
        path = tmp_path / "census.csv"
        rows = [[m, 2 * 3**m] for m in range(2, 9)]
        write_csv(str(path), ["m", "irreducible"], rows, {"command": "census"})
        rc = run("fit", str(path), "--field", "irreducible", "-o",
                 str(tmp_path / "fit.json"))
        assert rc == 0
        out = capsys.readouterr().out
        assert "growth_base = 3" in out
        assert '"growth_base": 3' in (tmp_path / "fit.json").read_text()

    def test_repeated_weight_is_refused(self, tmp_path, capsys):
        path = tmp_path / "census.csv"
        rows = [[4, 6], [5, 12], [4, 2], [6, 40], [7, 90]]
        write_csv(str(path), ["m", "irreducible"], rows, {"command": "census"})
        assert run("fit", str(path), "--field", "irreducible") == 2
        captured = capsys.readouterr()
        assert captured.err == "error: census CSV line 6: weight 4 repeats line 4\n"
        assert captured.out == ""

    def test_m_min_applies_without_m_max(self, tmp_path, capsys):
        census = tmp_path / "cx.csv"
        assert run("census", "toric", "--L", "3", "--sector", "x", "--m-max", "6",
                   "-o", str(census)) == 0
        # weights 3-6 hold clusters, so --m-min 5 leaves two points either way
        assert run("fit", str(census), "--m-min", "5") == 2
        assert run("fit", str(census), "--m-min", "5", "--m-max", "6") == 2
        assert "in [5, 6], got 2" in capsys.readouterr().err
        fit_json = tmp_path / "fit.json"
        assert run("fit", str(census), "--m-min", "4", "-o", str(fit_json)) == 0
        assert '"weights": [4, 5, 6]' in fit_json.read_text()

    def test_missing_census_file(self, capsys):
        assert run("fit", "/nonexistent.csv") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read census file") and len(err.splitlines()) == 1

    def test_unknown_field(self, tmp_path, capsys):
        path = tmp_path / "census.csv"
        write_csv(str(path), ["m", "distinct"], [[1, 2], [2, 3], [3, 4]], {})
        assert run("fit", str(path), "--field", "nope") == 2


@pytest.mark.parametrize(
    "model, curve, field",
    [("css", "y:y", "y"), ("css", "p:pX", "p_X"), ("ft-css", "pZ:p", "p_Z"), ("stabilizer", "p:p", "p")],
)
def test_curve_axes_setting_one_field(tmp_path, capsys, model, curve, field):
    out = tmp_path / "curve.csv"
    assert run("threshold", "--model", model, "--w", "4", "--curve", curve, "-o", str(out)) == 2
    a, b = curve.split(":")
    assert capsys.readouterr().err == f"error: curve axes {a} and {b} both set {field}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("census", "toric", "--L", "3", "--sector", "x", "--rounds", "3", "--m-max", "4"), "rounds"),
        (("census", "toric", "--L", "3", "--sector", "full", "--rounds", "3", "--m-max", "4"), "rounds"),
        (("build", "toric", "--L", "2", "--d", "0"), "d"),
        (("build", "toric", "--L", "2", "--d", "2"), "d"),
        (("build", "hgp", "--h1", "{h}", "--h2", "{h}", "--d", "3"), "d"),
        (("build", "css", "--gx", "{h}", "--gz", "{h}", "--L", "3"), "L"),
        (("census", "stabilizer", "--g", "{h}", "--h1", "{h}", "--m-max", "2"), "h1"),
        (("ft-extend", "toric", "--L", "2", "--gz", "{h}", "--rounds", "2"), "gz"),
        (("threshold", "--model", "css", "--w", "4", "--solve", "y", "--p", "0.1"), "p"),
        (("threshold", "--model", "stabilizer", "--w", "4", "--solve", "y", "--q", "0.1"), "q"),
        (("threshold", "--model", "ft-stabilizer", "--w", "4", "--solve", "q", "--pX", "0.1"), "pX"),
        (("threshold", "--model", "stabilizer", "--w", "4", "--wx", "3", "--solve", "y"), "wx"),
        (("threshold", "--model", "css", "--w", "4", "--wx", "3", "--wz", "3", "--solve", "y"), "w"),
        (("threshold", "--model", "css", "--w", "4", "--solve", "y", "--y", "0.1"), "y"),
        (("threshold", "--model", "css", "--w", "4", "--curve", "y:p", "--pZ", "0.1"), "pZ"),
        (("threshold", "--model", "css", "--w", "4", "--solve", "y", "--points", "3"), "points"),
        (("threshold", "--model", "css", "--w", "4", "--solve", "y", "--curve", "y:pZ"), "solve"),
        (("badprob", "--kind", "ft", "--y", "0.1"), "y"),
        (("badprob", "--kind", "depol", "--q", "0.1"), "q"),
    ],
)
def test_ignored_flag_is_refused_by_name(tmp_path, capsys, argv, flag):
    path = tmp_path / "h.txt"
    path.write_text("110\n011\n")
    assert run(*(a.format(h=path) for a in argv)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: --{flag} does not apply to ")
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("threshold", "--model", "css", "--wx", "4", "--wz", "3", "--y", "0.1", "--solve", "pX"),
        ("threshold", "--model", "css", "--w", "4", "--wx", "3", "--solve", "pZ"),
        ("threshold", "--model", "ft-stabilizer", "--w", "4", "--y", "0.001", "--p", "0.001",
         "--solve", "q"),
        ("badprob", "--kind", "ft", "--p", "0.1", "--q", "0.1", "--m-max", "2"),
        ("badprob", "--kind", "css", "--y", "0.1", "--p", "0.1", "--m-max", "2"),
    ],
)
def test_flags_the_command_reads_are_accepted(argv):
    assert run(*argv) == 0


def test_unset_rates_are_written_as_zero(capsys):
    assert run("badprob", "--kind", "css", "--m-max", "1", "--p", "0.1") == 0
    assert "# config: command=badprob kind=css m_max=1 y=0.0 p=0.1 q=0.0\n" in capsys.readouterr().out


class TestOneParserPerProcess:
    def test_main_builds_its_parser_once(self, monkeypatch, capsys):
        build_parser.cache_clear()
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(None)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        assert run("build", "toric", "--L", "2") == 0
        assert run("badprob", "--kind", "css", "--m-max", "1", "--p", "0.1") == 0
        # the top-level parser and one per subcommand, once
        assert len(built) == 7

    def test_an_omitted_flag_takes_its_default_after_a_given_one(self, capsys):
        parser = build_parser()
        curve = ("threshold", "--model", "css", "--w", "4", "--curve", "y:pZ", "--points", "2")
        assert run(*curve, "--D", "10") == 0
        assert " D=10 " in capsys.readouterr().out
        assert run(*curve) == 0
        assert " D=inf " in capsys.readouterr().out
        assert build_parser() is parser

    def test_an_omitted_worker_count_writes_the_same_bytes(self, capsys):
        parser = build_parser()
        census = ("census", "toric", "--L", "3", "--sector", "full", "--m-max", "6")
        outputs = []
        for workers in (("--workers", "2"), ()):
            assert run(*census, *workers) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert build_parser() is parser

    def test_a_version_exit_leaves_the_next_call_working(self, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit) as exited:
            run("--version")
        assert exited.value.code == 0
        assert capsys.readouterr().out.startswith("clusterbounds ")
        assert run("build", "toric", "--L", "3") == 0
        assert "n=18 k=2 d=3" in capsys.readouterr().out
        assert build_parser() is parser
