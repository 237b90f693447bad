"""Tests of the benchmark's correctness checks: each check passes on a
right output and fails when one count in it is wrong.

    python3 perfbench/selftest.py
"""

import os
import sys
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from workloads import WORKLOADS, Session, stored  # noqa: E402


def replace_row(text: str, m: int, field: str, delta: int) -> str:
    """A census CSV with one count changed by delta."""
    lines = text.splitlines()
    header = next(ln for ln in lines if ln.startswith("m,")).split(",")
    col = header.index(field)
    for i, line in enumerate(lines):
        cells = line.split(",")
        if not line.startswith("#") and cells[0] == str(m):
            cells[col] = str(int(cells[col]) + delta)
            lines[i] = ",".join(cells)
            return "\n".join(lines) + "\n"
    raise KeyError(m)


def session_with(**outputs) -> Session:
    session = Session("")
    session.outputs.update(outputs)
    return session


class CensusChecks(unittest.TestCase):
    COPIES = {"census-ft": "census-ft.csv", "census-full-2w": "census-full.csv"}

    def test_stored_copies_pass(self):
        for name, copy in self.COPIES.items():
            WORKLOADS[name].check(session_with(census=stored(copy)), {})

    def test_wrong_count_fails_each_census_workload(self):
        for name, m, field in (("census-ft", 8, "distinct"), ("census-full-2w", 7, "irreducible")):
            wrong = replace_row(stored(self.COPIES[name]), m, field, 1)
            with self.assertRaises(CheckFailed, msg=name):
                WORKLOADS[name].check(session_with(census=wrong), {})

    def test_toric_x_facts(self):
        text = stored("verify-toric6-x.csv")
        rows = checks.parse_census_csv(text)[1]
        checks.check_toric_x(rows, 6, 8)
        for m, field, delta in ((4, "distinct", 1), (4, "irreducible", -1), (6, "distinct", 2),
                                (6, "irreducible_nonstabilizer", 1)):
            bad = checks.parse_census_csv(replace_row(text, m, field, delta))[1]
            with self.assertRaises(CheckFailed, msg=(m, field)):
                checks.check_toric_x(bad, 6, 8)
        odd = dict(rows)
        odd[5] = dict(rows[4], m=5)
        with self.assertRaises(CheckFailed):
            checks.check_toric_x(odd, 6, 8)

    def test_ceiling_bound_column_and_order(self):
        text = stored("census-full.csv")
        rows = checks.parse_census_csv(text)[1]
        checks.check_census(rows, 8, "full", 32, 4)
        for m, field, delta in ((8, "bound", -1), (4, "irreducible", 1), (6, "distinct", 10**6)):
            bad = checks.parse_census_csv(replace_row(text, m, field, delta))[1]
            with self.assertRaises(CheckFailed, msg=(m, field)):
                checks.check_census(bad, 8, "full", 32, 4)
        over = checks.parse_census_csv(replace_row(text, 4, "paths", 20736))[1]
        with self.assertRaises(CheckFailed):
            checks.check_census(over, 8, "full", 32, 4)

    def test_oracle_columns(self):
        text = stored("verify-toric3-full.csv")
        config, rows = checks.parse_census_csv(text)
        checks.check_oracle_columns(config, rows)
        config, rows = checks.parse_census_csv(replace_row(text, 5, "paths_oracle", 1))
        with self.assertRaises(CheckFailed):
            checks.check_oracle_columns(config, rows)

    def test_space_time(self):
        checks.check_space_time([0b0011], [0b0111], 99, 18, 9, 4)
        with self.assertRaises(CheckFailed):
            checks.check_space_time([0b0011], [0b0111], 98, 18, 9, 4)
        with self.assertRaises(CheckFailed):
            checks.check_space_time([0b0011], [0b0010], 99, 18, 9, 4)


class ClusterChecks(unittest.TestCase):
    def test_subset_irreducible(self):
        self.assertTrue(checks.subset_irreducible([0b011, 0b110, 0b101]))
        self.assertFalse(checks.subset_irreducible([0b01, 0b01, 0b10, 0b10]))

    def test_decomposition(self):
        from clusterbounds import Cluster

        whole = Cluster((0, 1, 2, 3))
        pieces = (Cluster((0, 1)), Cluster((2, 3)))
        yes = lambda piece: True  # noqa: E731
        checks.check_decomposition(whole, pieces, yes, yes)
        with self.assertRaises(CheckFailed):
            checks.check_decomposition(whole, (Cluster((0, 1)), Cluster((1, 2, 3))), yes, yes)
        with self.assertRaises(CheckFailed):
            checks.check_decomposition(whole, (Cluster((0, 1)),), yes, yes)
        with self.assertRaises(CheckFailed):
            checks.check_decomposition(whole, pieces, yes, lambda piece: False)


    def test_kept_census(self):
        from dataclasses import replace

        from workloads import Verify, _kept_census

        from clusterbounds import toric_code

        census, per_cluster = _kept_census(4, "x", 8)
        rows = checks.parse_census_csv(stored("verify-toric4-x.csv"))[1]
        Verify._check_clusters(toric_code(4), "x", (census, per_cluster), rows, 8)
        wrong_count = replace(census, irreducible=census.irreducible[:-1] + (census.irreducible[-1] + 1,))
        with self.assertRaises(CheckFailed):
            Verify._check_clusters(toric_code(4), "x", (wrong_count, per_cluster), rows, 8)
        cl, irr, irr_bf, pieces = per_cluster[0]
        wrong_test = [(cl, not irr, not irr_bf, pieces)] + per_cluster[1:]
        with self.assertRaises(CheckFailed):
            Verify._check_clusters(toric_code(4), "x", (census, wrong_test), rows, 8)


class BoundsChecks(unittest.TestCase):
    def test_literal_sum(self):
        # one css position at p < 1/2: bad when flipped, or erased (a tie)
        y, p = Fraction(0.25), Fraction(0.1)
        self.assertEqual(checks.literal_bad_sum("css", 1, (0.25, 0.1)), float(y + (1 - y) * p))

    def test_badprob(self):
        from clusterbounds import bad_probability_bound_css, exact_bad_probability_css

        rows = [{"m": m, "exact": exact_bad_probability_css(m, 0.1, 0.2),
                 "bound": bad_probability_bound_css(m, 0.1, 0.2)} for m in range(1, 7)]
        checks.check_badprob("css", rows, (0.1, 0.2), 5)
        with self.assertRaises(CheckFailed):
            checks.check_badprob("css", [dict(rows[2], exact=rows[2]["exact"] * (1 + 1e-9))], (0.1, 0.2), 5)
        with self.assertRaises(CheckFailed):
            checks.check_badprob("css", [dict(rows[5], exact=rows[5]["bound"] * 2)], (0.1, 0.2), 5)

    def test_thresholds(self):
        checks.check_threshold("css", "y", 1 / 3)
        with self.assertRaises(CheckFailed):
            checks.check_threshold("css", "y", 1 / 3 + 1e-6)
        with self.assertRaises(CheckFailed):
            checks.check_threshold("ft-css", "q", 0.07)
        curve = [(y, checks.css_pz_at(y)) for y in (0.0, 0.1, 0.2, 1 / 3)]
        checks.check_css_curve(curve)
        with self.assertRaises(CheckFailed):
            checks.check_css_curve(curve[:1] + [(0.1, curve[1][1] + 1e-6)] + curve[2:])

    def test_growth_base(self):
        checks.check_growth_base(2.32)
        with self.assertRaises(CheckFailed):
            checks.check_growth_base(3.15)


class SessionCounts(unittest.TestCase):
    def test_bad_flag_is_a_failed_operation(self):
        session = Session("")
        session.cli("bad-flag", ["census", "toric", "--no-such-flag"])
        self.assertEqual((session.attempted, session.failed), (1, 1))
        self.assertIsNone(session.output("bad-flag"))


if __name__ == "__main__":
    unittest.main()
