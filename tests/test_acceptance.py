"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time

import pytest

from clusterbounds import (
    ChannelParams,
    CodeParams,
    bad_probability_bound_css,
    bad_probability_bound_depol,
    bad_probability_bound_ft,
    brute_force_census,
    cluster_count_bound,
    cluster_count_bound_css,
    css_distance_bruteforce,
    enumerate_clusters,
    exact_bad_probability_css,
    exact_bad_probability_depol,
    exact_bad_probability_ft,
    fit_log_growth,
    ft_extend,
    is_irreducible,
    is_irreducible_bruteforce,
    min_nontrivial_weight,
    solve_threshold,
    toric_code,
)
from clusterbounds.cli import main as cli_main

from conftest import make_random_css_codes
from oracles import bad_sum_css, bad_sum_depol, bad_sum_ft

RATES = [round(0.05 * i, 2) for i in range(11)]


@pytest.fixture(scope="module")
def census_suite():
    """Criterion-1 workload, shared by criteria 2, 4 and 7."""
    start = time.monotonic()
    cases = []
    toric2 = toric_code(2)
    toric3 = toric_code(3)
    for label, code, sector, m_max in (
        ("toric L=2 full", toric2, "full", 6),
        ("toric L=2 x", toric2, "x", 6),
        ("toric L=3 full", toric3, "full", 6),
        ("toric L=3 x", toric3, "x", 6),
    ):
        cases.append(
            {
                "label": label,
                "code": code,
                "sector": sector,
                "m_max": m_max,
                "recursive": enumerate_clusters(code, m_max, sector=sector, keep_clusters=True),
                "brute": brute_force_census(code, m_max, sector=sector),
            }
        )
    for i, code in enumerate(make_random_css_codes()):
        cases.append(
            {
                "label": f"random CSS {i} (n={code.n})",
                "code": code,
                "sector": "full",
                "m_max": 5,
                "recursive": enumerate_clusters(code, 5, sector="full", keep_clusters=True),
                "brute": brute_force_census(code, 5, sector="full"),
            }
        )
    return cases, time.monotonic() - start


def test_criterion_1_oracle_equivalence(census_suite):
    cases, elapsed = census_suite
    for case in cases:
        rec, bf = case["recursive"], case["brute"]
        for field, values in rec.count_fields().items():
            assert values == bf.count_fields()[field], (
                f"{case['label']}: field {field} differs: {values} vs"
                f" {bf.count_fields()[field]}"
            )
    assert elapsed < 300, f"criterion-1 suite took {elapsed:.1f}s"
    print(f"CRITERION 1 (oracle equivalence, {len(cases)} censuses, {elapsed:.1f}s): PASS")


def test_criterion_2_bound_compliance(census_suite):
    cases, _ = census_suite
    for case in cases:
        code, rec = case["code"], case["recursive"]
        if case["sector"] == "full":
            stab = code.stabilizer if hasattr(code, "stabilizer") else code
            for m in rec.weights():
                assert rec.paths[m] <= cluster_count_bound(code.n, stab.w, m)
        else:
            w_checks = code.G_Z.max_row_weight()
            for m in rec.weights():
                limit = cluster_count_bound_css(code.n, w_checks, m)
                assert rec.paths[m] <= limit
                assert rec.irreducible[m] <= limit
    print("CRITERION 2 (path and irreducible-count bounds): PASS")


def test_criterion_3_closed_form_thresholds():
    y_css = solve_threshold(CodeParams(w=4), "y", ChannelParams(), model="css")
    assert abs(y_css - 1.0 / 3.0) <= 1e-9
    p_z = solve_threshold(CodeParams(w=4), "pZ", ChannelParams(), model="css")
    assert abs(p_z - 0.0286) <= 0.0005
    y_stab = solve_threshold(CodeParams(w=4), "y", ChannelParams(), model="stabilizer")
    assert abs(y_stab - 1.0 / 6.0) <= 1e-9
    print(
        f"CRITERION 3 (thresholds y*={y_css:.9f}, pZ*={p_z:.6f}, y={y_stab:.9f}): PASS"
    )


def test_criterion_4_vanishing_below_distance(census_suite):
    cases, _ = census_suite
    for case in cases:
        code = case["code"]
        d = code.d
        if d is None:
            d = css_distance_bruteforce(code, case["m_max"])
            if d is None:
                d = case["m_max"] + 1
        rec = case["recursive"]
        for m in range(1, min(d, rec.m_max + 1)):
            assert rec.irreducible_nonstabilizer[m] == 0, (
                f"{case['label']}: nonstabilizer irreducible cluster below distance"
                f" at weight {m}"
            )
    print("CRITERION 4 (no nonstabilizer irreducible clusters below distance): PASS")


def test_criterion_5_domination_and_oracle():
    for m in range(1, 13):
        for y in RATES:
            for p in RATES:
                assert exact_bad_probability_css(m, y, p) <= (
                    bad_probability_bound_css(m, y, p) + 1e-12
                )
                assert exact_bad_probability_depol(m, y, p) <= (
                    bad_probability_bound_depol(m, y, p) + 1e-12
                )
        for m_q in range(m + 1):
            for p in RATES:
                for q in RATES:
                    assert exact_bad_probability_ft(m, m_q, p, q) <= (
                        bad_probability_bound_ft(m, m_q, p, q) + 1e-12
                    )
    for m in range(1, 7):
        for y in RATES:
            for p in RATES:
                assert exact_bad_probability_css(m, y, p) == pytest.approx(
                    bad_sum_css(m, y, p), abs=1e-12
                )
                assert exact_bad_probability_depol(m, y, p) == pytest.approx(
                    bad_sum_depol(m, y, p), abs=1e-12
                )
        for m_q in range(m + 1):
            for p in RATES:
                for q in RATES:
                    assert exact_bad_probability_ft(m, m_q, p, q) == pytest.approx(
                        bad_sum_ft(m, m_q, p, q), abs=1e-12
                    )
    print("CRITERION 5 (domination grid and literal configuration oracle): PASS")


def test_criterion_6_space_time_structure():
    code = toric_code(2)
    for m in (2, 3, 4):
        ft = ft_extend(code, m, errors="x")
        assert (ft.P @ ft.Q.transpose()).is_zero()
        assert ft.N == m * code.n + (m - 1) * code.G_Z.nrows
        assert ft.P.max_row_weight() <= code.w_Z + 2
    ft2 = ft_extend(code, 2, errors="x")
    assert ft2.N == 20
    assert min_nontrivial_weight(ft2.P, ft2.Q, 4) == min(code.d, 2) == 2
    print("CRITERION 6 (combined-code structure and m=2 distance): PASS")


def test_criterion_7_irreducibility_dual_test(census_suite):
    cases, _ = census_suite
    checked = 0
    for case in cases:
        code, sector = case["code"], case["sector"]
        for group in case["recursive"].clusters:
            for cluster in group:
                assert is_irreducible(code, cluster, sector=sector) == (
                    is_irreducible_bruteforce(code, cluster, sector=sector)
                ), f"{case['label']}: dual irreducibility mismatch on {cluster}"
                checked += 1
    assert checked > 0
    print(f"CRITERION 7 (kernel vs subset irreducibility on {checked} clusters): PASS")


def test_criterion_8_growth_fit():
    start = time.monotonic()
    census = enumerate_clusters(toric_code(6), 10, sector="x")
    fit = fit_log_growth(census.counts("irreducible"), (4, 10))
    elapsed = time.monotonic() - start
    assert 2.0 <= fit.growth_base <= 3.0, f"growth base {fit.growth_base} outside [2, 3]"
    assert elapsed < 600, f"criterion-8 run took {elapsed:.1f}s"
    print(
        f"CRITERION 8 (toric L=6 growth base {fit.growth_base:.3f} in [2, 3],"
        f" {elapsed:.1f}s): PASS"
    )


def test_criterion_9_census_determinism(tmp_path):
    outputs = []
    for workers in (1, 2, 8):
        out = tmp_path / f"census_w{workers}.csv"
        rc = cli_main(
            [
                "census",
                "toric",
                "--L",
                "3",
                "--sector",
                "x",
                "--m-max",
                "6",
                "--workers",
                str(workers),
                "-o",
                str(out),
            ]
        )
        assert rc == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    print("CRITERION 9 (byte-identical census across 1, 2, 8 workers): PASS")
