"""Correctness checks for benchmark outputs.

Every check compares a program output against a fact derived apart from
the program: lattice counting on the toric code, the closed-form
counting ceilings and thresholds, literal configuration sums in exact
rationals, or a stored copy of an earlier output.  Each failed check
raises CheckFailed; nothing here uses ``assert``, so the checks also
run under ``python -O``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

FIELDS = ("distinct", "irreducible", "irreducible_nonstabilizer", "paths")


class CheckFailed(Exception):
    """A program output contradicts a fact the benchmark knows."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- census CSVs ------------------------------------------------------------


def parse_census_csv(text: str) -> tuple[dict[str, str], dict[int, dict[str, int]]]:
    """Config items and per-weight rows of a census CSV, parsed as exact
    integers.  Weights without a row have all counts zero."""
    config: dict[str, str] = {}
    lines = []
    for line in text.splitlines():
        if line.startswith("# config:"):
            for item in line[len("# config:"):].split():
                key, _, value = item.partition("=")
                config[key] = value
        elif line and not line.startswith("#"):
            lines.append(line)
    require(bool(lines), "census CSV has no header")
    header = lines[0].split(",")
    rows = {}
    for line in lines[1:]:
        row = {h: int(v) for h, v in zip(header, line.split(","))}
        rows[row["m"]] = row
    return config, rows


def count_vector(rows: dict[int, dict[str, int]], field: str, m_max: int) -> list[int]:
    return [rows[m][field] if m in rows else 0 for m in range(m_max + 1)]


def path_ceiling(sector: str, m: int, n: int, w: int, r: int = 0) -> int:
    """Closed-form recursion-path ceiling of one sector.

    full: 3n seeds, 2(w-1) continuations; x/z: n seeds, w-1
    continuations against the opposite-type checks; ft: (3n + r) seeds,
    r being the checks per round, and w + 2 continuations on the
    space-time code.
    """
    if sector == "full":
        return 3 * n * (2 * (w - 1)) ** (m - 1)
    if sector in ("x", "z"):
        return n * (w - 1) ** (m - 1)
    return (3 * n + r) * (w + 2) ** (m - 1)


def check_census(rows, m_max: int, sector: str, n: int, w: int, r: int = 0) -> None:
    """Facts every census obeys: paths within the ceiling, which is also
    the CSV's bound column, and irreducible <= distinct <= paths."""
    for m in range(1, m_max + 1):
        if m not in rows:
            continue
        row = rows[m]
        ceiling = path_ceiling(sector, m, n, w, r)
        require(row["bound"] == ceiling, f"m={m}: bound column {row['bound']} != {ceiling}")
        require(row["paths"] <= ceiling, f"m={m}: {row['paths']} paths exceed the ceiling {ceiling}")
        require(
            row["irreducible_nonstabilizer"] <= row["irreducible"] <= row["distinct"] <= row["paths"],
            f"m={m}: counts out of order {row}",
        )


def check_toric_x(rows, L: int, m_max: int) -> None:
    """x-sector toric census facts for L >= 5.

    X clusters are cycles of the lattice: the L^2 plaquettes at weight
    4; at weight 6 the 2L^2 two-plaquette rectangles, plus the 2L
    straight logical loops when L = 6.  The lattice is bipartite at even
    L, so odd weights never occur.  Non-stabilizer irreducible clusters
    are logical loops: none below the distance L, and 2L at weight L.
    """
    require(L >= 5, "toric x-sector facts are derived for L >= 5")
    distinct = count_vector(rows, "distinct", m_max)
    irred = count_vector(rows, "irreducible", m_max)
    nonstab = count_vector(rows, "irreducible_nonstabilizer", m_max)
    if m_max >= 4:
        require(distinct[4] == L * L, f"weight 4: {distinct[4]} clusters, expected {L * L}")
        require(irred[4] == L * L, f"weight 4: {irred[4]} irreducible, expected {L * L}")
    if m_max >= 6:
        expected = 2 * L * L + (2 * L if L == 6 else 0)
        require(distinct[6] == expected, f"weight 6: {distinct[6]} clusters, expected {expected}")
    if L % 2 == 0:
        for m in range(1, m_max + 1, 2):
            require(distinct[m] == 0, f"odd weight {m} has {distinct[m]} clusters at even L")
    for m in range(1, min(L, m_max + 1)):
        require(nonstab[m] == 0, f"weight {m} below the distance has non-stabilizer clusters")
    if m_max >= L:
        require(nonstab[L] == 2 * L, f"weight L: {nonstab[L]} logical loops, expected {2 * L}")


def check_nonstab_at(rows, m: int, expected: int, why: str) -> None:
    got = rows[m]["irreducible_nonstabilizer"] if m in rows else 0
    require(got == expected, f"weight {m}: {got} non-stabilizer irreducible, expected {expected} ({why})")


def check_same_text(got: str, stored: str, what: str) -> None:
    if got == stored:
        return
    for i, (a, b) in enumerate(zip(got.splitlines(), stored.splitlines()), start=1):
        if a != b:
            raise CheckFailed(f"{what}: line {i} is {a!r}, stored copy has {b!r}")
    raise CheckFailed(f"{what}: output and stored copy differ in length")


def check_oracle_columns(config, rows) -> None:
    """An --oracle census CSV: the recursive and brute-force censuses
    agreed on all four fields, and both oracle columns are written."""
    require(config.get("oracle") == "pass", "census CSV does not record oracle=pass")
    require(bool(rows), "oracle census has no rows")
    for m, row in rows.items():
        require(row["distinct"] == row["distinct_oracle"], f"m={m}: distinct differs from brute force")
        require(row["paths"] == row["paths_oracle"], f"m={m}: paths differ from brute force")


# -- space-time code --------------------------------------------------------


def check_space_time(P_rows, Q_rows, N: int, n: int, r: int, rounds: int) -> None:
    """P Q^T = 0 over GF(2), and N = m*n + (m-1)*r."""
    expected = rounds * n + (rounds - 1) * r
    require(N == expected, f"space-time code has N={N}, expected {expected}")
    for i, p in enumerate(P_rows):
        for j, q in enumerate(Q_rows):
            require((p & q).bit_count() % 2 == 0, f"row {i} of P and row {j} of Q anticommute")


# -- clusters ---------------------------------------------------------------


def check_decomposition(cluster, pieces, undetectable, irreducible) -> None:
    """Pieces on disjoint supports that XOR back to the cluster, each
    undetectable and irreducible by the given independent predicates."""
    seen: set[int] = set()
    entries = []
    for piece in pieces:
        require(undetectable(piece), f"piece {piece} of {cluster} is detectable")
        require(irreducible(piece), f"piece {piece} of {cluster} is reducible")
        require(not seen & set(piece.positions), f"pieces of {cluster} overlap")
        seen |= set(piece.positions)
        labels = piece.paulis or (None,) * len(piece.positions)
        entries.extend(zip(piece.positions, labels))
    labels = cluster.paulis or (None,) * len(cluster.positions)
    require(sorted(entries, key=lambda e: e[0]) == list(zip(cluster.positions, labels)),
            f"pieces of {cluster} do not multiply back to it")


def subset_irreducible(columns: list[int]) -> bool:
    """No proper nonempty subset of entry syndromes XORs to zero."""
    m = len(columns)
    xor = [0] * (1 << m)
    for s in range(1, 1 << m):
        low = s & -s
        xor[s] = xor[s ^ low] ^ columns[low.bit_length() - 1]
    return all(xor[s] for s in range(1, (1 << m) - 1))


# -- bad-error sums and thresholds -----------------------------------------


def literal_bad_sum(kind: str, m: int, rates: tuple[float, ...], m_q: int = 0) -> float:
    """Sum over every error configuration on m positions whose inverted
    configuration is at least as likely, in exact rationals.

    css: states intact, erased, flipped (y, p); depol: intact, erased,
    matching error, two differing errors (y, p); ft: binary flips at
    rate p on m_q qubit positions and q on the rest.
    """
    if kind == "ft":
        p, q = (Fraction(x) for x in rates)
        per_position = [((1 - p, p), (1, 0)) if i < m_q else ((1 - q, q), (1, 0)) for i in range(m)]
        total = Fraction(0)
        for cfg in itertools.product((0, 1), repeat=m):
            pe = pinv = Fraction(1)
            for (probs, inverse), s in zip(per_position, cfg):
                pe *= probs[s]
                pinv *= probs[inverse[s]]
            if pinv >= pe:
                total += pe
        return float(total)
    y, p = (Fraction(x) for x in rates)
    if kind == "css":
        probs = ((1 - y) * (1 - p), y, (1 - y) * p)
        inverse = (2, 1, 0)
    else:
        third = (1 - y) * p / 3
        probs = ((1 - y) * (1 - p), y, third, third, third)
        inverse = (2, 1, 0, 4, 3)
    total = Fraction(0)
    for cfg in itertools.product(range(len(probs)), repeat=m):
        pe = pinv = Fraction(1)
        for s in cfg:
            pe *= probs[s]
            pinv *= probs[inverse[s]]
        if pinv >= pe:
            total += pe
    return float(total)


def check_badprob(kind: str, rows: list[dict[str, float]], rates: tuple[float, ...], oracle_m: int) -> None:
    """Exact sums at or below their bounds; equal to the literal sum up
    to weight oracle_m."""
    require(bool(rows), f"badprob {kind} wrote no rows")
    for row in rows:
        m = int(row["m"])
        require(row["exact"] <= row["bound"] + 1e-12, f"{kind} m={m}: exact {row['exact']} above bound {row['bound']}")
        if m <= oracle_m:
            m_q = int(row.get("m_q", 0))
            literal = literal_bad_sum(kind, m, rates, m_q)
            require(abs(row["exact"] - literal) <= 1e-12,
                    f"{kind} m={m} m_q={m_q}: exact {row['exact']} != literal sum {literal}")


# Thresholds at w = 4 and D = inf; a condition holds when its left-hand
# side is at most 1.
#   css y:      3y = 1                                 -> y = 1/3
#   stabilizer: 6y = 1                                 -> y = 1/6
#   css p_Z:    3 * 2 sqrt(p(1-p)) = 1                 -> p = (1 - sqrt(8/9)) / 2
#   ft q:       4 sqrt(q(1-q)) = 1 at p = y = 0        -> q = (1 - sqrt(3)/2) / 2
CLOSED_FORMS = {
    ("css", "y"): 1.0 / 3.0,
    ("stabilizer", "y"): 1.0 / 6.0,
    ("css", "pZ"): (1.0 - math.sqrt(8.0 / 9.0)) / 2.0,
    ("ft-css", "q"): (1.0 - math.sqrt(3.0) / 2.0) / 2.0,
    ("ft-stabilizer", "q"): (1.0 - math.sqrt(3.0) / 2.0) / 2.0,
}
THRESHOLD_TOL = 1e-8


def css_pz_at(y: float) -> float:
    """The css w=4 boundary 3(y + 2(1-y) sqrt(p(1-p))) = 1 solved for p."""
    s = (1.0 / 3.0 - y) / (2.0 * (1.0 - y))
    if s <= 0.0:
        return 0.0
    return (1.0 - math.sqrt(1.0 - 4.0 * s * s)) / 2.0


def check_threshold(model: str, free: str, value: float) -> None:
    expected = CLOSED_FORMS[(model, free)]
    require(abs(value - expected) <= THRESHOLD_TOL, f"{model} {free} = {value}, closed form {expected}")


def check_css_curve(points: list[tuple[float, float]]) -> None:
    """Every (y, p_Z) point of the css w=4 curve lies on its closed form."""
    require(len(points) >= 2, "curve has fewer than two points")
    check_threshold("css", "y", points[-1][0])
    for y, p in points:
        require(abs(p - css_pz_at(y)) <= THRESHOLD_TOL, f"curve point y={y}: p_Z={p}, closed form {css_pz_at(y)}")


def check_growth_base(base: float) -> None:
    require(2.0 <= base <= 3.0, f"fitted growth base {base} outside [2, 3]")
