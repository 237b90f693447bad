"""Matrix file formats and machine-readable table output.

Parity-check matrices are read from alist text (first line "n m" with
n columns and m rows, then the largest column and row weights, the n
column weights, the m row weights, and per-column then per-row index
sections, 1-based, zero padding tolerated, each column section naming
distinct rows, each row section listing exactly the columns that name
its row, and nothing after) or from dense 0/1 text with one row per
line.
Tables are written as CSV with '#'-prefixed provenance lines, which
refuse config values holding line breaks; JSON output formats floats
with 17 significant digits and escapes strings as json.dumps does.
"""

from __future__ import annotations

import json

from . import __version__
from .errors import ValidationError
from .gf2 import BitMatrix, set_bits


def _ints(line: str, lineno: int) -> list[int]:
    try:
        return [int(tok) for tok in line.split()]
    except ValueError:
        raise ValidationError(f"alist line {lineno}: expected integers, got {line!r}")


def parse_alist(text: str) -> BitMatrix:
    raw = text.splitlines()
    lines = [(i + 1, ln) for i, ln in enumerate(raw) if ln.strip()]
    if not lines:
        raise ValidationError("alist line 1: empty file")
    header = _ints(lines[0][1], lines[0][0])
    if len(header) != 2 or header[0] <= 0 or header[1] <= 0:
        raise ValidationError(f"alist line {lines[0][0]}: expected 'n m' with positive sizes")
    n, m = header
    if len(lines) < 4:
        raise ValidationError(f"alist line {len(raw)}: truncated file")
    if len(lines) < 4 + n:
        raise ValidationError(f"alist line {lines[-1][0]}: missing column sections")
    col_w = _ints(lines[2][1], lines[2][0])
    if len(col_w) != n:
        raise ValidationError(f"alist line {lines[2][0]}: expected {n} column weights")
    rows = [0] * m
    for c in range(n):
        lineno, ln = lines[4 + c]
        idx = [x for x in _ints(ln, lineno) if x != 0]
        if len(idx) != col_w[c]:
            raise ValidationError(
                f"alist line {lineno}: column {c} lists {len(idx)} rows, declared {col_w[c]}"
            )
        if len(set(idx)) != len(idx):
            raise ValidationError(f"alist line {lineno}: column {c} names a row twice")
        for r in idx:
            if not 1 <= r <= m:
                raise ValidationError(f"alist line {lineno}: row index {r} out of range")
            rows[r - 1] |= 1 << c
    if len(lines) < 4 + n + m:
        raise ValidationError(f"alist line {lines[-1][0]}: missing row sections")
    row_w = _ints(lines[3][1], lines[3][0])
    if len(row_w) != m:
        raise ValidationError(f"alist line {lines[3][0]}: expected {m} row weights")
    # each row section must list, in its declared weight, exactly the
    # columns whose sections name its row
    for r, (lineno, ln) in enumerate(lines[4 + n : 4 + n + m]):
        listed = sorted(x for x in _ints(ln, lineno) if x != 0)
        named = [c + 1 for c in set_bits(rows[r])]
        if listed != named or len(listed) != row_w[r]:
            raise ValidationError(
                f"alist line {lineno}: row {r} lists columns {listed} under declared weight "
                f"{row_w[r]}; the column sections name {named}"
            )
    if len(lines) > 4 + n + m:
        lineno, ln = lines[4 + n + m]
        raise ValidationError(
            f"alist line {lineno}: unexpected {ln.strip()!r} after the row sections"
        )
    lineno, ln = lines[1]
    largest = [max(col_w), max(row_w)]
    if _ints(ln, lineno) != largest:
        raise ValidationError(
            f"alist line {lineno}: expected the largest column and row weights "
            f"{largest[0]} {largest[1]}"
        )
    return BitMatrix(tuple(rows), n)


def write_alist(matrix: BitMatrix) -> str:
    m, n = matrix.shape
    rws = [[c + 1 for c in set_bits(row)] for row in matrix.rows]
    cols = [[i + 1 for i in set_bits(col)] for col in matrix.transpose().rows]
    out = [
        f"{n} {m}",
        f"{max((len(c) for c in cols), default=0)} {max((len(r) for r in rws), default=0)}",
        " ".join(str(len(c)) for c in cols),
        " ".join(str(len(r)) for r in rws),
    ]
    # a lone 0 keeps zero-weight lines non-empty (readers drop the padding)
    out += [" ".join(map(str, c)) if c else "0" for c in cols]
    out += [" ".join(map(str, r)) if r else "0" for r in rws]
    return "\n".join(out) + "\n"


def parse_dense(text: str) -> BitMatrix:
    rows = []
    width = None
    for lineno, ln in enumerate(text.splitlines(), start=1):
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        bits = "".join(ln.split())
        if set(bits) - {"0", "1"}:
            raise ValidationError(f"dense line {lineno}: expected only 0/1 entries")
        if width is None:
            width = len(bits)
        elif len(bits) != width:
            raise ValidationError(f"dense line {lineno}: ragged row width")
        rows.append(sum((1 << j) for j, ch in enumerate(bits) if ch == "1"))
    if width is None:
        raise ValidationError("dense line 1: empty matrix file")
    return BitMatrix(tuple(rows), width)


def _read_text(path: str, kind: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {kind} file {path}: {exc}")


def write_text(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}")


def read_matrix(path: str) -> BitMatrix:
    """Read a matrix file as dense when its non-blank, non-'#' lines hold
    only 0/1 digits and whitespace, and either one digit count or a first
    line that is not two numbers (so a ragged row is reported as such);
    otherwise as alist."""
    text = _read_text(path, "matrix")
    # no valid alist file passes for dense: its "n m" header and its n
    # column weights differ in digit count
    lines = [ln.split() for ln in text.splitlines()]
    lines = [tokens for tokens in lines if tokens and not tokens[0].startswith("#")]
    rows = ["".join(tokens) for tokens in lines]
    if all(set(r) <= {"0", "1"} for r in rows) and (
        len(set(map(len, rows))) <= 1 or len(lines[0]) != 2
    ):
        return parse_dense(text)
    return parse_alist(text)


# -- table output ---------------------------------------------------------


def format_float(x: float) -> str:
    return format(x, ".17g")


def _json_value(v) -> str:
    if isinstance(v, float):
        return format_float(v)
    if isinstance(v, dict):
        inner = ", ".join(f"{_json_value(str(k))}: {_json_value(x)}" for k, x in v.items())
        return "{" + inner + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_json_value(x) for x in v) + "]"
    if v is None or isinstance(v, (bool, int, str)):
        # escapes quotes, backslashes and control characters in strings
        return json.dumps(v, ensure_ascii=False)
    raise ValidationError(f"cannot serialize {type(v).__name__} to JSON")


def dump_json(payload: dict, config: dict | None = None) -> str:
    doc = {"tool": "clusterbounds", "version": __version__}
    if config:
        doc["config"] = config
    doc.update(payload)
    return _json_value(doc) + "\n"


def provenance_header(config: dict) -> list[str]:
    """The comment lines above a CSV table.  A config value holding a
    line break (any boundary str.splitlines splits at) is refused: it
    would end its comment line."""
    for k, v in config.items():
        if "".join(str(v).splitlines()) != str(v):
            raise ValidationError(f"config value {k}={str(v)!r} holds a line break")
    items = " ".join(f"{k}={v}" for k, v in config.items())
    return [f"# clusterbounds {__version__}", f"# config: {items}"]


def write_csv(path_or_none, header: list[str], rows: list[list], config: dict) -> str:
    lines = provenance_header(config)
    lines.append(",".join(header))
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, float):
                cells.append(format_float(v))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    if path_or_none:
        write_text(path_or_none, text)
    return text


def read_census_csv(path: str) -> dict[str, dict[int, int]]:
    """Parse a census CSV back into per-field count maps; every cell
    must be an integer, read exactly, and no weight m may repeat."""
    lines = [
        (i, ln.strip()) for i, ln in enumerate(_read_text(path, "census").splitlines(), start=1)
        if ln.strip() and not ln.startswith("#")
    ]
    if not lines:
        raise ValidationError("census CSV line 1: empty file")
    lineno, head = lines[0]
    header = head.split(",")
    if "m" not in header:
        raise ValidationError(f"census CSV line {lineno}: missing 'm' column")
    fields: dict[str, dict[int, int]] = {h: {} for h in header if h != "m"}
    seen: dict[int, int] = {}
    for lineno, ln in lines[1:]:
        try:
            values = [int(cell) for cell in ln.split(",")]
        except ValueError:
            raise ValidationError(f"census CSV line {lineno}: expected integer cells, got {ln!r}")
        if len(values) != len(header):
            raise ValidationError(
                f"census CSV line {lineno}: expected {len(header)} cells, got {len(values)}"
            )
        row = dict(zip(header, values))
        m = row["m"]
        if seen.setdefault(m, lineno) != lineno:
            raise ValidationError(f"census CSV line {lineno}: weight {m} repeats line {seen[m]}")
        for h, table in fields.items():
            table[m] = row[h]
    return fields
