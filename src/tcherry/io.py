"""File formats: contingency CSV, raw-sample CSV, scheme sidecar JSON.

Contingency CSV has header ``x1,...,xd,count`` and one row per nonzero
cell; sample CSV has header ``x1,...,xd`` and one row per observation.
States are 1-based integers. When no scheme is supplied, cardinalities
are inferred as the maximum observed state per variable (floored at 2,
since one-state variables are not representable).

A file is decoded straight from its bytes for as long as it has the
canonical form: header ``x1,...,xd`` (samples) or ``x1,...,xd,count``
(counts), rows of single-digit states each followed by ',', the last by
'\\n' in a sample row and by a plain decimal count and '\\n' in a counts
row. The text reader takes the rest of the file at the first chunk that
breaks it, so it alone decides what the grammar accepts.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from contextlib import contextmanager
from io import TextIOWrapper
from itertools import islice, product
from pathlib import Path

import numpy as np

from .distribution import DEFAULT_CELL_CAP, JointTable, VariableSpec, from_codes
from .errors import DataFormatError

#: Lines parsed per array chunk, and cells formatted per write chunk.
_CHUNK_LINES = 65_536

#: Bytes per chunk the byte decoders read, rounded down to whole sample rows.
_CHUNK_BYTES = 1 << 20

#: States are parsed as int32.
_MAX_STATE = int(np.iinfo(np.int32).max)


def _read_header(f, path):
    line = f.readline()
    if not line:
        raise DataFormatError(f"{path}:1: file is empty")
    fields = [field.strip() for field in next(csv.reader([line]), [])]
    if not fields:
        raise DataFormatError(f"{path}:1: empty header row")
    has_count = fields[-1].lower() == "count"
    xs = fields[:-1] if has_count else fields
    if not xs:
        raise DataFormatError(f"{path}:1: no variable columns in header")
    for i, name in enumerate(xs):
        if name.lower() != f"x{i + 1}":
            raise DataFormatError(
                f"{path}:1: column {i + 1} is {name!r}, expected 'x{i + 1}'"
            )
    return len(xs), has_count


def _number(text, kind):
    """``kind(text)``, or None where numpy's parsers refuse what int() and
    float() take: '_' digit groups and non-ASCII digits."""
    try:
        return kind(text) if text.isascii() and "_" not in text else None
    except ValueError:
        return None


def _parse_state(field, path, line, col):
    value = _number(field.strip(), int)
    if value is None:
        raise DataFormatError(
            f"{path}:{line}: column {col}: {field!r} is not an integer state"
        )
    if value < 1:
        raise DataFormatError(
            f"{path}:{line}: column {col}: state {value} is not >= 1 (states are 1-based)"
        )
    if value > _MAX_STATE:
        raise DataFormatError(
            f"{path}:{line}: column {col}: state {value} is above {_MAX_STATE}"
        )
    return value


def _check_rows(lines, first_line, d, has_count, path, cause=None):
    """Raise the first error among ``lines`` (file lines from ``first_line`` on).

    The error path of the array reader: it re-reads a chunk the array
    parse or its masks rejected, one field at a time, to name the row.
    """
    for line, row in enumerate(csv.reader(lines), start=first_line):
        if not row:
            continue
        if len(row) != d + has_count:
            raise DataFormatError(
                f"{path}:{line}: expected {d + has_count} fields, got {len(row)}"
            )
        for i in range(d):
            _parse_state(row[i], path, line, i + 1)
        if has_count:
            raw = row[d].strip()
            count = _number(raw, float)
            if count is None:
                raise DataFormatError(f"{path}:{line}: column {d + 1}: {raw!r} is not a number")
            if not 0 <= count < math.inf:
                raise DataFormatError(
                    f"{path}:{line}: column {d + 1}: count must be a non-negative real"
                )
    raise DataFormatError(f"{path}:{first_line}-{first_line + len(lines) - 1}: {cause}")


@contextmanager
def _open(path, binary=False):
    """Open a UTF-8 text file, or with ``binary`` its bytes; a failed open
    or a byte that is not UTF-8 is a ``DataFormatError`` naming the file."""
    try:
        f = open(path, "rb") if binary else open(path, encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"{path}: {exc.strerror or exc}") from None
    with f:
        try:
            yield f
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _digit_codes(pairs, last):
    """The 0-based codes of an (n, d) array of little-endian uint16 pairs,
    each a digit 1-9 and then ',' (``last`` after the last digit), as
    uint8; None if any pair is not."""
    # Minus '1' followed by the separator due there: the code when both
    # bytes are right, a value above 8 otherwise.
    due = np.full(pairs.shape[1], ord("1") | ord(",") << 8, dtype=np.uint16)
    due[-1] = ord("1") | ord(last) << 8
    codes = pairs - due
    return codes.astype(np.uint8) if codes.max(initial=0) <= 8 else None


def _decode_digits(chunk, d):
    """The 0-based codes of ``chunk`` as an (n, d) uint8 array when it is n
    rows of d digits 1-9 joined by ',', each row ended by '\\n'; else None."""
    if len(chunk) % (2 * d):
        return None
    return _digit_codes(np.frombuffer(chunk, dtype="<u2").reshape(-1, d), "\n")


def _decode_counts(chunk, d):
    """The codes and counts of ``chunk`` up to its last '\\n', when each row
    there is d digits 1-9 each followed by ',', then a count of the bytes
    ``0-9.eE+-`` that reads whole as one finite non-negative float, then
    '\\n'; else None."""
    buf = np.frombuffer(chunk, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    widths = np.diff(ends, prepend=-1) - 1 - 2 * d
    if not len(ends) or widths.min() < 1:
        return None
    # Each row is a run of 2d state bytes, then a run of count bytes and '\n'.
    runs = np.empty(2 * len(ends), dtype=np.intp)
    runs[0::2] = 2 * d
    runs[1::2] = widths + 1
    in_count = np.repeat(np.tile([False, True], len(ends)), runs)
    rows = buf[:len(in_count)]
    codes = _digit_codes(rows[~in_count].view("<u2").reshape(-1, d), ",")
    if codes is None:
        return None
    text = rows[in_count].tobytes()
    if text.translate(None, b"0123456789.eE+-\n"):
        return None
    try:
        # Older numpy only warns where a field does not read whole.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            counts = np.fromstring(text, sep="\n")
    except (ValueError, DeprecationWarning):
        return None
    return (codes, counts) if counts.min() >= 0 and counts.max() < math.inf else None


def _read_digits(f, has_count):
    """Decode a file opened in binary for as long as it keeps the canonical
    form: header ``x1,...,xd`` and rows ``_decode_digits`` takes, or with
    ``has_count`` header ``x1,...,xd,count`` and rows ``_decode_counts`` takes.

    Returns d (0 when the header is not canonical), the code chunks and
    the count chunks, and leaves ``f`` at the first byte not decoded.
    That rest, if any, goes to the text reader, the only authority on
    the full grammar.
    """
    header = f.readline()
    d = header.count(b",") + 1 - has_count
    names = [f"x{i + 1}" for i in range(d)] + ["count"] * has_count
    if d < 1 or header != ",".join(names).encode() + b"\n":
        f.seek(0)
        return 0, [], []
    decode = _decode_counts if has_count else _decode_digits
    size = max(_CHUNK_BYTES // (2 * d), 1) * 2 * d
    codes, counts = [], []
    while (chunk := f.read(size)) and (got := decode(chunk, d)) is not None:
        if has_count:
            got, c = got
            counts.append(c)
        codes.append(got)
        # A chunk decodes up to its last line end; the rest is read again.
        f.seek(chunk.rfind(b"\n") + 1 - len(chunk), 1)
    f.seek(-len(chunk), 1)
    return d, codes, counts


def _read_body(f, d, has_count, path, first_line=2):
    """Parse the data rows, file lines ``first_line`` on, in chunks into
    lists of 0-based code arrays and of counts (empty for samples).

    Codes are narrowed per chunk to the smallest unsigned dtype that holds them.
    """
    dtype = (np.dtype([("s", np.int32, (d,)), ("c", np.float64)]) if has_count
             else np.dtype(np.int32))
    codes, counts = [], []
    while lines := list(islice(f, _CHUNK_LINES)):
        # A chunk of empty lines holds no rows, and loadtxt would warn on it.
        if lines.count("\n") < len(lines):
            try:
                rows = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                                  quotechar='"', ndmin=1 if has_count else 2)
            except ValueError as exc:
                _check_rows(lines, first_line, d, has_count, path, exc)
            # Copy the counts: a view would pin the whole parsed chunk.
            states, c = (rows["s"], rows["c"].copy()) if has_count else (rows, np.zeros(1))
            if (states.shape[1] != d or states.min() < 1
                    or not (c.min() >= 0 and c.max() < math.inf)):
                _check_rows(lines, first_line, d, has_count, path)
            codes.append((states - 1).astype(np.min_scalar_type(int(states.max()) - 1)))
            if has_count:
                counts.append(c)
        first_line += len(lines)
    return codes, counts


def sniff_kind(path) -> str:
    """Peek at the header line: 'counts' when it ends in a count column, else 'samples'."""
    with _open(path) as f:
        _, has_count = _read_header(f, path)
    return "counts" if has_count else "samples"


def _read_table(path, want_count, scheme, cap):
    with _open(path, binary=True) as raw:
        d, codes, counts = _read_digits(raw, want_count)
        f = TextIOWrapper(raw, encoding="utf-8")
        if not d:
            d, has_count = _read_header(f, path)
            if want_count and not has_count:
                raise DataFormatError(f"{path}:1: header has no trailing 'count' column")
            if has_count and not want_count:
                raise DataFormatError(
                    f"{path}:1: header ends in 'count'; this is a contingency table, not samples"
                )
        more, more_counts = _read_body(f, d, want_count, path, 2 + sum(map(len, codes)))
        codes += more
        counts += more_counts
    if not codes:
        raise DataFormatError(f"{path}: no data rows")
    if scheme is not None and len(scheme) != d:
        raise DataFormatError(
            f"{path}: scheme describes {len(scheme)} variables, data has {d}"
        )
    # Rebinding frees the chunk lists before the table is built.
    codes = np.concatenate(codes)
    counts = np.concatenate(counts) if want_count else None
    return from_codes(codes, counts, scheme, cap=cap)


def read_counts_csv(path, scheme=None, cap: int = DEFAULT_CELL_CAP) -> JointTable:
    """Load a contingency CSV into a joint table."""
    return _read_table(path, True, scheme, cap)


def read_samples_csv(path, scheme=None, cap: int = DEFAULT_CELL_CAP) -> JointTable:
    """Load a raw-sample CSV (one observation per row) into a joint table."""
    return _read_table(path, False, scheme, cap)


def read_scheme_json(path):
    """Load a scheme sidecar: {"variables": [{"name", "cardinality"}, ...]}."""
    try:
        with _open(path) as f:
            doc = json.load(f)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("variables"), list):
        raise DataFormatError(f"{path}: expected an object with a 'variables' list")
    specs = []
    for i, entry in enumerate(doc["variables"]):
        if not isinstance(entry, dict) or "cardinality" not in entry:
            raise DataFormatError(f"{path}: variables[{i}] needs a 'cardinality'")
        declared = entry.get("index", i + 1)
        if declared != i + 1:
            raise DataFormatError(
                f"{path}: variables[{i}] declares index {declared}, expected {i + 1}"
            )
        try:
            specs.append(VariableSpec(i + 1, int(entry["cardinality"]), entry.get("name")))
        except (TypeError, ValueError) as exc:
            raise DataFormatError(f"{path}: variables[{i}]: {exc}") from None
    if not specs:
        raise DataFormatError(f"{path}: 'variables' is empty")
    return tuple(specs)


def find_scheme_sidecar(data_path) -> Path | None:
    """Sidecar convention: <input stem>.scheme.json next to the data file."""
    p = Path(data_path)
    sidecar = p.with_name(p.stem + ".scheme.json")
    return sidecar if sidecar.is_file() else None


def load_table(path, scheme_path=None, cap: int = DEFAULT_CELL_CAP) -> JointTable:
    """Load counts or samples CSV, as ``sniff_kind`` tells them apart,
    resolving the scheme sidecar if present."""
    scheme = None
    if scheme_path is not None:
        scheme = read_scheme_json(scheme_path)
    else:
        sidecar = find_scheme_sidecar(path)
        if sidecar is not None:
            scheme = read_scheme_json(sidecar)
    read = read_counts_csv if sniff_kind(path) == "counts" else read_samples_csv
    return read(path, scheme=scheme, cap=cap)


def _state_labels(cards):
    """Spell each state combination of the leading and of the trailing
    variables once, as 's1,...,sm,', split where the longer list is shortest."""
    m = min(range(len(cards) + 1),
            key=lambda m: max(math.prod(cards[:m]), math.prod(cards[m:])))
    return [np.array(["".join(f"{s}," for s in states)
                      for states in product(*(range(1, c + 1) for c in group))], dtype=object)
            for group in (cards[:m], cards[m:])]


def write_counts_csv(path, table: JointTable):
    """Write nonzero cells in ascending row-major order.

    A table with a ``total_count`` is written as counts, and a count
    within 1e-9 of a nonzero integer is written as that integer, so
    integer contingency data round-trips readably. Every other count,
    and every probability of a table without one, is written with
    ``repr``, which round-trips every double however small: no positive
    cell is ever written as 0.
    """
    probs, n = table.probs.reshape(-1), table.total_count
    head, tail = _state_labels(table.cardinalities)
    with open(path, "w", newline="") as f:
        f.write(",".join(f"x{i + 1}" for i in range(table.d)) + ",count\n")
        nonzero = np.flatnonzero(probs)
        for start in range(0, len(nonzero), _CHUNK_LINES):
            pos = nonzero[start:start + _CHUNK_LINES]
            counts = probs[pos] if n is None else probs[pos] * n
            whole = np.round(counts)
            integral = (np.abs(counts - whole) < 1e-9) & (whole != 0) & (n is not None)
            text = list(map(repr, counts.tolist()))
            for i in np.flatnonzero(integral).tolist():
                text[i] = str(int(whole[i]))
            lines = zip(head[pos // len(tail)].tolist(), tail[pos % len(tail)].tolist(), text)
            f.write("\n".join(map("".join, lines)) + "\n")
