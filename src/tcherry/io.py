"""File formats: contingency CSV, raw-sample CSV, scheme sidecar JSON.

Contingency CSV has header ``x1,...,xd,count`` and one row per nonzero
cell; sample CSV has header ``x1,...,xd`` and one row per observation.
States are 1-based integers. When no scheme is supplied, cardinalities
are inferred as the maximum observed state per variable (floored at 2,
since one-state variables are not representable).
"""

from __future__ import annotations

import csv
import json
import math
from itertools import islice, product
from pathlib import Path

import numpy as np

from .distribution import DEFAULT_CELL_CAP, JointTable, VariableSpec, from_codes, make_scheme
from .errors import DataFormatError

#: Lines parsed per array chunk, and cells formatted per write chunk.
_CHUNK_LINES = 65_536

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


def _open(path):
    try:
        return open(path)
    except OSError as exc:
        raise DataFormatError(f"{path}: {exc.strerror or exc}") from None


def _read_body(f, d, has_count, path):
    """Parse the data rows in chunks into 0-based codes, counts (None for
    samples) and per-variable maximum states, floored at 2.

    Codes are narrowed per chunk to the smallest unsigned dtype that holds them.
    """
    dtype = (np.dtype([("s", np.int32, (d,)), ("c", np.float64)]) if has_count
             else np.dtype(np.int32))
    codes, counts = [], []
    maxima = np.full(d, 2, dtype=np.int64)
    first_line = 2
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
            top = states.max(axis=0)
            np.maximum(maxima, top, out=maxima)
            codes.append((states - 1).astype(np.min_scalar_type(int(top.max()) - 1)))
            if has_count:
                counts.append(c)
        first_line += len(lines)
    if not codes:
        raise DataFormatError(f"{path}: no data rows")
    return np.concatenate(codes), np.concatenate(counts) if has_count else None, maxima


def sniff_kind(path) -> str:
    """Peek at the header line: 'counts' when it ends in a count column, else 'samples'."""
    with _open(path) as f:
        _, has_count = _read_header(f, path)
    return "counts" if has_count else "samples"


def _read_table(path, want_count, scheme, cap):
    with _open(path) as f:
        d, has_count = _read_header(f, path)
        if want_count and not has_count:
            raise DataFormatError(f"{path}:1: header has no trailing 'count' column")
        if has_count and not want_count:
            raise DataFormatError(
                f"{path}:1: header ends in 'count'; this is a contingency table, not samples"
            )
        codes, counts, maxima = _read_body(f, d, has_count, path)
    if scheme is None:
        scheme = make_scheme(maxima.tolist())
    elif len(scheme) != d:
        raise DataFormatError(
            f"{path}: scheme describes {len(scheme)} variables, data has {d}"
        )
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
        with open(path) as f:
            doc = json.load(f)
    except OSError as exc:
        raise DataFormatError(f"{path}: {exc.strerror or exc}") from None
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


def load_table(path, scheme_path=None, cap: int = DEFAULT_CELL_CAP,
               kind: str = "auto") -> JointTable:
    """Load counts or samples CSV, resolving the scheme sidecar if present."""
    scheme = None
    if scheme_path is not None:
        scheme = read_scheme_json(scheme_path)
    else:
        sidecar = find_scheme_sidecar(path)
        if sidecar is not None:
            scheme = read_scheme_json(sidecar)
    if kind == "auto":
        kind = sniff_kind(path)
    if kind == "counts":
        return read_counts_csv(path, scheme=scheme, cap=cap)
    if kind == "samples":
        return read_samples_csv(path, scheme=scheme, cap=cap)
    raise DataFormatError(f"unknown input kind {kind!r}")


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
    within 1e-9 of an integer is written as that integer, so integer
    contingency data round-trips readably. A table without one is
    written as its probabilities, each with ``repr``, which round-trips
    every double however small.
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
            integral = (np.abs(counts - whole) < 1e-9) & (n is not None)
            text = np.array([str(int(w)) if i else repr(c) for c, w, i in
                             zip(counts.tolist(), whole.tolist(), integral.tolist())], dtype=object)
            text = head[pos // len(tail)] + tail[pos % len(tail)] + text
            f.write("\n".join(text.tolist()) + "\n")
