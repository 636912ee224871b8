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
import functools
import json
import math
from contextlib import contextmanager
from io import TextIOWrapper
from itertools import islice, product
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .distribution import DEFAULT_CELL_CAP, JointTable, VariableSpec, check_cap, from_codes
from .errors import DataFormatError

#: Lines parsed per array chunk.
_CHUNK_LINES = 65_536

#: Cells formatted per write chunk, few enough that its arrays stay in
#: cache.
_WRITE_CELLS = 8_192

#: Bytes per chunk the byte decoders read, rounded down to whole sample
#: rows: a constant, so a load's memory does not depend on the host.
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
    # Each row is 2d state bytes, then the count's bytes from ``fields`` on.
    fields = ends - widths
    codes = _digit_codes(sliding_window_view(buf, 2 * d)[fields - 2 * d].view("<u2"), ",")
    if codes is None:
        return None
    counts = _decode_floats(buf, fields, ends)
    if counts is None:
        return None
    return (codes, counts) if counts.min() >= 0 and counts.max() < math.inf else None


#: Bytes of a count the decoder reads per row: three 8-byte words.
_WINDOW = 24


def _windows(buf, stops):
    """The ``_WINDOW`` bytes before each of ``stops`` (ascending offsets
    into ``buf``) as the rows of a uint8 matrix, '0' before ``buf``."""
    lead = np.searchsorted(stops, _WINDOW)
    head = np.concatenate([np.full(_WINDOW, ord("0"), dtype=np.uint8), buf[:_WINDOW]])
    if lead == len(stops):
        return sliding_window_view(head, _WINDOW)[stops]
    rows = sliding_window_view(buf, _WINDOW)[np.maximum(stops - _WINDOW, 0)]
    rows[:lead] = sliding_window_view(head, _WINDOW)[stops[:lead]]
    return rows


def _zero_before(words, skip):
    """Set the first ``skip`` bytes of each row of ``words``, (n, k) little-
    endian uint64 words of ASCII with k <= 3, to '0'."""
    k = words.shape[1]
    masks = _decoding_tables()[2][np.minimum(np.maximum(skip, 0), 8 * k), :k]
    words &= ~masks
    words |= masks & 0x3030303030303030


def _parse_words(words):
    """The decimal value of each of ``words``, little-endian uint64 words
    of eight ASCII digits, most significant first, as uint64 in place of
    the words, and where every byte is a digit 0-9 (elsewhere the value
    is meaningless). The digits are summed in pairs, then fours, then
    eights."""
    high = words & 0xF0F0F0F0F0F0F0F0
    low = words + 0x0606060606060606
    low &= 0xF0F0F0F0F0F0F0F0
    low >>= 4
    high |= low
    digits = high == 0x3333333333333333
    words -= 0x3030303030303030
    for shift, mask in ((8, 0x00FF00FF00FF00FF), (16, 0x0000FFFF0000FFFF), (32, 0xFFFFFFFF)):
        np.right_shift(words, shift, out=low)
        words *= 10 ** (shift // 8)
        words += low
        words &= mask
    return words, digits


def _decode_floats(buf, fields, ends):
    """The float of each ``buf[fields[i]:ends[i]]`` as ``float()`` reads it,
    or None where one has a byte outside ``0-9.eE+-`` or does not read.

    A count is an optional sign, a mantissa of digits with at most one
    '.', and optionally 'e' or 'E', a sign and exponent digits. It is
    read from the ``_WINDOW`` bytes before its end: the exponent from the
    last word, and the mantissa, shifted to end the window and with what
    lies before it set to '0', from all three. The point reads as '0'; m
    is the mantissa's integer without it, r the number of digits after
    it, and the count is m·10^q with q = exponent − r.

    ``_scale_decimals`` rounds m·10^q. ``float()`` reads a count longer
    than the window, with a nonzero digit more than 19 places before the
    mantissa's end, with more than 4 exponent digits, with no mantissa
    digit or any other byte out of place, or that ``_scale_decimals``
    leaves undecided. A second '.', or a second 'e' in the last word,
    makes None.
    """
    n = len(ends)
    win = _windows(buf, ends)
    skip = _WINDOW - (ends - fields)  # bytes before the count in its window
    dots = _find(win == ord("."), 0, skip)
    es = _find((win[:, 16:] | 0x20) == ord("e"), 16, skip)
    if dots is None or es is None:
        return None
    (dot_row, dot_col), (e_row, e_col) = dots, es
    ok = skip >= 0
    q = np.zeros(n, dtype=np.int64)
    q[e_row], e_ok = _exponents(win, e_row, e_col)
    ok[e_row] &= e_ok
    # The mantissa, shifted past the 'e' and what follows it to end the
    # window, without its sign.
    shift = np.zeros(n, dtype=np.int64)
    shift[e_row] = _WINDOW - e_col
    words = win.view("<u8")
    bits = (8 * np.minimum(shift[e_row], 7)).astype(np.uint64)
    w0, w1, w2 = words[e_row].T
    words[e_row] = np.stack([w0 << bits, w1 << bits | w0 >> 64 - bits,
                             w2 << bits | w1 >> 64 - bits], axis=1)
    lead = buf[fields]
    neg = lead == ord("-")
    skip += shift + (neg | (lead == ord("+")))
    _zero_before(words, skip)
    # The point reads as '0', which ``_mantissas`` removes.
    dot_col += shift[dot_row]
    inside = dot_col < _WINDOW
    dot_row, dot_col = dot_row[inside], dot_col[inside]
    win.reshape(-1)[dot_row * _WINDOW + dot_col] = ord("0")
    has_dot = np.zeros(n, dtype=bool)
    has_dot[dot_row] = True
    after_dot = np.zeros(n, dtype=np.int64)
    after_dot[dot_row] = _WINDOW - 1 - dot_col
    m, m_ok = _mantissas(words, after_dot, has_dot)
    # At least one digit.
    ok &= m_ok & (skip + has_dot < _WINDOW)
    q -= after_dot
    counts = _scale_decimals(m, np.where(ok, q, 0), ok)
    counts[neg] *= -1
    slow = np.flatnonzero(~ok)
    if len(slow):
        values = _float_fields([buf[i:j].tobytes()
                                for i, j in zip(fields[slow].tolist(), ends[slow].tolist())])
        if values is None:
            return None
        counts[slow] = values
    return counts


def _find(match, offset, skip):
    """The row and column (``offset`` plus the index) of each True of the
    matrix ``match`` at or after column ``skip`` of its row; None if a row
    has two."""
    row, col = np.divmod(np.flatnonzero(match), match.shape[1])
    col += offset
    keep = col >= skip[row]
    row, col = row[keep], col[keep]
    return None if (np.diff(row) == 0).any() else (row, col)


def _exponents(win, e_row, e_col):
    """The exponent after each 'e' of ``win`` at (``e_row``, ``e_col``), and
    where it is an optional sign and 1-4 digits, from the last word."""
    after = np.where(e_col < _WINDOW - 1, win[e_row, np.minimum(e_col + 1, _WINDOW - 1)], 0)
    neg = after == ord("-")
    first = e_col + 1 + (neg | (after == ord("+")))
    words = win.view("<u8")[e_row, 2:]
    _zero_before(words, first - 16)
    value, ok = _parse_words(words)
    value = value[:, 0].astype(np.int64)
    return np.where(neg, -value, value), ok[:, 0] & (first >= _WINDOW - 4) & (first < _WINDOW)


def _mantissas(words, after_dot, has_dot):
    """m of each row of ``words``, (n, 3) uint64 words of ASCII digits,
    where ``has_dot``, with a '0' ``after_dot`` digits before the end
    where the point was, and where the row is digits with none but zeros
    more than 19 places before the end; ``words`` is overwritten."""
    x, ok = _parse_words(words)
    ok = ok[:, 0] & ok[:, 1] & ok[:, 2] & (x[:, 0] < 1000)
    v = (x[:, 0] * 10**8 + x[:, 1]) * 10**8 + x[:, 2]
    # m = v with its digit at 10^r removed: the 0 the point was read as.
    tens = _decoding_tables()[1]
    high, low = np.divmod(v, tens[np.minimum(after_dot + has_dot, 19)])
    return high * tens[np.minimum(after_dot, 18)] + low, ok


def _float_fields(fields):
    """``float()`` of each of ``fields`` (bytes); None if one has a byte
    outside ``0-9.eE+-`` or does not read."""
    if any(field.translate(None, b"0123456789.eE+-") for field in fields):
        return None
    try:
        return [float(field) for field in fields]
    except ValueError:
        return None


def _scale_decimals(m, q, ok):
    """m·10^q, correctly rounded, for each uint64 m below 10^19 and int q
    where ``ok``; clears ``ok`` where it does not decide the rounding.

    Where m < 2^53 and |q| <= 22, m and 10^|q| are exact doubles, and one
    multiplication or division rounds m·10^q correctly (Clinger 1990).
    Elsewhere m, split into two exact doubles, times 10^q as a
    double-double (``_powers``) gives m·10^q as a sum tot + rem, with a
    relative error below 2^-90, and tot is the nearest double unless
    |rem| is within ``_MARGIN`` of the half-gap to tot's neighbour, or
    m·10^q is not a normal double.
    """
    counts = m.astype(np.float64)
    power = _decoding_tables()[0][np.minimum(np.abs(q), 22)]
    np.multiply(counts, power, out=counts, where=q >= 0)
    np.divide(counts, power, out=counts, where=q < 0)
    rows = np.flatnonzero(ok & ((m >= 2**53) | (np.abs(q) > 22)))
    q = q[rows]
    inside = (q >= -_POW_BIAS) & (q <= _POW_TOP)
    ok[rows[~inside]] = False
    rows, q = rows[inside], q[inside]
    if not len(rows):
        return counts
    hi, lo, hi_head, hi_tail, exp = (t[q + _POW_BIAS] for t in _powers())
    # m = a + b, a with at most 53 significant bits and b < 2^11.
    b = np.where(m[rows] >= 2**53, m[rows] & 0x7FF, 0)
    a = (m[rows] - b).astype(np.float64)
    # m·10^q = (tot + rem)·2^exp, to double-double accuracy.
    tot, rem = _times_power(a, hi, lo, hi_head, hi_tail, b.astype(np.float64) * hi)
    # The half-gap below tot, which is never wider than the one above.
    half = 0.5 * (tot - np.nextafter(tot, 0))
    with np.errstate(over="ignore"):
        counts[rows] = np.ldexp(tot, exp)
        # Scaling by 2^exp keeps every bit where the value is a normal double.
        sure = ((np.abs(rem) < half * (1 - _MARGIN)) & (counts[rows] >= _NORMAL)
                & (np.ldexp(counts[rows], -exp) == tot))
    ok[rows[~sure]] = False
    return counts


def _read_digits(f, has_count):
    """Decode a file opened in binary for as long as it keeps the canonical
    form: header ``x1,...,xd`` and rows ``_decode_digits`` takes, or with
    ``has_count`` header ``x1,...,xd,count`` and rows ``_decode_counts``
    takes. ``has_count`` None takes either header.

    Returns d (0 when the header is not canonical), whether the header
    has a count column, the code chunks and the count chunks, and leaves
    ``f`` at the first byte not decoded. That rest, if any, goes to the
    text reader, the only authority on the full grammar.
    """
    header = f.readline()
    if has_count is None:
        has_count = header.endswith(b",count\n")
    d = header.count(b",") + 1 - has_count
    names = [f"x{i + 1}" for i in range(d)] + ["count"] * has_count
    if d < 1 or header != ",".join(names).encode() + b"\n":
        f.seek(0)
        return 0, has_count, [], []
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
    return d, has_count, codes, counts


def _read_body(f, d, has_count, path, first_line):
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


def _read_table(path, want_count, scheme, cap):
    """Load counts (``want_count`` True) or samples (False), or with
    ``want_count`` None whichever the header names."""
    check_cap(scheme or (), cap)  # before the file opens; with no scheme, only cap < 1
    with _open(path, binary=True) as raw:
        d, has_count, codes, counts = _read_digits(raw, want_count)
        f = TextIOWrapper(raw, encoding="utf-8")
        if not d:
            d, has_count = _read_header(f, path)
            if want_count and not has_count:
                raise DataFormatError(f"{path}:1: header has no trailing 'count' column")
            if has_count and want_count is False:
                raise DataFormatError(
                    f"{path}:1: header ends in 'count'; this is a contingency table, not samples"
                )
        more, more_counts = _read_body(f, d, has_count, path, 2 + sum(map(len, codes)))
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
    counts = np.concatenate(counts) if has_count else None
    with np.errstate(over="ignore"):
        if has_count and np.sum(counts) == math.inf:
            raise DataFormatError(f"{path}: the counts' total is not a finite double")
    return from_codes(codes, counts, scheme, cap=cap)


def read_counts_csv(path, scheme=None, cap: int = DEFAULT_CELL_CAP) -> JointTable:
    """Load a contingency CSV into a joint table."""
    return _read_table(path, True, scheme, cap)


def read_samples_csv(path, scheme=None, cap: int = DEFAULT_CELL_CAP) -> JointTable:
    """Load a raw-sample CSV (one observation per row) into a joint table."""
    return _read_table(path, False, scheme, cap)


def read_scheme_json(path):
    """Load a scheme sidecar: {"variables": [{"name", "cardinality"}, ...]},
    where a cardinality, and an index if given, is a JSON integer."""
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
        # JSON integers only: true, 2.0 and "2" are not 1, 2 and 2.
        declared, cardinality = entry.get("index", i + 1), entry["cardinality"]
        if type(declared) is not int or declared != i + 1:
            raise DataFormatError(
                f"{path}: variables[{i}] declares index {declared!r}, expected {i + 1}"
            )
        if type(cardinality) is not int:
            raise DataFormatError(f"{path}: variables[{i}]: cardinality {cardinality!r} "
                                  "is not an integer")
        try:
            specs.append(VariableSpec(i + 1, cardinality, entry.get("name")))
        except ValueError as exc:
            raise DataFormatError(f"{path}: variables[{i}]: {exc}") from None
    if not specs:
        raise DataFormatError(f"{path}: 'variables' is empty")
    return tuple(specs)


def write_scheme_json(path, scheme) -> None:
    """Write the scheme sidecar ``read_scheme_json`` reads; an unnamed
    variable is named x<index>."""
    doc = {"variables": [{"index": v.index, "name": v.name or f"x{v.index}",
                          "cardinality": v.cardinality} for v in scheme]}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def find_scheme_sidecar(data_path) -> Path | None:
    """Sidecar convention: <input stem>.scheme.json next to the data file."""
    p = Path(data_path)
    sidecar = p.with_name(p.stem + ".scheme.json")
    return sidecar if sidecar.is_file() else None


def load_table(path, scheme_path=None, cap: int = DEFAULT_CELL_CAP) -> JointTable:
    """Load counts or samples CSV, as its header tells them apart,
    resolving the scheme sidecar if present."""
    scheme = None
    if scheme_path is not None:
        scheme = read_scheme_json(scheme_path)
    else:
        sidecar = find_scheme_sidecar(path)
        if sidecar is not None:
            scheme = read_scheme_json(sidecar)
    return _read_table(path, None, scheme, cap)


#: The doubles ``_shortest_digits`` spells itself; repr takes the rest.
_FAST_RANGE = (1e-280, 1e280)

#: A distance this close to a rounding decision is left to repr.
_MARGIN = 1e-9

#: ``_powers`` holds 10^s for s in -_POW_BIAS.._POW_TOP: every power that
#: scales a normal double to [1e16, 1e17), or a mantissa below 10^19 to a
#: normal double.
_POW_BIAS, _POW_TOP = 327, 308

#: The smallest positive normal double.
_NORMAL = 2.2250738585072014e-308

#: Layout keys of ``_spell_floats``: 20 positional forms (decpt -3..16)
#: and two exponent widths, each times 17 digit counts; key _KEYS spells
#: 0.0 and key _KEYS + 1 keeps nothing.
_KEYS = 22 * 17

#: The spelling template of ``_spell_floats``: '-', '0.000', the digits
#: before the point right-aligned in 16, '.', the digits after it
#: left-aligned in 17, and 'e±XX' left-aligned in 8.
_TEMPLATE = np.dtype({"names": ["sign", "zero", "head", "dot", "lead", "tail", "exp"],
                      "formats": ["S1", "S5", ("<u8", 2), "S1", "u1", ("<u8", 2), "<u8"],
                      "offsets": [0, 1, 6, 22, 23, 24, 40], "itemsize": 48})


@functools.cache
def _powers():
    """10^s for s in -327..308 as (hi + lo)·2^exp, where hi in [1, 2] and lo
    form a double-double, hi is split in halves whose products are exact
    and exp is an integer; built on first use, read-only. Scaled by
    2^exp, hi and lo are 10^s rounded and its remainder rounded."""
    hi, lo, exp = [], [], []
    for s in range(-_POW_BIAS, _POW_TOP + 1):
        num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
        e = num.bit_length() - den.bit_length()
        num, den = (num, den << e) if e >= 0 else (num << -e, den)
        if num < den:
            num, e = num << 1, e - 1
        hi.append(num / den)  # int division rounds correctly
        a, b = hi[-1].as_integer_ratio()
        lo.append((num * b - a * den) / (den * b))
        exp.append(e)
    hi = np.array(hi)
    return _read_only(hi, np.array(lo), *_split(hi), np.array(exp))


@functools.cache
def _decoding_tables():
    """The small tables of ``_decode_floats``: 10^0..10^22 as exact
    doubles, 10^0..10^19 as uint64 and, for s = 0..24, the masks of the
    first s bytes of three little-endian uint64 words."""
    return _read_only(np.array([float(10**k) for k in range(23)]),
                      np.array([10**k for k in range(20)], dtype=np.uint64),
                      np.array([[(1 << 8 * min(max(s - 8 * k, 0), 8)) - 1 for k in range(3)]
                                for s in range(25)], dtype=np.uint64))


@functools.cache
def _spelling_tables():
    """The tables of ``_spell_floats``, built on first use:

    - the ASCII digits of 0..9999 as little-endian uint32;
    - for exponents -400..399 'e', the sign and at least two digits,
      left-aligned in a little-endian uint64;
    - for each layout key the bytes of the spelling template it keeps.
    """
    i = np.arange(10_000)
    quads = (np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1)
             + ord("0")).astype(np.uint8).view("<u4").reshape(-1)
    exps = np.array([b"e%+03d" % i for i in range(-400, 400)], dtype="S8").view("<u8")
    # Key form·17 + n − 1 keeps the columns of two runs, [a, b) and [c, e).
    form, n = np.divmod(np.arange(_KEYS), 17)
    n, decpt = n + 1, form - 3
    kind = [form >= 20,  # d.ddde±XX (form 20) or d.ddde±XXX (form 21)
            decpt <= 0]  # '0.', -decpt zeros, the digits; else the digits and '.'
    a = np.select(kind, [21, 1], 22 - decpt)
    b = np.select(kind, [22 + n * (n > 1), 3 - decpt], 23 + np.maximum(n - decpt, 1))
    c = np.select(kind, [40, 23], 0)
    e = np.select(kind, [24 + form, 23 + n], 0)
    col = np.arange(_TEMPLATE.itemsize)
    keep = np.zeros((_KEYS + 2, _TEMPLATE.itemsize), dtype=bool)
    keep[:_KEYS] = (((a[:, None] <= col) & (col < b[:, None]))
                    | ((c[:, None] <= col) & (col < e[:, None])))
    keep[_KEYS, 1:4] = True  # '0.0'
    return _read_only(quads, exps, keep)


def _read_only(*tables):
    """``tables``, each made read-only: they are shared by every call."""
    for table in tables:
        table.flags.writeable = False
    return tables


def _split(a):
    """``a`` as two doubles of 26 significant bits each (Dekker), so that
    products of halves are exact."""
    t = a * 134217729.0
    head = t - (t - a)
    return head, a - head


def _times_power(x, hi, lo, hi_head, hi_tail, extra=0.0):
    """x·(hi + lo) + ``extra`` as a double-double (tot, rem), for a power of
    ten hi + lo from ``_powers`` and a small ``extra`` (Dekker, Fast2Sum)."""
    p = x * hi
    x_head, x_tail = _split(x)
    err = ((x_head * hi_head - p) + x_head * hi_tail + x_tail * hi_head) + x_tail * hi_tail
    c = err + x * lo + extra
    tot = p + c
    return tot, c - (tot - p)


def _scale(x, s):
    """x·10^s as an int64 integer part and a double fraction in [0, 1],
    exact to about 1e-14 for the x·10^s near [1e16, 1e17) it is used for."""
    hi, lo, hi_head, hi_tail, exp = (t[s + _POW_BIAS] for t in _powers())
    x = np.ldexp(x, exp)  # exact: x·2^exp is near x·10^s, a normal double
    total, rest = _times_power(x, hi, lo, hi_head, hi_tail)  # x·10^s, double-double
    whole = np.floor(total)
    frac = (total - whole) + rest
    carry = np.floor(frac)
    return whole.astype(np.int64) + carry.astype(np.int64), frac - carry


def _shortest_digits(x):
    """The digits of ``repr`` for each positive double of ``x``.

    repr spells the shortest decimal that reads back as x, and the one
    closest to x among the shortest. Here x is scaled to X = x·10^(16−E),
    E = ⌊log10 x⌋, so X is in [1e16, 1e17), as an exact integer part and
    a fraction; the half-gaps to x's neighbours, scaled the same way,
    bound the interval of decimals that read back as x. For j = 0, 1, …
    the multiple of 10^j in that interval closest to X is kept, for as
    long as one exists; the last one kept is the answer.

    Fallback: a value outside ``_FAST_RANGE``, or one where X's distance
    to a candidate multiple is within ``_MARGIN`` of a half-gap (an
    interval end, whose inclusion depends on round-half-even) or of the
    other candidate's distance (a tie), is not decided here, and repr
    spells it. The arithmetic errs by about 1e-14, far inside the margin.

    Returns ``(digits, count, decpt, fast)``: ``digits`` the significant
    digits left-aligned in 17 as int64, ``count`` how many are
    significant, and ``decpt`` the decimal point's position, so that x
    reads 0.d1d2…·10^decpt. Where not ``fast`` they spell 1.0.
    """
    fast = (x >= _FAST_RANGE[0]) & (x <= _FAST_RANGE[1])
    x = np.where(fast, x, 1.0)
    e = np.floor(np.log10(x)).astype(np.int64)
    whole, frac = _scale(x, 16 - e)
    # log10 can be off by one next to a power of ten; the integer part
    # says which way, where a float sum could round up to 1e17.
    off = (whole >= 10**17).astype(np.int64) - (whole < 10**16)
    if off.any():
        fix = np.flatnonzero(off)
        e[fix] += off[fix]
        whole[fix], frac[fix] = _scale(x[fix], 16 - e[fix])
        fast &= (whole >= 10**16) & (whole < 10**17)
    # The half-gaps, scaled with hi alone: lo would move them by < 1e-14.
    hi, *_, exp = _powers()
    scale = 0.5 * np.ldexp(hi[16 - e + _POW_BIAS], exp[16 - e + _POW_BIAS])
    gap_down = (x - np.nextafter(x, 0)) * scale
    gap_up = np.spacing(x) * scale
    # j = 0: both half-gaps exceed X·2^-54 > 0.55, so the nearest integer is in.
    fast &= np.abs(frac - 0.5) >= _MARGIN
    digits = whole + (frac > 0.5)
    zeros = np.zeros_like(whole)
    rows = np.flatnonzero(fast)
    whole, frac, gap_down, gap_up = whole[rows], frac[rows], gap_down[rows], gap_up[rows]
    for j in range(1, 18):
        unit = 10**j
        q, r = np.divmod(whole, unit)
        # The distances from X to the multiple at or below it and to the
        # one above; a half-gap is below 11, so a capped one is outside.
        down = np.minimum(r, 64) + frac
        up = np.minimum(unit - r, 64) - frac
        has_down, has_up = down < gap_down, up < gap_up
        unsure = ((np.abs(down - gap_down) < _MARGIN) | (np.abs(up - gap_up) < _MARGIN)
                  | (has_down & has_up & (np.abs(down - up) < _MARGIN)))
        fast[rows[unsure]] = False
        found = (has_down | has_up) & ~unsure
        rows = rows[found]
        if not len(rows):
            break
        digits[rows] = (q + (has_up & (~has_down | (up < down))))[found] * unit
        zeros[rows] = j
        whole, frac, gap_down, gap_up = whole[found], frac[found], gap_down[found], gap_up[found]
    # 10^17 is the digit 1 one place up.
    top = digits == 10**17
    digits[top], zeros[top], e[top] = 10**16, 16, e[top] + 1
    digits[~fast], zeros[~fast], e[~fast] = 10**16, 16, 0
    return digits, 17 - zeros, e + 1, fast


def _spell_floats(x):
    """``repr`` of each double of ``x`` as a ``_TEMPLATE`` row and a keep
    mask, both (len(x), 48) bytes: the kept bytes of row i, in order,
    spell x[i]. Also returns where the kernel took the value: a zero, or
    a magnitude ``_shortest_digits`` took; elsewhere nothing is kept.

    The digits are split where the point goes (after the first in the
    d.ddde±XX form, before all in the 0.000ddd form), so that each
    spelling is a sign and one or two runs of the template, which the
    caller's mask compacts quickly. Which bytes are kept depends on the
    form, the decimal point and the digit count: repr is positional when
    -4 < decpt <= 16, and d.ddde±XX otherwise. The sign is kept where
    the sign bit is set, as repr writes -0.0.
    """
    quads, exps, keep = _spelling_tables()
    negative, x = np.signbit(x), np.abs(x)
    zero = x == 0
    digits, count, decpt, fast = _shortest_digits(x)
    positional = (decpt > -4) & (decpt <= 16)
    point = np.where(positional, np.maximum(decpt, 0), 1)  # digits before it
    unit = 10 ** (17 - point)
    head = digits // unit
    tail = (digits - head * unit) * 10**point
    out = np.empty(len(x), dtype=_TEMPLATE)
    out["sign"], out["zero"], out["dot"] = b"-", b"0.000", b"."
    out["head"] = _ascii16(head, quads)
    out["lead"] = tail // 10**16 + ord("0")
    out["tail"] = _ascii16(tail % 10**16, quads)
    out["exp"] = exps[decpt + 399]
    key = np.where(positional, decpt + 3, 20 + (np.abs(decpt - 1) >= 100)) * 17
    key = np.where(fast, key + count - 1, np.where(zero, _KEYS, _KEYS + 1))
    keep = np.take(keep, key, axis=0)
    fast |= zero
    keep[:, 0] = negative & fast
    return out.view(np.uint8).reshape(len(x), -1), keep, fast


def _ascii16(v, quads):
    """The 16 decimal digits of each of ``v`` (below 10^16) as two
    little-endian uint64 of ASCII."""
    high, low = np.divmod(v, 10**8)
    out = np.empty((len(v), 4), dtype="<u4")
    out[:, 0], out[:, 1] = (quads[q] for q in np.divmod(high, 10_000))
    out[:, 2], out[:, 3] = (quads[q] for q in np.divmod(low, 10_000))
    return out.view("<u8")


def _label_bytes(cards):
    """Each state combination of the leading and of the trailing variables
    spelled once as 's1,...,sm,', split where the longer list is shortest,
    as a pair of ``_byte_rows`` tables."""
    m = min(range(len(cards) + 1),
            key=lambda m: max(math.prod(cards[:m]), math.prod(cards[m:])))
    return [_byte_rows(["".join(f"{s}," for s in states).encode()
                        for states in product(*(range(1, c + 1) for c in group))])
            for group in (cards[:m], cards[m:])]


def _byte_rows(texts):
    """``texts`` (bytes) as a zero-padded uint8 matrix and the mask of its
    bytes that belong to them."""
    width = max(map(len, texts), default=1) or 1
    matrix = np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(len(texts), width)
    lengths = np.fromiter(map(len, texts), np.intp, len(texts))
    return matrix, np.arange(width) < lengths[:, np.newaxis]


def write_counts_csv(path, table: JointTable):
    """Write nonzero cells in ascending row-major order.

    A table with a ``total_count`` is written as counts, and a count
    within 1e-9 of a nonzero integer is written as that integer, so
    integer contingency data round-trips readably. Every other count,
    and every probability of a table without one, is written exactly as
    ``repr`` spells it, which round-trips every double however small: no
    positive cell is ever written as 0.
    """
    probs, n = table.probs.reshape(-1), table.total_count
    labels = _label_bytes(table.cardinalities)
    with open(path, "wb") as f:
        f.write(",".join(f"x{i + 1}" for i in range(table.d)).encode() + b",count\n")
        nonzero = np.flatnonzero(probs)
        for i in range(0, len(nonzero), _WRITE_CELLS):
            f.write(_encode_cells(probs, n, labels, nonzero[i:i + _WRITE_CELLS]))


def _encode_cells(probs, n, labels, pos):
    """The counts CSV rows, as ``compact`` bytes, of the cells at ``pos``
    of the flat ``probs`` of a table with total count ``n`` (or None) and
    ``_label_bytes`` ``labels``."""
    (head, head_keep), (tail, tail_keep) = labels
    counts = probs[pos] if n is None else probs[pos] * n
    whole = np.round(counts)
    integral = (np.abs(counts - whole) < 1e-9) & (whole != 0) & (n is not None)
    h, t = np.divmod(pos, len(tail))
    return compact([(np.take(head, h, axis=0), np.take(head_keep, h, axis=0)),
                    (np.take(tail, t, axis=0), np.take(tail_keep, t, axis=0)),
                    float_column(np.where(integral, whole, counts), integral), b"\n"])


def float_column(x, integral=None):
    """``repr`` of each double of ``x`` as a byte matrix and its keep mask,
    a piece of ``lay_out``; where ``integral`` is set, x holds an integer,
    spelled without a point. The kernel spells what it can, Python the
    rest."""
    if integral is None:
        integral = np.zeros(len(x), dtype=bool)
    text, keep, fast = _spell_floats(x)
    slow = np.flatnonzero(integral | ~fast)
    if len(slow):
        words, words_keep = _byte_rows([
            str(int(v)).encode() if i else repr(v).encode()
            for i, v in zip(integral[slow].tolist(), x[slow].tolist())])
        wider = words.shape[1] - text.shape[1]
        if wider > 0:
            text, keep = (np.pad(a, ((0, 0), (0, wider))) for a in (text, keep))
        keep[slow] = False
        text[slow, :words.shape[1]], keep[slow, :words.shape[1]] = words, words_keep
    # Only the span of columns some row keeps is laid out.
    used = keep.any(axis=0)
    span = slice(used.argmax(), len(used) - used[::-1].argmax())
    return text[:, span], keep[:, span]


def int_column(v):
    """The decimal text of each int of ``v`` as a byte matrix and its keep
    mask, a piece of ``lay_out``: each distinct value is spelled once."""
    values, index = np.unique(v, return_inverse=True)
    text, keep = _byte_rows([b"%d" % i for i in values.tolist()])
    return np.take(text, index, axis=0), np.take(keep, index, axis=0)


def lay_out(pieces):
    """``pieces`` side by side as one byte matrix and its keep mask. A piece
    is a byte matrix and its keep mask, of as many rows as every other
    matrix piece, or bytes that every row holds whole; at least one is a
    matrix."""
    rows = next(len(piece[0]) for piece in pieces if not isinstance(piece, bytes))
    widths = [len(piece) if isinstance(piece, bytes) else piece[0].shape[1]
              for piece in pieces]
    body = np.empty((rows, sum(widths)), dtype=np.uint8)
    keep = np.empty(body.shape, dtype=bool)
    at = 0
    for piece, width in zip(pieces, widths):
        if isinstance(piece, bytes):
            body[:, at:at + width] = np.frombuffer(piece, dtype=np.uint8)
            keep[:, at:at + width] = True
        else:
            body[:, at:at + width], keep[:, at:at + width] = piece
        at += width
    return body, keep


def compact(pieces) -> np.ndarray:
    """The kept bytes of ``lay_out(pieces)``, row after row, as a uint8
    array, which a binary file writes as it is."""
    body, keep = lay_out(pieces)
    return body.ravel()[keep.ravel()]
