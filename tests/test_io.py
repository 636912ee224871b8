"""CSV and scheme-sidecar ingestion, write/read round trips."""

from contextlib import contextmanager

import numpy as np
import pytest

import tcherry.io
from conftest import random_table
from tcherry import (CapacityError, DataFormatError, DomainError, JointTable, from_counts,
                     generate_tcherry_distribution, make_scheme)
from tcherry.cli import main
from tcherry.distribution import from_codes
from tcherry.io import (
    find_scheme_sidecar,
    load_table,
    read_counts_csv,
    read_samples_csv,
    read_scheme_json,
    sniff_kind,
    write_counts_csv,
)

# numpy warns on a parse chunk that holds no rows; none may reach a user.
pytestmark = pytest.mark.filterwarnings("error")


def test_counts_round_trip_integer(tmp_path):
    rows = [((1, 1, 2), 3.0), ((2, 1, 1), 5.0), ((2, 2, 2), 1.0)]
    t = from_counts(rows, make_scheme([2, 2, 2]))
    path = tmp_path / "t.csv"
    write_counts_csv(path, t)
    text = path.read_text()
    assert text.splitlines()[0] == "x1,x2,x3,count"
    assert "2,1,1,5" in text  # integral counts stay integers
    back = read_counts_csv(path, scheme=make_scheme([2, 2, 2]))
    assert np.allclose(back.probs, t.probs, atol=1e-15)
    assert back.total_count == 9.0


def test_counts_round_trip_float_probabilities(tmp_path):
    t = random_table(np.random.default_rng(3), (2, 3))
    path = tmp_path / "p.csv"
    write_counts_csv(path, t)
    back = read_counts_csv(path, scheme=make_scheme([2, 3]))
    # repr round-trips each double; renormalization may shift the last ulp.
    assert np.allclose(back.probs, t.probs, rtol=0, atol=1e-15)


def test_counts_rows_are_sorted_ascending(tmp_path):
    t = random_table(np.random.default_rng(5), (2, 2))
    path = tmp_path / "s.csv"
    write_counts_csv(path, t)
    states = [line.split(",")[:2] for line in path.read_text().splitlines()[1:]]
    assert states == sorted(states)


def test_samples_csv_counted(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text("x1,x2\n1,1\n1,1\n2,1\n2,2\n")
    assert sniff_kind(path) == "samples"
    t = read_samples_csv(path)
    assert t.total_count == 4.0
    assert t.prob((1, 1)) == 0.5
    assert t.prob((1, 2)) == 0.0


def test_sniff_detects_counts_header(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("x1,x2,count\n1,1,4\n2,2,1\n")
    assert sniff_kind(path) == "counts"
    t = load_table(path)
    assert t.prob((1, 1)) == 0.8


def test_header_must_name_variables_in_order(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x2,x1,count\n1,1,1\n")
    with pytest.raises(DataFormatError, match="x1"):
        load_table(path)


def test_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,x2,count\n1,1,2\n1,oops,1\n")
    with pytest.raises(DataFormatError, match=r"bad\.csv:3"):
        read_counts_csv(path)


def test_missing_count_column_rejected_for_counts_kind(tmp_path):
    path = tmp_path / "nc.csv"
    path.write_text("x1,x2\n1,1\n")
    with pytest.raises(DataFormatError, match="count"):
        read_counts_csv(path)


def test_cardinalities_inferred_floor_at_two(tmp_path):
    # Variable 2 only ever takes state 1; it still gets two states.
    path = tmp_path / "one.csv"
    path.write_text("x1,x2,count\n1,1,2\n2,1,2\n3,1,1\n")
    t = load_table(path)
    assert t.cardinalities == (3, 2)


def test_scheme_sidecar_discovered_and_applied(tmp_path):
    data = tmp_path / "obs.csv"
    data.write_text("x1,x2,count\n1,1,2\n2,1,3\n")
    sidecar = tmp_path / "obs.scheme.json"
    sidecar.write_text(
        '{"variables": [{"index": 1, "cardinality": 2},'
        ' {"index": 2, "name": "hue", "cardinality": 3}]}'
    )
    assert find_scheme_sidecar(data) == sidecar
    t = load_table(data)
    assert t.cardinalities == (2, 3)
    assert t.scheme[1].name == "hue"


def test_explicit_scheme_beats_sidecar(tmp_path):
    data = tmp_path / "obs.csv"
    data.write_text("x1,count\n1,2\n2,1\n")
    (tmp_path / "obs.scheme.json").write_text(
        '{"variables": [{"index": 1, "cardinality": 2}]}'
    )
    other = tmp_path / "wide.json"
    other.write_text('{"variables": [{"index": 1, "cardinality": 4}]}')
    t = load_table(data, scheme_path=other)
    assert t.cardinalities == (4,)


def test_scheme_smaller_than_data_rejected(tmp_path):
    data = tmp_path / "obs.csv"
    data.write_text("x1,count\n3,1\n")
    scheme = tmp_path / "s.json"
    scheme.write_text('{"variables": [{"index": 1, "cardinality": 2}]}')
    with pytest.raises(DomainError, match="out of range"):
        load_table(data, scheme_path=scheme)


def test_scheme_json_validates_indices(tmp_path):
    path = tmp_path / "s.json"
    path.write_text('{"variables": [{"index": 2, "cardinality": 2}]}')
    with pytest.raises(DataFormatError, match="index"):
        read_scheme_json(path)
    path.write_text('{"variables": []}')
    with pytest.raises(DataFormatError, match="empty"):
        read_scheme_json(path)
    path.write_text("not json")
    with pytest.raises(DataFormatError, match="JSON"):
        read_scheme_json(path)


def test_empty_data_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataFormatError):
        load_table(path)


def test_sniff_reads_only_the_header(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("x1,x2,count\n1,1,2\n1,oops\n")
    assert sniff_kind(path) == "counts"
    with pytest.raises(DataFormatError) as exc:
        load_table(path)
    assert str(exc.value) == f"{path}:3: expected 3 fields, got 2"


# -- reader parity: accepted inputs load as from_counts over the same cells ---

ACCEPTED = {
    "crlf": ("x1,x2,count\r\n1,1,2\r\n2,2,3\r\n", [((1, 1), 2.0), ((2, 2), 3.0)], (2, 2)),
    "blank lines": ("x1,x2,count\n1,1,2\n\n\n2,2,3\n", [((1, 1), 2.0), ((2, 2), 3.0)], (2, 2)),
    "trailing blank line": ("x1,x2\n1,2\n2,1\n\n", [((1, 2), 1), ((2, 1), 1)], (2, 2)),
    "no final newline": ("x1,x2\n1,2\n2,1", [((1, 2), 1), ((2, 1), 1)], (2, 2)),
    "quoted fields": ('"x1","x2","count"\n"1","2","4"\n2,"1",1\n',
                      [((1, 2), 4.0), ((2, 1), 1.0)], (2, 2)),
    "padded fields": (" x1 ,x2,count\n 1 ,\t2, 4 \n2, 1,1\n",
                      [((1, 2), 4.0), ((2, 1), 1.0)], (2, 2)),
    "multi-digit states": ("x1,x2\n12,1\n3,10\n+12,01\n",
                           [((12, 1), 1), ((3, 10), 1), ((12, 1), 1)], (12, 10)),
    "duplicate cells": ("x1,x2,count\n1,1,2\n2,2,3\n1,1,0.5\n",
                        [((1, 1), 2.0), ((2, 2), 3.0), ((1, 1), 0.5)], (2, 2)),
    "scientific counts": ("x1,x2,count\n1,1,2e3\n2,2,3.5E-2\n1,2,1e-300\n",
                          [((1, 1), 2e3), ((2, 2), 3.5e-2), ((1, 2), 1e-300)], (2, 2)),
    "one variable": ("x1\n1\n3\n3\n", [((1,), 1), ((3,), 1), ((3,), 1)], (3,)),
}


@pytest.mark.parametrize("name", sorted(ACCEPTED))
def test_reader_accepts_like_from_counts(tmp_path, name):
    text, cells, cards = ACCEPTED[name]
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode())
    t = load_table(path)
    expected = from_counts(cells, make_scheme(cards))
    assert t.cardinalities == cards
    assert np.array_equal(t.probs, expected.probs)
    assert t.total_count == expected.total_count
    # A plain loop over the cells, independent of the array core.
    ref = np.zeros(cards)
    for state, count in cells:
        ref[tuple(s - 1 for s in state)] += count
    assert np.array_equal(t.probs, ref / np.sum(ref))


# -- reader parity: malformed inputs raise the same message as before ---------

REJECTED = {
    "non-integer state": ("x1,x2,count\n1,1,2\n1,oops,1\n",
                          "{p}:3: column 2: 'oops' is not an integer state"),
    "float state": ("x1,x2\n1,1\n1.0,2\n", "{p}:3: column 1: '1.0' is not an integer state"),
    "state zero": ("x1,x2\n1,1\n2,0\n",
                   "{p}:3: column 2: state 0 is not >= 1 (states are 1-based)"),
    "negative state": ("x1,x2,count\n-1,1,2\n",
                       "{p}:2: column 1: state -1 is not >= 1 (states are 1-based)"),
    "empty state": ("x1,x2\n,1\n", "{p}:2: column 1: '' is not an integer state"),
    "too few fields": ("x1,x2,count\n1,1,1\n1,2\n", "{p}:3: expected 3 fields, got 2"),
    "too many fields": ("x1,x2\n1,1\n1,2,3\n", "{p}:3: expected 2 fields, got 3"),
    "too many fields in every row": ("x1,x2\n1,1,5\n2,1,3\n", "{p}:2: expected 2 fields, got 3"),
    "too few fields in every row": ("x1,x2,x3\n1\n2\n", "{p}:2: expected 3 fields, got 1"),
    "whitespace line": ("x1,x2\n1,1\n  \n", "{p}:3: expected 2 fields, got 1"),
    "nan count": ("x1,x2,count\n1,1,1\n1,2,nan\n",
                  "{p}:3: column 3: count must be a non-negative real"),
    "inf count": ("x1,x2,count\n1,1,inf\n", "{p}:2: column 3: count must be a non-negative real"),
    "negative count": ("x1,x2,count\n1,1,1\n1,2,-1\n",
                       "{p}:3: column 3: count must be a non-negative real"),
    "non-numeric count": ("x1,x2,count\n1,1,abc\n", "{p}:2: column 3: 'abc' is not a number"),
    "empty file": ("", "{p}:1: file is empty"),
    "blank header": ("\nx1,x2\n1,1\n", "{p}:1: empty header row"),
    "header only": ("x1,x2,count\n", "{p}: no data rows"),
    "blank body": ("x1,x2\n\n\n", "{p}: no data rows"),
    "two bad rows": ("x1,x2\n1,1\n1,x\n0,1\n", "{p}:3: column 2: 'x' is not an integer state"),
    "two bad rows, mask first": ("x1,x2,count\n1,1,1\n2,1,-3\n1,q,1\n",
                                 "{p}:3: column 3: count must be a non-negative real"),
    # int() and float() took these; numpy's parsers do not, so neither does the reader.
    "digit-group underscore state": ("x1,x2\n1_0,1\n",
                                     "{p}:2: column 1: '1_0' is not an integer state"),
    "digit-group underscore count": ("x1,x2,count\n1,1,1_0\n",
                                     "{p}:2: column 3: '1_0' is not a number"),
    "non-ASCII digit": ("x1,x2\n\u0661,1\n", "{p}:2: column 1: '\u0661' is not an integer state"),
    "state above int32": ("x1\n99999999999\n",
                          "{p}:2: column 1: state 99999999999 is above 2147483647"),
}


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_reader_rejects_with_the_first_bad_row(tmp_path, name):
    text, message = REJECTED[name]
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode())
    with pytest.raises(DataFormatError) as exc:
        load_table(path)
    assert str(exc.value) == message.format(p=path)


@pytest.mark.parametrize("text, message", [
    # Samples are an unordered multiset: the smallest bad state is named.
    ("x1,x2\n3,3\n1,3\n2,1\n1,4\n",
     "cell (1, 3): state 3 out of range for variable 2 (cardinality 2)"),
    # Counts name the first bad cell in file order.
    ("x1,x2,count\n3,1,1\n1,3,1\n1,4,2\n",
     "cell (3, 1): state 3 out of range for variable 1 (cardinality 2)"),
])
def test_scheme_too_small_names_the_same_cell(tmp_path, text, message):
    data = tmp_path / "obs.csv"
    data.write_text(text)
    scheme = tmp_path / "s.json"
    scheme.write_text('{"variables": [{"cardinality": 2}, {"cardinality": 2}]}')
    with pytest.raises(DomainError) as exc:
        load_table(data, scheme_path=scheme)
    assert str(exc.value) == message


def test_cap_below_inferred_cells(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("x1,x2\n5,1\n1,4\n")
    with pytest.raises(CapacityError) as exc:
        load_table(path, cap=10)
    assert str(exc.value) == (
        "product state space exceeds cap: >10 cells for cardinalities (5, 4)"
    )


def test_chunked_reads_match_one_chunk(tmp_path, monkeypatch):
    rng = np.random.default_rng(11)
    rows = rng.integers(1, [3, 5, 300], size=(50, 3))
    lines = [",".join(map(str, r)) + f",{c!r}" for r, c in zip(rows, rng.random(50).tolist())]
    lines[7:7] = ["", "", "", ""]  # a chunk of empty lines only
    path = tmp_path / "c.csv"
    path.write_text("x1,x2,x3,count\n" + "\n".join(lines) + "\n\n")
    whole = load_table(path)
    monkeypatch.setattr(tcherry.io, "_CHUNK_LINES", 4)
    chunked = load_table(path)
    assert chunked.cardinalities == whole.cardinalities
    assert np.array_equal(chunked.probs, whole.probs)
    assert chunked.total_count == whole.total_count
    # An error in a later chunk still names its file line.
    path.write_text(path.read_text().replace(lines[40], lines[40] + ",9", 1))
    with pytest.raises(DataFormatError) as exc:
        load_table(path)
    assert str(exc.value) == f"{path}:{40 + 2}: expected 4 fields, got 5"


@pytest.mark.parametrize("chunk_bytes", [4, 8, 16, tcherry.io._CHUNK_BYTES])
def test_samples_chunk_of_another_width(tmp_path, monkeypatch, chunk_bytes):
    # Every row of the second chunk has one field too many, so the array
    # parse itself succeeds on that chunk. Below 20 bytes the byte decoder
    # takes lines 2-5 first and the text reader starts at line 6.
    path = tmp_path / "s.csv"
    path.write_text("x1,x2\n1,2\n2,1\n1,1\n2,2\n1,2,1\n2,1,1\n1,1,1\n2,2,1\n")
    monkeypatch.setattr(tcherry.io, "_CHUNK_LINES", 4)
    monkeypatch.setattr(tcherry.io, "_CHUNK_BYTES", chunk_bytes)
    with pytest.raises(DataFormatError) as exc:
        load_table(path)
    assert str(exc.value) == f"{path}:6: expected 2 fields, got 3"


# -- samples byte decoder -------------------------------------------------------


def _samples_bytes(rng, cards, n):
    rows = rng.integers(1, np.array(cards) + 1, size=(n, len(cards)))
    header = ",".join(f"x{i + 1}" for i in range(len(cards)))
    return (header + "\n" + "".join(",".join(map(str, r)) + "\n" for r in rows.tolist())).encode()


def _load_recording(path, monkeypatch):
    """``load_table(path)`` and the codes and counts it handed to
    ``from_codes``, or the error it raised."""
    seen = []

    def recording(codes, counts, *args, **kwargs):
        seen.append((codes, counts))
        return from_codes(codes, counts, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(tcherry.io, "from_codes", recording)
        try:
            t = load_table(path)
        except (DataFormatError, DomainError) as exc:
            return type(exc), str(exc)
    codes, counts = seen[0]
    return (codes.dtype, codes.tobytes(), None if counts is None else counts.tobytes(),
            t.cardinalities, t.probs.tobytes(), t.total_count)


@contextmanager
def _text_path_only(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(tcherry.io, "_decode_digits", lambda chunk, d: None)
        m.setattr(tcherry.io, "_decode_counts", lambda chunk, d: None)
        yield


def _random_cards(rng, d):
    """d cardinalities 2..9, binary where more would pass 2^20 cells."""
    cards = [2] * d
    for i in rng.permutation(d):
        cards[i] = int(rng.integers(2, 10))
        if np.prod(cards) > 2 ** 20:
            cards[i] = 2
    return cards


@pytest.mark.parametrize("seed", range(20))
def test_byte_decoder_equals_the_text_reader(tmp_path, monkeypatch, seed):
    rng = np.random.default_rng(seed)
    d = seed + 1
    cards = _random_cards(rng, d)
    path = tmp_path / "s.csv"
    path.write_bytes(_samples_bytes(rng, cards, int(rng.integers(1, 5001))))
    with _text_path_only(monkeypatch):
        expected = _load_recording(path, monkeypatch)
    for chunk_bytes in (2 * d, 7, 64, tcherry.io._CHUNK_BYTES):
        monkeypatch.setattr(tcherry.io, "_CHUNK_BYTES", chunk_bytes)
        assert _load_recording(path, monkeypatch) == expected


def test_byte_decoder_takes_exactly_the_canonical_rows():
    # Every value of every byte of a row: only digits 1-9 where the digits
    # go, with ',' then '\n' after them, decode.
    row = bytearray(b"3,7\n")
    for pos in range(len(row)):
        for value in range(256):
            trial = bytearray(row)
            trial[pos] = value
            codes = tcherry.io._decode_digits(bytes(trial * 2), 2)
            canonical = (bytes(trial[1::2]) == b",\n" and ord("1") <= trial[0] <= ord("9")
                         and ord("1") <= trial[2] <= ord("9"))
            if canonical:
                assert codes.dtype == np.uint8
                assert codes.tolist() == [[trial[0] - 49, trial[2] - 49]] * 2
            else:
                assert codes is None
    assert tcherry.io._decode_digits(b"1,2\n1", 2) is None


ODD_ROWS = {
    "state zero": b"1,0,2\n",
    "two-digit state": b"1,10,2\n",
    "quoted field": b'1,"2",2\n',
    "padded field": b"1, 2,2\n",
    "signed state": b"1,+1,2\n",
    "empty field": b"1,,2\n",
    "too many fields": b"1,2,2,1\n",
    "too few fields": b"1,2\n",
    "crlf line end": b"1,2,2\r\n",
    "lone cr line end": b"1,2,2\r2,1,1\n",
    "blank line": b"\n",
    "non-UTF-8 byte": b"1,\xff,2\n",
    "no final line end": None,
}


@pytest.mark.parametrize("name", sorted(ODD_ROWS))
def test_odd_row_after_decoded_chunks_reads_as_the_text_reader(tmp_path, monkeypatch, name):
    # 2,000 rows, so that the odd row lies past the bytes sniff_kind decodes.
    lines = [b"x1,x2,x3\n"] + [b"%d,%d,%d\n" % tuple(r)
                               for r in np.random.default_rng(5).integers(1, 4, (2000, 3))]
    if ODD_ROWS[name] is None:
        lines[-1] = lines[-1][:-1]
    else:
        lines[1451] = ODD_ROWS[name]  # file line 1452, after fourteen 100-row chunks
    path = tmp_path / "s.csv"
    path.write_bytes(b"".join(lines))
    with _text_path_only(monkeypatch):
        expected = _load_recording(path, monkeypatch)
    real, calls = tcherry.io._decode_digits, []

    def decode(chunk, d):
        calls.append(real(chunk, d))
        return calls[-1]

    monkeypatch.setattr(tcherry.io, "_decode_digits", decode)
    monkeypatch.setattr(tcherry.io, "_CHUNK_BYTES", 100 * 6)
    assert _load_recording(path, monkeypatch) == expected
    # Decoded chunks came first, and after the first refusal the decoder
    # was not tried again.
    assert len(calls) == (20 if ODD_ROWS[name] is None else 15) and calls[-1] is None
    assert all(c is not None for c in calls[:-1])


def test_canonical_samples_never_reach_loadtxt(tmp_path, monkeypatch):
    path = tmp_path / "s.csv"
    path.write_bytes(_samples_bytes(np.random.default_rng(3), [2, 9, 3, 4], 3000))
    with _text_path_only(monkeypatch):
        expected = load_table(path)

    def refuse(*args, **kwargs):
        raise AssertionError("np.loadtxt called")

    monkeypatch.setattr(np, "loadtxt", refuse)
    monkeypatch.setattr(tcherry.io, "_CHUNK_BYTES", 100)
    t = load_table(path)
    assert t.cardinalities == expected.cardinalities
    assert t.probs.tobytes() == expected.probs.tobytes()
    assert t.total_count == expected.total_count == 3000


# -- counts byte decoder --------------------------------------------------------

#: Count spellings the writer never makes, every one in the canonical form.
COUNT_SPELLINGS = ["0", "-0", ".5", "5.", "+1", "2.5E-7", "1e+3", "007", "1.2345678901234567",
                   "9007199254740993", "4.9406564584124654e-324", "2.2250738585072009e-308",
                   "1e-400", "1.7976931348623157e300"]


@pytest.mark.parametrize("seed", range(20))
def test_counts_byte_decoder_equals_the_text_reader(tmp_path, monkeypatch, seed):
    # d = 1..20, cardinalities 2..9; the cells of a sparse table, written by
    # write_counts_csv as counts and as probabilities, and rows of raw spellings.
    rng = np.random.default_rng(100 + seed)
    d = seed + 1
    cards = _random_cards(rng, d)
    n = int(rng.integers(1, 2001))
    states = rng.integers(1, np.array(cards) + 1, size=(n, d))
    counts = rng.random(n) * 10.0 ** rng.integers(-300, 290, n)
    counts[rng.random(n) < 0.3] = rng.integers(1, 1000)
    table = from_codes(states - 1, counts, make_scheme(cards))
    header = ",".join(f"x{i + 1}" for i in range(d)) + ",count\n"
    spelled = rng.choice(COUNT_SPELLINGS, n)
    raw = header + "".join(",".join(map(str, s)) + f",{c}\n"
                           for s, c in zip(states.tolist(), spelled))
    paths = [tmp_path / name for name in ("counts.csv", "probs.csv", "raw.csv")]
    write_counts_csv(paths[0], table)
    write_counts_csv(paths[1], JointTable(table.scheme, table.probs))
    paths[2].write_text(raw)
    for path in paths:
        with _text_path_only(monkeypatch):
            expected = _load_recording(path, monkeypatch)
        # Chunks below a row, and chunks that split rows.
        for chunk_bytes in (2 * d, 97, 1000, 4096, tcherry.io._CHUNK_BYTES):
            monkeypatch.setattr(tcherry.io, "_CHUNK_BYTES", chunk_bytes)
            assert _load_recording(path, monkeypatch) == expected


def test_counts_byte_decoder_takes_exactly_the_canonical_rows():
    # Every value of every byte of a row: only digits 1-9 where the states
    # go, each followed by ',', then a count digit and '\n' decode.
    row = bytearray(b"3,7,5\n")
    for pos in range(len(row)):
        for value in range(256):
            trial = bytearray(row)
            trial[pos] = value
            got = tcherry.io._decode_counts(bytes(trial * 2), 2)
            canonical = (bytes(trial[1:4:2]) == b",," and trial[5] == ord("\n")
                         and all(ord("1") <= trial[i] <= ord("9") for i in (0, 2))
                         and ord("0") <= trial[4] <= ord("9"))
            if canonical:
                codes, counts = got
                assert codes.dtype == np.uint8
                assert codes.tolist() == [[trial[0] - 49, trial[2] - 49]] * 2
                assert counts.tolist() == [trial[4] - 48] * 2
            else:
                assert got is None
    # A chunk decodes up to its last line end, and needs one.
    codes, counts = tcherry.io._decode_counts(b"1,2,0.5\n2,1,", 2)
    assert codes.tolist() == [[0, 1]] and counts.tolist() == [0.5]
    assert tcherry.io._decode_counts(b"1,2,0.5", 2) is None


ODD_COUNTS_ROWS = {
    "two-digit state": b"1,10,2,5\n",
    "quoted field": b'1,2,2,"5"\n',
    "padded field": b"1,2,2, 5\n",
    "nan count": b"1,2,2,nan\n",
    "inf count": b"1,2,2,inf\n",
    "overflowing count": b"1,2,2,1e999\n",
    "negative count": b"1,2,2,-1\n",
    "malformed count": b"1,2,2,1-2\n",
    "digit-group count": b"1,2,2,1_0\n",
    "empty count": b"1,2,2,\n",
    "crlf line end": b"1,2,2,5\r\n",
    "blank line": b"\n",
    "non-UTF-8 byte": b"1,2,2,5\xff\n",
    "no final line end": None,
}


@pytest.mark.parametrize("name", sorted(ODD_COUNTS_ROWS))
def test_odd_counts_row_after_decoded_chunks_reads_as_the_text_reader(tmp_path, monkeypatch,
                                                                       name):
    # 2,000 rows of 8 bytes, 75 to a 600-byte chunk.
    rng = np.random.default_rng(7)
    lines = [b"x1,x2,x3,count\n"] + [b"%d,%d,%d,%d\n" % (*s, c) for s, c in
                                     zip(rng.integers(1, 4, (2000, 3)), rng.integers(1, 10, 2000))]
    if ODD_COUNTS_ROWS[name] is None:
        lines[-1] = lines[-1][:-1]
    else:
        lines[1451] = ODD_COUNTS_ROWS[name]  # file line 1452, in the 20th chunk
    path = tmp_path / "c.csv"
    path.write_bytes(b"".join(lines))
    with _text_path_only(monkeypatch):
        expected = _load_recording(path, monkeypatch)
    real, calls = tcherry.io._decode_counts, []

    def decode(chunk, d):
        calls.append(real(chunk, d))
        return calls[-1]

    monkeypatch.setattr(tcherry.io, "_decode_counts", decode)
    monkeypatch.setattr(tcherry.io, "_CHUNK_BYTES", 100 * 6)
    assert _load_recording(path, monkeypatch) == expected
    # Decoded chunks came first, and after the first refusal the decoder
    # was not tried again. With no final line end, the chunk before the
    # last line decodes and the last line alone is refused.
    assert len(calls) == (28 if ODD_COUNTS_ROWS[name] is None else 20) and calls[-1] is None
    assert all(c is not None for c in calls[:-1])


def test_canonical_counts_never_reach_loadtxt(tmp_path, monkeypatch):
    table = random_table(np.random.default_rng(4), (2, 9, 3, 4), zero_fraction=0.2)
    path = tmp_path / "c.csv"
    write_counts_csv(path, JointTable(table.scheme, table.probs, total_count=1e6))
    with _text_path_only(monkeypatch):
        expected = load_table(path)

    def refuse(*args, **kwargs):
        raise AssertionError("np.loadtxt called")

    monkeypatch.setattr(np, "loadtxt", refuse)
    monkeypatch.setattr(tcherry.io, "_CHUNK_BYTES", 100)
    t = load_table(path)
    assert t.cardinalities == expected.cardinalities
    assert t.probs.tobytes() == expected.probs.tobytes()
    assert t.total_count == expected.total_count


# -- writer --------------------------------------------------------------------


def _reference_write(table):
    """The per-cell loop the vectorized writer replaces, rounding only counts
    near a nonzero integer."""
    n = table.total_count
    out = [",".join(f"x{i + 1}" for i in range(table.d)) + ",count"]
    for idx in np.ndindex(*table.cardinalities):
        value = float(table.probs[idx])
        if value == 0.0:
            continue
        state = ",".join(str(i + 1) for i in idx)
        if n is None:
            out.append(f"{state},{value!r}")
            continue
        count = value * n
        whole = round(count)
        text = str(whole) if abs(count - whole) < 1e-9 and whole != 0 else repr(count)
        out.append(f"{state},{text}")
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("total", [None, 1000.0, 7.0, 1e30])
@pytest.mark.parametrize("cards", [(2, 3), (5, 2, 3, 2), (7,), (3, 3, 3, 3)])
def test_writer_matches_reference_loop(tmp_path, monkeypatch, cards, total):
    monkeypatch.setattr(tcherry.io, "_CHUNK_LINES", 5)
    rng = np.random.default_rng(len(cards))
    t = random_table(rng, cards, zero_fraction=0.3)
    if total is not None:
        # Integral counts, near-integral ones and fractions in one table.
        raw = np.floor(t.probs * total) + np.where(rng.random(cards) < 0.5, 0.0, 0.37)
        raw.flat[0] = 3.0 + 1e-12
        raw.flat[-1] = 1e-12  # a positive count within 1e-9 of 0
        t = JointTable(t.scheme, raw / raw.sum(), total_count=total)
    path = tmp_path / "w.csv"
    write_counts_csv(path, t)
    assert path.read_text() == _reference_write(t)


def test_exact_synth_keeps_every_cell(tmp_path, capsys):
    # Without --n a table is written as probabilities; tiny ones must survive.
    assert main(["synth", "--d", "14", "--k", "3", "--seed", "1",
                 "--out", str(tmp_path / "p")]) == 0
    capsys.readouterr()
    table, _ = generate_tcherry_distribution(1, 14, 3, 2, 2.0)
    assert table.probs[table.probs > 0].min() < 1e-9
    lines = (tmp_path / "p.csv").read_text().splitlines()[1:]
    assert len(lines) == np.count_nonzero(table.probs)
    for line in lines:
        *state, value = line.split(",")
        assert float(value) == table.probs[tuple(int(s) - 1 for s in state)]
    back = read_counts_csv(tmp_path / "p.csv")
    assert abs(back.total_count - 1.0) < 1e-12
    assert np.allclose(back.probs, table.probs, rtol=0, atol=1e-15)


def test_probability_file_rewritten_keeps_every_cell(tmp_path):
    # Read back, a probability file has total_count ~1, so writing it again
    # writes counts: one within 1e-9 of 0 must not become "0".
    table, _ = generate_tcherry_distribution(1, 10, 3, 2, 2.0)
    write_counts_csv(tmp_path / "p.csv", table)
    first = read_counts_csv(tmp_path / "p.csv")
    assert first.probs[first.probs > 0].min() * first.total_count < 1e-9
    write_counts_csv(tmp_path / "q.csv", first)
    second = read_counts_csv(tmp_path / "q.csv")
    assert np.array_equal(second.probs > 0, table.probs > 0)
    np.testing.assert_allclose(second.probs, table.probs, rtol=1e-12, atol=0)
