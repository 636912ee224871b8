"""CSV and scheme-sidecar ingestion, write/read round trips."""

import numpy as np
import pytest

import tcherry.io
from conftest import random_table
from tcherry import (CapacityError, DataFormatError, DomainError, JointTable, from_counts,
                     generate_tcherry_distribution, make_scheme)
from tcherry.cli import main
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


def test_unknown_kind_rejected(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("x1,count\n1,1\n2,1\n")
    with pytest.raises(DataFormatError, match="kind"):
        load_table(path, kind="parquet")


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


def test_samples_chunk_of_another_width(tmp_path, monkeypatch):
    # Every row of the second chunk has one field too many, so the array
    # parse itself succeeds on that chunk.
    path = tmp_path / "s.csv"
    path.write_text("x1,x2\n1,2\n2,1\n1,1\n2,2\n1,2,1\n2,1,1\n1,1,1\n2,2,1\n")
    monkeypatch.setattr(tcherry.io, "_CHUNK_LINES", 4)
    with pytest.raises(DataFormatError) as exc:
        load_table(path)
    assert str(exc.value) == f"{path}:6: expected 2 fields, got 3"


# -- writer --------------------------------------------------------------------


def _reference_write(table):
    """The per-cell loop the vectorized writer replaces, rounding only counts."""
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
        text = str(int(round(count))) if abs(count - round(count)) < 1e-9 else repr(count)
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
