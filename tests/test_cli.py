"""Command-line behavior: golden outputs, exit codes, determinism."""

import contextlib
import gc
import io
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import tcherry.cli
from conftest import candidate_dicts, candidate_rows, expand_tables
from tcherry import (CandidateTable, ConsistencyError, MarginalCache, TCherryJunctionTree,
                     add_hypercherry, fit_chow_liu, fit_exhaustive, fit_malvestuto, fit_sk,
                     generate_tcherry_distribution, new_parent, tree_to_json)
from tcherry.cli import main
from tcherry.io import load_table

SK4_FIT_TEXT = """\
algorithm: sk
k: 4
clusters: 1 3 4 5 | 1 2 4 5
separators: 1 4 5 (nu=2)
weight: 0.182099
I(X): 0.195190
KL: 0.0130914
trace:
  parent 1 3 4 5  I=0.129381
  add 2 via 1 4 5  w=0.052718
"""

SK4_REPORT_TEXT = """\
cluster | separator | I(C) | I(S) | w
1 3 4 5 | 1 3 5 | 0.129381 | 0.045701 | 0.083680
1 3 4 5 | 1 4 5 | 0.129381 | 0.047533 | 0.081848
2 3 4 5 | 2 3 5 | 0.116608 | 0.035137 | 0.081470
1 2 3 4 | 1 2 3 | 0.105531 | 0.026624 | 0.078907
2 3 4 5 | 2 4 5 | 0.116608 | 0.038063 | 0.078544
1 2 3 4 | 1 2 4 | 0.105531 | 0.029315 | 0.076216
1 2 4 5 | 1 2 4 | 0.100251 | 0.029315 | 0.070936
1 3 4 5 | 1 3 4 | 0.129381 | 0.066088 | 0.063294
1 2 3 5 | 1 2 3 | 0.089070 | 0.026624 | 0.062446
1 2 4 5 | 2 4 5 | 0.100251 | 0.038063 | 0.062187
1 2 3 5 | 2 3 5 | 0.089070 | 0.035137 | 0.053933
1 2 4 5 | 1 4 5 | 0.100251 | 0.047533 | 0.052718
accepted: parent 1 3 4 5; add 2 via 1 4 5
"""

M4_REPORT_TEXT = """\
cluster | separator | H(C) | H(S) | omega
1 2 3 5 | - | 3.288813 | - | -
1 3 4 5 | 1 3 5 | 3.743757 | 2.368490 | 1.375267
2 3 4 5 | 2 3 5 | 3.783647 | 2.406170 | 1.377478
1 2 3 4 | 1 2 3 | 3.943287 | 2.563246 | 1.380041
1 2 4 5 | 1 2 5 | 4.046977 | 2.615873 | 1.431104
accepted: parent 1 2 3 5; add 4 via 1 3 5
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- fit --------------------------------------------------------------------


def test_fit_sk_k4_text(capsys):
    code, out, err = run(capsys, "fit", "--k", "4", "lizards.csv")
    assert code == 0 and err == ""
    assert out == SK4_FIT_TEXT


def test_fit_malvestuto_k4_text(capsys):
    code, out, _ = run(capsys, "fit", "--k", "4", "--algorithm", "malvestuto",
                       "lizards.csv")
    assert code == 0
    assert "clusters: 1 2 3 5 | 1 3 4 5" in out
    assert "separators: 1 3 5 (nu=2)" in out
    assert "KL: 0.0224403" in out
    assert "parent 1 2 3 5  H=3.288813" in out


def test_fit_json_layout(capsys):
    code, out, _ = run(capsys, "fit", "--k", "4", "--format", "json", "lizards.csv")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"algorithm", "k", "tree", "score", "trace", "candidates"}
    assert (doc["algorithm"], doc["k"]) == ("sk", 4)
    assert doc["tree"]["clusters"] == [[1, 3, 4, 5], [1, 2, 4, 5]]
    assert doc["score"]["kl"] == pytest.approx(0.013091, abs=1e-5)
    assert doc["trace"][0]["separator"] is None
    assert len(doc["candidates"]) == 20  # C(5,4) * 4 orientations
    assert doc["candidates"][0]["w"] == pytest.approx(0.08368016907134557, abs=1e-12)


FITS = {"sk": fit_sk, "malvestuto": fit_malvestuto,
        "chow_liu": lambda p, k: fit_chow_liu(p), "exhaustive": fit_exhaustive}


@pytest.mark.parametrize("algorithm", ["sk", "malvestuto", "chow_liu", "exhaustive", "all"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_fit_json_candidates_are_the_table_rows(capsys, lizard, algorithm, k):
    code, out, _ = run(capsys, "fit", "--k", str(k), "--algorithm", algorithm,
                       "--format", "json", "lizards.csv")
    if algorithm == "chow_liu" and k > 2:
        assert code == 2
        return
    assert code == 0
    doc = json.loads(out)
    results = doc["results"] if algorithm == "all" else [doc]
    assert [r["algorithm"] for r in results] == \
        ([algorithm] if algorithm != "all" else [n for n in FITS if n != "chow_liu" or k == 2])
    for result in results:
        fr = FITS[result["algorithm"]](lizard, k)
        assert result["candidates"] == candidate_dicts(fr.candidate_table)


def test_fit_all_runs_every_algorithm(capsys):
    code, out, _ = run(capsys, "fit", "--k", "3", "--algorithm", "all", "lizards.csv")
    assert code == 0
    for name in ("algorithm: sk", "algorithm: malvestuto", "algorithm: exhaustive"):
        assert name in out
    assert "comparison: sk KL=0.0355417 | malvestuto KL=0.0375077 | exhaustive KL=0.0343556" in out


@pytest.mark.parametrize("k", [2, 3, 4])
def test_exhaustive_alone_equals_its_entry_in_all(capsys, k):
    # Every fit scores from the marginals its candidate table prefetched in
    # one walk (every k-subset, (k−1)-subset and single), so exhaustive
    # gives the same bytes alone as after the greedy fits.
    out = {}
    for algorithm in ("exhaustive", "sk", "all"):
        code, out[algorithm], _ = run(capsys, "fit", "--k", str(k), "--algorithm", algorithm,
                                      "--format", "json", "lizards.csv")
        assert code == 0
    (entry,) = [r for r in json.loads(out["all"])["results"] if r["algorithm"] == "exhaustive"]
    assert out["exhaustive"] == json.dumps(entry, indent=2) + "\n"
    assert entry["candidates"] == json.loads(out["sk"])["candidates"]


def test_fit_all_at_order_two_includes_spanning_tree(capsys):
    code, out, _ = run(capsys, "fit", "--k", "2", "--algorithm", "all", "lizards.csv")
    assert code == 0
    assert "algorithm: chow_liu" in out


def test_fit_nats_rescales_text(capsys):
    _, bits, _ = run(capsys, "fit", "--k", "4", "lizards.csv")
    _, nats, _ = run(capsys, "fit", "--k", "4", "--nats", "lizards.csv")
    kl_bits = float(bits.split("KL: ")[1].split()[0])
    kl_nats = float(nats.split("KL: ")[1].split()[0])
    assert kl_nats == pytest.approx(kl_bits * math.log(2), rel=1e-4)


def test_fit_smoothing_changes_divergence(capsys):
    _, raw, _ = run(capsys, "fit", "--k", "4", "lizards.csv")
    code, smoothed, _ = run(capsys, "fit", "--k", "4", "--smoothing", "0.5",
                            "lizards.csv")
    assert code == 0
    assert raw != smoothed


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_smoothing_that_is_not_finite_is_an_input_error(capsys, alpha):
    code, out, err = run(capsys, "fit", "--k", "3", "--smoothing", alpha, "lizards.csv")
    assert (code, out) == (2, "")
    assert err == f"error: smoothing must be finite and non-negative, got {alpha}\n"


def test_fit_chow_liu_needs_no_k(capsys):
    code, out, _ = run(capsys, "fit", "--algorithm", "chow_liu", "lizards.csv")
    assert code == 0
    assert "k: 2" in out
    code, _, err = run(capsys, "fit", "--algorithm", "chow_liu", "--k", "3",
                       "lizards.csv")
    assert code == 2
    assert "chow_liu" in err


def test_fit_without_k_is_an_input_error(capsys):
    code, _, err = run(capsys, "fit", "lizards.csv")
    assert code == 2
    assert "--k" in err


def test_unknown_algorithm_rejected_by_parser(capsys):
    code, _, _ = run(capsys, "fit", "--k", "3", "--algorithm", "magic", "lizards.csv")
    assert code == 2


def test_missing_input_file(capsys):
    code, _, err = run(capsys, "fit", "--k", "3", "nosuch.csv")
    assert code == 2
    assert "nosuch.csv" in err


@pytest.mark.parametrize("bad, argv", [
    ("bad.csv", ["fit", "--k", "2", "bad.csv"]),
    ("bad.json", ["fit", "--k", "2", "--scheme", "bad.json", "ok.csv"]),
    ("bad.tree.json", ["check", "bad.tree.json"]),
])
def test_input_that_is_not_utf8_is_an_input_error(tmp_path, capsys, bad, argv):
    (tmp_path / "ok.csv").write_text("x1,x2\n1,2\n2,1\n")
    (tmp_path / bad).write_bytes({
        "bad.csv": b"x1,x2\n1,2\n\xff,1\n",
        "bad.json": b'{"variables": [{"name": "\xff", "cardinality": 2}]}',
        "bad.tree.json": b'{"k": 2, "clusters": [[1, 2]], "name": "\xff"}',
    }[bad])
    code, out, err = run(capsys, *(str(tmp_path / a) if a.endswith((".csv", ".json")) else a
                                   for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {tmp_path / bad}: not UTF-8 text")


def test_cap_guard_exit_code(capsys):
    code, _, err = run(capsys, "fit", "--k", "3", "--cap", "10", "lizards.csv")
    assert code == 3
    assert "cap" in err


def test_internal_consistency_failure_exit_code(capsys, monkeypatch):
    def drifted(*args):
        raise ConsistencyError("marginal over (1,) entries sum to 0.9, not 1")

    monkeypatch.setattr(tcherry.cli, "fit_sk", drifted)
    code, out, err = run(capsys, "fit", "--k", "3", "lizards.csv")
    assert code == 4 and out == ""
    assert "internal consistency" in err


def test_json_emit_matches_one_shot_dumps_across_batches(capsys):
    # Enough chunks for several write batches.
    doc = {"rows": [{"w": i / 7, "cluster": [i, i + 1], "none": None} for i in range(30000)]}
    tcherry.cli._emit_json(doc)
    assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("doc", [
    [{"a": 1, "b": [1, 2]}, {"a": 2, "b": [3]}],  # list lengths differ
    [{"a": 1}, {"b": 1}, {"a": 1, "b": 2}, {"b": 2, "a": 1}],  # keys or their order
    [{"a": 1}, {"a": 1.5}, {"a": True}, {"a": None}, {"a": "x"}],  # kinds in a column
    [{"w": 0.5}, {"w": math.nan}, {"w": -math.inf}],  # json writes NaN and -Infinity
    [{"s": None, "v": [None, 0.25]}, {"s": [1], "v": [2, 0.5]}, {"s": [], "v": []}],
    [{"a": None}, {"a": None}, {"a": [], "b": {}}, {"a": []}],  # no value to format
    {"r": [{"%d": [[1]], "\n": "é"}, {"%d": [[2]], "\n": "ü"}], 7: [{"a": 10 ** 30}],
     "t": ({"f": 5e-324, "g": -0.0}, {"f": 1e300, "g": 2})},
])
def test_json_emit_matches_dumps_on_ragged_rows(capsys, doc):
    tcherry.cli._emit_json(doc)
    assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"


#: Doubles whose spelling is easy to get wrong: both zeros, tiny negatives,
#: subnormals, values outside the kernel's range and every format switch.
ODD_FLOATS = [0.0, -0.0, -1e-17, -3.3306690738754696e-16, 5e-324, -5e-324,
              2.225073858507201e-308, 1e-290, -1e290, 1.7976931348623157e308,
              1e-05, 9.999999999999999e-06, 0.0001, 9.999999999999999e-05,
              1e+16, 9999999999999998.0, 1e+17, 0.1, -2 / 3, 123456.789, 1.0, -7.0]


def _odd_table(rows, seed):
    """A table of ``rows`` rows over every kind of field, its floats drawn
    from ``ODD_FLOATS`` and its ints with 1, 2 and 3 digits."""
    rng = np.random.default_rng(seed)
    floats = np.array(ODD_FLOATS)
    lists = rng.integers(-9, 1000, size=(7, 3))
    return tcherry.cli.RowTable([
        ("f", rng.choice(floats, rows), None),
        ("i", rng.integers(0, 1000, rows), None),
        ("list", lists, rng.integers(0, len(lists), rows)),
        ("pair", rng.choice(floats, (rows, 2)), None),
        ("one", rng.choice(floats, (rows, 1)), None),
        ("ranked", floats, rng.integers(0, len(floats), rows)),
    ])


@pytest.mark.parametrize("rows", [0, 1, tcherry.cli._TABLE_ROWS - 1, tcherry.cli._TABLE_ROWS,
                                  tcherry.cli._TABLE_ROWS + 1, 2 * tcherry.cli._TABLE_ROWS + 1])
def test_table_writer_matches_dumps_on_odd_columns(capsys, rows):
    doc = {"t": _odd_table(rows, 1),
           "l": [_odd_table(rows, 2), {"x": [1, -0.0]}, _odd_table(rows, 3), _odd_table(1, 4)],
           "deep": {"q": [_odd_table(rows, 5)], "": []}}
    tcherry.cli._emit_json(doc)
    out = capsys.readouterr().out
    # Lines, so that a failure names the first one that differs.
    assert out.splitlines() == json.dumps(expand_tables(doc), indent=2).splitlines()
    assert out.endswith("}\n")


def _synthetic_candidates(rows, d=30, k=3):
    """A candidate table of ``rows`` rows over the k-subsets of 1..d, its
    per-rank I and H random, so that w and ω are of either sign."""
    clusters = tuple(itertools.combinations(range(1, d + 1), k))
    index = {base: i for i, base in enumerate(itertools.combinations(range(1, d + 1), k - 1))}
    base_ranks = np.array([[index[b] for b in itertools.combinations(c, k - 1)]
                           for c in clusters])
    rng = np.random.default_rng(rows)
    return CandidateTable(d, np.array(clusters), base_ranks, rng.random(len(clusters)),
                          rng.random(len(clusters)) * 4, rng.random(len(index)),
                          rng.random(len(index)) * 4, np.arange(rows) % base_ranks.size)


def test_table_emission_memory_does_not_grow_with_the_table(monkeypatch):
    # About 3 MiB at either size; a writer that spelled the whole table
    # at once would peak near 250 MiB at 200,000 rows.
    peaks = {}
    for rows in (20_000, 200_000):
        doc = {"candidates": tcherry.cli._candidate_rows(_synthetic_candidates(rows))}
        with open(os.devnull, "w") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                tcherry.cli._emit_json(doc)
                peaks[rows] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    assert peaks[200_000] <= peaks[20_000] + 2**20


@pytest.fixture(scope="module")
def synth10(tmp_path_factory):
    """Counts file of 5,000 samples over 10 variables, with its tree."""
    prefix = tmp_path_factory.mktemp("synth") / "s10"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--d", "10", "--k", "3", "--n", "5000", "--seed", "3",
                     "--out", str(prefix)]) == 0
    return prefix


@pytest.fixture(scope="module")
def synth6(tmp_path_factory):
    """Exact counts over 6 variables of mixed cardinality, uniform factors:
    at k=3, 24 of its 60 candidate rows and 2 steps of the ``sk`` trace
    have w < 0."""
    prefix = tmp_path_factory.mktemp("synth6") / "s6"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--d", "6", "--k", "3", "--seed", "9", "--cards", "2,3,2,2,3,2",
                     "--strength", "0", "--out", str(prefix)]) == 0
    return prefix


@pytest.fixture(scope="module")
def synth3_13(tmp_path_factory):
    """Counts files over 3 variables (k = 3) and over 13 (k = 4)."""
    base = tmp_path_factory.mktemp("synth3_13")
    with contextlib.redirect_stdout(io.StringIO()):
        for d, k in ((3, 3), (13, 4)):
            assert main(["synth", "--d", str(d), "--k", str(k), "--n", "20000", "--seed", "5",
                         "--out", str(base / f"d{d}")]) == 0
    return {"d3": str(base / "d3.csv"), "d13": str(base / "d13.csv")}


def emitted(capsys, monkeypatch, argv):
    """Exit code, stdout and every document the command passed to ``_emit_json``."""
    docs, emit = [], tcherry.cli._emit_json
    monkeypatch.setattr(tcherry.cli, "_emit_json", lambda doc: docs.append(doc) or emit(doc))
    code, out, _ = run(capsys, *argv)
    return code, out, docs


@pytest.mark.parametrize("algorithm", ["sk", "malvestuto", "chow_liu", "exhaustive", "all"])
@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("data", ["lizards", "synth10", "synth6"])
def test_fit_json_equals_dumps_of_its_document(capsys, monkeypatch, synth10, synth6, data, k,
                                               algorithm):
    path = {"lizards": "lizards.csv", "synth10": f"{synth10}.csv", "synth6": f"{synth6}.csv"}
    code, out, docs = emitted(capsys, monkeypatch, [
        "fit", "--k", str(k), "--algorithm", algorithm, "--format", "json", path[data]])
    d = {"lizards": 5, "synth10": 10, "synth6": 6}[data]
    if algorithm == "chow_liu" and k > 2 or algorithm == "exhaustive" and d > 7:
        assert (code, out, docs) == ((2 if algorithm == "chow_liu" else 3), "", [])
        return
    assert code == 0 and len(docs) == 1
    doc = expand_tables(docs[0])
    # Lines, so that a failure names the first one that differs; split at
    # "\n" alone, so the lists are equal exactly when the strings are.
    assert out.split("\n") == (json.dumps(doc, indent=2) + "\n").split("\n")
    for result in doc.get("results", [doc]):
        assert len(result["candidates"]) == math.comb(d, result["k"]) * result["k"]


@pytest.mark.parametrize("argv", [
    ["report", "--k", "3", "{data}"],
    ["report", "--k", "4", "--algorithm", "malvestuto", "{data}"],
    ["report", "--k", "3", "--algorithm", "malvestuto", "lizards.csv"],
    ["check", "{tree}", "{data}"],
    ["check", "{tree}"],
    ["score", "{tree}", "{data}"],
    ["synth", "--d", "6", "--k", "3", "--n", "100", "--out", "{out}"],
    # 2,860 candidate rows per fit: more than one 2,048-row write batch.
    ["fit", "--k", "4", "--algorithm", "all", "{d13}"],
    ["report", "--k", "4", "--algorithm", "malvestuto", "{d13}"],
    # d = k: the parent row, and a block table with no rows.
    ["report", "--k", "3", "--algorithm", "malvestuto", "{d3}"],
    ["report", "--k", "3", "{d3}"],
])
def test_command_json_equals_dumps_of_its_document(capsys, monkeypatch, synth10, synth3_13,
                                                   tmp_path, argv):
    fields = {"data": f"{synth10}.csv", "tree": f"{synth10}.tree.json",
              "out": str(tmp_path / "s"), **synth3_13}
    code, out, docs = emitted(capsys, monkeypatch,
                              [a.format(**fields) for a in argv] + ["--format", "json"])
    assert code == 0 and len(docs) == 1
    assert out.split("\n") == (json.dumps(expand_tables(docs[0]), indent=2) + "\n").split("\n")


def test_output_is_byte_identical_across_runs(capsys):
    _, first, _ = run(capsys, "fit", "--k", "3", "--algorithm", "all", "lizards.csv")
    _, second, _ = run(capsys, "fit", "--k", "3", "--algorithm", "all", "lizards.csv")
    assert first == second


# -- report -----------------------------------------------------------------


def test_report_sk_k4_table(capsys):
    code, out, _ = run(capsys, "report", "--k", "4", "lizards.csv")
    assert code == 0
    assert out == SK4_REPORT_TEXT


def test_report_malvestuto_k4_table(capsys):
    code, out, _ = run(capsys, "report", "--k", "4", "--algorithm", "malvestuto",
                       "lizards.csv")
    assert code == 0
    assert out == M4_REPORT_TEXT


def test_report_full_order_is_single_row(capsys):
    code, out, _ = run(capsys, "report", "--k", "5", "lizards.csv")
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith(("cluster", "accepted"))]
    assert rows == ["1 2 3 4 5 | 1 2 3 5 | 0.195190 | 0.089070 | 0.106120"]


def test_report_json_rows(capsys):
    code, out, _ = run(capsys, "report", "--k", "4", "--format", "json", "lizards.csv")
    doc = json.loads(out)
    assert code == 0
    assert doc["columns"] == ["cluster", "separator", "I(C)", "I(S)", "w"]
    assert len(doc["rows"]) == 12
    assert doc["rows"][0]["cluster"] == [1, 3, 4, 5]
    assert doc["rows"][0]["values"][2] == pytest.approx(0.083680, abs=1e-6)
    assert doc["accepted"] == "parent 1 3 4 5; add 2 via 1 4 5"


@pytest.mark.parametrize("argv, grown", [
    (["fit", "--k", "3"], 1),
    (["fit", "--k", "3", "--algorithm", "malvestuto"], 1),
    (["fit", "--k", "2", "--algorithm", "chow_liu"], 1),
    (["fit", "--k", "3", "--algorithm", "exhaustive"], 0),
    (["fit", "--k", "2", "--algorithm", "all"], 3),
    # report --algorithm sk cuts the fit's table after the fit's last row.
    (["report", "--k", "3"], 1),
    # The malvestuto blocks need the masks, which a fit does not keep.
    (["report", "--k", "3", "--algorithm", "malvestuto"], 2),
], ids=["fit-sk", "fit-malvestuto", "fit-chow_liu", "fit-exhaustive", "fit-all", "report-sk",
        "report-malvestuto"])
def test_each_greedy_fit_grows_once(capsys, monkeypatch, argv, grown):
    calls, growth = [], CandidateTable.growth

    def counted(table, parent):
        calls.append(parent)
        return growth(table, parent)

    monkeypatch.setattr(CandidateTable, "growth", counted)
    assert run(capsys, *argv, "lizards.csv")[0] == 0
    assert len(calls) == grown


@pytest.mark.parametrize("algorithm", ["sk", "malvestuto"])
@pytest.mark.parametrize("data, k", [
    ("synth10", 3),
    # Above the order the table was drawn at, and at d = k.
    ("synth10", 4),
    ("d3", 3),
])
def test_report_rows_match_a_scan_of_the_fitted_tree(capsys, monkeypatch, synth10, synth3_13,
                                                    algorithm, data, k):
    path = f"{synth10}.csv" if data == "synth10" else synth3_13[data]
    code, _, docs = emitted(capsys, monkeypatch, [
        "report", "--k", str(k), "--algorithm", algorithm, "--format", "json", path])
    assert code == 0
    p = load_table(path)
    cache = MarginalCache(p)
    fr = (fit_sk if algorithm == "sk" else fit_malvestuto)(p, k, cache)
    cands = candidate_rows(fr.candidate_table)
    if algorithm == "sk":
        # The by-w table, cut at the last row growth accepted.
        keys = [(c.cluster, c.base) for c in cands]
        last = max((keys.index((s.cluster, s.separator)) for s in fr.trace[1:]), default=0)
        want = [(c, cache.info, c.w) for c in cands[:last + 1]]
    else:
        # Step j's block: the rows the tree of the first j clusters admits.
        t, want = fr.tree, []
        for j in range(1, len(t.clusters)):
            tree = TCherryJunctionTree(k, t.clusters[:j], t.links[:j - 1])
            want += [(c, cache.h, c.omega) for c in cands if tree.admits(c.new_vertex, c.base)]
    rows = expand_tables(docs[0])["rows"][algorithm == "malvestuto":]
    assert rows == [{"cluster": list(c.cluster), "separator": list(c.base),
                     "values": [measure(c.cluster), measure(c.base), weight]}
                    for c, measure, weight in want]


# -- check ------------------------------------------------------------------


def test_check_fitted_tree_with_data(tmp_path, capsys, lizard, lizard_cache):
    tree = fit_sk(lizard, 3, lizard_cache).tree
    path = tmp_path / "sk3.json"
    path.write_text(tree_to_json(tree))
    code, out, _ = run(capsys, "check", str(path), "lizards.csv")
    assert code == 0
    assert "running intersection: holds" in out
    assert "graham reduction: acyclic" in out
    assert "puzzle numbering: 3 4 5 1 2" in out
    assert "recovery conditions: hold (0 violations, 0 ties, 3 comparisons)" in out
    assert out.endswith("result: ok\n")


def test_check_reports_recovery_violations_without_failing(tmp_path, capsys,
                                                           lizard, lizard_cache):
    tree = fit_malvestuto(lizard, 3, lizard_cache).tree
    path = tmp_path / "m3.json"
    path.write_text(tree_to_json(tree))
    code, out, _ = run(capsys, "check", str(path), "lizards.csv")
    # Statistical violations are reported; structural health decides the exit.
    assert code == 0
    assert "recovery conditions: VIOLATED (2 violations, 0 ties, 3 comparisons)" in out
    assert "result: ok" in out


def _non_rip_tree(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "k": 2,
        "clusters": [[1, 2], [3, 4], [2, 3]],
        "separators": [{"set": [2], "attach_to": 0}, {"set": [3], "attach_to": 1}],
        "parent": [1, 2],
    }))
    return str(path)


def test_check_non_rip_cluster_list(tmp_path, capsys):
    code, out, _ = run(capsys, "check", _non_rip_tree(tmp_path))
    assert code == 1
    assert "running intersection: VIOLATED at clusters[2]" in out
    assert "result: FAIL" in out


def test_check_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"k": 3,')
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "invalid JSON" in err


def test_check_json_format(tmp_path, capsys, lizard, lizard_cache):
    tree = fit_sk(lizard, 4, lizard_cache).tree
    path = tmp_path / "t.json"
    path.write_text(tree_to_json(tree))
    code, out, _ = run(capsys, "check", str(path), "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert doc["ok"] is True
    assert doc["rip_violation"] is None
    assert doc["puzzle_numbering"] == [1, 3, 4, 5, 2]
    assert doc["recovery"] is None


# -- score ------------------------------------------------------------------


def test_score_tree_against_data(tmp_path, capsys, lizard, lizard_cache):
    tree = fit_sk(lizard, 4, lizard_cache).tree
    path = tmp_path / "t.json"
    path.write_text(tree_to_json(tree))
    code, out, _ = run(capsys, "score", str(path), "lizards.csv")
    assert code == 0
    assert "weight: 0.182099" in out
    assert "KL: 0.0130914" in out
    assert "  1 4 5  nu=2  I=0.047533" in out
    code, out, _ = run(capsys, "score", str(path), "lizards.csv", "--format", "json")
    doc = json.loads(out)
    assert doc["kl"] == pytest.approx(0.013091, abs=1e-5)
    assert doc["separators"] == [
        {"set": [1, 4, 5], "nu": 2, "i": pytest.approx(0.047533, abs=1e-5)}
    ]


@pytest.fixture(scope="module")
def synth12(tmp_path_factory):
    """Counts file of 50,000 samples over 12 variables, from an order-3 tree."""
    prefix = tmp_path_factory.mktemp("synth12") / "s12"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--d", "12", "--k", "3", "--n", "50000", "--seed", "8",
                     "--out", str(prefix)]) == 0
    return str(prefix) + ".csv"


@pytest.mark.parametrize("algorithm", ["sk", "malvestuto"])
@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("data", ["lizards", "synth12"])
def test_fit_and_score_agree_to_rounding(tmp_path, capsys, synth12, data, k, algorithm):
    # ``fit`` reads its I values from one walk over every k-subset,
    # (k−1)-subset and single; ``score`` from one walk over the tree's
    # clusters and separators and one over the singles. A walk's partial
    # sums depend on the keys it serves, so the two may part in the last
    # bits, never by more than rounding.
    path = "lizards.csv" if data == "lizards" else synth12
    code, out, _ = run(capsys, "fit", "--k", str(k), "--algorithm", algorithm,
                       "--format", "json", path)
    assert code == 0
    fitted = json.loads(out)
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps(fitted["tree"]))
    code, out, _ = run(capsys, "score", str(tree), path, "--format", "json")
    assert code == 0
    got, want = json.loads(out), fitted["score"]
    bound = 1e-12 * want["i_total"]
    for key in ("weight", "kl", "i_total"):
        assert abs(got[key] - want[key]) <= bound
    for part in ("clusters", "separators"):
        assert [{**row, "i": 0} for row in got[part]] == [{**row, "i": 0} for row in want[part]]
        for a, b in zip(got[part], want[part]):
            assert abs(a["i"] - b["i"]) <= bound


def test_score_invalid_tree_is_a_structure_failure(tmp_path, capsys):
    doc = {
        "k": 2,
        "clusters": [[1, 2], [3, 4]],
        "separators": [{"set": [2], "attach_to": 0}],
        "parent": [1, 2],
    }
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "score", str(path), "lizards.csv")
    assert code == 1
    assert "junction tree" in err


def test_tree_that_leaves_variables_uncovered_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(tree_to_json(add_hypercherry(new_parent(2, (1, 2)), 3, (2,))))
    assert run(capsys, "check", str(path))[0] == 0
    code, out, err = run(capsys, "score", str(path), "lizards.csv")
    assert (code, out) == (2, "")
    assert "leaves variables [4, 5] of the table (d=5) uncovered" in err


def test_check_keeps_its_report_when_the_recovery_sweep_raises(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(tree_to_json(add_hypercherry(new_parent(2, (1, 2)), 3, (2,))))
    message = "tree leaves variables [4, 5] of the table (d=5) uncovered"
    _, alone, _ = run(capsys, "check", str(path))
    code, out, err = run(capsys, "check", str(path), "lizards.csv")
    assert (code, err) == (2, f"error: {message}\n")
    # The structural lines of the data-free report, then the sweep's error;
    # the result still reflects structural health only.
    *structure, result = alone.splitlines()
    assert result == "result: ok"
    assert out.splitlines() == [*structure, f"recovery conditions: unavailable ({message})",
                                result]
    _, alone, _ = run(capsys, "check", "--format", "json", str(path))
    code, out, err = run(capsys, "check", "--format", "json", str(path), "lizards.csv")
    assert (code, err) == (2, f"error: {message}\n")
    assert json.loads(out) == {**json.loads(alone), "recovery": {"error": message}}
    # A data file that fails to load still leaves stdout empty.
    code, out, err = run(capsys, "check", str(path), str(tmp_path / "missing.csv"))
    assert (code, out) == (2, "") and err.startswith("error: ")



def _invalid_tree(tmp_path):
    # A cluster of the wrong size: structurally reported, never a t-cherry tree.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"k": 3, "clusters": [[1, 2, 3], [2, 3, 4, 5]],
                                "separators": [{"set": [2, 3], "attach_to": 0}],
                                "parent": [1, 2, 3]}))
    return str(path)


def test_check_loads_its_data_even_for_an_invalid_tree(tmp_path, capsys):
    tree = _invalid_tree(tmp_path)
    missing = str(tmp_path / "missing.csv")
    code, out, err = run(capsys, "check", tree, missing)
    assert (code, out) == (2, "") and missing in err
    broken = tmp_path / "broken.csv"
    broken.write_text("x1,x2\n1,oops\n")
    code, out, err = run(capsys, "check", "--format", "json", tree, str(broken))
    assert (code, out) == (2, "") and f"{broken}:2:" in err


def test_check_says_why_an_invalid_tree_gets_no_recovery_sweep(tmp_path, capsys):
    tree = _invalid_tree(tmp_path)
    message = "tree is not a t-cherry tree"
    _, alone, _ = run(capsys, "check", tree)
    code, out, err = run(capsys, "check", tree, "lizards.csv")
    assert (code, err) == (1, "")
    *structure, result = alone.splitlines()
    assert result == "result: FAIL"
    assert out.splitlines() == [*structure, f"recovery conditions: unavailable ({message})",
                                result]
    _, alone, _ = run(capsys, "check", "--format", "json", tree)
    code, out, _ = run(capsys, "check", "--format", "json", tree, "lizards.csv")
    assert code == 1
    assert json.loads(out) == {**json.loads(alone), "recovery": {"error": message}}

# -- synth ------------------------------------------------------------------


def test_synth_writes_deterministic_bundle(tmp_path, capsys):
    args = ["synth", "--d", "6", "--k", "3", "--seed", "4", "--strength", "2.0"]
    code, out, _ = run(capsys, *args, "--out", str(tmp_path / "a"))
    assert code == 0
    assert (tmp_path / "a.csv").is_file()
    assert (tmp_path / "a.scheme.json").is_file()
    assert (tmp_path / "a.tree.json").is_file()
    run(capsys, *args, "--out", str(tmp_path / "b"))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.tree.json").read_bytes() == (tmp_path / "b.tree.json").read_bytes()


def test_synth_truth_tree_scores_to_zero(tmp_path, capsys):
    run(capsys, "synth", "--d", "5", "--k", "3", "--seed", "8",
        "--out", str(tmp_path / "g"))
    code, out, _ = run(capsys, "score", str(tmp_path / "g.tree.json"),
                       str(tmp_path / "g.csv"), "--format", "json")
    assert code == 0
    assert abs(json.loads(out)["kl"]) < 1e-9


def test_synth_scaled_counts_round_trip(tmp_path, capsys):
    code, _, _ = run(capsys, "synth", "--d", "4", "--k", "2", "--seed", "2",
                     "--n", "1000", "--out", str(tmp_path / "n"))
    assert code == 0
    header, first = (tmp_path / "n.csv").read_text().splitlines()[:2]
    assert header == "x1,x2,x3,x4,count"
    code, out, _ = run(capsys, "fit", "--k", "2", str(tmp_path / "n.csv"))
    assert code == 0


@pytest.mark.parametrize("n", ["inf", "nan", "1e309", "0", "-1"])
def test_synth_n_must_be_finite(tmp_path, capsys, monkeypatch, n):
    def refuse(*args, **kwargs):
        raise AssertionError("table generated before --n was checked")

    # --n is checked before the table is generated.
    monkeypatch.setattr(tcherry.cli, "generate_tcherry_distribution", refuse)
    code, out, err = run(capsys, "synth", "--d", "4", "--k", "2", "--n", n,
                         "--out", str(tmp_path / "s"))
    assert (code, out) == (2, "")
    assert err.startswith("error: --n must be positive and finite")
    assert list(tmp_path.iterdir()) == []


def test_synth_largest_finite_n_reads_back(tmp_path, capsys):
    code, _, _ = run(capsys, "synth", "--d", "4", "--k", "2", "--seed", "2",
                     "--n", "1e308", "--out", str(tmp_path / "s"))
    assert code == 0
    table, _ = generate_tcherry_distribution(2, 4, 2, 2, 2.0)
    back = load_table(tmp_path / "s.csv")
    np.testing.assert_allclose(back.probs, table.probs, rtol=1e-12, atol=0)
    code, out, _ = run(capsys, "check", str(tmp_path / "s.tree.json"), str(tmp_path / "s.csv"))
    assert code == 0 and out.endswith("result: ok\n")


def test_synth_n_that_makes_a_count_subnormal_is_refused(tmp_path, capsys):
    # At N = 1e-320 the cell of probability 3.75e-4 would be written as 5e-324.
    code, out, err = run(capsys, "synth", "--d", "4", "--k", "2", "--seed", "1",
                         "--n", "1e-320", "--out", str(tmp_path / "s"))
    assert (code, out) == (2, "")
    assert err == ("error: --n 1e-320 makes the smallest nonzero count 5e-324, below the "
                   "smallest normal double 2.2250738585072014e-308\n")
    assert list(tmp_path.iterdir()) == []
    # The smallest N that keeps every count normal is taken, and reads back.
    table, _ = generate_tcherry_distribution(1, 4, 2, 2, 2.0)
    least = float(table.probs[table.probs > 0].min())
    n = sys.float_info.min / least
    while least * n < sys.float_info.min:
        n = float(np.nextafter(n, math.inf))
    while least * float(np.nextafter(n, 0)) >= sys.float_info.min:
        n = float(np.nextafter(n, 0))
    for scale, expected in ((float(np.nextafter(n, 0)), 2), (n, 0)):
        code, _, _ = run(capsys, "synth", "--d", "4", "--k", "2", "--seed", "1",
                         "--n", repr(scale), "--out", str(tmp_path / "s"))
        assert code == expected
    np.testing.assert_allclose(load_table(tmp_path / "s.csv").probs, table.probs,
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("strength", ["inf", "nan", "2,-inf"])
def test_synth_strength_must_be_finite(tmp_path, capsys, monkeypatch, strength):
    def refuse(*args, **kwargs):
        raise AssertionError("table generated before --strength was checked")

    monkeypatch.setattr(tcherry.cli, "generate_tcherry_distribution", refuse)
    code, out, err = run(capsys, "synth", "--d", "3", "--k", "2", "--strength", strength,
                         "--out", str(tmp_path / "s"))
    assert (code, out) == (2, "")
    assert err == f"error: --strength must be finite, got {strength!r}\n"
    assert list(tmp_path.iterdir()) == []


def test_synth_strength_that_overflows_the_logits_is_refused(tmp_path, capsys):
    # Seed 3 draws a z whose 1e308·z overflows.
    code, out, err = run(capsys, "synth", "--d", "4", "--k", "2", "--seed", "3",
                         "--strength", "1e308", "--out", str(tmp_path / "s"))
    assert (code, out) == (2, "")
    assert err == "error: strength 1e+308 makes the factor logits non-finite\n"
    assert list(tmp_path.iterdir()) == []


def test_synth_strength_whose_shifted_logits_overflow_runs(tmp_path, capsys):
    # Seed 1's logits are finite but their spread is not: the shifted
    # logit overflows to -inf, and its probability is 0.
    code, _, err = run(capsys, "synth", "--d", "4", "--k", "2", "--seed", "1",
                       "--strength", "1e308", "--out", str(tmp_path / "s"))
    assert (code, err) == (0, "")
    table = load_table(tmp_path / "s.csv")
    assert table.probs.max() == 1.0 and np.count_nonzero(table.probs) == 1


def test_synth_strength_schedule_validation(tmp_path, capsys):
    code, _, err = run(capsys, "synth", "--d", "5", "--k", "3", "--strength",
                       "1,2", "--out", str(tmp_path / "x"))
    assert code == 2
    assert "strength" in err


# -- process-level entry ----------------------------------------------------


def run_child(*argv):
    """Run ``python -m tcherry`` in a fresh interpreter outside the repository."""
    # The child runs elsewhere, so a relative src entry would not resolve.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "tcherry", *argv],
        capture_output=True, text=True, cwd="/tmp", env={**os.environ, "PYTHONPATH": path},
    )


def test_module_entry_point_runs():
    proc = run_child("fit", "--k", "4", "lizards.csv")
    assert proc.returncode == 0
    assert proc.stdout == SK4_FIT_TEXT


def test_fit_on_samples_leaves_stderr_empty(tmp_path):
    # 65,536 rows fill the reader's first chunk; the trailing blank line is a
    # chunk of its own, on which numpy's parser would warn.
    rows = np.random.default_rng(5).integers(1, 3, size=(65_536, 3))
    path = tmp_path / "samples.csv"
    path.write_text("x1,x2,x3\n" + "\n".join(",".join(map(str, r)) for r in rows) + "\n\n")
    proc = run_child("fit", "--k", "2", str(path))
    assert proc.returncode == 0
    assert proc.stderr == ""


# The entry point freezes the import graph before main. These pin that a
# child process still flushes every byte and passes on main's exit code.


@pytest.mark.parametrize("code, argv", [
    (0, ["fit", "--k", "4", "--format", "json", "lizards.csv"]),
    (1, ["check", "NON_RIP"]),
    (2, ["fit", "--k", "3", "MISSING"]),
    (3, ["fit", "--k", "3", "--cap", "10", "lizards.csv"]),
])
def test_child_prints_and_exits_as_main_does(tmp_path, capsys, code, argv):
    paths = {"NON_RIP": _non_rip_tree(tmp_path), "MISSING": str(tmp_path / "missing.csv")}
    argv = [paths.get(a, a) for a in argv]
    expected = run(capsys, *argv)
    assert expected[0] == code
    proc = run_child(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == expected


def test_child_synth_writes_the_files_main_writes(tmp_path, capsys):
    args = ["synth", "--d", "12", "--k", "3", "--seed", "4", "--n", "1e5", "--out"]
    code, out, err = run(capsys, *args, str(tmp_path / "main"))
    proc = run_child(*args, str(tmp_path / "child"))
    out = out.replace(str(tmp_path / "main"), str(tmp_path / "child"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    for suffix in (".csv", ".scheme.json", ".tree.json"):
        assert (tmp_path / f"child{suffix}").read_bytes() == \
            (tmp_path / f"main{suffix}").read_bytes()


def test_child_json_of_a_megabyte_reaches_the_parent_whole(tmp_path, capsys):
    prefix = str(tmp_path / "s15")
    run(capsys, "synth", "--d", "15", "--k", "4", "--seed", "2", "--n", "1e5", "--out", prefix)
    argv = ["fit", "--k", "4", "--format", "json", prefix + ".csv"]
    code, out, err = run(capsys, *argv)
    assert code == 0 and len(out) >= 1 << 20
    proc = run_child(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def test_no_file_or_thread_outlives_main(tmp_path, capsys):
    # Under the entry point's freeze nothing alive is ever finalized, so a
    # file left for its finalizer to close would lose its buffered bytes.
    prefix = str(tmp_path / "s14")
    samples = tmp_path / "samples.csv"
    samples.write_text("x1,x2,x3\n" + "1,2,1\n2,2,1\n" * 50)
    commands = [
        ["synth", "--d", "14", "--k", "3", "--seed", "1", "--n", "1e5", "--out", prefix],
        ["fit", "--k", "3", "--format", "json", prefix + ".csv"],
        ["fit", "--k", "2", str(samples)],
        ["report", "--k", "3", prefix + ".csv"],
        ["check", prefix + ".tree.json", prefix + ".csv"],
        ["score", prefix + ".tree.json", prefix + ".csv"],
        ["check", _non_rip_tree(tmp_path)],
        ["fit", "--k", "3", str(tmp_path / "missing.csv")],
    ]
    threads = threading.active_count()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        codes = [main(argv) for argv in commands]
        gc.collect()
    capsys.readouterr()
    assert codes == [0, 0, 0, 0, 0, 0, 1, 2]
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []
    assert threading.active_count() == threads


def test_bundled_fallback_matches_real_path(capsys):
    from tcherry import lizards_path

    _, via_name, _ = run(capsys, "report", "--k", "4", "lizards.csv")
    _, via_path, _ = run(capsys, "report", "--k", "4", str(lizards_path()))
    assert via_name == via_path
