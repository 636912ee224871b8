"""Command-line behavior: golden outputs, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tcherry.cli
from conftest import candidate_dicts
from tcherry import (ConsistencyError, add_hypercherry, fit_chow_liu, fit_exhaustive,
                     fit_malvestuto, fit_sk, generate_tcherry_distribution, new_parent,
                     tree_to_json)
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
    # Every fit scores from the marginals its candidate table prefetched,
    # so exhaustive gives the same bytes alone as after the greedy fits.
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


@pytest.fixture(scope="module")
def synth10(tmp_path_factory):
    """Counts file of 5,000 samples over 10 variables, with its tree."""
    prefix = tmp_path_factory.mktemp("synth") / "s10"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--d", "10", "--k", "3", "--n", "5000", "--seed", "3",
                     "--out", str(prefix)]) == 0
    return prefix


def emitted(capsys, monkeypatch, argv):
    """Exit code, stdout and every document the command passed to ``_emit_json``."""
    docs, emit = [], tcherry.cli._emit_json
    monkeypatch.setattr(tcherry.cli, "_emit_json", lambda doc: docs.append(doc) or emit(doc))
    code, out, _ = run(capsys, *argv)
    return code, out, docs


@pytest.mark.parametrize("algorithm", ["sk", "malvestuto", "chow_liu", "exhaustive", "all"])
@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("data", ["lizards", "synth10"])
def test_fit_json_equals_dumps_of_its_document(capsys, monkeypatch, synth10, data, k,
                                               algorithm):
    path = "lizards.csv" if data == "lizards" else f"{synth10}.csv"
    code, out, docs = emitted(capsys, monkeypatch, [
        "fit", "--k", str(k), "--algorithm", algorithm, "--format", "json", path])
    d = 5 if data == "lizards" else 10
    if algorithm == "chow_liu" and k > 2 or algorithm == "exhaustive" and d > 7:
        assert (code, out, docs) == ((2 if algorithm == "chow_liu" else 3), "", [])
        return
    assert code == 0 and len(docs) == 1
    assert out == json.dumps(docs[0], indent=2, default=candidate_dicts) + "\n"
    for result in docs[0].get("results", docs):
        assert len(result["candidates"]) == math.comb(d, result["k"]) * result["k"]


@pytest.mark.parametrize("argv", [
    ["report", "--k", "3", "{data}"],
    ["report", "--k", "4", "--algorithm", "malvestuto", "{data}"],
    ["report", "--k", "3", "--algorithm", "malvestuto", "lizards.csv"],
    ["check", "{tree}", "{data}"],
    ["check", "{tree}"],
    ["score", "{tree}", "{data}"],
    ["synth", "--d", "6", "--k", "3", "--n", "100", "--out", "{out}"],
])
def test_command_json_equals_dumps_of_its_document(capsys, monkeypatch, synth10, tmp_path,
                                                   argv):
    fields = {"data": f"{synth10}.csv", "tree": f"{synth10}.tree.json",
              "out": str(tmp_path / "s")}
    code, out, docs = emitted(capsys, monkeypatch,
                              [a.format(**fields) for a in argv] + ["--format", "json"])
    assert code == 0 and len(docs) == 1
    assert out == json.dumps(docs[0], indent=2) + "\n"


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


def test_check_non_rip_cluster_list(tmp_path, capsys):
    doc = {
        "k": 2,
        "clusters": [[1, 2], [3, 4], [2, 3]],
        "separators": [{"set": [2], "attach_to": 0}, {"set": [3], "attach_to": 1}],
        "parent": [1, 2],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "check", str(path))
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


def test_bundled_fallback_matches_real_path(capsys):
    from tcherry import lizards_path

    _, via_name, _ = run(capsys, "report", "--k", "4", "lizards.csv")
    _, via_path, _ = run(capsys, "report", "--k", "4", str(lizards_path()))
    assert via_name == via_path
