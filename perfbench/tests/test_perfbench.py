"""Tests of the benchmark itself: tracing arithmetic, names, gates, smoke runs.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import re
import sys
import time

import numpy as np
import pytest

import run
import tracer
from inputs import tcherry_table
from tracer import Span, Tracer, covered, self_times
from workloads import WORKLOADS, FitWorkload, SynthCheckWorkload

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_covered_merges_overlaps_and_gaps():
    assert covered([]) == 0.0
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (5.5, 5.75)]) == pytest.approx(4.0)


def test_self_times_of_a_hand_built_nest():
    spans = [
        Span("a", 0.0, 10.0, None, 1),
        Span("b", 1.0, 4.0, 0, 1),
        Span("c", 2.0, 3.0, 1, 1),   # grandchild: counts against b, not a
        Span("d", 5.0, 6.5, 0, 1),
        Span("e", 20.0, 21.0, None, 2),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 1.5, 3.0 - 1.0, 1.0, 1.5, 1.0])


def test_benchmark_json_names_match_the_code():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = ([w["name"] for w in doc["workloads"]] + [m["name"] for m in doc["end_to_end"]]
             + [m["name"] for m in doc["per_layer"]])
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == tracer.UNITS


def test_input_generator_matches_synth():
    from tcherry.learner import generate_tcherry_distribution

    for seed, d, k in [(0, 6, 2), (3, 9, 3), (11, 12, 4), (2**40, 10, 3)]:
        probs, clusters, separators = tcherry_table(seed, d, k)
        table, tree = generate_tcherry_distribution(seed, d, k, 2, 2.0)
        assert np.array_equal(probs, table.probs)
        assert clusters == list(tree.clusters)
        assert separators == list(tree.separators)


def test_tracer_restores_every_namespace():
    import tcherry.cli

    modules = {n: m for n, m in sys.modules.items() if n.startswith("tcherry")}
    before = {n: dict(vars(m)) for n, m in modules.items()}
    cache_before = dict(vars(sys.modules["tcherry.distribution"].MarginalCache))
    with Tracer() as t:
        assert tcherry.cli.main is not before["tcherry.cli"]["main"]
        assert tcherry.cli.main(["fit", "--k", "3", "lizards.csv"]) == 0
    assert {n: dict(vars(m)) for n, m in modules.items()} == before
    assert dict(vars(sys.modules["tcherry.distribution"].MarginalCache)) == cache_before
    assert t.calls["cli.main"] == 1
    assert t.spans[0].name == "cli.main" and t.spans[0].parent is None
    assert all(s.parent is not None for s in t.spans[1:])


TINY = [
    FitWorkload("fit-d8-k3", 8, 3, 2_000, "json"),
    FitWorkload("ingest-d8-k3", 8, 3, 5_000, "text"),
    SynthCheckWorkload("synth-check-d8-k3", 8, 3, 1_000),
]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_smoke_run(workload, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RUNS", tmp_path)
    lines = []
    correct, attempted, failed, metrics = run.run_workload(workload, 7, 0.01, trace, lines.append)
    assert (correct, failed) == (True, 0), lines
    assert attempted >= 1
    want = tracer.UNITS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in metrics.items()} == want
    assert all(v["value"] > 0 for k, v in metrics.items() if k in run.END_TO_END_UNITS)
    assert any(line.startswith("input ") for line in lines)
    assert not list(tmp_path.glob("*-s7-*")), "work directory left behind"
    if trace:
        assert list(tmp_path.glob("trace-*.json"))
        assert metrics["distribution.marginalize.calls"]["value"] > 0
        assert metrics["distribution.table_mib"]["value"] == 2**8 * 8 / 2**20


def _operate(workload, tmp_path):
    workload.prepare(5, tmp_path)
    _, outputs, _, problems = run.cli_operation(workload, tmp_path, time.monotonic() + 120)
    assert problems == []
    assert workload.gate(outputs, tmp_path) == []
    return outputs


def test_gate_rejects_corrupted_counts_csv(tmp_path):
    w = SynthCheckWorkload("synth-check-d8-k3", 8, 3, 1_000)
    outputs = _operate(w, tmp_path)
    path = tmp_path / "synth.csv"
    lines = path.read_text().splitlines()
    fields = lines[7].split(",")
    fields[-1] = repr(float(fields[-1]) + 1e-6)
    lines[7] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    assert any("count off" in p for p in w.gate(outputs, tmp_path))
    del lines[7]
    path.write_text("\n".join(lines) + "\n")
    assert any("every nonzero cell" in p for p in w.gate(outputs, tmp_path))


def test_gate_rejects_corrupted_check_and_tree(tmp_path):
    w = SynthCheckWorkload("synth-check-d8-k3", 8, 3, 1_000)
    outputs = _operate(w, tmp_path)
    doc = json.loads(outputs[1])
    doc["recovery"]["checked"] += 1
    assert any("recovery" in p for p in w.gate([outputs[0], json.dumps(doc).encode()], tmp_path))
    tree = json.loads((tmp_path / "synth.tree.json").read_text())
    tree["clusters"][1], tree["clusters"][2] = tree["clusters"][2], tree["clusters"][1]
    (tmp_path / "synth.tree.json").write_text(json.dumps(tree))
    assert any("reference tree" in p for p in w.gate(outputs, tmp_path))


def test_gate_rejects_corrupted_fit_outputs(tmp_path):
    w = FitWorkload("fit-d8-k3", 8, 3, 2_000, "json")
    outputs = _operate(w, tmp_path)
    doc = json.loads(outputs[0])
    doc["score"]["kl"] += 1e-7
    assert any(p.startswith("kl ") for p in w.gate([json.dumps(doc).encode()], tmp_path))
    doc = json.loads(outputs[0])
    doc["tree"]["separators"][0]["attach_to"] += 1
    assert any("separators" in p for p in w.gate([json.dumps(doc).encode()], tmp_path))

    w = FitWorkload("ingest-d8-k3", 8, 3, 5_000, "text")
    work = tmp_path / "text"
    work.mkdir()
    text = _operate(w, work)[0]
    bad = re.sub(rb"weight: (\d+\.\d+)", lambda m: b"weight: %.6f" % (float(m[1]) + 1e-5), text)
    assert any(p.startswith("weight ") for p in w.gate([bad], work))
    assert w.gate([text.replace(b"clusters: ", b"clusters: 9 ")], work)
