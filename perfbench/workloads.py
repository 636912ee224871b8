"""The benchmark's workloads: inputs, CLI command sequences and gates.

A workload writes its inputs into a work directory with ``prepare``,
names the ``tcherry`` commands of one operation in ``commands`` and
judges one operation's outputs with ``gate``, which returns the list of
problems found (empty when the outputs are correct). References are
built in ``prepare``, outside any timed region. The gates import
``tcherry`` for the paper's divergence routes and the recovery sweep;
the inputs never depend on it.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from inputs import draw_samples, samples_csv, sha256, tcherry_table
from oracle import SampleEntropies, greedy_sk, score, separator_multiplicities

#: Agreement demanded of weights and divergences carried with full digits.
TOL = 1e-9


def _fmt(vertices) -> str:
    return " ".join(str(v) for v in vertices)


def _build_tree(k, clusters, separators):
    from tcherry.junction_tree import add_hypercherry, new_parent

    tree = new_parent(k, clusters[0])
    for cluster, sep in zip(clusters[1:], separators):
        tree = add_hypercherry(tree, (set(cluster) - set(sep)).pop(), sep)
    return tree


def _binary_table(probs):
    from tcherry.distribution import JointTable, make_scheme

    return JointTable(make_scheme([2] * probs.ndim), probs)


class FitWorkload:
    """``tcherry fit --k K`` on a samples CSV drawn from a random order-K t-cherry table."""

    def __init__(self, name: str, d: int, k: int, rows: int, fmt: str):
        self.name, self.d, self.k, self.rows, self.fmt = name, d, k, rows, fmt
        self.rows_loaded = rows

    def prepare(self, seed: int, work: Path) -> dict:
        probs, _, _ = tcherry_table(seed, self.d, self.k)
        codes = draw_samples(probs, self.rows, seed)
        data = samples_csv(codes)
        (work / "samples.csv").write_bytes(data)
        ent = SampleEntropies(codes)
        self.clusters, self.links = greedy_sk(ent, self.k)
        self.score = score(ent, self.clusters, self.links)
        self.routes = self._kl_routes(codes)
        return {"samples.csv": sha256(data)}

    def written(self, work: Path) -> dict:
        return {}

    def commands(self) -> list[list[str]]:
        cmd = ["fit", "--k", str(self.k)]
        if self.fmt == "json":
            cmd += ["--format", "json"]
        return [cmd + ["samples.csv"]]

    def gate(self, outputs: list[bytes], work: Path) -> list[str]:
        text = outputs[0].decode()
        if self.fmt == "json":
            problems, reported_kl = self._gate_json(text)
        else:
            problems, reported_kl = self._gate_text(text)
        if problems:
            return problems
        routes = self.routes
        if max(routes.values()) - min(routes.values()) > TOL:
            problems.append(f"KL routes disagree: {routes}")
        if reported_kl is not None and abs(reported_kl - routes["tree_weight"]) > TOL:
            problems.append(f"reported KL {reported_kl!r} != tree_weight route {routes}")
        return problems

    def _kl_routes(self, codes) -> dict:
        """KL of the reference tree along the paper's three routes, via tcherry."""
        from tcherry.scoring import kl_entropy_form, kl_exact, tree_weight

        weights = 1 << np.arange(self.d - 1, -1, -1, dtype=np.int64)
        counts = np.bincount(codes.astype(np.int64) @ weights, minlength=1 << self.d)
        p = _binary_table(counts.reshape((2,) * self.d) / self.rows)
        tree = _build_tree(self.k, self.clusters, [s for s, _ in self.links])
        return {
            "tree_weight": tree_weight(p, tree).kl,
            "kl_entropy_form": kl_entropy_form(p, tree),
            "kl_exact": kl_exact(p, tree),
        }

    def _gate_json(self, text):
        try:
            doc = json.loads(text)
            tree, sc = doc["tree"], doc["score"]
            clusters = [tuple(c) for c in tree["clusters"]]
            links = [(tuple(s["set"]), s["attach_to"]) for s in tree["separators"]]
            values = {key: float(sc[key]) for key in ("weight", "kl", "i_total")}
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable fit JSON: {exc!r}"], None
        problems = []
        if clusters != self.clusters:
            problems.append(f"clusters {clusters} != reference {self.clusters}")
        if links != self.links:
            problems.append(f"separators {links} != reference {self.links}")
        for key, value in values.items():
            if abs(value - self.score[key]) > TOL:
                problems.append(f"{key} {value!r} != reference {self.score[key]!r}")
        return problems, values["kl"]

    def _gate_text(self, text):
        fields = dict(line.split(": ", 1) for line in text.splitlines()
                      if ": " in line and not line.startswith(" "))
        expected = {
            "clusters": " | ".join(_fmt(c) for c in self.clusters),
            "separators": " | ".join(f"{_fmt(s)} (nu={n})" for s, n in
                                     separator_multiplicities(self.links).items()),
        }
        problems = [f"{key}: {fields.get(key)!r} != reference {value!r}"
                    for key, value in expected.items() if fields.get(key) != value]
        # Text carries 6 decimals (weight, I(X)) and 6 significant digits (KL).
        for key, ref, slack in (("weight", self.score["weight"], 5e-7),
                                ("I(X)", self.score["i_total"], 5e-7),
                                ("KL", self.score["kl"], 5e-6 * abs(self.score["kl"]))):
            try:
                value = float(fields[key])
            except (KeyError, ValueError):
                problems.append(f"missing or unreadable {key!r} line")
                continue
            if abs(value - ref) > slack + TOL:
                problems.append(f"{key} {value!r} != reference {ref!r}")
        return problems, None


class SynthCheckWorkload:
    """``tcherry synth --n N`` then ``tcherry check`` on the files it wrote."""

    def __init__(self, name: str, d: int, k: int, n: int):
        self.name, self.d, self.k, self.n = name, d, k, n
        self.rows_loaded = 2 ** d

    def prepare(self, seed: int, work: Path) -> dict:
        from tcherry.junction_tree import puzzle_numbering
        from tcherry.scoring import check_recovery_conditions

        self.seed = seed
        probs, self.clusters, self.separators = tcherry_table(seed, self.d, self.k)
        self.counts = probs * float(self.n)
        tree = _build_tree(self.k, self.clusters, self.separators)
        report = check_recovery_conditions(_binary_table(probs), tree,
                                           puzzle_numbering(tree, tree.parent))
        self.recovery = {"holds": report.holds, "violations": len(report.violations),
                         "ties": len(report.ties), "checked": report.checked}
        return {"reference table": sha256(probs.tobytes())}

    def commands(self) -> list[list[str]]:
        return [
            ["synth", "--d", str(self.d), "--k", str(self.k), "--seed", str(self.seed),
             "--n", str(self.n), "--out", "synth"],
            ["check", "--format", "json", "synth.tree.json", "synth.csv"],
        ]

    def written(self, work: Path) -> dict:
        return {name: sha256((work / name).read_bytes())
                for name in ("synth.csv", "synth.scheme.json", "synth.tree.json")}

    def gate(self, outputs: list[bytes], work: Path) -> list[str]:
        problems = []
        try:
            tree = json.loads((work / "synth.tree.json").read_text())
            if [tuple(c) for c in tree["clusters"]] != self.clusters or \
                    [tuple(s["set"]) for s in tree["separators"]] != self.separators:
                problems.append("synth.tree.json differs from the reference tree")
            scheme = json.loads((work / "synth.scheme.json").read_text())
            if [v["cardinality"] for v in scheme["variables"]] != [2] * self.d:
                problems.append(f"synth.scheme.json does not declare {self.d} binary variables")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable synth output: {exc!r}")
        problems += self._gate_csv(work / "synth.csv")
        try:
            doc = json.loads(outputs[1])
            verdict = {key: doc[key] for key in
                       ("k", "clusters", "rip_violation", "acyclic", "valid_construction", "ok")}
            recovery = doc["recovery"]
        except (ValueError, KeyError, TypeError) as exc:
            return problems + [f"unreadable check JSON: {exc!r}"]
        want = {"k": self.k, "clusters": len(self.clusters), "rip_violation": None,
                "acyclic": True, "valid_construction": True, "ok": True}
        if verdict != want:
            problems.append(f"check verdict {verdict} != {want}")
        if recovery != self.recovery:
            problems.append(f"recovery {recovery} != in-process reference {self.recovery}")
        return problems

    def _gate_csv(self, path: Path) -> list[str]:
        """The counts CSV must hold every cell of the reference table within TOL."""
        try:
            data = path.read_bytes()
        except OSError as exc:
            return [f"synth.csv unreadable: {exc!r}"]
        header = ",".join(f"x{i + 1}" for i in range(self.d)) + ",count"
        if not data.startswith(header.encode() + b"\n"):
            return ["synth.csv header differs"]
        try:
            rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except ValueError as exc:
            return [f"synth.csv unparseable: {exc}"]
        if rows.shape[1] != self.d + 1:
            return [f"synth.csv has {rows.shape[1]} columns"]
        states = rows[:, :self.d]
        if not np.all((states == 1) | (states == 2)):
            return ["synth.csv has states outside 1..2"]
        cells = np.ravel_multi_index(tuple(states.astype(np.int64).T - 1), self.counts.shape)
        read = np.zeros(self.counts.size)
        np.add.at(read, cells, rows[:, self.d])
        seen = np.bincount(cells, minlength=self.counts.size)
        expected = self.counts.reshape(-1)
        if np.any(seen > 1) or np.any(seen[expected > 0.0] != 1):
            return ["synth.csv does not list every nonzero cell exactly once"]
        worst = float(np.max(np.abs(read - expected)))
        if not worst <= TOL:
            return [f"synth.csv count off by {worst!r} in some cell"]
        return []


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# fit-d18-k4: marginalization of a 2^18-cell joint dominates; ingest is small.
# ingest-d14-k3: CSV parsing dominates; marginals are few and small.
# synth-check-d18-k3: counts written and read back, plus tree validation.
WORKLOADS = {
    w.name: w for w in (
        FitWorkload("fit-d18-k4", 18, 4, 20_000, "json"),
        FitWorkload("ingest-d14-k3", 14, 3, 600_000, "text"),
        SynthCheckWorkload("synth-check-d18-k3", 18, 3, 1_000_000),
    )
}
