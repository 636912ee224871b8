"""Command-line front end: fit, report, check, synth, score.

Output is deterministic: the same input and flags produce byte-identical
text. Information quantities print with 6 fixed decimals, divergences
with 6 significant digits, both in bits (``--nats`` rescales the text
output of fit/score).

Exit codes: 0 success, 1 structural check failure, 2 input error,
3 resource guard, 4 internal consistency failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from importlib.resources import as_file
from itertools import islice
from pathlib import Path

from .datasets import lizards_path, load_lizards
from .distribution import (
    DEFAULT_CELL_CAP,
    JointTable,
    MarginalCache,
    with_additive_smoothing,
)
from .errors import (CapacityError, ConsistencyError, DataFormatError, DomainError,
                     StructureError)
from .io import load_table, write_counts_csv
from .junction_tree import (
    Hypergraph,
    add_hypercherry,
    first_rip_violation,
    graham_reduce,
    new_parent,
    parse_tree_document,
    puzzle_numbering,
    tree_from_dict,
    tree_to_dict,
    tree_to_json,
)
from .learner import (
    CandidateTable,
    FitResult,
    fit_chow_liu,
    fit_exhaustive,
    fit_malvestuto,
    fit_sk,
    generate_tcherry_distribution,
)
from .scoring import check_recovery_conditions, score_to_dict, tree_weight

_LN2 = math.log(2.0)


def _unit(x: float, nats: bool) -> float:
    """``x`` bits in the unit the text output asks for."""
    return x * _LN2 if nats else x


def _fmt_set(vertices) -> str:
    return " ".join(str(v) for v in vertices)


def _fresh_vertex(cluster, separator) -> int:
    (v,) = set(cluster) - set(separator)
    return v


def _load_input(path_str: str, scheme, smoothing: float, cap: int) -> JointTable:
    """Resolve the input path, falling back to the bundled lizard data."""
    p = Path(path_str)
    if not p.exists() and p.name in ("lizards", "lizards.csv"):
        if scheme is None:
            table = load_lizards(cap=cap)
        else:
            with as_file(lizards_path()) as real:
                table = load_table(real, scheme_path=scheme, cap=cap)
    else:
        table = load_table(p, scheme_path=scheme, cap=cap)
    return with_additive_smoothing(table, smoothing)


def _read_tree_doc(path_str: str):
    try:
        text = Path(path_str).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"{path_str}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path_str}: not UTF-8 text ({exc.reason})") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataFormatError(
            f"{path_str}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from None


def _emit(lines) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def _emit_json(obj) -> None:
    # Same bytes as json.dumps(obj, indent=2), written piece by piece so the
    # whole document never sits in memory as one string.
    for chunk in _json_chunks(obj, ""):
        sys.stdout.write(chunk)
    sys.stdout.write("\n")


def _json_chunks(obj, pad: str):
    """Pieces of json.dumps(obj, indent=2) with every line after the first
    indented by ``pad``. json with ``indent`` has no C encoder, so a list of
    same-shaped rows, or a candidate table, is formatted from one template,
    2,048 rows a piece."""
    inner = pad + "  "
    sep = ",\n" + inner
    fields = (_candidate_fields(obj) if isinstance(obj, CandidateTable)
              else _row_fields(obj) if isinstance(obj, list) and obj else None)
    template, columns = _row_template(fields, inner) if fields else (None, None)
    if template is not None:
        rows, head = zip(*columns), "[\n" + inner
        while batch := list(islice(rows, 2048)):
            yield head + sep.join(map(template.__mod__, batch))
            head = sep
        yield f"\n{pad}]"
        return
    if isinstance(obj, list) and obj:
        brackets, items = "[]", [("", item) for item in obj]
    elif type(obj) is dict and obj and all(type(key) is str for key in obj):
        brackets, items = "{}", [(json.dumps(key) + ": ", value) for key, value in obj.items()]
    else:
        # Strings are escaped, so every newline json writes is indentation.
        yield json.dumps(obj, indent=2).replace("\n", "\n" + pad)
        return
    head = brackets[0] + "\n" + inner
    for prefix, value in items:
        yield head + prefix
        yield from _json_chunks(value, inner)
        head = sep
    yield f"\n{pad}{brackets[1]}"


def _row_fields(rows):
    """``[(key, nested, columns)]`` when every row is a dict with the same
    string keys and each key holds, in every row, a scalar or, marked
    ``nested``, a list of one length whose positions are its columns.
    None otherwise."""
    keys = tuple(rows[0]) if type(rows[0]) is dict else ()
    if (not keys or set(map(type, rows)) != {dict} or set(map(tuple, rows)) != {keys}
            or not all(type(key) is str for key in keys)):
        return None
    fields = []
    for key in keys:
        column = [row[key] for row in rows]
        nested = set(map(type, column)) == {list} and len(set(map(len, column))) == 1
        fields.append((key, nested, list(zip(*column)) if nested else [column]))
    return fields


def _candidate_fields(table: CandidateTable):
    """The ``_row_fields`` of the candidate rows of the fit document, read
    from the table's columns: cluster, separator (the base), new_vertex, w
    and omega."""
    return [
        ("cluster", True, table.members[table.cluster_rank].T.tolist()),
        ("separator", True, table.bases().T.tolist()),
        ("new_vertex", False, [table.new_vertices().tolist()]),
        ("w", False, [table.w.tolist()]),
        ("omega", False, [table.omega.tolist()]),
    ]


def _row_template(fields, pad: str):
    """``(template, columns)`` when every column of ``fields`` holds ints or
    finite floats; the template formats one row written at ``pad`` from a
    tuple of the columns' values. ``(None, None)`` otherwise."""
    inner = pad + "  "
    parts, columns = [], []
    for key, nested, positions in fields:
        slots = [_slot(values) for values in positions]
        if not positions or None in slots:
            return None, None
        columns.extend(positions)
        value = f"[\n{inner}  " + f",\n{inner}  ".join(slots) + f"\n{inner}]" \
            if nested else slots[0]
        parts.append(json.dumps(key).replace("%", "%%") + ": " + value)
    return "{\n" + inner + f",\n{inner}".join(parts) + f"\n{pad}}}", columns


def _slot(values) -> str | None:
    """``%d`` when all ``values`` are ints, ``%r`` (float.__repr__, which json
    uses) when all are finite floats, None otherwise."""
    kinds = set(map(type, values))
    if kinds == {int}:
        return "%d"
    return "%r" if kinds == {float} and all(map(math.isfinite, values)) else None


# ---------------------------------------------------------------------------
# fit


#: Each ``--algorithm`` by name, in the order ``all`` runs them. The fits
#: are looked up when called, so a patched module attribute takes effect.
_FITS = {
    "sk": lambda p, k, cache: fit_sk(p, k, cache),
    "malvestuto": lambda p, k, cache: fit_malvestuto(p, k, cache),
    "chow_liu": lambda p, k, cache: fit_chow_liu(p, cache),
    "exhaustive": lambda p, k, cache: fit_exhaustive(p, k, cache=cache),
}


def _fit_doc(fr: FitResult) -> dict:
    """The JSON document of a fit: tree, score, trace and candidate table."""
    return {
        "algorithm": fr.algorithm,
        "k": fr.tree.k,
        "tree": tree_to_dict(fr.tree),
        "score": score_to_dict(fr.score),
        "trace": [
            {
                "cluster": list(s.cluster),
                "separator": None if s.separator is None else list(s.separator),
                "w": s.w,
                "omega": s.omega,
            }
            for s in fr.trace
        ],
        "candidates": fr.candidate_table,
    }


def _fit_lines(fr: FitResult, nats: bool) -> list[str]:
    entropy_style = fr.algorithm == "malvestuto"
    lines = [
        f"algorithm: {fr.algorithm}",
        f"k: {fr.tree.k}",
        "clusters: " + " | ".join(_fmt_set(c) for c in fr.tree.clusters),
    ]
    if fr.tree.nu:
        lines.append("separators: " + " | ".join(
            f"{_fmt_set(s)} (nu={n})" for s, n in fr.tree.nu.items()
        ))
    else:
        lines.append("separators: (none)")
    sc = fr.score
    lines.append(f"weight: {_unit(sc.weight, nats):.6f}")
    lines.append(f"I(X): {_unit(sc.total_information, nats):.6f}")
    lines.append(f"KL: {_unit(sc.kl, nats):.6g}")
    lines.append("trace:")
    head = fr.trace[0]
    # The head step records I(parent) in w and H(parent) in omega.
    if entropy_style:
        lines.append(f"  parent {_fmt_set(head.cluster)}  H={_unit(head.omega, nats):.6f}")
    else:
        lines.append(f"  parent {_fmt_set(head.cluster)}  I={_unit(head.w, nats):.6f}")
    for step in fr.trace[1:]:
        value = (f"omega={_unit(step.omega, nats):.6f}" if entropy_style
                 else f"w={_unit(step.w, nats):.6f}")
        lines.append(
            f"  add {_fresh_vertex(step.cluster, step.separator)}"
            f" via {_fmt_set(step.separator)}  {value}"
        )
    return lines


def cmd_fit(args) -> int:
    algo = args.algorithm
    if algo == "chow_liu":
        if args.k not in (None, 2):
            raise DomainError("chow_liu builds k=2 trees; drop --k or pass --k 2")
    elif args.k is None:
        raise DomainError(f"--k is required for algorithm {algo!r}")
    p = _load_input(args.input, args.scheme, args.smoothing, args.cap)
    cache = MarginalCache(p)
    names = [algo] if algo != "all" else [n for n in _FITS if n != "chow_liu" or args.k == 2]
    results, skipped = [], {}
    for name in names:
        try:
            results.append(_FITS[name](p, args.k, cache))
        except CapacityError as exc:
            if algo != "all":
                raise
            skipped[name] = str(exc)

    if algo != "all":
        (fr,) = results
        if args.format == "json":
            _emit_json(_fit_doc(fr))
        else:
            _emit(_fit_lines(fr, args.nats))
        return 0
    if args.format == "json":
        doc = {
            "results": [_fit_doc(fr) for fr in results],
            "comparison": {fr.algorithm: fr.score.kl for fr in results},
        }
        if skipped:
            doc["skipped"] = skipped
        _emit_json(doc)
        return 0
    lines: list[str] = []
    for fr in results:
        lines.extend(_fit_lines(fr, args.nats))
        lines.append("")
    lines.append("comparison: " + " | ".join(
        f"{fr.algorithm} KL={_unit(fr.score.kl, args.nats):.6g}" for fr in results
    ))
    for name, why in skipped.items():
        lines.append(f"{name}: skipped ({why})")
    _emit(lines)
    return 0


# ---------------------------------------------------------------------------
# report


def _accepted_summary(fr: FitResult) -> str:
    parts = [f"parent {_fmt_set(fr.trace[0].cluster)}"]
    parts.extend(
        f"add {_fresh_vertex(s.cluster, s.separator)} via {_fmt_set(s.separator)}"
        for s in fr.trace[1:]
    )
    return "accepted: " + "; ".join(parts)


def _table_rows(table: CandidateTable, weight, measure, n: int | None = None) -> list[dict]:
    """Report rows of the first ``n`` rows of ``table`` (all by default): the
    cluster and the separator, ``measure`` of each and the row's ``weight``."""
    clusters = [table.clusters[rank] for rank in table.cluster_rank[:n].tolist()]
    bases = map(tuple, table.bases()[:n].tolist())
    return [{"cluster": c, "separator": b, "values": (measure(c), measure(b), x)}
            for c, b, x in zip(clusters, bases, weight[:n].tolist())]


def _sk_rows(fr: FitResult, cache: MarginalCache) -> list[dict]:
    """Decreasing-w candidate rows, cut after the last accepted growth row."""
    table = fr.candidate_table
    last = max((table.index(s.cluster, s.separator) for s in fr.trace[1:]), default=0)
    return _table_rows(table, table.w, cache.info, last + 1)


def _malvestuto_rows(fr: FitResult, cache: MarginalCache) -> list[dict]:
    """Parent row, then each growth step's admissible block in increasing omega."""
    head = fr.trace[0].cluster
    out = [{"cluster": head, "separator": None,
            "values": (cache.h(head), None, None)}]
    tree = new_parent(fr.tree.k, head)
    for step in fr.trace[1:]:
        block = fr.candidate_table.admissible(tree)
        out.extend(_table_rows(block, block.omega, cache.h))
        tree = add_hypercherry(
            tree, _fresh_vertex(step.cluster, step.separator), step.separator
        )
    return out


def _report_lines(columns: list[str], rows: list[dict], fr: FitResult) -> list[str]:
    lines = [" | ".join(columns)]
    for row in rows:
        cells = [_fmt_set(row["cluster"]),
                 "-" if row["separator"] is None else _fmt_set(row["separator"])]
        cells.extend("-" if v is None else f"{v:.6f}" for v in row["values"])
        lines.append(" | ".join(cells))
    lines.append(_accepted_summary(fr))
    return lines


def cmd_report(args) -> int:
    p = _load_input(args.input, args.scheme, args.smoothing, args.cap)
    cache = MarginalCache(p)
    if args.algorithm == "malvestuto":
        fr = fit_malvestuto(p, args.k, cache)
        columns = ["cluster", "separator", "H(C)", "H(S)", "omega"]
        rows = _malvestuto_rows(fr, cache)
    else:
        fr = fit_sk(p, args.k, cache)
        columns = ["cluster", "separator", "I(C)", "I(S)", "w"]
        rows = _sk_rows(fr, cache)
    if args.format == "json":
        _emit_json({
            "algorithm": fr.algorithm,
            "k": fr.tree.k,
            "columns": columns,
            "rows": [
                {
                    "cluster": list(r["cluster"]),
                    "separator": None if r["separator"] is None else list(r["separator"]),
                    "values": list(r["values"]),
                }
                for r in rows
            ],
            "accepted": _accepted_summary(fr)[len("accepted: "):],
        })
    else:
        _emit(_report_lines(columns, rows, fr))
    return 0


# ---------------------------------------------------------------------------
# check


def cmd_check(args) -> int:
    doc = _read_tree_doc(args.tree)
    k, raw_clusters, _links = parse_tree_document(doc)
    canon = [tuple(sorted(set(c))) for c in raw_clusters]
    lines: list[str] = []
    ok = True

    wrong = [c for c in canon if len(c) != k]
    if wrong:
        ok = False
        lines.append(f"cluster sizes: {len(wrong)} cluster(s) are not {k}-sets")
    else:
        lines.append(f"cluster sizes: all {len(canon)} clusters are {k}-sets")

    rip_at = first_rip_violation(canon)
    if rip_at is None:
        lines.append("running intersection: holds")
    else:
        ok = False
        lines.append(f"running intersection: VIOLATED at clusters[{rip_at}]")

    acyclic = None
    try:
        vertices = sorted(set().union(*map(set, canon))) if canon else []
        reduced, acyclic, trace = graham_reduce(Hypergraph(vertices, canon))
        if acyclic:
            lines.append(f"graham reduction: acyclic ({len(trace)} removals)")
        else:
            ok = False
            lines.append(
                "graham reduction: NOT acyclic"
                f" ({len(reduced.hyperedges)} hyperedges remain)"
            )
    except (StructureError, DomainError) as exc:
        ok = False
        lines.append(f"graham reduction: unavailable ({exc})")

    tree = numbering = None
    construction_error = None
    try:
        tree = tree_from_dict(doc)
        numbering = puzzle_numbering(tree, tree.parent)
        lines.append(
            f"construction: valid order-{tree.k} t-cherry junction tree"
            f" ({len(tree.clusters)} clusters)"
        )
        lines.append("puzzle numbering: " + _fmt_set(numbering.order))
    except (StructureError, DomainError, DataFormatError) as exc:
        ok = False
        tree = numbering = None
        construction_error = str(exc)
        lines.append(f"construction: INVALID ({exc})")

    recovery = unavailable = None
    if args.data is not None and tree is not None:
        p = _load_input(args.data, args.scheme, args.smoothing, args.cap)
        try:
            report = check_recovery_conditions(p, tree, numbering)
        except DomainError as exc:
            # The structural report stands; the error still sets the exit code.
            unavailable = exc
            recovery = {"error": str(exc)}
            lines.append(f"recovery conditions: unavailable ({exc})")
        else:
            recovery = {
                "holds": report.holds,
                "violations": len(report.violations),
                "ties": len(report.ties),
                "checked": report.checked,
            }
            verdict = "hold" if report.holds else "VIOLATED"
            lines.append(
                f"recovery conditions: {verdict}"
                f" ({len(report.violations)} violations, {len(report.ties)} ties,"
                f" {report.checked} comparisons)"
            )
            for v in report.violations[:10]:
                lines.append(
                    f"  vertex {v.later} over {_fmt_set(v.separator)} gains"
                    f" {v.later_gain:.6f} > {v.earlier_gain:.6f} taken by"
                    f" vertex {v.earlier} at position {v.earlier_pos}"
                )

    lines.append("result: " + ("ok" if ok else "FAIL"))
    if args.format == "json":
        _emit_json({
            "k": k,
            "clusters": len(canon),
            "rip_violation": rip_at,
            "acyclic": acyclic,
            "valid_construction": tree is not None,
            "construction_error": construction_error,
            "puzzle_numbering": list(numbering.order) if numbering else None,
            "recovery": recovery,
            "ok": ok,
        })
    else:
        _emit(lines)
    if unavailable is not None:
        raise unavailable
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# score


def cmd_score(args) -> int:
    tree = tree_from_dict(_read_tree_doc(args.tree))
    p = _load_input(args.data, args.scheme, args.smoothing, args.cap)
    sb = tree_weight(p, tree)
    if args.format == "json":
        _emit_json(score_to_dict(sb))
        return 0

    lines = [
        f"weight: {_unit(sb.weight, args.nats):.6f}",
        f"I(X): {_unit(sb.total_information, args.nats):.6f}",
        f"KL: {_unit(sb.kl, args.nats):.6g}",
        "clusters:",
    ]
    for c, i in sb.per_cluster:
        lines.append(f"  {_fmt_set(c)}  I={_unit(i, args.nats):.6f}")
    lines.append("separators:")
    if sb.per_separator:
        for s, n, i in sb.per_separator:
            lines.append(f"  {_fmt_set(s)}  nu={n}  I={_unit(i, args.nats):.6f}")
    else:
        lines.append("  (none)")
    _emit(lines)
    return 0


# ---------------------------------------------------------------------------
# synth


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise DomainError(f"{what} must be a comma-separated list of numbers, got {text!r}") from None


def _parse_cards(text: str, d: int) -> list[int]:
    try:
        values = [int(part) for part in text.split(",")]
    except ValueError:
        raise DomainError(f"--cards must be integers, got {text!r}") from None
    if len(values) == 1:
        return values * d
    return values


def cmd_synth(args) -> int:
    strengths = _parse_floats(args.strength, "--strength")
    strength = strengths[0] if len(strengths) == 1 else strengths
    cards = _parse_cards(args.cards, args.d)
    if args.n is not None and not 0 < args.n < math.inf:
        raise DomainError(f"--n must be positive and finite, got {args.n}")
    table, tree = generate_tcherry_distribution(
        args.seed, args.d, args.k, cards, strength, cap=args.cap
    )
    if args.n is not None:
        table = JointTable(table.scheme, table.probs, total_count=args.n)

    out = Path(args.out)
    counts_path = out.with_name(out.name + ".csv")
    scheme_path = out.with_name(out.name + ".scheme.json")
    tree_path = out.with_name(out.name + ".tree.json")
    write_counts_csv(counts_path, table)
    with open(scheme_path, "w") as f:
        json.dump({"variables": [
            {"index": v.index, "name": v.name or f"x{v.index}", "cardinality": v.cardinality}
            for v in table.scheme
        ]}, f, indent=2)
        f.write("\n")
    with open(tree_path, "w") as f:
        f.write(tree_to_json(tree))

    if args.format == "json":
        _emit_json({
            "d": args.d,
            "k": args.k,
            "seed": args.seed,
            "n": args.n,
            "tree": tree_to_dict(tree),
            "files": {
                "counts": str(counts_path),
                "scheme": str(scheme_path),
                "tree": str(tree_path),
            },
        })
        return 0
    _emit([
        f"d: {args.d}",
        f"k: {args.k}",
        f"seed: {args.seed}",
        "clusters: " + " | ".join(_fmt_set(c) for c in tree.clusters),
        "separators: " + (" | ".join(
            f"{_fmt_set(s)} (nu={n})" for s, n in tree.nu.items()
        ) if tree.nu else "(none)"),
        f"wrote: {counts_path}",
        f"wrote: {scheme_path}",
        f"wrote: {tree_path}",
    ])
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tcherry",
        description="Learn, score, and check t-cherry junction tree "
                    "approximations of discrete joint distributions.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, input_help="counts or samples CSV"
               " ('lizards.csv' falls back to the bundled dataset)"):
        sp.add_argument("input", help=input_help)
        data_flags(sp)

    def data_flags(sp):
        sp.add_argument("--scheme", metavar="PATH",
                        help="scheme JSON (default: <stem>.scheme.json beside the input)")
        sp.add_argument("--smoothing", type=float, default=0.0, metavar="ALPHA",
                        help="additive smoothing pseudo-count, 0 disables (default 0)")
        sp.add_argument("--cap", type=int, default=DEFAULT_CELL_CAP, metavar="CELLS",
                        help="refuse tables with more dense cells than this")
        sp.add_argument("--format", choices=("text", "json"), default="text")

    fit = sub.add_parser("fit", help="learn a t-cherry junction tree approximation")
    common(fit)
    fit.add_argument("--k", type=int, help="cluster size; required except for chow_liu")
    fit.add_argument("--algorithm", default="sk",
                     choices=("sk", "malvestuto", "chow_liu", "exhaustive", "all"))
    fit.add_argument("--nats", action="store_true",
                     help="print information quantities in nats (text format only)")
    fit.set_defaults(func=cmd_fit)

    report = sub.add_parser("report", help="print the scored candidate table")
    common(report)
    report.add_argument("--k", type=int, required=True)
    report.add_argument("--algorithm", default="sk", choices=("sk", "malvestuto"))
    report.set_defaults(func=cmd_report)

    check = sub.add_parser("check", help="verify structural invariants of a tree JSON")
    check.add_argument("tree", help="tree JSON path")
    check.add_argument("data", nargs="?",
                       help="optional counts/samples CSV for the recovery-condition sweep")
    data_flags(check)
    check.set_defaults(func=cmd_check)

    score = sub.add_parser("score", help="score an existing tree JSON against data")
    score.add_argument("tree", help="tree JSON path")
    score.add_argument("data", help="counts or samples CSV")
    data_flags(score)
    score.add_argument("--nats", action="store_true",
                       help="print information quantities in nats (text format only)")
    score.set_defaults(func=cmd_score)

    synth = sub.add_parser(
        "synth", help="generate a distribution factorizing over a random tree"
    )
    synth.add_argument("--d", type=int, required=True, help="number of variables")
    synth.add_argument("--k", type=int, required=True, help="cluster size")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--cards", default="2",
                       help="cardinalities: one value for all, or d comma-separated")
    synth.add_argument("--strength", default="2.0",
                       help="factor sharpness: scalar, or one value per cluster")
    synth.add_argument("--n", type=float, default=None, metavar="N",
                       help="write counts scaled to N samples (default: exact probabilities)")
    synth.add_argument("--out", required=True, metavar="PREFIX",
                       help="output prefix: writes PREFIX.csv, PREFIX.scheme.json, PREFIX.tree.json")
    synth.add_argument("--cap", type=int, default=DEFAULT_CELL_CAP, metavar="CELLS")
    synth.add_argument("--format", choices=("text", "json"), default="text")
    synth.set_defaults(func=cmd_synth)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DataFormatError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except StructureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"error: internal consistency check failed: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
