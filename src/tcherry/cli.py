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
import gc
import json
import math
import sys
from itertools import combinations
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .datasets import lizards_path
from .distribution import (
    DEFAULT_CELL_CAP,
    JointTable,
    MarginalCache,
    with_additive_smoothing,
)
from .errors import (CapacityError, ConsistencyError, DataFormatError, DomainError,
                     StructureError)
from .io import (compact, float_column, int_column, lay_out, load_table, write_counts_csv,
                 write_scheme_json)
from .junction_tree import (
    Hypergraph,
    first_rip_violation,
    graham_reduce,
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
        # The bundled file, with its scheme sidecar unless --scheme is given.
        p = lizards_path()
    return with_additive_smoothing(load_table(p, scheme_path=scheme, cap=cap), smoothing)


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
    # Same bytes as json.dumps(obj, indent=2) with each declared table given
    # as its row dicts, written piece by piece so the whole document never
    # sits in memory as one string.
    for chunk in _json_chunks(obj, ""):
        sys.stdout.write(chunk)
    sys.stdout.write("\n")


class RowTable(NamedTuple):
    """JSON rows declared by columns. Each field is (key, values, rank):
    ``values`` is a numpy array of ints or finite floats, 1-D for a plain
    value and 2-D, with at least one column, for a list; row i holds
    ``values[i]``, or ``values[rank[i]]`` where a rank array is given.
    The value of each rank is spelled once for the whole table."""

    fields: list


#: Rows of a declared table written per piece.
_TABLE_ROWS = 2048


def _holds_table(obj) -> bool:
    if isinstance(obj, (dict, list)):
        return any(map(_holds_table, obj.values() if isinstance(obj, dict) else obj))
    return isinstance(obj, RowTable)


def _json_chunks(obj, pad: str):
    """Pieces of json.dumps(obj, indent=2) with every line after the first
    indented by ``pad``. A declared table stands for the list of its rows,
    and inside a list for its rows as items; its rows are laid out as
    bytes column by column (``_table_chunks``). Everything that holds no
    table is dumped whole."""
    if isinstance(obj, RowTable):
        obj = [obj]
    if not _holds_table(obj):
        # Strings are escaped, so every newline json writes is indentation.
        yield json.dumps(obj, indent=2).replace("\n", "\n" + pad)
        return
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(obj, list):
        head = "[\n" + inner
        for item in obj:
            if isinstance(item, RowTable):
                for chunk in _table_chunks(item, inner, head[0]):
                    yield chunk
                    head = sep
            else:
                yield head
                yield from _json_chunks(item, inner)
                head = sep
        yield f"\n{pad}]" if head == sep else "[]"
        return
    head = "{\n" + inner
    for key, value in obj.items():
        yield head + json.dumps(key) + ": "
        yield from _json_chunks(value, inner)
        head = sep
    yield f"\n{pad}}}"


def _value_pieces(arrays, pad: str) -> list:
    """For each of ``arrays``, the ``lay_out`` pieces of the JSON text of
    each of its values, whose lines after the first are indented by
    ``pad``: a 2-D array holds a list per row. One call spells every
    float column."""
    columns = [column for a in arrays for column in ([a] if a.ndim == 1 else a.T)]
    floats = [column for column in columns if column.dtype.kind == "f"]
    spelled = iter(())
    if floats:
        ends = np.cumsum([len(column) for column in floats])
        spelled = zip(*(np.split(part, ends) for part in float_column(np.concatenate(floats))))
    texts = iter([next(spelled) if column.dtype.kind == "f" else int_column(column)
                  for column in columns])
    item = f",\n{pad}  ".encode()
    out = []
    for a in arrays:
        pieces = [next(texts)]
        if a.ndim == 2:
            pieces = [f"[\n{pad}  ".encode(), *pieces]
            for _ in range(1, a.shape[1]):
                pieces += [item, next(texts)]
            pieces.append(f"\n{pad}]".encode())
        out.append(pieces)
    return out


def _table_chunks(table: RowTable, pad: str, opening: str):
    """The rows of ``table`` as list items at ``pad``, ``_TABLE_ROWS`` a
    piece, each row led by ',' and a line break, the first by ``opening``
    instead of ','. A row is its fields' texts laid out between constant
    bytes, and a piece of rows is compacted at once."""
    inner = pad + "  "
    ranked = iter(map(lay_out, _value_pieces(
        [values for _, values, rank in table.fields if rank is not None], inner)))
    texts = [None if rank is None else next(ranked) for _, _, rank in table.fields]
    _, values, rank = table.fields[0]
    n = len(values if rank is None else rank)
    for start in range(0, n, _TABLE_ROWS):
        rows = slice(start, start + _TABLE_ROWS)
        plain = iter(_value_pieces([values[rows] for _, values, rank in table.fields
                                    if rank is None], inner))
        lead = np.full((min(_TABLE_ROWS, n - start), 1), ord(","), dtype=np.uint8)
        lead[0] = ord(opening)
        pieces, sep = [(lead, np.ones(lead.shape, dtype=bool))], f"\n{pad}{{\n{inner}"
        for (key, values, rank), ranked_texts in zip(table.fields, texts):
            pieces.append(f"{sep}{json.dumps(key)}: ".encode())
            pieces += next(plain) if rank is None else [
                tuple(np.take(t, rank[rows], axis=0) for t in ranked_texts)]
            sep = f",\n{inner}"
        pieces.append(f"\n{pad}}}".encode())
        yield str(compact(pieces).data, "ascii")
        opening = ","


# ---------------------------------------------------------------------------
# fit


#: Each ``--algorithm`` by name, in the order ``all`` runs them. The fits
#: are looked up when called, so a patched module attribute takes effect.
_FITS = {
    "sk": lambda p, k, cache: fit_sk(p, k, cache),
    "malvestuto": lambda p, k, cache: fit_malvestuto(p, k, cache),
    "chow_liu": lambda p, k, cache: fit_chow_liu(p, cache),
    "exhaustive": lambda p, k, cache: fit_exhaustive(p, k, cache),
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
        "candidates": _candidate_rows(fr.candidate_table),
    }


def _set_fields(table: CandidateTable) -> list:
    """The ``cluster`` and ``separator`` fields of ``table``'s rows: each
    k-subset and each (k−1)-subset of 1..d, by rank."""
    bases = np.array(list(combinations(range(1, table.d + 1), table.members.shape[1] - 1)))
    return [("cluster", table.members, table.cluster_rank),
            ("separator", bases, table.base_rank)]


def _candidate_rows(table: CandidateTable) -> RowTable:
    """The candidate rows of the fit document, read from the table's columns."""
    return RowTable(_set_fields(table) + [
        ("new_vertex", np.arange(table.d + 1), table.new_vertices()),
        ("w", table.w, None),
        ("omega", table.omega, None),
    ])


def _tree_lines(tree) -> list[str]:
    """The ``clusters:`` and ``separators:`` lines of ``tree``."""
    return ["clusters: " + " | ".join(_fmt_set(c) for c in tree.clusters),
            "separators: " + (" | ".join(f"{_fmt_set(s)} (nu={n})" for s, n in tree.nu.items())
                              if tree.nu else "(none)")]


def _fit_lines(fr: FitResult, nats: bool) -> list[str]:
    entropy_style = fr.algorithm == "malvestuto"
    lines = [f"algorithm: {fr.algorithm}", f"k: {fr.tree.k}", *_tree_lines(fr.tree)]
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


def cmd_report(args) -> int:
    p = _load_input(args.input, args.scheme, args.smoothing, args.cap)
    if args.algorithm == "malvestuto":
        fr = fit_malvestuto(p, args.k)
        columns = ["cluster", "separator", "H(C)", "H(S)", "omega"]
        # The parent row comes first, its cluster and entropy alone, then
        # each growth step's admissible block in increasing omega: the rows
        # the tree of the first j clusters admits, for j = 1, 2, ...
        table, head = fr.candidate_table, fr.trace[:1]
        table = table.take([row for _, admitted in table.growth(fr.tree.parent)
                            for row in admitted.nonzero()[0].tolist()])
        values = table.h_cluster[table.cluster_rank], table.h_base[table.base_rank], table.omega
    else:
        fr = fit_sk(p, args.k)
        columns = ["cluster", "separator", "I(C)", "I(S)", "w"]
        # Decreasing-w rows, cut after the last row growth accepted.
        table, head = fr.candidate_table.take(slice(max(fr.rows, default=0) + 1)), ()
        values = table.i_cluster[table.cluster_rank], table.i_base[table.base_rank], table.w
    values = np.stack(values, axis=1)
    if args.format == "json":
        _emit_json({
            "algorithm": fr.algorithm,
            "k": fr.tree.k,
            "columns": columns,
            "rows": [{"cluster": list(s.cluster), "separator": None,
                      "values": [s.omega, None, None]} for s in head]
                    + [RowTable(_set_fields(table) + [("values", values, None)])],
            "accepted": _accepted_summary(fr)[len("accepted: "):],
        })
        return 0
    lines = [" | ".join(columns)]
    lines.extend(f"{_fmt_set(s.cluster)} | - | {s.omega:.6f} | - | -" for s in head)
    for c, b, row in zip(table.members[table.cluster_rank].tolist(), table.bases().tolist(),
                         values.tolist()):
        lines.append(" | ".join([_fmt_set(c), _fmt_set(b), *(f"{v:.6f}" for v in row)]))
    lines.append(_accepted_summary(fr))
    _emit(lines)
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
    # Data given is always loaded, so a file that fails to load exits 2.
    p = None if args.data is None else _load_input(args.data, args.scheme, args.smoothing,
                                                   args.cap)
    if p is not None and tree is None:
        recovery = {"error": "tree is not a t-cherry tree"}
        lines.append(f"recovery conditions: unavailable ({recovery['error']})")
    elif p is not None:
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
    if not all(map(math.isfinite, strengths)):
        raise DomainError(f"--strength must be finite, got {args.strength!r}")
    strength = strengths[0] if len(strengths) == 1 else strengths
    cards = _parse_cards(args.cards, args.d)
    if args.n is not None and not 0 < args.n < math.inf:
        raise DomainError(f"--n must be positive and finite, got {args.n}")
    table, tree = generate_tcherry_distribution(
        args.seed, args.d, args.k, cards, strength, cap=args.cap
    )
    if args.n is not None:
        # A subnormal count would keep too few bits of its probability.
        smallest = float(table.probs[table.probs > 0].min()) * args.n
        if smallest < sys.float_info.min:
            raise DomainError(f"--n {args.n!r} makes the smallest nonzero count {smallest!r}, "
                              f"below the smallest normal double {sys.float_info.min!r}")
        table = JointTable(table.scheme, table.probs, total_count=args.n)

    out = Path(args.out)
    counts_path = out.with_name(out.name + ".csv")
    scheme_path = out.with_name(out.name + ".scheme.json")
    tree_path = out.with_name(out.name + ".tree.json")
    write_counts_csv(counts_path, table)
    write_scheme_json(scheme_path, table.scheme)
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
        *_tree_lines(tree),
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

    def common(sp):
        sp.add_argument("input", help="counts or samples CSV"
                        " ('lizards.csv' falls back to the bundled dataset)")
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
    # What import built lives until the process ends. Frozen, the collector
    # skips it during the run and at exit, where freeing it is the OS's job.
    gc.freeze()
    sys.exit(main())
