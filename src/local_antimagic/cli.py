"""Command-line interface.

Subcommands build graphs, attach the explicit labelings, transform them,
verify the local antimagic property, and run the exact search.  Pipelines
communicate through JSON documents on stdin/stdout, for example:

    antimagic label circulant --m 16 --steps 1,3 | antimagic verify --expect-colors 3

Exit codes: 0 on success, 1 when a verification or search check fails,
2 for usage errors and malformed input, 3 when a construction fails its
own certification (an internal bug), 141 (128 + SIGPIPE) when the reader
closes stdout early.

Each command imports the construction modules it runs (``circulants``,
``cycle_merge``, ``unions``), the oracle and ``reproduce`` itself, so a
process loads only those: ``verify`` and ``export json`` or ``dot`` load
none of them.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

from .graphs import (
    CertificationError,
    CirculantSpec,
    Graph,
    are_isomorphic,
    build_circulant,
    build_cycle,
)
from .labelings import EdgeLabeling, check_two_color_necessary, induced_coloring
from .serialize import read_document, write_document, write_dot, write_json


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _emit(doc: dict) -> None:
    write_json(doc, sys.stdout)
    sys.stdout.write("\n")


def _emit_document(g: Graph, f: EdgeLabeling | None = None, /, **extra) -> None:
    write_document(sys.stdout, g, f, **extra)
    sys.stdout.write("\n")


def _read_document(path: str | None) -> tuple[Graph, EdgeLabeling | None, dict]:
    if path in (None, "-"):
        return read_document(sys.stdin)
    try:
        with open(path) as fp:
            return read_document(fp)
    except OSError as exc:
        raise ValueError(f"cannot read {path!r}: {exc.strerror}") from None


def _cmd_build(args) -> int:
    if args.shape == "cycle":
        g = build_cycle(args.m)
    elif args.shape == "circulant":
        g = build_circulant(CirculantSpec(args.m, _ints(args.steps)))
    else:
        from .unions import UnionSpec, union_graph
        g = union_graph(UnionSpec(_ints(args.orders)))
    _emit_document(g)
    return 0


def _cmd_label(args) -> int:
    if args.family == "c":
        from .circulants import c_labeling
        g, f = build_cycle(args.m), c_labeling(args.m)
    elif args.family == "circulant":
        from .circulants import circulant_labeling
        g, f = circulant_labeling(CirculantSpec(args.m, _ints(args.steps)))
    else:
        from .unions import (
            UnionSpec,
            union_2labeling_family1,
            union_2labeling_family2,
            union_3labeling,
        )
        if args.family == "union2a":
            result = union_2labeling_family1(args.r)
        elif args.family == "union2b":
            result = union_2labeling_family2(args.r)
        else:
            result = union_3labeling(UnionSpec(_ints(args.orders)))
        g, f = result.graph, result.labeling
    _emit_document(g, f)
    return 0


def _parse_directives(text: str):
    items = json.loads(text)
    if not isinstance(items, list):
        raise ValueError(f"directives must be a JSON list, not {items!r}")
    return [_directive(item) for item in items]


def _directive(item):
    from .cycle_merge import case_plan
    from .unions import FuseCycles, KeepCycle, MergeCycle
    try:
        if "keep" in item:
            return KeepCycle(_int(item["keep"]))
        if "fuse" in item:
            first, second = item["fuse"]
            return FuseCycles(_int(first), _int(second), _int(item["step"]))
        if "merge" in item:
            return MergeCycle(_int(item["merge"]), case_plan(_int(item["case"]), _int(item["k"])))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed directive {item!r}: {exc!r}") from None
    raise ValueError(f"unknown directive {item!r}")


def _int(value):
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value


def _cmd_transform(args) -> int:
    from .cycle_merge import build_construction_matrix, case_plan, transform_cycle
    if args.kind == "case":
        plan = case_plan(args.case, args.k)
        result = transform_cycle(plan.n, plan)
        _emit_document(result.graph, result.labeling, family=result.family,
                       expected_colors=sorted(result.expected_colors))
        return 0
    if args.kind == "matrix":
        built = build_construction_matrix(args.s, args.t)
        if args.render:
            print(built.render())
            return 0
        _emit_document(built.graph, built.labeling, A=built.arrays.evens, B=built.arrays.odds,
                       M01=built.pattern, Mlab=built.labels, steps=built.spec.steps)
        return 0
    g, f, extra = _read_document(args.input)
    orders = extra.get("orders")
    if args.orders:
        orders = _ints(args.orders)
    elif orders is not None and (type(orders) is not list or {*map(type, orders)} - {int}):
        raise ValueError(f"malformed 'orders' field: {orders!r} is not a list of integers")
    if orders is None:
        raise ValueError("transform union needs --orders or an 'orders' field")
    if f is None:
        raise ValueError("transform union needs a labeled document")
    from .unions import UnionSpec, transform_union
    try:
        result = transform_union(
            UnionSpec(tuple(orders)), f, _parse_directives(args.directives)
        )
    except CertificationError as exc:
        # The labeling and the directives are input here: a result that
        # is not local antimagic is a failed check, not a library bug.
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    _emit_document(result.graph, result.labeling, colors=sorted(result.colors),
                   central_sum=result.central_sum)
    return 0


def _cmd_verify(args) -> int:
    g, f, _ = _read_document(args.input)
    if f is None:
        raise ValueError("document has no labels to verify")
    coloring = induced_coloring(g, f)
    report = {
        "sums": coloring.sums,
        "colors": sorted(coloring.colors),
        "conflicts": coloring.conflicts,
        "local_antimagic": not coloring.conflicts,
    }
    ok = not coloring.conflicts
    if args.expect_colors is not None:
        report["expected_colors"] = args.expect_colors
        ok = ok and len(coloring.colors) == args.expect_colors
    if args.two_color_check:
        verdict = check_two_color_necessary(g)
        report["two_colors_possible"] = verdict.two_colors_possible
    report["ok"] = ok
    _emit(report)
    return 0 if ok else 1


def _cmd_spectrum(args) -> int:
    from .circulants import circulant_spectrum, spectra_equal
    spec = CirculantSpec(args.m, _ints(args.steps))
    spectrum = circulant_spectrum(spec)
    out = {"m": args.m, "steps": spec.steps, "spectrum": spectrum}
    if args.against:
        other = circulant_spectrum(CirculantSpec(args.m, _ints(args.against)))
        out["cospectral"] = spectra_equal(spectrum, other)
    _emit(out)
    return 0


def _cmd_iso(args) -> int:
    if args.multiplier:
        from .circulants import multiplier_isomorphism
        mapping = multiplier_isomorphism(args.n, args.a, args.b)
        _emit({"isomorphic": True, "mapping": mapping})
        return 0
    g1, _, _ = _read_document(args.first)
    g2, _, _ = _read_document(args.second)
    mapping = are_isomorphic(g1, g2)
    _emit({"isomorphic": mapping is not None, "mapping": mapping})
    return 0 if mapping is not None else 1


def _cmd_oracle(args) -> int:
    from .oracle import BudgetExceeded, SearchBudget, exact_chi_la, feasible_with_colors
    g, _, _ = _read_document(args.input)
    budget = SearchBudget(args.max_edges)
    try:
        if args.colors is not None:
            witness = feasible_with_colors(g, args.colors, budget)
            _emit(
                {
                    "colors": args.colors,
                    "feasible": witness is not None,
                    "witness": witness.labels if witness else None,
                }
            )
            return 0
        result = exact_chi_la(g, budget)
        report = {
            "chi_la": result.value,
            "witness": result.witness.labels,
            "nodes": result.nodes,
            "seconds": result.seconds,
        }
        if args.stats:
            report["bounds"] = result.bounds._asdict()
            report["searches"] = [run._asdict() for run in result.searches]
        _emit(report)
        return 0
    except BudgetExceeded as exc:
        print(str(exc), file=sys.stderr)
        return 1


def _cmd_export(args) -> int:
    g, f, extra = _read_document(args.input)
    if args.format == "json":
        _emit_document(g, f, **extra)
    elif args.format == "dot":
        write_dot(sys.stdout, g, f)
        sys.stdout.write("\n")
    else:
        if f is None:
            raise ValueError("matrix export needs labels")
        from .circulants import labeling_matrix_view
        print(labeling_matrix_view(g, f).render())
    return 0


def _cmd_reproduce(args) -> int:
    from .reproduce import run_all
    return 1 if run_all() else 0


_HELP = {
    "steps": "comma-separated connection set, e.g. 1,3",
    "orders": "comma-separated cycle orders, e.g. 16,16",
    "directives": 'JSON list, e.g. [{"fuse":[0,1],"step":3},{"merge":8,"case":1,"k":2}]',
}


def _needs(variants, name: str, **flags: type) -> argparse.ArgumentParser:
    """The parser of one shape, family or kind, requiring each of ``flags``."""
    p = variants.add_parser(name)
    for flag, kind in flags.items():
        p.add_argument(f"--{flag}", type=kind, required=True, help=_HELP.get(flag))
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antimagic",
        description="Local antimagic labelings: construction, verification, search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a graph and print its JSON")
    shapes = p.add_subparsers(dest="shape", required=True)
    _needs(shapes, "cycle", m=int)
    _needs(shapes, "circulant", m=int, steps=str)
    _needs(shapes, "union", orders=str)
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("label", help="construct a graph with an explicit labeling")
    families = p.add_subparsers(dest="family", required=True)
    _needs(families, "c", m=int)
    _needs(families, "circulant", m=int, steps=str)
    _needs(families, "union2a", r=int)
    _needs(families, "union2b", r=int)
    _needs(families, "union3", orders=str)
    p.set_defaults(fn=_cmd_label)

    p = sub.add_parser("transform", help="merge, fuse, or fold a labeled graph")
    kinds = p.add_subparsers(dest="kind", required=True)
    q = _needs(kinds, "case", k=int)
    q.add_argument(
        "--case", type=int, required=True, choices=range(1, 9), help="merge case number"
    )
    q = _needs(kinds, "matrix", s=int, t=int)
    q.add_argument("--render", action="store_true", help="print the label matrix as text")
    q = _needs(kinds, "union", directives=str)
    q.add_argument("--input", help="labeled union JSON (default stdin)")
    q.add_argument("--orders", help=_HELP["orders"])
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("verify", help="check a labeled graph document")
    p.add_argument("input", nargs="?", help="JSON document (default stdin)")
    p.add_argument("--expect-colors", type=int)
    p.add_argument("--two-color-check", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("spectrum", help="circulant adjacency spectrum")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--steps", required=True)
    p.add_argument("--against", help="second connection set to compare")
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("iso", help="isomorphism check or multiplier certificate")
    p.add_argument("first", nargs="?")
    p.add_argument("second", nargs="?")
    p.add_argument("--multiplier", action="store_true")
    p.add_argument("--n", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.set_defaults(fn=_cmd_iso)

    p = sub.add_parser("oracle", help="exact minimum color search")
    p.add_argument("mode", choices=["chi-la"])
    p.add_argument("input", nargs="?", help="graph JSON (default stdin)")
    p.add_argument("--max-edges", type=int)
    p.add_argument("--colors", type=int, help="test feasibility at this count only")
    p.add_argument("--stats", action="store_true",
                   help="add the bounds that settle chi_la and each k searched")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("export", help="re-emit a document as json, dot, or matrix text")
    p.add_argument("format", choices=["json", "dot", "matrix"])
    p.add_argument("input", nargs="?")
    p.set_defaults(fn=_cmd_export)

    p = sub.add_parser("reproduce-all", help="re-derive every recorded result")
    p.set_defaults(fn=_cmd_reproduce)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "iso" and args.multiplier and None in (args.n, args.a, args.b):
        parser.error("iso --multiplier needs --n, --a and --b")
    if args.command == "iso" and not args.multiplier and {args.first, args.second} <= {None, "-"}:
        parser.error("iso reads at most one of its two documents from stdin")
    if args.command == "oracle" and args.stats and args.colors is not None:
        parser.error("oracle --stats reports the exact search, not --colors")
    if args.command == "oracle" and min(args.max_edges or 0, args.colors or 0) < 0:
        parser.error("oracle --max-edges and --colors take non-negative integers")
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (`| head`): send what is left,
        # including the flush at exit, to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + signal.SIGPIPE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CertificationError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
