"""Command-line front end.

Every subcommand reads and writes JSON with a fixed key order and no
timestamps, so outputs are byte-identical across runs.  ``-`` stands for
stdin or stdout wherever a group or simplex argument is taken.  Exit codes:
0 success, 1 domain error (with an error JSON on stdout), 2 usage error.
Malformed input files and out-of-range arguments are domain errors with
the code ``invalid-input``.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import cayley, classify, codes, geometry, groups
from .errors import (BudgetExceeded, GroupTooLarge, InvalidInput,
                     LatSimplexError)
from .residues import ResidueVector, as_int, int_rows


def _read_json(path: str):
    try:
        if path == "-":
            return json.loads(sys.stdin.read())
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise InvalidInput(f"cannot read JSON from {path}: {exc}") from exc


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _emit_text(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _group_from_json(obj) -> groups.LambdaGroup:
    try:
        e = as_int(obj["e"])
        den = as_int(obj["den"])
        # a table of even one element holds e cells
        if e > groups.MAX_TABLE_CELLS:
            raise GroupTooLarge(f"e = {e} exceeds the budget of "
                                f"{groups.MAX_TABLE_CELLS} table cells")
        gens = [ResidueVector(den, nums)
                for nums in int_rows(obj["generators"], "generators")]
        if not gens:
            gens = [ResidueVector(den, (0,) * e)]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(
            f"malformed group JSON: {type(exc).__name__}: {exc}") from exc
    if any(g.e != e for g in gens):
        raise InvalidInput("generator length does not match e")
    return groups.close(gens)


def _matrix_text(rows) -> str:
    lines = []
    for row in rows:
        tokens = []
        for num in row.nums:
            if num == 0:
                tokens.append("0")
            elif 2 * num == row.den:
                tokens.append("1/2")
            else:
                tokens.append(f"{num}/{row.den}")
        lines.append(" ".join(tokens))
    return "\n".join(lines)


def _analysis_json(G: groups.LambdaGroup) -> dict:
    hs = groups.h_star(G)
    return {
        "order": G.order,
        "degree": hs.degree(),
        "volume": hs.volume(),
        "hstar": hs.as_list(),
        "isPyramid": groups.is_lattice_pyramid(G),
        "fullSupport": G.full_support,
        "integerSum": G.integer_sum,
    }


def _emit_group(G: groups.LambdaGroup, matrix: bool) -> int:
    if matrix:
        _emit_text(_matrix_text(G.generators))
    else:
        _emit(G.to_json())
    return 0


def cmd_code(args) -> int:
    return _emit_group(codes.simplex_code_group(args.r), args.matrix)


def cmd_counterexample(args) -> int:
    return _emit_group(codes.counterexample_simplex(args.s), args.matrix)


def cmd_analyze(args) -> int:
    G = _group_from_json(_read_json(args.group))
    _emit(_analysis_json(G))
    return 0


def cmd_cayley(args) -> int:
    G = _group_from_json(_read_json(args.group))
    count, partition = cayley.max_cayley_blocks(G)
    _emit({"C": count, "partition": partition.to_json()})
    return 0


def cmd_conjecture(args) -> int:
    G = _group_from_json(_read_json(args.group))
    report = cayley.conjecture_report(G)
    _emit(report.to_json())
    return 0


def cmd_realize(args) -> int:
    G = _group_from_json(_read_json(args.group))
    _emit(geometry.realize_vertices(G).to_json())
    return 0


def cmd_ehrhart(args) -> int:
    if args.max_n < 0:
        raise InvalidInput("--max-n must be nonnegative")
    obj = _read_json(args.simplex)
    try:
        d = as_int(obj["d"])
        # refuse before the degeneracy check, whose cost grows as d^3
        if d > geometry.MAX_BOX_POINTS.bit_length():
            raise BudgetExceeded(
                f"a {d}-simplex walks at least 2^{d - 1} box points, more "
                f"than the budget of {geometry.MAX_BOX_POINTS}")
        simplex = geometry.LatticeSimplex.from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(
            f"malformed simplex JSON: {type(exc).__name__}: {exc}") from exc
    table = geometry.ehrhart_table(simplex, args.max_n)
    hstar = None
    if args.max_n >= simplex.d:
        hstar = geometry.h_star_from_counts(table, simplex.d).as_list()
    _emit({"d": simplex.d, "maxN": args.max_n,
           "counts": table.to_json(), "hstar": hstar})
    return 0


def cmd_classify(args) -> int:
    budget = classify.SearchBudget(e=args.e, max_denominator=args.max_den,
                                   max_generators=args.max_gen,
                                   max_order=args.max_order)
    report = classify.enumerate_groups(
        budget, args.degree,
        require_non_pyramid=not args.allow_pyramid)
    _emit(report.to_json())
    return 0


def cmd_verify(args) -> int:
    for flag, suite in (("r", "main1"), ("s", "main2")):
        if getattr(args, flag) is not None and args.suite != suite:
            raise InvalidInput(f"--{flag} applies only to --suite {suite}")
    reports = []
    if args.suite == "main1":
        params = [args.r] if args.r is not None else classify.main1_range()
        for r in params:
            reports.append(classify.verify_main1(r).to_json())
    elif args.suite == "main2":
        params = ([args.s] if args.s is not None
                  else list(classify.DEFAULT_MAIN2_BUDGETS))
        for s in params:
            reports.append(classify.verify_main2(s).to_json())
    else:
        cases = []
        for r in range(4):
            cases.append((f"code r={r}", codes.simplex_code_group(r + 2)))
        for s in (3, 5, 6, 7):
            cases.append((f"counterexample s={s}",
                          codes.counterexample_simplex(s)))
        results = []
        for name, G in cases:
            record = classify.check_bounds(G)
            results.append({"case": name, **record.to_json()})
        reports.append({
            "suite": "bounds",
            "cases": results,
            "allPassed": all(r["passed"] for r in results),
        })
    _emit({"suite": args.suite, "reports": reports})
    return 0


def _report_rows():
    family_rows = []
    for r in range(4):
        G = codes.simplex_code_group(r + 2)
        hs = groups.h_star(G)
        rep = cayley.conjecture_report(G)
        family_rows.append({
            "r": r, "e": G.e, "degree": hs.degree(), "volume": hs.volume(),
            "hstar": str(hs), "C": rep.cayley_number,
            "originalGap": rep.original_gap, "modifiedGap": rep.modified_gap,
        })
    counter_rows = []
    for s in range(2, 9):
        G = codes.counterexample_simplex(s)
        rep = cayley.conjecture_report(G)
        counter_rows.append({
            "s": s, "e": G.e, "blocks": bin(2 * s).count("1"),
            "degree": groups.degree(G), "C": rep.cayley_number,
            "originalGap": rep.original_gap, "modifiedGap": rep.modified_gap,
        })
    return family_rows, counter_rows


def _format_table(title: str, rows: list[dict]) -> str:
    headers = list(rows[0].keys())
    widths = [max(len(h), max(len(str(row[h])) for row in rows))
              for h in headers]
    lines = [title]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        lines.append("  ".join(str(row[h]).ljust(w)
                               for h, w in zip(headers, widths)))
    return "\n".join(lines)


def cmd_report(args) -> int:
    family_rows, counter_rows = _report_rows()
    if args.format == "csv":
        lines = ["section,param,e,degree,volume,hstar,C,originalGap,modifiedGap"]
        for row in family_rows:
            lines.append(
                f"code,{row['r']},{row['e']},{row['degree']},{row['volume']},"
                f"\"{row['hstar']}\",{row['C']},{row['originalGap']},"
                f"{row['modifiedGap']}")
        for row in counter_rows:
            lines.append(
                f"counterexample,{row['s']},{row['e']},{row['degree']},,,"
                f"{row['C']},{row['originalGap']},{row['modifiedGap']}")
        _emit_text("\n".join(lines))
    elif args.format == "json":
        _emit({"codeFamilies": family_rows, "counterexamples": counter_rows})
    else:
        part1 = _format_table("simplex-code families (r = 0..3)", family_rows)
        part2 = _format_table("counterexample families (s = 2..8)",
                              counter_rows)
        _emit_text(part1 + "\n\n" + part2)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latsimplex",
        description="Exact invariants of lattice simplices via residue groups")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("code", help="group generated by the half matrix")
    p.add_argument("--r", type=int, required=True, help="code dimension")
    p.add_argument("--matrix", action="store_true",
                   help="emit the generator matrix as text instead of JSON")
    p.set_defaults(func=cmd_code)

    p = sub.add_parser("counterexample",
                       help="block-diagonal family of the given degree")
    p.add_argument("--s", type=int, required=True, help="target degree")
    p.add_argument("--matrix", action="store_true")
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("analyze", help="order, degree, volume, h*, flags")
    p.add_argument("group", help="group JSON file, or - for stdin")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("cayley", help="maximal null-block partition")
    p.add_argument("group")
    p.set_defaults(func=cmd_cayley)

    p = sub.add_parser("conjecture", help="Cayley-bound gaps and verdicts")
    p.add_argument("group")
    p.set_defaults(func=cmd_conjecture)

    p = sub.add_parser("realize", help="integer vertices for a group")
    p.add_argument("group")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("ehrhart", help="dilation point counts for a simplex")
    p.add_argument("simplex", help="simplex JSON file, or - for stdin")
    p.add_argument("--max-n", type=int, required=True)
    p.set_defaults(func=cmd_ehrhart)

    p = sub.add_parser("classify", help="bounded exhaustive group search")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--max-den", type=int, required=True)
    p.add_argument("--max-gen", type=int, required=True)
    p.add_argument("--allow-pyramid", action="store_true")
    p.add_argument("--max-order", type=int,
                   default=classify.SearchBudget.max_order)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="curated bounded verification suites")
    p.add_argument("--suite", choices=["main1", "main2", "bounds"],
                   required=True)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--s", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="consolidated family/counterexample table")
    p.add_argument("--format", choices=["text", "csv", "json"],
                   default="text")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        # the library's own argument checks, e.g. code --r 1
        error = InvalidInput(str(exc))
    except LatSimplexError as exc:
        error = exc
    _emit({"error": error.code, "message": str(error)})
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
