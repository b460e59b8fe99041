"""Batch command-line interface.

Subcommands: compute, verify, search, witness, bounds.  Exit codes form a
stable contract: 0 = verified / computed, 1 = mathematical falsification
event (a would-be counterexample), 2 = usage or precondition error.  All
report numbers are exact integers; text output is stable and line-oriented,
JSON uses fixed key orders so parse-and-reserialize round-trips.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from .bounds import bound_catalogue, catalogue_entry, catalogue_to_json, check_bounds
from .engine import SumsetVariant, compute_dp
from .errors import BadParams, RegimeUnsupported, SumsetLabError
from .intset import IntegerSet, subsums
from .inverse import BOUND_VIOLATED, EQUALITY_UNEXPECTED, inverse_verdict
from .search import REGIME_POSITIVE, REGIME_ZERO, SearchSpace, minimize
from .witness import ALL_LEMMAS, generate, ordering_guards_hold

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2

# argparse reads "--set -3,-1" as an option followed by nothing.
_SET_HELP = "comma-separated integers; write a negative first element as --set=-3,-1"


def parse_set_literal(text: str) -> IntegerSet:
    """Comma-separated integers; whitespace tolerated; duplicates rejected."""
    tokens = [t.strip() for t in text.split(",")]
    if tokens == [""]:
        raise BadParams("--set needs at least one integer")
    try:
        values = [int(t) for t in tokens]
    except ValueError:
        raise BadParams(f"--set is not a comma-separated integer list: {text!r}")
    seen: set[int] = set()
    for v in values:
        if v in seen:
            raise BadParams(f"duplicate element {v} in --set")
        seen.add(v)
    return IntegerSet(tuple(sorted(values)))


def _bool(flag: bool) -> str:
    return "true" if flag else "false"


def _json_dumps(doc) -> str:
    import json

    return json.dumps(doc, indent=2)


def _emit(text: str, out: Optional[str]) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out:
        try:
            with open(out, "w", encoding="utf-8") as f:
                f.write(text)
        except OSError as ex:
            raise BadParams(f"cannot write --out {out}: {ex.strerror}") from ex
    else:
        sys.stdout.write(text)


def cmd_compute(args: argparse.Namespace) -> int:
    A = parse_set_literal(args.set)
    if args.variant == "subsums":
        if args.h is not None:
            raise BadParams("subsums has no fold count; drop --h")
        result = subsums(A)
    else:
        if args.h is None:
            raise BadParams(f"--variant {args.variant} needs --h")
        result = compute_dp(A, SumsetVariant.from_name(args.variant), args.h)
    if args.format == "json":
        text = _json_dumps(
            {"values": list(result.values), "cardinality": result.cardinality}
        )
    else:
        lines = [f"cardinality={result.cardinality}"]
        if args.values:
            lines.append("values=" + ",".join(str(v) for v in result.values))
        text = "\n".join(lines)
    _emit(text, args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    A = parse_set_literal(args.set)
    h = args.h
    # The verdict folds rss itself; fold it here only when no regime covers A.
    try:
        verdict = inverse_verdict(A, h)
        rss = verdict.observed
    except RegimeUnsupported as ex:
        verdict, unsupported = None, str(ex)
        rss = compute_dp(A, SumsetVariant.RESTRICTED_SIGNED, h).cardinality
    restricted = compute_dp(A, SumsetVariant.RESTRICTED, h).cardinality
    reports = check_bounds(A, h, rss, SumsetVariant.RESTRICTED_SIGNED)
    reports += check_bounds(A, h, restricted, SumsetVariant.RESTRICTED)
    broken = any(not r.met and catalogue_entry(r.id).status == "proved" for r in reports)
    falsified = broken or (
        verdict is not None
        and verdict.verdict in (EQUALITY_UNEXPECTED, BOUND_VIOLATED)
    )

    if args.format == "json":
        doc = {
            "set": list(A.elements),
            "k": len(A),
            "h": h,
            "rss_cardinality": rss,
            "restricted_cardinality": restricted,
            "bounds": [r.to_dict() for r in reports],
            "inverse": verdict.to_dict() if verdict else None,
            "falsified": falsified,
        }
        text = _json_dumps(doc)
    else:
        lines = [
            f"set={A} k={len(A)} h={h}",
            f"rss_cardinality={rss}",
            f"restricted_cardinality={restricted}",
        ]
        for r in reports:
            lines.append(
                f"bound id={r.id} status={catalogue_entry(r.id).status} bound={r.bound} "
                f"observed={r.observed} slack={r.slack} met={_bool(r.met)}"
            )
        if not reports:
            lines.append("bounds=none-applicable")
        if verdict is not None:
            lines.append(
                f"inverse regime={verdict.regime} verdict={verdict.verdict} "
                f"bound={verdict.bound} observed={verdict.observed}"
            )
            lines.append(f"classification={verdict.classification}")
            lines.append(f"predicted={verdict.predicted}")
            lines.append(f"prediction_holds={_bool(verdict.prediction_holds)}")
        else:
            lines.append(f"inverse=unsupported ({unsupported})")
        lines.append(f"result={'falsified' if falsified else 'ok'}")
        text = "\n".join(lines)
    _emit(text, args.out)
    return EXIT_FALSIFIED if falsified else EXIT_OK


def cmd_search(args: argparse.Namespace) -> int:
    space = SearchSpace(
        k=args.k,
        h=args.h,
        max_element=args.max,
        regime=args.regime,
        gcd_reduce=not args.no_gcd_reduce,
        allow_any_fold=args.allow_any_fold,
    )
    workers = args.workers if args.workers is not None else os.cpu_count() or 1
    report = minimize(space, shards=workers, workers=workers)
    if args.format == "json":
        text = report.to_json()
    elif args.format == "csv":
        text = report.to_csv()
    else:
        lines = [
            f"k={report.k} h={report.h} max={report.max_element} regime={report.regime}",
            f"min={report.minimum} bound={report.bound} slack={report.slack}",
            f"bound_status={space.bound_status}",
            f"minimizer_count={report.minimizer_count}",
        ]
        for m in report.minimizers:
            lines.append("minimizer=" + ",".join(str(v) for v in m))
        for name in sorted(report.classes):
            lines.append(f"class {name}={report.classes[name]}")
        lines.append(f"falsified={_bool(report.falsified)}")
        text = "\n".join(lines)
    _emit(text, args.out)
    return EXIT_FALSIFIED if report.falsified else EXIT_OK


def cmd_witness(args: argparse.Namespace) -> int:
    A = parse_set_literal(args.set)
    family = generate(args.lemma, A, h=args.h, r=args.r)
    checks = family.verify()
    guards = ordering_guards_hold(family)
    passed = checks.all_pass() and guards
    if args.format == "json":
        text = _json_dumps(family.to_dict(checks))
    else:
        lines = [f"lemma={family.lemma} set={A} fold={family.fold}"]
        for part in family.parts:
            lines.append(
                f"part name={part.name} size={len(part.values)} "
                f"branch={part.branch if part.branch else '-'}"
            )
        lines.append(f"total={family.claimed_total}")
        lines.append(f"target_cardinality={checks.target_cardinality}")
        lines.append(
            f"checks disjoint={_bool(checks.disjoint)} "
            f"contained={_bool(checks.contained)} "
            f"total_matches={_bool(checks.total_matches)}"
        )
        lines.append(f"ordering_guards={_bool(guards)}")
        lines.append(f"result={'pass' if passed else 'fail'}")
        text = "\n".join(lines)
    _emit(text, args.out)
    return EXIT_OK if passed else EXIT_FALSIFIED


def cmd_bounds(args: argparse.Namespace) -> int:
    if args.format == "json":
        text = catalogue_to_json()
    else:
        lines = []
        for entry in bound_catalogue():
            lines.append(
                f"{entry.id} variant={entry.variant.value} status={entry.status} "
                f"formula={entry.formula_text}"
            )
            lines.append(f"  hypotheses: {entry.hypotheses_text}")
        text = "\n".join(lines)
    _emit(text, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumsetlab",
        description="Compute h-fold sumset variants, check lower-bound "
        "formulas and extremal structure, generate witness families, and "
        "exhaustively search small set spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
        p.add_argument("--format", default="text", choices=formats, metavar="FORMAT",
                       help=f"output format: {'|'.join(formats)}")
        p.add_argument("--out", default=None, metavar="PATH",
                       help="write the report to PATH instead of stdout")

    p = sub.add_parser("compute", help="compute one sumset or the subset sums")
    p.add_argument("--set", required=True, help=_SET_HELP)
    p.add_argument("--variant", default="rss",
                   choices=[v.value for v in SumsetVariant] + ["subsums"])
    p.add_argument("--h", type=int, default=None, help="fold count")
    p.add_argument("--values", action="store_true",
                   help="also print the full value list (text format)")
    add_common(p, ("text", "json"))
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser(
        "verify",
        help="check every applicable bound and the inverse prediction for one set",
    )
    p.add_argument("--set", required=True, help=_SET_HELP)
    p.add_argument("--h", type=int, required=True, help="fold count")
    add_common(p, ("text", "json"))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="exhaustively minimize over a set space")
    p.add_argument("--k", type=int, required=True, help="set size")
    p.add_argument("--h", type=int, required=True, help="fold count")
    p.add_argument("--max", type=int, required=True, help="largest allowed element")
    p.add_argument("--regime", default=REGIME_POSITIVE,
                   choices=(REGIME_POSITIVE, REGIME_ZERO))
    p.add_argument("--workers", type=int, default=None,
                   help="at most this many processes (default: all cores); small"
                        " spaces are scanned in-process")
    p.add_argument("--no-gcd-reduce", action="store_true",
                   help="also scan sets whose elements share a factor (positive regime only)")
    p.add_argument("--allow-any-fold", action="store_true",
                   help="permit h outside 3 <= h <= k-1. A space outside its bound's"
                        " hypotheses (such an h, or the zero regime at k < 5) reports"
                        " regime <regime>/outside-stated-hypotheses and is never"
                        " falsified")
    add_common(p, ("text", "json", "csv"))
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("witness", help="generate and check one witness family")
    p.add_argument("--lemma", required=True, choices=ALL_LEMMAS)
    p.add_argument("--set", required=True, help=_SET_HELP)
    p.add_argument("--h", type=int, default=None, help="fold count")
    p.add_argument("--r", type=int, default=None,
                   help="1-based index of the odd-one-out element (parity-split)")
    add_common(p, ("text", "json"))
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("bounds", help="dump the bound catalogue")
    add_common(p, ("text", "json"))
    p.set_defaults(func=cmd_bounds)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SumsetLabError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
