"""Command-line surface: group/wreath inspection, q-series, and the
verification suites.  All math lives in the library modules; this file
only parses flags, dispatches, and formats output.

Exit codes: 0 all requested checks pass, 1 a check failed, 2 bad input.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .fock import hopf_verify
from .groups import (FiniteGroup, GroupError, builtin, group_from_cayley_json,
                     group_from_permutations_json, mackey_verify)
from .gsets import (GSet, GSetError, euler_limits, euler_verify,
                    gset_from_json, mckay_table, point_gset, regular_gset)
from .heisenberg import heisenberg_verify
from .lambda_ops import lambda_verify
from .report import Report
from .scalars import euler_product, graded_dim_series
from .wreath import (brute_force_classes, decode_element,
                     enumerate_types, type_counts, type_of, z_rho)

LIMIT = 50_000  # default --limit; also caps the types of graded-dim, verify
MAX_SERIES_DEGREE = 2_000  # the q-series recurrence is quadratic in -N
MAX_SERIES_EXPONENT = 10_000  # |-e|, --d0, --d1: coefficients < 4300 digits
# verify heisenberg/all: (2 M classes)^2 brackets on every type to -N
MAX_HEISENBERG_WORK = 4_000_000  # s3 -N 8 -M 6 (2.1 M), q8 -N 6 -M 4 run

_ERRORS = (ValueError, OSError)  # every library error is a ValueError

_SHORTHAND = [
    (re.compile(r"^z(\d+)$"), "cyclic"),
    (re.compile(r"^s(\d+)$"), "symmetric"),
    (re.compile(r"^d(\d+)$"), "dihedral"),
    (re.compile(r"^bd(\d+)$"), "binary_dihedral"),
]


def parse_group(spec: str) -> FiniteGroup:
    """builtin:<name>, a shorthand like z2/s3/d4/q8, <name>:<param>, or a
    path to a group JSON file."""
    s = spec.lower()
    if s.startswith("builtin:"):
        s = s[len("builtin:"):]
    if s == "q8":
        return builtin("binary_dihedral", 2)
    for pat, name in _SHORTHAND:
        m = pat.match(s)
        if m:
            return builtin(name, int(m.group(1)))
    if ":" in s:
        name, _, param = s.partition(":")
        return builtin(name, int(param))
    try:
        return builtin(s)
    except GroupError:
        pass
    path = Path(spec)
    if not path.is_file():
        raise GroupError(f"unknown group {spec!r} (not a builtin or a file)")
    text = path.read_text()
    data = json.loads(text)
    if isinstance(data, dict) and "table" in data:
        return group_from_cayley_json(text, name=path.stem)
    if isinstance(data, dict) and "generators" in data:
        return group_from_permutations_json(text, name=path.stem)
    raise GroupError(f"{spec}: expected 'table' or 'generators' JSON")


def parse_gset(spec: str, group: FiniteGroup) -> GSet:
    if spec == "pt":
        return point_gset(group)
    if spec == "regular":
        return regular_gset(group)
    path = Path(spec)
    if not path.is_file():
        raise GSetError(f"unknown G-set {spec!r} (use pt, regular, or a file)")
    return gset_from_json(group, path.read_text(), name=path.stem)


def _emit_report(rep: Report, fmt: str) -> int:
    print(rep.to_json() if fmt == "json" else rep.to_table())
    return 0 if rep.all_passed else 1


def cmd_group(args) -> int:
    g = parse_group(args.group)
    if args.what == "info":
        info = {"name": g.name, "order": g.order, "exponent": g.exponent,
                "num_classes": g.num_classes}
        if args.format == "json":
            print(json.dumps(info, indent=2))
        else:
            for k, v in info.items():
                print(f"{k}: {v}")
        return 0
    rows = [{"class": c, "representative": g.class_reps[c],
             "size": g.class_size(c), "centralizer": g.zeta(c),
             "element_order": g.element_orders[g.class_reps[c]]}
            for c in range(g.num_classes)]
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    else:
        for r in rows:
            print("  ".join(f"{k}={v}" for k, v in r.items()))
    return 0


def cmd_wreath(args) -> int:
    g = parse_group(args.group)
    n = args.max_degree
    if args.what in ("types", "zrho"):
        type_counts(g, n, args.limit)  # raises above --limit, before listing
        rows = []
        for rho in enumerate_types(g, n):
            row = {"type": rho.to_json_obj()}
            if args.what == "zrho":
                row["z_rho"] = z_rho(g, rho)
            rows.append(row)
        if args.format == "json":
            print(json.dumps(rows))
        else:
            for row in rows:
                line = json.dumps(row["type"])
                if "z_rho" in row:
                    line += f"  Z_rho={row['z_rho']}"
                print(line)
        return 0
    rows = []
    for rep, size in brute_force_classes(g, n, args.limit):
        gs, perm = decode_element(g, rep)
        rows.append({"type": type_of(g, rep).to_json_obj(), "size": size,
                     "representative": {"gs": gs, "perm": perm}})
    if args.format == "json":
        print(json.dumps(rows))
    else:
        for row in rows:
            print(f"{json.dumps(row['type'])}  size={row['size']}")
    return 0


def cmd_series(args) -> int:
    if args.what == "mckay":
        return _emit_report(mckay_table(), args.format)
    if args.what == "graded-dim" and args.group is not None:
        # exit 2 above LIMIT
        coeffs = type_counts(parse_group(args.group), args.max_degree, LIMIT)
    elif args.max_degree > MAX_SERIES_DEGREE:
        raise ValueError(f"-N must be <= {MAX_SERIES_DEGREE}, "
                         f"got {args.max_degree}")
    elif max(abs(args.e), args.d0, args.d1) > MAX_SERIES_EXPONENT:
        raise ValueError(f"|-e|, --d0, --d1 must be <= {MAX_SERIES_EXPONENT}, "
                         f"got {args.e}, {args.d0}, {args.d1}")
    elif args.what == "euler-product":
        coeffs = euler_product(args.e, args.max_degree)
    else:
        coeffs = graded_dim_series(args.d0, args.d1, args.max_degree)
    print(" ".join(map(str, coeffs)))
    return 0


def cmd_verify(args) -> int:
    for flag, value in (("-N", args.max_degree), ("-M", args.max_mode),
                        ("--limit", args.limit)):
        if value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")
    fmt = args.format
    if args.what == "mackey":
        return _emit_report(mackey_verify(parse_group(args.group)), fmt)
    g = parse_group(args.group)
    if args.what != "euler":  # the suites that list every type to -N
        counts = type_counts(g, args.max_degree, LIMIT)
    if args.what in ("heisenberg", "all"):  # before any operator is built
        work = (2 * args.max_mode * g.num_classes) ** 2 * sum(counts)
        if work > MAX_HEISENBERG_WORK:
            raise ValueError(f"Heisenberg work (2 M classes)^2 x types = "
                             f"{work} exceeds cap {MAX_HEISENBERG_WORK}")
    if args.what == "hopf":
        return _emit_report(hopf_verify(g, args.max_degree,
                                        oracle_limit=args.limit), fmt)
    if args.what == "lambda":
        return _emit_report(lambda_verify(g, args.max_degree), fmt)
    if args.what == "heisenberg":
        return _emit_report(heisenberg_verify(g, args.max_degree,
                                              args.max_mode), fmt)
    x = parse_gset(args.gset, g)
    if args.what == "euler":
        return _emit_report(euler_verify(x, args.max_degree,
                                         limit=args.limit), fmt)
    # all: the euler suite's size is refused before any suite runs
    euler_limits(x, min(args.max_degree, 3), args.limit)
    rep = Report(f"verify_all({g.name}, N={args.max_degree})")
    rep.extend(hopf_verify(g, args.max_degree,
                           oracle_limit=args.limit).checks)
    rep.extend(lambda_verify(g, args.max_degree).checks)
    rep.extend(heisenberg_verify(g, args.max_degree, args.max_mode).checks)
    rep.extend(euler_verify(x, min(args.max_degree, 3),
                            limit=args.limit).checks)
    try:
        rep.extend(mackey_verify(g).checks)
    except GroupError as exc:
        rep.add("Mackey sweep skipped", True, str(exc))
    return _emit_report(rep, fmt)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wreathfock",
        description="Wreath-product Fock space computations and checks")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, group_required=True):
        p.add_argument("--group", required=group_required,
                       help="builtin:<name>, z2/s3/d4/q8/bd3 shorthand, "
                            "<name>:<param>, or a JSON file")
        p.add_argument("-N", "--max-degree", type=int, default=3)
        p.add_argument("--limit", type=int, default=LIMIT,
                       help="size cap for brute-force oracles; also "
                            "caps the types that wreath types/zrho list")
        p.add_argument("--format", choices=("table", "json"),
                       default="table")

    p = sub.add_parser("group", help="inspect a finite group")
    p.add_argument("what", choices=("info", "classes"))
    common(p)
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("wreath", help="types and classes of G_n")
    p.add_argument("what", choices=("types", "zrho", "classes"))
    common(p)
    p.set_defaults(func=cmd_wreath)

    p = sub.add_parser("series", help="q-series")
    p.add_argument("what", choices=("euler-product", "graded-dim", "mckay"))
    p.add_argument("-e", type=int, default=1,
                   help=f"euler-product exponent; |-e|, --d0, --d1 are at "
                        f"most {MAX_SERIES_EXPONENT}")
    p.add_argument("--d0", type=int, default=1)
    p.add_argument("--d1", type=int, default=0)
    p.add_argument("--group", help="for graded-dim: count types of this group")
    p.add_argument("-N", "--max-degree", type=int, default=5,
                   help=f"highest degree; at most {MAX_SERIES_DEGREE} "
                        "except for graded-dim --group")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("what", choices=("hopf", "lambda", "heisenberg", "euler",
                                    "mackey", "all"))
    common(p)
    p.add_argument("--gset", default="pt",
                   help="pt, regular, or a JSON file")
    p.add_argument("-M", "--max-mode", type=int, default=2)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
