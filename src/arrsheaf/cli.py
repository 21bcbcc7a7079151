"""Command-line interface.

Subcommands: catalog, lattice, derivations, cohomology, oracle, freeness,
report, verify-kunneth.  Arrangements are read from a file path or from
standard input when the path is ``-``; the catalog subcommand emits the same
file format, so every pipeline stage is inspectable.

Exit codes: 0 success, 1 input error, 2 computation cap exceeded,
3 consistency failure.  JSON output is key-sorted and byte-stable across
runs for a fixed configuration.
"""

from __future__ import annotations

import argparse
import json
import sys

from .arrangement import (
    ArrangementError,
    CATALOG_SUMMARY,
    catalog,
    parse_arrangement,
    serialize_arrangement,
)
from .cech import (
    CapExceeded,
    default_window,
    lattice_cohomology_table,
)
from .derivations import derivation_space, freeness_certificate, vector_to_polys
from .diagnostics import ConsistencyError, build_report, kunneth_verify
from .lattice import build_lattice, lattice_json
from .monomials import basis
from .oracle import check_kmax, punctured_cohomology

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CAP = 2
EXIT_CONSISTENCY = 3


def _parse_window(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        window = (int(lo), int(hi))
    except ValueError:
        raise ArrangementError(f"bad window {text!r}; expected a:b") from None
    if window[0] > window[1]:
        raise ArrangementError(f"empty window {text!r}")
    return window


def _merge_window_flags(argv: list[str]) -> list[str]:
    """Join window flags with values like ``-6:6`` that argparse would
    otherwise read as options."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (
            tok in ("--window", "--kunneth-window")
            and i + 1 < len(argv)
            and argv[i + 1].startswith("-")
            and ":" in argv[i + 1]
        ):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _load(path: str):
    if path == "-":
        return parse_arrangement(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse_arrangement(fh.read())


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2))
    sys.stdout.write("\n")


def _table_lines(entries) -> list[str]:
    lines = ["   n    d   dim"]
    for item in entries:
        lines.append(f"{item['n']:4d} {item['d']:4d} {item['dim']:5d}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="arrsheaf",
        description="Exact lattice sheaf cohomology of hyperplane arrangements",
    )
    sub = parser.add_subparsers(dest="command")

    p_catalog = sub.add_parser("catalog", help="emit a named arrangement file")
    p_catalog.add_argument("name")
    p_catalog.add_argument("params", nargs="*", type=int)

    p_lattice = sub.add_parser("lattice", help="intersection lattice as JSON")
    p_lattice.add_argument("file")

    p_deriv = sub.add_parser("derivations", help="basis of one graded piece")
    p_deriv.add_argument("file")
    p_deriv.add_argument("--flat", type=int, required=True,
                         help="lattice element index (see the lattice subcommand)")
    p_deriv.add_argument("--degree", type=int, required=True)

    p_cohom = sub.add_parser("cohomology", help="lattice cohomology table")
    p_cohom.add_argument("file")
    p_cohom.add_argument("--functor", choices=["D", "O"], default="D")
    p_cohom.add_argument("--window", default=None)
    p_cohom.add_argument("--cover", choices=["minimal", "full"], default="minimal")
    p_cohom.add_argument("--kmax", type=int, default=8)
    p_cohom.add_argument("--format", choices=["json", "table"], default="json")

    p_oracle = sub.add_parser("oracle", help="punctured-spectrum cohomology")
    p_oracle.add_argument("file")
    p_oracle.add_argument("--module", choices=["D", "O"], default="D")
    p_oracle.add_argument("--cover", choices=["coords", "arrangement"], default="coords")
    p_oracle.add_argument("--window", default="-6:6")
    p_oracle.add_argument("--kmax", type=int, default=8)

    p_free = sub.add_parser("freeness", help="determinant-criterion certificate")
    p_free.add_argument("file")

    p_report = sub.add_parser("report", help="full diagnostics report")
    p_report.add_argument("file")
    p_report.add_argument("--window", default=None)
    p_report.add_argument("--kunneth-window", default="-6:6")
    p_report.add_argument("--kmax", type=int, default=8)
    p_report.add_argument("--skip-kunneth", action="store_true",
                          help="omit the cross-engine comparison (fast)")
    p_report.add_argument("--format", choices=["json", "table"], default="json")

    p_kun = sub.add_parser("verify-kunneth", help="cross-engine cell comparison")
    p_kun.add_argument("file")
    p_kun.add_argument("--window", default="-6:6")
    p_kun.add_argument("--kmax", type=int, default=8)

    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_window_flags(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage; keep the exit-code contract
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_INPUT

    try:
        if args.command == "catalog":
            try:
                arr = catalog(args.name, *args.params)
            except ArrangementError:
                sys.stderr.write("known catalog entries:\n")
                for name, desc in CATALOG_SUMMARY:
                    sys.stderr.write(f"  {name}: {desc}\n")
                raise
            sys.stdout.write(serialize_arrangement(arr))
            return EXIT_OK

        if args.command == "lattice":
            arr = _load(args.file)
            _emit(lattice_json(build_lattice(arr)))
            return EXIT_OK

        if args.command == "derivations":
            arr = _load(args.file)
            lattice = build_lattice(arr)
            if not 0 <= args.flat < len(lattice.elements):
                raise ArrangementError(
                    f"flat index {args.flat} outside 0..{len(lattice.elements) - 1}"
                )
            members = lattice.elements[args.flat].members
            space = derivation_space(arr, members, args.degree)
            mono = basis(arr.ell, args.degree)
            columns = []
            for vec in space.vectors:
                polys = vector_to_polys(vec, arr.ell, args.degree)
                entries = []
                for i, p in enumerate(polys):
                    for m in sorted(p, reverse=True):
                        entries.append(
                            {
                                "coordinate": i,
                                "monomial": list(m),
                                "coefficient": arr.field.to_str(p[m]),
                            }
                        )
                columns.append(entries)
            _emit(
                {
                    "arrangement": arr.label(),
                    "flat": args.flat,
                    "members": list(members),
                    "degree": args.degree,
                    "dim": space.dim,
                    "basis": columns,
                    "monomial_order": [list(m) for m in mono.tuples],
                }
            )
            return EXIT_OK

        if args.command == "cohomology":
            arr = _load(args.file)
            lattice = build_lattice(arr)
            window = (
                _parse_window(args.window) if args.window else default_window(arr)
            )
            table = lattice_cohomology_table(
                arr,
                lattice,
                args.functor,
                window,
                cover=args.cover,
                kmax=args.kmax,
            )
            payload = table.to_json(arr)
            if args.format == "table":
                sys.stdout.write("\n".join(_table_lines(payload["entries"])) + "\n")
            else:
                _emit(payload)
            return EXIT_OK

        if args.command == "oracle":
            arr = _load(args.file)
            lattice = build_lattice(arr) if args.cover == "arrangement" else None
            result = punctured_cohomology(
                arr,
                module=args.module,
                cover=args.cover,
                window=_parse_window(args.window),
                kmax=args.kmax,
                lattice=lattice,
            )
            _emit(result.to_json(arr))
            return EXIT_OK

        if args.command == "freeness":
            arr = _load(args.file)
            cert = freeness_certificate(arr)
            _emit({"arrangement": arr.label(), "certificate": cert.to_json()})
            return EXIT_OK

        if args.command == "report":
            arr = _load(args.file)
            lattice = build_lattice(arr)
            window = (
                _parse_window(args.window) if args.window else default_window(arr)
            )
            payload = build_report(
                arr,
                lattice,
                window=window,
                kunneth_window=_parse_window(args.kunneth_window),
                kmax=args.kmax,
                with_kunneth=not args.skip_kunneth,
            )
            if args.format == "table":
                lines = [
                    f"arrangement : {payload['arrangement']}",
                    f"ell, size   : {payload['ell']}, {payload['size']}",
                    f"free        : {payload['freeness']['free']}",
                    f"exponents   : {payload['freeness']['certificate']['exponents']}",
                    f"pd (lattice): {payload['pd_via_lattice']}",
                    f"pd (oracle) : "
                    f"{payload['pd_via_oracle']['pd'] if payload['pd_via_oracle'] else 'skipped'}",
                    f"factorization: {payload['factorization']['status']}",
                    f"window      : {payload['window']}",
                ]
                sys.stdout.write("\n".join(lines) + "\n")
            else:
                _emit(payload)
            return EXIT_OK

        if args.command == "verify-kunneth":
            arr = _load(args.file)
            lattice = build_lattice(arr)
            window = _parse_window(args.window)
            check_kmax(args.kmax)
            table = lattice_cohomology_table(arr, lattice, "D", window)
            punctured = punctured_cohomology(arr, "D", "coords", window, args.kmax)
            report = kunneth_verify(arr, freeness_certificate(arr), table, punctured)
            _emit(
                {
                    "arrangement": report["arrangement"],
                    "window": report["window"],
                    "kmax": report["kmax"],
                    "cells_checked": len(report["cells"]),
                    "mismatches": report["mismatches"],
                    "excluded_unstable": report["excluded_unstable"],
                    "all_match": not report["mismatches"],
                }
            )
            return EXIT_OK

        parser.print_usage(sys.stderr)
        return EXIT_INPUT

    except (ArrangementError, FileNotFoundError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except CapExceeded as exc:
        sys.stderr.write(f"computation cap exceeded: {exc}\n")
        return EXIT_CAP
    except ConsistencyError as exc:
        _emit({"status": "consistency-failure", "report": exc.report})
        return EXIT_CONSISTENCY


if __name__ == "__main__":
    sys.exit(main())
