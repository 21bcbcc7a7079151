"""Run the arrsheaf CLI in this process with spans around the package's layers.

    python3 tracer.py SPANS.json ARG...

ARG... are the CLI arguments, as for ``python3 -m arrsheaf.cli``.  Every
function named in HOOKS is replaced, in the namespace of every arrsheaf
module that holds it (the package imports with ``from .linalg import
sparse_rank``), by a wrapper that records a span: name, start, end, the
index of the enclosing span and a few counts.  Spans stay in memory and are
written to SPANS.json when the CLI returns.  A hook that no longer resolves
stops the run with exit code 4, so a rename cannot silently drop a layer.

``layer_metrics`` turns the spans into the per-layer figures; it needs no
arrsheaf import, so run.py imports this module as well.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

LOST_HOOK_EXIT = 4


def _rank_counts(args, kwargs, result):
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    return {"rows": len(rows), "nnz": sum(len(r) for r in rows), "rank": result}


# (module under arrsheaf, attribute path, span name,
#  counts from (args, kwargs, result) or None)
HOOKS = (
    ("arrangement", "parse_arrangement", "arrangement.parse", None),
    ("lattice", "build_lattice", "lattice.build",
     lambda args, kwargs, r: {"flats": len(r.elements)}),
    ("derivations", "freeness_certificate", "derivations.certificate", None),
    ("derivations", "minimal_generators", "derivations.generators", None),
    ("derivations", "DerivationEngine.space_basis", "derivations.space_basis", None),
    ("cech", "lattice_cohomology_table", "cech.table",
     lambda args, kwargs, r: {"cells": len(r.entries)}),
    ("oracle", "punctured_cohomology", "oracle.punctured",
     lambda args, kwargs, r: {"unstable": len(r.unstable)}),
    ("oracle", "TruncatedEngine.dims_at", "oracle.dims_at", None),
    ("oracle", "TruncatedEngine.tuple_space", "oracle.tuple_space", None),
    ("linalg", "sparse_rank", "linalg.rank", _rank_counts),
    ("linalg", "sparse_kernel_basis", "linalg.kernel", None),
    ("linalg", "RowReducer.add_row", "linalg.add_row", None),
    ("diagnostics", "build_report", "diagnostics.report", None),
    ("diagnostics", "kunneth_verify", "diagnostics.kunneth", None),
    ("oracle", "pd_oracle", "diagnostics.pd_oracle", None),
    ("diagnostics", "tensor_top_dim", "diagnostics.tensor_top", None),
)


def layer_metrics(jobs) -> dict[str, float]:
    """Per-layer metrics summed over the span lists of several jobs.

    Every ``_s`` is self time: a span's duration minus the part of it that
    its child spans cover.
    """
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    max_rows = 0
    for spans in jobs:
        covered = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, _, attrs) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - covered[i]
            for key, value in (attrs or {}).items():
                counts[f"{name}.{key}"] += value
            if name == "linalg.rank" and attrs:
                max_rows = max(max_rows, attrs["rows"])
    rows = counts["linalg.rank.rows"]
    return {
        "arrangement.parse_s": self_s["arrangement.parse"],
        "lattice.build_s": self_s["lattice.build"],
        "lattice.flats": counts["lattice.build.flats"],
        "derivations.certificate_calls": calls["derivations.certificate"],
        "derivations.certificate_s": self_s["derivations.certificate"],
        "derivations.generators_s": self_s["derivations.generators"],
        "derivations.space_basis_calls": calls["derivations.space_basis"],
        "derivations.space_basis_s": self_s["derivations.space_basis"],
        "cech.table_calls": calls["cech.table"],
        "cech.table_s": self_s["cech.table"],
        "cech.cells": counts["cech.table.cells"],
        "oracle.punctured_calls": calls["oracle.punctured"],
        "oracle.punctured_s": self_s["oracle.punctured"],
        "oracle.dims_at_calls": calls["oracle.dims_at"],
        "oracle.dims_at_s": self_s["oracle.dims_at"],
        "oracle.tuple_space_calls": calls["oracle.tuple_space"],
        "oracle.tuple_space_s": self_s["oracle.tuple_space"],
        "oracle.unstable_cells": counts["oracle.punctured.unstable"],
        "linalg.rank_calls": calls["linalg.rank"],
        "linalg.rank_s": self_s["linalg.rank"],
        "linalg.rank_rows": counts["linalg.rank.rows"],
        "linalg.rank_nnz": counts["linalg.rank.nnz"],
        "linalg.rank_max_rows": max_rows,
        "linalg.rank_yield": counts["linalg.rank.rank"] / rows if rows else 0.0,
        "linalg.kernel_calls": calls["linalg.kernel"],
        "linalg.kernel_s": self_s["linalg.kernel"],
        "linalg.add_row_calls": calls["linalg.add_row"],
        "linalg.add_row_s": self_s["linalg.add_row"],
        "diagnostics.report_s": self_s["diagnostics.report"],
        "diagnostics.kunneth_s": self_s["diagnostics.kunneth"],
        "diagnostics.pd_oracle_s": self_s["diagnostics.pd_oracle"],
        "diagnostics.tensor_top_s": self_s["diagnostics.tensor_top"],
    }


def _install(spans: list, stack: list) -> None:
    import importlib

    loaded = [m for name, m in list(sys.modules.items())
              if name == "arrsheaf" or name.startswith("arrsheaf.")]
    for module_name, path, span_name, count in HOOKS:
        owner = importlib.import_module(f"arrsheaf.{module_name}")
        try:
            for part in path.split(".")[:-1]:
                owner = getattr(owner, part)
            attr = path.rsplit(".", 1)[-1]
            original = getattr(owner, attr)
        except AttributeError:
            sys.stderr.write(f"perfbench: lost hook arrsheaf.{module_name}.{path}\n")
            sys.exit(LOST_HOOK_EXIT)
        wrapper = _wrap(original, span_name, count, spans, stack)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            continue
        for module in loaded:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)


def _wrap(fn, name: str, count, spans: list, stack: list):
    clock = time.perf_counter
    listify = name == "linalg.rank"

    def wrapper(*args, **kwargs):
        if listify:  # rows may be a one-shot iterable; count them afterwards
            if len(args) > 1:
                args = (args[0], list(args[1]), *args[2:])
            else:
                kwargs["rows"] = list(kwargs["rows"])
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = clock()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = clock()
            stack.pop()
            attrs = count(args, kwargs, result) if count and result is not None else None
            spans[index] = (name, start, end, parent, attrs)

    wrapper.__wrapped__ = fn
    return wrapper


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    import arrsheaf.cli

    import_s = time.perf_counter() - start
    spans: list = []
    _install(spans, [])
    code = arrsheaf.cli.main(cli_args)
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "spans": spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
