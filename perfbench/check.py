"""Output checks for benchmark jobs, which all run ``report``.

``content`` extracts the mathematical content of a report that does not
depend on the workload seed (coordinates and hyperplane order); ``verify``
compares it with the stored reference and checks the report against
definitions recomputed from the report itself.  Nothing here looks at
formatting or at JSON fields it does not name, so those may change freely.
"""

from __future__ import annotations


def _cells(entries, keys) -> list:
    return sorted([e[k] for k in keys] for e in entries)


def content(payload: dict) -> dict:
    cert = payload["freeness"]["certificate"]
    oracle_pd = payload["pd_via_oracle"]
    out = {
        "lattice_table": _cells(payload["lattice_table"]["entries"], ("n", "d", "dim")),
        "freeness": cert["status"],
        "exponents": sorted(cert["exponents"]),
        "pd_via_lattice": payload["pd_via_lattice"],
        "pd_via_oracle": None if oracle_pd is None else oracle_pd["pd"],
    }
    kunneth = payload.get("kunneth")
    if kunneth is not None:
        out["kunneth"] = {
            "cells": _cells(kunneth["cells"],
                            ("n", "d", "oracle", "lattice_term", "stable", "match")),
            "mismatches": _cells(kunneth["mismatches"], ("n", "d")),
            "excluded_unstable": sorted(kunneth["excluded_unstable"]),
        }
    return out


def pd_by_definition(ell: int, entries) -> int:
    """Smallest p with H^n = 0 on the window for every 0 < n < ell-1-p."""
    middle = [e["n"] for e in entries if 0 < e["n"] < ell - 1 and e["dim"]]
    return ell - 1 - min(middle) if middle else 0


def inconsistencies(payload: dict) -> list[str]:
    problems = []
    pd_lat = payload["pd_via_lattice"]
    expected = pd_by_definition(payload["ell"], payload["lattice_table"]["entries"])
    if pd_lat != expected:
        problems.append(f"pd_via_lattice {pd_lat} != {expected} from the lattice table")
    if (payload["freeness"]["certificate"]["status"] == "free"
            and payload["factorization"]["status"] != "match"):
        problems.append("certified free but factorization is "
                        f"{payload['factorization']['status']}")
    oracle_pd = payload["pd_via_oracle"]
    if oracle_pd is not None and not oracle_pd["unstable"] and oracle_pd["pd"] != pd_lat:
        problems.append(f"pd_via_oracle {oracle_pd['pd']} != pd_via_lattice {pd_lat}")
    return problems


def verify(payload: dict, reference: dict) -> str | None:
    """None if the report passes every check, else what failed."""
    try:
        problems = inconsistencies(payload)
        if content(payload) != reference:
            problems.append("differs from the stored reference")
    except (KeyError, TypeError, IndexError) as exc:
        return f"output lacks an expected field ({exc!r})"
    return "; ".join(problems) or None
