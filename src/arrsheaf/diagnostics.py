"""Headline verdicts: freeness, projective dimension, cross-engine checks.

Every verdict carries its provenance.  The determinant-criterion certificate
is the only unconditional statement; everything read off a cohomology table
is scoped to the degree window (and truncation levels) it was computed on.
A disagreement between the exact certificate and an observed nonvanishing
cell, or a cross-engine dimension mismatch on a stable cell, contradicts a
proved equivalence and is therefore raised as a structured consistency
failure rather than returned as data.
"""

from __future__ import annotations

from .arrangement import Arrangement
from .cech import CohomologyTable, default_window, lattice_cohomology_table
from .derivations import FreenessCertificate, engine_for, freeness_certificate
from .lattice import IntersectionLattice
from .oracle import (
    PuncturedCohomologyResult,
    check_kmax,
    pd_from_middle_levels,
    pd_oracle,
    punctured_cohomology,
)


class ConsistencyError(RuntimeError):
    """A proved identity failed numerically; carries the structured report."""

    def __init__(self, report: dict):
        super().__init__(report.get("message", "consistency failure"))
        self.report = report


# ---------------------------------------------------------------------------
# freeness and projective dimension


def vanishing_summary(table: CohomologyTable, ell: int) -> dict:
    """Per-level summary of nonzero cells in the open range 0 < n < ell-1."""
    nonzero: dict[int, list[int]] = {}
    for (n, d), dim in sorted(table.entries.items()):
        if 0 < n < ell - 1 and dim:
            nonzero.setdefault(n, []).append(d)
    return {
        "window": list(table.window),
        "vanishes": not nonzero,
        "nonzero_cells": {str(n): ds for n, ds in sorted(nonzero.items())},
    }


def freeness_verdict(
    arr: Arrangement, cert: FreenessCertificate, table: CohomologyTable
) -> dict:
    """Combine the exact certificate with the vanishing of the D table
    ``table`` on its window."""
    summary = vanishing_summary(table, arr.ell)
    verdict = {
        "certificate": cert.to_json(),
        "lattice_vanishing": summary,
        "free": cert.status == "free",
    }
    if cert.status == "free" and not summary["vanishes"]:
        raise ConsistencyError(
            {
                "message": "certified-free arrangement has nonvanishing lattice "
                "cohomology in the freeness range",
                "arrangement": arr.label(),
                "verdict": verdict,
            }
        )
    if cert.status == "not-free" and summary["vanishes"] and arr.ell > 2:
        verdict["note"] = (
            "no nonvanishing witness inside the window; the criterion "
            "guarantees one in some degree"
        )
    return verdict


# ---------------------------------------------------------------------------
# the tensor term at the top level


def tensor_top_dim(arr: Arrangement, degrees) -> dict[int, int]:
    """{d: dim} of the tensor term D(A) (x) H^ell_m(S) = H^ell_m(D(A)) for
    each d in ``degrees``.  By graded local duality (Bruns-Herzog 3.6.19)
    its degree-d piece has the dimension of Hom_S(D(A), S)_{-d-ell}, which
    :meth:`DerivationEngine.dual_dim` computes exactly."""
    eng = engine_for(arr)
    return {d: eng.dual_dim(-d - arr.ell) for d in degrees}


# ---------------------------------------------------------------------------
# cross-engine verification


def kunneth_verify(
    arr: Arrangement,
    lattice_table: CohomologyTable,
    punctured: PuncturedCohomologyResult,
) -> dict:
    """Cell-by-cell comparison of the two cohomology engines on the window
    and depth of the D run ``punctured``; ``lattice_table`` is a D table on
    a window that contains it.

    For n < ell-1 the stabilized punctured dims must equal the lattice dims.
    At n = ell-1 a cell records the lattice top cell plus the tensor term
    (:func:`tensor_top_dim`) as ``lattice_term`` and ``match`` says whether
    the punctured dim reaches that sum; the comparison is informational and
    a cell short of it is listed in ``top_bound_failures``, never raised.
    The theorem there is H^{ell-1}(U, D~) = H^ell_m(D) = D (x) H^ell_m(S),
    because top local cohomology is right exact: the punctured top cell is
    the tensor term alone, so the sum exceeds it wherever the lattice top
    cell is nonzero (braid-3 at d = 0 reads 1 against 2).  Unstable cells
    are excluded and listed.  A mismatch on a stable cell below the top
    level contradicts a proved identity and raises ConsistencyError.
    """
    ell = arr.ell
    window, kmax = punctured.window, punctured.kmax
    degrees = range(window[0], window[1] + 1)
    tensor_top = tensor_top_dim(arr, degrees)

    cells = []
    mismatches = []
    excluded = []
    top_bound_failures = []
    for n in range(0, ell):
        for d in degrees:
            lhs = punctured.dim(n, d)
            stable = punctured.is_stable(n, d)
            if n < ell - 1:
                rhs = lattice_table.dim(n, d)
                match = lhs == rhs
                kind = "equality"
            else:
                rhs = lattice_table.dim(ell - 1, d) + tensor_top[d]
                match = lhs >= rhs
                kind = "top-informational"
            cell = {
                "n": n,
                "d": d,
                "oracle": lhs,
                "lattice_term": rhs,
                "kind": kind,
                "stable": stable,
                "match": bool(match),
            }
            cells.append(cell)
            if not stable:
                excluded.append((n, d))
            elif not match:
                if kind == "equality":
                    mismatches.append(cell)
                else:
                    top_bound_failures.append(cell)
    report = {
        "arrangement": arr.label(),
        "window": list(window),
        "kmax": kmax,
        "cells": cells,
        "excluded_unstable": [list(c) for c in excluded],
        "mismatches": mismatches,
        "top_bound_failures": top_bound_failures,
    }
    if mismatches:
        raise ConsistencyError(
            {
                "message": "cross-engine cohomology mismatch on stable cells "
                "below the top level",
                "arrangement": arr.label(),
                "mismatches": mismatches,
            }
        )
    return report


def factorization_check(arr: Arrangement, lattice: IntersectionLattice,
                        cert: FreenessCertificate) -> dict:
    """chi(t) = prod (t - e_i) for certified-free arrangements, exactly."""
    if cert.status != "free":
        return {"status": "not-applicable", "certificate": cert.status}
    chi = list(lattice.characteristic_polynomial())
    expected = [1]
    for e in cert.exponents:
        nxt = [0] * (len(expected) + 1)
        for i, c in enumerate(expected):
            nxt[i + 1] += c
            nxt[i] -= c * e
        expected = nxt
    match = expected == chi
    result = {
        "status": "match" if match else "mismatch",
        "characteristic_polynomial": chi,
        "exponent_product": expected,
        "exponents": list(cert.exponents),
    }
    if not match:
        raise ConsistencyError(
            {
                "message": "factorization failure on a certified-free arrangement",
                "arrangement": arr.label(),
                "result": result,
            }
        )
    return result


# ---------------------------------------------------------------------------
# the assembled report


def build_report(
    arr: Arrangement,
    lattice: IntersectionLattice,
    window: tuple[int, int] | None = None,
    kunneth_window: tuple[int, int] = (-6, 6),
    kmax: int = 8,
    with_kunneth: bool = True,
) -> dict:
    """Freeness, pd from both engines, factorization and the cross-engine
    cells, as the JSON payload.  The certificate, the lattice table and the
    punctured-spectrum run are computed once and handed to every verdict
    that reads them.  A D cell depends on its degree only, so one table on
    the span of the report and Kunneth windows serves both, each degree
    computed once.  ``kmax`` is checked up front, so a report without the
    Kunneth cells rejects the depths the oracle rejects."""
    check_kmax(kmax)
    window = window or default_window(arr)
    span = window
    if with_kunneth:
        span = (min(window[0], kunneth_window[0]), max(window[1], kunneth_window[1]))
    span_table = lattice_cohomology_table(arr, lattice, "D", span)
    table = span_table.restricted(window)
    cert = freeness_certificate(arr)
    verdict = freeness_verdict(arr, cert, table)
    pd_lat = pd_from_middle_levels(table.entries, arr.ell)
    payload = {
        "arrangement": arr.label(),
        "ell": arr.ell,
        "size": arr.size,
        "window": list(window),
        "kmax": kmax,
        "freeness": verdict,
        "pd_via_lattice": pd_lat,
        "pd_via_oracle": None,
        "factorization": factorization_check(arr, lattice, cert),
        "lattice_table": table.to_json(arr),
    }
    if with_kunneth:
        punctured = punctured_cohomology(arr, "D", "coords", kunneth_window, kmax)
        oracle_pd = pd_oracle(arr, punctured)
        payload["pd_via_oracle"] = oracle_pd
        kn = kunneth_verify(arr, span_table, punctured)
        payload["kunneth"] = {
            "window": kn["window"],
            "cells": kn["cells"],
            "mismatches": kn["mismatches"],
            "excluded_unstable": kn["excluded_unstable"],
            "top_bound_failures": kn["top_bound_failures"],
            "cells_checked": len(kn["cells"]),
        }
        if oracle_pd["pd"] != pd_lat and not oracle_pd["unstable"]:
            raise ConsistencyError(
                {
                    "message": "projective dimension disagreement between engines",
                    "arrangement": arr.label(),
                    "pd_via_lattice": pd_lat,
                    "pd_via_oracle": oracle_pd,
                }
            )
    return payload
