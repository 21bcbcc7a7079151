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

from math import comb

from .arrangement import Arrangement
from .cech import CohomologyTable, default_window, lattice_cohomology_table
from .derivations import FreenessCertificate, freeness_certificate, multiply_vector
from .lattice import IntersectionLattice
from .linalg import RowReducer, sparse_kernel_basis
from .monomials import basis, dim_poly, monomial_tuples
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


def _negative_monomials(ell: int, e: int) -> tuple:
    """Exponent tuples a >= 1 with sum = -e (basis of the top local
    cohomology of S in degree e)."""
    if e > -ell:
        return ()
    return tuple(
        tuple(x + 1 for x in m) for m in monomial_tuples(ell, -e - ell)
    )


def dim_negative_piece(ell: int, e: int) -> int:
    return comb(-e - 1, ell - 1) if e <= -ell else 0


def _laurent_multiply(mono: tuple, neg: tuple) -> tuple | None:
    """x^mono * x^{-neg}, truncated to the all-negative orthant."""
    out = tuple(n - m for m, n in zip(mono, neg))
    if any(x < 1 for x in out):
        return None
    return out


def tensor_top_dim(
    arr: Arrangement, cert: FreenessCertificate, degrees
) -> dict[int, tuple[int, bool]]:
    """{d: (dim, stable)} of (derivation module tensor top structure
    cohomology) for each d in ``degrees``.

    For a certified-free module the tensor is the direct sum of degree-shifted
    copies of the negative orthant module.  Otherwise the relation images
    among the certificate's generators are accumulated from the syzygy pieces
    degree by degree until the span stabilizes; ``stable`` records
    stabilization.  The syzygy pieces are computed once for all of
    ``degrees``.
    """
    ell = arr.ell
    if cert.status == "free":
        return {
            d: (sum(dim_negative_piece(ell, d - e) for e in cert.exponents), True)
            for d in degrees
        }
    syzygies: dict[int, list[dict]] = {}
    return {d: _tensor_top_cell(arr, cert.generators, d, syzygies) for d in degrees}


def _tensor_top_cell(arr: Arrangement, gens, d: int, syzygies: dict) -> tuple[int, bool]:
    """(dim, stable) of the tensor term in degree d of a module that is not
    certified free; ``syzygies`` maps t to the syzygy space in degree t."""
    ell = arr.ell
    f = arr.field
    degrees = [g[0] for g in gens]
    neg_bases = [_negative_monomials(ell, d - e) for e in degrees]
    neg_index = [{m: i for i, m in enumerate(b)} for b in neg_bases]
    offsets = []
    total = 0
    for b in neg_bases:
        offsets.append(total)
        total += len(b)
    if total == 0:
        return 0, True

    red = RowReducer(f)
    stable_streak = 0
    t = d + ell
    e_max = max(degrees)
    # the scan gives up 2|A| + 6 degrees past the start or the top generator
    t_cap = max(d + ell, e_max) + 2 * arr.size + 6
    while t <= t_cap and stable_streak < 2:
        grew = False
        nu_basis = _negative_monomials(ell, d - t)
        if nu_basis:
            if t not in syzygies:
                syzygies[t] = _syzygy_space(arr, gens, t)
            for s in syzygies[t]:
                for nu in nu_basis:
                    vec: dict = {}
                    for col, c in s.items():
                        gi, mono_idx = _split_syzygy_col(ell, degrees, t, col)
                        mono = basis(ell, t - degrees[gi]).tuples[mono_idx]
                        hit = _laurent_multiply(mono, nu)
                        if hit is None:
                            continue
                        pos = offsets[gi] + neg_index[gi][hit]
                        w = f.add(vec.get(pos, f.zero), c)
                        if w == 0:
                            vec.pop(pos, None)
                        else:
                            vec[pos] = w
                    if vec and red.add_row(vec):
                        grew = True
        # no relation can live at or below the generator degrees, so quiet
        # early degrees say nothing about stabilization
        if t > e_max:
            stable_streak = 0 if grew else stable_streak + 1
        t += 1
    return total - red.rank, stable_streak >= 2


def _syzygy_space(arr: Arrangement, gens, t: int) -> list[dict]:
    """Kernel of (c_1, ..., c_a) -> sum c_i theta_i in degree t."""
    f = arr.field
    ell = arr.ell
    cols: list[dict] = []
    for (e, vec) in gens:
        src = basis(ell, t - e)
        for m in src.tuples:
            cols.append(multiply_vector(arr, vec, {m: f.one}, e))
    rows: dict[int, dict] = {}
    for j, col in enumerate(cols):
        for r, v in col.items():
            rows.setdefault(r, {})[j] = v
    return sparse_kernel_basis(f, list(rows.values()), len(cols))


def _split_syzygy_col(ell: int, degrees, t: int, col: int) -> tuple[int, int]:
    """Locate a syzygy column inside the per-generator block layout."""
    for gi, e in enumerate(degrees):
        n = dim_poly(ell, t - e)
        if col < n:
            return gi, col
        col -= n
    raise IndexError("syzygy column outside the generator blocks")


# ---------------------------------------------------------------------------
# cross-engine verification


def kunneth_verify(
    arr: Arrangement,
    cert: FreenessCertificate,
    lattice_table: CohomologyTable,
    punctured: PuncturedCohomologyResult,
) -> dict:
    """Cell-by-cell comparison of the two cohomology engines on the window
    and depth of the D run ``punctured``; ``lattice_table`` is a D table on
    a window that contains it.

    For n < ell-1 the stabilized punctured dims must equal the lattice dims;
    at n = ell-1 the punctured dim must dominate the direct-sum term (the
    correction term is out of reach and only the inequality is asserted).
    Unstable cells are excluded and listed.  A strict mismatch on a stable
    cell contradicts a proved identity and raises ConsistencyError.
    """
    ell = arr.ell
    window, kmax = punctured.window, punctured.kmax
    degrees = range(window[0], window[1] + 1)
    tensor_top = tensor_top_dim(arr, cert, degrees)

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
                # top level: the naive direct-sum decomposition is refuted by
                # exact computation (it overcounts exactly where the top
                # lattice cohomology is nonzero), so the comparison is
                # reported as an observation, never as a failure
                top = lattice_table.dim(ell - 1, d)
                tensor, tensor_stable = tensor_top[d]
                rhs = top + tensor
                stable = stable and tensor_stable
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
        kn = kunneth_verify(arr, cert, span_table, punctured)
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
