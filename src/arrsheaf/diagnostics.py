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

from dataclasses import dataclass
from math import comb

from .arrangement import Arrangement
from .cech import CohomologyTable, default_window, lattice_cohomology_table
from .derivations import (
    FreenessCertificate,
    engine_for,
    freeness_certificate,
    minimal_generators,
    multiply_vector,
)
from .lattice import IntersectionLattice
from .linalg import RowReducer, sparse_kernel_basis
from .monomials import basis, dim_poly, monomial_tuples
from .oracle import (
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
    arr: Arrangement,
    lattice: IntersectionLattice,
    window: tuple[int, int] | None = None,
    table: CohomologyTable | None = None,
) -> dict:
    """Combine the exact certificate with window-scoped lattice vanishing."""
    window = window or default_window(arr)
    cert = freeness_certificate(arr)
    if table is None:
        table = lattice_cohomology_table(arr, lattice, "D", window)
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


def pd_via_lattice(
    arr: Arrangement,
    lattice: IntersectionLattice,
    window: tuple[int, int] | None = None,
    table: CohomologyTable | None = None,
) -> int:
    """Smallest p with H^n vanishing on the window for 0 < n < ell-1-p."""
    window = window or default_window(arr)
    if table is None:
        table = lattice_cohomology_table(arr, lattice, "D", window)
    return pd_from_middle_levels(table.entries, arr.ell)


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
    arr: Arrangement,
    exponents,
    d: int,
    free: bool,
) -> tuple[int, bool]:
    """dim of (derivation module tensor top structure cohomology) in degree d.

    For a certified-free module the tensor is the direct sum of degree-shifted
    copies of the negative orthant module.  Otherwise the relation images are
    accumulated from the syzygy pieces degree by degree until the span
    stabilizes; the second return value records stabilization.
    """
    ell = arr.ell
    if free:
        return sum(dim_negative_piece(ell, d - e) for e in exponents), True

    gens = minimal_generators(arr, arr.size)
    f = arr.field
    eng = engine_for(arr)
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
            syz = _syzygy_space(arr, gens, t)
            for s in syz:
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


_syzygy_cache: dict = {}


def _syzygy_space(arr: Arrangement, gens, t: int) -> list[dict]:
    """Kernel of (c_1, ..., c_a) -> sum c_i theta_i in degree t."""
    key = (arr, tuple(g[0] for g in gens), t)
    hit = _syzygy_cache.get(key)
    if hit is not None:
        return hit
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
    hit = sparse_kernel_basis(f, list(rows.values()), len(cols))
    _syzygy_cache[key] = hit
    return hit


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
    lattice: IntersectionLattice,
    window: tuple[int, int] = (-6, 6),
    kmax: int = 8,
    lattice_table: CohomologyTable | None = None,
    oracle_result=None,
) -> dict:
    """Cell-by-cell comparison of the two cohomology engines.

    For n < ell-1 the stabilized punctured dims must equal the lattice dims;
    at n = ell-1 the punctured dim must dominate the direct-sum term (the
    correction term is out of reach and only the inequality is asserted).
    Unstable cells are excluded and listed.  A strict mismatch on a stable
    cell contradicts a proved identity and raises ConsistencyError.
    """
    ell = arr.ell
    if lattice_table is None:
        lattice_table = lattice_cohomology_table(arr, lattice, "D", window)
    if oracle_result is None:
        oracle_result = punctured_cohomology(arr, "D", "coords", window, kmax)
    cert = freeness_certificate(arr)
    free = cert.status == "free"
    exponents = cert.exponents if free else ()

    cells = []
    mismatches = []
    excluded = []
    top_bound_failures = []
    degrees = range(window[0], window[1] + 1)
    for n in range(0, ell):
        for d in degrees:
            lhs = oracle_result.dim(n, d)
            stable = oracle_result.is_stable(n, d)
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
                tensor, tensor_stable = tensor_top_dim(arr, exponents, d, free)
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
                        cert: FreenessCertificate | None = None) -> dict:
    """chi(t) = prod (t - e_i) for certified-free arrangements, exactly."""
    cert = cert or freeness_certificate(arr)
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


@dataclass(frozen=True)
class DiagnosticsReport:
    payload: dict

    def to_json(self) -> dict:
        return self.payload


def build_report(
    arr: Arrangement,
    lattice: IntersectionLattice,
    window: tuple[int, int] | None = None,
    kunneth_window: tuple[int, int] = (-6, 6),
    kmax: int = 8,
    with_kunneth: bool = True,
) -> DiagnosticsReport:
    """Freeness, pd from both engines, factorization and the cross-engine
    cells.  The lattice table and the punctured-spectrum run are computed
    once and shared by every verdict that reads them.  ``kmax`` is checked
    up front, so a report without the Kunneth cells rejects the depths the
    oracle rejects."""
    check_kmax(kmax)
    window = window or default_window(arr)
    table = lattice_cohomology_table(arr, lattice, "D", window)
    verdict = freeness_verdict(arr, lattice, window, table=table)
    pd_lat = pd_via_lattice(arr, lattice, window, table=table)
    payload = {
        "arrangement": arr.label(),
        "ell": arr.ell,
        "size": arr.size,
        "window": list(window),
        "kmax": kmax,
        "freeness": verdict,
        "pd_via_lattice": pd_lat,
        "pd_via_oracle": None,
        "factorization": factorization_check(arr, lattice),
        "lattice_table": table.to_json(arr),
    }
    if with_kunneth:
        punctured = punctured_cohomology(arr, "D", "coords", kunneth_window, kmax)
        oracle_pd = pd_oracle(arr, kunneth_window, kmax, punctured=punctured)
        payload["pd_via_oracle"] = oracle_pd
        # a D cell depends on its degree only, so the report's own table
        # serves every degree of a Kunneth window inside the report window
        inside = window[0] <= kunneth_window[0] and kunneth_window[1] <= window[1]
        kn = kunneth_verify(arr, lattice, kunneth_window, kmax,
                            lattice_table=table if inside else None,
                            oracle_result=punctured)
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
    return DiagnosticsReport(payload)
