"""Acceptance battery.

One test per criterion, each printing a PASS/FAIL line (run pytest with -s
to watch them).  Heavy intermediate results are shared through session
fixtures so the suite stays within a desk-scale time budget.
"""

import json
import random
from math import comb

import pytest

from arrsheaf.arrangement import catalog, cofactor_forms, serialize_arrangement
from arrsheaf.cech import (
    DerivationFunctor,
    StructureFunctor,
    acyclicity_probe,
    default_window,
    lattice_cohomology_table,
)
from arrsheaf.derivations import freeness_certificate
from arrsheaf.diagnostics import factorization_check, tensor_top_dim
from arrsheaf.lattice import build_lattice
from arrsheaf.oracle import (
    localization_identity_check,
    pd_from_middle_levels,
    pd_oracle,
    punctured_cohomology,
)

KUNNETH_WINDOW = (-6, 6)
KMAX = 8

FREE_ENTRIES = [
    ("boolean", (2,)),
    ("boolean", (3,)),
    ("boolean", (4,)),
    ("braid", (2,)),
    ("braid", (3,)),
    ("braid", (4,)),
]
NONFREE_ENTRIES = [("generic", (3, 4)), ("generic", (3, 5)), ("generic", (3, 6))]
# punctured-spectrum runs are desk-feasible at ell <= 3 only
ORACLE_FREE_ENTRIES = [("boolean", (2,)), ("boolean", (3,)), ("braid", (2,)), ("braid", (3,))]
KUNNETH_ENTRIES = [("braid", (3,))] + NONFREE_ENTRIES


def report(criterion: str, ok: bool, detail: str = "") -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}" + (f": {detail}" if detail else ""))
    return ok


@pytest.fixture(scope="session")
def arrangements():
    out = {}
    for name, params in FREE_ENTRIES + NONFREE_ENTRIES:
        arr = catalog(name, *params)
        out[arr.name] = arr
    return out


@pytest.fixture(scope="session")
def lattices(arrangements):
    return {label: build_lattice(arr) for label, arr in arrangements.items()}


@pytest.fixture(scope="session")
def oracle_results(arrangements):
    """Stabilized punctured-spectrum runs shared by criteria 4 and 5, one
    per entry (braid-3 is in both lists)."""
    out = {}
    for name, params in ORACLE_FREE_ENTRIES + KUNNETH_ENTRIES:
        arr = arrangements[catalog(name, *params).name]
        if arr.name not in out:
            out[arr.name] = punctured_cohomology(
                arr, "D", "coords", KUNNETH_WINDOW, KMAX
            )
    return out


@pytest.fixture(scope="session")
def lattice_tables(arrangements, lattices):
    """Derivation tables over each entry's default acceptance window."""
    out = {}
    for label, arr in arrangements.items():
        out[label] = lattice_cohomology_table(
            arr, lattices[label], "D", default_window(arr)
        )
    return out


def closed_form_structure(ell: int, n: int, d: int) -> int:
    if n == 0:
        return comb(d + ell - 1, ell - 1) if d >= 0 else 0
    if n == ell - 1:
        return comb(-d - 1, ell - 1) if d <= -ell else 0
    return 0


def test_criterion_1_structure_sheaf_closed_form(arrangements, lattices):
    """Structure functor tables over [-8, 8] equal the closed form exactly.

    The deepest negative degrees of the ell = 2 entry stabilize (three
    consecutive equal truncations) only at level 9, so the scan allows 10.
    """
    window = (-8, 8)
    failures = []
    for name, params in [("boolean", (2,)), ("boolean", (3,)), ("braid", (3,)),
                         ("generic", (3, 4))]:
        arr = arrangements[catalog(name, *params).name]
        table = lattice_cohomology_table(
            arr, lattices[arr.name], "O", window, kmax=10
        )
        if table.unstable:
            failures.append((arr.name, "unstable-cells", table.unstable))
            continue
        for (n, d), dim in table.entries.items():
            expected = closed_form_structure(arr.ell, n, d)
            if dim != expected:
                failures.append((arr.name, n, d, dim, expected))
    assert report(
        "criterion-1 structure-sheaf closed form", not failures, str(failures[:5])
    )


def test_criterion_2_freeness_criterion(arrangements, lattices, lattice_tables):
    """Free entries: certificate + vanishing; generic: not-free + H^1 witness."""
    failures = []
    for name, params in FREE_ENTRIES:
        arr = arrangements[catalog(name, *params).name]
        cert = freeness_certificate(arr)
        if cert.status != "free":
            failures.append((arr.name, "certificate", cert.status))
            continue
        table = lattice_tables[arr.name]
        lo, hi = table.window
        bad = [
            (n, d)
            for n in range(1, arr.ell - 1)
            for d in range(lo, hi + 1)
            if table.dim(n, d) != 0
        ]
        if bad:
            failures.append((arr.name, "nonvanishing", bad[:4]))
    for name, params in NONFREE_ENTRIES:
        arr = arrangements[catalog(name, *params).name]
        cert = freeness_certificate(arr)
        if cert.status != "not-free":
            failures.append((arr.name, "certificate", cert.status))
            continue
        table = lattice_tables[arr.name]
        lo, hi = table.window
        witnesses = [d for d in range(lo, hi + 1) if table.dim(1, d) != 0]
        if not witnesses:
            failures.append((arr.name, "no-H1-witness"))
    assert report("criterion-2 freeness criterion", not failures, str(failures))


def test_criterion_3_factorization(arrangements, lattices):
    """chi factors over the certificate exponents on every free entry."""
    failures = []
    for name, params in FREE_ENTRIES:
        arr = arrangements[catalog(name, *params).name]
        out = factorization_check(arr, lattices[arr.name], freeness_certificate(arr))
        if out["status"] != "match":
            failures.append((arr.name, out))
            continue
        ell = arr.ell
        expected = tuple([1] * ell) if name == "boolean" else tuple(range(1, ell + 1))
        if tuple(out["exponents"]) != expected:
            failures.append((arr.name, "exponents", out["exponents"]))
    for n in (4, 5, 6):
        arr = catalog("near-pencil", n)
        out = factorization_check(arr, build_lattice(arr), freeness_certificate(arr))
        if out["status"] != "match" or tuple(out["exponents"]) != (1, 1, n - 2):
            failures.append((arr.name, out))
    assert report("criterion-3 factorization", not failures, str(failures))


def test_criterion_4_kunneth_cells(arrangements, lattices, oracle_results):
    """Cross-engine equality for n in {0, 1} on [-6, 6]; unstable <= 10%."""
    failures = []
    unstable_listing = {}
    for name, params in KUNNETH_ENTRIES:
        arr = arrangements[catalog(name, *params).name]
        table = lattice_cohomology_table(
            arr, lattices[arr.name], "D", KUNNETH_WINDOW
        )
        oracle = oracle_results[arr.name]
        cells = [(n, d) for n in (0, 1) for d in range(KUNNETH_WINDOW[0], KUNNETH_WINDOW[1] + 1)]
        unstable = [c for c in cells if not oracle.is_stable(*c)]
        unstable_listing[arr.name] = unstable
        if len(unstable) > 0.10 * len(cells):
            failures.append((arr.name, "too-many-unstable", len(unstable), len(cells)))
        for (n, d) in cells:
            if (n, d) in unstable:
                continue
            if table.dim(n, d) != oracle.dim(n, d):
                failures.append((arr.name, n, d, table.dim(n, d), oracle.dim(n, d)))
    assert report(
        "criterion-4 kunneth cells",
        not failures,
        f"failures={failures[:5]} unstable={unstable_listing}",
    )


def test_top_cell_is_the_tensor_term(arrangements, oracle_results):
    """H^{ell-1}(U, D~) = H^ell_m(D) = D (x) H^ell_m(S), since top local
    cohomology is right exact: every stable top cell of the oracle equals
    the tensor term."""
    degrees = range(KUNNETH_WINDOW[0], KUNNETH_WINDOW[1] + 1)
    failures = []
    for label, oracle in oracle_results.items():
        arr = arrangements[label]
        tensor = tensor_top_dim(arr, degrees)
        for d in degrees:
            n = arr.ell - 1
            if oracle.is_stable(n, d) and oracle.dim(n, d) != tensor[d]:
                failures.append((label, d, oracle.dim(n, d), tensor[d]))
    assert report("top cell is the tensor term", not failures, str(failures))


def test_criterion_5_projective_dimension(arrangements, lattice_tables, oracle_results):
    """pd agrees between engines: 0 on free entries, 1 on generic(3, n>=4)."""
    failures = []
    for name, params in ORACLE_FREE_ENTRIES:
        arr = arrangements[catalog(name, *params).name]
        p_lat = pd_from_middle_levels(lattice_tables[arr.name].entries, arr.ell)
        p_orc = pd_oracle(arr, oracle_results[arr.name])
        if p_orc["unstable"]:
            failures.append((arr.name, "unstable", p_orc["unstable"]))
        if not (p_lat == p_orc["pd"] == 0):
            failures.append((arr.name, p_lat, p_orc["pd"]))
    for name, params in NONFREE_ENTRIES:
        arr = arrangements[catalog(name, *params).name]
        p_lat = pd_from_middle_levels(lattice_tables[arr.name].entries, arr.ell)
        # the oracle grid is shared with criterion 4
        oracle = oracle_results[arr.name]
        lowest = None
        for (n, d), dim in sorted(oracle.entries.items()):
            i = n + 1  # local cohomology index
            if 1 <= n and i < arr.ell and dim and oracle.is_stable(n, d):
                lowest = i if lowest is None else min(lowest, i)
        p_orc = 0 if lowest is None else arr.ell - lowest
        if not (p_lat == p_orc == 1):
            failures.append((arr.name, p_lat, p_orc))
    assert report("criterion-5 projective dimension", not failures, str(failures))


def test_criterion_6_localization_identity(arrangements):
    """>= 50 sampled (X, Y, d, K) per entry certify the localization identity
    through the two exact truncation inclusions."""
    rng = random.Random(2026)
    failures = []
    entries = [
        ("boolean", (2,), (-2, 3), 3),
        ("boolean", (3,), (-2, 3), 3),
        ("braid", (2,), (-2, 3), 3),
        ("braid", (3,), (-2, 3), 2),
        ("generic", (3, 4), (-2, 3), 2),
        ("boolean", (4,), (-1, 2), 1),
        ("braid", (4,), (0, 1), 1),
    ]
    for name, params, (d_lo, d_hi), k_hi in entries:
        arr = catalog(name, *params)
        lat = build_lattice(arr)
        flats = list(range(len(lat.elements)))  # the identity covers all flats
        for _ in range(50):
            x, y = rng.choice(flats), rng.choice(flats)
            d, k = rng.randint(d_lo, d_hi), rng.randint(0, k_hi)
            out = localization_identity_check(arr, lat, x, y, d, k)
            if not (out["forward_inclusion"] and out["backward_inclusion"]):
                failures.append((arr.name, x, y, d, k, out))
    assert report("criterion-6 localization identity", not failures, str(failures[:3]))


def test_criterion_7_poset_sheaf_properties(arrangements, lattices):
    """Acyclicity on principal opens, vanishing above the poset dimension,
    and full-cover / minimal-subcover agreement."""
    failures = []
    rng = random.Random(7)
    probes = 0
    for label in ("boolean-2", "braid-3", "generic-3-4"):
        arr = arrangements[label]
        lat = lattices[label]
        f_d = DerivationFunctor(arr, lat)
        f_o = StructureFunctor(arr, lat, truncation=2)
        l0 = lat.l0_indices()
        for _ in range(4):
            flat = rng.choice(l0)
            d = rng.randint(0, 2)
            for functor in (f_d, f_o):
                dims = acyclicity_probe(arr, lat, functor, flat, d)
                probes += 1
                if dims[0] != functor.section_dim(flat, d) or any(
                    v for n, v in dims.items() if n > 0
                ):
                    failures.append((label, flat, d, functor.label, dims))
    if probes < 20:
        failures.append(("not-enough-probes", probes))

    # vanishing above the poset dimension, on the probe complexes themselves
    for label in ("boolean-2", "braid-3"):
        arr = arrangements[label]
        lat = lattices[label]
        f_d = DerivationFunctor(arr, lat)
        dims = acyclicity_probe(arr, lat, f_d, lat.l0_minimal_indices()[0], 2)
        if any(v for n, v in dims.items() if n > arr.ell - 1):
            failures.append((label, "vanishing-above-dim", dims))

    # full vs minimal covers on the ell = 2, 3 catalog entries
    for label in ("boolean-2", "braid-2", "boolean-3", "braid-3", "generic-3-4"):
        arr = arrangements[label]
        lat = lattices[label]
        for d in (0, 1, 2):
            t_min = lattice_cohomology_table(arr, lat, "D", (d, d), "minimal")
            t_full = lattice_cohomology_table(arr, lat, "D", (d, d), "full")
            if t_min.entries != t_full.entries:
                failures.append((label, "cover-mismatch", d))
    assert report("criterion-7 poset-sheaf properties", not failures, str(failures[:4]))


def test_criterion_8_determinism(tmp_path):
    """Two consecutive runs of the pipeline emit byte-identical JSON."""
    from arrsheaf.cli import main

    f = tmp_path / "b3.arr"
    f.write_text(serialize_arrangement(catalog("braid", 3)))
    g = tmp_path / "b2.arr"
    g.write_text(serialize_arrangement(catalog("boolean", 2)))

    import contextlib
    import io

    def run(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        assert code == 0, argv
        return buf.getvalue()

    pipelines = [
        ["lattice", str(f)],
        ["freeness", str(f)],
        ["cohomology", str(f), "--window", "-2:4"],
        ["cohomology", str(g), "--functor", "O", "--window", "-5:3"],
        ["oracle", str(g), "--module", "O", "--window", "-4:2", "--kmax", "6"],
        ["report", str(g), "--window", "-4:2", "--kunneth-window", "-3:2", "--kmax", "6"],
        ["verify-kunneth", str(g), "--window", "-3:2", "--kmax", "6"],
    ]
    ok = True
    for argv in pipelines:
        first = run(argv)
        second = run(argv)
        if first != second or not first:
            ok = False
    assert report("criterion-8 determinism", ok)
