from collections import Counter

import pytest

from arrsheaf import cech, derivations, diagnostics
from arrsheaf.arrangement import catalog
from arrsheaf.cech import lattice_cohomology_table
from arrsheaf.derivations import FreenessCertificate, freeness_certificate
from arrsheaf.diagnostics import (
    ConsistencyError,
    build_report,
    dim_negative_piece,
    factorization_check,
    freeness_verdict,
    kunneth_verify,
    tensor_top_dim,
    vanishing_summary,
)
from arrsheaf.lattice import build_lattice
from arrsheaf.oracle import pd_from_middle_levels, punctured_cohomology


def _verdict(arr, lat, window):
    table = lattice_cohomology_table(arr, lat, "D", window)
    return freeness_verdict(arr, freeness_certificate(arr), table)


def _pd_via_lattice(arr, lat, window):
    table = lattice_cohomology_table(arr, lat, "D", window)
    return pd_from_middle_levels(table.entries, arr.ell)


def _kunneth(arr, lat, window, kmax):
    return kunneth_verify(
        arr,
        freeness_certificate(arr),
        lattice_cohomology_table(arr, lat, "D", window),
        punctured_cohomology(arr, "D", "coords", window, kmax),
    )


def test_freeness_verdict_braid3(braid3, braid3_lattice):
    verdict = _verdict(braid3, braid3_lattice, (-9, 6))
    assert verdict["free"] is True
    assert verdict["certificate"]["exponents"] == [1, 2, 3]
    assert verdict["lattice_vanishing"]["vanishes"] is True


def test_freeness_verdict_generic34(generic34, generic34_lattice):
    verdict = _verdict(generic34, generic34_lattice, (-7, 4))
    assert verdict["free"] is False
    assert verdict["lattice_vanishing"]["vanishes"] is False
    assert verdict["lattice_vanishing"]["nonzero_cells"]["1"] == [0]


def test_freeness_verdict_ell2_always_free(braid2):
    lat = build_lattice(braid2)
    verdict = _verdict(braid2, lat, (-5, 3))
    assert verdict["free"] is True
    # the open range 0 < n < 1 is empty, so vanishing is vacuous
    assert verdict["lattice_vanishing"]["vanishes"] is True


def test_pd_via_lattice_values(braid3, braid3_lattice, generic34, generic34_lattice):
    assert _pd_via_lattice(braid3, braid3_lattice, (-9, 6)) == 0
    assert _pd_via_lattice(generic34, generic34_lattice, (-7, 4)) == 1


def test_pd_via_lattice_uses_lowest_middle_level(arrangement_over):
    # ell = 4, not free, with nonzero H^1 and H^2 on the window: the smallest
    # p with H^n = 0 for 0 < n < ell-1-p is ell-1-1 = 2, not ell-1-2 = 1
    arr = arrangement_over("nonfree-4-7", "Q")
    lat = build_lattice(arr)
    table = lattice_cohomology_table(arr, lat, "D", (0, 1))
    assert table.dim(1, 1) != 0 and table.dim(2, 0) != 0
    assert pd_from_middle_levels(table.entries, arr.ell) == 2
    report = build_report(arr, lat, window=(0, 1), with_kunneth=False)
    assert report["pd_via_lattice"] == 2


def test_pd_via_oracle_at_ell4_nonfree(arrangement_over):
    # the punctured-spectrum engine confirms pd = 2 on the same arrangement,
    # and every Kunneth cell of the window is stable and agrees
    arr = arrangement_over("nonfree-4-7", "Q")
    lat = build_lattice(arr)
    report = build_report(arr, lat, window=(0, 1), kunneth_window=(0, 1), kmax=5)
    assert report["pd_via_oracle"]["pd"] == report["pd_via_lattice"] == 2
    assert report["pd_via_oracle"]["unstable"] == ()
    kunneth = report["kunneth"]
    assert kunneth["cells_checked"] == 8
    assert kunneth["mismatches"] == [] and kunneth["excluded_unstable"] == []


def test_pd_upper_bound(generic34, generic34_lattice):
    assert _pd_via_lattice(generic34, generic34_lattice, (-7, 4)) <= generic34.ell - 2


def test_factorization_boolean():
    for ell in (2, 3, 4):
        arr = catalog("boolean", ell)
        lat = build_lattice(arr)
        out = factorization_check(arr, lat, freeness_certificate(arr))
        assert out["status"] == "match"
        # chi = (t-1)^ell
        assert out["exponents"] == [1] * ell


def test_factorization_braid3(braid3, braid3_lattice):
    out = factorization_check(braid3, braid3_lattice, freeness_certificate(braid3))
    assert out["status"] == "match"
    assert out["characteristic_polynomial"] == [-6, 11, -6, 1]


def test_factorization_not_applicable(generic34, generic34_lattice):
    out = factorization_check(generic34, generic34_lattice, freeness_certificate(generic34))
    assert out["status"] == "not-applicable"


def test_factorization_mismatch_raises(braid3, braid3_lattice):
    fake = FreenessCertificate("free", exponents=(1, 1, 4), scanned_bound=6)
    with pytest.raises(ConsistencyError):
        factorization_check(braid3, braid3_lattice, fake)


def test_tensor_top_dim_free_closed_form(braid2):
    cert = freeness_certificate(braid2)
    degrees = (-4, -3, -2, 0, 1)
    tensor = tensor_top_dim(braid2, cert, degrees)
    for d in degrees:
        expected = sum(dim_negative_piece(2, d - e) for e in cert.exponents)
        assert tensor[d] == (expected, True)


def test_tensor_top_dim_generic34_hilbert(generic34):
    # generators (1,2,2,2) with a single relation in degree 3; away from the
    # boundary the series prediction N(-1) + 3N(-2) - N(-3) is exact
    degrees = (-5, -4, -3)
    tensor = tensor_top_dim(generic34, freeness_certificate(generic34), degrees)
    for d in degrees:
        predicted = (
            dim_negative_piece(3, d - 1)
            + 3 * dim_negative_piece(3, d - 2)
            - dim_negative_piece(3, d - 3)
        )
        dim, stable = tensor[d]
        assert stable and dim == predicted


def test_kunneth_verify_boolean2(boolean2, boolean2_lattice):
    report = _kunneth(boolean2, boolean2_lattice, (-3, 3), 6)
    assert report["mismatches"] == []
    equality_cells = [c for c in report["cells"] if c["kind"] == "equality"]
    assert equality_cells and all(c["match"] for c in equality_cells if c["stable"])


def test_kunneth_verify_braid2_top_observation(braid2):
    # the top-level comparison is informational; at d=0 the naive
    # direct-sum term overshoots and that must be recorded, not raised
    lat = build_lattice(braid2)
    report = _kunneth(braid2, lat, (-2, 2), 8)
    assert report["mismatches"] == []
    fails = {(c["n"], c["d"]) for c in report["top_bound_failures"]}
    assert (1, 0) in fails


def test_vanishing_summary_structure(braid3, braid3_lattice):
    from arrsheaf.cech import lattice_cohomology_table

    table = lattice_cohomology_table(braid3, braid3_lattice, "D", (-2, 3))
    summary = vanishing_summary(table, 3)
    assert summary["vanishes"] is True
    assert summary["window"] == [-2, 3]


def test_build_report_boolean2(boolean2, boolean2_lattice):
    report = build_report(
        boolean2,
        boolean2_lattice,
        window=(-4, 2),
        kunneth_window=(-3, 2),
        kmax=6,
    )
    assert report["freeness"]["free"] is True
    assert report["pd_via_lattice"] == 0
    assert report["pd_via_oracle"]["pd"] == 0
    assert report["factorization"]["status"] == "match"
    assert report["kunneth"]["mismatches"] == []


def test_build_report_freeness_is_the_verdict(generic34, generic34_lattice):
    # a window without the H^1 witness at d = 0 carries the verdict's note
    window = (2, 3)
    report = build_report(generic34, generic34_lattice, window=window,
                          with_kunneth=False)
    assert report["freeness"] == _verdict(generic34, generic34_lattice, window)
    assert "note" in report["freeness"]


def test_build_report_computes_each_input_once(generic34, generic34_lattice, monkeypatch):
    # every verdict reads the one certificate, table and punctured run that
    # build_report computed; none of them computes its own
    calls = {}
    for module, name in [
        (derivations, "freeness_certificate"),
        (derivations, "minimal_generators"),
        (diagnostics, "lattice_cohomology_table"),
        (diagnostics, "punctured_cohomology"),
        (diagnostics, "tensor_top_dim"),
    ]:
        original = getattr(module, name)
        calls[name] = 0

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for holder in (derivations, diagnostics):
            if getattr(holder, name, None) is original:
                monkeypatch.setattr(holder, name, counted)
    build_report(generic34, generic34_lattice, window=(-7, 4),
                 kunneth_window=(-2, 2), kmax=4)
    assert calls == dict.fromkeys(calls, 1)


def test_build_report_computes_each_degree_once(boolean2, boolean2_lattice, monkeypatch):
    # the default report on boolean-2 has window -4:2 and Kunneth window
    # -6:6; one D table serves both, so no degree is computed twice
    calls = Counter()
    original = cech._derivation_dims_via_sequences

    def counted(arr, lattice, cover, d, n_max):
        calls[d] += 1
        return original(arr, lattice, cover, d, n_max)

    monkeypatch.setattr(cech, "_derivation_dims_via_sequences", counted)
    report = build_report(boolean2, boolean2_lattice)
    assert report["window"] == [-4, 2] and report["kunneth"]["window"] == [-6, 6]
    assert calls == Counter(range(-6, 7))
