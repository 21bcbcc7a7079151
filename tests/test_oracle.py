import random

import pytest

from arrsheaf.arrangement import catalog, cofactor_forms
from arrsheaf.derivations import derivation_space, free_module_dims, freeness_certificate
from arrsheaf.lattice import build_lattice
from arrsheaf.oracle import (
    local_cohomology_dims,
    localization_identity_check,
    localized_derivations,
    pd_oracle,
    punctured_cohomology,
    truncation_monotone,
)


def test_structure_closed_form_ell2(boolean2):
    res = punctured_cohomology(boolean2, "O", "coords", (-6, 4), 8)
    for d in range(-6, 5):
        assert res.dim(0, d) == (d + 1 if d >= 0 else 0)
        assert res.dim(1, d) == (-d - 1 if d <= -2 else 0)
    assert res.unstable == ()


def test_structure_closed_form_ell3(boolean3):
    from math import comb

    res = punctured_cohomology(boolean3, "O", "coords", (-5, 3), 8)
    for d in range(-5, 4):
        assert res.dim(0, d) == (comb(d + 2, 2) if d >= 0 else 0)
        assert res.dim(1, d) == 0
        assert res.dim(2, d) == (comb(-d - 1, 2) if d <= -3 else 0)


def test_derivations_sections_equal_module(boolean2):
    # reflexive module: H^0 on the punctured space is the module itself
    res = punctured_cohomology(boolean2, "D", "coords", (-2, 4), 8)
    for d in range(-2, 5):
        assert res.dim(0, d) == derivation_space(boolean2, range(2), d).dim


def test_free_top_cohomology_matches_exponent_shifts(braid2):
    # for a free module the punctured top cohomology is the shifted orthant
    cert = freeness_certificate(braid2)
    from arrsheaf.diagnostics import dim_negative_piece

    res = punctured_cohomology(braid2, "D", "coords", (-4, 2), 8)
    for d in range(-4, 3):
        expected = sum(dim_negative_piece(2, d - e) for e in cert.exponents)
        assert res.dim(1, d) == expected


def test_chart_vs_arrangement_cover(braid2):
    lat = build_lattice(braid2)
    res_c = punctured_cohomology(braid2, "D", "coords", (-3, 3), 8)
    res_a = punctured_cohomology(braid2, "D", "arrangement", (-3, 3), 8, lattice=lat)
    for key, dim in res_c.entries.items():
        if res_c.is_stable(*key) and res_a.is_stable(*key):
            assert res_a.entries[key] == dim, key


def test_chart_vs_arrangement_cover_structure(boolean3):
    lat = build_lattice(boolean3)
    res_c = punctured_cohomology(boolean3, "O", "coords", (-4, 2), 8)
    res_a = punctured_cohomology(boolean3, "O", "arrangement", (-4, 2), 8, lattice=lat)
    assert res_c.entries == res_a.entries


def test_localized_derivations_k0_verbatim(braid3, braid3_lattice):
    el = braid3_lattice.elements[2]
    q = cofactor_forms(braid3, el.members)
    piece = localized_derivations(braid3, el.members, q, 0, 2)
    assert piece.dim == derivation_space(braid3, el.members, 2).dim
    assert piece.numerator_degree == 2


def test_localized_derivations_boolean2_example(boolean2, boolean2_lattice):
    # X = ker x, multiplier {y}, K=1, d=0: numerators live in degree 1
    lat = boolean2_lattice
    ker_x = next(
        i for i in lat.l0_indices() if lat.elements[i].members == (0,)
    )
    q = cofactor_forms(boolean2, lat.elements[ker_x].members)
    assert q.factors == (1,)
    piece = localized_derivations(boolean2, lat.elements[ker_x].members, q, 1, 0)
    assert piece.dim == 3


@pytest.mark.parametrize(
    "name,params", [("boolean", (2,)), ("braid", (3,)), ("generic", (3, 4))]
)
def test_localization_identity_sampled(name, params):
    arr = catalog(name, *params)
    lat = build_lattice(arr)
    rng = random.Random(17)
    l0 = lat.l0_indices()
    for _ in range(12):
        x = rng.choice(l0)
        y = rng.choice(l0)
        d = rng.randint(-2, 3)
        k = rng.randint(0, 2)
        out = localization_identity_check(arr, lat, x, y, d, k)
        assert out["forward_inclusion"], (name, x, y, d, k)
        assert out["backward_inclusion"], (name, x, y, d, k)


def test_truncation_monotone_samples(braid3, braid3_lattice):
    rng = random.Random(23)
    l0 = braid3_lattice.l0_indices()
    for _ in range(8):
        x = rng.choice(l0)
        members = braid3_lattice.elements[x].members
        q = cofactor_forms(braid3, members)
        assert truncation_monotone(braid3, members, q, rng.randint(-1, 3), rng.randint(0, 2))


def test_local_cohomology_reflexive_zeroes(braid2):
    local = local_cohomology_dims(braid2, (-3, 3), 8)
    for d in range(-3, 4):
        assert local["entries"][(0, d)] == 0
        assert local["entries"][(1, d)] == 0


def test_pd_oracle_free_entries():
    for name, params in [("boolean", (2,)), ("boolean", (3,)), ("braid", (2,))]:
        arr = catalog(name, *params)
        punctured = punctured_cohomology(arr, "D", "coords", (-4, 3), 8)
        assert pd_oracle(arr, punctured)["pd"] == 0


def test_pd_oracle_kmax_validation(boolean2):
    with pytest.raises(ValueError):
        punctured_cohomology(boolean2, "D", "coords", (-2, 2), 1)


def test_result_json_shape(boolean2):
    res = punctured_cohomology(boolean2, "O", "coords", (-2, 1), 4)
    payload = res.to_json(boolean2)
    assert payload["module"] == "O" and payload["cover"] == "coords"
    assert all(
        set(e) == {"n", "d", "dim", "stabilized_at", "stable"}
        for e in payload["entries"]
    )


def test_generic34_second_local_cohomology_witness(generic34):
    # pd = 1 means depth 2, so local cohomology at index 2 is nonzero
    local = local_cohomology_dims(generic34, (-4, 3), 8)
    assert any(
        dim for (i, d), dim in local["entries"].items() if i == 2
    )
    assert all(dim == 0 for (i, d), dim in local["entries"].items() if i < 2)
