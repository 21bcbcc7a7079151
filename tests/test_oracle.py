import random

import pytest

from arrsheaf.arrangement import catalog, cofactor_forms
from arrsheaf.derivations import derivation_space, free_module_dims, freeness_certificate
from arrsheaf.lattice import build_lattice
from arrsheaf.oracle import (
    _truncated_engine,
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
    res = punctured_cohomology(braid2, "D", "coords", (-4, 2), 8)
    for d in range(-4, 3):
        # dim H^2_m(S)_{d-e} = #{(a, b) : a, b >= 1, a + b = e - d}
        expected = sum(max(e - d - 1, 0) for e in cert.exponents)
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


def test_punctured_cohomology_rejects_bad_inputs(boolean2):
    with pytest.raises(ValueError, match="lattice"):
        punctured_cohomology(boolean2, "D", "arrangement", (0, 0), 2)
    with pytest.raises(ValueError, match="cover"):
        punctured_cohomology(boolean2, "D", "flats", (0, 0), 2)
    with pytest.raises(ValueError, match="module"):
        punctured_cohomology(boolean2, "S", "coords", (0, 0), 2)


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


# dims_at(d, k, ell - 1) as (H^0, ..., H^{ell-1}) per (module, cover) and
# (d, k) cell, alike over Q and GF(2^31-1).  They were computed while r0 was
# still eliminated from the W-basis lifts on every cover and checked equal to
# the known r0 = dim W - dim M_d on every cell.  The flat covers have q = |A|,
# so their D cells are sampled at K = 1, and at K = 2 only on braid-3's
# minimal cover; at ell = 4 only the coordinate cover is in reach.
_PINNED = {
    ("braid", 3): {
        ("D", "coords"): {(-1, 1): (0, 0, 1), (0, 1): (0, 0, 1), (1, 1): (1, 0, 0),
            (-1, 2): (0, 0, 4), (0, 2): (0, 0, 1), (1, 2): (1, 0, 0)},
        ("D", "minimal"): {(-1, 1): (0, 0, 4), (0, 1): (0, 0, 1), (1, 1): (1, 0, 0),
            (0, 2): (0, 0, 1), (1, 2): (1, 0, 0)},
        ("D", "full"): {(-1, 1): (0, 0, 4), (0, 1): (0, 0, 1), (1, 1): (1, 0, 0)},
        ("O", "coords"): {(-1, 1): (0, 0, 0), (0, 1): (1, 0, 0), (1, 1): (3, 0, 0),
            (-1, 2): (0, 0, 0), (0, 2): (1, 0, 0), (1, 2): (3, 0, 0)},
        ("O", "minimal"): {(-1, 1): (0, 0, 0), (0, 1): (1, 0, 0), (1, 1): (3, 0, 0),
            (-1, 2): (0, 0, 0), (0, 2): (1, 0, 0), (1, 2): (3, 0, 0)},
        ("O", "full"): {(-1, 1): (0, 0, 0), (0, 1): (1, 0, 0), (1, 1): (3, 0, 0),
            (-1, 2): (0, 0, 0), (0, 2): (1, 0, 0), (1, 2): (3, 0, 0)},
    },
    ("generic", 3, 4): {
        ("D", "coords"): {(-1, 1): (0, 0, 3), (0, 1): (0, 1, 0), (1, 1): (1, 0, 0),
            (-1, 2): (0, 0, 0), (0, 2): (0, 1, 0), (1, 2): (1, 0, 0)},
        ("D", "minimal"): {(-1, 1): (0, 0, 0), (0, 1): (0, 1, 0), (1, 1): (1, 0, 0)},
        ("D", "full"): {(-1, 1): (0, 0, 0), (0, 1): (0, 1, 0), (1, 1): (1, 0, 0)},
        ("O", "coords"): {(-1, 1): (0, 0, 0), (0, 1): (1, 0, 0), (1, 1): (3, 0, 0),
            (-1, 2): (0, 0, 0), (0, 2): (1, 0, 0), (1, 2): (3, 0, 0)},
        ("O", "minimal"): {(-1, 1): (0, 0, 0), (0, 1): (1, 0, 0), (1, 1): (3, 0, 0),
            (-1, 2): (0, 0, 0), (0, 2): (1, 0, 0), (1, 2): (3, 0, 0)},
        ("O", "full"): {(-1, 1): (0, 0, 0), (0, 1): (1, 0, 0), (1, 1): (3, 0, 0),
            (-1, 2): (0, 0, 0), (0, 2): (1, 0, 0), (1, 2): (3, 0, 0)},
    },
    ("boolean", 3): {
        ("D", "coords"): {(-1, 1): (0, 0, 0), (0, 1): (0, 0, 0), (1, 1): (3, 0, 0),
            (-1, 2): (0, 0, 0), (0, 2): (0, 0, 0), (1, 2): (3, 0, 0)},
        ("D", "minimal"): {(-1, 1): (0, 0, 0), (0, 1): (0, 0, 0), (1, 1): (3, 0, 0)},
        ("D", "full"): {(-1, 1): (0, 0, 0), (0, 1): (0, 0, 0), (1, 1): (3, 0, 0)},
        ("O", "coords"): {(-1, 1): (0, 0, 0), (0, 1): (1, 0, 0), (1, 1): (3, 0, 0),
            (-1, 2): (0, 0, 0), (0, 2): (1, 0, 0), (1, 2): (3, 0, 0)},
        ("O", "minimal"): {(-1, 1): (0, 0, 0), (0, 1): (1, 0, 0), (1, 1): (3, 0, 0),
            (-1, 2): (0, 0, 0), (0, 2): (1, 0, 0), (1, 2): (3, 0, 0)},
        ("O", "full"): {(-1, 1): (0, 0, 0), (0, 1): (1, 0, 0), (1, 1): (3, 0, 0),
            (-1, 2): (0, 0, 0), (0, 2): (1, 0, 0), (1, 2): (3, 0, 0)},
    },
    ("braid", 4): {
        ("D", "coords"): {(0, 2): (0, 0, 0, 1)},
        ("O", "coords"): {(0, 2): (1, 0, 0, 0)},
    },
    "nonfree-4-7": {
        ("D", "coords"): {(-1, 1): (0, 0, 0, 7), (0, 1): (0, 0, 5, 0),
            (1, 1): (1, 1, 0, 0)},
        ("O", "coords"): {(-1, 1): (0, 0, 0, 0), (0, 1): (1, 0, 0, 0),
            (1, 1): (4, 0, 0, 0)},
    },
}


@pytest.mark.parametrize("field", ["Q", "Fp 2147483647"])
@pytest.mark.parametrize(
    "source", list(_PINNED),
    ids=["braid-3", "generic-3-4", "boolean-3", "braid-4", "nonfree-4-7"])
def test_known_global_rank_equals_elimination(source, field, arrangement_over):
    """The quotient route with the known r0, on the coordinate cover and on
    the flat covers, reproduces the pinned dims of the quotient route with
    r0 eliminated."""
    arr = arrangement_over(source, field)
    lat = build_lattice(arr)
    centers = {"coords": None, "minimal": lat.l0_minimal_indices(),
               "full": lat.l0_indices()}
    for (module, cover), cells in _PINNED[source].items():
        eng = _truncated_engine(arr, module, "coords" if cover == "coords" else "flats",
                                lat, centers[cover])
        got = {(d, k): eng.dims_at(d, k, arr.ell - 1) for d, k in cells}
        assert got == {cell: dict(enumerate(dims)) for cell, dims in cells.items()}, (
            module, cover)


@pytest.mark.parametrize("cover", ["coords", "flats"])
def test_dims_at_never_builds_the_ambient_basis(monkeypatch, cover):
    """dims_at writes each V_T in the coordinates of W = M_{d+Kq} and lifts
    its blocks on unit vectors there, so no basis of W itself (a kernel
    basis at d + Kq) is built: only the numerator pieces below it."""
    from arrsheaf import derivations

    arr = catalog("braid", 3)
    lat = build_lattice(arr)
    monkeypatch.setattr(derivations, "_engines", {})
    eng = _truncated_engine(arr, "D", cover, lat, lat.l0_minimal_indices())
    asked = []
    space_basis = eng.pieces.engine.space_basis

    def spy(members, t):
        asked.append(t)
        return space_basis(members, t)

    monkeypatch.setattr(eng.pieces.engine, "space_basis", spy)
    q = len(eng.forms)
    for d, k in [(0, 1), (1, 1), (-1, 2)]:
        eng.dims_at(d, k, arr.ell - 1)
        assert asked and d + k * q not in asked, (d, k, asked)
        asked.clear()
