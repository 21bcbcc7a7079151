import json
import random

import pytest

from arrsheaf.arrangement import catalog
from arrsheaf.cech import (
    CapExceeded,
    CoverIndex,
    DerivationFunctor,
    StructureFunctor,
    acyclicity_probe,
    build_cech_complex,
    cohomology_dims,
    full_cover,
    lattice_cohomology_table,
    minimal_cover,
    validate_cover,
)
from arrsheaf.derivations import derivation_space
from arrsheaf.lattice import build_lattice


def test_boolean2_complex_matches_hand_computation(boolean2, boolean2_lattice):
    # minimal cover {ker x, ker y}, d=1: C^0 has係 3+3, C^1 = full 2x2 space
    F = DerivationFunctor(boolean2, boolean2_lattice)
    c = build_cech_complex(boolean2_lattice, F, minimal_cover(boolean2_lattice), 1)
    assert [lv.total for lv in c.levels] == [6, 4]
    assert cohomology_dims(c) == {0: 2, 1: 0}


def test_single_element_cover(boolean2, boolean2_lattice):
    # one center: no coboundaries, H^0 = sections over that open
    from arrsheaf.cech import CechComplex, _build_level

    lat = boolean2_lattice
    line = lat.l0_minimal_indices()[0]
    F = DerivationFunctor(boolean2, lat)
    level = _build_level(lat, F, (line,), 0, 1)
    c = CechComplex(1, CoverIndex((line,), "single"), boolean2.field, [level], [])
    dims = cohomology_dims(c)
    assert dims == {0: F.section_dim(line, 1)}


def test_probe_on_principal_open_of_a_line(boolean2, boolean2_lattice):
    lat = boolean2_lattice
    line = lat.l0_minimal_indices()[0]
    F = DerivationFunctor(boolean2, lat)
    dims = acyclicity_probe(boolean2, lat, F, line, 1)
    assert dims[0] == F.section_dim(line, 1)
    assert all(v == 0 for n, v in dims.items() if n > 0)


def test_delta_squared_zero_braid3_full_cover(braid3, braid3_lattice):
    F = DerivationFunctor(braid3, braid3_lattice)
    c = build_cech_complex(
        braid3_lattice, F, full_cover(braid3_lattice), 2, max_level=2
    )
    assert c.composition_is_zero(0)


def test_cover_validation(braid3_lattice):
    with pytest.raises(ValueError, match="misses"):
        validate_cover(braid3_lattice, CoverIndex((0,), "custom"))
    with pytest.raises(ValueError, match="top"):
        validate_cover(
            braid3_lattice,
            CoverIndex((braid3_lattice.top_index,), "custom"),
        )


def test_tuple_cap(braid3, braid3_lattice):
    F = DerivationFunctor(braid3, braid3_lattice)
    with pytest.raises(CapExceeded):
        build_cech_complex(
            braid3_lattice, F, full_cover(braid3_lattice), 1, tuple_cap=5
        )


@pytest.mark.parametrize(
    "name,params,degrees",
    [
        ("boolean", (2,), range(-1, 5)),
        ("braid", (2,), range(-1, 4)),
        ("braid", (3,), range(0, 4)),
        ("generic", (3, 4), range(0, 4)),
    ],
)
def test_shortcut_equals_direct_complex(name, params, degrees):
    """The exact-sequence route must reproduce the materialized complex."""
    arr = catalog(name, *params)
    lat = build_lattice(arr)
    F = DerivationFunctor(arr, lat)
    cov = minimal_cover(lat)
    window = (min(degrees), max(degrees))
    table = lattice_cohomology_table(arr, lat, "D", window)
    for d in degrees:
        direct = cohomology_dims(build_cech_complex(lat, F, cov, d))
        for n in range(arr.ell):
            assert table.dim(n, d) == direct.get(n, 0), (name, n, d)


def test_full_vs_minimal_cover_dimensions(braid3, braid3_lattice):
    for d in (0, 1, 2):
        t_min = lattice_cohomology_table(braid3, braid3_lattice, "D", (d, d), "minimal")
        t_full = lattice_cohomology_table(braid3, braid3_lattice, "D", (d, d), "full")
        assert t_min.entries == t_full.entries


def test_full_vs_minimal_structure_functor(boolean2, boolean2_lattice):
    t_min = lattice_cohomology_table(
        boolean2, boolean2_lattice, "O", (-4, 2), "minimal"
    )
    t_full = lattice_cohomology_table(
        boolean2, boolean2_lattice, "O", (-4, 2), "full"
    )
    assert t_min.entries == t_full.entries


def test_derivation_table_h0_is_global_sections(braid3, braid3_lattice):
    table = lattice_cohomology_table(braid3, braid3_lattice, "D", (0, 5))
    for d in range(0, 6):
        assert table.dim(0, d) == derivation_space(braid3, range(6), d).dim


def test_negative_degrees_vanish(braid3, braid3_lattice):
    table = lattice_cohomology_table(braid3, braid3_lattice, "D", (-4, -1))
    assert all(v == 0 for v in table.entries.values())


def test_vanishing_above_poset_dimension(boolean2, boolean2_lattice):
    # complex extended beyond dim L0 = 1: H^n = 0 for n > 1
    F = DerivationFunctor(boolean2, boolean2_lattice)
    c = build_cech_complex(
        boolean2_lattice, F, full_cover(boolean2_lattice), 2, max_level=2
    )
    dims = cohomology_dims(c)
    assert dims.get(2, 0) == 0


def test_probe_acyclicity_samples(braid3, braid3_lattice):
    rng = random.Random(3)
    lat = braid3_lattice
    F_d = DerivationFunctor(braid3, lat)
    F_o = StructureFunctor(braid3, lat, truncation=2)
    l0 = lat.l0_indices()
    for _ in range(6):
        flat = rng.choice(l0)
        d = rng.randint(0, 2)
        for F in (F_d, F_o):
            dims = acyclicity_probe(braid3, lat, F, flat, d)
            assert dims[0] == F.section_dim(flat, d)
            assert all(v == 0 for n, v in dims.items() if n > 0), (flat, d, F.label)


def test_structure_functor_restriction_composes(braid3, braid3_lattice):
    lat = braid3_lattice
    F = StructureFunctor(braid3, lat, truncation=1)
    # chain bottom V contains a hyperplane contains a line (as subspaces)
    line = lat.l0_minimal_indices()[0]
    hyper = next(
        i
        for i in lat.l0_indices()
        if lat.elements[i].codim == 1
        and set(lat.elements[i].members) <= set(lat.elements[line].members)
    )
    v = lat.bottom_index
    d = 0
    a = F.restriction_columns(line, hyper, d)
    b = F.restriction_columns(hyper, v, d)
    direct = F.restriction_columns(line, v, d)
    composed = []
    for col in a:
        out = {}
        for i, c in col.items():
            for j, w in b[i].items():
                out[j] = out.get(j, 0) + c * w
        composed.append({k: v for k, v in out.items() if v})
    assert composed == direct


def test_table_json_is_deterministic(boolean2, boolean2_lattice):
    t1 = lattice_cohomology_table(boolean2, boolean2_lattice, "D", (-2, 3))
    t2 = lattice_cohomology_table(boolean2, boolean2_lattice, "D", (-2, 3))
    assert json.dumps(t1.to_json(boolean2), sort_keys=True) == json.dumps(
        t2.to_json(boolean2), sort_keys=True
    )


def test_braid3_vanishing_above_poset_dimension(braid3, braid3_lattice):
    # the complex keeps going past level ell - 1 = 2, cohomology must not
    F = DerivationFunctor(braid3, braid3_lattice)
    c = build_cech_complex(
        braid3_lattice, F, minimal_cover(braid3_lattice), 1, max_level=4
    )
    dims = cohomology_dims(c)
    assert dims[3] == 0


def test_shortcut_equals_direct_braid4_degree0():
    # ell = 4 exercises the level-1 cokernel differentials (nonzero H^3)
    arr = catalog("braid", 4)
    lat = build_lattice(arr)
    F = DerivationFunctor(arr, lat)
    direct = cohomology_dims(
        build_cech_complex(lat, F, minimal_cover(lat), 0, max_level=4)
    )
    table = lattice_cohomology_table(arr, lat, "D", (0, 0))
    assert {n: table.dim(n, 0) for n in range(4)} == direct
    assert direct[3] == 1
