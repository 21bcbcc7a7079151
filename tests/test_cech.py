import json
import random

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from arrsheaf.arrangement import ArrangementError, catalog, parse_arrangement
from arrsheaf.cech import (
    CapExceeded,
    _CokernelComplex,
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
from arrsheaf import derivations
from arrsheaf.derivations import derivation_space, engine_for
from arrsheaf.lattice import build_lattice
from arrsheaf.linalg import sparse_rank
from arrsheaf.monomials import dim_poly
from arrsheaf.oracle import _truncated_engine


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


@pytest.mark.parametrize(
    "params", [("boolean", 2), ("boolean", 3), ("near-pencil", 4), ("generic", 3, 4)]
)
def test_structure_engine_equals_direct_complex(params):
    """The truncated O engine on the minimal flat cover must reproduce the
    materialized complex of the structure functor at the same level."""
    arr = catalog(*params)
    lat = build_lattice(arr)
    cov = minimal_cover(lat)
    eng = _truncated_engine(arr, "O", "flats", lat, cov.centers)
    for k in (1, 2):
        F = StructureFunctor(arr, lat, k)
        for d in (-arr.size - 1, -1, 0, 1):
            direct = cohomology_dims(build_cech_complex(lat, F, cov, d))
            assert eng.dims_at(d, k, arr.ell - 1) == {
                n: direct[n] for n in range(arr.ell)
            }, (params, k, d)


_normals = st.tuples(*[st.integers(-2, 2)] * 3).filter(any)


@settings(max_examples=10, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(normals=st.lists(_normals, min_size=3, max_size=5),
       field=st.sampled_from(["Q", "Fp 2147483647"]))
def test_shortcut_equals_direct_complex_random(normals, field):
    """Random ell = 3 arrangements: the exact-sequence D table equals the
    materialized complex cell by cell."""
    text = f"field {field}\ndim 3\n" + "".join(
        "hyperplane " + " ".join(map(str, n)) + "\n" for n in normals
    )
    try:
        arr = parse_arrangement(text)
    except ArrangementError:  # proportional normals or not essential
        assume(False)
    lat = build_lattice(arr)
    F = DerivationFunctor(arr, lat)
    cov = minimal_cover(lat)
    table = lattice_cohomology_table(arr, lat, "D", (0, 2))
    for d in range(0, 3):
        direct = cohomology_dims(build_cech_complex(lat, F, cov, d))
        for n in range(3):
            assert table.dim(n, d) == direct.get(n, 0), (text, n, d)


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


@pytest.mark.parametrize("functor", ["D", "O"])
def test_unknown_cover_rejected(boolean2, boolean2_lattice, functor):
    # a misspelt cover must not fall through to the full cover
    with pytest.raises(ValueError, match="unknown cover 'minmal'"):
        lattice_cohomology_table(boolean2, boolean2_lattice, functor, (0, 1), "minmal")


def test_structure_table_kmax_validation(boolean2, boolean2_lattice):
    with pytest.raises(ValueError, match="kmax"):
        lattice_cohomology_table(boolean2, boolean2_lattice, "O", (-2, 2), kmax=1)


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


@pytest.mark.parametrize("field", ["Q", "Fp 2147483647"])
@pytest.mark.parametrize(
    "source", [("boolean", 3), ("braid", 4), ("generic", 4, 6), "nonfree-4-7"],
    ids=["boolean-3", "braid-4", "generic-4-6", "nonfree-4-7"])
def test_cokernel_blocks_skip_only_zero_ranks(source, field, arrangement_over):
    """Blocks at independent flats (as many members as codimension) are
    skipped unbuilt.  There the eliminated constraint rank is full, and at
    every flat the block has dimension |X| dim_poly(ell-1, d) minus that
    rank, or is None when this is 0.  A block is (lifts, project) with the
    lifts a basis, so there are that many lifts and they project onto it.

    The block's ``map_into`` presents C(X) exactly: every constraint column
    maps to zero, so the image lies in its kernel, and the unit entries of R
    map onto a space of the block's dimension, so the kernel is no larger.
    """
    arr = arrangement_over(source, field)
    lat = build_lattice(arr)
    eng = engine_for(arr)
    one = arr.field.one
    for d in range(4):
        cok = _CokernelComplex(arr, lat, d)
        size = dim_poly(arr.ell - 1, d)
        for flat, element in enumerate(lat.elements):
            members = element.members
            full = len(members) * size
            rank = eng.constraint_rank(members, d)
            if len(members) == element.codim:
                assert rank == full, (flat, d)
            block = cok.block(flat)
            dim = full - rank
            assert (block is None) == (dim == 0), (flat, d)
            map_into = cok._block(flat).map_into
            if block is not None:
                lifts, project = block
                assert len(lifts) == dim, (flat, d)
                assert sparse_rank(arr.field, map(project, lifts)) == dim, (flat, d)
            cols, _layout = eng.constraint_columns(members, d)
            for col in cols:
                entries = {(members[r // size], r % size): v for r, v in col.items()}
                assert not map_into(entries), (flat, d)
            units = [map_into({(h, idx): one}) for h in members for idx in range(size)]
            assert sparse_rank(arr.field, units) == dim, (flat, d)


def test_derivation_table_builds_constraint_columns_only_at_the_top(monkeypatch):
    """The D table eliminates the constraint map of the whole arrangement
    (for dim D(A)_d) and no other: the cokernel blocks never build one."""
    arr = catalog("braid", 4)
    lat = build_lattice(arr)
    monkeypatch.setattr(derivations, "_engines", {})
    eng = engine_for(arr)
    built = set()
    columns = eng.constraint_columns

    def spy(members, d):
        built.add(members)
        return columns(members, d)

    monkeypatch.setattr(eng, "constraint_columns", spy)
    lattice_cohomology_table(arr, lat, "D", (0, 3))
    assert built == {tuple(range(arr.size))}
