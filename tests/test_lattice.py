from fractions import Fraction
from itertools import combinations

import pytest

from arrsheaf.arrangement import catalog, parse_arrangement
from arrsheaf.lattice import build_lattice, lattice_json
from arrsheaf.linalg import QQ, RowReducer, sparse_rank, sparse_rref


# ---------------------------------------------------------------------------
# independent oracle: enumerate all subsets, dedupe by canonical span


def bruteforce_flats(arr):
    """All intersections of subsets, as frozensets of member indices."""
    normals = [h.normal for h in arr.hyperplanes]

    def row(n):
        return {j: c for j, c in enumerate(n) if c}

    flats = {}
    for k in range(arr.size + 1):
        for subset in combinations(range(arr.size), k):
            rref_rows, pivots = sparse_rref(arr.field, [row(normals[i]) for i in subset])
            key = tuple(
                tuple(r.get(j, 0) for j in range(arr.ell)) for r in rref_rows
            )
            if key not in flats:
                red = RowReducer(arr.field)
                for r in rref_rows:
                    red.add_row(dict(r))
                members = frozenset(
                    i for i, n in enumerate(normals) if red.contains(row(n))
                )
                flats[key] = members
    return set(flats.values())


def whitney_charpoly(arr):
    """chi via the subset expansion: sum over B of (-1)^|B| t^(ell - rank B)."""
    coeffs = [0] * (arr.ell + 1)
    normals = [h.normal for h in arr.hyperplanes]
    for k in range(arr.size + 1):
        for subset in combinations(range(arr.size), k):
            rows = [
                {j: c for j, c in enumerate(normals[i]) if c} for i in subset
            ]
            r = sparse_rank(arr.field, rows)
            coeffs[arr.ell - r] += (-1) ** k
    return tuple(coeffs)


@pytest.mark.parametrize(
    "name,params",
    [("boolean", (2,)), ("boolean", (3,)), ("braid", (3,)), ("generic", (3, 4))],
)
def test_lattice_against_bruteforce(name, params):
    arr = catalog(name, *params)
    lat = build_lattice(arr)
    assert {frozenset(e.members) for e in lat.elements} == bruteforce_flats(arr)


@pytest.mark.parametrize(
    "name,params,counts,chi",
    [
        ("boolean", (2,), (1, 2, 1), (1, -2, 1)),
        ("braid", (3,), (1, 6, 7, 1), (-6, 11, -6, 1)),
        ("generic", (3, 4), (1, 4, 6, 1), (-3, 6, -4, 1)),
        ("boolean", (4,), (1, 4, 6, 4, 1), (1, -4, 6, -4, 1)),
        ("braid", (4,), (1, 10, 25, 15, 1), (24, -50, 35, -10, 1)),
        ("near-pencil", (5,), (1, 5, 5, 1), (-3, 7, -5, 1)),
    ],
)
def test_codim_counts_and_charpoly(name, params, counts, chi):
    lat = build_lattice(catalog(name, *params))
    assert lat.codim_counts() == counts
    assert lat.characteristic_polynomial() == chi


@pytest.mark.parametrize(
    "name,params", [("boolean", (3,)), ("braid", (3,)), ("generic", (3, 5))]
)
def test_charpoly_whitney_oracle(name, params):
    arr = catalog(name, *params)
    assert build_lattice(arr).characteristic_polynomial() == whitney_charpoly(arr)


def test_boolean2_mobius(boolean2_lattice):
    assert boolean2_lattice.mobius == (1, -1, -1, 1)


def test_mobius_recursion(braid3_lattice):
    lat = braid3_lattice
    member_sets = [set(e.members) for e in lat.elements]
    for i in range(len(lat.elements)):
        total = sum(
            lat.mobius[j]
            for j in range(len(lat.elements))
            if member_sets[j] <= member_sets[i]
        )
        expected = 1 if i == lat.bottom_index else 0
        assert total == expected


def test_chi_at_one_vanishes(braid3_lattice):
    assert sum(braid3_lattice.characteristic_polynomial()) == 0


def test_meet_is_member_intersection(braid3_lattice):
    lat = braid3_lattice
    for i in range(len(lat.elements)):
        for j in range(len(lat.elements)):
            k = lat.meet(i, j)
            assert set(lat.elements[k].members) == (
                set(lat.elements[i].members) & set(lat.elements[j].members)
            )


def test_meet_absorption_and_idempotence(braid3_lattice):
    lat = braid3_lattice
    bottom = lat.bottom_index
    for i in range(len(lat.elements)):
        assert lat.meet(i, bottom) == bottom
        assert lat.meet(i, i) == i


def test_boolean2_meet_of_two_lines(boolean2_lattice):
    lat = boolean2_lattice
    lines = [i for i, e in enumerate(lat.elements) if e.codim == 1]
    assert lat.meet(lines[0], lines[1]) == lat.bottom_index


def test_l0_closed_under_meet(braid3_lattice):
    lat = braid3_lattice
    l0 = lat.l0_indices()
    for i in l0:
        for j in l0:
            assert lat.meet(i, j) != lat.top_index


def test_l0_minimal_elements_have_top_codim(braid3_lattice):
    lat = braid3_lattice
    mins = lat.l0_minimal_indices()
    assert len(mins) == 7
    assert all(lat.elements[i].codim == 2 for i in mins)


def test_l0_dimension_is_ell_minus_one():
    for name, params in [("boolean", (2,)), ("braid", (3,)), ("boolean", (4,))]:
        arr = catalog(name, *params)
        assert build_lattice(arr).l0_dimension() == arr.ell - 1


def test_element_order_contract(braid3_lattice):
    lat = braid3_lattice
    keys = [e.sort_key() for e in lat.elements]
    assert keys == sorted(keys)
    assert lat.elements[0].codim == 0
    assert lat.elements[-1].codim == 3


def test_join_is_span_union(boolean2_lattice):
    lat = boolean2_lattice
    lines = [i for i, e in enumerate(lat.elements) if e.codim == 1]
    assert lat.join(lines[0], lines[1]) == lat.top_index


def test_lattice_json_shape(boolean2, boolean2_lattice):
    payload = lattice_json(boolean2_lattice)
    assert payload["elements"][0] == {"codim": 0, "members": []}
    assert payload["mobius"] == [1, -1, -1, 1]
    assert payload["characteristic_polynomial"] == [1, -2, 1]


@pytest.mark.parametrize("field", ["Q", "Fp 2147483647"])
@pytest.mark.parametrize(
    "source", [("braid", 4), ("generic", 3, 4), "nonfree-4-7"],
    ids=["braid-4", "generic-3-4", "nonfree-4-7"])
def test_normal_basis_is_first_independent_members(source, field, arrangement_over):
    """B has codim members; every other member is, in member order, a
    combination of the members of B before it, with the returned
    coefficients.  So B is the first codim members with independent normals."""
    arr = arrangement_over(source, field)
    f = arr.field
    lat = build_lattice(arr)
    for flat, element in enumerate(lat.elements):
        basis, coeffs = lat.normal_basis(flat)
        assert len(basis) == element.codim
        assert tuple(coeffs) == tuple(h for h in element.members if h not in basis)
        for h, c in coeffs.items():
            assert all(basis[k] < h for k in c), (flat, h)
            combo = [f.zero] * arr.ell
            for k, ck in c.items():
                for i, a in enumerate(arr.normal(basis[k])):
                    combo[i] = f.add(combo[i], f.mul(ck, a))
            assert tuple(combo) == tuple(arr.normal(h)), (flat, h)


def test_normal_basis_fractional_coefficients():
    # a_2 = c0 a_0 + c1 a_1 with 2 c0 + c1 = 1 and 3 c1 = 2: neither
    # coefficient is an integer
    arr = parse_arrangement("field Q\ndim 2\nhyperplane 2 0\nhyperplane 1 3\n"
                            "hyperplane 1 2\n")
    lat = build_lattice(arr)
    assert lat.normal_basis(lat.top_index) == (
        (0, 1), {2: {0: Fraction(1, 6), 1: Fraction(2, 3)}})
