import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from arrsheaf.arrangement import (
    Arrangement,
    ArrangementError,
    Hyperplane,
    catalog,
    parse_arrangement,
)
from arrsheaf.derivations import (
    FunctorError,
    derivation_space,
    engine_for,
    euler_vector,
    free_module_dims,
    freeness_certificate,
    inclusion_matrix,
    minimal_generators,
    multiply_vector,
    saito_check,
    vector_to_polys,
)
from arrsheaf.lattice import build_lattice
from arrsheaf.linalg import GF, QQ, RowReducer, sparse_rank
from arrsheaf.monomials import dim_poly, poly_eval, poly_from_linear


# ---------------------------------------------------------------------------
# independent membership oracle: theta(alpha) vanishes on the hyperplane,
# checked by evaluating at sample points of ker(alpha)


def kernel_points(normal):
    """Rational points spanning ker(alpha)."""
    ell = len(normal)
    pivot = next(i for i, c in enumerate(normal) if c)
    points = []
    for j in range(ell):
        if j == pivot:
            continue
        pt = [0] * ell
        pt[j] = 1
        pt[pivot] = Fraction(-normal[j], 1) / normal[pivot]
        points.append(pt)
    return points


def theta_applied(arr, vec, d, normal):
    """theta(alpha) as a polynomial, from the flat coefficient vector."""
    polys = vector_to_polys(vec, arr.ell, d)
    out = {}
    for i, c in enumerate(normal):
        if c == 0:
            continue
        for m, v in polys[i].items():
            w = out.get(m, 0) + c * v
            if w == 0:
                out.pop(m, None)
            else:
                out[m] = w
    return out


def divisible_by(arr, poly, normal, samples=25, seed=5):
    """theta(alpha) in (alpha) iff it vanishes on ker(alpha); the kernel is
    irreducible, so vanishing at enough random kernel points certifies it
    (degree small, exact arithmetic: verify on random combinations)."""
    rng = random.Random(seed)
    base = kernel_points(normal)
    for _ in range(samples):
        coeffs = [rng.randint(-5, 5) for _ in base]
        pt = [
            sum(c * b[i] for c, b in zip(coeffs, base)) for i in range(arr.ell)
        ]
        if poly_eval(QQ, poly, pt) != 0:
            return False
    return True


def test_boolean2_top_dims(boolean2):
    sp = derivation_space(boolean2, range(2), 1)
    assert sp.dim == 2


def test_euler_derivation_everywhere(braid3, braid3_lattice):
    eng = engine_for(braid3)
    euler = euler_vector(braid3)
    for el in braid3_lattice.elements:
        basis = eng.space_basis(el.members, 1)
        from arrsheaf.linalg import RowReducer

        red = RowReducer(QQ)
        for v in basis:
            red.add_row(v)
        assert red.contains(euler)


@pytest.mark.parametrize("d,expected", [(1, 1), (2, 4), (3, 10)])
def test_braid3_dims_match_free_hilbert(braid3, d, expected):
    assert derivation_space(braid3, range(6), d).dim == expected
    assert free_module_dims((1, 2, 3), 3, d) == expected


def test_negative_degree_is_zero(boolean2):
    assert derivation_space(boolean2, range(2), -1).dim == 0


def test_membership_oracle(braid3, braid3_lattice):
    # every basis vector of every sampled piece satisfies the divisibility
    rng = random.Random(42)
    flats = list(braid3_lattice.elements)
    for _ in range(8):
        el = rng.choice(flats)
        d = rng.randint(0, 3)
        sp = derivation_space(braid3, el.members, d)
        for vec in sp.vectors:
            for h in el.members:
                poly = theta_applied(braid3, vec, d, braid3.normal(h))
                assert divisible_by(braid3, poly, braid3.normal(h))


def test_localization_monotone(braid3, braid3_lattice):
    # more hyperplanes, more constraints, smaller space
    lat = braid3_lattice
    for el in lat.elements:
        for other in lat.elements:
            if set(el.members) <= set(other.members):
                for d in (1, 2):
                    assert (
                        derivation_space(braid3, other.members, d).dim
                        <= derivation_space(braid3, el.members, d).dim
                    )


def compose_columns(outer, inner):
    """Sparse columns of the map outer after inner, zeros dropped."""
    out = []
    for col in inner:
        acc = {}
        for i, c in col.items():
            for j, w in outer[i].items():
                acc[j] = acc.get(j, 0) + c * w
        out.append({j: v for j, v in acc.items() if v})
    return out


def test_inclusion_identity(braid3, braid3_lattice):
    el = braid3_lattice.elements[3]
    cols = inclusion_matrix(braid3, el.members, el.members, 2)
    assert len(cols) == derivation_space(braid3, el.members, 2).dim
    assert cols == [{j: 1} for j in range(len(cols))]


def test_inclusion_full_column_rank_and_functorial(braid3, braid3_lattice):
    lat = braid3_lattice
    # chain: top flat Z inside a line Y inside a hyperplane X (as subspaces,
    # members shrink along the chain)
    chains = []
    for y in lat.elements:
        for x in lat.elements:
            if set(x.members) < set(y.members):
                for z in lat.elements:
                    if set(y.members) < set(z.members):
                        chains.append((z, y, x))
    assert chains
    z, y, x = chains[0]
    d = 2
    m_zy = inclusion_matrix(braid3, z.members, y.members, d)
    m_yx = inclusion_matrix(braid3, y.members, x.members, d)
    m_zx = inclusion_matrix(braid3, z.members, x.members, d)
    assert len(m_zx) == derivation_space(braid3, z.members, d).dim
    assert sparse_rank(QQ, m_zx) == len(m_zx)
    assert compose_columns(m_yx, m_zy) == m_zx


def test_inclusion_coordinates_rebuild_the_vectors(braid3, braid3_lattice):
    """Column j of the inclusion writes basis vector j of D(A_Y)_d in the
    basis of D(A_X)_d, for every pair of flats Y inside X."""
    elements = braid3_lattice.elements
    d = 2
    for y in elements:
        for x in elements:
            if not set(x.members) <= set(y.members):
                continue
            b_large = derivation_space(braid3, x.members, d).vectors
            cols = inclusion_matrix(braid3, y.members, x.members, d)
            for v, col in zip(derivation_space(braid3, y.members, d).vectors, cols):
                rebuilt = {}
                for k, c in col.items():
                    for j, w in b_large[k].items():
                        rebuilt[j] = rebuilt.get(j, 0) + c * w
                assert {j: w for j, w in rebuilt.items() if w} == v


def test_inclusion_raises_off_the_constraints(boolean2, boolean2_lattice, monkeypatch):
    """A vector of the small side that breaks a constraint of the large flat
    means the inclusion failed, raised as FunctorError."""
    lat = boolean2_lattice
    top = lat.elements[lat.top_index].members
    line = lat.elements[1].members
    eng = engine_for(boolean2)
    off = next({j: 1} for j in range(eng.ambient_dim(1))
               if not eng.contains(line, 1, {j: 1}))
    space_basis = eng.space_basis
    monkeypatch.setattr(
        eng, "space_basis",
        lambda members, d: [off] if members == top else space_basis(members, d))
    with pytest.raises(FunctorError):
        inclusion_matrix(boolean2, top, line, 1)


def test_boolean2_inclusion_shape(boolean2, boolean2_lattice):
    lat = boolean2_lattice
    top = lat.elements[lat.top_index]
    line = lat.elements[1]
    cols = inclusion_matrix(boolean2, top.members, line.members, 1)
    large_dim = derivation_space(boolean2, line.members, 1).dim
    assert (large_dim, len(cols)) == (3, 2)
    assert all(0 <= i < large_dim for col in cols for i in col)
    assert sparse_rank(QQ, cols) == 2


def test_saito_boolean():
    for ell in (2, 3):
        arr = catalog("boolean", ell)
        gens = minimal_generators(arr, arr.size)
        assert saito_check(arr, gens)


def test_saito_rejects_dependent(boolean2):
    # x d/dx and x d/dy have determinant zero
    from arrsheaf.monomials import basis

    mono = basis(2, 1)
    x_dx = {0 * len(mono) + mono.index[(1, 0)]: 1}
    x_dy = {1 * len(mono) + mono.index[(1, 0)]: 1}
    assert not saito_check(boolean2, [(1, x_dx), (1, x_dy)])


def test_saito_degree_sum_mismatch(boolean2):
    from arrsheaf.monomials import basis

    mono = basis(2, 1)
    x_dx = {0 * len(mono) + mono.index[(1, 0)]: 1}
    with pytest.raises(ArrangementError, match="degree sum"):
        saito_check(boolean2, [(1, x_dx), (2, {})])


def test_saito_evaluation_oracle(braid3):
    # independent check of the determinant identity: evaluate both sides at
    # deterministic sample points and compare up to the fixed scalar
    gens = sorted(minimal_generators(braid3, 6), key=lambda g: g[0])
    assert saito_check(braid3, gens)
    polys = [vector_to_polys(v, 3, d) for d, v in gens]
    q_factors = [poly_from_linear(braid3.normal(h), 3) for h in range(6)]

    def det_at(pt):
        rows = [[poly_eval(QQ, polys[j][i], pt) for j in range(3)] for i in range(3)]
        return (
            rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
            - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
            + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
        )

    def q_at(pt):
        out = Fraction(1)
        for f in q_factors:
            out *= poly_eval(QQ, f, pt)
        return out

    base = None
    for pt in [(1, 2, 3), (2, 5, 7), (1, -1, 4), (3, 1, -2)]:
        dv, qv = det_at(pt), q_at(pt)
        if qv != 0:
            ratio = Fraction(dv) / qv
            assert ratio != 0
            if base is None:
                base = ratio
            else:
                assert ratio == base


def test_minimal_generators_boolean2(boolean2):
    gens = minimal_generators(boolean2, 2)
    assert [d for d, _ in gens] == [1, 1]


def test_minimal_generators_braid3(braid3):
    gens = minimal_generators(braid3, 3)
    assert sorted(d for d, _ in gens) == [1, 2, 3]


def test_minimal_generators_generic34(generic34):
    gens = minimal_generators(generic34, 4)
    assert len(gens) > 3


@pytest.mark.parametrize(
    "name,params,status,exponents",
    [
        ("boolean", (2,), "free", (1, 1)),
        ("boolean", (3,), "free", (1, 1, 1)),
        ("boolean", (4,), "free", (1, 1, 1, 1)),
        ("braid", (2,), "free", (1, 2)),
        ("braid", (3,), "free", (1, 2, 3)),
        ("generic", (3, 4), "not-free", ()),
        ("generic", (3, 5), "not-free", ()),
        ("near-pencil", (5,), "free", (1, 1, 3)),
        ("near-pencil", (6,), "free", (1, 1, 4)),
    ],
)
def test_freeness_certificates(name, params, status, exponents):
    cert = freeness_certificate(catalog(name, *params))
    assert cert.status == status
    if exponents:
        assert cert.exponents == exponents


def test_free_hilbert_function_everywhere(braid3):
    cert = freeness_certificate(braid3)
    for d in range(0, braid3.size + 1):
        assert derivation_space(braid3, range(6), d).dim == free_module_dims(
            cert.exponents, 3, d
        )


def braid3_mod_large_prime():
    field = GF(2147483647)
    arr = catalog("braid", 3)
    normals = [tuple(field.from_int(c) for c in h.normal) for h in arr.hyperplanes]
    return Arrangement(field, 3, tuple(Hyperplane(n) for n in normals),
                       name="braid-3-mod-2147483647")


FREE_UP_TO_ELL_4 = (
    "boolean-2", "boolean-3", "boolean-4", "braid-2", "braid-3", "braid-4",
    "near-pencil-4", "near-pencil-5", "near-pencil-6",
)


@pytest.mark.parametrize("label", FREE_UP_TO_ELL_4 + ("braid-3-mod-p",))
def test_stopped_scan_loses_no_generator(label):
    # the scan stops at the Saito basis; the whole derivation module up to
    # degree |A| must still be the free module on the certified exponents
    if label == "braid-3-mod-p":
        arr = braid3_mod_large_prime()
    else:
        name, n = label.rsplit("-", 1)
        arr = catalog(name, int(n))
    cert = freeness_certificate(arr)
    assert cert.status == "free" and cert.scanned_bound == arr.size
    eng = engine_for(arr)
    members = tuple(range(arr.size))
    for d in range(arr.size + 1):
        assert eng.space_dim(members, d) == free_module_dims(
            cert.exponents, arr.ell, d
        )


def natural_order_generators(arr, up_to_degree):
    """The generator scan with no column renumbering and no Saito stop: the
    span of S_1 times the piece below, in natural column order, then every
    basis vector of the piece in order."""
    eng = engine_for(arr)
    members = tuple(range(arr.size))
    gens = []
    for d in range(up_to_degree + 1):
        red = RowReducer(arr.field)
        if d > 0:
            for v in eng.space_basis(members, d - 1):
                for i in range(arr.ell):
                    e = tuple(int(k == i) for k in range(arr.ell))
                    red.add_row(multiply_vector(arr, v, {e: arr.field.one}, d - 1))
        gens += [(d, v) for v in eng.space_basis(members, d) if red.add_row(v)]
    return gens


@pytest.mark.parametrize("label", ["generic-4-6", "braid-3-mod-p"])
def test_generator_scan_matches_natural_order(label):
    # the fill-reducing renumbering decides no generator: degrees and
    # vectors are those of the natural-order scan (the determinant criterion
    # reads the vectors, and no golden file prints them)
    arr = braid3_mod_large_prime() if label == "braid-3-mod-p" else catalog("generic", 4, 6)
    assert minimal_generators(arr, arr.size) == natural_order_generators(arr, arr.size)


def test_not_free_scan_runs_to_the_bound():
    # generic-4-6 never meets the free profile, so every generator degree
    # up to |A| is listed
    cert = freeness_certificate(catalog("generic", 4, 6))
    assert cert.status == "not-free"
    assert cert.witness_degrees == (1,) + (3,) * 10
    assert cert.scanned_bound == 6


def test_multiply_vector_shifts_degrees(boolean2):
    sp = derivation_space(boolean2, range(2), 1)
    v = sp.vectors[0]
    shifted = multiply_vector(boolean2, v, {(1, 0): 1}, 1)
    polys = vector_to_polys(shifted, 2, 2)
    assert any(polys[i] for i in range(2))


def test_near_pencil4_certificate():
    cert = freeness_certificate(catalog("near-pencil", 4))
    assert cert.status == "free" and cert.exponents == (1, 1, 2)


@pytest.mark.parametrize("field", ["Q", "Fp 2147483647"])
@pytest.mark.parametrize(
    "source", [("braid", 3), ("generic", 3, 4), "nonfree-4-7"],
    ids=["braid-3", "generic-3-4", "nonfree-4-7"])
def test_space_coordinates_are_coordinates_of_the_module(source, field, arrangement_over):
    """The positions off the pivots of the constraint elimination are
    coordinates of D(A)_t: there are dim D(A)_t of them, and the kernel
    basis restricted to them has full rank, so restriction is an
    isomorphism of D(A)_t onto K^{dim}."""
    arr = arrangement_over(source, field)
    eng = engine_for(arr)
    members = tuple(range(arr.size))
    for t in range(7):
        coords = eng.space_coordinates(members, t)
        basis = eng.space_basis(members, t)
        assert sorted(coords.values()) == list(range(len(basis))), t
        restricted = [{coords[j]: v for j, v in b.items() if j in coords} for b in basis]
        assert sparse_rank(arr.field, restricted) == len(basis), t


@pytest.mark.parametrize("field", ["Q", "Fp 2147483647"])
@pytest.mark.parametrize(
    "source", [("braid", 3), ("generic", 3, 4), "nonfree-4-7"],
    ids=["braid-3", "generic-3-4", "nonfree-4-7"])
def test_contains_is_span_membership(source, field, arrangement_over):
    """``contains`` (every constraint row vanishes) agrees with membership in
    the span of ``space_basis``, on random combinations of the basis, which
    lie in D(A_X)_t, and on those plus a random unit vector or random
    ambient vectors, most of which do not."""
    arr = arrangement_over(source, field)
    f = arr.field
    eng = engine_for(arr)
    rng = random.Random(11)
    outcomes = set()
    for element in build_lattice(arr).elements:
        members = element.members
        for t in range(4):
            basis = eng.space_basis(members, t)
            span = RowReducer(f)
            for b in basis:
                span.add_row(b)
            n = eng.ambient_dim(t)
            for _ in range(3):
                inside = {}
                for b in basis:
                    c = f.from_int(rng.randint(-3, 3))
                    for j, v in b.items():
                        inside[j] = f.add(inside.get(j, f.zero), f.mul(c, v))
                inside = {j: v for j, v in inside.items() if v}
                assert eng.contains(members, t, inside), (members, t)
                j = rng.randrange(n)
                nudged = dict(inside)
                nudged[j] = f.add(nudged.get(j, f.zero), f.one)
                nudged = {j: v for j, v in nudged.items() if v}
                ambient = {j: f.from_int(rng.randint(-3, 3)) for j in range(n)}
                ambient = {j: v for j, v in ambient.items() if v}
                for vec in (nudged, ambient):
                    inside_span = span.contains(vec)
                    assert eng.contains(members, t, vec) == inside_span, (members, t)
                    outcomes.add(inside_span)
    assert outcomes == {True, False}


@settings(max_examples=40, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(normals=st.lists(st.tuples(*[st.integers(-2, 2)] * 3).filter(any),
                        min_size=3, max_size=6))
def test_dual_dims_of_free_arrangements(normals):
    """Random ell = 3 arrangements: when the certificate says free with
    exponents e_i, Hom(D(A), S) is free on generators of degree -e_i, so
    dim Hom(D(A), S)_e = sum_i dim S_{e+e_i}."""
    text = "field Q\ndim 3\n" + "".join(
        "hyperplane " + " ".join(map(str, n)) + "\n" for n in normals
    )
    try:
        arr = parse_arrangement(text)
    except ArrangementError:  # proportional normals or not essential
        assume(False)
    cert = freeness_certificate(arr)
    if cert.status == "free":
        eng = engine_for(arr)
        for e in range(-arr.size, 3):
            assert eng.dual_dim(e) == sum(dim_poly(3, e + x) for x in cert.exponents)
