import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arrsheaf.linalg import (
    _PRIMALITY_BOUND,
    GF,
    QQ,
    PrimeField,
    RowReducer,
    SubspaceReducer,
    _is_prime,
    sparse_kernel_basis,
    sparse_rank,
    sparse_rref,
)


def sparse(rows):
    """Dense rows -> the package's sparse row dicts."""
    return [{j: v for j, v in enumerate(row) if v != 0} for row in rows]


def identity(n):
    return [{i: 1} for i in range(n)]


# ---------------------------------------------------------------------------
# independent oracles: plain textbook elimination, no sharing with the library


def naive_rank(p, rows):
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    n, m = len(rows), len(rows[0])
    rank_ = 0
    for col in range(m):
        pivot = None
        for i in range(rank_, n):
            if rows[i][col] % p:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank_], rows[pivot] = rows[pivot], rows[rank_]
        inv = pow(rows[rank_][col], -1, p)
        rows[rank_] = [(v * inv) % p for v in rows[rank_]]
        for i in range(n):
            if i != rank_ and rows[i][col] % p:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank_])]
        rank_ += 1
    return rank_


def fraction_rank(rows, m):
    rows = [[Fraction(v) for v in r] for r in rows]
    rank_ = 0
    for col in range(m):
        pivot = next((i for i in range(rank_, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank_], rows[pivot] = rows[pivot], rows[rank_]
        for i in range(rank_ + 1, len(rows)):
            f = rows[i][col] / rows[rank_][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank_])]
        rank_ += 1
    return rank_


def fraction_kernel(rows, m):
    """Textbook Gauss-Jordan over Fractions; for each free column j, in
    ascending order, e_j minus column j of the reduced echelon form on the
    pivot positions, keys j then pivots ascending."""
    rows = [[Fraction(v) for v in r] for r in rows]
    pivots = []
    for col in range(m):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        lead = rows[r][col]
        rows[r] = [v / lead for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
    basis = []
    for j in range(m):
        if j in pivots:
            continue
        vec = {j: 1}
        for i, p in enumerate(pivots):
            if rows[i][j]:
                vec[p] = -rows[i][j]
        basis.append(vec)
    return basis


def annihilates(field, rows, vec):
    """M vec = 0, with plain integer/Fraction dot products reduced mod p."""
    p = field.characteristic
    for row in rows:
        dot = sum(v * vec.get(j, 0) for j, v in row.items())
        if (dot % p if p else dot) != 0:
            return False
    return True


def test_rref_identity():
    rows, pivots = sparse_rref(QQ, identity(2))
    assert rows == identity(2)
    assert pivots == [0, 1]


def test_rref_rank_one_forced():
    rows, pivots = sparse_rref(QQ, sparse([[2, 4], [1, 2]]))
    assert rows == [{0: 1, 1: 2}]
    assert pivots == [0]


def test_rref_mod2_hand_elimination():
    # [[1,1],[1,2]] over F2 is [[1,1],[1,0]]; eliminating by hand gives I
    f2 = GF(2)
    rows, pivots = sparse_rref(f2, sparse([[1, 1], [1, 2 % 2]]))
    assert pivots == [0, 1]
    assert rows == identity(2)


def test_rank_examples():
    for field in (QQ, GF(5)):
        assert sparse_rank(field, sparse([[0] * 5] * 3)) == 0
        assert sparse_rank(field, identity(4)) == 4
        assert sparse_rank(field, sparse([[1, 2, 3], [2, 4, 6]])) == 1


def test_kernel_identity_empty():
    assert sparse_kernel_basis(QQ, identity(3), 3) == []


def test_kernel_zero_matrix_full():
    k = sparse_kernel_basis(QQ, sparse([[0] * 3] * 2), 3)
    assert k == identity(3)
    assert sparse_rank(QQ, k) == 3


def test_kernel_one_constraint():
    rows = sparse([[1, 1, 0]])
    k = sparse_kernel_basis(QQ, rows, 3)
    assert len(k) == 2
    assert all(annihilates(QQ, rows, vec) for vec in k)


def test_prime_field_validation():
    with pytest.raises(ValueError):
        PrimeField(6)
    assert GF(7).characteristic == 7


def test_is_prime_agrees_with_sieve():
    n_max = 10**5
    composite = [False] * n_max
    for f in range(2, int(n_max**0.5) + 1):
        for m in range(f * f, n_max, f):
            composite[m] = True
    assert [n for n in range(n_max) if _is_prime(n)] == [
        n for n in range(2, n_max) if not composite[n]]


def test_prime_field_large_characteristic():
    # 2^61 - 1 is prime; trial division to its square root would take hours
    start = time.perf_counter()
    assert PrimeField(2**61 - 1).characteristic == 2**61 - 1
    assert time.perf_counter() - start < 0.5
    # a Carmichael number and a composite with no small factor are rejected
    for n in (561, 2**61 + 1):
        with pytest.raises(ValueError, match="must be prime"):
            PrimeField(n)
    assert _is_prime(_PRIMALITY_BOUND - 2) is False
    with pytest.raises(ValueError, match="too large"):
        PrimeField(_PRIMALITY_BOUND)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_kernel_dimension_sum(p):
    rng = random.Random(100 + p)
    field = GF(p)
    for _ in range(25):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randrange(p) for _ in range(m)] for _ in range(n)]
        r = sparse_rank(field, sparse(rows))
        k = sparse_kernel_basis(field, sparse(rows), m)
        assert r + len(k) == m
        assert r == naive_rank(p, rows)
        assert all(annihilates(field, sparse(rows), vec) for vec in k)


def test_rref_idempotent_and_row_space_preserved():
    rng = random.Random(7)
    for _ in range(20):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        rows = sparse([[Fraction(rng.randint(-4, 4)) for _ in range(m)] for _ in range(n)])
        r1, piv1 = sparse_rref(QQ, rows)
        r2, piv2 = sparse_rref(QQ, r1)
        assert r1 == r2 and piv1 == piv2
        # mutual containment of row spaces via ranks of stacked matrices
        assert sparse_rank(QQ, rows + r1) == sparse_rank(QQ, rows) == len(r1)


_entries = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def _q_matrices(draw):
    """Rational matrices, often rank-deficient: the last row may be a
    combination of the others."""
    m = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(_entries, min_size=m, max_size=m), max_size=6))
    if rows and draw(st.booleans()):
        coeffs = draw(st.lists(_entries, min_size=len(rows), max_size=len(rows)))
        rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(m)])
    return rows, m


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(matrix=_q_matrices())
def test_q_rank_kernels_agree_with_fraction_elimination(matrix):
    """The fraction-free RowReducer(QQ) answers every insert of an
    incremental scan as textbook Fraction ranks of the prefixes do, and
    sparse_rank gives the rank of the whole matrix."""
    rows, m = matrix
    red = RowReducer(QQ)
    before = 0
    for i, row in enumerate(sparse(rows)):
        after = fraction_rank(rows[: i + 1], m)
        assert red.add_row(row) == (after > before)
        assert red.rank == after
        assert red.contains(row)
        before = after
    assert sparse_rank(QQ, sparse(rows)) == fraction_rank(rows, m)


@st.composite
def _q_matrices_with_repeats(draw):
    """``_q_matrices`` plus, at random places, a duplicate row and a zero row."""
    rows, m = draw(_q_matrices())
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), list(draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * m)
    return rows, m


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(matrix=_q_matrices_with_repeats())
def test_q_kernel_equals_fraction_gauss_jordan(matrix):
    """The integer Q kernel returns the unique reduced-echelon kernel basis:
    the same values, ints where integral, and the same key order."""
    rows, m = matrix
    got = sparse_kernel_basis(QQ, sparse(rows), m)
    expected = fraction_kernel(rows, m)
    assert got == expected
    assert [list(v) for v in got] == [list(v) for v in expected]
    for vec in got:
        for v in vec.values():
            assert isinstance(v, int) or v.denominator != 1


def test_subspace_reducer_quotient():
    red = SubspaceReducer(QQ, 3, [{0: 1, 1: 1}])
    assert red.quotient_dim == 2
    assert red.free_positions == [1, 2]
    assert red.quotient_coords({0: 1, 1: 1}) == {}
    assert red.quotient_coords({0: 1}) == {0: -1}


def test_row_reducer_canonical_residue():
    red = RowReducer(QQ)
    red.add_row({0: 1, 2: 1})
    red.add_row({2: 1})
    # back-substitution clears pivot position 2 past the free position 1
    assert red.rref() == {0: {0: 1}, 2: {2: 1}}
    assert not red.contains({1: 1, 2: 5})
    # so the residue of {1: 1, 2: 5} keeps only the free position 1
    quotient = SubspaceReducer(QQ, 3, [{0: 1, 2: 1}, {2: 1}])
    assert quotient.free_positions == [1]
    assert quotient.quotient_coords({1: 1, 2: 5}) == {0: 1}


def _combine(field, a, u, b, w):
    """a*u + b*w for sparse vectors, zeros dropped."""
    out = {}
    for c, vec in ((a, u), (b, w)):
        for j, v in vec.items():
            out[j] = field.add(out.get(j, field.zero), field.mul(c, v))
    return {j: v for j, v in out.items() if v != 0}


@st.composite
def _subspace_cases(draw):
    """A field, generators of a subspace V of K^n (fractional entries and
    non-unit pivots over QQ), a vector in V, two arbitrary vectors and two
    scalars."""
    field = draw(st.sampled_from([QQ, GF(7), GF(2147483647)]))
    if field is QQ:
        entries = _entries
    else:
        p = field.characteristic
        entries = st.one_of(st.integers(-3, 3).map(field.from_int), st.integers(0, p - 1))
    n = draw(st.integers(1, 6))
    vectors = st.lists(entries, min_size=n, max_size=n)
    gens = draw(st.lists(vectors, max_size=5))
    coeffs = draw(st.lists(entries, min_size=len(gens), max_size=len(gens)))
    inside = [0] * n
    for c, g in zip(coeffs, gens):
        inside = [field.add(a, field.mul(c, b)) for a, b in zip(inside, g)]
    u, w = draw(vectors), draw(vectors)
    return field, n, gens, inside, u, w, draw(entries), draw(entries)


def _field_rank(field, rows, n):
    if field is QQ:
        return fraction_rank(rows, n)
    return naive_rank(field.characteristic, rows)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(case=_subspace_cases())
def test_subspace_reducer_quotient_map(case):
    """quotient_coords is a linear map K^n -> K^(n - dim V) with kernel
    exactly V, over QQ and GF(p)."""
    field, n, gens, inside, u, w, a, b = case
    red = SubspaceReducer(field, n, sparse(gens))
    rank_v = _field_rank(field, gens, n)
    assert red.quotient_dim == n - rank_v
    assert len(red.free_positions) == red.quotient_dim
    assert red.quotient_coords(sparse([inside])[0]) == {}
    for vec in (u, w):
        in_v = _field_rank(field, gens + [vec], n) == rank_v
        assert (red.quotient_coords(sparse([vec])[0]) == {}) == in_v
    qu, qw = red.quotient_coords(sparse([u])[0]), red.quotient_coords(sparse([w])[0])
    mixed = _combine(field, a, sparse([u])[0], b, sparse([w])[0])
    assert red.quotient_coords(mixed) == _combine(field, a, qu, b, qw)
    images = [red.quotient_coords({j: field.one}) for j in range(n)]
    assert sparse_rank(field, images) == red.quotient_dim


@st.composite
def _order_cases(draw):
    """``_subspace_cases`` plus a permutation of the generators and one of
    the columns."""
    field, n, gens, inside, u, w, _a, _b = draw(_subspace_cases())
    row_order = draw(st.permutations(range(len(gens))))
    col_order = draw(st.permutations(range(n)))
    return field, n, gens, inside, (u, w), row_order, col_order


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(case=_order_cases())
def test_fill_reducing_order_changes_nothing_read(case):
    """The renumbered eliminations give what the callers read: the rank of
    a natural-order RowReducer, unchanged by permuting rows and columns;
    free positions whose unit vectors lift a basis of the quotient (cech
    builds its lifts from exactly those positions); membership; and the same
    free positions on a second build."""
    field, n, gens, inside, vecs, row_order, col_order = case
    rows = sparse(gens)
    natural = RowReducer(field)
    for row in rows:
        natural.add_row(row)
    assert sparse_rank(field, rows) == natural.rank
    permuted = [{col_order[j]: v for j, v in rows[i].items()} for i in row_order]
    assert sparse_rank(field, permuted) == natural.rank

    red = SubspaceReducer(field, n, rows)
    assert red.quotient_dim == n - natural.rank
    assert sorted(red.free_positions) == sorted(set(red.free_positions))
    units = [{pos: field.one} for pos in red.free_positions]
    images = [red.quotient_coords(unit) for unit in units]
    assert sparse_rank(field, images) == red.quotient_dim
    assert sparse_rank(field, rows + units) == n
    assert red.quotient_coords(sparse([inside])[0]) == {}
    for vec in sparse(vecs):
        assert (red.quotient_coords(vec) == {}) == natural.contains(vec)
    assert SubspaceReducer(field, n, rows).free_positions == red.free_positions
