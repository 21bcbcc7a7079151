import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arrsheaf.linalg import (
    GF,
    QQ,
    ColumnSpace,
    IntegerReducer,
    PrimeField,
    RowReducer,
    SubspaceReducer,
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
    """Both Q rank kernels, the integer fraction-free one behind sparse_rank
    and RowReducer(QQ), give the rank of textbook Fraction elimination, and
    answer every membership question of an incremental scan alike."""
    rows, m = matrix
    expected = fraction_rank(rows, m)
    assert sparse_rank(QQ, sparse(rows)) == expected
    ints, fracs = IntegerReducer(), RowReducer(QQ)
    answers = [(ints.add_row(row), fracs.add_row(row)) for row in sparse(rows)]
    assert [a for a, _ in answers] == [b for _, b in answers]
    assert ints.rank == fracs.rank == expected


def test_row_reducer_canonical_residue():
    red = RowReducer(QQ)
    red.add_row({0: 1, 2: 1})
    red.add_row({2: 1})
    # residue must clear position 2 even though position 1 is free
    res = red.reduce({1: 1, 2: 5})
    assert set(res) == {1}


def test_subspace_reducer_quotient():
    red = SubspaceReducer(QQ, 3, [{0: 1, 1: 1}])
    assert red.quotient_dim == 2
    assert red.free_positions == [1, 2]
    assert red.quotient_coords({0: 1, 1: 1}) == {}
    assert red.quotient_coords({0: 1}) == {0: -1}


def test_column_space_coordinates():
    cols = [{0: 1, 1: 2}, {1: 1}]
    space = ColumnSpace(QQ, cols, 3)
    coords = space.coordinates({0: 2, 1: 5})
    assert coords == {0: 2, 1: 1}
    assert space.coordinates({2: 1}) is None
