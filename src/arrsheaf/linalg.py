"""Exact linear algebra over Q and prime fields.

Scalars are plain Python objects: ``int`` / ``fractions.Fraction`` over the
rationals, ``int`` residues in ``[0, p)`` over a prime field.  Everything here
is exact; there is no floating point anywhere in the package.

There is one matrix representation: a sparse row (or column) is a dict
``{index: nonzero scalar}`` and a matrix is a list of them.  Ranks and
span-membership tests over Q go through one incremental integer fraction-free
reducer (:class:`IntegerReducer`, behind :func:`sparse_rank` and
:func:`rank_reducer`), which never creates a Fraction.  Echelon forms,
kernels, quotients and coordinates, and everything over GF(p), go through
:class:`RowReducer`.  Every elimination uses the same fixed pivoting rule
(first nonzero in column order), so bases are deterministic across runs.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class Field:
    """Common interface of the two scalar domains."""

    kind: str
    characteristic: int

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Field)
            and self.kind == other.kind
            and self.characteristic == other.characteristic
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.characteristic))


class RationalField(Field):
    """The rationals.  Scalars: int or Fraction, always in lowest terms."""

    kind = "rationals"
    characteristic = 0

    zero = 0
    one = 1

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def div(a, b):
        if isinstance(a, int) and isinstance(b, int):
            q, r = divmod(a, b)
            if r == 0:
                return q
        return Fraction(a) / Fraction(b)

    @staticmethod
    def from_int(n: int):
        return n

    @staticmethod
    def parse(token: str):
        if "/" in token:
            return Fraction(token)
        return int(token)

    @staticmethod
    def to_str(a) -> str:
        if isinstance(a, Fraction) and a.denominator != 1:
            return f"{a.numerator}/{a.denominator}"
        return str(int(a))

    def __repr__(self) -> str:
        return "QQ"


class PrimeField(Field):
    """Z/pZ for a prime p.  Scalars: residues in [0, p)."""

    kind = "prime-field"

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        self.characteristic = p

    @property
    def p(self) -> int:
        return self.characteristic

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.characteristic

    def sub(self, a, b):
        return (a - b) % self.characteristic

    def mul(self, a, b):
        return (a * b) % self.characteristic

    def neg(self, a):
        return (-a) % self.characteristic

    def div(self, a, b):
        p = self.characteristic
        if b % p == 0:
            raise ZeroDivisionError("division by zero residue")
        return a * pow(b, -1, p) % p

    def from_int(self, n: int):
        return n % self.characteristic

    def parse(self, token: str):
        if "/" in token:
            num, den = token.split("/", 1)
            return self.div(self.from_int(int(num)), self.from_int(int(den)))
        return self.from_int(int(token))

    def to_str(self, a) -> str:
        return str(a % self.characteristic)

    def __repr__(self) -> str:
        return f"GF({self.characteristic})"


QQ = RationalField()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


# ---------------------------------------------------------------------------
# sparse core: vectors and rows are dicts {column index: nonzero scalar}


def _sub_scaled_inplace(field: Field, row: dict, factor, other: dict) -> None:
    zero = field.zero
    sub, mul = field.sub, field.mul
    for j, v in other.items():
        w = sub(row.get(j, zero), mul(factor, v))
        if w == 0:
            row.pop(j, None)
        else:
            row[j] = w


class RowReducer:
    """Incremental echelonization of sparse rows with the fixed pivot rule.

    Rows are reduced against the pivots accumulated so far; a surviving row is
    normalized (pivot entry 1) and stored under its leading column.  The row
    space is preserved, so ``rank`` is the number of stored pivots and the
    kernel of the original matrix equals the kernel of the stored rows.
    """

    def __init__(self, field: Field):
        self.field = field
        self.pivot_rows: dict[int, dict] = {}

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def reduce(self, row: dict) -> dict:
        """Canonical residue of row modulo the current row space.

        Every pivot position is cleared, including those past free columns,
        so the residue is supported on non-pivot positions only.
        """
        field = self.field
        pivots = self.pivot_rows
        row = dict(row)
        heap = sorted(row)
        heapq.heapify(heap)
        done = -1
        while heap:
            j = heapq.heappop(heap)
            if j <= done or j not in row:
                continue
            done = j
            pivot_row = pivots.get(j)
            if pivot_row is None:
                continue
            factor = row[j]
            _sub_scaled_inplace(field, row, factor, pivot_row)
            for k in pivot_row:
                if k > j and k in row:
                    heapq.heappush(heap, k)
        return row

    def add_row(self, row: dict) -> bool:
        """Reduce and insert; True if the row enlarged the row space."""
        residue = self.reduce(row)
        if not residue:
            return False
        j = min(residue)
        inv = self.field.div(self.field.one, residue[j])
        self.pivot_rows[j] = {k: self.field.mul(inv, v) for k, v in residue.items()}
        return True

    def contains(self, row: dict) -> bool:
        return not self.reduce(row)


def _integerized(row: dict) -> dict:
    """Clear denominators and divide by the content; same span, pure ints."""
    denom = 1
    for v in row.values():
        if isinstance(v, Fraction):
            denom = lcm(denom, v.denominator)
    out = {j: int(v * denom) for j, v in row.items()}
    g = 0
    for v in out.values():
        g = gcd(g, v)
    if g > 1:
        out = {j: v // g for j, v in out.items()}
    return out


class IntegerReducer:
    """Incremental rank over the rationals by fraction-free integer elimination.

    Rows are scaled to primitive integer vectors; eliminating a leading entry
    combines ca*row - cb*pivot with the common gcd divided out, so no Fraction
    object is ever created.  The stored rows span the row space but are
    neither normalized nor reduced against each other, so only ``rank`` and
    the answers of ``add_row`` are meaningful; residues, echelon rows and
    kernels go through :class:`RowReducer`.
    """

    def __init__(self):
        self.pivot_rows: dict[int, dict] = {}

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def add_row(self, row: dict) -> bool:
        """Reduce and insert; True if the row enlarged the row space."""
        pivot_rows = self.pivot_rows
        row = _integerized(row)
        while row:
            j = min(row)
            p = pivot_rows.get(j)
            if p is None:
                pivot_rows[j] = row
                return True
            a, b = p[j], row[j]
            g = gcd(a, b)
            ca, cb = a // g, b // g
            new = {k: ca * v for k, v in row.items()}
            for k, v in p.items():
                w = new.get(k, 0) - cb * v
                if w:
                    new[k] = w
                else:
                    new.pop(k, None)
            g = 0
            for v in new.values():
                g = gcd(g, v)
            if g > 1:
                new = {k: v // g for k, v in new.items()}
            row = new
        return False


def rank_reducer(field: Field) -> IntegerReducer | RowReducer:
    """The cheapest reducer that answers rank and membership over ``field``."""
    return IntegerReducer() if field.kind == "rationals" else RowReducer(field)


def sparse_rank(field: Field, rows: Iterable[dict]) -> int:
    red = rank_reducer(field)
    for row in rows:
        red.add_row(row)
    return red.rank


def sparse_rref(field: Field, rows: Iterable[dict]) -> tuple[list[dict], list[int]]:
    """Fully reduced echelon rows (sorted by pivot) and their pivot columns."""
    red = RowReducer(field)
    for row in rows:
        red.add_row(row)
    pivots = sorted(red.pivot_rows)
    reduced: dict[int, dict] = {}
    # back-substitution, bottom pivot up; reduced rows touch no pivot columns,
    # so one snapshot pass per row suffices
    for j in reversed(pivots):
        row = dict(red.pivot_rows[j])
        for k in sorted(set(row) & set(reduced)):
            if k in row:
                _sub_scaled_inplace(field, row, row[k], reduced[k])
        reduced[j] = row
    return [reduced[j] for j in pivots], pivots


def sparse_kernel_basis(field: Field, rows: Iterable[dict], cols: int) -> list[dict]:
    """Sparse basis of {v : M v = 0}, one vector per free column, ascending."""
    rref_rows, pivots = sparse_rref(field, rows)
    pivot_set = set(pivots)
    by_pivot = dict(zip(pivots, rref_rows))
    basis = []
    for j in range(cols):
        if j in pivot_set:
            continue
        vec = {j: field.one}
        for p in pivots:
            c = by_pivot[p].get(j)
            if c is not None:
                vec[p] = field.neg(c)
        basis.append(vec)
    return basis


class SubspaceReducer:
    """Echelon form of a subspace V of K^n, exposing the quotient K^n/V.

    ``quotient_coords`` reduces a vector modulo V and reads off its
    coordinates on the free (non-pivot) positions; these form a basis of the
    quotient, listed in ascending position order.
    """

    def __init__(self, field: Field, ambient_dim: int, generators: Iterable[dict] = ()):
        self.field = field
        self.ambient_dim = ambient_dim
        self._red = RowReducer(field)
        for g in generators:
            self._red.add_row(g)
        self._free: list[int] | None = None

    @property
    def quotient_dim(self) -> int:
        return self.ambient_dim - self._red.rank

    @property
    def free_positions(self) -> list[int]:
        if self._free is None:
            pivots = self._red.pivot_rows
            self._free = [j for j in range(self.ambient_dim) if j not in pivots]
        return self._free

    def quotient_coords(self, vec: dict) -> dict:
        """Coordinates of vec + V on the free-position basis of K^n/V."""
        residue = self._red.reduce(vec)
        index = {pos: i for i, pos in enumerate(self.free_positions)}
        return {index[j]: v for j, v in residue.items()}


class ColumnSpace:
    """Cached echelon data for repeatedly expressing vectors in a column span.

    Used for writing basis columns of one graded piece in terms of another
    (restriction maps); the coordinates are exact and deterministic.
    """

    def __init__(self, field: Field, columns: list[dict], ambient_dim: int):
        self.field = field
        self.ambient_dim = ambient_dim
        rows = []
        for i, col in enumerate(columns):
            row = {j: v for j, v in col.items()}
            row[ambient_dim + i] = field.one
            rows.append(row)
        # echelonize [column | e_i] pairs; reading a residue of a target vector
        # off positions >= ambient_dim yields its (negated) coordinates.
        self._red = RowReducer(field)
        for row in rows:
            self._red.add_row(row)

    def coordinates(self, vec: dict) -> dict | None:
        """coords c with sum_i c_i col_i = vec, or None if vec not in span."""
        residue = self._red.reduce(dict(vec))
        if any(j < self.ambient_dim for j in residue):
            return None
        return {j - self.ambient_dim: self.field.neg(v) for j, v in residue.items()}
