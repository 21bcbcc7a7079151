"""Exact linear algebra over Q and prime fields.

Scalars are plain Python objects: ``int`` / ``fractions.Fraction`` over the
rationals, ``int`` residues in ``[0, p)`` over a prime field.  Everything here
is exact; there is no floating point anywhere in the package.

There is one matrix representation: a sparse row (or column) is a dict
``{index: nonzero scalar}`` and a matrix is a list of them.  There is one
eliminator, :class:`RowReducer`, for both fields.  Its ``add_row`` clears a
row's leading entries against the rows stored so far, which is all that rank
and span membership need; over Q it works fraction-free on primitive integer
rows and never creates a Fraction.  Its ``rref`` back-substitutes the stored
rows once, and every other job reads that reduced echelon form: echelon rows
(:func:`sparse_rref`), kernel bases (:func:`sparse_kernel_basis`) and
quotient coordinates (:class:`SubspaceReducer`).  Coordinates in a kernel
basis need no elimination: each basis vector is the only one nonzero at its
free column, where it has its first key (see
``derivations.inclusion_matrix`` and ``lattice.normal_basis``).

``RowReducer`` pivots on a row's first nonzero column.  Jobs that read only a
rank, a span, membership or some set of kernel coordinates first renumber
the columns into a fill-reducing order (:func:`_fill_reducing`: fewest
nonzeros first, cf. Markowitz 1957), which keeps the stored rows sparse:
:func:`sparse_pivots` and :func:`sparse_rank`, :class:`SubspaceReducer`,
whose free positions index some complement of V, and the membership tests
of the freeness certificate's generator scan.
Jobs whose output depends on the order keep the natural column order:
:func:`sparse_rref` and :func:`sparse_kernel_basis`.
Both orders are fixed functions of the input, so every result is
deterministic across runs.
"""

from __future__ import annotations

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


def _integerized(row: dict) -> dict:
    """Clear denominators and divide by the content; same span, pure ints."""
    if all(type(v) is int for v in row.values()):
        return _primitive(dict(row))
    denom = lcm(*(v.denominator for v in row.values()))
    return _primitive({j: int(v * denom) for j, v in row.items()})


def _primitive(row: dict) -> dict:
    """An integer row divided by the gcd of its entries."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    return {j: v // g for j, v in row.items()} if g > 1 else row


def _eliminate(row: dict, pivot_row: dict, j: int, p: int) -> dict:
    """row with column j cleared by pivot_row; row itself may be reused.

    Over GF(p) (``p`` > 0) pivot entries are 1, and this is
    row - row[j] * pivot_row mod p.  Over Q (``p`` = 0) both rows are
    integer, and this is the fraction-free ca*row - cb*pivot_row with the
    coprime multipliers that clear column j, divided by its content.
    """
    b = row[j]
    if p:
        for k, v in pivot_row.items():
            w = (row.get(k, 0) - b * v) % p
            if w:
                row[k] = w
            else:
                del row[k]
        return row
    a = pivot_row[j]
    g = gcd(a, b)
    ca, cb = a // g, b // g
    if ca != 1:
        row = {k: ca * v for k, v in row.items()}
    for k, v in pivot_row.items():
        w = row.get(k, 0) - cb * v
        if w:
            row[k] = w
        else:
            del row[k]
    return _primitive(row)


class RowReducer:
    """Incremental echelon form of sparse rows under the fixed pivot rule.

    ``add_row`` eliminates a row's leading entry against the stored row with
    that pivot column until the leading column holds no pivot, then stores
    the row under it.  Over GF(p) stored rows have pivot entry 1.  Over Q
    they are primitive integer rows with a positive pivot entry, and
    elimination is fraction-free (Bareiss 1968): no Fraction is ever
    created.  The row space is preserved, so ``rank`` is the number of
    stored rows.  Stored rows are not reduced against each other; ``rref``
    back-substitutes them.
    """

    def __init__(self, field: Field):
        self.field = field
        self.pivot_rows: dict[int, dict] = {}
        self._p = field.characteristic

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def _leading_residue(self, row: dict) -> dict:
        """row reduced until its leading column holds no pivot; {} when row
        lies in the row space."""
        pivot_rows, p = self.pivot_rows, self._p
        row = dict(row) if p else _integerized(row)
        while row:
            j = min(row)
            pivot_row = pivot_rows.get(j)
            if pivot_row is None:
                break
            row = _eliminate(row, pivot_row, j, p)
        return row

    def _normalized(self, row: dict, j: int) -> dict:
        """row scaled to pivot entry 1 over GF(p), positive over Q."""
        lead = row[j]
        if self._p:
            if lead == 1:
                return row
            inv = self.field.div(1, lead)
            return {k: self.field.mul(inv, v) for k, v in row.items()}
        return row if lead > 0 else {k: -v for k, v in row.items()}

    def add_row(self, row: dict) -> bool:
        """Reduce and insert; True if the row enlarged the row space."""
        row = self._leading_residue(row)
        if not row:
            return False
        j = min(row)
        self.pivot_rows[j] = self._normalized(row, j)
        return True

    def contains(self, row: dict) -> bool:
        return not self._leading_residue(row)

    def rref(self) -> dict[int, dict]:
        """Reduced echelon rows keyed by pivot column, ascending.

        Each row is zero on every pivot column but its own, with the scaling
        of the stored rows (pivot entry 1 over GF(p), primitive integer with
        a positive pivot entry over Q).  Back-substitution runs bottom pivot
        up; a reduced row touches no other pivot column, so one snapshot pass
        per row suffices.
        """
        p = self._p
        reduced: dict[int, dict] = {}
        for j in sorted(self.pivot_rows, reverse=True):
            row = dict(self.pivot_rows[j])
            for k in sorted(row.keys() & reduced.keys()):
                row = _eliminate(row, reduced[k], k, p)
            reduced[j] = self._normalized(row, j)
        return {j: reduced[j] for j in sorted(reduced)}


def _reducer(field: Field, rows: Iterable[dict]) -> RowReducer:
    red = RowReducer(field)
    for row in rows:
        red.add_row(row)
    return red


def _fill_reducing(rows: Iterable[dict]) -> tuple[list[dict], list[int]]:
    """The nonzero rows with their columns renumbered, and the original label
    of each new column.

    Columns with fewer nonzeros come first (ties by original label), so the
    first-nonzero pivot rule picks sparse pivot columns and elimination
    creates little fill-in.  Only columns that hold a nonzero get a label.
    """
    rows = [row for row in rows if row]
    counts: dict[int, int] = {}
    for row in rows:
        for j in row:
            counts[j] = counts.get(j, 0) + 1
    labels = sorted(counts, key=lambda j: (counts[j], j))
    new = {j: i for i, j in enumerate(labels)}
    return [{new[j]: v for j, v in row.items()} for row in rows], labels


def sparse_pivots(field: Field, rows: Iterable[dict]) -> set[int]:
    """Pivot columns of the rows, eliminated shortest row first in a
    fill-reducing column order.  They carry an invertible triangular block,
    so a kernel vector is determined by its entries off them."""
    rows, labels = _fill_reducing(rows)
    rows.sort(key=len)
    return {labels[j] for j in _reducer(field, rows).pivot_rows}


def sparse_rank(field: Field, rows: Iterable[dict]) -> int:
    """Rank of the rows: the number of their :func:`sparse_pivots`."""
    return len(sparse_pivots(field, rows))


def sparse_rref(field: Field, rows: Iterable[dict]) -> tuple[list[dict], list[int]]:
    """Fully reduced echelon rows (sorted by pivot, pivot entry 1) and their
    pivot columns."""
    reduced = _reducer(field, rows).rref()
    out = [
        row if row[j] == 1 else {c: field.div(v, row[j]) for c, v in row.items()}
        for j, row in reduced.items()
    ]
    return out, list(reduced)


def sparse_kernel_basis(field: Field, rows: Iterable[dict], cols: int) -> list[dict]:
    """Sparse basis of {v : M v = 0}, one vector per free column, ascending.

    The vector of free column j is e_j minus column j of the reduced echelon
    form (pivot entries 1) on the pivot positions; its keys are j, then those
    pivots ascending.  Over Q the values are ints wherever they are integral.
    """
    reduced = _reducer(field, rows).rref()
    basis = {j: {j: field.one} for j in range(cols) if j not in reduced}
    for p, row in reduced.items():
        lead = row[p]
        for c, v in row.items():
            if c != p:
                basis[c][p] = field.neg(v) if lead == 1 else field.div(field.neg(v), lead)
    return list(basis.values())


class SubspaceReducer:
    """The quotient K^n/V of a subspace V spanned by ``generators``.

    V is echelonized in the fill-reducing column order of its generators;
    positions that no generator touches are zero on V.  The free positions,
    the non-pivot columns in that order and then the untouched positions
    ascending, index a basis of K^n/V: one complement of V, in no particular
    order, whose members are original ambient positions.  Callers read only
    ranks and membership, which any complement gives alike.

    ``quotient_coords`` returns L times the residue of a vector modulo V on
    those positions, where L (``scale``) is the lcm of the pivot entries of
    the echelon rows (1 over GF(p); over Q the rows are primitive integer
    rows).  The map is linear with kernel exactly V; its images differ from
    true quotient coordinates by the one nonzero factor L, which no rank can
    see.
    """

    def __init__(self, field: Field, ambient_dim: int, generators: Iterable[dict] = ()):
        self.field = field
        rows, labels = _fill_reducing(generators)
        reduced = _reducer(field, rows).rref()
        labelled = set(labels)
        self.free_positions = [
            pos for i, pos in enumerate(labels) if i not in reduced
        ] + [j for j in range(ambient_dim) if j not in labelled]
        index = {pos: i for i, pos in enumerate(self.free_positions)}
        self.scale = lcm(*(row[j] for j, row in reduced.items()))
        # v + V has L*residue = L*v - sum over pivots j of v_j (L / lead_j) row_j
        self._pivot_images = {
            labels[j]: {index[labels[c]]: field.mul(self.scale // row[j], v)
                        for c, v in row.items() if c != j}
            for j, row in reduced.items()
        }
        self._free_index = index

    @property
    def quotient_dim(self) -> int:
        return len(self.free_positions)

    def quotient_coords(self, vec: dict) -> dict:
        """L * (vec mod V) on the free-position basis of K^n/V."""
        field = self.field
        add, sub, mul = field.add, field.sub, field.mul
        zero, scale = field.zero, self.scale
        index, images = self._free_index, self._pivot_images
        out: dict = {}
        for j, v in vec.items():
            image = images.get(j)
            if image is None:
                i = index[j]
                out[i] = add(out.get(i, zero), mul(scale, v))
            else:
                for i, w in image.items():
                    out[i] = sub(out.get(i, zero), mul(v, w))
        return {i: v for i, v in out.items() if v}
