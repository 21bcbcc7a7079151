"""Cech complexes of coefficient functors on the open-set poset of a lattice.

The poset is L0 (the intersection lattice minus its top element, ordered by
inclusion); a cover is a family of principal open sets U_X, and every finite
intersection of cover sets is again principal: U_X cap U_Y = U_{X v Y}, the
join computed inside L0 (which is the meet of the full lattice).

Two computation routes produce identical dimensions:

* ``build_cech_complex`` materializes the alternating complex over strictly
  increasing tuples of cover indices, with coboundary matrices; fine for
  small cases and used to verify delta o delta = 0 and acyclicity directly.

* ``lattice_cohomology_table`` reorganizes the same complex through the two
  exact sequences 0 -> D -> S^ell -> Q -> 0 and 0 -> Q -> R -> C -> 0 of
  coefficient functors, where R(X) = sum of S/(alpha_h) over members of X.
  Over any cover of principal opens the nerve is a full simplex, so the
  constant functor is acyclic, and R decomposes into summands supported on
  the full subsimplices {centers inside h}, hence is acyclic with known
  global sections.  ``oracle.exact_sequence_dims`` (shared with the
  punctured-spectrum engine, and the one statement of its formulas) reads
  the dims h of Q off the small cokernel complex C; the first sequence gives

      dim H^0 = dim D(A)_d
      dim H^1 = h^0 - dim S_d^ell + dim D(A)_d
      dim H^n = h^{n-1}                         (n >= 2)

  This route keeps every matrix at the size of the cokernels, which is what
  makes the ell = 4 degree windows feasible.  The materialized route stays
  separate from it, as its reference: the tests compare the two cell by cell
  on the small catalog.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations

from .arrangement import Arrangement
from .derivations import DerivationEngine, engine_for, inclusion_matrix
from .lattice import IntersectionLattice
from .linalg import Field, SubspaceReducer, sparse_rank
from .monomials import dim_poly, multiplication_columns, poly_from_linear, poly_mul
from .oracle import (  # CapExceeded is re-exported for the CLI and the package
    DEFAULT_TUPLE_CAP,
    CapExceeded,
    _check_tuple_cap,
    _truncated_engine,
    exact_sequence_dims,
    stabilized_dims,
)


@dataclass(frozen=True)
class CoverIndex:
    """Ordered cover centers (lattice element indices) plus a label."""

    centers: tuple[int, ...]
    label: str


def minimal_cover(lattice: IntersectionLattice) -> CoverIndex:
    return CoverIndex(lattice.l0_minimal_indices(), "minimal")


def full_cover(lattice: IntersectionLattice) -> CoverIndex:
    return CoverIndex(lattice.l0_indices(), "full")


def validate_cover(lattice: IntersectionLattice, cover: CoverIndex) -> None:
    centers = set(cover.centers)
    if lattice.top_index in centers:
        raise ValueError("cover centers must lie in L0 (top excluded)")
    missing = [m for m in lattice.l0_minimal_indices() if m not in centers]
    if missing:
        raise ValueError(
            f"cover misses the minimal elements {missing}; principal opens "
            "of the centers do not cover L0"
        )


# ---------------------------------------------------------------------------
# coefficient functors


class DerivationFunctor:
    """X -> degree-d piece of the derivation module of the localization A_X."""

    label = "D"

    def __init__(self, arr: Arrangement, lattice: IntersectionLattice):
        self.arr = arr
        self.lattice = lattice
        self.engine = engine_for(arr)

    def section_dim(self, flat: int, d: int) -> int:
        return self.engine.space_dim(self.lattice.elements[flat].members, d)

    def restriction_columns(self, source: int, target: int, d: int) -> list[dict]:
        """Columns of the inclusion D(A_source)_d -> D(A_target)_d
        (source flat inside target flat)."""
        return inclusion_matrix(
            self.arr,
            self.lattice.elements[source].members,
            self.lattice.elements[target].members,
            d,
        )


class StructureFunctor:
    """Truncated structure functor: X -> numerators of S_{Q(X)} at one level.

    The degree-d sections over U_X are spanned by g / Q(X)^K with g of degree
    d + K deg Q(X); restrictions multiply by the cofactor (Q(Y)/Q(X))^K.
    The truncation level is fixed per instance; tables stabilize over K.
    """

    label = "O"

    def __init__(self, arr: Arrangement, lattice: IntersectionLattice, truncation: int):
        if truncation < 0:
            raise ValueError("truncation level must be nonnegative")
        self.arr = arr
        self.lattice = lattice
        self.truncation = truncation

    def q_degree(self, flat: int) -> int:
        return self.arr.size - len(self.lattice.elements[flat].members)

    def section_dim(self, flat: int, d: int) -> int:
        return dim_poly(self.arr.ell, d + self.truncation * self.q_degree(flat))

    def _cofactor(self, source: int, target: int) -> dict:
        src = set(self.lattice.elements[source].members)
        dst = set(self.lattice.elements[target].members)
        if not dst <= src:
            raise ValueError("restriction requires source flat inside target flat")
        f = self.arr.field
        out = {(0,) * self.arr.ell: f.one}
        for h in sorted(src - dst):
            form = poly_from_linear(self.arr.normal(h), self.arr.ell)
            for _ in range(self.truncation):
                out = poly_mul(f, out, form)
        return out

    def restriction_columns(self, source: int, target: int, d: int) -> list[dict]:
        d_from = d + self.truncation * self.q_degree(source)
        if d_from < 0:
            return []
        return multiplication_columns(
            self.arr.field, self._cofactor(source, target), self.arr.ell, d_from
        )


# ---------------------------------------------------------------------------
# direct complex


@dataclass
class CechLevel:
    tuples: list[tuple[int, ...]]
    joins: list[int]
    dims: list[int]
    offsets: list[int]
    total: int


def _build_level(lattice, functor, centers, n: int, d: int) -> CechLevel:
    tuples = list(combinations(range(len(centers)), n + 1))
    joins = [lattice.meet_many(centers[i] for i in t) for t in tuples]
    dims = [functor.section_dim(j, d) for j in joins]
    offsets = []
    total = 0
    for dim in dims:
        offsets.append(total)
        total += dim
    return CechLevel(tuples, joins, dims, offsets, total)


def _assemble_delta(field: Field, functor, src: CechLevel, dst: CechLevel, d: int) -> list[dict]:
    """Rows of the coboundary C^n -> C^{n+1}: alternating sums of restrictions."""
    src_pos = {t: i for i, t in enumerate(src.tuples)}
    rows: list[dict] = [dict() for _ in range(dst.total)]
    for ti, t in enumerate(dst.tuples):
        if dst.dims[ti] == 0:
            continue
        row_off = dst.offsets[ti]
        for k in range(len(t)):
            sub = t[:k] + t[k + 1 :]
            si = src_pos[sub]
            if src.dims[si] == 0:
                continue
            col_off = src.offsets[si]
            sign = field.one if k % 2 == 0 else field.neg(field.one)
            cols = functor.restriction_columns(src.joins[si], dst.joins[ti], d)
            for j, col in enumerate(cols):
                for i, v in col.items():
                    r = rows[row_off + i]
                    w = field.add(r.get(col_off + j, field.zero), field.mul(sign, v))
                    if w == 0:
                        r.pop(col_off + j, None)
                    else:
                        r[col_off + j] = w
    return rows


@dataclass
class CechComplex:
    degree: int
    cover: CoverIndex
    field: Field
    levels: list[CechLevel]
    deltas: list[list[dict]]  # deltas[n]: rows of C^n -> C^{n+1}, indexed by C^{n+1}

    def delta_rank(self, n: int) -> int:
        if n < 0 or n >= len(self.deltas):
            return 0
        return sparse_rank(self.field, self.deltas[n])

    def composition_is_zero(self, n: int) -> bool:
        """Verify delta^{n+1} after delta^n is the zero map."""
        if n + 1 >= len(self.deltas):
            return True
        field = self.field
        lower = self.deltas[n]      # rows indexed by C^{n+1}
        upper = self.deltas[n + 1]  # rows indexed by C^{n+2}, cols by C^{n+1}
        lower_cols: dict[int, dict] = {}
        for mid, row in enumerate(lower):
            for c, v in row.items():
                lower_cols.setdefault(c, {})[mid] = v
        for col in lower_cols.values():
            for urow in upper:
                s = field.zero
                for mid, v in col.items():
                    w = urow.get(mid)
                    if w is not None:
                        s = field.add(s, field.mul(w, v))
                if s != 0:
                    return False
        return True


def build_cech_complex(
    lattice: IntersectionLattice,
    functor,
    cover: CoverIndex,
    d: int,
    max_level: int | None = None,
    tuple_cap: int | None = None,
) -> CechComplex:
    """Assemble terms and coboundaries over strictly increasing center tuples."""
    validate_cover(lattice, cover)
    ell = lattice.arrangement.ell
    n_centers = len(cover.centers)
    if max_level is None:
        max_level = min(ell, n_centers - 1)
    max_level = min(max_level, n_centers - 1)
    if tuple_cap is None:
        tuple_cap = DEFAULT_TUPLE_CAP
    _check_tuple_cap(n_centers, max_level + 1, tuple_cap)
    return _materialize(lattice, functor, cover, max_level, d)


def _materialize(lattice, functor, cover: CoverIndex, max_level: int, d: int) -> CechComplex:
    levels = [
        _build_level(lattice, functor, cover.centers, n, d)
        for n in range(max_level + 1)
    ]
    field = lattice.arrangement.field
    deltas = [
        _assemble_delta(field, functor, levels[n], levels[n + 1], d)
        for n in range(max_level)
    ]
    return CechComplex(d, cover, field, levels, deltas)


def cohomology_dims(c: CechComplex) -> dict[int, int]:
    """dim H^n = (dim C^n - rank delta^n) - rank delta^{n-1}.

    The last level is reported only when the complex provably ends there
    (the level of the full tuple), where the outgoing coboundary is zero.
    """
    out = {}
    n_levels = len(c.levels)
    full_length = len(c.cover.centers)
    ranks = [c.delta_rank(n) for n in range(len(c.deltas))]
    for n in range(n_levels):
        if n < len(c.deltas):
            rank_out = ranks[n]
        elif n == full_length - 1:
            rank_out = 0
        else:
            continue  # outgoing coboundary not materialized
        rank_in = ranks[n - 1] if n >= 1 else 0
        out[n] = c.levels[n].total - rank_out - rank_in
    return out


# ---------------------------------------------------------------------------
# exact-sequence route for the derivation functor


class _CokernelComplex:
    """Cokernels C(J) = coker(S_d^ell -> sum_h S/(alpha_h)) over cover joins,
    as the blocks ``exact_sequence_dims`` reads.  A block is spanned by the
    lifts of its free quotient positions to single (h, row) entries of R; a
    lift maps into C(J) by dropping the hyperplanes off J and reducing.
    Blocks at independent flats are zero and never built; every other block
    is echelonized once, and its dimension is read off that echelon form."""

    def __init__(self, arr: Arrangement, lattice: IntersectionLattice, d: int):
        self.arr = arr
        self.lattice = lattice
        self.d = d
        self.engine: DerivationEngine = engine_for(arr)
        self.field = arr.field
        self._reducers: dict[int, tuple[SubspaceReducer, dict]] = {}

    def _reducer(self, flat: int) -> tuple[SubspaceReducer, dict]:
        hit = self._reducers.get(flat)
        if hit is None:
            members = self.lattice.elements[flat].members
            cols, layout = self.engine.constraint_columns(members, self.d)
            hit = SubspaceReducer(self.field, layout["total"], cols), layout
            self._reducers[flat] = hit
        return hit

    def map_into(self, flat: int, block_values: dict) -> dict:
        """Quotient coordinates at ``flat`` of a family {(h, row_idx): value};
        blocks of hyperplanes not containing the flat are dropped."""
        red, layout = self._reducer(flat)
        vec = {}
        for (h, idx), v in block_values.items():
            off = layout["offsets"].get(h)
            if off is not None:
                vec[off + idx] = v
        return red.quotient_coords(vec)

    def block(self, flat: int):
        """(dim, height, lifts, project) of C(flat), None when it is zero.

        A flat with as many members as its codimension is independent: its
        forms are coordinates x_h in a suitable basis, so f d/dx_h maps onto
        f in the summand of h, and C(flat) is zero without any elimination.
        """
        element = self.lattice.elements[flat]
        members = element.members
        if len(members) == element.codim:
            return None
        red, layout = self._reducer(flat)
        dim = red.quotient_dim
        if not dim:
            return None
        size = layout["block_dim"]
        lifts = [{(members[pos // size], pos % size): self.field.one}
                 for pos in red.free_positions]
        return dim, dim, lifts, lambda vec: self.map_into(flat, vec)


def _derivation_dims_via_sequences(
    arr: Arrangement,
    lattice: IntersectionLattice,
    cover: CoverIndex,
    d: int,
    n_max: int,
) -> dict[int, int]:
    """Cohomology dimensions of the derivation functor at one degree."""
    if d < 0:
        return {n: 0 for n in range(n_max + 1)}
    dim_d_top = engine_for(arr).space_dim(tuple(range(arr.size)), d)
    out = {0: dim_d_top}
    if n_max == 0:
        return out
    # H^n reads h^{n-1}, which needs cokernel levels through n-1
    block = dim_poly(arr.ell - 1, d)
    one = arr.field.one
    q_dims = exact_sequence_dims(
        arr.field, cover.centers, lattice.meet_many,
        _CokernelComplex(arr, lattice, d).block, arr.size * block,
        [{(h, idx): one} for h in range(arr.size) for idx in range(block)],
        n_max - 1,
    )
    out[1] = q_dims[0] - arr.ell * dim_poly(arr.ell, d) + dim_d_top
    if out[1] < 0:
        raise RuntimeError("negative H^1 dimension; exactness bug")
    for n in range(2, n_max + 1):
        out[n] = q_dims[n - 1]
    return out


# ---------------------------------------------------------------------------
# tables


@dataclass(frozen=True)
class CohomologyTable:
    functor: str
    cover: str
    window: tuple[int, int]
    entries: dict                      # (n, d) -> dim
    stabilized_at: dict = dc_field(default_factory=dict)   # (n, d) -> K (O only)
    unstable: tuple = ()
    kmax: int | None = None

    def dim(self, n: int, d: int) -> int:
        return self.entries[(n, d)]

    def to_json(self, arr: Arrangement) -> dict:
        payload = {
            "arrangement": arr.label(),
            "field": "Q" if arr.field.kind == "rationals" else f"Fp {arr.field.characteristic}",
            "ell": arr.ell,
            "functor": self.functor,
            "cover": self.cover,
            "window": list(self.window),
            "entries": [
                {"n": n, "d": d, "dim": self.entries[(n, d)]}
                for (n, d) in sorted(self.entries)
            ],
        }
        if self.kmax is not None:
            payload["kmax"] = self.kmax
            payload["stabilized_at"] = [
                {"n": n, "d": d, "k": self.stabilized_at[(n, d)]}
                for (n, d) in sorted(self.stabilized_at)
            ]
            payload["unstable"] = [
                {"n": n, "d": d} for (n, d) in sorted(self.unstable)
            ]
        return payload


def default_window(arr: Arrangement) -> tuple[int, int]:
    return (-arr.size - arr.ell, arr.size)


def lattice_cohomology_table(
    arr: Arrangement,
    lattice: IntersectionLattice,
    functor: str,
    window: tuple[int, int],
    cover: str = "minimal",
    kmax: int = 8,
) -> CohomologyTable:
    """Dimension table of H^n(L0, -)_d for n in [0, ell-1], d in the window."""
    d_min, d_max = window
    if d_min > d_max:
        raise ValueError("empty degree window")
    if cover == "minimal":
        cov = minimal_cover(lattice)
    elif cover == "full":
        cov = full_cover(lattice)
    else:
        raise ValueError(f"unknown cover {cover!r}; expected 'minimal' or 'full'")
    validate_cover(lattice, cov)
    n_max = arr.ell - 1
    degrees = range(d_min, d_max + 1)

    if functor == "D":
        per_degree = {
            d: _derivation_dims_via_sequences(arr, lattice, cov, d, n_max)
            for d in degrees
        }
        entries = {
            (n, d): per_degree[d].get(n, 0) for d in degrees for n in range(n_max + 1)
        }
        return CohomologyTable("D", cov.label, window, entries)

    if functor == "O":
        eng = _truncated_engine(arr, "O", "flats", lattice, cov.centers)
        entries, stabilized, unstable = stabilized_dims(eng, degrees, n_max, kmax)
        return CohomologyTable(
            "O", cov.label, window, entries, stabilized, unstable, kmax
        )

    raise ValueError(f"unknown functor {functor!r}; expected 'D' or 'O'")


def acyclicity_probe(
    arr: Arrangement,
    lattice: IntersectionLattice,
    functor,
    flat: int,
    d: int,
) -> dict[int, int]:
    """Cohomology of the functor on the principal open U_flat.

    The subposet has a unique minimal element, so every sheaf on it is
    acyclic; the probe recomputes this with the full principal cover of the
    subposet and must return H^0 = sections at the flat, H^n = 0 for n > 0.
    """
    members_x = set(lattice.elements[flat].members)
    sub = [
        i
        for i in lattice.l0_indices()
        if set(lattice.elements[i].members) <= members_x
    ]
    sub.sort(key=lambda i: lattice.elements[i].sort_key())
    max_level = min(len(sub) - 1, arr.ell + 1)
    cover = CoverIndex(tuple(sub), "principal")
    return cohomology_dims(_materialize(lattice, functor, cover, max_level, d))
