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
  global sections.  The long exact sequences then express every cohomology
  dimension through the small cokernel complex C:

      dim H^0 = dim D(A)_d
      dim H^1 = (dim H^0(R) - r0) - dim S_d^ell + dim D(A)_d
      dim H^2 = dim H^0(C-complex) - r0
      dim H^n = dim H^{n-2}(C-complex)          (n >= 3)

  with r0 the rank of the evaluation map H^0(R) -> C^0(C).  This route keeps
  every matrix at the size of the cokernels, which is what makes the ell = 4
  degree windows feasible; its agreement with the direct route is
  property-tested on the small catalog.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations
from math import comb

from .arrangement import Arrangement
from .derivations import DerivationEngine, engine_for, inclusion_matrix
from .lattice import IntersectionLattice
from .linalg import Field, SubspaceReducer, sparse_rank
from .monomials import dim_poly, multiplication_columns, poly_from_linear, poly_mul
from .oracle import _truncated_engine, stabilized_dims

DEFAULT_TUPLE_CAP = 2_000_000


class CapExceeded(RuntimeError):
    """Tuple enumeration exceeded the configured cap; use the minimal cover."""


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


def _check_tuple_cap(n_centers: int, levels: int, cap: int) -> None:
    total = sum(comb(n_centers, k + 1) for k in range(levels))
    if total > cap:
        raise CapExceeded(
            f"{total} Cech tuples exceed the cap {cap}; "
            "switch to the minimal cover or narrow the computation"
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
        m = inclusion_matrix(
            self.arr,
            self.lattice.elements[source].members,
            self.lattice.elements[target].members,
            d,
        )
        return m.col_dicts()


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
    with the restriction/evaluation plumbing the dimension formulas need."""

    def __init__(self, arr: Arrangement, lattice: IntersectionLattice, d: int):
        self.arr = arr
        self.lattice = lattice
        self.d = d
        self.engine: DerivationEngine = engine_for(arr)
        self.field = arr.field
        self._reducers: dict[int, SubspaceReducer] = {}
        self._layouts: dict[int, dict] = {}

    def coker_dim(self, flat: int) -> int:
        members = self.lattice.elements[flat].members
        if not members or self.d < 0:
            return 0
        total = len(members) * dim_poly(self.arr.ell - 1, self.d)
        return total - self.engine.constraint_rank(members, self.d)

    def _reducer(self, flat: int) -> tuple[SubspaceReducer, dict]:
        hit = self._reducers.get(flat)
        if hit is not None:
            return hit, self._layouts[flat]
        members = self.lattice.elements[flat].members
        cols, layout = self.engine.constraint_columns(members, self.d)
        red = SubspaceReducer(self.field, layout["total"], cols)
        self._reducers[flat] = red
        self._layouts[flat] = layout
        return red, layout

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

    def restrict(self, source_flat: int, target_flat: int, local_vec: dict) -> dict:
        """C(source) -> C(target) on quotient coordinates."""
        red_s, layout_s = self._reducer(source_flat)
        free = red_s.free_positions
        block = layout_s["block_dim"]
        members_s = self.lattice.elements[source_flat].members
        lifted: dict = {}
        for i, v in local_vec.items():
            pos = free[i]
            lifted[(members_s[pos // block], pos % block)] = v
        return self.map_into(target_flat, lifted)


def _derivation_dims_via_sequences(
    arr: Arrangement,
    lattice: IntersectionLattice,
    cover: CoverIndex,
    d: int,
    n_max: int,
    tuple_cap: int | None = None,
) -> dict[int, int]:
    """Cohomology dimensions of the derivation functor at one degree."""
    ell = arr.ell
    field = arr.field
    if d < 0:
        return {n: 0 for n in range(n_max + 1)}
    engine = engine_for(arr)
    dim_d_top = engine.space_dim(tuple(range(arr.size)), d)
    out = {0: dim_d_top}
    if n_max == 0:
        return out

    coker = _CokernelComplex(arr, lattice, d)
    centers = cover.centers
    n_centers = len(centers)
    # H^n for n >= 2 reads H^{n-2} off the cokernel complex, which needs
    # levels through n-1; level 0 alone suffices for the H^1 formula
    c_levels = min(n_centers, 1 if n_max <= 1 else n_max)
    if tuple_cap is None:
        tuple_cap = DEFAULT_TUPLE_CAP
    _check_tuple_cap(n_centers, c_levels, tuple_cap)

    # cokernel-complex levels, pruned to tuples with nonzero cokernel
    levels = []
    for n in range(c_levels):
        entries = []
        total = 0
        for t in combinations(range(n_centers), n + 1):
            j = lattice.meet_many(centers[i] for i in t)
            dim = coker.coker_dim(j)
            if dim:
                entries.append((t, j, total, dim))
                total += dim
        levels.append((entries, total))

    deltas: list[list[dict]] = []
    for n in range(c_levels - 1):
        src_entries, _ = levels[n]
        dst_entries, dst_total = levels[n + 1]
        src_pos = {t: (j, off, dim) for (t, j, off, dim) in src_entries}
        rows: list[dict] = [dict() for _ in range(dst_total)]
        for (t, j_dst, row_off, _dim) in dst_entries:
            for k in range(len(t)):
                sub = t[:k] + t[k + 1 :]
                if sub not in src_pos:
                    continue
                j_src, col_off, dim_src = src_pos[sub]
                sign = field.one if k % 2 == 0 else field.neg(field.one)
                for jcol in range(dim_src):
                    image = coker.restrict(j_src, j_dst, {jcol: field.one})
                    for i, v in image.items():
                        r = rows[row_off + i]
                        w = field.add(r.get(col_off + jcol, field.zero), field.mul(sign, v))
                        if w == 0:
                            r.pop(col_off + jcol, None)
                        else:
                            r[col_off + jcol] = w
        deltas.append(rows)

    delta_ranks = [sparse_rank(field, rows) for rows in deltas]

    # rank of the evaluation map H^0(R) -> C^0(C)
    level0_entries, _ = levels[0]
    block = dim_poly(ell - 1, d)
    r0 = 0
    if level0_entries:
        columns = []
        for h in range(arr.size):
            for idx in range(block):
                col: dict = {}
                for (t, j, off, _dim) in level0_entries:
                    for i, v in coker.map_into(j, {(h, idx): field.one}).items():
                        col[off + i] = v
                if col:
                    columns.append(col)
        r0 = sparse_rank(field, columns)

    dim_h0_q = arr.size * block - r0
    h1 = dim_h0_q - ell * dim_poly(ell, d) + dim_d_top
    if h1 < 0:
        raise RuntimeError("negative H^1 dimension; exactness bug")
    out[1] = h1
    if n_max >= 2:
        c0_total = levels[0][1]
        rank0 = delta_ranks[0] if delta_ranks else 0
        h2 = (c0_total - rank0) - r0
        if h2 < 0:
            raise RuntimeError("negative H^2 dimension; exactness bug")
        out[2] = h2
    for n in range(3, n_max + 1):
        k = n - 2  # cokernel-complex level
        if k >= len(levels):
            out[n] = 0
            continue
        total = levels[k][1]
        rank_out = delta_ranks[k] if k < len(delta_ranks) else 0
        rank_in = delta_ranks[k - 1] if k - 1 < len(delta_ranks) else 0
        out[n] = total - rank_out - rank_in
        if out[n] < 0:
            raise RuntimeError("negative cohomology dimension; exactness bug")
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
    tuple_cap: int | None = None,
) -> CohomologyTable:
    """Dimension table of H^n(L0, -)_d for n in [0, ell-1], d in the window."""
    d_min, d_max = window
    if d_min > d_max:
        raise ValueError("empty degree window")
    cov = minimal_cover(lattice) if cover == "minimal" else full_cover(lattice)
    validate_cover(lattice, cov)
    n_max = arr.ell - 1
    degrees = range(d_min, d_max + 1)

    if functor == "D":
        per_degree = {
            d: _derivation_dims_via_sequences(arr, lattice, cov, d, n_max, tuple_cap)
            for d in degrees
        }
        entries = {
            (n, d): per_degree[d].get(n, 0) for d in degrees for n in range(n_max + 1)
        }
        return CohomologyTable("D", cov.label, window, entries)

    if functor == "O":
        eng = _truncated_engine(arr, "O", "flats", lattice, cov.centers, cov.label)
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
    field = arr.field
    max_level = min(len(sub) - 1, arr.ell + 1)
    levels = [
        _build_level(lattice, functor, tuple(sub), n, d)
        for n in range(max_level + 1)
    ]
    deltas = [
        _assemble_delta(field, functor, levels[n], levels[n + 1], d)
        for n in range(max_level)
    ]
    complex_ = CechComplex(d, CoverIndex(tuple(sub), "principal"), field, levels, deltas)
    return cohomology_dims(complex_)
