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
  global sections.  Each block C(X) is presented on the summands of R(X)
  off a basis of the normals of A_X (``_CokernelBlock``): at most
  codim X dim S_{d-1} generators, and no constraint map but the whole
  arrangement's is built.
  ``oracle.block_complex_dims`` (the ranker shared with the
  punctured-spectrum engine) ranks the small cokernel complex C, each block
  lifted on a basis, r0 is the rank of the global sections of R in C^0, and
  ``oracle.exact_sequence_dims`` reads the dims h of Q off both; the first
  sequence gives

      dim H^0 = dim D(A)_d
      dim H^1 = h^0 - dim S_d^ell + dim D(A)_d
      dim H^n = h^{n-1}                         (n >= 2)

  This route keeps every matrix at the size of the cokernels, which is what
  makes the ell = 4 degree windows feasible.  The materialized route stays
  separate from it, as its reference: the tests compare the two cell by cell
  on the small catalog.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from itertools import combinations

from .arrangement import Arrangement
from .derivations import DerivationEngine, engine_for, inclusion_matrix
from .lattice import IntersectionLattice
from .linalg import Field, RowReducer, SubspaceReducer, sparse_rank
from .monomials import (
    dim_poly,
    monomial_tuples,
    multiplication_columns,
    poly_from_linear,
    poly_mul,
)
from .oracle import (  # CapExceeded is re-exported for the CLI and the package
    DEFAULT_TUPLE_CAP,
    CapExceeded,
    _check_tuple_cap,
    _truncated_engine,
    block_complex_dims,
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


class _CokernelBlock:
    """C(X)_d = coker(S_d^ell -> R(X)_d), R(X) the sum of S/(alpha_h) over the
    members h of X, presented on the summands off a basis of the normals.

    B is the first r = codim X members whose normals are independent, and
    every other member has a_h = sum_k c_{h,k} a_{B_k}.  A derivation theta
    enters only through g_k = theta(alpha_{B_k}), which ranges over all of
    S_d^r, so the constraint image maps onto the basis summands, and C(X)_d
    is R''/Im with R'' the sum of S_d/(alpha_h) over h off B and Im the image
    of S_{d-1}^r under u -> (sum_k c_{h,k} alpha_{B_k} u_k mod alpha_h)_h.
    That is S_{d-1} times the degree-1 images e_k = (c_{h,k} alpha_{B_k}
    mod alpha_h)_h, so the e_k spanned by earlier ones add no generator.
    An entry m on the summand of B_k equals -sum_h c_{h,k} (m mod alpha_h)
    there.  At an independent flat (|X| = r) R'' is zero.
    """

    def __init__(self, engine: DerivationEngine, lattice: IntersectionLattice,
                 flat: int, d: int):
        self.engine, self.field, self.d = engine, engine.field, d
        basis, coeffs = lattice.normal_basis(flat)
        self.rest = tuple(coeffs)
        self.layout = engine.row_layout(self.rest, d)
        # B_k -> the pairs (h, c_{h,k}) with h off B and c_{h,k} != 0
        self._deps = {b: [(h, c[k]) for h, c in coeffs.items() if k in c]
                      for k, b in enumerate(basis)}
        unit = (0,) * engine.ell
        degree1 = engine.row_layout(self.rest, 1)
        spanned = RowReducer(self.field)
        gens = [self._image(self.layout, b, u)
                for b in self._deps if spanned.add_row(self._image(degree1, b, unit))
                for u in monomial_tuples(engine.ell, d - 1)]
        self.quotient = SubspaceReducer(self.field, self.layout["total"], gens)
        self._substituted: dict = {}

    def _add_residue(self, vec: dict, layout: dict, h: int, mono: tuple, scalar) -> None:
        """vec += scalar * (mono mod alpha_h) on the rows of the summand of h."""
        f = self.field
        off = layout["offsets"][h]
        index = layout["row_index"][h]
        for m, c in self.engine.reduce_monomial(h, mono).items():
            r = off + index[m]
            w = f.add(vec.get(r, f.zero), f.mul(scalar, c))
            if w == 0:
                vec.pop(r, None)
            else:
                vec[r] = w

    def _image(self, layout: dict, b: int, u: tuple) -> dict:
        """(c_{h,k} alpha_b u mod alpha_h)_h for b = B_k, in ``layout``."""
        f = self.field
        vec: dict = {}
        for i, a in enumerate(self.engine.arr.normal(b)):
            if a != 0:
                xu = u[:i] + (u[i] + 1,) + u[i + 1:]
                for h, c in self._deps[b]:
                    self._add_residue(vec, layout, h, xu, f.mul(a, c))
        return vec

    def _substitute(self, b: int, idx: int) -> dict:
        """The R'' vector equal in C(X) to the entry (b, idx) on a basis summand."""
        key = (b, idx)
        hit = self._substituted.get(key)
        if hit is None:
            m = self.engine.row_tuples(b, self.d)[idx]
            hit = {}
            for h, c in self._deps[b]:
                self._add_residue(hit, self.layout, h, m, self.field.neg(c))
            self._substituted[key] = hit
        return hit

    def map_into(self, values: dict) -> dict:
        """Quotient coordinates of a family {(h, row_idx): value} of entries of
        R; entries of hyperplanes not containing X are dropped."""
        f = self.field
        offsets = self.layout["offsets"]
        vec: dict = {}
        for (h, idx), v in values.items():
            if h in self._deps:
                for r, w in self._substitute(h, idx).items():
                    vec[r] = f.add(vec.get(r, f.zero), f.mul(v, w))
            elif h in offsets:
                r = offsets[h] + idx
                vec[r] = f.add(vec.get(r, f.zero), v)
        return self.quotient.quotient_coords(vec)


class _CokernelComplex:
    """The cokernels C(J) over cover joins J at one degree, as the blocks
    ``block_complex_dims`` reads.  Each is built once, as a
    :class:`_CokernelBlock`, and has a basis of lifts: its free quotient
    positions as single (h, row) entries of R.  A lift of a face maps into
    C(J) by dropping the hyperplanes off J and reducing."""

    def __init__(self, arr: Arrangement, lattice: IntersectionLattice, d: int):
        self.lattice = lattice
        self.d = d
        self.engine: DerivationEngine = engine_for(arr)
        self.field = arr.field
        self._blocks: dict[int, _CokernelBlock] = {}

    def _block(self, flat: int) -> _CokernelBlock:
        hit = self._blocks.get(flat)
        if hit is None:
            hit = _CokernelBlock(self.engine, self.lattice, flat, self.d)
            self._blocks[flat] = hit
        return hit

    def block(self, flat: int):
        """(lifts, project) of C(flat), None when it is zero.

        C(flat) is zero at an independent flat (as many members as its
        codimension), which is answered before any block is built.
        """
        element = self.lattice.elements[flat]
        if len(element.members) == element.codim:
            return None
        blk = self._block(flat)
        if not blk.quotient.quotient_dim:
            return None
        size = blk.layout["block_dim"]
        lifts = [{(blk.rest[pos // size], pos % size): self.field.one}
                 for pos in blk.quotient.free_positions]
        return lifts, blk.map_into


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
    # H^n reads h^{n-1} of Q, which needs h^{n-2} of C
    field = arr.field
    cok = _CokernelComplex(arr, lattice, d)
    c_dims = block_complex_dims(field, cover.centers, lattice.meet_many, cok.block,
                                n_max - 2)
    # r0: the rank in C^0 of the global sections of R, one lift per (h, row);
    # the lift of (h, row) reaches the blocks of the centers containing h
    block = dim_poly(arr.ell - 1, d)
    columns: dict = {}
    off = 0
    for center in cover.centers:
        b = cok.block(center)
        if b is None:
            continue
        lifts, project = b
        for h in lattice.elements[center].members:
            for idx in range(block):
                col = columns.setdefault((h, idx), {})
                col.update((off + i, v) for i, v in project({(h, idx): field.one}).items())
        off += len(lifts)
    r0 = sparse_rank(field, columns.values())
    q_dims = exact_sequence_dims(arr.size * block, r0, c_dims, n_max - 1)
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

    def restricted(self, window: tuple[int, int]) -> "CohomologyTable":
        """The same table on a window inside its own."""
        def keep(cell) -> bool:
            return window[0] <= cell[1] <= window[1]
        return replace(
            self, window=window,
            entries={c: v for c, v in self.entries.items() if keep(c)},
            stabilized_at={c: v for c, v in self.stabilized_at.items() if keep(c)},
            unstable=tuple(filter(keep, self.unstable)),
        )

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
