"""Punctured-spectrum cohomology via truncated localizations.

Sections of a module sheaf over a chart intersection are fractions with a
fixed denominator power; at truncation level K every tuple space embeds into
the common space W = M_{d + K q} (q the degree of the product of all
denominators) by multiplying with the complementary cofactor.  Restrictions
become literal inclusions of subspaces of W, so the Cech complex at level K
is the complex of quotient functors W / V_T, and the same exact-sequence
bookkeeping as on the lattice side applies:

    dim H^0 = dim W - rank(W -> sum of W/V_center)            (= dim of the
              intersection of the chart subspaces)
    dim H^1 = dim H^0(quotient complex) - that same rank
    dim H^n = dim H^{n-1}(quotient complex)                    (n >= 2)

True cohomology is the direct limit over K; dimensions are reported at the
first K starting a run of three equal levels (vacuous truncations with an
empty common numerator space are skipped), with explicit unstable flags
otherwise.  No a priori truncation bound is available, so stabilization
stays heuristic and flagged.

Two covers are provided: the coordinate charts x_i != 0 (monomial
denominators, fully independent of the lattice machinery) and the
arrangement cover U(X) over the minimal flats (denominators Q(X), the same
complex the truncated structure functor uses on the lattice side).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .arrangement import Arrangement, FormProduct, cofactor_forms
from .derivations import engine_for, multiply_vector
from .lattice import IntersectionLattice
from .linalg import RowReducer, SubspaceReducer, sparse_rank
from .monomials import (
    basis,
    dim_poly,
    poly_from_linear,
    poly_mul,
    poly_pow,
)


# ---------------------------------------------------------------------------
# cover descriptions


class _CoordCover:
    """Charts x_i != 0; a tuple key is the frozenset of inverted variables."""

    label = "coords"

    def __init__(self, arr: Arrangement):
        self.arr = arr
        self.center_keys = [frozenset([i]) for i in range(arr.ell)]
        self.full_degree = arr.ell

    def join(self, keys) -> frozenset:
        out: frozenset = frozenset()
        for k in keys:
            out = out | k
        return out

    def multiplier_degree(self, key) -> int:
        return len(key)

    def cofactor_poly(self, key) -> dict:
        e = tuple(0 if i in key else 1 for i in range(self.arr.ell))
        return {e: self.arr.field.one}


class _FlatCover:
    """Opens U(X) indexed by lattice flats; denominators are the Q(X)."""

    def __init__(self, arr: Arrangement, lattice: IntersectionLattice, centers, label: str):
        self.arr = arr
        self.lattice = lattice
        self.center_keys = list(centers)
        self.full_degree = arr.size
        self.label = label
        self._cofactors: dict[int, dict] = {}

    def join(self, keys) -> int:
        return self.lattice.meet_many(keys)

    def multiplier_degree(self, key: int) -> int:
        return self.arr.size - len(self.lattice.elements[key].members)

    def cofactor_poly(self, key: int) -> dict:
        hit = self._cofactors.get(key)
        if hit is None:
            f = self.arr.field
            hit = {(0,) * self.arr.ell: f.one}
            for h in self.lattice.elements[key].members:
                hit = poly_mul(f, hit, poly_from_linear(self.arr.normal(h), self.arr.ell))
            self._cofactors[key] = hit
        return hit


# ---------------------------------------------------------------------------
# module piece providers


class _Pieces:
    """Graded pieces inside ``blocks`` copies of S_t (monomial coordinates,
    block-major); subclasses say which submodule."""

    blocks: int

    def __init__(self, arr: Arrangement):
        self.arr = arr
        self._splits: dict = {}

    def ambient_dim(self, t: int) -> int:
        return self.blocks * dim_poly(self.arr.ell, t)

    def divisibility_split(self, shift: tuple, num_degree: int, amb_degree: int) -> dict:
        key = (shift, amb_degree)
        hit = self._splits.get(key)
        if hit is not None:
            return hit
        ell = self.arr.ell
        amb = basis(ell, amb_degree)
        num = basis(ell, num_degree) if num_degree >= 0 else None
        rest_index: dict = {}
        shift_back: dict = {}
        for i in range(self.blocks):
            for j, m in enumerate(amb.tuples):
                flat = i * len(amb.tuples) + j
                if num is not None and all(a >= b for a, b in zip(m, shift)):
                    shift_back[flat] = i * len(num.tuples) + num.index[
                        tuple(a - b for a, b in zip(m, shift))
                    ]
                else:
                    rest_index[flat] = len(rest_index)
        hit = {"rest_index": rest_index, "shift_back": shift_back,
               "rest_size": len(rest_index)}
        self._splits[key] = hit
        return hit


class _StructurePieces(_Pieces):
    """Graded pieces of S itself: ambient = monomial coordinates."""

    label = "O"
    blocks = 1

    def module_dim(self, t: int) -> int:
        return dim_poly(self.arr.ell, t)

    def module_basis(self, t: int) -> list[dict]:
        return [{i: self.arr.field.one} for i in range(dim_poly(self.arr.ell, t))]

    def multiply(self, vec: dict, poly: dict, t_from: int) -> dict:
        f = self.arr.field
        src = basis(self.arr.ell, t_from)
        deg = max(sum(m) for m in poly)
        dst = basis(self.arr.ell, t_from + deg)
        out: dict = {}
        for i, c in vec.items():
            m = src.tuples[i]
            for mp, cp in poly.items():
                key = dst.index[tuple(a + b for a, b in zip(m, mp))]
                w = f.add(out.get(key, f.zero), f.mul(c, cp))
                if w == 0:
                    out.pop(key, None)
                else:
                    out[key] = w
        return out

    def constraint_columns_at(self, t: int) -> dict:
        return {"rows": 0, "columns": [{} for _ in range(max(0, dim_poly(self.arr.ell, t)))]}


class _DerivationPieces(_Pieces):
    """Graded pieces of the full derivation module inside S_t^ell."""

    label = "D"

    def __init__(self, arr: Arrangement):
        super().__init__(arr)
        self.blocks = arr.ell
        self.engine = engine_for(arr)
        self.all_members = tuple(range(arr.size))

    def module_dim(self, t: int) -> int:
        return self.engine.space_dim(self.all_members, t)

    def module_basis(self, t: int) -> list[dict]:
        return self.engine.space_basis(self.all_members, t)

    def multiply(self, vec: dict, poly: dict, t_from: int) -> dict:
        return multiply_vector(self.arr, vec, poly, t_from)

    def constraint_columns_at(self, t: int) -> dict:
        cols, layout = self.engine.constraint_columns(self.all_members, t)
        return {"rows": layout["total"], "columns": cols}


# ---------------------------------------------------------------------------
# the truncated quotient-complex engine


class _TupleSpace:
    """The quotient W / V_key with V_key = cofactor^K * M_{numerator degree},
    exposed through an injective linear map into a coordinate space (any such
    map preserves the ranks the dimension formulas need).

    When the cofactor power is a single monomial x^a, membership in V splits
    coordinatewise: v lies in V iff v is divisible by x^a and the shifted-back
    numerator satisfies the module constraints.  The quotient map is then
    (coordinates not divisible by x^a, constraint matrix applied to the
    divisible part) and needs no echelonization.  General cofactors fall back
    to an echelon reducer for V.
    """

    def __init__(self, engine: "TruncatedEngine", key, num_degree: int, amb_degree: int):
        pieces = engine.pieces
        field = engine.field
        self.field = field
        self.dim = pieces.module_dim(amb_degree) - pieces.module_dim(num_degree)
        power = engine.cofactor_power(key, amb_degree - num_degree) if num_degree >= 0 else None
        if power is not None and len(power) == 1 and next(iter(power.values())) == field.one:
            shift = next(iter(power))
            self._init_monomial(engine, shift, num_degree, amb_degree)
        else:
            self._init_reducer(engine, power, num_degree, amb_degree)

    # -- monomial fast path --------------------------------------------------

    def _init_monomial(self, engine, shift, num_degree: int, amb_degree: int):
        self._mode = "monomial"
        pieces = engine.pieces
        self._split = pieces.divisibility_split(shift, num_degree, amb_degree)
        self._constraints = pieces.constraint_columns_at(num_degree)
        rest_size, constraint_rows = self._split["rest_size"], self._constraints["rows"]
        self.out_dim = rest_size + constraint_rows

    # -- generic reducer path --------------------------------------------------

    def _init_reducer(self, engine, power, num_degree: int, amb_degree: int):
        self._mode = "reducer"
        pieces = engine.pieces
        generators = []
        if num_degree >= 0:
            for v in pieces.module_basis(num_degree):
                generators.append(pieces.multiply(v, power, num_degree))
        self.reducer = SubspaceReducer(
            engine.field, pieces.ambient_dim(amb_degree), generators
        )
        self.out_dim = self.reducer.quotient_dim

    def coords(self, vec: dict) -> dict:
        if self._mode == "reducer":
            return self.reducer.quotient_coords(vec)
        split = self._split
        cons = self._constraints
        field = self.field
        out: dict = {}
        shifted: dict = {}
        rest_index = split["rest_index"]
        shift_back = split["shift_back"]
        for j, v in vec.items():
            r = rest_index.get(j)
            if r is not None:
                out[r] = v
            else:
                shifted[shift_back[j]] = v
        rest_size = split["rest_size"]
        for j, v in shifted.items():
            for i, c in cons["columns"][j].items():
                pos = rest_size + i
                w = field.add(out.get(pos, field.zero), field.mul(v, c))
                if w == 0:
                    out.pop(pos, None)
                else:
                    out[pos] = w
        return out


class TruncatedEngine:
    """Shared computation of the truncated Cech complexes for one cover."""

    def __init__(self, arr: Arrangement, cover, pieces):
        self.arr = arr
        self.field = arr.field
        self.cover = cover
        self.pieces = pieces
        self._spaces: dict = {}
        self._powers: dict = {}
        self._w_bases: dict = {}

    def w_basis(self, amb_degree: int) -> list[dict]:
        hit = self._w_bases.get(amb_degree)
        if hit is None:
            hit = self.pieces.module_basis(amb_degree)
            self._w_bases[amb_degree] = hit
        return hit

    def cofactor_power(self, key, degree_needed: int) -> dict:
        """cofactor(key)^K where K = degree_needed / deg cofactor."""
        base = self.cover.cofactor_poly(key)
        base_deg = max((sum(m) for m in base), default=0)
        if base_deg == 0:
            return base
        k, r = divmod(degree_needed, base_deg)
        if r:
            raise ValueError("cofactor degree mismatch")
        cache_key = (key, k)
        hit = self._powers.get(cache_key)
        if hit is None:
            hit = poly_pow(self.field, base, k, self.arr.ell)
            self._powers[cache_key] = hit
        return hit

    def tuple_space(self, key, num_degree: int, amb_degree: int) -> _TupleSpace:
        cache_key = (key, num_degree, amb_degree)
        hit = self._spaces.get(cache_key)
        if hit is None:
            hit = _TupleSpace(self, key, num_degree, amb_degree)
            self._spaces[cache_key] = hit
        return hit

    def dims_at(self, d: int, k: int, n_max: int) -> dict[int, int]:
        """H^0 .. H^{n_max} of the level-k truncated complex in degree d."""
        cover = self.cover
        centers = cover.center_keys
        n_centers = len(centers)
        amb_degree = d + k * cover.full_degree
        w_dim = self.pieces.module_dim(amb_degree)
        if w_dim == 0:
            return {n: 0 for n in range(n_max + 1)}

        def num_degree(key) -> int:
            return d + k * cover.multiplier_degree(key)

        # quotient-complex levels, pruned to nonzero quotients; block sizes for
        # matrix assembly use the ambient quotient (W/V embeds in ambient/V,
        # which is what quotient coordinates index), while the cohomology
        # bookkeeping uses the true section dimension dim W - dim V
        t_levels = min(n_max + 1, n_centers)
        levels = []
        for n in range(t_levels):
            entries = []
            total = 0
            for t in combinations(range(n_centers), n + 1):
                key = cover.join(centers[i] for i in t)
                dim = w_dim - self.pieces.module_dim(num_degree(key))
                if dim:
                    entries.append((t, key, dim))
                    total += dim
            levels.append((entries, total))

        spaces: dict = {}

        def space_for(key) -> _TupleSpace:
            if key not in spaces:
                spaces[key] = self.tuple_space(key, num_degree(key), amb_degree)
            return spaces[key]

        # coboundary ranks: each source block is spanned by the images of the
        # whole W-basis (the projections W -> W/V are onto, so ranks of the
        # assembled spanning columns equal the ranks of the coboundaries)
        w_vectors = self.w_basis(amb_degree)
        deltas = []
        for n in range(t_levels - 1):
            src_entries, _ = levels[n]
            dst_entries, _ = levels[n + 1]
            src_pos = {}
            col_off = 0
            for (t, key, _dim) in src_entries:
                src_pos[t] = (key, col_off)
                col_off += len(w_vectors)
            rows_total = sum(space_for(key).out_dim for (_t, key, _dim) in dst_entries)
            rows: list[dict] = [dict() for _ in range(rows_total)]
            row_off = 0
            for (t, key_dst, _dim) in dst_entries:
                dst_space = space_for(key_dst)
                for kk in range(len(t)):
                    sub = t[:kk] + t[kk + 1 :]
                    if sub not in src_pos:
                        continue
                    _key_src, c_off = src_pos[sub]
                    sign = self.field.one if kk % 2 == 0 else self.field.neg(self.field.one)
                    for j, w_vec in enumerate(w_vectors):
                        for i, v in dst_space.coords(w_vec).items():
                            r = rows[row_off + i]
                            w = self.field.add(
                                r.get(c_off + j, self.field.zero),
                                self.field.mul(sign, v),
                            )
                            if w == 0:
                                r.pop(c_off + j, None)
                            else:
                                r[c_off + j] = w
                row_off += dst_space.out_dim
            deltas.append(rows)
        delta_ranks = [sparse_rank(self.field, rows) for rows in deltas]

        # rank of W -> sum of W/V_center
        level0_entries, _ = levels[0]
        r0 = 0
        if level0_entries:
            center_spaces = []
            off = 0
            for (_t, key, _dim) in level0_entries:
                sp = space_for(key)
                center_spaces.append((off, sp))
                off += sp.out_dim
            columns = []
            for w in w_vectors:
                col: dict = {}
                for c_off, sp in center_spaces:
                    for i, v in sp.coords(w).items():
                        col[c_off + i] = v
                if col:
                    columns.append(col)
            r0 = sparse_rank(self.field, columns)

        out = {0: w_dim - r0}
        if n_max >= 1:
            c0_total = levels[0][1]
            rank0 = delta_ranks[0] if delta_ranks else 0
            h1 = (c0_total - rank0) - r0
            if h1 < 0:
                raise RuntimeError("negative truncated H^1; exactness bug")
            out[1] = h1
        for n in range(2, n_max + 1):
            kk = n - 1
            if kk >= len(levels):
                out[n] = 0
                continue
            total = levels[kk][1]
            rank_out = delta_ranks[kk] if kk < len(delta_ranks) else 0
            rank_in = delta_ranks[kk - 1] if kk - 1 < len(delta_ranks) else 0
            out[n] = total - rank_out - rank_in
            if out[n] < 0:
                raise RuntimeError("negative truncated cohomology; exactness bug")
        return out


_engine_cache: dict = {}


def _truncated_engine(arr: Arrangement, module: str, cover: str,
                      lattice: IntersectionLattice | None = None,
                      centers=None, label: str | None = None) -> TruncatedEngine:
    if cover == "coords":
        cov_key = ("coords",)
    else:
        cov_key = ("flats", tuple(centers))
    key = (arr, module, cov_key)
    hit = _engine_cache.get(key)
    if hit is not None:
        return hit
    if cover == "coords":
        cov = _CoordCover(arr)
    else:
        cov = _FlatCover(arr, lattice, centers, label or "arrangement")
    pieces = _StructurePieces(arr) if module == "O" else _DerivationPieces(arr)
    eng = TruncatedEngine(arr, cov, pieces)
    _engine_cache[key] = eng
    return eng


def stabilized_dims(eng: TruncatedEngine, degrees, n_max: int, kmax: int):
    """Direct-limit dims of H^0 .. H^{n_max} per degree, read off the
    truncation levels of ``eng``.

    Each (n, d) cell takes its value at the first K opening a run of equal
    truncation levels; cells that never settle below kmax keep the kmax
    value and are listed as unstable.  Returns (entries, stabilized_at,
    unstable), keyed by (n, d).
    """
    q_full = eng.cover.full_degree
    entries: dict = {}
    stabilized: dict = {}
    unstable = []
    for d in degrees:
        cache: dict[int, dict[int, int]] = {}

        def dims_at(k: int) -> dict[int, int]:
            if k not in cache:
                cache[k] = eng.dims_at(d, k, n_max)
            return cache[k]

        # truncations with an empty common numerator space are vacuous and a
        # two-level coincidence can mask a later jump, so acceptance needs
        # three consecutive equal levels (two when kmax leaves no room)
        k_start = max(1, (-d + q_full - 1) // q_full) if d < 0 else 1
        run = 3 if kmax - k_start >= 2 else 2
        found: dict[int, tuple[int, int]] = {}
        for k in range(k_start, kmax - run + 2):
            window_dims = [dims_at(k + i) for i in range(run)]
            for n in range(n_max + 1):
                if n not in found and all(
                    w[n] == window_dims[0][n] for w in window_dims
                ):
                    found[n] = (window_dims[0][n], k)
            if len(found) == n_max + 1:
                break
        for n in range(n_max + 1):
            if n in found:
                entries[(n, d)], stabilized[(n, d)] = found[n]
            else:
                entries[(n, d)], stabilized[(n, d)] = dims_at(kmax)[n], kmax
                unstable.append((n, d))
    return entries, stabilized, tuple(unstable)


# ---------------------------------------------------------------------------
# punctured-spectrum results


@dataclass(frozen=True)
class PuncturedCohomologyResult:
    module: str
    cover: str
    window: tuple[int, int]
    kmax: int
    entries: dict                 # (n, d) -> dim at first stable K
    stabilized_at: dict           # (n, d) -> K
    unstable: tuple               # cells never agreeing up to kmax

    def dim(self, n: int, d: int) -> int:
        return self.entries[(n, d)]

    def is_stable(self, n: int, d: int) -> bool:
        return (n, d) not in set(self.unstable)

    def to_json(self, arr: Arrangement) -> dict:
        return {
            "arrangement": arr.label(),
            "ell": arr.ell,
            "module": self.module,
            "cover": self.cover,
            "window": list(self.window),
            "kmax": self.kmax,
            "entries": [
                {
                    "n": n,
                    "d": d,
                    "dim": self.entries[(n, d)],
                    "stabilized_at": self.stabilized_at[(n, d)],
                    "stable": (n, d) not in set(self.unstable),
                }
                for (n, d) in sorted(self.entries)
            ],
        }


def punctured_cohomology(
    arr: Arrangement,
    module: str = "D",
    cover: str = "coords",
    window: tuple[int, int] = (-6, 6),
    kmax: int = 8,
    lattice: IntersectionLattice | None = None,
) -> PuncturedCohomologyResult:
    """Stabilized dims of H^n on the punctured affine space, n in [0, ell-1].

    Each (n, d) cell reports the first K opening a run of three equal
    truncation levels; cells that never settle below kmax are flagged
    unstable rather than raised.
    """
    if kmax < 2:
        raise ValueError("kmax must be at least 2")
    if module not in ("D", "O"):
        raise ValueError("module must be 'D' or 'O'")
    if cover == "coords":
        eng = _truncated_engine(arr, module, "coords")
    elif cover == "arrangement":
        if lattice is None:
            raise ValueError("arrangement cover needs the intersection lattice")
        centers = lattice.l0_minimal_indices()
        eng = _truncated_engine(arr, module, "flats", lattice, centers, "arrangement")
    else:
        raise ValueError("cover must be 'coords' or 'arrangement'")

    entries, stabilized, unstable = stabilized_dims(
        eng, range(window[0], window[1] + 1), arr.ell - 1, kmax
    )
    return PuncturedCohomologyResult(
        module, cover if cover == "coords" else "arrangement",
        window, kmax, entries, stabilized, unstable,
    )


def local_cohomology_dims(
    arr: Arrangement,
    window: tuple[int, int] = (-6, 6),
    kmax: int = 8,
    cover: str = "coords",
    lattice: IntersectionLattice | None = None,
    punctured: PuncturedCohomologyResult | None = None,
) -> dict:
    """Graded dims of the local cohomology of the derivation module.

    H^{i+1} at the maximal ideal equals H^i on the punctured space for
    i >= 1; H^0 and H^1 vanish because the module is reflexive (depth >= 2),
    and that vanishing is reported unconditionally.  ``punctured`` is an
    already computed D run on the same window and kmax.
    """
    if punctured is None:
        punctured = punctured_cohomology(arr, "D", cover, window, kmax, lattice)
    entries: dict = {}
    unstable = set(punctured.unstable)
    flagged = []
    for d in range(window[0], window[1] + 1):
        entries[(0, d)] = 0
        entries[(1, d)] = 0
        for i in range(2, arr.ell + 1):
            entries[(i, d)] = punctured.dim(i - 1, d)
            if (i - 1, d) in unstable:
                flagged.append((i, d))
    return {"entries": entries, "unstable": tuple(flagged), "window": window, "kmax": kmax}


def pd_oracle(
    arr: Arrangement,
    window: tuple[int, int] = (-6, 6),
    kmax: int = 8,
    cover: str = "coords",
    lattice: IntersectionLattice | None = None,
    punctured: PuncturedCohomologyResult | None = None,
) -> dict:
    """Smallest projective dimension consistent with local cohomology
    vanishing observed on the window (window-scoped, never exceeds ell-2).
    ``punctured`` is an already computed D run on the same window and kmax."""
    local = local_cohomology_dims(arr, window, kmax, cover, lattice, punctured)
    lowest_nonzero = None
    for (i, d), dim in sorted(local["entries"].items()):
        if i < arr.ell and dim:
            lowest_nonzero = i if lowest_nonzero is None else min(lowest_nonzero, i)
    p = 0 if lowest_nonzero is None else arr.ell - lowest_nonzero
    relevant_unstable = tuple(
        (i, d) for (i, d) in local["unstable"] if i < arr.ell
    )
    return {
        "pd": p,
        "window": window,
        "kmax": kmax,
        "unstable": relevant_unstable,
    }


# ---------------------------------------------------------------------------
# truncated localized pieces and the localization identity


@dataclass(frozen=True)
class TruncatedLocalizedPiece:
    """Basis of {theta / f^K} in degree d: numerators of degree d + K deg f."""

    flat_members: tuple[int, ...]
    multiplier: FormProduct
    truncation: int
    degree: int
    vectors: tuple

    @property
    def numerator_degree(self) -> int:
        return self.degree + self.truncation * self.multiplier.degree

    @property
    def dim(self) -> int:
        return len(self.vectors)


def localized_derivations(
    arr: Arrangement, members, multiplier: FormProduct, truncation: int, d: int
) -> TruncatedLocalizedPiece:
    """Truncated degree-d piece of the localized derivation module of A_X."""
    if truncation < 0:
        raise ValueError("truncation must be nonnegative")
    eng = engine_for(arr)
    members = tuple(sorted(members))
    t = d + truncation * multiplier.degree
    return TruncatedLocalizedPiece(
        members, multiplier, truncation, d, tuple(eng.space_basis(members, t))
    )


def _multiplier_poly(arr: Arrangement, multiplier: FormProduct) -> dict:
    f = arr.field
    out = {(0,) * arr.ell: f.one}
    for h in multiplier.factors:
        out = poly_mul(f, out, poly_from_linear(arr.normal(h), arr.ell))
    return out


def localization_identity_check(
    arr: Arrangement,
    lattice: IntersectionLattice,
    x_index: int,
    y_index: int,
    d: int,
    truncation: int,
) -> dict:
    """Certify D(A_Y) localized at Q(X) equals D(A_{X meet Y}) localized at
    Q(X) at the sampled degree, via the two inclusions that witness the
    equality of the colimits:

      * level-K numerators of the Y side lie in the meet side (same level),
      * multiplying a meet-side numerator by one factor of Q(X) lands in the
        Y side at level K+1.

    Both are exact subspace containments; the identity of the localizations
    is precisely their simultaneous validity at every level.
    """
    f = arr.field
    eng = engine_for(arr)
    x_members = lattice.elements[x_index].members
    y_members = lattice.elements[y_index].members
    meet_members = lattice.elements[lattice.meet(x_index, y_index)].members
    multiplier = cofactor_forms(arr, x_members)

    t = d + truncation * multiplier.degree
    side_y = eng.space_basis(tuple(sorted(y_members)), t)
    side_meet = eng.space_basis(tuple(sorted(meet_members)), t)

    meet_red = RowReducer(f)
    for v in side_meet:
        meet_red.add_row(v)
    forward = all(meet_red.contains(v) for v in side_y)

    q_poly = _multiplier_poly(arr, multiplier)
    next_y = eng.space_basis(tuple(sorted(y_members)), t + multiplier.degree)
    y_next_red = RowReducer(f)
    for v in next_y:
        y_next_red.add_row(v)
    backward = all(
        y_next_red.contains(multiply_vector(arr, v, q_poly, t)) for v in side_meet
    )
    return {
        "forward_inclusion": forward,
        "backward_inclusion": backward,
        "dims": (len(side_y), len(side_meet)),
    }


def truncation_monotone(arr: Arrangement, members, multiplier: FormProduct, d: int, k: int) -> bool:
    """Multiplying level-k numerators by the multiplier is injective into
    level k+1 (the truncation tower embeds)."""
    eng = engine_for(arr)
    t = d + k * multiplier.degree
    vecs = eng.space_basis(tuple(sorted(members)), t)
    if not vecs:
        return True
    poly = _multiplier_poly(arr, multiplier)
    images = [multiply_vector(arr, v, poly, t) for v in vecs]
    return sparse_rank(arr.field, images) == len(vecs)
