"""Punctured-spectrum cohomology via truncated localizations.

Sections of a module sheaf over a chart intersection are fractions with a
fixed denominator power; at truncation level K every tuple space embeds into
the common space W = M_{d + K q} (q the degree of the product of all
denominators) by multiplying with the complementary cofactor.  Restrictions
become literal inclusions of subspaces V_T of W, so the Cech complex at level
K is the kernel of the constant functor W onto the quotient functor W / V_T.
Every cover ranks those quotients in the coordinates of W, through
``block_complex_dims``, which ranks every Cech complex of the package (the
cokernel complex of the lattice side, ``cech``, too) given a basis of lifts
per block; ``exact_sequence_dims`` turns the dims of a quotient complex into
those of its kernel.

True cohomology is the direct limit over K; dimensions are reported at the
first K starting a run of three equal levels (vacuous truncations with an
empty common numerator space are skipped), with explicit unstable flags
otherwise.  No a priori truncation bound is available, so stabilization
stays heuristic and flagged.

Both covers are principal, so each is given by the linear forms its charts
invert: a coordinate chart x_i != 0 one unit form (fully independent of the
lattice machinery), an open U(X) of the arrangement cover over the minimal
flats the hyperplanes not containing X (the complex the truncated structure
functor uses on the lattice side).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .arrangement import Arrangement, FormProduct, cofactor_forms
from .derivations import engine_for, multiply_vector
from .lattice import IntersectionLattice
from .linalg import SubspaceReducer, sparse_rank
from .monomials import dim_poly, forms_product, poly_pow


# ---------------------------------------------------------------------------
# the exact-sequence reduction shared by both engines

DEFAULT_TUPLE_CAP = 2_000_000


class CapExceeded(RuntimeError):
    """Tuple enumeration exceeded the configured cap; use the minimal cover."""


def _check_tuple_cap(n_centers: int, levels: int) -> None:
    """Count the tuples of the first ``levels`` levels against
    ``DEFAULT_TUPLE_CAP`` before any is built."""
    total = sum(comb(n_centers, k + 1) for k in range(levels))
    if total > DEFAULT_TUPLE_CAP:
        raise CapExceeded(
            f"{total} Cech tuples exceed the cap {DEFAULT_TUPLE_CAP}; "
            "switch to the minimal cover or narrow the computation"
        )


def block_complex_dims(field, centers, join, block, n_max: int) -> dict[int, int]:
    """H^0 .. H^{n_max} of a Cech complex C over a cover whose nerve is a full
    simplex: h^n = dim C^n - rank delta^n - rank delta^{n-1}.

    ``join`` maps a tuple of centers to the key of its intersection.
    ``block(key)`` is None when C(key) = 0 and otherwise (lifts, project):
    vectors whose images form a basis of C(key), and the map taking a lift
    of a face of the key to its coordinates on some basis of C(key).  The
    tuples of the cover are counted against ``DEFAULT_TUPLE_CAP`` before any
    is built.
    """
    n_levels = n_max + 2  # delta^{n_max} reaches level n_max + 1
    _check_tuple_cap(len(centers), n_levels)
    blocks: dict = {}
    levels = []
    for n in range(min(n_levels, len(centers))):
        entries = []
        for t in combinations(range(len(centers)), n + 1):
            key = join(centers[i] for i in t)
            if key not in blocks:
                blocks[key] = block(key)
            if blocks[key] is not None:
                entries.append((t, blocks[key]))
        levels.append(entries)

    ranks = [0]  # ranks[n] is the rank of delta^{n-1}, the map into C^n
    for src, dst in zip(levels, levels[1:]):
        faces = {}
        col_off = 0
        for t, (lifts, _project) in src:
            faces[t] = (col_off, lifts)
            col_off += len(lifts)
        rows: list[dict] = []
        for t, (basis, project) in dst:
            # a face sits in a tuple in one way only, so no entry is hit twice
            block_rows: list[dict] = [{} for _ in basis]
            for k in range(len(t)):
                face = faces.get(t[:k] + t[k + 1 :])
                if face is None:
                    continue
                c_off, lifts = face
                for j, lift in enumerate(lifts):
                    for i, v in project(lift).items():
                        block_rows[i][c_off + j] = v if k % 2 == 0 else field.neg(v)
            rows += block_rows
        ranks.append(sparse_rank(field, rows))
    ranks.append(0)

    out = {n: 0 for n in range(n_max + 1)}
    for n, entries in enumerate(levels[: n_max + 1]):
        out[n] = sum(len(b[0]) for _t, b in entries) - ranks[n + 1] - ranks[n]
    if any(v < 0 for v in out.values()):
        raise RuntimeError("negative cohomology dimension; exactness bug")
    return out


def exact_sequence_dims(global_dim: int, r0: int, quotient_dims: dict[int, int],
                        n_max: int) -> dict[int, int]:
    """H^0 .. H^{n_max} of V = ker(A -> C), where A is acyclic with global
    sections G of dimension ``global_dim`` and A -> C is onto, from the long
    exact sequence: with ``quotient_dims`` the dims of H^0 .. H^{n_max-1}(C)
    and r0 = rank(G -> C^0),

        h^0(V) = dim G - r0,  h^1(V) = h^0(C) - r0,  h^n(V) = h^{n-1}(C).
    """
    out = {0: global_dim - r0}
    for n in range(1, n_max + 1):
        out[n] = quotient_dims[n - 1] - (r0 if n == 1 else 0)
    if any(v < 0 for v in out.values()):
        raise RuntimeError("negative cohomology dimension; exactness bug")
    return out


# ---------------------------------------------------------------------------
# module piece providers: graded pieces inside copies of S_t (monomial
# coordinates, block-major)


class _StructurePieces:
    """Graded pieces of S itself; the monomials are its coordinates."""

    def __init__(self, arr: Arrangement):
        self.arr = arr

    def module_dim(self, t: int) -> int:
        return dim_poly(self.arr.ell, t)

    def module_basis(self, t: int) -> list[dict]:
        return [{i: self.arr.field.one} for i in range(dim_poly(self.arr.ell, t))]

    def in_coordinates(self, t: int, vectors: list[dict]) -> list[dict]:
        return vectors


class _DerivationPieces:
    """Graded pieces of the full derivation module inside S_t^ell."""

    def __init__(self, arr: Arrangement):
        self.arr = arr
        self.engine = engine_for(arr)
        self.all_members = tuple(range(arr.size))

    def module_dim(self, t: int) -> int:
        return self.engine.space_dim(self.all_members, t)

    def module_basis(self, t: int) -> list[dict]:
        return self.engine.space_basis(self.all_members, t)

    def in_coordinates(self, t: int, vectors: list[dict]) -> list[dict]:
        """Vectors of D(A)_t on its coordinates (``space_coordinates``)."""
        index = self.engine.space_coordinates(self.all_members, t)
        return [{index[j]: v for j, v in vec.items() if j in index} for vec in vectors]


# ---------------------------------------------------------------------------
# the truncated Cech complex engine


class TruncatedEngine:
    """Truncated Cech complexes on a principal cover: chart i inverts the
    ``forms`` (normals) indexed by the frozenset ``centers[i]``.  A tuple
    inverts the union of its charts' sets, its key: its multiplier has
    degree len(key), and its cofactor c_key is the product of the forms off
    the key."""

    def __init__(self, arr: Arrangement, forms, centers, pieces):
        self.arr = arr
        self.field = arr.field
        self.forms = forms
        self.centers = centers
        self.pieces = pieces
        self._powers: dict = {}

    def cofactor_power(self, key: frozenset, k: int) -> dict:
        """c_key^k, cached by (key, k)."""
        hit = self._powers.get((key, k))
        if hit is None:
            ell = self.arr.ell
            base = forms_product(self.field, (n for i, n in enumerate(self.forms)
                                              if i not in key), ell)
            hit = self._powers[(key, k)] = poly_pow(self.field, base, k, ell)
        return hit

    def tuple_space(self, key: frozenset, k: int, d: int) -> list[dict]:
        """Spanning vectors c_key^k b of V_key in the coordinates of
        W = M_{d + k q}, b over a basis of the numerator piece
        M_{d + k len(key)}; empty when that degree is negative."""
        # a method of its own, so a profiler (perfbench/tracer.py) can time it
        num_degree = d + k * len(key)
        if num_degree < 0:
            return []
        power = self.cofactor_power(key, k)
        return self.pieces.in_coordinates(
            d + k * len(self.forms), [multiply_vector(self.arr, b, power, num_degree)
                                      for b in self.pieces.module_basis(num_degree)])

    def dims_at(self, d: int, k: int, n_max: int) -> dict[int, int]:
        """H^0 .. H^{n_max} of the level-k truncated complex in degree d.

        Its term over a tuple T is V_T = c_T^k M_{d + k deg}, embedded in the
        common space W = M_{d + k q} by the cofactor power c_T^k; its maps
        are inclusions.  Every cover ranks the quotients C(T) = W / V_T, in
        the coordinates of W, and reads the dims off the long exact sequence
        of 0 -> V -> W -> C -> 0 with r0 = rank(W -> C^0) = dim W - dim M_d:
        the coordinate charts and the opens U(X) each cover the punctured
        spectrum U, and M (S or D(A)) is reflexive with ell >= 2, so
        Gamma(U, M~)_d = M_d.  The level-k complex is a subcomplex of the
        localized Cech complex, so its H^0 lies inside c^k M_d, where c is
        the product of all denominators; and c^k M_d lies in every V_T, so
        H^0 = c^k M_d has dimension dim M_d (0 for d < 0).  A wrong r0 would
        show up as a negative dimension, which ``exact_sequence_dims``
        raises, or in h^1.  Tuples with V_T = W drop out of C, as do, on the
        flat covers, all that meet in the bottom flat (they invert every
        form)."""
        pieces = self.pieces
        w_dim = pieces.module_dim(d + k * len(self.forms))
        if w_dim == 0:
            return {n: 0 for n in range(n_max + 1)}
        units = [{i: self.field.one} for i in range(w_dim)]  # shared by all blocks

        def quotient(key):
            if pieces.module_dim(d + k * len(key)) == w_dim:
                return None
            red = SubspaceReducer(self.field, w_dim, self.tuple_space(key, k, d))
            return [units[i] for i in red.free_positions], red.quotient_coords

        quotient_dims = block_complex_dims(self.field, self.centers,
                                           lambda keys: frozenset().union(*keys),
                                           quotient, n_max - 1)
        return exact_sequence_dims(w_dim, w_dim - pieces.module_dim(d),
                                   quotient_dims, n_max)


def _truncated_engine(arr: Arrangement, module: str, cover: str,
                      lattice: IntersectionLattice | None = None,
                      centers=None) -> TruncatedEngine:
    """The engine of ``module`` ("O" for S, else D(A)) on the coordinate
    charts (``cover`` "coords") or on the opens U(X) over the flats
    ``centers`` of ``lattice``; a tuple of flats inverts the hyperplanes off
    the members of its meet."""
    f = arr.field
    if cover == "coords":
        forms = [tuple(f.one if j == i else f.zero for j in range(arr.ell))
                 for i in range(arr.ell)]
        keys = [frozenset([i]) for i in range(arr.ell)]
    else:
        forms = [arr.normal(h) for h in range(arr.size)]
        keys = [frozenset(range(arr.size)).difference(lattice.elements[x].members)
                for x in centers]
    pieces = _StructurePieces(arr) if module == "O" else _DerivationPieces(arr)
    return TruncatedEngine(arr, forms, keys, pieces)


def check_kmax(kmax: int) -> None:
    """Reject a truncation depth that leaves no two levels to compare."""
    if kmax < 2:
        raise ValueError("kmax must be at least 2")


def stabilized_dims(eng: TruncatedEngine, degrees, n_max: int, kmax: int):
    """Direct-limit dims of H^0 .. H^{n_max} per degree, read off the
    truncation levels of ``eng``.

    Each (n, d) cell takes its value at the first K opening a run of equal
    truncation levels; cells that never settle below kmax keep the kmax
    value and are listed as unstable.  Returns (entries, stabilized_at,
    unstable), keyed by (n, d).
    """
    check_kmax(kmax)
    q_full = len(eng.forms)
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
        return (n, d) not in self.unstable

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
                    "stable": (n, d) not in self.unstable,
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
    if module not in ("D", "O"):
        raise ValueError("module must be 'D' or 'O'")
    if cover == "coords":
        eng = _truncated_engine(arr, module, "coords")
    elif cover == "arrangement":
        if lattice is None:
            raise ValueError("arrangement cover needs the intersection lattice")
        centers = lattice.l0_minimal_indices()
        eng = _truncated_engine(arr, module, "flats", lattice, centers)
    else:
        raise ValueError("cover must be 'coords' or 'arrangement'")

    entries, stabilized, unstable = stabilized_dims(
        eng, range(window[0], window[1] + 1), arr.ell - 1, kmax
    )
    return PuncturedCohomologyResult(
        module, cover, window, kmax, entries, stabilized, unstable,
    )


def pd_from_middle_levels(entries: dict, ell: int) -> int:
    """Smallest p with H^n vanishing for 0 < n < ell-1-p, read off (n, d)
    cells: ell-1 minus the lowest nonzero middle level, 0 if there is none."""
    middle = [n for (n, _d), dim in entries.items() if 0 < n < ell - 1 and dim]
    return ell - 1 - min(middle) if middle else 0


def local_cohomology_dims(
    arr: Arrangement,
    window: tuple[int, int] = (-6, 6),
    kmax: int = 8,
) -> dict:
    """Graded dims of the local cohomology of the derivation module.

    H^{i+1} at the maximal ideal equals H^i on the punctured space for
    i >= 1; H^0 and H^1 vanish because the module is reflexive (depth >= 2),
    and that vanishing is reported unconditionally.
    """
    punctured = punctured_cohomology(arr, "D", "coords", window, kmax)
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


def pd_oracle(arr: Arrangement, punctured: PuncturedCohomologyResult) -> dict:
    """Smallest projective dimension consistent with local cohomology
    vanishing observed on the window of the D run ``punctured``
    (window-scoped, never exceeds ell-2).  By Auslander-Buchsbaum through
    the lowest nonzero local cohomology H^{n+1} = H^n(punctured), this is
    ``pd_from_middle_levels`` of the punctured entries; ``unstable`` lists
    the unstable cells it read, in local indexing."""
    ell = arr.ell
    return {
        "pd": pd_from_middle_levels(punctured.entries, ell),
        "window": punctured.window,
        "kmax": punctured.kmax,
        "unstable": tuple((n + 1, d) for (n, d) in punctured.unstable if 0 < n < ell - 1),
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

    Both are exact subspace containments, each tested on the defining
    constraints of the containing side; the identity of the localizations
    is precisely their simultaneous validity at every level.
    """
    f = arr.field
    eng = engine_for(arr)
    x_members = lattice.elements[x_index].members
    y_members = lattice.elements[y_index].members
    meet_members = lattice.elements[lattice.meet(x_index, y_index)].members
    multiplier = cofactor_forms(arr, x_members)

    t = d + truncation * multiplier.degree
    y_key, meet_key = tuple(sorted(y_members)), tuple(sorted(meet_members))
    side_y = eng.space_basis(y_key, t)
    side_meet = eng.space_basis(meet_key, t)

    forward = all(eng.contains(meet_key, t, v) for v in side_y)

    q_poly = forms_product(f, (arr.normal(h) for h in multiplier.factors), arr.ell)
    backward = all(
        eng.contains(y_key, t + multiplier.degree, multiply_vector(arr, v, q_poly, t))
        for v in side_meet
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
    poly = forms_product(arr.field, (arr.normal(h) for h in multiplier.factors), arr.ell)
    images = [multiply_vector(arr, v, poly, t) for v in vecs]
    return sparse_rank(arr.field, images) == len(vecs)
