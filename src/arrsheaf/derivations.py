"""Graded pieces of logarithmic derivation modules and freeness certification.

A derivation of degree d is written on the basis dx_1 ... dx_ell with
homogeneous degree-d polynomial coefficients (so the Euler derivation has
degree 1; the exponents of the free catalog arrangements are 1, 2, ..., ell
under this convention).  The defining condition "theta(alpha) is divisible by
alpha for every member form alpha" is imposed degreewise: theta(alpha) is
reduced modulo alpha by eliminating the pivot variable of alpha (its first
nonzero coordinate) and all coefficients of the reduction must vanish.  The
degree-d piece is the exact kernel of those stacked linear constraints.

``DerivationEngine`` keeps those constraint rows, one per (member, reduced
monomial), and they are the one representation of a piece that the other
layers read: its dimension and coordinates come from one fill-reducing
elimination of the rows (``space_coordinates``), its basis from their kernel
(``space_basis``), and membership is the rows vanishing on a vector
(``contains``), which is how :func:`inclusion_matrix` checks an inclusion
before it reads the coordinates off the kernel basis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from .arrangement import Arrangement, ArrangementError, members_of
from .linalg import (
    _fill_reducing,
    _integerized,
    _reducer,
    sparse_kernel_basis,
    sparse_pivots,
)
from .monomials import (
    basis,
    dim_poly,
    forms_product,
    mono_mul,
    monomial_tuples,
    poly_mul,
)


class FunctorError(RuntimeError):
    """An exact inclusion/restriction failed to hold; indicates a bug."""


@lru_cache(maxsize=None)
def reduced_row_tuples(ell: int, degree: int, pivot: int) -> tuple:
    """Monomials of the given degree with zero exponent at the pivot variable."""
    out = []
    for m in monomial_tuples(ell - 1, degree):
        out.append(m[:pivot] + (0,) + m[pivot:])
    return tuple(out)


class DerivationEngine:
    """Per-arrangement cache of constraint rows, their one fill-reducing
    elimination per (members, degree), and kernel bases."""

    def __init__(self, arr: Arrangement):
        self.arr = arr
        self.field = arr.field
        self.ell = arr.ell
        self._subst: dict[int, dict] = {}       # h -> {monomial: reduction dict}
        self._pivot: dict[int, int] = {}
        self._form: dict[int, dict] = {}        # h -> x_pivot as a form mod alpha_h
        self._rows: dict = {}
        self._coordinates: dict = {}
        self._basis: dict = {}
        f = self.field
        for h in range(arr.size):
            normal = arr.normal(h)
            p = self._pivot[h] = next(i for i, c in enumerate(normal) if c != 0)
            self._subst[h] = {}
            inv = f.div(f.one, normal[p])
            self._form[h] = {
                tuple(int(k == j) for k in range(self.ell)): f.neg(f.mul(inv, c))
                for j, c in enumerate(normal) if j != p and c != 0
            }

    # -- reduction of a monomial modulo one defining form --------------------

    def reduce_monomial(self, h: int, m: tuple) -> dict:
        """m mod alpha_h as {pivot-free monomial: scalar}."""
        memo = self._subst[h]
        hit = memo.get(m)
        if hit is not None:
            return hit
        p = self._pivot[h]
        if m[p] == 0:
            memo[m] = {m: self.field.one}
            return memo[m]
        lower = list(m)
        lower[p] -= 1
        partial = self.reduce_monomial(h, tuple(lower))
        form = self._form[h]
        out: dict = {}
        f = self.field
        for mono, c in partial.items():
            for lin, cl in form.items():
                key = mono_mul(mono, lin)
                w = f.add(out.get(key, f.zero), f.mul(c, cl))
                if w == 0:
                    out.pop(key, None)
                else:
                    out[key] = w
        memo[m] = out
        return out

    # -- stacked constraint matrix -------------------------------------------

    def row_tuples(self, h: int, d: int) -> tuple:
        """The monomials indexing the rows of S_d/(alpha_h), in row order."""
        return reduced_row_tuples(self.ell, d, self._pivot[h])

    def row_layout(self, members: tuple[int, ...], d: int) -> dict:
        """Row indexing of the target space: one block per member form."""
        block = dim_poly(self.ell - 1, d)
        layout = {"block_dim": block, "offsets": {}, "row_index": {}}
        for pos, h in enumerate(members):
            layout["offsets"][h] = pos * block
            layout["row_index"][h] = {m: i for i, m in enumerate(self.row_tuples(h, d))}
        layout["total"] = block * len(members)
        return layout

    def _column(self, members: tuple[int, ...], i: int, m: tuple):
        """The nonzero entries (h, reduced monomial, value) of column (i, m) of
        the stacked constraint map S_d^ell -> sum_h S_d/(alpha_h): for every
        member h with nonzero i-th normal coefficient a, a times the
        reduction of m mod alpha_h.  Distinct members and distinct reduced
        monomials are distinct rows, so no two entries share a row."""
        f = self.field
        for h in members:
            a = self.arr.normal(h)[i]
            if a != 0:
                for mono_red, c in self.reduce_monomial(h, m).items():
                    yield h, mono_red, f.mul(a, c)

    def constraint_rows(self, members: tuple[int, ...], d: int) -> list[dict]:
        """Rows of the stacked constraint map, one per (member h, pivot-free
        monomial), in ``row_layout`` order; each entry is written once."""
        key = (members, d)
        hit = self._rows.get(key)
        if hit is not None:
            return hit
        layout = self.row_layout(members, d)
        offsets, row_index = layout["offsets"], layout["row_index"]
        rows: list[dict] = [dict() for _ in range(layout["total"])]
        columns = itertools.product(range(self.ell), basis(self.ell, d).tuples)
        for j, (i, m) in enumerate(columns):
            for h, mono_red, v in self._column(members, i, m):
                rows[offsets[h] + row_index[h][mono_red]][j] = v
        self._rows[key] = rows
        return rows

    def space_coordinates(self, members: tuple[int, ...], d: int) -> dict[int, int]:
        """Coordinates of D(A_members)_d: the positions of S_d^ell off the
        pivots of the one fill-reducing elimination of the constraint rows,
        each mapped to its index among them.  A kernel vector is determined
        by its entries there, so restricting to them is an isomorphism."""
        key = (members, d)
        hit = self._coordinates.get(key)
        if hit is None:
            pivots = sparse_pivots(self.field, self.constraint_rows(members, d))
            free = (j for j in range(self.ambient_dim(d)) if j not in pivots)
            hit = {j: i for i, j in enumerate(free)}
            self._coordinates[key] = hit
        return hit

    def contains(self, members: tuple[int, ...], d: int, vec: dict) -> bool:
        """Whether the degree-d vector lies in D(A_members)_d: every
        constraint row vanishes on it.  The product is summed over the
        columns of vec's entries, which are few, rather than over the rows."""
        f = self.field
        n = dim_poly(self.ell, d)
        monos = basis(self.ell, d).tuples
        image: dict = {}
        for j, v in vec.items():
            i, m = divmod(j, n)
            for h, mono_red, w in self._column(members, i, monos[m]):
                key = (h, mono_red)
                image[key] = f.add(image.get(key, f.zero), f.mul(v, w))
        return not any(image.values())

    # -- the graded pieces -----------------------------------------------------

    def ambient_dim(self, d: int) -> int:
        return self.ell * dim_poly(self.ell, d)

    def space_dim(self, members: tuple[int, ...], d: int) -> int:
        """dim D(A_members)_d, the number of its coordinates (0 for d < 0)."""
        return len(self.space_coordinates(members, d)) if d >= 0 else 0

    def space_basis(self, members: tuple[int, ...], d: int) -> list[dict]:
        """Deterministic kernel basis; columns are sparse (coord, monomial)
        dicts, scaled to primitive integer vectors over the rationals."""
        if d < 0:
            return []
        key = (members, d)
        hit = self._basis.get(key)
        if hit is not None:
            return hit
        if not members:
            vecs = [{j: self.field.one} for j in range(self.ambient_dim(d))]
        else:
            vecs = sparse_kernel_basis(
                self.field, self.constraint_rows(members, d), self.ambient_dim(d)
            )
            if self.field.kind == "rationals":
                vecs = [_integerized(v) for v in vecs]
        self._basis[key] = vecs
        return vecs


_engines: dict[Arrangement, DerivationEngine] = {}


def engine_for(arr: Arrangement) -> DerivationEngine:
    eng = _engines.get(arr)
    if eng is None:
        eng = DerivationEngine(arr)
        _engines[arr] = eng
    return eng


@dataclass(frozen=True)
class DerivationSpace:
    """Basis of the degree-d piece of the derivation module of a localization."""

    members: tuple[int, ...]
    degree: int
    ell: int
    vectors: tuple

    @property
    def dim(self) -> int:
        return len(self.vectors)


def derivation_space(arr: Arrangement, flat, d: int) -> DerivationSpace:
    """Basis of {theta : theta(alpha_h) in (alpha_h) for h in the flat}_d.

    ``flat`` is a lattice element or a member index iterable; the bottom
    flat (no members) yields the full space S_d^ell of vector fields.
    """
    eng = engine_for(arr)
    members = members_of(flat)
    return DerivationSpace(
        members, d, arr.ell, tuple(eng.space_basis(members, d))
    )


def vector_to_polys(vec: dict, ell: int, d: int) -> list[dict]:
    """Split a flat (coord, monomial) vector into ell coefficient polynomials."""
    mono = basis(ell, d)
    n = len(mono)
    polys: list[dict] = [dict() for _ in range(ell)]
    for j, c in vec.items():
        polys[j // n][mono.tuples[j % n]] = c
    return polys


def euler_vector(arr: Arrangement, d: int = 1) -> dict:
    """The Euler derivation sum x_i d/dx_i as a degree-1 vector."""
    if d != 1:
        raise ValueError("the Euler derivation has degree 1")
    mono = basis(arr.ell, 1)
    out = {}
    for i in range(arr.ell):
        e = [0] * arr.ell
        e[i] = 1
        out[i * len(mono) + mono.index[tuple(e)]] = arr.field.one
    return out


def multiply_vector(arr: Arrangement, vec: dict, poly: dict, d_from: int) -> dict:
    """Multiply a degree-d_from derivation vector by a polynomial."""
    ell = arr.ell
    f = arr.field
    src = basis(ell, d_from)
    deg = max(sum(m) for m in poly) if poly else 0
    dst = basis(ell, d_from + deg)
    n_src, n_dst, index = len(src), len(dst), dst.index
    out: dict = {}
    for j, c in vec.items():
        i, m = j // n_src, src.tuples[j % n_src]
        for mp, cp in poly.items():
            key = i * n_dst + index[mono_mul(m, mp)]
            w = f.add(out.get(key, f.zero), f.mul(c, cp))
            if w == 0:
                out.pop(key, None)
            else:
                out[key] = w
    return out


# ---------------------------------------------------------------------------
# restriction maps


def inclusion_matrix(arr: Arrangement, flat_small, flat_large, d: int) -> list[dict]:
    """Coordinates of D(A_Y)_d inside D(A_X)_d for flats Y inside X.

    Arguments are lattice elements or member index sets (A_Y and A_X); the
    precondition Y inside X means A_X is a subset of A_Y.  The result is one
    sparse column {index in the basis of D(A_X)_d: coefficient} per basis
    vector of D(A_Y)_d, of full column rank; a vector off the constraints of
    A_X would mean the inclusion fails and is raised as FunctorError.

    Each basis vector of D(A_X)_d (:func:`sparse_kernel_basis`) has its free
    column as its first key, and no other basis vector is nonzero there, so
    the coordinate of a member of D(A_X)_d is its entry there over the basis
    vector's.
    """
    small = members_of(flat_small)
    large = members_of(flat_large)
    if not set(large) <= set(small):
        raise FunctorError(
            "inclusion requires the target localization to be a subset"
        )
    eng = engine_for(arr)
    f = arr.field
    free = [(k, next(iter(b)), b) for k, b in enumerate(eng.space_basis(large, d))]
    coords = []
    for v in eng.space_basis(small, d):
        if not eng.contains(large, d, v):
            raise FunctorError("derivation inclusion failed; constraint bug")
        coords.append({k: f.div(v[j], b[j]) for k, j, b in free if j in v})
    return coords


# ---------------------------------------------------------------------------
# Saito determinant criterion


def saito_check(arr: Arrangement, candidates) -> bool:
    """Determinant criterion: the ell candidate derivations form a basis
    iff det of their coefficient matrix is a nonzero scalar times the product
    of all defining forms.  Both sides are expanded exactly as sparse
    polynomials, so the comparison is interpolation-free and exact.

    ``candidates`` is a list of (degree, vector) pairs.
    """
    ell = arr.ell
    f = arr.field
    if len(candidates) != ell:
        raise ArrangementError(f"need exactly {ell} candidate derivations")
    degrees = [d for d, _ in candidates]
    if sum(degrees) != arr.size:
        raise ArrangementError(
            f"degree sum {sum(degrees)} != number of hyperplanes {arr.size}"
        )
    entries = []
    for d, vec in candidates:
        entries.append(vector_to_polys(vec, ell, d))
    det: dict = {}
    for perm in itertools.permutations(range(ell)):
        sign = 1
        seen = list(perm)
        for i in range(len(seen)):
            for j in range(i + 1, len(seen)):
                if seen[i] > seen[j]:
                    sign = -sign
        term = {(0,) * ell: f.one}
        for col, row in enumerate(perm):
            term = poly_mul(f, term, entries[col][row])
            if not term:
                break
        for m, c in term.items():
            w = f.add(det.get(m, f.zero), f.mul(f.from_int(sign), c))
            if w == 0:
                det.pop(m, None)
            else:
                det[m] = w
    if not det:
        return False
    q = forms_product(f, (arr.normal(h) for h in range(arr.size)), ell)
    lead = min(q)
    if lead not in det:
        return False
    c = f.div(det[lead], q[lead])
    if c == 0:
        return False
    scaled = {m: f.mul(c, v) for m, v in q.items()}
    return scaled == det


# ---------------------------------------------------------------------------
# minimal generators and the freeness certificate


def minimal_generators(arr: Arrangement, up_to_degree: int) -> list[tuple[int, dict]]:
    """Homogeneous generators of the derivation module up to the given degree.

    At each degree d the image of S_1 times the (d-1)-piece is spanned by
    multiplying every basis vector by every variable; basis vectors of the
    d-piece that enlarge that span are new generators.  Only membership is
    asked, so the span is held by a :class:`RowReducer`, fraction-free over Q,
    with the columns of each degree renumbered into one fill-reducing order.

    The scan stops early once the generators found so far are exactly ell
    with degree sum |A| and pass :func:`saito_check`: by Saito's criterion
    they are then a basis, so every higher piece is S_1 times the piece
    below it and no higher degree holds a minimal generator.  The list is
    therefore the one a scan to ``up_to_degree`` would return.
    """
    if up_to_degree < 0:
        raise ValueError("scan bound must be nonnegative")
    eng = engine_for(arr)
    all_members = tuple(range(arr.size))
    ell = arr.ell
    f = arr.field
    gens: list[tuple[int, dict]] = []
    for d in range(0, up_to_degree + 1):
        cur = eng.space_basis(all_members, d)
        if not cur:
            continue
        shifted = []
        if d > 0:
            for v in eng.space_basis(all_members, d - 1):
                for i in range(ell):
                    e = [0] * ell
                    e[i] = 1
                    shifted.append(multiply_vector(arr, v, {tuple(e): f.one}, d - 1))
        # one fill-reducing column order for both families; the shifted rows
        # may go in any order, but cur keeps its own, which decides the
        # generators (basis vectors are nonzero, so none of cur is dropped)
        rows, _ = _fill_reducing(shifted + cur)
        split = len(rows) - len(cur)
        red = _reducer(f, sorted(rows[:split], key=len))
        before = len(gens)
        for v, row in zip(cur, rows[split:]):
            if red.add_row(row):
                gens.append((d, v))
        # the free profile can only newly appear in a degree that added generators
        if (len(gens) > before and len(gens) == ell
                and sum(g[0] for g in gens) == arr.size and saito_check(arr, gens)):
            break
    return gens


@dataclass(frozen=True)
class FreenessCertificate:
    status: str                      # "free" | "not-free" | "undetermined"
    exponents: tuple[int, ...] = ()
    witness_degrees: tuple[int, ...] = ()
    scanned_bound: int = 0
    detail: str = ""
    # the (degree, vector) pairs of the scan, for the verdicts that read them
    generators: tuple = field(default=(), compare=False, repr=False)

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "exponents": list(self.exponents),
            "witness_degrees": list(self.witness_degrees),
            "scanned_bound": self.scanned_bound,
            "detail": self.detail,
        }


def freeness_certificate(arr: Arrangement) -> FreenessCertificate:
    """Scan for minimal generators up to degree |A| and apply the determinant
    criterion when exactly ell generators with degree sum |A| are found.

    On a free arrangement the scan stops at the degree where the generators
    pass that criterion (see :func:`minimal_generators`).  ``scanned_bound``
    still reads |A|: Saito's criterion proves that the degrees past the stop
    hold no generator, so the certificate speaks for every degree up to |A|
    as a full scan would.  A not-free arrangement is scanned to |A|, since
    ``witness_degrees`` lists every generator degree up to that bound.
    """
    bound = arr.size
    gens = tuple(minimal_generators(arr, bound))
    degrees = tuple(sorted(d for d, _ in gens))
    ell = arr.ell
    if len(degrees) == ell and sum(degrees) == arr.size:
        ordered = sorted(gens, key=lambda g: g[0])
        if saito_check(arr, ordered):
            return FreenessCertificate(
                "free", exponents=degrees, scanned_bound=bound,
                detail="determinant criterion certified the generator basis",
                generators=gens,
            )
        status, detail = "not-free", ("minimal generators match the free "
                                      "profile but fail the determinant criterion")
    elif len(degrees) > ell:
        status, detail = "not-free", f"{len(degrees)} minimal generators by degree {bound}"
    else:
        status, detail = "undetermined", "generator scan inconclusive up to the bound"
    return FreenessCertificate(
        status, witness_degrees=degrees, scanned_bound=bound, detail=detail,
        generators=gens,
    )


def free_module_dims(exponents, ell: int, d: int) -> int:
    """Hilbert function of a free graded module with the given exponents."""
    return sum(dim_poly(ell, d - e) for e in exponents)
