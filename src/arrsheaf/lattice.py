"""Intersection lattice of an arrangement: order, meets, Mobius, char poly.

Flats are canonicalized by the reduced row echelon form of the span of their
members' normals, which makes deduplication exact and order-independent.
Elements are listed bottom (the ambient space) first, top (the origin) last,
ordered by codimension and then lexicographically on the canonical echelon
entries; this linear order is part of the public contract because Cech
indexing downstream depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from .arrangement import Arrangement, ArrangementError
from .linalg import RowReducer, sparse_kernel_basis, sparse_rref


@dataclass(frozen=True)
class LatticeElement:
    """A flat: canonical echelon span of its members' normals.

    codim equals the number of echelon rows; members are exactly the
    hyperplanes whose normal lies in the row space.
    """

    span_rref: tuple          # tuple of echelon rows, each a tuple of scalars
    members: tuple[int, ...]  # sorted hyperplane indices containing the flat
    codim: int

    def sort_key(self):
        return (self.codim, self.span_rref)


def _span_key(field, normals: list[tuple], ell: int) -> tuple:
    rows = [{j: c for j, c in enumerate(n) if c != 0} for n in normals]
    rref_rows, _ = sparse_rref(field, rows)
    return tuple(
        tuple(row.get(j, field.zero) for j in range(ell)) for row in rref_rows
    )


class IntersectionLattice:
    """All intersections of subsets of hyperplanes, ordered by reverse inclusion."""

    def __init__(self, arr: Arrangement):
        self.arrangement = arr
        self.elements: tuple[LatticeElement, ...] = self._build(arr)
        self._index = {e.span_rref: i for i, e in enumerate(self.elements)}
        self._members_index = {e.members: i for i, e in enumerate(self.elements)}
        self.top_index = len(self.elements) - 1
        if self.elements[self.top_index].codim != arr.ell:
            raise ArrangementError("lattice has no top of full codimension")
        self.mobius: tuple[int, ...] = self._compute_mobius()
        self.meet_table = self._compute_meet_table()
        self._normal_bases: dict[int, tuple] = {}

    # -- construction ------------------------------------------------------

    def _build(self, arr: Arrangement) -> tuple[LatticeElement, ...]:
        field = arr.field
        ell = arr.ell
        normals = [h.normal for h in arr.hyperplanes]

        def element_from_span(span: tuple) -> LatticeElement:
            red = RowReducer(field)
            for row in span:
                red.add_row({j: c for j, c in enumerate(row) if c != 0})
            members = tuple(
                i
                for i, n in enumerate(normals)
                if red.contains({j: c for j, c in enumerate(n) if c != 0})
            )
            return LatticeElement(span, members, len(span))

        bottom = _span_key(field, [], ell)
        found: dict[tuple, LatticeElement] = {bottom: element_from_span(bottom)}
        frontier = [bottom]
        while frontier:
            next_frontier = []
            for span in frontier:
                base = found[span]
                for i in range(arr.size):
                    if i in base.members:
                        continue
                    new_span = _span_key(
                        field, [normals[j] for j in base.members] + [normals[i]], ell
                    )
                    if new_span not in found:
                        found[new_span] = element_from_span(new_span)
                        next_frontier.append(new_span)
            frontier = next_frontier
        return tuple(sorted(found.values(), key=LatticeElement.sort_key))

    def _compute_mobius(self) -> tuple[int, ...]:
        # mu(bottom) = 1 and sum over the closed interval below each flat is 0
        member_sets = [frozenset(e.members) for e in self.elements]
        mobius = [0] * len(self.elements)
        for i, e in enumerate(self.elements):
            below = [
                j
                for j in range(len(self.elements))
                if j != i and member_sets[j] < member_sets[i]
            ]
            mobius[i] = 1 if not below and e.codim == 0 else -sum(
                mobius[j] for j in below
            )
        return tuple(mobius)

    def _compute_meet_table(self):
        # an intersection of closed member sets is closed, so the members of
        # a meet are exactly the common members
        member_sets = [set(e.members) for e in self.elements]
        n = len(self.elements)
        meet = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                common = tuple(sorted(member_sets[i] & member_sets[j]))
                meet[i][j] = meet[j][i] = self._members_index[common]
        return tuple(map(tuple, meet))

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def meet(self, i: int, j: int) -> int:
        """Meet in the full lattice; this is the join of L0 under inclusion."""
        return self.meet_table[i][j]

    def join(self, i: int, j: int) -> int:
        """Join in the full lattice: the flat spanned by both normal sets."""
        arr = self.arrangement
        normals = [arr.normal(k) for k in self.elements[i].members + self.elements[j].members]
        return self._index[_span_key(arr.field, normals, arr.ell)]

    def meet_many(self, indices) -> int:
        out = None
        for i in indices:
            out = i if out is None else self.meet(out, i)
        if out is None:
            raise ValueError("empty meet")
        return out

    def normal_basis(self, flat: int) -> tuple[tuple[int, ...], dict[int, dict]]:
        """(B, c) for a flat: B the first codim members, in member order, whose
        normals are independent, and c[h] = {k: c_hk} with
        a_h = sum_k c_hk a_{B_k} for every other member h, in member order.

        Both are read off the kernel basis of the matrix whose columns are
        the members' normals (natural column order): B is its pivot columns,
        and the basis vector of each free column h has entry 1 there and
        -c_hk at the column of B_k."""
        hit = self._normal_bases.get(flat)
        if hit is None:
            arr = self.arrangement
            f = arr.field
            members = self.elements[flat].members
            normals = [arr.normal(h) for h in members]
            rows = [{i: n[j] for i, n in enumerate(normals) if n[j] != 0}
                    for j in range(arr.ell)]
            kernel = sparse_kernel_basis(f, rows, len(members))
            free = [next(iter(v)) for v in kernel]
            pivots = [i for i in range(len(members)) if i not in free]
            k_of = {i: k for k, i in enumerate(pivots)}
            coeffs = {members[i]: {k_of[c]: f.neg(w) for c, w in v.items() if c != i}
                      for i, v in zip(free, kernel)}
            hit = (tuple(members[i] for i in pivots), coeffs)
            self._normal_bases[flat] = hit
        return hit

    @property
    def bottom_index(self) -> int:
        return 0

    # -- L0 = lattice minus top, ordered by inclusion -----------------------

    def l0_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(len(self.elements)) if i != self.top_index)

    def l0_minimal_indices(self) -> tuple[int, ...]:
        """Minimal elements of L0 under inclusion (no proper flat inside)."""
        l0 = self.l0_indices()
        out = []
        for i in l0:
            mi = set(self.elements[i].members)
            if not any(
                j != i and set(self.elements[j].members) > mi for j in l0
            ):
                out.append(i)
        return tuple(out)

    def l0_dimension(self) -> int:
        """Longest chain length in L0 (the Alexandroff space dimension)."""
        l0 = self.l0_indices()
        member_sets = {i: frozenset(self.elements[i].members) for i in l0}
        depth: dict[int, int] = {}
        for i in sorted(l0, key=lambda k: len(member_sets[k])):
            below = [
                depth[j] for j in l0
                if j != i and member_sets[j] < member_sets[i] and j in depth
            ]
            depth[i] = 1 + max(below) if below else 0
        return max(depth.values())

    # -- numerical invariants ------------------------------------------------

    def characteristic_polynomial(self) -> tuple[int, ...]:
        """Coefficients of chi(t) = sum mu(X) t^{dim X}, lowest degree first."""
        ell = self.arrangement.ell
        coeffs = [0] * (ell + 1)
        for e, mu in zip(self.elements, self.mobius):
            coeffs[ell - e.codim] += mu
        return tuple(coeffs)

    def codim_counts(self) -> tuple[int, ...]:
        counts = [0] * (self.arrangement.ell + 1)
        for e in self.elements:
            counts[e.codim] += 1
        return tuple(counts)


def build_lattice(arr: Arrangement) -> IntersectionLattice:
    return IntersectionLattice(arr)


def lattice_json(lattice: IntersectionLattice) -> dict:
    """JSON payload for the lattice CLI subcommand."""
    return {
        "arrangement": lattice.arrangement.label(),
        "ell": lattice.arrangement.ell,
        "size": lattice.arrangement.size,
        "elements": [
            {"codim": e.codim, "members": list(e.members)} for e in lattice.elements
        ],
        "mobius": list(lattice.mobius),
        "characteristic_polynomial": list(lattice.characteristic_polynomial()),
    }
