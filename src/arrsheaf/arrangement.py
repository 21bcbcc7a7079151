"""Central hyperplane arrangements: representation, file format, catalog.

An arrangement is a finite set of hyperplanes through the origin of K^ell,
each the kernel of a linear functional.  All arrangements handled here are
essential (the normals span K^ell); non-essential input is rejected, with
``essentialize`` available to quotient out the common intersection first.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Sequence

from .linalg import GF, QQ, Field, sparse_rank


class ArrangementError(ValueError):
    """Invalid arrangement input (parse errors, duplicate or degenerate data)."""


@dataclass(frozen=True)
class Hyperplane:
    """A hyperplane given by the coefficient vector of its defining form."""

    normal: tuple

    def __post_init__(self):
        if all(c == 0 for c in self.normal):
            raise ArrangementError("hyperplane normal must be nonzero")


@dataclass(frozen=True)
class FormProduct:
    """An unexpanded product of defining forms, kept as hyperplane indices."""

    factors: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.factors)) != len(self.factors):
            raise ArrangementError("duplicate factor in form product")

    @property
    def degree(self) -> int:
        return len(self.factors)


def _canonical_normal(field: Field, normal: Sequence) -> tuple:
    """Scale so the first nonzero coefficient is 1; detects proportionality."""
    lead = next((c for c in normal if c != 0), None)
    if lead is None:
        raise ArrangementError("hyperplane normal must be nonzero")
    return tuple(field.div(c, lead) for c in normal)


@dataclass(frozen=True)
class Arrangement:
    field: Field
    ell: int
    hyperplanes: tuple[Hyperplane, ...]
    name: str | None = dc_field(default=None, compare=False)

    def __post_init__(self):
        if self.ell < 2:
            raise ArrangementError(f"ambient dimension must be >= 2, got {self.ell}")
        seen = {}
        for k, h in enumerate(self.hyperplanes):
            if len(h.normal) != self.ell:
                raise ArrangementError(
                    f"hyperplane {k}: expected {self.ell} coefficients, got {len(h.normal)}"
                )
            key = _canonical_normal(self.field, h.normal)
            if key in seen:
                raise ArrangementError(
                    f"duplicate hyperplane: #{k} is proportional to #{seen[key]}"
                )
            seen[key] = k
        r = self.normals_rank()
        if r < self.ell:
            raise ArrangementError(
                f"arrangement is not essential: normals span rank {r} < {self.ell}"
            )

    @property
    def size(self) -> int:
        return len(self.hyperplanes)

    def normals_rank(self) -> int:
        rows = [
            {j: c for j, c in enumerate(h.normal) if c != 0} for h in self.hyperplanes
        ]
        return sparse_rank(self.field, rows)

    def normal(self, index: int) -> tuple:
        return self.hyperplanes[index].normal

    def label(self) -> str:
        return self.name if self.name is not None else "custom"


def members_of(flat) -> tuple[int, ...]:
    """Accept a lattice element or a raw member index iterable."""
    if hasattr(flat, "members"):
        return tuple(flat.members)
    return tuple(sorted(flat))


def cofactor_forms(arr: Arrangement, flat) -> FormProduct:
    """Product Q(X) of the forms of hyperplanes *not* containing the flat.

    ``flat`` is a lattice element or its member index set; the result lists
    the complementary indices, so the two partition the arrangement.
    """
    member_set = set(members_of(flat))
    if not member_set <= set(range(arr.size)):
        raise ArrangementError("flat members outside the hyperplane index range")
    return FormProduct(tuple(i for i in range(arr.size) if i not in member_set))


# ---------------------------------------------------------------------------
# file format


def parse_arrangement(text: str, name: str | None = None) -> Arrangement:
    """Parse the line-oriented arrangement format.

    Line 1: ``field Q`` or ``field Fp <prime>``; line 2: ``dim <ell>``; then
    one ``hyperplane c1 ... cell`` per hyperplane (integers or a/b rationals).
    ``#`` starts a comment; a ``# name: <label>`` comment is picked up.
    """
    field: Field | None = None
    ell: int | None = None
    normals: list[tuple] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        comment = raw.split("#", 1)
        line = comment[0].strip()
        if not line:
            if len(comment) > 1 and name is None:
                note = comment[1].strip()
                if note.startswith("name:"):
                    name = note[len("name:"):].strip() or None
            continue
        tokens = line.split()
        kind = tokens[0]
        try:
            if kind == "field":
                if tokens[1:] == ["Q"]:
                    field = QQ
                elif len(tokens) == 3 and tokens[1] == "Fp":
                    p = int(tokens[2])
                    try:
                        field = GF(p)
                    except ValueError as exc:
                        raise ArrangementError(f"line {lineno}: {exc}") from exc
                else:
                    raise ArrangementError(f"line {lineno}: malformed field line")
            elif kind == "dim":
                if len(tokens) != 2:
                    raise ArrangementError(f"line {lineno}: malformed dim line")
                ell = int(tokens[1])
            elif kind == "hyperplane":
                if field is None or ell is None:
                    raise ArrangementError(
                        f"line {lineno}: hyperplane before field/dim lines"
                    )
                if len(tokens) != 1 + ell:
                    raise ArrangementError(
                        f"line {lineno}: expected {ell} coefficients"
                    )
                normals.append(tuple(field.parse(t) for t in tokens[1:]))
            else:
                raise ArrangementError(f"line {lineno}: unknown directive {kind!r}")
        except ArrangementError:
            raise
        except (ValueError, ZeroDivisionError) as exc:
            raise ArrangementError(f"line {lineno}: malformed line ({exc})") from exc
    if field is None:
        raise ArrangementError("missing field line")
    if ell is None:
        raise ArrangementError("missing dim line")
    return Arrangement(field, ell, tuple(Hyperplane(n) for n in normals), name=name)


def serialize_arrangement(arr: Arrangement) -> str:
    lines = []
    if arr.name:
        lines.append(f"# name: {arr.name}")
    if arr.field.kind == "rationals":
        lines.append("field Q")
    else:
        lines.append(f"field Fp {arr.field.characteristic}")
    lines.append(f"dim {arr.ell}")
    for h in arr.hyperplanes:
        coeffs = " ".join(arr.field.to_str(c) for c in h.normal)
        lines.append(f"hyperplane {coeffs}")
    return "\n".join(lines) + "\n"


def essentialize(field: Field, normals: Sequence[Sequence], name=None) -> Arrangement:
    """Quotient by the common intersection of the hyperplanes.

    Restricts each form to a coordinate complement of the common kernel
    (the pivot coordinates of the span of the normals), yielding an
    essential arrangement in dimension rank(normals).
    """
    from .linalg import sparse_rref

    rows = [{j: c for j, c in enumerate(n) if c != 0} for n in normals]
    _, pivots = sparse_rref(field, rows)
    new_normals = [tuple(n[j] for j in pivots) for n in normals]
    return Arrangement(
        field,
        len(pivots),
        tuple(Hyperplane(n) for n in new_normals),
        name=name,
    )


# ---------------------------------------------------------------------------
# catalog


def _unit(ell: int, i: int) -> tuple:
    return tuple(1 if j == i else 0 for j in range(ell))


def _boolean(ell: int) -> Arrangement:
    normals = [_unit(ell, i) for i in range(ell)]
    return Arrangement(QQ, ell, tuple(Hyperplane(n) for n in normals), name=f"boolean-{ell}")


def _braid(ell: int) -> Arrangement:
    """Essentialized braid arrangement: ell(ell+1)/2 hyperplanes, exponents 1..ell."""
    normals = [_unit(ell, i) for i in range(ell)]
    for i in range(ell):
        for j in range(i + 1, ell):
            n = [0] * ell
            n[i], n[j] = 1, -1
            normals.append(tuple(n))
    return Arrangement(QQ, ell, tuple(Hyperplane(n) for n in normals), name=f"braid-{ell}")


def _generic(ell: int, n: int) -> Arrangement:
    """Coordinate forms plus Vandermonde rows (1, k, k^2, ...), k = 1, 2, ...

    Distinct positive nodes make every maximal minor nonzero; genericity is
    still validated subset by subset and failure is an error.
    """
    if n < ell:
        raise ArrangementError("generic arrangement needs at least ell hyperplanes")
    normals = [_unit(ell, i) for i in range(ell)]
    for k in range(1, n - ell + 1):
        normals.append(tuple(k**j for j in range(ell)))
    arr = Arrangement(QQ, ell, tuple(Hyperplane(n) for n in normals), name=f"generic-{ell}-{n}")
    _validate_generic(arr)
    return arr


def _validate_generic(arr: Arrangement) -> None:
    from itertools import combinations

    for subset in combinations(range(arr.size), arr.ell):
        rows = [
            {j: c for j, c in enumerate(arr.normal(i)) if c != 0} for i in subset
        ]
        if sparse_rank(arr.field, rows) < arr.ell:
            raise ArrangementError(
                f"generic pattern failed: hyperplanes {subset} are dependent"
            )


def _near_pencil(n: int) -> Arrangement:
    """n-1 planes through the z-axis plus the plane z = 0, in dimension 3."""
    if n < 3:
        raise ArrangementError("near-pencil needs at least 3 hyperplanes")
    normals = [(1, 0, 0), (0, 1, 0)]
    for k in range(1, n - 2):
        normals.append((1, k, 0))
    normals.append((0, 0, 1))
    return Arrangement(QQ, 3, tuple(Hyperplane(m) for m in normals), name=f"near-pencil-{n}")


def _nonfree_4_7() -> Arrangement:
    """Seven hyperplanes in dimension 4, not free and not locally free: the
    rank-3 flats {0,1,2,3}, {0,3,5,6} and {1,3,4,5} localize to non-free
    arrangements."""
    normals = [(0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (0, 1, 1, 1),
               (1, 0, 0, 0), (1, 1, -1, 1), (1, 2, 0, 0)]
    return Arrangement(QQ, 4, tuple(Hyperplane(n) for n in normals), name="nonfree-4-7")


def catalog(name: str, *params: int) -> Arrangement:
    """Named arrangements over Q used throughout the test battery."""
    try:
        if name == "boolean":
            (ell,) = params
            if ell < 2:
                raise ArrangementError("boolean needs ell >= 2")
            return _boolean(ell)
        if name == "braid":
            (ell,) = params
            if ell < 2:
                raise ArrangementError("braid needs ell >= 2")
            return _braid(ell)
        if name == "generic":
            ell, n = params
            return _generic(ell, n)
        if name == "near-pencil":
            (n,) = params
            return _near_pencil(n)
        if name == "nonfree-4-7":
            if params:
                raise ValueError
            return _nonfree_4_7()
    except ValueError as exc:
        raise ArrangementError(f"invalid parameters for {name!r}: {params}") from exc
    raise ArrangementError(f"unknown catalog name {name!r}")


CATALOG_SUMMARY = (
    ("boolean", "boolean ell: coordinate hyperplanes x_1 ... x_ell"),
    ("braid", "braid ell: essentialized braid, ell(ell+1)/2 hyperplanes"),
    ("generic", "generic ell n: coordinates plus validated generic normals"),
    ("near-pencil", "near-pencil n: pencil through an axis plus one transversal, ell = 3"),
    ("nonfree-4-7", "nonfree-4-7: seven hyperplanes, ell = 4, not free and not locally free"),
)
