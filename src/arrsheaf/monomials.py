"""Monomial bases of graded polynomial pieces and sparse polynomial helpers.

A polynomial in ell variables is a dict {exponent tuple: scalar}; a graded
piece S_d carries the fixed descending-lexicographic monomial order, so every
matrix indexed by monomials is deterministic.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import add

from .linalg import Field


@lru_cache(maxsize=None)
def monomial_tuples(ell: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples of the given total degree, descending lex order."""
    if degree < 0:
        return ()
    if ell == 1:
        return ((degree,),)
    out = []
    for first in range(degree, -1, -1):
        for rest in monomial_tuples(ell - 1, degree - first):
            out.append((first,) + rest)
    return tuple(out)


class MonomialBasis:
    """Indexing of the monomials spanning S_d in ell variables."""

    def __init__(self, ell: int, degree: int):
        self.ell = ell
        self.degree = degree
        self.tuples = monomial_tuples(ell, degree)
        self.index = {m: i for i, m in enumerate(self.tuples)}

    def __len__(self) -> int:
        return len(self.tuples)


@lru_cache(maxsize=None)
def basis(ell: int, degree: int) -> MonomialBasis:
    return MonomialBasis(ell, degree)


def dim_poly(ell: int, degree: int) -> int:
    """dim S_degree = C(degree + ell - 1, ell - 1), zero in negative degrees."""
    if degree < 0:
        return 0
    return comb(degree + ell - 1, ell - 1)


def mono_mul(a: tuple, b: tuple) -> tuple:
    return tuple(map(add, a, b))


def poly_from_linear(normal, ell: int) -> dict:
    """The linear form with the given coefficient vector as a polynomial."""
    out = {}
    for i, c in enumerate(normal):
        if c != 0:
            e = [0] * ell
            e[i] = 1
            out[tuple(e)] = c
    return out


def poly_mul(field: Field, p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = mono_mul(m1, m2)
            w = field.add(out.get(m, field.zero), field.mul(c1, c2))
            if w == 0:
                out.pop(m, None)
            else:
                out[m] = w
    return out


def poly_product(field: Field, factors, ell: int) -> dict:
    out = {(0,) * ell: field.one}
    for f in factors:
        out = poly_mul(field, out, f)
    return out


def forms_product(field: Field, normals, ell: int) -> dict:
    """The product of the linear forms with the given coefficient vectors."""
    return poly_product(field, (poly_from_linear(n, ell) for n in normals), ell)


def poly_pow(field: Field, p: dict, k: int, ell: int) -> dict:
    out = {(0,) * ell: field.one}
    for _ in range(k):
        out = poly_mul(field, out, p)
    return out


def poly_eval(field: Field, p: dict, point) -> object:
    total = field.zero
    for m, c in p.items():
        term = c
        for e, x in zip(m, point):
            for _ in range(e):
                term = field.mul(term, x)
        total = field.add(total, term)
    return total


def poly_degree(p: dict) -> int:
    if not p:
        return -1
    return max(sum(m) for m in p)


def multiplication_columns(field: Field, poly: dict, ell: int, d_from: int) -> list[dict]:
    """Columns of S_{d_from} -> S_{d_from + deg poly}, v -> poly*v.

    Column i is the image of the i-th monomial of S_{d_from}, written in the
    monomial coordinates of the target degree.
    """
    if not poly:
        return [dict() for _ in range(dim_poly(ell, d_from))]
    d_to = d_from + poly_degree(poly)
    src = basis(ell, d_from)
    dst = basis(ell, d_to)
    cols = []
    for m in src.tuples:
        col = {}
        for mp, c in poly.items():
            col[dst.index[mono_mul(m, mp)]] = c
        cols.append(col)
    return cols
