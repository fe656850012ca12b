"""Integer polynomials reduced modulo a cyclotomic polynomial.

This is the hot loop of cyclotomic arithmetic.  Coefficients are Python
ints, so nothing overflows.

    reduce_mod(poly, moduli) -> list[int]
    reduce_sparse(terms, moduli) -> dict[int, int]
    mul_reduce(xs, ys, moduli) -> list[int]

moduli    (mod, step) pairs, each the monic polynomial mod(x^step) with
          mod given low degree first; each is a multiple of the next,
          and the last is Phi_N
poly      an integer vector of length at least phi = deg(Phi_N),
          index = degree
terms     a {degree: coefficient} dict, the same polynomial kept sparse
xs, ys    coefficient vectors of length phi

reduce_mod returns poly mod Phi_N, and mul_reduce (xs * ys) mod Phi_N,
each as a length-phi list: exact long division by each modulus in turn,
over its nonzero terms.  A sparse multiple of Phi_N keeps the remainder
and cuts the degree for a few operations per entry, so only the last
entries pay for every term of Phi_N.  reduce_sparse does the same
division on a dict, for an embedding's few terms scattered far apart.
"""
from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import compress
from typing import Sequence

# Kept for callers that record which kernel ran; there is only this one.
IMPLEMENTATION = "pure"


def reduce_mod(poly: list[int],
               moduli: Sequence[tuple[Sequence[int], int]]) -> list[int]:
    """poly mod the last of moduli, as a length-phi list (poly is reused)."""
    for mod, step in moduli:
        deg = len(mod) - 1
        top = deg * step
        # x^(step*deg) = -sum_t mod[t] x^(step*t), applied at every k >= top,
        # top down; compress finds the few nonzero t in C
        terms = [((t - deg) * step, -mod[t]) for t in compress(range(deg), mod)]
        for k in range(len(poly) - 1, top - 1, -1):
            c = poly[k]
            if c:
                for off, m in terms:
                    poly[k + off] += c * m
        del poly[top:]
    return poly


def reduce_sparse(terms: dict[int, int],
                  moduli: Sequence[tuple[Sequence[int], int]]
                  ) -> dict[int, int]:
    """terms mod the last of moduli, as terms (each k below phi, some c
    perhaps 0; terms is reused): each division visits only the nonzero
    terms at or past its modulus' degree, highest first, and hands the
    rest to reduce_mod once a scan would cost less than their products."""
    for i, (mod, step) in enumerate(moduli):
        deg = len(mod) - 1
        top = deg * step
        # max-heap of the exponents >= top, each once: a key is pushed when
        # it first enters terms and dropped from terms when it is popped
        heap = [-k for k in terms if k >= top]
        if not heap:
            continue
        subs = [((t - deg) * step, -mod[t]) for t in compress(range(deg), mod)]
        if len(heap) * len(subs) > (end := max(terms) + 1) - top:
            poly = [0] * end
            for k, c in terms.items():
                poly[k] = c
            out = reduce_mod(poly, moduli[i:])
            return dict(compress(enumerate(out), out))
        heapify(heap)
        while heap:
            k = -heappop(heap)
            c = terms.pop(k)
            if c:
                for off, m in subs:
                    e = k + off
                    if e in terms:
                        terms[e] += c * m
                    else:
                        terms[e] = c * m
                        if e >= top:
                            heappush(heap, -e)
    return terms


def mul_reduce(xs: Sequence[int], ys: Sequence[int],
               moduli: Sequence[tuple[Sequence[int], int]]) -> list[int]:
    phi = len(xs)
    conv = [0] * (2 * phi - 1)
    sparse_ys = [(j, yj) for j, yj in enumerate(ys) if yj]
    for i, xi in enumerate(xs):
        if xi:
            for j, yj in sparse_ys:
                conv[i + j] += xi * yj
    return reduce_mod(conv, moduli)
