"""Integer convolution reduced modulo a cyclotomic polynomial.

This is the hot loop of cyclotomic multiplication.  Coefficients are
Python ints, so nothing overflows.

    mul_reduce(xs, ys, high_rows) -> list[int]

xs, ys            coefficient vectors of length phi = deg(Phi_N)
high_rows[j]      the vector of x^(phi+j) mod Phi_N, for j in 0..phi-2

Returns the length-phi vector of (xs * ys) mod Phi_N.
"""
from __future__ import annotations

from typing import Sequence

# Kept for callers that record which kernel ran; there is only this one.
IMPLEMENTATION = "pure"


def mul_reduce(xs: Sequence[int], ys: Sequence[int],
               high_rows: Sequence[Sequence[int]]) -> list[int]:
    phi = len(xs)
    if phi == 1:
        return [xs[0] * ys[0]]
    conv = [0] * (2 * phi - 1)
    for i, xi in enumerate(xs):
        if xi:
            for j, yj in enumerate(ys):
                if yj:
                    conv[i + j] += xi * yj
    out = conv[:phi]
    for k in range(phi, 2 * phi - 1):
        ck = conv[k]
        if ck:
            row = high_rows[k - phi]
            for t in range(phi):
                rt = row[t]
                if rt:
                    out[t] += ck * rt
    return out
