"""Quadrature and finite-difference weight machinery on segmented grids."""

from __future__ import annotations

from functools import cache

import numpy as np


def fornberg_weights(z, x, m: int) -> np.ndarray:
    """Finite-difference weights for derivatives 0..m at point z on the
    arbitrary node set x (Fornberg's algorithm).

    Returns an (m+1, len(x)) array; row j gives the j-th derivative.  With
    N points z of shape (N,) and one stencil per point in the columns of
    x, shape (n, N), all N stencils take the same arithmetic at once and
    the result has shape (m+1, n, N).
    """
    n = len(x)
    c = np.zeros((m + 1,) + np.shape(x))
    c1 = 1.0
    c4 = x[0] - z
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for kk in range(mn, 0, -1):
                    c[kk, i] = c1 * (kk * c[kk - 1, i - 1] - c5 * c[kk, i - 1]) / c2
                c[0, i] = -c1 * c5 * c[0, i - 1] / c2
            for kk in range(mn, 0, -1):
                c[kk, j] = ((c4 * c[kk, j]) - kk * c[kk - 1, j]) / c3
            c[0, j] = c4 * c[0, j] / c3
        c1 = c2
    return c


@cache
def clenshaw_curtis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Clenshaw-Curtis nodes (ascending, in [-1, 1]) and weights.

    Spectrally accurate for integrands analytic on the segment and exact
    for polynomials of degree < n, which is what makes the polynomial
    cutoff transitions integrable to machine precision.
    """
    if n < 2:
        raise ValueError("clenshaw_curtis: need n >= 2")
    j = np.arange(n)
    t = -np.cos(np.pi * j / (n - 1))
    t[0], t[-1] = -1.0, 1.0
    V = np.polynomial.chebyshev.chebvander(t, n - 1)
    k = np.arange(n)
    mom = np.zeros(n)
    even = (k % 2 == 0)
    mom[even] = 2.0 / (1.0 - k[even] ** 2)
    w = np.linalg.solve(V.T, mom)
    return t, w


def cc_segment(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Clenshaw-Curtis nodes and weights mapped to [a, b]."""
    t, w = clenshaw_curtis(n)
    half = 0.5 * (b - a)
    return a + half * (t + 1.0), w * half


@cache
def cheb_cumint_matrix(n: int) -> np.ndarray:
    """Matrix J with (J y)_i = int_{-1}^{t_i} p(t) dt for the Chebyshev
    interpolant p of the values y on the n Clenshaw-Curtis nodes.
    Bounded operator, cached per n: the building block of per-segment
    cumulative integrals and of spectral two-point ODE solves in integral
    form."""
    t, _ = clenshaw_curtis(n)
    C = np.polynomial.chebyshev
    # Chebyshev coefficients of every cardinal interpolant, integrated
    # from 0 and evaluated on the nodes, all columns at once
    anti = C.chebint(np.linalg.inv(C.chebvander(t, n - 1)))
    vals = C.chebvander(t, n) @ anti
    return vals - vals[0]


@cache
def cc_kink_coefficients(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature-defect coefficients of the Clenshaw-Curtis rule for
    integrands with a corner at a node.

    C1[p] = int (t - t_p)_+ dt - sum_j w_j (t_j - t_p)_+   (ramp defect),
    C0[p] = int H(t - t_p) dt - sum_j w_j H(t_j - t_p)     (step defect),

    with H(0) counted as 1/2 (midpoint convention for diagonal entries).
    Kernel compositions with known diagonal jumps subtract these defects
    to restore high-order accuracy.
    """
    t, w = clenshaw_curtis(n)
    C1 = np.empty(n)
    C0 = np.empty(n)
    for p in range(n):
        ramp = np.maximum(t - t[p], 0.0)
        C1[p] = 0.5 * (1.0 - t[p]) ** 2 - float(np.dot(w, ramp))
        step = np.where(t > t[p], 1.0, 0.0)
        step[p] = 0.5
        C0[p] = (1.0 - t[p]) - float(np.dot(w, step))
    return C1, C0
