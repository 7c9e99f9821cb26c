"""One-dimensional power-weight kernel operators: exact boundedness
predicates and empirical norm trends; and the package's norm estimators.

Two model families on the half line:

* domain [1, oo), measures r^{d_1 - 1} dr (left) and r^{d_2 - 1} dr
  (right), kernel x^{-a} y^{-b} for x <= y and x^{-a'} y^{-b'} for y < x;
  bounded L^p(d_2) -> L^p(d_1) when p (a + b - d_2) > d_1 - d_2,
  p (a' + b' - d_2) > d_1 - d_2 and
  d_1/min(d_1, a') < p < d_2/max(0, d_2 - b);

* domain (0, oo), d_1 = d_2 = d with the homogeneous calibration
  a + b = d = a' + b': after the Mellin substitution the operator is
  convolution by u(s) = e^{(d/p - a) s} (s <= 0), e^{(d/p - a') s}
  (s > 0), so it is bounded exactly when u is integrable:
  a' > a and d/a' < p < d/a, with operator norm at most ||u||_{L^1}.

Equalities in any of the inequalities are boundary cases: the lemmas are
silent there and the predicate raises instead of guessing.

Every norm estimator of the package lives here: lp_norm,
boyd_lower_bound (riesz p != 2 lower bounds), schur_upper_bound (riesz
p != 2 upper bounds) and spectral_norms, the one Lanczos estimator of a
largest singular value (riesz p = 2, and the parametrix singular
values).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal, svdvals

from .errors import DomainError, NonConvergenceError
from .fits import classify_trend

_BTOL = 1e-12


class BoundaryCase(ArithmeticError):
    """An inequality of the lemma holds with equality: no classification."""


@dataclass(frozen=True)
class PowerKernel:
    a: float
    b: float
    a_prime: float
    b_prime: float
    d1: float = 1.0
    d2: float = 1.0
    domain_start: float = 1.0   # 1 for the [1, oo) lemma, 0 for the scaling one

    def __post_init__(self):
        if self.d1 < 1 or self.d2 < 1:
            raise DomainError("PowerKernel: need d1, d2 >= 1")
        if self.domain_start not in (0.0, 1.0):
            raise DomainError("PowerKernel: domain starts at 0 or 1")
        if self.domain_start == 0.0:
            if self.d1 != self.d2:
                raise DomainError("scaling lemma needs d1 == d2")
            if abs(self.a + self.b - self.d1) > _BTOL or \
               abs(self.a_prime + self.b_prime - self.d1) > _BTOL:
                raise DomainError(
                    "scaling lemma needs the homogeneous calibration "
                    "a + b = d = a' + b'")

    @property
    def homogeneous(self) -> bool:
        return self.domain_start == 0.0

    def values(self, x, y):
        x = np.asarray(x, dtype=float)[:, None]
        y = np.asarray(y, dtype=float)[None, :]
        below = x ** (-self.a) * y ** (-self.b)
        above = x ** (-self.a_prime) * y ** (-self.b_prime)
        return np.where(x <= y, below, above)


def lemma_predicate(kernel: PowerKernel, p: float) -> bool:
    """Exact boundedness predicate of the applicable lemma.

    Raises BoundaryCase when any inequality is an equality (within
    1e-12), where the lemmas assert nothing.
    """
    if p <= 1:
        raise DomainError("lemma_predicate: need p > 1")
    k = kernel
    if k.homogeneous:
        d = k.d1
        checks = [k.a_prime - k.a, p - d / k.a_prime, d / k.a - p]
        if any(abs(c) <= _BTOL for c in checks):
            raise BoundaryCase(f"boundary case at p={p}")
        return all(c > 0 for c in checks)
    lhs1 = p * (k.a + k.b - k.d2) - (k.d1 - k.d2)
    lhs2 = p * (k.a_prime + k.b_prime - k.d2) - (k.d1 - k.d2)
    low = k.d1 / min(k.d1, k.a_prime) if k.a_prime > 0 else math.inf
    denom = max(0.0, k.d2 - k.b)
    high = math.inf if denom == 0.0 else k.d2 / denom
    checks = [lhs1, lhs2, p - low, (high - p) if math.isfinite(high) else 1.0]
    if any(abs(c) <= _BTOL for c in checks):
        raise BoundaryCase(f"boundary case at p={p}")
    return all(c > 0 for c in checks)


def lp_norm(q: np.ndarray, f: np.ndarray, p: float) -> float:
    """(sum_i q_i |f_i|^p)^{1/p}: the L^p norm under the weights q."""
    return float(np.dot(q, np.abs(f) ** p) ** (1.0 / p))


def boyd_lower_bound(mat, w1: np.ndarray, w2: np.ndarray,
                     p, iters: int, cuts=None):
    """Lower bound for the L^p(w2) -> L^p(w1) norm of the matrix operator
    mat (an ndarray, or any operator with a shape and `@` on both sides,
    such as bvp.GreenSumOperator) by Boyd's nonlinear power iteration

        f <- [M*(|M f|^{p-1} sgn)]^{1/(p-1)},  M* = diag(1/w2) M^T diag(w1),

    from f = 1 (D. W. Boyd, Linear Algebra Appl. 9, 1974).  The
    iteration runs on the signed operator, as Calderon-Zygmund-type
    kernels require (their absolute value is unbounded); on nonnegative
    kernels every iterate stays nonnegative.

    A scalar p returns one float.  A vector p runs one iteration per
    entry in lockstep, as the columns of one block, so each step costs
    two matrix-matrix products; the bounds come back as an array.  For a
    square mat, cuts (one slice per entry of p, as spectral_norms takes
    them) restricts column j to the operator truncated to the rows and
    columns cuts[j]: the column starts from that mask and is masked
    again after every product, which makes it the iteration on
    mat[c, c] up to rounding.  Without cuts every column sees the whole
    matrix.

    A column whose iterate overflows (any non-finite value) stops there
    and reports +inf: the iteration cannot bound that norm, and a norm
    read off an overflowed iterate is meaningless.  A column whose
    iterate vanishes stops with its best bound so far."""
    scalar = np.ndim(p) == 0
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if cuts is None:
        cuts = [slice(None)] * len(p)
    elif mat.shape[0] != mat.shape[1] or len(cuts) != len(p):
        raise DomainError("boyd_lower_bound: cuts need a square matrix and "
                          "one slice per p")

    off_rows, off_cols = (np.ones((n, len(p)), dtype=bool)
                          for n in mat.shape)
    for j, cut in enumerate(cuts):
        off_rows[cut, j] = off_cols[cut, j] = False
    f = (~off_cols).astype(float)

    def norms(w, x):
        return (w @ np.abs(x) ** p) ** (1.0 / p)

    best = np.zeros(len(p))
    live = np.ones(len(p), dtype=bool)

    def stop(finite):
        bad = live & ~finite
        best[bad] = np.inf
        live[bad] = False

    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(iters):
            f[:, ~live] = 0.0      # stopped columns idle as zeros
            nf = norms(w2, f)
            stop(np.isfinite(nf))
            live &= nf > 0
            if not live.any():
                break
            f /= np.where(live, nf, 1.0)
            g = mat @ f
            g[off_rows] = 0.0
            ng = norms(w1, g)
            stop(np.isfinite(ng))
            np.maximum(best, ng, out=best, where=live)
            u = np.abs(g) ** (p - 1.0) * np.sign(g)
            # (X^T M)^T rather than M^T X: the transposed product is
            # several times slower at a few dozen columns
            h = ((w1[:, None] * u).T @ mat).T / w2[:, None]
            h[off_cols] = 0.0
            f = np.abs(h) ** (1.0 / (p - 1.0)) * np.sign(h)
            stop(np.all(np.isfinite(f), axis=0))
    return float(best[0]) if scalar else best


def schur_upper_bound(values: np.ndarray, magnitude: np.ndarray,
                      q: np.ndarray, diagonal, p):
    """|| K ||_{p->p} <= C_1^{1/p'} C_inf^{1/p} for K f = values (q f) +
    diagonal f, with C_1 / C_inf its max column / row L^1 masses (Schur
    interpolation).  magnitude is |values|, typically a view of |values|
    of the whole kernel, so that the absolute values of several
    truncations are taken once.  The masses are taken from |values| q,
    with each diagonal entry replaced by its corrected value, so K is
    never composed.  They do not depend on p: a vector p gets them once
    and returns one bound per entry, each equal bit for bit to the
    scalar call."""
    own = np.diagonal(magnitude) * q
    fix = np.abs(np.diagonal(values) * q + diagonal) - own
    row = float(np.max(magnitude @ q + fix))
    col = float(np.max((np.ones(len(q)) @ magnitude) * q + fix))
    bounds = [col ** (1.0 - 1.0 / pj) * row ** (1.0 / pj)
              for pj in np.atleast_1d(p)]
    return bounds[0] if np.ndim(p) == 0 else np.array(bounds)


# bidiagonalization steps after which spectral_norms gives up; the
# default riesz sweep converges in at most 80
GKL_MAX_STEPS = 300
# spectral_norms runs its stop test after every GKL_CHECK_EVERY-th step
# (and after step GKL_MAX_STEPS)
GKL_CHECK_EVERY = 4


def spectral_norms(mat, sq: np.ndarray, cuts) -> np.ndarray:
    """Largest singular value of A = D mat[c, c] D^-1, D = diag(sq[c]),
    for each truncation c (a slice) of the square operator mat: an
    ndarray, or any operator with a shape and `@` on both sides
    (bvp.GreenSumOperator, the LU inverse of parametrix).

    Golub-Kahan-Lanczos bidiagonalization (Golub and Kahan, SIAM J.
    Numer. Anal. B 2, 1965) runs for every truncation in lockstep, each
    truncation one row of a block: a half step is one masked product of
    the live rows with the whole matrix, the weights applied to the
    vectors rather than to the matrix.  Each truncation starts from its
    normalized mask, so reruns are bitwise equal.  The right vectors are
    reorthogonalized fully, twice, against their own basis; only the
    previous left vector is kept (one-sided reorthogonalization, Simon
    and Zha, SIAM J. Sci. Comput. 21, 2000).

    After k steps the bidiagonal B (diagonal alpha, superdiagonal beta)
    and the next beta_k give the residual ||A^T u - sigma v|| =
    beta_k alpha_k |y_k| / sigma of the leading Ritz triplet, with y the
    top eigenvector of the tridiagonal B^T B.  A truncation stops once
    beta_k |y_k|, which bounds that residual since alpha_k <= ||B|| =
    sigma, is at most 4 eps sigma; its norm is the largest singular
    value of B.  The test, one tridiagonal eigenproblem per live
    truncation, runs only after every GKL_CHECK_EVERY-th step and after
    the last one, so a truncation may run up to GKL_CHECK_EVERY - 1
    steps past the first step that meets the rule; the rule itself
    holds at the step where it stops.  A truncation still running after
    GKL_MAX_STEPS steps raises NonConvergenceError."""
    n = mat.shape[0]
    m = len(cuts)
    keep = np.zeros((m, n))
    for i, cut in enumerate(cuts):
        keep[i, cut] = 1.0
    # step-major basis: the first k steps fill one contiguous prefix, so
    # untouched steps commit no memory
    V = np.empty((GKL_MAX_STEPS + 1, m, n))
    V[0] = keep / np.sqrt(keep.sum(axis=1))[:, None]
    u = np.zeros((m, n))
    alpha = np.zeros((m, GKL_MAX_STEPS))
    beta = np.zeros((m, GKL_MAX_STEPS))
    norms = np.empty(m)
    live = np.ones(m, dtype=bool)
    tol = 4.0 * np.finfo(float).eps
    for k in range(GKL_MAX_STEPS):
        rows = np.flatnonzero(live)
        p = (mat @ (V[k, rows] / sq).T).T * sq * keep[rows]
        if k:
            p -= beta[rows, k - 1, None] * u[rows]
        a = np.linalg.norm(p, axis=1)
        alpha[rows, k] = a
        u[rows] = p / np.where(a > 0, a, 1.0)[:, None]
        r = ((u[rows] * sq) @ mat) / sq * keep[rows]
        r -= a[:, None] * V[k, rows]
        for j, i in enumerate(rows):
            basis = V[:k + 1, i, cuts[i]]
            x = r[j, cuts[i]]
            for _ in range(2):
                x -= (basis @ x) @ basis
        b = np.linalg.norm(r, axis=1)
        beta[rows, k] = b
        V[k + 1, rows] = r / np.where(b > 0, b, 1.0)[:, None]
        if (k + 1) % GKL_CHECK_EVERY and k + 1 < GKL_MAX_STEPS:
            continue
        for i in rows:
            diag, sup = alpha[i, :k + 1], beta[i, :k]
            ev, y = eigh_tridiagonal(diag ** 2 + np.r_[0.0, sup ** 2],
                                     diag[:-1] * sup, select="i",
                                     select_range=(k, k))
            if beta[i, k] * abs(y[-1, 0]) <= tol * math.sqrt(max(ev[0], 0.0)):
                norms[i] = svdvals(np.diag(diag) + np.diag(sup, 1))[0]
                live[i] = False
        if not live.any():
            return norms
    raise NonConvergenceError(
        f"spectral_norms: {int(live.sum())} of {m} truncations unconverged "
        f"after {GKL_MAX_STEPS} bidiagonalization steps")


# truncation radii of empirical_norm_trend, each a power of ten, and the
# log-grid density of random_instance_suite
TREND_R_MAXES = (1e2, 1e3, 1e4, 1e5, 1e6)
SUITE_PTS_PER_DECADE = 20


def _log_grid_operator(kernel: PowerKernel, pts_per_decade: int):
    """The kernel on one log grid up to R = TREND_R_MAXES[-1], nodes
    10^(i / pts_per_decade) from 1, or from 1/R on the scaling lemma, so
    that every R_max and 1/R_max is a node: the matrix on densities, the
    weights of both measures and the slice of each truncation."""
    ends = [round(math.log10(r)) * pts_per_decade for r in TREND_R_MAXES]
    one = ends[-1] if kernel.homogeneous else 0     # the index of x = 1
    x = 10.0 ** ((np.arange(one + ends[-1] + 1) - one) / pts_per_decade)
    cuts = [slice(one - e if kernel.homogeneous else 0, one + e + 1)
            for e in ends]
    w2 = np.gradient(x) * x ** (kernel.d2 - 1)
    w1 = np.gradient(x) * x ** (kernel.d1 - 1)
    mat = kernel.values(x, x) * w2[None, :]
    return mat, w1, w2, cuts


def empirical_norm_trend(kernel: PowerKernel, p: float,
                         pts_per_decade: int = 16):
    """The norms of the kernel truncated at each R_max, slices of one log
    grid in one lockstep power iteration (boyd_lower_bound with cuts),
    and their fits.Trend, which matches the exact predicate away from
    boundary cases."""
    if p <= 1:
        raise DomainError("empirical_norm_trend: need p > 1")
    mat, w1, w2, cuts = _log_grid_operator(kernel, pts_per_decade)
    norms = boyd_lower_bound(mat, w1, w2, [p] * len(cuts), 40, cuts)
    return norms, classify_trend(TREND_R_MAXES, norms)


def random_instance_suite(n_instances: int = 200, seed: int = 5) -> dict:
    """Predicate/trend agreement over random non-boundary instances of
    both lemmas."""
    rng = np.random.default_rng(seed)
    agree = 0
    total = 0
    disagreements = []
    while total < n_instances:
        if rng.random() < 0.5:
            d = float(rng.uniform(1.0, 4.0))
            a = float(rng.uniform(0.1, d - 0.1))
            ap = float(rng.uniform(0.1, d - 0.05))
            kern = PowerKernel(a, d - a, ap, d - ap, d, d, domain_start=0.0)
        else:
            d1 = float(rng.uniform(1.0, 4.0))
            d2 = float(rng.uniform(1.0, 4.0))
            a = float(rng.uniform(0.2, 3.0))
            b = float(rng.uniform(0.2, 3.0))
            ap = float(rng.uniform(0.2, 3.5))
            bp = float(rng.uniform(0.2, 3.0))
            kern = PowerKernel(a, b, ap, bp, d1, d2)
        p = float(rng.uniform(1.1, 5.0))
        try:
            pred = lemma_predicate(kern, p)
        except BoundaryCase:
            continue
        # keep clear of boundary cases so truncation effects cannot flip
        # the classification
        if _margin(kern, p) < 0.35:
            continue
        _, trend = empirical_norm_trend(kern, p,
                                        pts_per_decade=SUITE_PTS_PER_DECADE)
        total += 1
        if pred == trend.bounded:
            agree += 1
        else:
            disagreements.append((kern, p, pred, trend))
    return {"agree": agree, "total": total, "disagreements": disagreements}


def _margin(kernel: PowerKernel, p: float) -> float:
    """Distance to the nearest lemma boundary in exponent units: the
    slowest exponential rate of the underlying Mellin-type profiles.
    Small margins mean the truncated norms converge or diverge only
    logarithmically slowly, so the suite skips them."""
    k = kernel
    if k.homogeneous:
        d = k.d1
        return min(abs(d / p - k.a), abs(k.a_prime - d / p))
    m1 = abs(p * (k.a + k.b - k.d2) - (k.d1 - k.d2)) / p
    m2 = abs(p * (k.a_prime + k.b_prime - k.d2) - (k.d1 - k.d2)) / p
    m3 = abs(min(k.d1, k.a_prime) - k.d1 / p)
    vals = [m1, m2, m3]
    vals.append(abs(k.b - k.d2 * (1.0 - 1.0 / p)))
    return min(vals)


def paper_instances(n_plus: int = 3):
    """The kernel instances arising in the low-energy gradient analysis,
    with the p-ranges on which they are bounded."""
    n = n_plus
    return [
        # both variables on the two-dimensional end: d = 2, a = 1, a' = 2
        (PowerKernel(1.0, 1.0, 2.0, 0.0, 2.0, 2.0, domain_start=0.0),
         (1.0, 2.0)),
        # left on the plus end, right on the minus end
        (PowerKernel(n - 1.0, 1.0, float(n), 0.0, float(n), 2.0), (1.0, 2.0)),
        # left on the minus end, right on the plus end
        (PowerKernel(1.0, n - 1.0, 2.0, n - 2.0, 2.0, float(n)),
         (1.0, float(n))),
        # both on the plus end: min(r^{-n} r'^{2-n}, r^{1-n} r'^{1-n})
        (PowerKernel(n - 1.0, n - 1.0, float(n), n - 2.0, float(n), float(n)),
         (1.0, float(n))),
    ]
