"""Reference computations, and the channel type, that more than one test
file uses.

None of them runs in a subcommand, a demo or the benchmark; each checks
a library result or a statement of the paper from outside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from connsum import bvp, parametrix as px, product_kernels as pk
from connsum.errors import ConfigError, DomainError, NonConvergenceError
from connsum.fits import loglog_slope
from connsum.model import ModelManifold
from connsum.quadrature import cc_segment
from connsum.riesz import WITNESS_SIGMA_MAX
from connsum.specfun import K_QUADRATURE_RTOL, _log_cosh


@dataclass(frozen=True)
class ModeChannel:
    """One separated-variables channel (angular degree, cross index) of a
    product end; the library solves the glued zero channel only."""
    end: str  # "minus" | "plus"
    angular: int
    cross_index: int

    def __post_init__(self):
        if self.end not in ("minus", "plus"):
            raise ConfigError("channel end must be 'minus' or 'plus'")
        if self.angular < 0 or self.cross_index < 0:
            raise ConfigError("channel indices must be nonnegative")

    @property
    def is_zero(self) -> bool:
        return self.angular == 0 and self.cross_index == 0


@cache
def cheb_diff_matrix(n: int) -> np.ndarray:
    """Matrix D with (D y)_i = p'(t_i) for the Chebyshev interpolant p of
    the values y on the n Clenshaw-Curtis nodes, cached per n: the
    barycentric D_ij = (w_j / w_i) / (t_i - t_j), t_i - t_j in product
    form and each diagonal entry minus the rest of its row."""
    a = np.pi * np.arange(n) / (n - 1)     # t = -cos(a)
    dt = 2.0 * np.sin(0.5 * np.add.outer(a, a)) \
        * np.sin(0.5 * np.subtract.outer(a, a))
    w = (-1.0) ** np.arange(n)
    w[[0, -1]] *= 0.5
    D = np.outer(1.0 / w, w) / (dt + np.eye(n))
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return D


def derivatives(model: ModelManifold, y) -> tuple[np.ndarray, np.ndarray]:
    """(dy/ds, d2y/ds2) of a grid function, or of each column of an
    (n, c) array, by per-segment Chebyshev differentiation.

    Spectral for functions analytic on each segment; at shared segment
    nodes the two one-sided values are averaged.
    """
    y = np.asarray(y, dtype=float)
    d1 = np.zeros_like(y)
    d2 = np.zeros_like(y)
    counts = np.zeros(model.n)
    col = (-1,) + (1,) * (y.ndim - 1)
    for start, n, th, jac, kind in model.segments:
        sl = slice(start, start + n)
        D = cheb_diff_matrix(n) / (0.5 * (th[-1] - th[0]))
        u_t = D @ y[sl]
        u_tt = D @ u_t
        # map theta derivatives to s derivatives: s'(theta) = jac,
        # s''(theta) = sec * jac with sec = -1 (minus), +1 (plus), 0 (neck)
        sec = {"minus": -1.0, "plus": 1.0, "neck": 0.0}[kind]
        jac = jac.reshape(col)
        d1[sl] += u_t / jac
        d2[sl] += (u_tt - sec * u_t) / jac ** 2
        counts[sl] += 1.0
    return d1 / counts.reshape(col), d2 / counts.reshape(col)


def apply_operator(model: ModelManifold, values, k: float = 0.0):
    """(Delta + k^2) applied to a glued zero-channel grid function by
    per-segment Chebyshev differentiation (accurate for functions analytic
    per segment), with the two boundary values set to zero.
    `model.radial_laplacian` is the independent finite-difference
    route."""
    d1, d2 = derivatives(model, values)
    out = model.laplacian(d1, d2) + k * k * np.asarray(values, float)
    out[0] = out[-1] = 0.0
    return out


def segment_interior(model: ModelManifold) -> np.ndarray:
    """Mask of nodes strictly inside their segment.  Endpoint rows of
    spectral differentiation amplify value noise by ~n^2, so residual
    checks are sharpest on this mask."""
    mask = np.ones(model.n, dtype=bool)
    for start, n, _th, _jac, _kind in model.segments:
        mask[start:start + 2] = False
        mask[start + n - 2:start + n] = False
    return mask


@dataclass
class GridFunction:
    """A sampled radial function on the model grid."""
    values: np.ndarray
    dvalues: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.dvalues is not None:
            self.dvalues = np.asarray(self.dvalues, dtype=float)
            if self.dvalues.shape != self.values.shape:
                raise DomainError("GridFunction: value/derivative shape mismatch")


def bessel_K_adaptive(order: float, x: float) -> float:
    """K_order(x) by adaptive quadrature of
    int_0^oo exp(-x cosh t) cosh(order t) dt on [0, tmax], with the peak
    t* = asinh(order / x) as a break point: the reference for
    specfun.bessel_K_quadrature, which sums the same integral by the
    trapezoidal rule."""
    from scipy.integrate import quad

    if x <= 0:
        raise DomainError("bessel_K_adaptive: need x > 0")
    nu = float(order)

    def integrand(t):
        return math.exp(-x * math.cosh(t) + float(_log_cosh(nu * t)))

    tstar = math.asinh(nu / x) if nu > 0 else 0.0
    # beyond T the integrand is below exp(-750) relative to the peak
    big = 750.0 + x + (nu * tstar - x * math.cosh(tstar) if nu > 0 else 0.0)
    tmax = math.acosh(max(big, 2.0) / x) + 2.0 if big / x > 1.0 else 25.0
    pts = [tstar] if 0 < tstar < tmax else None
    val, err = quad(integrand, 0.0, tmax, points=pts, limit=400,
                    epsabs=0.0, epsrel=K_QUADRATURE_RTOL)
    if not math.isfinite(val) or (
            val != 0 and err / abs(val) > 100 * K_QUADRATURE_RTOL):
        raise NonConvergenceError(
            f"bessel_K_adaptive failed: order={order}, x={x}, err={err:g}")
    return val


def error_total(err) -> np.ndarray:
    """E = E' + E'' of a parametrix.ErrorOperator in a new n x n array,
    the allocating reference beside its in-place take_total."""
    return err.e1 + err.e2.kernel()


def identity_residuals(par, k: float):
    """(identity, sk_identity) at energy k, in the plain discrete kernel
    algebra where composition is matrix multiplication with the
    quadrature weights: sup |(Id + E)(Id + S) - Id| for the S solving it,
    and the weighted Hilbert-Schmidt norm of S - K relative to that of S,
    with K = -E + E E + E S E.  S is solved on the equilibrated matrix
    D (Id + E q) D^-1, with the scaling D = diag(sqrt(q) / w) that
    parametrix.invert_error also equilibrates its (kink-corrected)
    system with: unscaled, Id + E q has cond 2e12 on ends of length
    80000."""
    model = par.model
    err = par.error(k)
    q = model.weights
    diag = np.diag_indices(model.n)
    # E in the array of its first term, and each product freed once read
    e_total = err.take_total()
    scale = np.sqrt(q) / err.weight
    weighted = e_total * q[None, :]
    weighted *= scale[:, None]
    weighted /= scale[None, :]
    weighted[diag] += 1.0
    S0 = np.linalg.solve(weighted, e_total * -scale[:, None])
    del weighted
    S0 /= scale[:, None]
    A0 = e_total * q[None, :]
    A0[diag] += 1.0
    # (Id + E q)(Id + S q) - Id, the identity added on the diagonals
    right = S0 * q[None, :]
    right[diag] += 1.0
    left = A0 @ right
    del A0, right
    left[diag] -= 1.0
    res_id = float(np.max(np.abs(left)))
    del left
    rhs_sk = -e_total + (e_total * q[None, :]) @ (
        e_total + (S0 * q[None, :]) @ e_total)
    res_sk = px.hs_norm(model, S0 - rhs_sk, err.weight) \
        / max(px.hs_norm(model, S0, err.weight), 1e-300)
    return res_id, res_sk


def resolvent(par, k: float, v):
    """R(k) v on the grid of a parametrix.Parametrix as a GridFunction
    (values and d/ds values)."""
    v = np.asarray(v, dtype=float)
    vsv = par.s_operator(k).apply(v)
    return GridFunction(par.g_matrix(k) @ vsv,
                        par.g_matrix(k, dleft=True) @ vsv)


def composition_matrix(model: ModelManifold, kernel, jump_ramp,
                       jump_step) -> np.ndarray:
    """K_ij q_j plus the kink diagonal: a kernel with diagonal slope jumps
    jump_ramp and value jumps jump_step acting on densities."""
    return kernel * model.weights[None, :] \
        + np.diag(model.kink_diagonal(jump_ramp, jump_step))


def g_kernel(par, k: float, dleft: bool = False):
    """(kernel, corrected composition matrix) of G(k) of a
    parametrix.Parametrix, or with dleft of its left derivative: the
    terms of its _g_terms added into one copy of G2."""
    g2, blocks, low_rank = par._g_terms(k, dleft)
    out = g2.copy()
    for idx, block in blocks:
        out[np.ix_(idx, idx)] += block
    for term in low_rank:
        out += term.kernel()
    return out, out * par.model.weights[None, :] + np.diag(par._g_kink(dleft))


def s_kernel(par, k: float):
    """(S, c_left, kink): the whole kernel of S(k) = (Id + E(k))^{-1} - Id
    of a parametrix.Parametrix, the left-variable kinks of its columns and
    its kink diagonal.  S solves the kink-corrected Nystrom system
    A S = -E (Id + diag(c_left)), A = Id + E q + diag(kink_E), unscaled,
    with one step of iterative refinement.  The columns S(., z') jump by
    minus E's jumps, and as left-variable kinks their value jumps flip
    sign: c_left = kink_diagonal(-J1_E, J0_E)."""
    model = par.model
    err = par.error(k)
    e_total = error_total(err)
    c_left = model.kink_diagonal(-err.jump_ramp, err.jump_step)
    rhs = -e_total - e_total * c_left[None, :]
    A = composition_matrix(model, e_total, err.jump_ramp, err.jump_step) \
        + np.eye(model.n)
    S = np.linalg.solve(A, rhs)
    S += np.linalg.solve(A, rhs - A @ S)
    return S, c_left, model.kink_diagonal(-err.jump_ramp, -err.jump_step)


def resolvent_kernel(par, k: float, dleft: bool = False) -> np.ndarray:
    """The whole kernel of R(k) = G(k)(Id + S(k)), or with dleft of
    d_s R(k), by the two-step route: S(k) from s_kernel, then
    G + G_matrix S + G diag(c_left).  The reference for
    parametrix.InvertedError.right_compose."""
    S, c_left, _ = s_kernel(par, k)
    kernel, matrix = g_kernel(par, k, dleft)
    return kernel + matrix @ S + kernel * c_left[None, :]


def full_solve(inverse, b, trans: bool = False) -> np.ndarray:
    """system^-1 b, or with trans b system^-1 for rows b, of a
    parametrix.InvertedError by one dense solve on the whole n x n
    equilibrated system: the reference for its bordered solves."""
    if trans:
        return np.linalg.solve(inverse.system.T, np.asarray(b).T).T
    return np.linalg.solve(inverse.system, b)


def full_right_compose(inverse, matrix, kink) -> np.ndarray:
    """parametrix.InvertedError.right_compose(matrix, kink) by one
    transposed solve with n right-hand sides on the whole equilibrated
    system, the route before the bordered solve; matrix is left as it
    is."""
    q = inverse.model.weights
    out = full_solve(inverse, matrix / inverse.scale[None, :], trans=True)
    right = (1.0 + inverse.c_left) / q
    out *= (inverse.scale * (1.0 + inverse.kink) * right)[None, :]
    out[np.diag_indices(inverse.model.n)] -= kink * right
    return out


def fit_envelope(values, shape) -> float:
    """Smallest constant C with |values| <= C * shape over the samples."""
    values = np.abs(np.asarray(values, dtype=float)).ravel()
    shape = np.asarray(shape, dtype=float).ravel()
    if np.any(shape <= 0):
        raise ValueError("fit_envelope: shape must be positive")
    return float(np.max(values / shape))


def schur_exponent_check(model: ModelManifold, s_exp: float,
                         k_list=(3e-3, 1e-3, 3e-4, 1e-4)) -> dict:
    """The off-diagonal minus-end resolvent at frozen k has
    L^{s'} -> L^inf norm ~ k^{-2/s}: fitted exponent of
    sup_z (int_{d >= 1} |K(z, z')|^s dV')^{1/s} against k."""
    end = model.minus
    r_eval = np.array([model.radii.zeta[0]])
    vals = []
    for k in k_list:
        r = np.geomspace(model.R, 50.0 / k, 4000)
        w = np.gradient(r) * end.weight_constant * r
        kern = pk.reduced_kernel(end, k, r_eval[0], r)
        mask = np.abs(r - r_eval[0]) >= 1.0
        vals.append(float(np.sum(w[mask] * np.abs(kern[mask]) ** s_exp))
                    ** (1.0 / s_exp))
    slope = loglog_slope(np.array(k_list), np.array(vals))
    return {"fitted": slope, "expected": -2.0 / s_exp,
            "values": vals}


def dense_green_kernel(g, dleft: bool = False) -> np.ndarray:
    """The Green kernel uL(s_<) uR(s_>) / W of the bvp.GluedSystem g on
    grid x grid (with dleft, its derivative in the left variable, the
    diagonal at the midpoint of the two one-sided limits), as one dense
    selection: the reference for bvp.green_kernel_sums."""
    s = g.model.s
    fL, fR = (g.uLp, g.uRp) if dleft else (g.uL, g.uR)
    upper = fL[:, None] * g.uR[None, :]
    lower = fR[:, None] * g.uL[None, :]
    above = s[:, None] < s[None, :]
    expo = np.where(above, g.exp_l[:, None] + g.exp_r[None, :],
                    g.exp_r[:, None] + g.exp_l[None, :])
    out = np.where(above, upper, lower)
    d = np.arange(len(s))
    out[d, d] = 0.5 * (upper[d, d] + lower[d, d])
    return out * np.exp(np.clip(expo, -745.0, 700.0)) / g.wronskian


def dense_error_total(par, k: float) -> np.ndarray:
    """E(k) of a parametrix.Parametrix summed term by term into a
    zero n x n array: the phi-commutator blocks, the zeta-commutator rows,
    the frozen-energy defect (k^2 - kbar^2) G2, then E''(k) as a dense
    kernel.  The reference for parametrix.error_kernel, which starts from
    the defect and keeps E'' as its rank-2 factors."""
    n = par.model.n
    e1 = np.zeros((n, n))
    for rows, cols, block in px._phi_commutator_blocks(par, k):
        e1[np.ix_(rows, cols)] += block
    zrows, zeta_rows = par.zeta_rows
    e1[zrows, :] += zeta_rows
    e1 += (k * k - par.kbar ** 2) * par.g2
    e2 = np.zeros((n, n)) if k <= 0 else par.basepoint_outer(
        k, par.u_minus.residual(k), par.u_plus.residual(k)).kernel()
    return e1 + e2


def composed_kernel(kern) -> np.ndarray:
    """The dense composition values * q + diag(kink) of a
    riesz.DiscretizedKernel, as composition_matrix forms it: the
    reference for the kernel's operator."""
    return composition_matrix(kern.model, kern.values, 0.0, kern.jump_step)


def basepoint_freezing_exponent(wit) -> float:
    """Fitted decay exponent in r' of the basepoint-freezing error of a
    riesz.UnboundednessWitness, int_0^{k0} |R(z, r') - R(z^o, r')| dk
    with z at the median row radius, over r' > 2/k0 (O(r'^{-2}) from
    the paper's estimate)."""
    model, k0 = wit.model, wit.k0
    rc = model.r[wit.cols]
    mid = float(np.median(model.r[wit.rows]))
    sig, w = cc_segment(math.log(1.0 / k0), WITNESS_SIGMA_MAX, 13)
    dint = np.zeros(len(rc))
    for s_i, w_i in zip(sig, w):
        k = math.exp(-s_i)
        dint += w_i * k * np.abs(
            pk.reduced_kernel(model.minus, k, mid, rc)
            - pk.reduced_kernel(model.minus, k, model.radii.basepoint, rc))
    sel = rc > 2.0 / k0
    return loglog_slope(rc[sel], np.maximum(dint[sel], 1e-300))


def log_harmonic_remainder(model: ModelManifold, U: bvp.LogHarmonic):
    """(r, |U - log r - c_1|) on the far minus end s < -6."""
    far = model.s < -6.0
    return model.r[far], np.abs(U.values[far] - np.log(model.r[far]) - U.c1)
