"""Riesz transform experiments on the glued model.

The transform nabla Delta^{-1/2} = (2/pi) int_0^oo nabla (Delta+k^2)^{-1} dk
splits at k_0 into a low-energy part and a high-energy part, the spectral
multiplier  xi -> (2/(pi xi)) arctan(xi/k_0)  of the radial operator.
This module assembles the low-energy part as an explicit two-variable
kernel, by quadrature of the resolvent gradient in k.  The high-energy
part has the uniform L^2 bound sup_xi |xi F_>(xi)| = 1 on every channel;
no subcommand reports it yet, and its finite-volume eigen-multiplier and
the Euclidean split check live with their tests (tests/test_riesz.py).

The low-energy kernel drives the boundedness experiments (norm estimates
stabilizing in the truncation radius for 1 < p <= 2) and the
unboundedness witness: on the two-dimensional end the kernel dominates a
rank-one kernel  tau(z)/r * ilg(1/r')/r',  whose L^p -> L^p norm grows
like a positive power of the truncation radius once p > 2, because
ilg(1/r')/r' just fails to lie in L^{p'}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal, svdvals

from . import product_kernels as pk
from .cutoffs import Bump, minus_cutoff
from .errors import DomainError, NonConvergenceError
from .fits import classify_trend, loglog_slope
from .lp_estimator import boyd_lower_bound, lp_norm
from .model import ModelManifold
from .quadrature import cc_segment


@dataclass
class DiscretizedKernel:
    """Two-variable kernel on grid x grid with its quadrature measure."""
    model: ModelManifold
    values: np.ndarray
    jump_step: np.ndarray | None = None   # diagonal value jump (d/ds kernels)
    quad_error: float = 0.0               # max per-entry k-quadrature error

    def quad_error_bound(self) -> float:
        """The largest accepted quad_error: 1e-3 of the largest entry."""
        return 1e-3 * float(np.max(np.abs(self.values)))

    def matrix(self) -> np.ndarray:
        step = 0.0 if self.jump_step is None else self.jump_step
        return self.model.composition_matrix(self.values, 0.0, step)


# upper end of the sigma = log(1/k) interval of the low-energy k-integral
SIGMA_MAX = 40.0


def low_energy_kernel(model: ModelManifold, k0: float,
                      n_sigma: int = 33) -> DiscretizedKernel:
    """(2/pi) int_0^{k0} d_s R(k)(z, z') dk on grid x grid.

    The substitution k = e^{-sigma} resolves the inverse-log behaviour
    near k = 0 uniformly; the integrand decays like e^{-sigma} so the
    upper truncation at SIGMA_MAX contributes ~ e^{-SIGMA_MAX}.  The
    per-entry error estimate compares against the embedded coarse rule:
    the nodes of the (n_sigma + 1) // 2 point Clenshaw-Curtis rule are
    every other node of the n_sigma point rule, so both sums share one
    resolvent gradient per node.  n_sigma must therefore be odd.

    The resolvent gradients come from the exact glued Green system, which
    is stable at every k on the lattice.  Both rules are summed together
    in generator form (bvp.kernel_dleft_sums), the coarse one as its
    difference from the fine one.
    """
    from .bvp import GluedSystem, kernel_dleft_sums

    if n_sigma < 3 or n_sigma % 2 == 0:
        raise DomainError("n_sigma must be an odd integer >= 3 (the coarse "
                          f"rule is embedded in the fine one), got {n_sigma}")

    sig, w = cc_segment(math.log(1.0 / k0), SIGMA_MAX, n_sigma)
    _, w_coarse = cc_segment(math.log(1.0 / k0), SIGMA_MAX, (n_sigma + 1) // 2)
    systems = []
    fine = np.zeros(n_sigma)
    coarse = np.zeros(n_sigma)
    jump = np.zeros(model.n)
    for i, (s_i, w_i) in enumerate(zip(sig, w)):
        k = math.exp(-s_i)
        systems.append(GluedSystem(model, k))
        fine[i] = (2.0 / math.pi) * w_i * k
        jump += (2.0 / math.pi) * w_i * k * (1.0 / model.v)
        if i % 2 == 0:
            coarse[i] = (2.0 / math.pi) * w_coarse[i // 2] * k
    vals, diff = kernel_dleft_sums(systems, [fine, fine - coarse])
    kern = DiscretizedKernel(model, vals, jump_step=jump,
                             quad_error=float(np.max(np.abs(diff))))
    if kern.quad_error > kern.quad_error_bound():
        raise NonConvergenceError(
            f"k-quadrature unconverged: per-entry error "
            f"{kern.quad_error:g} against bound "
            f"{kern.quad_error_bound():g}")
    return kern


# ---------------------------------------------------------------------------
# L^p machinery on the model grid


# bidiagonalization steps after which spectral_norms gives up; the
# default riesz sweep converges in at most 79
GKL_MAX_STEPS = 300


def spectral_norms(mat: np.ndarray, sq: np.ndarray, cuts) -> np.ndarray:
    """Largest singular value of A = D mat[c, c] D^-1, D = diag(sq[c]),
    for each truncation c (a slice) of the square matrix mat.

    Golub-Kahan-Lanczos bidiagonalization (Golub and Kahan, SIAM J.
    Numer. Anal. B 2, 1965) runs for every truncation in lockstep, each
    truncation one row of a block: a half step is one masked product of
    the live rows with the whole matrix, the weights applied to the
    vectors rather than to the matrix.  Each truncation starts from its
    normalized mask (the v0 = ones of parametrix.spectral_norm).  The
    right vectors are reorthogonalized fully, twice, against their own
    basis; only the previous left vector is kept (one-sided
    reorthogonalization, Simon and Zha, SIAM J. Sci. Comput. 21, 2000).

    After k steps the bidiagonal B (diagonal alpha, superdiagonal beta)
    and the next beta_k give the residual ||A^T u - sigma v|| =
    beta_k alpha_k |y_k| / sigma of the leading Ritz triplet, with y the
    top eigenvector of the tridiagonal B^T B.  A truncation stops once
    beta_k |y_k|, which bounds that residual since alpha_k <= ||B|| =
    sigma, is at most 4 eps sigma; its norm is the largest singular
    value of B.  A truncation still running after GKL_MAX_STEPS steps
    raises NonConvergenceError."""
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
        p = ((V[k, rows] / sq) @ mat.T) * sq * keep[rows]
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


def schur_upper_bound(mat: np.ndarray, q: np.ndarray, p):
    """|| K ||_{p->p} <= C_1^{1/p'} C_inf^{1/p} with C_1 / C_inf the max
    column / row L^1 masses (Schur interpolation).  The masses do not
    depend on p: a vector p gets them once and returns one bound per
    entry, each equal bit for bit to the scalar call."""
    a = np.abs(mat)
    row = float(np.max(a @ np.ones(len(q))))
    col = float(np.max(np.ones(len(q)) @ a))
    bounds = [col ** (1.0 - 1.0 / pj) * row ** (1.0 / pj)
              for pj in np.atleast_1d(p)]
    return bounds[0] if np.ndim(p) == 0 else np.array(bounds)


@dataclass
class TrendRow:
    p: float
    r_max: float
    lower: float
    upper: float


def _truncation(model: ModelManifold, rmax: float) -> slice:
    """The grid indices of {r <= rmax}.  r grows with |s| on both sides of
    the neck, so they form one index range, and a truncated kernel is a
    view of the full one."""
    idx = np.flatnonzero(model.r <= rmax)
    if idx.size == 0 or idx[-1] + 1 - idx[0] != idx.size:
        raise DomainError(f"{{r <= {rmax:g}}} is not one nonempty index "
                          "range of the grid")
    return slice(int(idx[0]), int(idx[-1]) + 1)


def lp_boundedness_report(kern: DiscretizedKernel, p_list, r_maxes) -> dict:
    """Norm estimates of the kernel restricted to {r, r' <= R_max} for each
    p, with a bounded/divergent verdict from the R_max trend
    (fits.classify_trend).

    Lower bounds: structured test family (radial plateaus, the aligned
    profile ilg(1/r')/r' on the two-dimensional end) plus Boyd's power
    iteration; upper bound: Schur interpolation (p = 2 uses the weighted
    spectral norm for both, every R_max in one lockstep bidiagonalization,
    spectral_norms).

    Every (R_max, p != 2) cell is one column of a single lockstep Boyd
    iteration (lp_estimator.boyd_lower_bound with a support mask) on the
    whole kernel matrix, so each of its steps is two products with one
    column per cell.  Everything independent of p, the structured-family
    images and the Schur masses, is computed once per R_max on a view of
    the truncated kernel.  A cell whose iteration overflows has lower
    bound +inf, and its trend is divergent.
    """
    model = kern.model
    q = model.weights
    mat = kern.matrix()
    cuts = {rmax: _truncation(model, rmax) for rmax in r_maxes}
    p_boyd = [p for p in p_list if p != 2.0]
    boyd_cells = [(p, rmax) for rmax in r_maxes for p in p_boyd]
    support = np.zeros((model.n, len(boyd_cells)), dtype=bool)
    for j, (_, rmax) in enumerate(boyd_cells):
        support[cuts[rmax], j] = True
    boyd = dict(zip(boyd_cells, boyd_lower_bound(
        mat, q, q, [p for p, _ in boyd_cells], 50, support)))
    cells: dict[tuple[float, float], TrendRow] = {}
    for rmax in r_maxes:
        cut = cuts[rmax]
        sub = mat[cut, cut]
        qs = q[cut]
        if p_boyd:
            family = _family_lower_bounds(model, cut, sub, rmax, p_boyd)
            uppers = schur_upper_bound(sub, qs, p_boyd)
            for p, lower, upper in zip(p_boyd, family, uppers):
                cells[p, rmax] = TrendRow(p, rmax,
                                          max(lower, float(boyd[p, rmax])),
                                          float(upper))
    if 2.0 in p_list:
        # the signed spectral norm: at p = 2 the absolute kernel sits on
        # the boundary of the power-weight lemmas, and boundedness rides
        # on the multiplier route (signs matter)
        uppers = spectral_norms(mat, np.sqrt(q), [cuts[r] for r in r_maxes])
        for rmax, upper in zip(r_maxes, uppers):
            cells[2.0, rmax] = TrendRow(2.0, rmax, float(upper), float(upper))
    rows = [cells[p, rmax] for p in p_list for rmax in r_maxes]
    verdicts = {}
    for p in p_list:
        trend = classify_trend(r_maxes, [cells[p, rmax].lower
                                         for rmax in r_maxes])
        if trend.bounded:
            verdicts[p] = {"verdict": "bounded-trend",
                           "variation": trend.variation}
        else:
            verdicts[p] = {"verdict": "divergent-trend",
                           "variation": trend.variation,
                           "growth_exponent": trend.growth_exponent}
    return {"rows": rows, "verdicts": verdicts}


def _family_lower_bounds(model: ModelManifold, cut: slice, sub: np.ndarray,
                         rmax: float, p_list) -> list[float]:
    """Largest ratio ||sub f||_p / ||f||_p, for each p, over the structured
    test family on the truncation cut: radial plateaus for every p, and
    the aligned profile of each p where it is nonzero.  One product
    serves every p."""
    q = model.weights[cut]
    r = model.r[cut]
    fam = [np.ones(len(r))] + [np.where(r <= a, 1.0, 0.0)
                               for a in (4.0, rmax / 4, rmax)]
    on_minus = model.mask_minus[cut] & (r > 2.0)
    tests = {p: list(range(len(fam))) for p in p_list}
    for p in p_list:
        prof = np.where(on_minus, _aligned_profile(r, p), 0.0)
        if prof.any():
            tests[p].append(len(fam))
            fam.append(prof)
    images = sub @ np.column_stack(fam)
    lowers = []
    for p in p_list:
        lower = 0.0
        for i in tests[p]:
            nf = lp_norm(q, fam[i], p)
            if nf > 0:
                lower = max(lower, lp_norm(q, images[:, i], p) / nf)
        lowers.append(lower)
    return lowers


def _aligned_profile(r, p: float):
    """The profile aligned with the witness right factor: for the operator
    with right factor b = ilg(1/r)/r, the L^p-norming input is b^{p'-1}."""
    pp = p / (p - 1.0)
    b = np.where(r > 1.0, 1.0 / (np.log(np.maximum(r, 1.0 + 1e-9)) * r), 0.0)
    return b ** (pp - 1.0)


# ---------------------------------------------------------------------------
# the unboundedness witness


def witness_f(t):
    """f(t) = ilg(t)/(1 + ilg(t)) for t < 1, 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    out = np.ones_like(t)
    small = t < 1.0
    il = np.where(small & (t > 0), 1.0 / np.log(1.0 / np.where(small, t, 0.5)),
                  0.0)
    out[small] = il[small] / (1.0 + il[small])
    return out


def ilg_chain_inequality(samples: int = 10000, seed: int = 11) -> dict:
    """ilg k >= f(k r') ilg(1/r') whenever k r' < 1 and r' >= e.

    From 1/ilg k = 1/ilg(k r') + 1/ilg(1/r') the bound needs
    ilg(1/r') <= 1, which is exactly r' >= e (large radius regime)."""
    rng = np.random.default_rng(seed)
    rp = np.exp(rng.uniform(1.0, np.log(1e6), samples))
    k = np.exp(rng.uniform(np.log(1e-12), 0.0, samples)) / rp  # k r' < 1
    lhs = ilg_clipped(k)
    rhs = witness_f(k * rp) * ilg_clipped(1.0 / rp)
    ok = lhs >= rhs * (1 - 1e-12)
    return {"violations": int((~ok).sum()), "samples": samples}


def ilg_clipped(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = (x > 0) & (x < 1)
    out[pos] = 1.0 / np.log(1.0 / x[pos])
    return out


@dataclass
class UnboundednessWitness:
    model: ModelManifold
    beta: float
    k0: float
    tau: np.ndarray
    kernel: np.ndarray          # witness kernel on (supp tau) x (minus grid)
    rows: np.ndarray            # grid indices of supp tau
    cols: np.ndarray            # grid indices of the right factor support
    entrywise_nonneg: bool
    lower_constant: float
    diff_exponent: float
    growth: dict = field(default_factory=dict)


def unboundedness_witness(model: ModelManifold, key_approx, p_list=(3.0, 4.0),
                          k0: float = math.exp(-10.0), n_sigma: int = 33,
                          sigma_max: float = 44.0,
                          r_maxes=None) -> UnboundednessWitness:
    """Assemble the two-dimensional-end witness

        T(z, z') = tau(z) int_0^{k0} d_r(phi + u)(z, k)
                                     R_-(z^o, z') phi_-(z') dk.

    The split point k0 sits inside the asymptotic regime (the inverse-log
    stage cascade of the model has ratio beta_2/beta ~ -8, so the leading
    K_0 mechanism rules for ilg k <~ 0.1); there d_r(phi + u) > 0 on
    supp tau and T is entrywise nonnegative, bounded below by
    C (tau(z)/r) ilg(1/r')/r' once r' >~ 1/k0.  Norm lower bounds of the
    truncated kernel then grow like R^{(2-p')/p'} / log R for p > 2
    (fitted with the log factor removed).
    """
    ka = key_approx
    beta = ka.stages[0].beta
    if beta <= 0:
        raise DomainError("unboundedness witness needs beta > 0")
    za, zb = model.radii.zeta
    tau = Bump(-zb, -zb + 1.0, -za - 1.0, -za)(model.s)
    rows = np.where(tau > 0)[0]
    pa = model.radii.phi[0]
    cols = np.where(model.mask_minus & (model.r >= pa))[0]
    end = model.minus
    r0b = model.basepoint_minus
    rr = model.r[rows]
    rc = model.r[cols]
    phi_vals = minus_cutoff(model)(model.s[cols])
    st = ka.stages[0]
    sig, w = cc_segment(math.log(1.0 / k0), sigma_max, n_sigma)
    # the k-sum of rank-one kernels as one (rows x K) @ (K x cols) product
    left = np.empty((len(rows), len(sig)))
    right = np.empty((len(sig), len(cols)))
    positive = True
    for i, (s_i, w_i) in enumerate(zip(sig, w)):
        k = math.exp(-s_i)
        _, du = ka.u(k)
        dr_u = -(du + st.phi.dvalues)[rows]   # d_r = -d/ds on the minus end
        if np.any(dr_u <= 0):
            positive = False
        left[:, i] = dr_u
        right[i] = w_i * k * pk.reduced_kernel(end, k, r0b, rc) * phi_vals
    kern = left @ right
    # lower-bound constant against (tau/r) ilg(1/r')/r' in the saturated
    # window r' >= 5/k0
    shape = np.outer(tau[rows] / rr, ilg_clipped(1.0 / rc) / rc)
    keep = tau[rows] > 0.5
    win = rc >= 5.0 / k0
    if win.sum() >= 3:
        ratio = kern[keep][:, win] / np.maximum(shape[keep][:, win], 1e-300)
        cmin = float(np.min(ratio))
    else:
        cmin = math.nan
    # basepoint-freezing error: int |R(z,.) - R(z^o,.)| dk = O(r'^{-2})
    sig2, w2 = cc_segment(math.log(1.0 / k0), sigma_max, 13)
    mid = float(np.median(rr))
    dint = np.zeros(len(rc))
    for s_i, w_i in zip(sig2, w2):
        k = math.exp(-s_i)
        dint += w_i * k * np.abs(pk.reduced_kernel(end, k, mid, rc)
                                 - pk.reduced_kernel(end, k, r0b, rc))
    sel = rc > 2.0 / k0
    diff_exp = loglog_slope(rc[sel], np.maximum(dint[sel], 1e-300)) \
        if sel.sum() >= 3 else math.nan
    wit = UnboundednessWitness(model, beta, k0, tau, kern, rows, cols,
                               positive and bool(np.all(kern >= 0)),
                               cmin, diff_exp)
    if r_maxes is None:
        top = model.config.S_minus
        r_maxes = tuple(top / 2.0 ** j for j in (7.0, 5.25, 3.5, 1.75, 0.0))
    q = model.weights
    for p in p_list:
        pp = p / (p - 1.0)
        norms = []
        for rmax in r_maxes:
            sel_c = rc <= rmax
            b = ilg_clipped(1.0 / rc[sel_c]) / rc[sel_c]
            f = b ** (pp - 1.0)
            qs = q[cols][sel_c]
            g = kern[:, sel_c] @ (qs * f)
            norms.append(lp_norm(q[rows], g, p) / lp_norm(qs, f, p))
        corrected = np.array(norms) * np.log(np.array(r_maxes))
        slope = loglog_slope(np.array(r_maxes, dtype=float), corrected)
        wit.growth[p] = {"norms": norms, "r_maxes": tuple(r_maxes),
                         "fitted_exponent": slope,
                         "expected": (2.0 - pp) / pp}
    return wit
