"""Riesz transform experiments on the glued model.

The transform nabla Delta^{-1/2} = (2/pi) int_0^oo nabla (Delta+k^2)^{-1} dk
splits at k_0 into a low-energy part and a high-energy part, the spectral
multiplier  xi -> (2/(pi xi)) arctan(xi/k_0)  of the radial operator.
This module assembles the low-energy part as an explicit two-variable
kernel, by quadrature of the resolvent gradient in k.  The high-energy
part has the uniform L^2 bound sup_xi |xi F_>(xi)| = 1 on every channel;
no subcommand reports it yet, and its finite-volume eigen-multiplier and
the Euclidean split check live with their tests (tests/test_riesz.py).

The k-quadrature of Green kernel gradients is semiseparable: each term is
rank one on either side of the diagonal, so the kernel on densities is
kept in generator form (bvp.GreenSumOperator) next to its dense values.
Every norm bound comes from lp_estimator.  The Boyd iteration and the
p = 2 bidiagonalization multiply through that operator at O(n K) per
column (K quadrature nodes) instead of O(n^2); the dense values serve
the Schur masses, whose |values| a report takes once, and the bound on
the k-quadrature error.  Only the fine rule's sum is stored: the
embedded coarse rule's difference from it is reduced to its largest
absolute entry while it is summed.  The p = 2 bidiagonalization runs
its stop test every lp_estimator.GKL_CHECK_EVERY steps.

The low-energy kernel drives the boundedness experiments (norm estimates
stabilizing in the truncation radius for 1 < p <= 2) and the
unboundedness witness: on the two-dimensional end the kernel dominates a
rank-one kernel  tau(z)/r * ilg(1/r')/r',  whose L^p -> L^p norm grows
like a positive power of the truncation radius once p > 2, because
ilg(1/r')/r' just fails to lie in L^{p'}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import keylemma as kl, product_kernels as pk
from .bvp import GluedSystem, GreenSumOperator, green_kernel_sums
from .cutoffs import Bump, minus_cutoff, minus_cutoff_source
from .errors import DomainError, NonConvergenceError
from .fits import classify_trend, loglog_slope
from .lp_estimator import (boyd_lower_bound, lp_norm, schur_upper_bound,
                           spectral_norms)
from .model import GeometryConfig, ModelManifold, build_model
from .quadrature import cc_segment
from .specfun import ilg


@dataclass
class DiscretizedKernel:
    """Two-variable kernel on grid x grid, and the operator that applies
    it to densities: the kernel composed with the grid quadrature and the
    kink diagonal of its value jump, in generator form."""
    model: ModelManifold
    values: np.ndarray
    operator: GreenSumOperator
    jump_step: np.ndarray                 # diagonal value jump (d/ds kernel)
    quad_error: float                     # max per-entry k-quadrature error

    def quad_error_bound(self) -> float:
        """The largest accepted quad_error: 1e-3 of the largest entry."""
        # max |values| without an n x n temporary of |values|
        return 1e-3 * float(max(self.values.max(), -self.values.min()))


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
    in generator form (bvp.green_kernel_sums), the coarse one as its
    difference from the fine one; only the fine sum is stored, and the
    difference is reduced block by block to its largest absolute entry,
    quad_error.  The kernel's operator on densities
    (bvp.GreenSumOperator) keeps the fine rule's generator arrays, not
    the systems.
    """
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
    vals, quad_error = green_kernel_sums(
        systems, [fine, fine - coarse], dleft=True, stored=1)
    op = GreenSumOperator(systems, fine, vals, model.weights,
                          model.kink_diagonal(0.0, jump), dleft=True)
    kern = DiscretizedKernel(model, vals, op, jump, quad_error)
    if kern.quad_error > kern.quad_error_bound():
        raise NonConvergenceError(
            f"k-quadrature unconverged: per-entry error "
            f"{kern.quad_error:g} against bound "
            f"{kern.quad_error_bound():g}")
    return kern


# ---------------------------------------------------------------------------
# L^p machinery on the model grid


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

    Every bound comes from lp_estimator.  For p != 2 the lower bound is
    Boyd's power iteration and the upper bound Schur interpolation
    (schur_upper_bound); p = 2 uses the weighted spectral norm for both,
    every R_max in one lockstep bidiagonalization (spectral_norms).

    Every (R_max, p != 2) cell is one column of a single lockstep Boyd
    iteration (boyd_lower_bound with a support mask) on the whole
    kernel, so each of its steps is two products with one column per
    cell.  Those products and the bidiagonalization's go through the
    kernel's operator (bvp.GreenSumOperator), at O(n K) per column; no
    composed n x n matrix is formed.  The Schur masses do not depend on
    p, so they are computed once per R_max, from a view of |values|
    that is taken once per report.  A cell whose iteration overflows has
    lower bound +inf, and its trend is divergent.
    """
    model = kern.model
    q = model.weights
    op = kern.operator
    cuts = {rmax: _truncation(model, rmax) for rmax in r_maxes}
    p_boyd = [p for p in p_list if p != 2.0]
    boyd_cells = [(p, rmax) for rmax in r_maxes for p in p_boyd]
    support = np.zeros((model.n, len(boyd_cells)), dtype=bool)
    for j, (_, rmax) in enumerate(boyd_cells):
        support[cuts[rmax], j] = True
    boyd = dict(zip(boyd_cells, boyd_lower_bound(
        op, q, q, [p for p, _ in boyd_cells], 50, support)))
    cells: dict[tuple[float, float], TrendRow] = {}
    if p_boyd:
        mags = np.abs(kern.values)
        for rmax in r_maxes:
            cut = cuts[rmax]
            uppers = schur_upper_bound(kern.values[cut, cut],
                                       mags[cut, cut], q[cut],
                                       op.diagonal[cut], p_boyd)
            for p, upper in zip(p_boyd, uppers):
                cells[p, rmax] = TrendRow(p, rmax, float(boyd[p, rmax]),
                                          float(upper))
    if 2.0 in p_list:
        # the signed spectral norm: at p = 2 the absolute kernel sits on
        # the boundary of the power-weight lemmas, and boundedness rides
        # on the multiplier route (signs matter)
        uppers = spectral_norms(op, np.sqrt(q), [cuts[r] for r in r_maxes])
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


def _aligned_profile(r, p: float):
    """The profile aligned with the witness right factor: for the operator
    with right factor b = ilg(1/r)/r, the L^p-norming input is b^{p'-1}."""
    pp = p / (p - 1.0)
    b = np.where(r > 1.0, ilg(1.0 / np.maximum(r, 1.0 + 1e-9)) / r, 0.0)
    return b ** (pp - 1.0)


# ---------------------------------------------------------------------------
# the unboundedness witness


def witness_f(t):
    """f(t) = ilg(t)/(1 + ilg(t)) for t < 1, 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    il = ilg(np.where(t < 1.0, t, 0.0))
    return np.where(t < 1.0, il / (1.0 + il), 1.0)


# random (k, r') pairs on which ilg_chain_inequality checks the bound
CHAIN_SAMPLES = 10000


def ilg_chain_inequality() -> dict:
    """ilg k >= f(k r') ilg(1/r') whenever k r' < 1 and r' >= e, on
    CHAIN_SAMPLES random pairs.

    From 1/ilg k = 1/ilg(k r') + 1/ilg(1/r') the bound needs
    ilg(1/r') <= 1, which is exactly r' >= e (large radius regime)."""
    rng = np.random.default_rng(11)
    rp = np.exp(rng.uniform(1.0, np.log(1e6), CHAIN_SAMPLES))
    # k r' < 1
    k = np.exp(rng.uniform(np.log(1e-12), 0.0, CHAIN_SAMPLES)) / rp
    lhs = ilg(k)
    rhs = witness_f(k * rp) * ilg(1.0 / rp)
    ok = lhs >= rhs * (1 - 1e-12)
    return {"violations": int((~ok).sum()), "samples": CHAIN_SAMPLES}


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
    growth: dict = field(default_factory=dict)


# Clenshaw-Curtis nodes and upper sigma = log(1/k) end of the witness
# k-integral
WITNESS_N_SIGMA = 33
WITNESS_SIGMA_MAX = 44.0
# the witness geometry's domain lengths, the order of its key
# approximation, and its split point k0
WITNESS_S_MINUS = 2.0 ** 24
WITNESS_S_PLUS = 64.0
WITNESS_Q = 3
WITNESS_K0 = math.exp(-9.5)


def unboundedness_witness(config: GeometryConfig,
                          p_list=(3.0, 4.0)) -> UnboundednessWitness:
    """Assemble the two-dimensional-end witness on the geometry config
    with S_minus = WITNESS_S_MINUS and S_plus = WITNESS_S_PLUS,

        T(z, z') = tau(z) int_0^{k0} d_r(phi + u)(z, k)
                                     R_-(z^o, z') phi_-(z') dk,

    with u the order-WITNESS_Q key approximation for the source
    v = -Delta phi_- and k0 = WITNESS_K0.  For that source the first
    stage's solution is phi_- itself, so beta = 1 on every geometry.

    The split point k0 sits inside the asymptotic regime (the inverse-log
    stage cascade of the model has ratio beta_2/beta ~ -8, so the leading
    K_0 mechanism rules for ilg k <~ 0.1); there d_r(phi + u) > 0 on
    supp tau and T is entrywise nonnegative, bounded below by
    C (tau(z)/r) ilg(1/r')/r' once r' >~ 1/k0.  Norm lower bounds of the
    truncated kernel then grow like R^{(2-p')/p'} / log R for p > 2
    (fitted with the log factor removed).
    """
    model = build_model(replace(config, S_minus=WITNESS_S_MINUS,
                                S_plus=WITNESS_S_PLUS))
    ka = kl.build_key_approximation(model, minus_cutoff_source(model),
                                    q=WITNESS_Q)
    k0 = WITNESS_K0
    za, zb = model.radii.zeta
    tau = Bump(-zb, -zb + 1.0, -za - 1.0, -za)(model.s)
    rows = np.where(tau > 0)[0]
    pa = model.radii.phi[0]
    cols = np.where(model.mask_minus & (model.r >= pa))[0]
    rr = model.r[rows]
    rc = model.r[cols]
    phi_vals = minus_cutoff(model)(model.s[cols])
    sig, w = cc_segment(math.log(1.0 / k0), WITNESS_SIGMA_MAX,
                        WITNESS_N_SIGMA)
    # the k-sum of rank-one kernels as one (rows x K) @ (K x cols) product
    left = np.empty((len(rows), len(sig)))
    right = np.empty((len(sig), len(cols)))
    positive = True
    for i, (s_i, w_i) in enumerate(zip(sig, w)):
        k = math.exp(-s_i)
        dr_u = ka.radial_gradient(k)[rows]
        if np.any(dr_u <= 0):
            positive = False
        left[:, i] = dr_u
        right[i] = w_i * k * pk.reduced_kernel(
            model.minus, k, model.radii.basepoint, rc) * phi_vals
    kern = left @ right
    # lower-bound constant against (tau/r) ilg(1/r')/r' in the saturated
    # window r' >= 5/k0
    shape = np.outer(tau[rows] / rr, ilg(1.0 / rc) / rc)
    keep = tau[rows] > 0.5
    win = rc >= 5.0 / k0
    if win.sum() >= 3:
        ratio = kern[keep][:, win] / np.maximum(shape[keep][:, win], 1e-300)
        cmin = float(np.min(ratio))
    else:
        cmin = math.nan
    wit = UnboundednessWitness(model, ka.stages[0].beta, k0, tau, kern,
                               rows, cols,
                               positive and bool(np.all(kern >= 0)),
                               cmin)
    top = model.config.S_minus
    r_maxes = tuple(top / 2.0 ** j for j in (7.0, 5.25, 3.5, 1.75, 0.0))
    q = model.weights
    for p in p_list:
        pp = p / (p - 1.0)
        norms = []
        for rmax in r_maxes:
            sel_c = rc <= rmax
            f = _aligned_profile(rc[sel_c], p)
            qs = q[cols][sel_c]
            g = kern[:, sel_c] @ (qs * f)
            norms.append(lp_norm(q[rows], g, p) / lp_norm(qs, f, p))
        corrected = np.array(norms) * np.log(np.array(r_maxes))
        slope = loglog_slope(np.array(r_maxes, dtype=float), corrected)
        wit.growth[p] = {"norms": norms, "r_maxes": tuple(r_maxes),
                         "fitted_exponent": slope,
                         "expected": (2.0 - pp) / pp}
    return wit
