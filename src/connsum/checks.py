"""Measurements of the invariants that both the command line and the
acceptance suite check.

Each function returns the measured quantity only.  The caller chooses
the samples it measures on and the bound it compares against, so the
command line keeps its light default sets and the acceptance suite its
pinned ones.
"""

from __future__ import annotations

from dataclasses import fields, replace

import numpy as np
from scipy.linalg import solve_banded

from . import bvp
from . import specfun as sf
from .model import ModelManifold, build_model, radial_laplacian


def bessel_vs_quadrature(orders, xs) -> float:
    """Worst relative error of bessel_K against the quadrature oracle over
    the grid orders x xs."""
    worst = 0.0
    for nu in orders:
        for x in xs:
            ref = sf.bessel_K_quadrature(float(nu), float(x))
            worst = max(worst, abs(sf.bessel_K(float(nu), float(x)) - ref)
                        / ref)
    return worst


def exponential_comparison_violations(nu: float, x, y) -> int:
    """Number of pairs x < y with K_nu(y) > e^{x-y} K_nu(x) (1 + 1e-12)."""
    lhs = sf.bessel_K(nu, y)
    rhs = np.exp(x - y) * sf.bessel_K(nu, x)
    return int(np.sum(lhs > rhs * (1 + 1e-12)))


def derivative_bound_violations(m: int, x) -> int:
    """Number of points with |x K_m'(x)| > (m + x) K_m(x) (1 + 1e-12)."""
    lhs = np.abs(x * np.array([sf.bessel_K_prime(m, float(t)) for t in x]))
    rhs = (m + x) * sf.bessel_K(float(m), x)
    return int(np.sum(lhs > rhs * (1 + 1e-12)))


def homogeneous_norm(model: ModelManifold) -> float:
    """Norm of the neck problem's solution for zero boundary data; zero
    when that solution is unique."""
    prob = bvp.NeckProblem(model)
    return float(np.linalg.norm(prob.solve(np.zeros(len(prob.idx)))))


def log_harmonic_remainder(model: ModelManifold, U: bvp.LogHarmonic):
    """(r, |U - log r - c_1|) on the far minus end s < -6."""
    far = model.s < -6.0
    return model.r[far], np.abs(U.values[far] - np.log(model.r[far]) - U.c1)


def beta_refinement(model: ModelManifold, system: bvp.GluedSystem):
    """(beta, shift): the limit constant beta of the neck bump
    exp(-2 s^2) and its change when every grid field doubles (beta reads
    the neck grid, which pts_per_decade alone leaves unchanged)."""
    beta = bvp.solve_laplace(model, np.exp(-2.0 * model.s ** 2),
                             system=system).beta
    g = model.config.grid
    fine = build_model(replace(model.config, grid=replace(
        g, **{f.name: 2 * getattr(g, f.name) for f in fields(g)})))
    beta_fine = bvp.solve_laplace(fine, np.exp(-2.0 * fine.s ** 2)).beta
    return beta, abs(beta - beta_fine)


def c1_vs_beta_log_harmonic(c1, beta: float, U) -> float:
    """sup |c1 - beta U| / sup |U| for the first inverse-log coefficient
    c1 and the log-growing harmonic function U on the same points."""
    return float(np.max(np.abs(c1 - beta * U)) / np.max(np.abs(U)))


def c0_vs_zero_energy_solve(c0, solution) -> float:
    """sup |c0 - u| / sup |u| for the leading coefficient c0 and the
    zero-energy solution u on the same points."""
    return float(np.max(np.abs(c0 - solution)) / np.max(np.abs(solution)))


def identity_residuals(par, k: float):
    """(identity, sk_identity) at energy k, in the plain discrete kernel
    algebra where composition is matrix multiplication with the
    quadrature weights: sup |(Id + E)(Id + S) - Id| for the S solving it,
    and the weighted Hilbert-Schmidt norm of S - K relative to that of S,
    with K = -E + E E + E S E.  S is solved on the equilibrated matrix
    D (Id + E q) D^-1 of parametrix.weighted_operator, with the scaling
    D = diag(sqrt(q) / w) of parametrix.equilibration that
    parametrix.invert_error also equilibrates its (kink-corrected)
    system with: unscaled, Id + E q has cond 2e12 on ends of length
    80000."""
    from .parametrix import equilibration, hs_norm, weighted_operator

    model = par.model
    err = par.error(k)
    q = model.weights
    diag = np.diag_indices(model.n)
    # E in the array of its first term, and each product freed once read
    e_total = err.take_total()
    scale = equilibration(model, err.weight)
    S0 = np.linalg.solve(weighted_operator(model, e_total.copy(), err.weight),
                         e_total * -scale[:, None])
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
    res_sk = hs_norm(model, S0 - rhs_sk) / max(hs_norm(model, S0), 1e-300)
    return res_id, res_sk


# order of the finite-difference radiation oracle; its (ORACLE_ORDER + 1)-
# point stencils, kept inside the grid, reach ORACLE_ORDER nodes to a side
ORACLE_ORDER = 6


def radiation_oracle_error(model: ModelManifold, k: float, v,
                           Rv) -> float:
    """Relative sup error on |s| < 30 of the parametrix resolvent
    Rv = R(k) v against the finite-difference radiation oracle of order
    ORACLE_ORDER, solved on its bands.  The caller computes Rv, so the
    resolvent can be applied with a factorization it already holds."""
    ab = radial_laplacian(model, k=k, order=ORACLE_ORDER)
    rhs = v.copy()
    rhs[0] = rhs[-1] = 0.0
    u_fd = solve_banded((ORACLE_ORDER, ORACLE_ORDER), ab, rhs)
    mask = np.abs(model.s) < 30
    return float(np.max(np.abs((Rv - u_fd)[mask]))
                 / np.max(np.abs(u_fd[mask])))
