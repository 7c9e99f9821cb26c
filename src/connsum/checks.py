"""Measurements of the invariants that both the command line and the
acceptance suite check.

Each function returns the measured quantity only.  The caller chooses
the samples it measures on and the bound it compares against, so the
command line keeps its light default sets and the acceptance suite its
pinned ones.
"""

from __future__ import annotations

from dataclasses import replace

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
    exp(-2 s^2) and its change when the grid density doubles."""
    beta = bvp.solve_laplace(model, np.exp(-2.0 * model.s ** 2),
                             system=system).beta
    cfg = model.config
    fine = build_model(replace(cfg, grid=replace(
        cfg.grid, pts_per_decade=2 * cfg.grid.pts_per_decade)))
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
    with K = -E + E E + E S E."""
    from .parametrix import hs_norm

    model = par.model
    e_total = par.error(k).total
    q = model.weights
    eye = np.eye(model.n)
    A0 = eye + e_total * q[None, :]
    S0 = np.linalg.solve(A0, -e_total)
    res_id = float(np.max(np.abs(A0 @ (eye + S0 * q[None, :]) - eye)))
    rhs_sk = -e_total + (e_total * q[None, :]) @ (
        e_total + (S0 * q[None, :]) @ e_total)
    res_sk = hs_norm(model, S0 - rhs_sk) / max(hs_norm(model, S0), 1e-300)
    return res_id, res_sk


# order of the finite-difference radiation oracle; its (ORACLE_ORDER + 1)-
# point stencils, kept inside the grid, reach ORACLE_ORDER nodes to a side
ORACLE_ORDER = 6


def _band_storage(A: np.ndarray, width: int) -> np.ndarray:
    """The diagonal-ordered band storage ab[width + i - j, j] = A[i, j] of
    a matrix with `width` diagonals on each side, as solve_banded takes
    it."""
    n = A.shape[0]
    ab = np.zeros((2 * width + 1, n))
    for d in range(-width, width + 1):
        ab[width - d, max(d, 0):n + min(d, 0)] = np.diagonal(A, d)
    return ab


def radiation_oracle_error(par, k: float, v) -> float:
    """Relative sup error on |s| < 30 of the parametrix resolvent R(k) v
    against the finite-difference radiation oracle of order
    ORACLE_ORDER, solved on its bands."""
    model = par.model
    Rv = par.resolvent_apply(k, v)
    A = radial_laplacian(model, None, k=k, order=ORACLE_ORDER)
    rhs = v.copy()
    rhs[0] = rhs[-1] = 0.0
    u_fd = solve_banded((ORACLE_ORDER, ORACLE_ORDER),
                        _band_storage(A, ORACLE_ORDER), rhs)
    mask = np.abs(model.s) < 30
    return float(np.max(np.abs((Rv - u_fd)[mask]))
                 / np.max(np.abs(u_fd[mask])))
