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
from scipy.linalg import blas, lapack, solve_banded

from . import bvp
from . import specfun as sf
from .model import ModelManifold, build_model, radial_laplacian


def bessel_vs_quadrature(orders, xs) -> float:
    """Worst relative error of bessel_K against the quadrature oracle over
    the grid orders x xs, the oracle in one array call."""
    orders = np.asarray(orders, dtype=float)
    xs = np.asarray(xs, dtype=float)
    ref = sf.bessel_K_quadrature(orders[:, None], xs[None, :])
    got = np.array([sf.bessel_K(float(nu), xs) for nu in orders])
    return float(np.max(np.abs(got - ref) / ref))


def exponential_comparison_violations(nu: float, x, y) -> int:
    """Number of pairs x < y with K_nu(y) > e^{x-y} K_nu(x) (1 + 1e-12)."""
    lhs = sf.bessel_K(nu, y)
    rhs = np.exp(x - y) * sf.bessel_K(nu, x)
    return int(np.sum(lhs > rhs * (1 + 1e-12)))


def derivative_bound_violations(m: int, x) -> int:
    """Number of points with |x K_m'(x)| > (m + x) K_m(x) (1 + 1e-12)."""
    lhs = np.abs(x * sf.bessel_K_prime(m, x))
    rhs = (m + x) * sf.bessel_K(float(m), x)
    return int(np.sum(lhs > rhs * (1 + 1e-12)))


def homogeneous_norm(model: ModelManifold) -> float:
    """Norm of the neck problem's solution for zero boundary data; zero
    when that solution is unique."""
    prob = bvp.NeckProblem(model)
    return float(np.linalg.norm(prob.solve(np.zeros(len(prob.idx)))))


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


def solve_errors(system: np.ndarray, y: np.ndarray, z: np.ndarray,
                 sigma_min: float) -> tuple[float, float]:
    """(backward, forward) of a computed solution z of A z = y, A the
    matrix `system`: the normwise backward error
    ||A z - y||_inf / (||A||_inf ||z||_inf + ||y||_inf), and the bound
    ||A z - y||_2 / (sigma_min ||z||_2) on the relative forward error
    ||z - A^-1 y||_2 / ||z||_2, with sigma_min the smallest singular
    value of A.  The residual and ||A||_inf run in scipy's BLAS and
    LAPACK on the transposed (Fortran-ordered) view, so neither copies
    A nor depends on numpy's BLAS thread count."""
    residual = blas.dgemv(1.0, system.T, z, beta=-1.0, y=y, trans=1)
    norm_a = lapack.dlange("1", system.T)
    residual_inf = np.max(np.abs(residual))
    backward = residual_inf / (norm_a * np.max(np.abs(z)) + np.max(np.abs(y)))
    forward = np.linalg.norm(residual) / (sigma_min * np.linalg.norm(z))
    return float(backward), float(forward)


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
