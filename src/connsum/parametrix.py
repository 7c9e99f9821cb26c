"""Low-energy parametrix and exact resolvent on the glued model.

The pre-parametrix is G1 + G2 + G3:

* G1: the product-end resolvents, cut off by phi_- phi_- and phi_+ phi_+;
* G2: an interior parametrix, realized as the glued Green kernel frozen
  at a reference energy kbar and localized by zeta(z) zeta(z'), times
  1 - phi_-(z) phi_-(z') - phi_+(z) phi_+(z');
* G3: the key-lemma approximate solutions u_{+-}(z, k) tensored with the
  product resolvent columns at frozen basepoints.

Applying (Delta + k^2) row-wise and collecting the product-rule terms
gives the error kernel E(k) in closed form: every term is an explicit
combination of cutoff derivatives, Bessel kernels, the frozen Green
kernel and the key-lemma residuals, so no numerical differentiation
enters and the left support is exactly compact.  The error splits as
E'(k) (cutoff commutators, O(1) at k = 0) plus E''(k) (key-lemma
residual terms, vanishing at k = 0).

On the weighted space L^2_w, w = 1 on the neck, r^{-1} on the plus end
and (r log r)^{-1} on the minus end, E(k) is Hilbert-Schmidt uniformly
down to k = 0.  A finite-rank correction G4 repairs any null space of
Id + E(0); inverting Id + E(k) = (Id + S(k))^{-1} yields the resolvent

    R(k) = G(k)(Id + S(k)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.sparse.linalg import LinearOperator, svds

from . import product_kernels as pk
from .bvp import GluedSystem
from .cutoffs import Bump, CutoffField, Step, minus_cutoff, on_grid
from .errors import SingularSystemError
from .keylemma import KeyApproximation
from .model import ModelManifold
from .specfun import ilg


def weight_w(model: ModelManifold) -> np.ndarray:
    """The Hilbert-Schmidt weight: 1 on the neck, r^{-1} on the plus end,
    (r log r)^{-1} on the minus end."""
    r = model.r
    out = np.ones(model.n)
    out[model.mask_plus] = 1.0 / r[model.mask_plus]
    mi = model.mask_minus
    out[mi] = 1.0 / (r[mi] * np.log(r[mi]))
    return out


def hs_norm(model: ModelManifold, kernel: np.ndarray,
            w: np.ndarray | None = None) -> float:
    """Hilbert-Schmidt norm of a kernel on L^2_w: the L^2(dV) norm of
    w(z)^{-1} K(z, z') w(z')."""
    if w is None:
        w = weight_w(model)
    q = model.weights
    row = q / w ** 2
    col = q * w ** 2
    return math.sqrt(float(np.einsum("i,ij,j->", row, kernel ** 2, col)))


def _transition_rows(cutoff: CutoffField) -> np.ndarray:
    """Grid rows where a cutoff is not locally constant."""
    return np.where((np.abs(cutoff.d1) > 0) | (np.abs(cutoff.lap) > 0))[0]


@dataclass
class LowRank:
    """The kernel sum_i left[:, i] (x) right[i], kept as its factors."""
    left: np.ndarray      # (n, rank)
    right: np.ndarray     # (rank, n)

    def kernel(self) -> np.ndarray:
        return self.left @ self.right

    def apply(self, w: np.ndarray) -> np.ndarray:
        """kernel() @ w without forming the kernel."""
        return self.left @ (self.right @ w)


class ParametrixPieces:
    """All k-independent ingredients of the parametrix."""

    def __init__(self, model: ModelManifold, q: int = 2, kbar: float = 1.0,
                 system: GluedSystem | None = None):
        self.model = model
        self.q = q
        self.kbar = kbar
        self.phi_minus = on_grid(model, minus_cutoff(model))
        self.phi_plus = on_grid(model, Step(*model.radii.phi))
        za, zb = model.radii.zeta
        self.zeta = on_grid(model, Bump(-zb, -za, za, zb))
        self.v_minus = -self.phi_minus.lap
        self.v_plus = -self.phi_plus.lap
        sys0 = system if system is not None else GluedSystem(model, 0.0)
        self.u_minus = KeyApproximation(model, self.v_minus, q=q, system=sys0)
        self.u_plus = KeyApproximation(model, self.v_plus, q=q, system=sys0)
        self.gamma_ref = GluedSystem(model, kbar)
        self.r0_minus = model.basepoint_minus
        self.r0_plus = model.basepoint_plus
        self.weight = weight_w(model)
        self._build_interior()

    def _build_interior(self):
        """G2 = zeta Gamma_kbar zeta times the localizer 1 - phi_- (x) phi_-
        - phi_+ (x) phi_+, and every other k-independent product of the
        frozen kernel: d_s G2, the zeta-commutator rows of E(k) and the
        frozen kernel on its phi-commutator blocks."""
        z = self.zeta
        gamma = self.gamma_ref.kernel_matrix()
        dgamma = self.gamma_ref.kernel_dleft()
        zrows = _transition_rows(z)
        zeta_add = z.lap[zrows, None] * gamma[zrows, :] \
            - 2.0 * z.d1[zrows, None] * dgamma[zrows, :]
        g_int = z.values[:, None] * gamma * z.values[None, :]
        g_int_dleft = z.d1[:, None] * gamma * z.values[None, :] \
            + z.values[:, None] * dgamma * z.values[None, :]
        del gamma, dgamma
        self.commutator_blocks = {}
        for side, phi in (("minus", self.phi_minus), ("plus", self.phi_plus)):
            rows, cols = _transition_rows(phi), np.where(phi.values > 0)[0]
            self.commutator_blocks[side] = (
                rows, cols, g_int[np.ix_(rows, cols)],
                g_int_dleft[np.ix_(rows, cols)])
        phm, php = self.phi_minus, self.phi_plus
        localizer = 1.0 - phm.values[:, None] * phm.values[None, :] \
            - php.values[:, None] * php.values[None, :]
        self.localizer_diag = np.diagonal(localizer).copy()
        self.zeta_rows = (zrows, localizer[zrows, :] * zeta_add
                          * z.values[None, :])
        dlocalizer = -phm.d1[:, None] * phm.values[None, :] \
            - php.d1[:, None] * php.values[None, :]
        g_int_dleft *= localizer
        g_int_dleft += g_int * dlocalizer
        g_int *= localizer
        self.g2 = g_int
        self.g2_dleft = g_int_dleft

    # -- reduced product kernels on the grid ---------------------------------

    def _end_data(self, side: str):
        if side == "minus":
            return self.model.minus, self.phi_minus, self.r0_minus, -1.0
        return self.model.plus, self.phi_plus, self.r0_plus, 1.0

    def product_block(self, side: str, k: float):
        """(idx, block): the phi-localized reduced product resolvent
        R_side^k(z, z') phi(z) phi(z') on its support idx x idx, idx the
        nodes of supp phi."""
        end, phi, _, _ = self._end_data(side)
        idx = np.where(phi.values > 0)[0]
        r = self.model.r[idx]
        block = pk.reduced_kernel(end, k, r[:, None], r[None, :])
        return idx, block * phi.values[idx, None] * phi.values[None, idx]

    def product_kernel(self, side: str, k: float) -> np.ndarray:
        """product_block on grid x grid (zero outside supp phi x supp
        phi)."""
        n = self.model.n
        out = np.zeros((n, n))
        idx, block = self.product_block(side, k)
        out[np.ix_(idx, idx)] = block
        return out

    def basepoint_column(self, side: str, k: float) -> np.ndarray:
        """phi(z') R_side^k(z_side^o, z') on the grid."""
        m = self.model
        end, phi, r0, _ = self._end_data(side)
        out = np.zeros(m.n)
        idx = np.where(phi.values > 0)[0]
        out[idx] = pk.reduced_kernel(end, k, r0, m.r[idx]) * phi.values[idx]
        return out

    # -- parametrix pieces -----------------------------------------------------

    def g1(self, k: float) -> np.ndarray:
        return self.product_kernel("minus", k) + self.product_kernel("plus", k)

    def basepoint_outer(self, k: float, left_minus, left_plus) -> LowRank:
        """left_minus (x) basepoint_column("minus", k) + left_plus (x)
        basepoint_column("plus", k): G3, d_s G3 and E''(k) from the
        key-lemma values, derivatives and residuals."""
        cols = [self.basepoint_column(side, k) for side in ("minus", "plus")]
        return LowRank(np.stack((left_minus, left_plus), axis=1),
                       np.stack(cols))

    def g3(self, k: float) -> LowRank:
        um, _ = self.u_minus.u(k)
        up, _ = self.u_plus.u(k)
        return self.basepoint_outer(k, um, up)

    def g_tilde(self, k: float) -> np.ndarray:
        return self.g1(k) + self.g2 + self.g3(k).kernel()

    def g_tilde_dleft(self, k: float) -> np.ndarray:
        """d/ds in the left variable of the pre-parametrix kernel."""
        m = self.model
        out = np.zeros((m.n, m.n))
        for side in ("minus", "plus"):
            end, phi, _, orient = self._end_data(side)
            idx = np.where(phi.values > 0)[0]
            r = m.r[idx]
            block = pk.reduced_kernel(end, k, r[:, None], r[None, :])
            dblock = pk.reduced_kernel_dleft(end, k, r[:, None], r[None, :])
            out[np.ix_(idx, idx)] += (orient * dblock * phi.values[idx, None]
                                      + block * phi.d1[idx, None]) \
                * phi.values[None, idx]
        out += self.g2_dleft
        _, dum = self.u_minus.u(k)
        _, dup = self.u_plus.u(k)
        out += self.basepoint_outer(k, dum, dup).kernel()
        return out


@dataclass
class ErrorOperator:
    """The error (Delta + k^2) G(k) - Id in closed form.

    jump_ramp / jump_step record the diagonal slope and value jumps of the
    kernel (same in both variables up to the sign flip of the value jump),
    consumed by kink-corrected compositions.
    """
    model: ModelManifold
    k: float
    e1: np.ndarray        # cutoff-commutator part (E' plus G4 action)
    e2: np.ndarray        # key-lemma residual part E''
    weight: np.ndarray
    jump_ramp: np.ndarray
    jump_step: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.e1 + self.e2

    def take_total(self) -> np.ndarray:
        """total summed into the array of e1, the same bits without a new
        n x n array, for a caller that owns this operator and overwrites
        the result; e1 and e2 are released."""
        out = self.e1
        out += self.e2
        self.e1 = self.e2 = None
        return out

    def hs_e2(self) -> float:
        return hs_norm(self.model, self.e2, self.weight)


def error_kernel(pieces: ParametrixPieces, k: float) -> ErrorOperator:
    """E(k) = (Delta + k^2) G~(k) - Id, assembled analytically."""
    m = pieces.model
    n = m.n
    e1 = np.zeros((n, n))
    for side in ("minus", "plus"):
        end, phi, r0, orient = pieces._end_data(side)
        rows, cols, g_int, g_int_dleft = pieces.commutator_blocks[side]
        if len(rows) == 0:
            continue
        rr = m.r[rows]
        rc = m.r[cols]
        if k > 0:
            kern = pk.reduced_kernel(end, k, rr[:, None], rc[None, :])
            base = pk.reduced_kernel(end, k, r0, rc)
            diff = kern - base[None, :]
            dkern_r = pk.reduced_kernel_dleft(end, k, rr[:, None], rc[None, :])
        else:
            diff = pk.reduced_kernel_k0_diff(end, rr[:, None], rc[None, :],
                                             r0, rc[None, :])
            dkern_r = _dleft_zero_energy(end, rr[:, None], rc[None, :])
        ds_kern = orient * dkern_r
        block = phi.lap[rows, None] * (diff - g_int) \
            - 2.0 * phi.d1[rows, None] * (ds_kern - g_int_dleft)
        e1[np.ix_(rows, cols)] += block * phi.values[None, cols]
    # zeta-commutator terms and the frozen-energy defect
    zrows, zeta_rows = pieces.zeta_rows
    e1[zrows, :] += zeta_rows
    e1 += (k * k - pieces.kbar ** 2) * pieces.g2
    # key-lemma residual terms
    e2 = np.zeros((n, n)) if k <= 0 else pieces.basepoint_outer(
        k, pieces.u_minus.residual(k), pieces.u_plus.residual(k)).kernel()
    # diagonal jumps: every Green-type factor has slope jump -1/v and its
    # left derivative a value jump 1/v at the diagonal
    v = m.v
    z = pieces.zeta.values
    phm, php = pieces.phi_minus.values, pieces.phi_plus.values
    m_diag = pieces.localizer_diag
    lap_sum = pieces.phi_minus.lap * phm + pieces.phi_plus.lap * php
    d1_sum = pieces.phi_minus.d1 * phm + pieces.phi_plus.d1 * php
    jump_ramp = (-lap_sum * (1.0 - z ** 2) - m_diag * z * pieces.zeta.lap
                 - (k * k - pieces.kbar ** 2) * z ** 2 * m_diag) / v
    jump_step = (-2.0 * d1_sum * (1.0 - z ** 2)
                 - 2.0 * pieces.zeta.d1 * z * m_diag) / v
    return ErrorOperator(m, k, e1, e2, pieces.weight, jump_ramp, jump_step)


def _dleft_zero_energy(end, r, rp):
    """k -> 0 limit of reduced_kernel_dleft: -r^{1-n}/c for r > r', 0 below."""
    n = end.euclidean_dim
    r = np.asarray(r, dtype=float)
    rp = np.asarray(rp, dtype=float)
    out = np.where(r > rp, -r ** (1.0 - n) / end.weight_constant, 0.0)
    return out


# ---------------------------------------------------------------------------
# finite-rank correction


@dataclass
class FiniteRankFix:
    """Null-space repair of Id + E(0): G4 = sum_i psi_i (x) phi_i with
    neck bumps psi_i (sampled with their analytic derivatives) and null
    vectors phi_i."""
    rank: int
    phis: list[np.ndarray] = field(default_factory=list)   # null vectors
    bumps: list[CutoffField] = field(default_factory=list)
    threshold: float = 0.0
    sigma_before: float = 0.0
    sigma_after: float = 0.0

    def g4(self, dleft: bool = False) -> LowRank:
        """G4, or with dleft its left derivative."""
        return self._outer([b.d1 if dleft else b.values for b in self.bumps])

    def g4_error(self, k: float) -> np.ndarray:
        """(Delta + k^2) G4 as a kernel."""
        return self._outer([b.lap + k * k * b.values
                            for b in self.bumps]).kernel()

    def _outer(self, lefts) -> LowRank:
        """sum_i lefts[i] (x) phi_i."""
        return LowRank(np.stack(lefts, axis=1), np.stack(self.phis))


def _weigh(model: ModelManifold, kernel: np.ndarray,
           w: np.ndarray) -> np.ndarray:
    """D kernel q D^-1, D = diag(sqrt(q) / w), written into kernel's own
    array."""
    q = model.weights
    scale = np.sqrt(q) / w
    kernel *= q[None, :]
    kernel *= scale[:, None]
    kernel /= scale[None, :]
    return kernel


def _weighted_operator(model: ModelManifold, kernel: np.ndarray,
                       w: np.ndarray) -> np.ndarray:
    """Matrix of Id + kernel on L^2_w in an orthonormal discrete basis,
    D (Id + kernel q) D^-1, written into kernel's own array."""
    out = _weigh(model, kernel, w)
    out[np.diag_indices(model.n)] += 1.0
    return out


def _bump_dictionary(model: ModelManifold):
    """Smooth compactly supported neck bumps with analytic Laplacians."""
    R = model.R
    spans = [(-R, -R / 2, R / 2, R), (-R, -R / 2, 0.0, R / 2),
             (-R / 2, 0.0, R / 2, R), (-R / 2, -R / 4, R / 4, R / 2)]
    return [on_grid(model, Bump(*span)) for span in spans]


# singular values of Id + E(0) below this fraction of its norm are null
NULL_REL_THRESHOLD = 1e-9


def finite_rank_fix(pieces: ParametrixPieces,
                    err0: ErrorOperator | None = None) -> FiniteRankFix:
    """Compute the null space of Id + E(0) on the weighted space and the
    rank-M correction G4 making Id + E(0) invertible.

    With no null vectors (singular values all above the relative
    threshold) the fix is trivial: M = 0 and G4 = 0.  The extreme singular
    values come from Lanczos; the singular vectors, by a full SVD, only
    when there is a null space to repair.  The weighted Id + E(0) is
    written into the array of the E(0) that error_kernel returns.
    """
    model = pieces.model
    if err0 is None:
        e0 = error_kernel(pieces, 0.0).take_total()
    else:
        e0 = err0.total
    w = pieces.weight
    M = _weighted_operator(model, e0, w)
    thresh = NULL_REL_THRESHOLD * spectral_norm(M)
    sigma_min = smallest_singular_value(M)
    if sigma_min >= thresh:
        return FiniteRankFix(rank=0, threshold=thresh,
                             sigma_before=sigma_min, sigma_after=sigma_min)
    U, sig, Vt = np.linalg.svd(M)
    null_dim = int(np.sum(sig < thresh))
    fix = FiniteRankFix(rank=null_dim, threshold=thresh,
                        sigma_before=float(sig[-1]))
    q = model.weights
    scale = np.sqrt(q) / w
    # null vectors back in value coordinates
    null_vecs = [Vt[-(i + 1)] / scale for i in range(null_dim)]
    cokernel = [U[:, -(i + 1)] for i in range(null_dim)]
    fix.phis = null_vecs
    fix.bumps = _select_bumps(model, cokernel, null_dim, scale, q)
    # Id + E(0) + (Delta) G4 on L^2_w, with Id + E(0) from M
    corr = _weigh(model, fix.g4_error(0.0), w)
    corr += M
    fix.sigma_after = smallest_singular_value(corr)
    if fix.sigma_after < 10 * thresh:
        raise SingularSystemError(
            "finite-rank complement construction failed "
            f"(sigma_after={fix.sigma_after:g}, threshold={thresh:g})")
    return fix


def _select_bumps(model, cokernel, null_dim, scale, q):
    cands = _bump_dictionary(model)
    if len(cands) < null_dim:
        raise SingularSystemError("bump dictionary smaller than null space")
    # greedy pick maximizing alignment of Delta psi with the cokernel
    picked = []
    used = set()
    for u in cokernel[:null_dim]:
        best, best_score = None, -1.0
        for j, cand in enumerate(cands):
            if j in used:
                continue
            score = abs(float(np.dot(u, scale * q * cand.lap)))
            if score > best_score:
                best, best_score = j, score
        used.add(best)
        picked.append(cands[best])
    return picked


# ---------------------------------------------------------------------------
# inversion and the resolvent


@dataclass
class InvertedError:
    """S(k) with (Id + E(k))(Id + S(k)) = Id in the kernel algebra.

    jump vectors: the diagonal jumps of S, equal to minus those of E at
    leading order; used by downstream kink-corrected compositions.
    """
    model: ModelManifold
    k: float
    s_kernel: np.ndarray
    jump_ramp: np.ndarray
    jump_step: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        """Corrected composition matrix of S as an operator on densities."""
        return self.model.composition_matrix(self.s_kernel, self.jump_ramp,
                                             self.jump_step)

    def right_compose(self, kernel: np.ndarray,
                      matrix: np.ndarray) -> np.ndarray:
        """X (Id + S) for a kernel X with corrected composition matrix
        `matrix` (X's kinks at y = z); the defect of the left-variable
        kinks of S(., z') at y = z' is added column by column."""
        c_left = self.model.kink_diagonal(self.jump_ramp, -self.jump_step)
        return kernel + matrix @ self.s_kernel + kernel * c_left[None, :]


# The kink-corrected Nystrom system A S = rhs for the kernel S of
# (Id + E)(Id + S) = Id has A = Id + E q + diag(kink), the corrected
# matrix of Id + E (diagonal-jump defects restored), and
# rhs = -E - E diag(c_left), which accounts for the diagonal kinks of the
# unknown S(., z') columns (jumps -J_E).


def _left_kinks(model: ModelManifold, err: ErrorOperator) -> np.ndarray:
    """c_left: the left-variable jumps of S columns, ramp -J1_E and value
    jump -J0_E, whose sign flips across the left variable; their
    composition defect against E enters the system as E diag(c_left)."""
    return model.kink_diagonal(-err.jump_ramp, err.jump_step)


def _nystrom_matrix(model: ModelManifold, e_total: np.ndarray,
                    err: ErrorOperator) -> np.ndarray:
    """A = Id + E q + diag(kink), written into the array e_total of E;
    bitwise the composition matrix of E plus the identity."""
    e_total *= model.weights[None, :]
    diag = np.diag_indices(model.n)
    e_total[diag] += model.kink_diagonal(err.jump_ramp, err.jump_step)
    e_total[diag] += 1.0
    return e_total


def _solve(A: np.ndarray, b: np.ndarray, k: float) -> np.ndarray:
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"Id + E(k) singular at k={k}: {exc}") from exc


def invert_error(model: ModelManifold, err: ErrorOperator) -> InvertedError:
    """Solve (Id + E)(Id + S) = Id with kink-corrected compositions for the
    whole kernel S(k)."""
    e_total = err.total
    rhs = -e_total - e_total * _left_kinks(model, err)[None, :]
    A = _nystrom_matrix(model, e_total, err)
    return InvertedError(model, err.k, _solve(A, rhs, err.k),
                         -err.jump_ramp, -err.jump_step)


def spectral_norm(mat) -> float:
    """Largest singular value of a square matrix or linear operator by
    Lanczos bidiagonalization; the fixed start vector makes reruns
    bitwise equal."""
    return float(svds(mat, k=1, v0=np.ones(mat.shape[0]), tol=0,
                      return_singular_vectors=False)[0])


def smallest_singular_value(M: np.ndarray) -> float:
    """sigma_min(M) = 1 / ||M^{-1}||_2, with the norm of the inverse by
    Lanczos on one LU factorization of M."""
    lu = lu_factor(M)
    if not np.all(np.diag(lu[0])):
        return 0.0      # an exactly zero pivot: M is singular
    inv = LinearOperator(M.shape, dtype=float,
                         matvec=lambda x: lu_solve(lu, x),
                         rmatvec=lambda x: lu_solve(lu, x, trans=1))
    return 1.0 / spectral_norm(inv)


# smallest singular value of Id + E(k) at which choose_k0 accepts k
K0_FLOOR = 1e-6
# ilg_expansion fits R(k) v at k = e^{-2^j}, j in ILG_FIT_J, on
# |s| <= ILG_REGION; ilg_residual_order checks it at the fresh ILG_CHECK_J
ILG_FIT_J = (4, 5, 6, 7, 8)
ILG_REGION = 12.0
ILG_CHECK_J = (5.0, 5.75, 6.5, 7.25, 8.0)


class Parametrix:
    """Assembled parametrix with its finite-rank correction; produces the
    exact resolvent R(k) = G(k)(Id + S(k)) on the grid."""

    def __init__(self, model: ModelManifold, q: int = 2, kbar: float = 1.0,
                 system: GluedSystem | None = None):
        self.model = model
        self.pieces = ParametrixPieces(model, q=q, kbar=kbar, system=system)
        self.fix = finite_rank_fix(self.pieces)

    def error(self, k: float) -> ErrorOperator:
        err = error_kernel(self.pieces, k)
        if self.fix.rank > 0:
            err.e1 += self.fix.g4_error(k)
        return err

    def _g_jumps(self, dleft: bool):
        """(slope, value) diagonal jumps of G: the exact Green slope jump
        -1/v, or for d_s G the value jump +1/v instead."""
        inv_v = 1.0 / self.model.v
        return (0.0, inv_v) if dleft else (-inv_v, 0.0)

    def g_kernel(self, k: float, dleft: bool = False):
        """(kernel, corrected composition matrix) of G(k) = G~(k) + G4, or
        with dleft of its left derivative d_s G~(k) + G4'."""
        if dleft:
            out = self.pieces.g_tilde_dleft(k)
        else:
            out = self.pieces.g_tilde(k)
        if self.fix.rank > 0:
            out += self.fix.g4(dleft).kernel()
        return out, self.model.composition_matrix(out,
                                                  *self._g_jumps(dleft))

    def g_apply(self, k: float, u) -> np.ndarray:
        """g_kernel(k)[1] @ u from the factors of G(k), with neither n x n
        matrix: the phi-localized product block of each end on
        supp phi x supp phi, the k-independent G2, the rank-2 G3 and the
        rank-M G4."""
        m, pieces = self.model, self.pieces
        w = m.weights * u
        out = pieces.g2 @ w
        for side in ("minus", "plus"):
            idx, block = pieces.product_block(side, k)
            out[idx] += block @ w[idx]
        out += pieces.g3(k).apply(w)
        if self.fix.rank > 0:
            out += self.fix.g4().apply(w)
        return out + m.kink_diagonal(*self._g_jumps(False)) * u

    def s_operator(self, k: float) -> InvertedError:
        return invert_error(self.model, self.error(k))

    def s_apply(self, k: float, v) -> np.ndarray:
        """S(k) v, the corrected composition matrix of S applied to one
        density: the Nystrom system of invert_error solved for a single
        right-hand side.  The one n x n matrix is E(k) from error_kernel;
        the right-hand side is rhs @ (q v) as one matrix-vector product,
        and then E's own array is overwritten with A for the solve."""
        v = np.asarray(v, dtype=float)
        m = self.model
        err = self.error(k)
        e_total = err.take_total()
        qv = m.weights * v
        b = -(e_total @ (qv + _left_kinks(m, err) * qv))
        sv = _solve(_nystrom_matrix(m, e_total, err), b, k)
        return sv + m.kink_diagonal(-err.jump_ramp, -err.jump_step) * v

    def resolvent_apply(self, k: float, v) -> np.ndarray:
        """R(k) v = G(k)(v + S(k) v): s_apply, then g_apply, so one
        apply assembles one dense matrix, A(k) in the array of E(k)."""
        v = np.asarray(v, dtype=float)
        return self.g_apply(k, v + self.s_apply(k, v))

    def resolvent_dleft(self, k: float) -> np.ndarray:
        """d/ds in the left variable of the resolvent kernel."""
        return self.s_operator(k).right_compose(*self.g_kernel(k, dleft=True))

    def choose_k0(self, k_list) -> tuple[float, dict]:
        """(k0, {k: sigma_min}): the largest lattice k whose smallest
        singular value of Id + E(k) on the weighted space is above
        K0_FLOOR, and that singular value at every lattice k."""
        w = self.pieces.weight
        sigma_min = {}
        for k in sorted(k_list):
            # D (Id + E q) D^-1, written into the array of E(k)
            M = _weighted_operator(self.model, self.error(k).take_total(), w)
            sigma_min[k] = smallest_singular_value(M)
        above = [k for k, sig in sigma_min.items() if sig > K0_FLOOR]
        if not above:
            raise SingularSystemError("no lattice k keeps Id + E(k) invertible")
        return max(above), sigma_min


@dataclass
class IlgSeries:
    """Fitted inverse-log series of R(k) v on a compact set."""
    ks: list
    mask: np.ndarray
    coefficients: np.ndarray   # (deg+1, n_mask)
    values: np.ndarray


def ilg_expansion(parametrix: Parametrix, v) -> IlgSeries:
    """Fit the inverse-log series of R(k) v on |s| <= ILG_REGION at
    k = e^{-2^j}, j in ILG_FIT_J (a Richardson-style fit: the nodes halve
    ilg k each step).  j <= 8 keeps the scaled Bessel factors inside
    double range."""
    from .fits import fit_ilg_series

    m = parametrix.model
    mask = np.abs(m.s) <= ILG_REGION
    ks = [math.exp(-2.0 ** j) for j in ILG_FIT_J]
    vals = np.array([parametrix.resolvent_apply(k, v)[mask] for k in ks])
    coef = fit_ilg_series(ks, vals, deg=len(ks) - 1)
    return IlgSeries(ks, mask, coef, vals)


def ilg_residual_order(parametrix: Parametrix, v, coef, mask,
                       terms: int) -> dict:
    """Decay order (in ilg k) of R(k) v minus its first `terms` fitted
    series terms, on the fresh nodes k = e^{-2^j}, j in ILG_CHECK_J.

    Successive (log-log) pair slopes approach the order from below, with
    a correction linear in ilg k from the next series coefficient; the
    returned `order` extrapolates the pair slopes to ilg k -> 0.
    """
    from .fits import ilg_powers

    ks = [math.exp(-2.0 ** j) for j in ILG_CHECK_J]
    vals = np.array([parametrix.resolvent_apply(k, v)[mask] for k in ks])
    V = ilg_powers(ks, coef.shape[0] - 1)
    partial = V[:, :terms] @ coef[:terms]
    res = np.max(np.abs(vals - partial), axis=1)
    ils = ilg(np.asarray(ks))
    pair = np.diff(np.log(res)) / np.diff(np.log(ils))
    mids = np.sqrt(ils[1:] * ils[:-1])
    order = float(np.polyfit(mids, pair, 1)[1])
    return {"pair_slopes": pair, "order": order, "residuals": res}
