"""Low-energy parametrix and exact resolvent on the glued model.

The pre-parametrix is G1 + G2 + G3:

* G1: the product-end resolvents, cut off by phi_- phi_- and phi_+ phi_+;
* G2: an interior parametrix, realized as the glued Green kernel frozen
  at a reference energy kbar and localized by zeta(z) zeta(z'), times
  1 - phi_-(z) phi_-(z') - phi_+(z) phi_+(z');
* G3: the key-lemma approximate solutions u_{+-}(z, k) tensored with the
  product resolvent columns at frozen basepoints.

`Parametrix._g_terms` lists these terms of G(k), with the finite-rank G4
below, once: the product block of each end on supp phi x supp phi
(`Parametrix.product_block`), the k-independent dense G2, and G3
and G4 as low-rank factors; with dleft, the same list for d_s G.
`g_matrix` adds them into one copy of G2 and makes it G's corrected
composition matrix in place, `g_apply` applies them to a density
without an n x n matrix.

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
Id + E(0), and the resolvent is

    R(k) = G(k)(Id + E(k))^{-1} = G(k)(Id + S(k)).

With kink-corrected compositions the Nystrom matrix of Id + E is
A = Id + E q + diag(kink_E), so E q = A - Id - diag(kink_E) exactly, and
the whole kernel of X (Id + S), for X with composition matrix M_X and
kink diagonal kink_X, is

    M_X A^-1 diag((1 + kink_E)(1 + c_left) / q)
        - diag(kink_X (1 + c_left) / q),

c_left the left-variable kinks of S, and for one density v

    (Id + S) v = A^-1 ((1 + kink_E)(1 + c_left) v) - (c_left + kink_E) v.

Both routes solve on A equilibrated by D = diag(sqrt(q) / w), the
scaling of L^2_w: the kernel with one transposed solve with n right-hand
sides (`InvertedError.right_compose`), a density with one LU solve for a
single right-hand side (`InvertedError.apply`); no kernel of S(k) is
formed.  The LU factorization that `apply` solves with also gives the
smallest singular value of the equilibrated system
(`InvertedError.sigma_min`), the figure behind the choice of k0, so at a
lattice energy the k0 selection and a density solve share one
factorization.  The finite-rank fix reads the same system at k = 0: the
null space that G4 repairs is that of the matrix every solve inverts.

E' and the kink diagonal live on the collar rows C, |s| <= the outer
radius of zeta (641 of 815 or 929 nodes), so outside C a row of the
equilibrated system is e_i + U_i V^T, with U V^T = D E'' q D^-1 the
rank-2 key-lemma tail.  Every solve eliminates those rows: with
t = V^T x it runs on the bordered matrix

    K = [[A_CC, -A_CF U_F], [-V_C^T, I_2 + V_F^T U_F]]

of order m + 2, F the outer rows and columns, and A is singular
exactly when K is.  `InvertedError` is that one operator: it holds the
system, the span and the tail, forms K and keeps K's LU factorization.
The whole equilibrated system is still formed: the solve checks of
`connsum resolvent` measure each solve against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.linalg import blas, lu_factor, lu_solve

from . import product_kernels as pk
from .bvp import GluedSystem
from .cutoffs import (Bump, CutoffField, Step, minus_cutoff,
                      minus_cutoff_source, on_grid)
from .errors import SingularSystemError
from .keylemma import KeyApproximation
from .lp_estimator import spectral_norms
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
            w: np.ndarray) -> float:
    """Hilbert-Schmidt norm of a kernel on L^2_w: the L^2(dV) norm of
    w(z)^{-1} K(z, z') w(z')."""
    q = model.weights
    row = q / w ** 2
    col = q * w ** 2
    return math.sqrt(float(np.einsum("i,ij,j->", row, kernel ** 2, col)))


def _transition_rows(cutoff: CutoffField) -> np.ndarray:
    """Grid rows where a cutoff is not locally constant."""
    return np.where((np.abs(cutoff.d1) > 0) | (np.abs(cutoff.lap) > 0))[0]


def _span(mask: np.ndarray) -> slice:
    """The grid nodes from the first to the last where mask holds; none
    where it never holds."""
    idx = np.flatnonzero(mask)
    return slice(idx[0], idx[-1] + 1) if idx.size else slice(0, 0)


@dataclass
class LowRank:
    """The kernel sum_i left[:, i] (x) right[i], kept as its factors."""
    left: np.ndarray      # (n, rank)
    right: np.ndarray     # (rank, n)

    def kernel(self) -> np.ndarray:
        return self.left @ self.right

    def add_to(self, out: np.ndarray) -> np.ndarray:
        """out + kernel() in the array of out (C-ordered n x n), with no
        n x n temporary: one dgemm with beta = 1 on the transposed
        (Fortran-ordered) view of out, in scipy's one-thread BLAS pool.
        Where the right factors have disjoint supports each entry gains
        one product, so the bits are those of out + kernel()."""
        return blas.dgemm(1.0, self.right.T, self.left.T, beta=1.0, c=out.T,
                          overwrite_c=True).T

    def apply(self, w: np.ndarray) -> np.ndarray:
        """kernel() @ w without forming the kernel."""
        return self.left @ (self.right @ w)


class Parametrix:
    """The parametrix G(k) = G1 + G2 + G3 + G4: its k-independent pieces
    and the finite-rank fix G4; produces the exact resolvent
    R(k) = G(k)(Id + S(k)) on the grid."""

    def __init__(self, model: ModelManifold, q: int = 2, kbar: float = 1.0,
                 system: GluedSystem | None = None):
        self.model = model
        self.q = q
        self.kbar = kbar
        self.phi_minus = on_grid(model, minus_cutoff(model))
        self.phi_plus = on_grid(model, Step(*model.radii.phi))
        za, zb = model.radii.zeta
        self.zeta = on_grid(model, Bump(-zb, -za, za, zb))
        self.v_minus = minus_cutoff_source(model)
        self.v_plus = -self.phi_plus.lap
        sys0 = system if system is not None else GluedSystem(model, 0.0)
        self.u_minus = KeyApproximation(model, self.v_minus, q=q, system=sys0)
        self.u_plus = KeyApproximation(model, self.v_plus, q=q, system=sys0)
        self.gamma_ref = GluedSystem(model, kbar)
        self.weight = weight_w(model)
        self._build_interior()
        self.fix = finite_rank_fix(self)

    def _build_interior(self):
        """G2 = zeta Gamma_kbar zeta times the localizer 1 - phi_- (x) phi_-
        - phi_+ (x) phi_+, and every other k-independent product of the
        frozen kernel: d_s G2, the zeta-commutator rows of E(k) and the
        frozen kernel on its phi-commutator blocks.

        G2 and d_s G2 are formed in the arrays of Gamma_kbar and its left
        derivative.  The two localizer terms have disjoint supports, so
        off the rows where phi or phi' is nonzero times the columns of
        supp phi the localizer is exactly 1 and its derivative 0: it is
        applied on those two blocks only."""
        z = self.zeta
        g2 = self.gamma_ref.kernel_matrix()
        g2_dleft = self.gamma_ref.kernel_dleft()
        zrows = _transition_rows(z)
        zeta_add = z.lap[zrows, None] * g2[zrows, :] \
            - 2.0 * z.d1[zrows, None] * g2_dleft[zrows, :]
        # d_s (zeta Gamma zeta) = zeta d_s Gamma zeta + zeta' Gamma zeta,
        # and zeta' vanishes off zrows
        g2_dleft *= z.values[:, None]
        g2_dleft *= z.values[None, :]
        g2_dleft[zrows, :] += z.d1[zrows, None] * g2[zrows, :] \
            * z.values[None, :]
        g2 *= z.values[:, None]
        g2 *= z.values[None, :]
        self.commutator_blocks = {}
        for side, phi in (("minus", self.phi_minus), ("plus", self.phi_plus)):
            rows, cols = _transition_rows(phi), np.where(phi.values > 0)[0]
            self.commutator_blocks[side] = (
                rows, cols, g2[np.ix_(rows, cols)],
                g2_dleft[np.ix_(rows, cols)])
        phm, php = self.phi_minus.values, self.phi_plus.values
        self.localizer_diag = 1.0 - phm ** 2 - php ** 2
        localizer = 1.0 - phm[zrows, None] * phm[None, :] \
            - php[zrows, None] * php[None, :]
        self.zeta_rows = (zrows, localizer * zeta_add * z.values[None, :])
        for phi in (self.phi_minus, self.phi_plus):
            rows = _span((phi.values > 0) | (phi.d1 != 0))
            cols = _span(phi.values > 0)
            # d_s of the localizer, then the localizer itself
            dloc = -phi.d1[rows, None] * phi.values[None, cols]
            dloc *= g2[rows, cols]
            loc = np.multiply.outer(phi.values[rows], phi.values[cols])
            np.subtract(1.0, loc, out=loc)
            g2_dleft[rows, cols] *= loc
            g2_dleft[rows, cols] += dloc
            g2[rows, cols] *= loc
        self.g2 = g2
        self.g2_dleft = g2_dleft

    # -- reduced product kernels on the grid ---------------------------------

    def _end_data(self, side: str):
        """(end spec, phi cutoff field, dr/ds) of one end."""
        phi = self.phi_minus if side == "minus" else self.phi_plus
        return self.model.end_spec(side), phi, self.model.dr_ds(side)

    def product_block(self, side: str, k: float, dleft: bool = False):
        """(idx, block): the phi-localized reduced product resolvent
        R_side^k(z, z') phi(z) phi(z') on its support idx x idx, idx the
        nodes of supp phi; with dleft its d/ds in z, the block of d_s G1."""
        end, phi, dr_ds = self._end_data(side)
        idx = np.where(phi.values > 0)[0]
        r = self.model.r[idx]
        if not dleft:
            block = pk.reduced_kernel(end, k, r[:, None], r[None, :])
            return idx, block * phi.values[idx, None] * phi.values[None, idx]
        block, dblock = pk.reduced_kernel_pair(end, k, r[:, None],
                                               r[None, :])
        return idx, (dr_ds * dblock * phi.values[idx, None]
                     + block * phi.d1[idx, None]) * phi.values[None, idx]

    def basepoint_column(self, side: str, k: float) -> np.ndarray:
        """phi(z') R_side^k(z_side^o, z') on the grid."""
        m = self.model
        end, phi, _ = self._end_data(side)
        out = np.zeros(m.n)
        idx = np.where(phi.values > 0)[0]
        out[idx] = pk.reduced_kernel(end, k, m.radii.basepoint,
                                     m.r[idx]) * phi.values[idx]
        return out

    def basepoint_outer(self, k: float, left_minus, left_plus) -> LowRank:
        """left_minus (x) basepoint_column("minus", k) + left_plus (x)
        basepoint_column("plus", k): G3, d_s G3 and E''(k) from the
        key-lemma values, derivatives and residuals."""
        cols = [self.basepoint_column(side, k) for side in ("minus", "plus")]
        return LowRank(np.stack((left_minus, left_plus), axis=1),
                       np.stack(cols))

    def error(self, k: float) -> ErrorOperator:
        err = error_kernel(self, k)
        if self.fix.rank > 0:
            err.e1 += self.fix.g4_error(k)
        return err

    def _g_terms(self, k: float, dleft: bool = False):
        """(G2, product blocks, low-rank terms): the terms of
        G(k) = G1 + G2 + G3 + G4, or with dleft of its left derivative.
        G1 is the product block (idx, block) of each end on
        supp phi x supp phi, G2 the k-independent dense kernel, and G3
        (rank 2) and G4 (rank M, when the fix has one) are LowRank."""
        blocks = [self.product_block(side, k, dleft)
                  for side in ("minus", "plus")]
        um = self.u_minus.u(k)[int(dleft)]
        up = self.u_plus.u(k)[int(dleft)]
        low_rank = [self.basepoint_outer(k, um, up)]
        if self.fix.rank > 0:
            low_rank.append(self.fix.g4(dleft))
        return (self.g2_dleft if dleft else self.g2), blocks, low_rank

    def _g_kink(self, dleft: bool) -> np.ndarray:
        """The kink diagonal of G: from the exact Green slope jump -1/v,
        or for d_s G from the value jump +1/v instead."""
        inv_v = 1.0 / self.model.v
        return self.model.kink_diagonal(*((0.0, inv_v) if dleft
                                          else (-inv_v, 0.0)))

    def g_matrix(self, k: float, dleft: bool = False) -> np.ndarray:
        """The corrected composition matrix of G(k), or with dleft of its
        left derivative: the terms of _g_terms added into one copy of G2
        (the low-rank ones by LowRank.add_to; the right factors of G3
        have disjoint supports, so the bits are those of adding G3's
        kernel), then weighted by q and given G's kink diagonal in
        place."""
        g2, blocks, low_rank = self._g_terms(k, dleft)
        out = g2.copy()
        for idx, block in blocks:
            out[np.ix_(idx, idx)] += block
        for term in low_rank:
            out = term.add_to(out)
        out *= self.model.weights[None, :]
        out[np.diag_indices(self.model.n)] += self._g_kink(dleft)
        return out

    def g_apply(self, k: float, u) -> np.ndarray:
        """g_matrix(k) @ u from the terms of _g_terms, with no n x n
        matrix."""
        m = self.model
        g2, blocks, low_rank = self._g_terms(k)
        w = m.weights * u
        out = g2 @ w
        for idx, block in blocks:
            out[idx] += block @ w[idx]
        for term in low_rank:
            out += term.apply(w)
        return out + self._g_kink(False) * u

    def s_operator(self, k: float) -> InvertedError:
        return invert_error(self.error(k))

    def resolvent_apply(self, k: float, v) -> np.ndarray:
        """R(k) v = G(k)(Id + S(k)) v: InvertedError.apply, one solve for
        a single right-hand side on the equilibrated system that
        invert_error writes into the array of E(k), then g_apply, so one
        apply assembles one dense matrix."""
        v = np.asarray(v, dtype=float)
        return self.g_apply(k, self.s_operator(k).apply(v))

    def resolvent_dleft(self, k: float) -> np.ndarray:
        """d/ds in the left variable of the resolvent kernel: the whole
        kernel of d_s G (Id + S) from one solve with n right-hand sides,
        InvertedError.right_compose of d_s G's composition matrix."""
        inverse = self.s_operator(k)
        return inverse.right_compose(self.g_matrix(k, dleft=True),
                                     self._g_kink(True))

    def choose_k0(self, k_list, visit=None) -> tuple[float, dict]:
        """(k0, {k: sigma_min}): the largest lattice k at which the
        smallest singular value of the system that s_operator(k) solves,
        the equilibrated, kink-corrected D (Id + E q + diag(kink)) D^-1,
        is above K0_FLOOR, and that singular value at every lattice k.

        visit(k, inverse, sigma), when given, is called with each
        energy's InvertedError and its sigma_min before the next energy's
        is built, so a caller can solve with the factorization the
        singular value came from while no n x n array outlives its
        energy."""
        sigma_min = {}
        for k in sorted(k_list):
            inverse = self.s_operator(k)
            sigma_min[k] = inverse.sigma_min()
            if visit is not None:
                visit(k, inverse, sigma_min[k])
            del inverse
        above = [k for k, sig in sigma_min.items() if sig > K0_FLOOR]
        if not above:
            raise SingularSystemError("no lattice k keeps Id + E(k) invertible")
        return max(above), sigma_min


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
    e2: LowRank           # key-lemma residual part E'' (rank 2)
    weight: np.ndarray
    jump_ramp: np.ndarray
    jump_step: np.ndarray

    def take_total(self) -> np.ndarray:
        """E = e1 + e2.kernel() summed into the array of e1 without an
        n x n temporary (LowRank.add_to), for a caller that owns this
        operator and overwrites the result; e1 and e2 are released.  The
        two right factors of E'', basepoint columns cut off by phi_- and
        phi_+, have disjoint supports, so the bits are those of that
        sum."""
        out = self.e2.add_to(self.e1)
        self.e1 = self.e2 = None
        return out

    def hs_e2(self) -> float:
        return hs_norm(self.model, self.e2.kernel(), self.weight)


def _phi_commutator_blocks(par: Parametrix, k: float):
    """(rows, cols, block) per end: the phi-commutator terms of E'(k) on
    the transition rows of phi times the columns of supp phi."""
    m = par.model
    for side in ("minus", "plus"):
        end, phi, dr_ds = par._end_data(side)
        rows, cols, g_int, g_int_dleft = par.commutator_blocks[side]
        if len(rows) == 0:
            continue
        rr = m.r[rows]
        rc = m.r[cols]
        if k > 0:
            kern, dkern_r = pk.reduced_kernel_pair(end, k, rr[:, None],
                                                   rc[None, :])
            base = pk.reduced_kernel(end, k, m.radii.basepoint, rc)
            diff = kern - base[None, :]
        else:
            diff = pk.reduced_kernel_k0_diff(end, rr[:, None], rc[None, :],
                                             m.radii.basepoint, rc[None, :])
            dkern_r = pk.reduced_kernel_dleft_k0(end, rr[:, None], rc[None, :])
        ds_kern = dr_ds * dkern_r
        block = phi.lap[rows, None] * (diff - g_int) \
            - 2.0 * phi.d1[rows, None] * (ds_kern - g_int_dleft)
        yield rows, cols, block * phi.values[None, cols]


def error_kernel(par: Parametrix, k: float) -> ErrorOperator:
    """E(k) = (Delta + k^2) G~(k) - Id, assembled analytically: E'(k) in
    one n x n array that starts as the frozen-energy defect
    (k^2 - kbar^2) G2, E''(k) as its rank-2 factors."""
    m = par.model
    e1 = (k * k - par.kbar ** 2) * par.g2
    for rows, cols, block in _phi_commutator_blocks(par, k):
        e1[np.ix_(rows, cols)] += block
    # zeta-commutator terms
    zrows, zeta_rows = par.zeta_rows
    e1[zrows, :] += zeta_rows
    # key-lemma residual terms, zero at k = 0, where adding that zero
    # still turns the -0.0 entries of -kbar^2 G2 into +0.0
    if k > 0:
        e2 = par.basepoint_outer(k, par.u_minus.residual(k),
                                 par.u_plus.residual(k))
    else:
        e2 = LowRank(np.zeros((m.n, 2)), np.zeros((2, m.n)))
    # diagonal jumps: every Green-type factor has slope jump -1/v and its
    # left derivative a value jump 1/v at the diagonal
    v = m.v
    z = par.zeta.values
    phm, php = par.phi_minus.values, par.phi_plus.values
    m_diag = par.localizer_diag
    lap_sum = par.phi_minus.lap * phm + par.phi_plus.lap * php
    d1_sum = par.phi_minus.d1 * phm + par.phi_plus.d1 * php
    jump_ramp = (-lap_sum * (1.0 - z ** 2) - m_diag * z * par.zeta.lap
                 - (k * k - par.kbar ** 2) * z ** 2 * m_diag) / v
    jump_step = (-2.0 * d1_sum * (1.0 - z ** 2)
                 - 2.0 * par.zeta.d1 * z * m_diag) / v
    return ErrorOperator(m, k, e1, e2, par.weight, jump_ramp, jump_step)


# ---------------------------------------------------------------------------
# finite-rank correction


@dataclass
class FiniteRankFix:
    """Null-space repair of Id + E(0): G4 = sum_i psi_i (x) phi_i with
    bumps psi_i about the neck (sampled with their analytic derivatives) and null
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
           scale: np.ndarray) -> np.ndarray:
    """D kernel q D^-1, for D = diag(scale), written into kernel's own
    array in three passes over it and no temporary."""
    kernel *= model.weights[None, :]
    kernel *= scale[:, None]
    kernel /= scale[None, :]
    return kernel


def _bump_dictionary(model: ModelManifold):
    """Smooth compactly supported bumps about the neck with analytic
    Laplacians, each corner on a segment boundary (-+b, -+R or 0, b the
    first cutoff radius), so that no transition straddles a segment."""
    R, b = model.R, model.radii.breakpoints()[0]
    spans = [(-b, -R, R, b), (-b, -R, 0.0, R), (-R, 0.0, R, b),
             (-R, 0.0, 0.0, R)]
    return [on_grid(model, Bump(*span)) for span in spans]


# singular values of Id + E(0) below this fraction of its norm are null
NULL_REL_THRESHOLD = 1e-9


def finite_rank_fix(par: Parametrix) -> FiniteRankFix:
    """Compute the null space of Id + E(0) on the weighted space and the
    rank-M correction G4 making Id + E(0) invertible.

    Id + E(0) is the system that every solve reads: invert_error
    consumes error_kernel's E(0), as s_operator does, and the fix reads
    its InvertedError.  With no null vectors (sigma_min above the
    relative threshold) the fix is trivial: M = 0 and G4 = 0.  The
    extreme singular values come from spectral_norms, sigma_min on the
    factorization behind choose_k0; the singular vectors, by a full SVD
    of the system, only when there is a null space to repair.
    """
    model = par.model
    inverse = invert_error(error_kernel(par, 0.0))
    thresh = NULL_REL_THRESHOLD * _norm2(inverse.system)
    sigma_min = inverse.sigma_min()
    if sigma_min >= thresh:
        return FiniteRankFix(rank=0, threshold=thresh,
                             sigma_before=sigma_min, sigma_after=sigma_min)
    U, sig, Vt = np.linalg.svd(inverse.system)
    null_dim = int(np.sum(sig < thresh))
    fix = FiniteRankFix(rank=null_dim, threshold=thresh,
                        sigma_before=float(sig[-1]))
    # null vectors back in value coordinates
    fix.phis = [Vt[-(i + 1)] / inverse.scale for i in range(null_dim)]
    cokernel = [U[:, -(i + 1)] for i in range(null_dim)]
    fix.bumps = _select_bumps(model, cokernel, inverse.scale)
    # the system plus (Delta) G4 on L^2_w; the rows of G4 lie in
    # |s| <= the first cutoff radius, inside the span, and at k = 0 the
    # tail has rank 0
    corr = _weigh(model, fix.g4_error(0.0), inverse.scale)
    corr += inverse.system
    fix.sigma_after = replace(inverse, system=corr).sigma_min()
    if fix.sigma_after < 10 * thresh:
        raise SingularSystemError(
            "finite-rank complement construction failed "
            f"(sigma_after={fix.sigma_after:g}, threshold={thresh:g})")
    return fix


def _select_bumps(model, cokernel, scale):
    cands = _bump_dictionary(model)
    if len(cands) < len(cokernel):
        raise SingularSystemError("bump dictionary smaller than null space")
    # greedy pick maximizing alignment of Delta psi with the cokernel
    picked = []
    used = set()
    for u in cokernel:
        best, best_score = None, -1.0
        for j, cand in enumerate(cands):
            if j in used:
                continue
            score = abs(float(np.dot(u, scale * model.weights * cand.lap)))
            if score > best_score:
                best, best_score = j, score
        used.add(best)
        picked.append(cands[best])
    return picked


# ---------------------------------------------------------------------------
# inversion and the resolvent


@dataclass
class InvertedError:
    """(Id + E(k))^{-1} in the kink-corrected kernel algebra, kept as the
    equilibrated Nystrom matrix of Id + E, on which both the whole kernel
    of X (Id + S) and (Id + S) v for one density are solved; no kernel of
    S(k) = (Id + E)^{-1} - Id is formed.

    The Nystrom matrix is A = Id + E q + diag(kink) (kink: E's diagonal
    jumps restored), so E q = A - Id - diag(kink).  `system` is
    D A D^-1, with D = diag(sqrt(q) / w) the scaling that makes L^2_w
    an orthonormal discrete basis, and `c_left` the left-variable kinks
    of S(., z'), whose jumps are minus those of E.  `system` itself is
    kept as the matrix each solve is checked against.

    Outside the rows `span`, C = lo:hi, `system` is the identity plus
    `tail`, the equilibrated E'' q = (D L)(R q D^-1) of the factors L R
    of E'', a rank-r tail U V^T (r = 0 where E'' = 0).  Block elimination
    (Golub and Van Loan, Matrix Computations, 3.2 and 2.1.4) with
    t = V^T x leaves the bordered (m + r) x (m + r) matrix, m = hi - lo
    and F the outer rows and columns,

        K = [[A_CC, -A_CF U_F], [-V_C^T, I_r + V_F^T U_F]],

    whose border column is [0; I_r] - W U_F for the outer columns
    W = [A_CF; -V_F^T], A here standing for `system`.  Then

        A^-1 y:  K [x_C; t] = [y_C; 0] - W y_F,  x_F = y_F - U_F t;
        M A^-1:  Z K = [M_C, -M_F U_F],  X_C = Z_C,  X_F = M_F - Z W.

    A is singular exactly when K is.  W is read from the outer column
    blocks of `system` in place, never copied.

    `@` on both sides, as spectral_norms applies an operator, `apply`
    and `sigma_min` read one LU factorization of K, made on first use in
    K's own array and kept; lu_solve does not raise on an exactly zero
    pivot (it returns inf or nan), so `singular` records one.
    `right_compose` keeps none: its one n-column solve factors a K of its
    own in numpy's BLAS pool.  choose_k0 reads `sigma_min` at each
    lattice energy, and finite_rank_fix reads it, with the norm and, for
    a null space, the SVD of `system`, at k = 0.
    """
    __array_ufunc__ = None      # an ndarray on the left defers to __rmatmul__

    model: ModelManifold
    k: float
    system: np.ndarray    # D A D^-1
    scale: np.ndarray     # D
    kink: np.ndarray      # E's kink diagonal
    c_left: np.ndarray
    span: slice           # the rows where system is more than Id + tail
    tail: LowRank         # D E'' q D^-1, rank 0 where E'' = 0

    def __post_init__(self):
        span, n = self.span, self.system.shape[0]
        self.shape = self.system.shape
        self.outer = (slice(0, span.start), slice(span.stop, n))
        self.m, self.r = span.stop - span.start, self.tail.left.shape[1]
        # powers of two that bring each row of V^T to a 1-norm in
        # [1/2, 1), so the border rows of K weigh like rows of A (at
        # k = e^-256 the unscaled rows raised the backward error 6x);
        # U V^T keeps its bits
        power = np.frexp(np.abs(self.tail.right).sum(axis=1))[1]
        self.u = np.ldexp(self.tail.left, power[None, :])
        self.v = np.ldexp(self.tail.right, -power[:, None])

    def right_compose(self, matrix: np.ndarray,
                      kink: np.ndarray) -> np.ndarray:
        """The whole kernel of X (Id + S), for a kernel X with corrected
        composition matrix `matrix` and kink diagonal `kink`, written
        into `matrix`.

        The kernel X + matrix S + X diag(c_left), with
        S = -A^-1 E (Id + diag(c_left)) and E q = A - Id - diag(kink_E),
        is exactly matrix A^-1 diag((1 + kink_E)(1 + c_left) / q) minus
        diag(kink (1 + c_left) / q): X cancels, and
        matrix A^-1 = (matrix D^-1) system^-1 D is one np.linalg.solve
        with n right-hand sides on K^T, a K that lives for this call
        only."""
        q = self.model.weights
        matrix /= self.scale[None, :]
        try:
            out = self.compose(matrix, lambda rhs: np.linalg.solve(
                self.bordered().T, rhs.T).T)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(
                f"Id + E(k) singular at k={self.k}: {exc}") from exc
        right = (1.0 + self.c_left) / q
        out *= (self.scale * (1.0 + self.kink) * right)[None, :]
        out[np.diag_indices(self.model.n)] -= kink * right
        return out

    def solve(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(y, z): the right-hand side y = D (1 + kink_E)(1 + c_left) v
        of the one LU solve behind apply(v), and its solution
        z = system^-1 y."""
        if self.singular:
            raise SingularSystemError(
                f"Id + E(k) singular at k={self.k}: an exactly zero pivot")
        y = self.scale * (1.0 + self.kink) * (1.0 + self.c_left) * v
        return y, self @ y

    def apply(self, v: np.ndarray, z: np.ndarray | None = None) -> np.ndarray:
        """(Id + S) v for one density v, with S's corrected composition
        matrix: v + S v, S = -A^-1 E (Id + diag(c_left)), with
        E q = A - Id - diag(kink_E), is exactly
        A^-1 ((1 + kink_E)(1 + c_left) v) - (c_left + kink_E) v, and
        A^-1 y = D^-1 system^-1 (D y) is one LU solve on the bordered
        matrix.  z, when given, is solve(v)[1], so a caller that checks
        that solve does not make it twice."""
        if z is None:
            z = self.solve(v)[1]
        return z / self.scale - (self.c_left + self.kink) * v

    def _w(self, x: np.ndarray) -> np.ndarray:
        """W x_F for x of shape (n,) or (n, p)."""
        out = np.zeros((self.m + self.r,) + x.shape[1:])
        for f in self.outer:
            out[:self.m] += self.system[self.span, f] @ x[f]
            out[self.m:] -= self.v[:, f] @ x[f]
        return out

    def bordered(self) -> np.ndarray:
        """A new Fortran-ordered K, which lu_factor overwrites."""
        m, r = self.m, self.r
        K = np.empty((m + r, m + r), order="F")
        K[:m, :m] = self.system[self.span, self.span]
        K[m:, :m] = -self.v[:, self.span]
        K[:, m:] = -self._w(self.u)
        K[m:, m:] += np.eye(r)
        return K

    @cached_property
    def lu(self):
        return lu_factor(self.bordered(), overwrite_a=True)

    @property
    def singular(self) -> bool:
        return not np.all(np.diag(self.lu[0]))

    def __matmul__(self, y: np.ndarray) -> np.ndarray:
        """system^-1 y, y of shape (n,) or (n, p)."""
        m = self.m
        b = -self._w(y)
        b[:m] += y[self.span]
        x_t = lu_solve(self.lu, b, overwrite_b=True)
        x = y.copy()
        x[self.span] = x_t[:m]
        for f in self.outer:
            x[f] -= self.u[f] @ x_t[m:]
        return x

    def compose(self, M: np.ndarray, solve) -> np.ndarray:
        """M system^-1, M of shape (p, n), written into M's array, with
        solve(R) = R K^-1 in a new array.  R is M's columns lo:hi + r,
        the last r of them saved and given -M_F U_F for the solve, so
        the right-hand sides take no new p x m array; only a span that
        ends within r of the last column takes R as a new array."""
        m, r, span = self.m, self.r, self.span
        border = np.zeros((M.shape[0], r))
        for f in self.outer:
            border -= M[:, f] @ self.u[f]
        end = span.stop + r
        if end <= M.shape[1]:
            saved = M[:, span.stop:end].copy()
            M[:, span.stop:end] = border
            Z = solve(M[:, span.start:end])
            M[:, span.stop:end] = saved
        else:
            Z = solve(np.concatenate((M[:, span], border), axis=1))
        for f in self.outer:
            M[:, f] -= Z[:, :m] @ self.system[span, f]
            M[:, f] += Z[:, m:] @ self.v[:, f]
        M[:, span] = Z[:, :m]
        return M

    def __rmatmul__(self, x):
        return self.compose(
            np.array(x, dtype=float),
            lambda rhs: lu_solve(self.lu, rhs.T, trans=1).T)

    def sigma_min(self) -> float:
        """The smallest singular value of `system`, 1 / ||system^-1||_2
        with the norm of the inverse by spectral_norms on the
        factorization that `apply` solves with; 0.0 when `system` is
        exactly singular."""
        return 0.0 if self.singular else 1.0 / _norm2(self)


def invert_error(err: ErrorOperator) -> InvertedError:
    """(Id + E)^{-1} as the equilibrated Nystrom matrix
    D (Id + E q + diag(kink)) D^-1, D = diag(sqrt(q) / w), written into
    E's own array; err is consumed, and no n x n temporary is made
    (take_total, then the three scaling passes of _weigh).  Unscaled, A
    is as ill-conditioned as the quadrature weights are spread (cond 1e10
    on 929 nodes, 1e18 at S = 2^16); D A D^-1 keeps cond at a few
    hundred.

    Before take_total merges them, the rows where E' or the kink
    diagonal is nonzero give the span (the collar |s| <= the outer
    radius of zeta), and the nonzero factors of E'' the equilibrated
    tail."""
    model = err.model
    kink = model.kink_diagonal(err.jump_ramp, err.jump_step)
    c_left = model.kink_diagonal(-err.jump_ramp, err.jump_step)
    span = _span(np.any(err.e1, axis=1) | (kink != 0))
    scale = np.sqrt(model.weights) / err.weight
    left, right = err.e2.left, err.e2.right
    live = np.any(left, axis=0) & np.any(right, axis=1)
    tail = LowRank(scale[:, None] * left[:, live],
                   right[live] * (model.weights / scale)[None, :])
    system = _weigh(model, err.take_total(), scale)
    diag = np.diag_indices(model.n)
    system[diag] += 1.0
    system[diag] += kink
    return InvertedError(model, err.k, system, scale, kink, c_left, span,
                         tail)


def _norm2(op) -> float:
    """||op||_2 of a square matrix or operator: spectral_norms with unit
    weights on one full truncation."""
    return float(spectral_norms(op, np.ones(op.shape[0]), [slice(None)])[0])


# smallest singular value of the system of Id + E(k) at which choose_k0
# accepts k
K0_FLOOR = 1e-6
# ilg_expansion fits R(k) v at k = e^{-2^j}, j in ILG_FIT_J, on
# |s| <= ILG_REGION; ilg_residual_order checks it at the fresh ILG_CHECK_J
ILG_FIT_J = (4, 5, 6, 7, 8)
ILG_REGION = 12.0
ILG_CHECK_J = (5.0, 5.75, 6.5, 7.25, 8.0)


@dataclass
class IlgSeries:
    """Fitted inverse-log series of R(k) v on a compact set."""
    mask: np.ndarray
    coefficients: np.ndarray   # (deg+1, n_mask)


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
    return IlgSeries(mask, coef)


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
