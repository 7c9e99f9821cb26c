"""Global Laplace and resolvent solves on the glued axis.

The zero channel of the model admits exact homogeneous solutions on both
product regions (powers/logs at zero energy, modified Bessel functions at
energy k > 0), so a two-sided Green function for the whole axis needs
numerical work only across the neck |s| <= R, where the two branches are
continued by high-accuracy ODE integration.  Domain truncation commits no
error: the boundary behaviour is encoded exactly in the decaying branch.
One formula serves both ends (`GluedSystem._pair`): the decaying branch
is the zero channel of the one decaying channel solution,
`model.decaying_channel` (r^{-nu} K_nu, nu = n/2 - 1), the growing one
r^{-nu} I_nu, with log(r/R) at zero energy on the two-dimensional end,
and one routine (`GluedSystem._branch`) builds u_L and u_R from them.
Each end's decaying pair is evaluated once per system, as the near
branch of one solution and the far branch of the other, and the neck
collocation takes its energy-independent matrices from the model
(`ModelManifold.neck_marching`).

`solve_laplace` returns the unique solution of Delta u = F (F compactly
supported) that stays bounded on the two-dimensional end and decays on the
other; its constant limit beta on the minus end is

    beta = (1/W) int u_R F dV,

a plain quadrature against the plus-decaying branch.  `build_log_harmonic`
assembles the unique global harmonic function growing like log r + c_1 on
the minus end and decaying on the plus end.

A discrete counterpart (`NeckProblem`) closes the compact part with the
exterior DtN rows  B u = d_nu u - Lambda u = 0  and is used for the
uniqueness, self-adjointness and dual-weight probes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import specfun as sf
from .cutoffs import log_cutoff
from .errors import DomainError, SingularSystemError
from .model import (ModelManifold, _fd_operator, band_matrix,
                    decaying_channel, radiation_logderiv)


def _neck_collocation(model: ModelManifold, k: float, from_plus: bool,
                      u0: float, du0: float):
    """Continue (u, u') across the neck by Chebyshev collocation on the
    neck grid segments, marching away from the given side.

    Returns (values on the neck portion of the grid in grid order,
    derivatives, u at far side, u' at far side).  Because the solution is
    represented in the same per-segment polynomial space as the grid, the
    continued branch differentiates spectrally clean.
    """
    vals: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    u_c, du_c = u0, du0
    for start, J, J2, dlv, base, ds in model.neck_marching[from_plus]:
        # integral formulation from the marching side: with g = u'',
        #   u' = du0 + J g,   u = u0 + du0 (s - s0) + J^2 g,
        # and the equation g + dlv (du0 + J g) - k^2 u = 0 becomes a
        # well-conditioned linear system for g; only its k^2 term
        # depends on the energy
        A = base - k * k * J2
        rhs = -dlv * du_c + k * k * (u_c + du_c * ds)
        try:
            g = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"neck collocation failed: {exc}") from exc
        u_seg = u_c + du_c * ds + J2 @ g
        du_seg = du_c + J @ g
        vals[start] = (u_seg, du_seg)
        out = 0 if from_plus else len(ds) - 1
        u_c, du_c = float(u_seg[out]), float(du_seg[out])
    return vals, u_c, du_c


class GluedSystem:
    """Two-sided homogeneous solutions and Green machinery at energy k >= 0.

    u_L decays toward minus infinity (is the bounded branch at k = 0),
    u_R decays toward plus infinity; both are normalized to 1 at their
    gluing sphere and stored with derivatives on the model grid.
    """

    def __init__(self, model: ModelManifold, k: float):
        if k < 0:
            raise DomainError("GluedSystem: k must be >= 0")
        self.model = model
        self.k = k
        # branches are stored in hat/exponent form: the true branch is
        # uL_hat e^{exp_l}, uR_hat e^{exp_r}, with the analytic exponents
        # -+ k (r - R) on the ends; exp_l + exp_r <= 0 for every kernel
        # pair actually selected, so entries never overflow even when a
        # raw branch would
        kr = k * np.maximum(model.r - model.R, 0.0)
        self.exp_l = np.where(model.mask_plus, kr, -kr)
        self.exp_r = np.where(model.mask_minus, kr, -kr)
        # each end's decaying pair on its nodes and at R, once: it is the
        # near branch of one solution and the far branch of the other
        at_R = np.array([model.R])
        decaying = {end: (self._pair(end, model.r[self._mask(end)], True),
                          self._pair(end, at_R, True))
                    for end in ("minus", "plus")}
        self.uL, self.uLp = self._branch("minus", decaying)
        self.uR, self.uRp = self._branch("plus", decaying)
        w = model.v * (self.uL * self.uRp - self.uLp * self.uR)
        self.wronskian = float(-np.median(w))
        if self.wronskian <= 0:
            raise SingularSystemError("glued Wronskian not positive")
        self.wronskian_spread = float(np.max(np.abs(-w - self.wronskian))
                                      / self.wronskian)

    # branch construction ----------------------------------------------------

    def _pair(self, end: str, r, decaying: bool):
        """(value, d/ds) of the decaying or growing branch on the given
        end at radii r, normalized to 1 at r = R and stored in hat form:
        the k > 0 branches carry their exponent -k(r - R) (decaying) or
        +k(r - R) (growing) outside.

        The decaying branch is the zero channel of
        `model.decaying_channel`, r^{-nu} K_nu(kr) with nu = n/2 - 1 (the
        power r^{2-n} at k = 0); the growing one is r^{-nu} I_nu(kr), at
        k = 0 the constant 1, or log(r/R) on a two-dimensional end.
        d/ds is d/dr times the end's orientation `ModelManifold.dr_ds`."""
        k, R = self.k, self.model.R
        spec = self.model.end_spec(end)
        dr_ds = self.model.dr_ds(end)
        if decaying:
            val, dval, _ = decaying_channel(spec, 0, k, R, r)
            return val, dr_ds * dval
        nu = 0.5 * spec.euclidean_dim - 1.0
        if k == 0.0:
            if nu == 0.0:
                return np.log(r / R), dr_ds / r
            return np.ones_like(r), np.zeros_like(r)
        den = R ** (-nu) * sf.bessel_I(nu, k * R, scaled=True)
        val = r ** (-nu) * sf.bessel_I(nu, k * r, scaled=True) / den
        dval = dr_ds * k * r ** (-nu) * sf.bessel_I(nu + 1.0, k * r,
                                                    scaled=True) / den
        return val, dval

    def _mask(self, end: str) -> np.ndarray:
        m = self.model
        return m.mask_minus if end == "minus" else m.mask_plus

    def _branch(self, toward: str, decaying: dict):
        """Hat-scaled branch: the true branch equals the returned values
        times e^{exp_l} (toward 'minus') or e^{exp_r} (toward 'plus').

        The branch decays on its near end, is continued across the neck,
        and on the far end is matched to a combination of the far end's
        decaying and growing branches.  There the decaying component is
        re-expressed in the growing branch's exponent: its extra factor
        e^{-2k(r-R)} only shrinks, so everything stays inside double
        range.  decaying holds each end's decaying pair ((value, d/ds)
        on its nodes, and at R).
        """
        m, k = self.model, self.k
        near, far = ("minus", "plus") if toward == "minus" \
            else ("plus", "minus")
        val = np.empty_like(m.s)
        dval = np.empty_like(m.s)
        (vn, dn), (v0, d0) = decaying[near]
        val[self._mask(near)] = vn
        dval[self._mask(near)] = dn
        neck_vals, u_far, du_far = _neck_collocation(
            m, k, near == "plus", float(v0[0]), float(d0[0]))
        for start, (u_seg, du_seg) in neck_vals.items():
            sl = slice(start, start + len(u_seg))
            val[sl] = u_seg
            dval[sl] = du_seg
        (vd, dd), (d_val, d_dval) = decaying[far]
        g_val, g_dval = self._pair(far, np.array([m.R]), False)
        A = np.array([[d_val[0], g_val[0]], [d_dval[0], g_dval[0]]])
        cd, cg = np.linalg.solve(A, [u_far, du_far])
        r = m.r[self._mask(far)]
        vg, dg = self._pair(far, r, False)
        damp = np.exp(-2.0 * k * (r - m.R)) if k > 0 else 1.0
        val[self._mask(far)] = cd * vd * damp + cg * vg
        dval[self._mask(far)] = cd * dd * damp + cg * dg
        return val, dval

    # Green machinery ----------------------------------------------------------

    def apply(self, F):
        """u with (Delta + k^2) u = F, decaying/bounded both ways, and u'.

        Exponent factors are clipped at e^{+-700}: entries where the clip
        could bite are multiplied by exact zeros of the cumulants (the
        source is compactly supported)."""
        m = self.model
        F = np.asarray(F, dtype=float)
        el = np.exp(np.clip(self.exp_l, -745.0, 700.0))
        er = np.exp(np.clip(self.exp_r, -745.0, 700.0))
        cumL = m.cumulative_integral(self.uL * el * F * m.v)
        cumR_all = m.cumulative_integral(self.uR * er * F * m.v)
        cumR = cumR_all[-1] - cumR_all
        u = (self.uR * er * cumL + self.uL * el * cumR) / self.wronskian
        du = (self.uRp * er * cumL + self.uLp * el * cumR) / self.wronskian
        return u, du

    def kernel_matrix(self) -> np.ndarray:
        """Green kernel on grid x grid: uL(s_<) uR(s_>) / W."""
        return green_kernel_sums([self], [[1.0]])[0]

    def kernel_dleft(self) -> np.ndarray:
        """d/ds in the left variable of kernel_matrix; the diagonal takes
        the midpoint of the two one-sided limits."""
        return green_kernel_sums([self], [[1.0]], dleft=True)[0]


# grid rows per block of green_kernel_sums and GreenSumOperator; each
# block has its own exponent shift
KERNEL_BLOCK = 64


def _generators(systems: list[GluedSystem], coefs, dleft: bool):
    """The stacked per-system arrays of a kernel sum: exp_l, exp_r, uL,
    uR, the left factors (fL, fR) of the strict upper and lower parts,
    and coefs / wronskian."""
    el = np.array([g.exp_l for g in systems])
    er = np.array([g.exp_r for g in systems])
    uL = np.array([g.uL for g in systems])
    uR = np.array([g.uR for g in systems])
    fL = np.array([g.uLp for g in systems]) if dleft else uL
    fR = np.array([g.uRp for g in systems]) if dleft else uR
    cw = np.asarray(coefs, dtype=float) \
        / np.array([g.wronskian for g in systems])
    return el, er, uL, uR, fL, fR, cw


def green_kernel_sums(systems: list[GluedSystem], coefs,
                      dleft: bool = False,
                      stored: int | None = None) -> list:
    """sum_k coefs[c, k] G_k on grid x grid for each row c of the (C, K)
    array coefs, G_k = uL(s_<) uR(s_>) / W the Green kernel of systems[k]
    or, with dleft, its d/ds in the left variable, without building any
    system's n x n kernel.  With stored = j only the first j sums are
    written out as n x n arrays; each later row returns instead the
    largest absolute entry of its sum, a float taken as a running
    maximum over the blocks, equal bit for bit to the maximum over the
    stored sum.

    Off the diagonal each kernel is rank one per triangle, fL(s) uR(s') / W
    above it and fR(s) uL(s') / W below, with (fL, fR) = (uL, uR) for the
    values and (uLp, uRp) for d/ds, so the sum over the K systems is
    semiseparable.  In each block of KERNEL_BLOCK rows the strict upper
    part is one (C rows x K) @ (K x columns) product for all C rows of
    coefs; the strict lower part is the mirror image, blocked by columns.
    Each system gets the shift m_k = exp_l at the last node of the
    block: as exp_l is non-decreasing in s and exp_r = -exp_l, both
    factors then carry exponents <= 0 and stay in double range at every
    k.  The diagonal blocks are dense: the
    branch is selected first and only the selected exponent is
    exponentiated.  The diagonal itself takes the midpoint of the two
    one-sided limits, which for the values is exact (both products are
    the same bits).
    """
    n = systems[0].model.n
    el, er, uL, uR, fL, fR, cw = _generators(systems, coefs, dleft)
    stored = len(cw) if stored is None else stored
    out = [np.empty((n, n)) for _ in range(stored)]
    peaks = [0.0] * (len(cw) - stored)
    for a in range(0, n, KERNEL_BLOCK):
        b = min(a + KERNEL_BLOCK, n)
        blk, nb = slice(a, b), b - a
        shift = el[:, b - 1:b]
        near = np.exp(el[:, blk] - shift)
        far = np.exp(er[:, b:] + shift)
        # strict upper: rows of the block, columns after it
        left = np.vstack([(c[:, None] * fL[:, blk] * near).T for c in cw])
        upper = left @ (uR[:, b:] * far)
        # strict lower: columns of the block, rows after it
        right = np.hstack([c[:, None] * uL[:, blk] * near for c in cw])
        lower = (fR[:, b:] * far).T @ right
        # diagonal block, s < s' above its diagonal
        tri = np.triu(np.ones((nb, nb), dtype=bool), 1)
        expo = np.where(tri, el[:, blk, None] + er[:, None, blk],
                        er[:, blk, None] + el[:, None, blk])
        dense = np.where(tri, fL[:, blk, None] * uR[:, None, blk],
                         fR[:, blk, None] * uL[:, None, blk])
        d = np.arange(nb)
        dense[:, d, d] = 0.5 * (fL[:, blk] * uR[:, blk]
                                + fR[:, blk] * uL[:, blk])
        diag = np.tensordot(cw, dense * np.exp(expo), axes=1)
        parts = zip(np.split(upper, len(cw)),
                    np.split(lower, len(cw), axis=1), diag)
        for c, (up, lo, dg) in enumerate(parts):
            if c < stored:
                out[c][blk, b:] = up
                out[c][b:, blk] = lo
                out[c][blk, blk] = dg
            else:
                for x in (up, lo, dg):
                    if x.size:
                        peaks[c - stored] = max(peaks[c - stored],
                                                float(x.max()),
                                                float(-x.min()))
    return out + peaks


class GreenSumOperator:
    """The operator f -> K (weights f) + diagonal f for the kernel sum
    K = sum_k coefs[k] G_k of green_kernel_sums (G_k the Green kernel of
    systems[k] or, with dleft, its d/ds in the left variable): K composed
    with a quadrature and a corrected diagonal, applied without forming
    the composition.

    Both `op @ X` and `X @ op` (so the transpose) cost O(n K) per column
    of X instead of O(n^2), plus O((n / KERNEL_BLOCK)^2 K) per column
    for the unrolled block recursions.  The kernel is split into the blocks and shifts m_B of
    green_kernel_sums.  The rows of block B see the columns after it
    through the running sum T_B = sum_{j after B} uR(j) e^{exp_r(j) +
    m_B} (weights f)(j), one (K, columns) array per block, and the
    columns before it through the mirror sum U_B, taken with the previous
    block's shift.  The backward recursion T_{B-1} = e^{m_{B-1} - m_B} T_B
    + (block B's inflow), and the forward one for U, are applied unrolled:
    T_B = sum_{C > B} e^{m_B - m_{C-1}} (block C's inflow), one
    (blocks x blocks) transfer matrix per system and direction.  Every
    factor carries an exponent <= 0, and a factor that nothing uses (the
    first block's inflow to a previous one) is not exponentiated.  Only
    the KERNEL_BLOCK-square diagonal blocks are dense; they are copied
    from `kernel`, the dense sum green_kernel_sums returns for the same
    systems and coefs, with the weights and the diagonal folded in, so
    they carry the bits of the dense composition.

    The transpose uses the same arrays: its upper part is the lower part
    of the operator with the roles of its two factors exchanged.  The
    class sets __array_ufunc__ = None, so an ndarray on the left defers
    to __rmatmul__.
    """

    __array_ufunc__ = None

    def __init__(self, systems: list[GluedSystem], coefs, kernel, weights,
                 diagonal, dleft: bool = False):
        n = systems[0].model.n
        nb = KERNEL_BLOCK
        nblk = -(-n // nb)
        el, er, uL, uR, fL, fR, cw = _generators(systems, coefs, dleft)
        q = np.asarray(weights, dtype=float)
        self.shape = (n, n)
        self.diagonal = np.asarray(diagonal, dtype=float)
        pad = nblk * nb - n

        def blocks(a, mode="constant"):
            """(K, n) -> (blocks, K, KERNEL_BLOCK), padded past n with
            zeros (factors) or the last value (exponents)."""
            a = np.pad(a, ((0, 0), (0, pad)), mode=mode)
            return a.reshape(len(a), nblk, nb).transpose(1, 0, 2)

        el_b, er_b = blocks(el, "edge"), blocks(er, "edge")
        near = np.exp(el_b - el_b[:, :, -1:])
        after = np.zeros_like(near)
        after[1:] = np.exp(er_b[1:] + el_b[:-1, :, -1:])
        rows_up = blocks(cw[:, None] * fL) * near        # rows, upper part
        cols_up = blocks(uR * q) * after                 # columns, upper
        rows_lo = blocks(fR) * after                     # rows, lower part
        cols_lo = blocks(cw[:, None] * uL * q) * near    # columns, lower
        # transfer matrices: e^{m_B - m_{C-1}} for C > B (upper part),
        # e^{m_C - m_{B-1}} for C < B (lower part)
        m = el_b[:, :, -1].T
        ib, ic = np.triu_indices(nblk, 1)
        transfer = np.zeros((2, len(m), nblk, nblk))
        transfer[0][:, ib, ic] = transfer[1][:, ic, ib] = \
            np.exp(m[:, ib] - m[:, ic - 1])
        self._transfer = transfer.reshape(2 * len(m), nblk, nblk)
        diag = np.zeros((nblk, nb, nb))
        for i in range(nblk):
            blk = slice(i * nb, min((i + 1) * nb, n))
            d = np.arange(blk.stop - blk.start)
            diag[i, :len(d), :len(d)] = kernel[blk, blk] * q[None, blk]
            diag[i, d, d] += self.diagonal[blk]
        tr = (0, 2, 1)
        self._flows = {
            False: (np.concatenate([cols_up, cols_lo], axis=1),
                    np.concatenate([rows_up.transpose(tr),
                                    rows_lo.transpose(tr), diag], axis=2)),
            True: (np.concatenate([rows_lo, rows_up], axis=1),
                   np.concatenate([cols_lo.transpose(tr),
                                   cols_up.transpose(tr),
                                   diag.transpose(tr)], axis=2))}

    def _apply(self, X, transpose: bool) -> np.ndarray:
        """op @ X, or op^T @ X with transpose, for an (n, c) array X."""
        inflow, outflow = self._flows[transpose]
        nblk, k2, nb = inflow.shape
        n = self.shape[0]
        X = np.asarray(X, dtype=float)
        z = np.zeros((nblk * nb, X.shape[1]))
        z[:n] = X
        z = z.reshape(nblk, nb, -1)
        state = np.empty((nblk, k2 + nb, z.shape[2]))
        state[:, k2:] = z
        flow = (inflow @ z).transpose(1, 0, 2)
        state[:, :k2] = (self._transfer @ flow).transpose(1, 0, 2)
        return (outflow @ state).reshape(nblk * nb, -1)[:n]

    def __matmul__(self, X) -> np.ndarray:
        return self._apply(X, False)

    def __rmatmul__(self, X) -> np.ndarray:
        return self._apply(np.asarray(X).T, True).T


@dataclass
class GlobalHarmonicSolution:
    """Solution of Delta u = F, bounded on the minus end, decaying on the
    plus end, with its minus-end limit beta and plus-end tail coefficient
    (u = plus_coeff (r/R)^{2-n} beyond the source)."""
    values: np.ndarray
    dvalues: np.ndarray
    beta: float
    plus_coeff: float


def _check_compact_support(model: ModelManifold, F) -> None:
    F = np.asarray(F, dtype=float)
    guard = np.abs(model.s) >= 0.9 * min(model.config.S_minus, model.config.S_plus)
    floor = 1e-13 * max(1.0, float(np.max(np.abs(F))))
    if np.any(np.abs(F[guard]) > floor):
        raise DomainError("solve_laplace: source must vanish near the domain ends")


def solve_laplace(model: ModelManifold, F,
                  system: GluedSystem | None = None) -> GlobalHarmonicSolution:
    """Unique global solution of Delta u = F for a compactly supported
    radial source, bounded on the minus end and tending to zero on the
    plus end (zero channel)."""
    _check_compact_support(model, F)
    sys0 = system if system is not None else GluedSystem(model, 0.0)
    u, du = sys0.apply(F)
    # read the limits off the computed solution itself, so the far fields
    # are exactly constant (minus) / exactly the power branch (plus)
    # relative to the reported constants
    beta = float(u[0] / sys0.uL[0])
    plus_coeff = float(u[-1] / sys0.uR[-1])
    return GlobalHarmonicSolution(u, du, beta, plus_coeff)


@dataclass
class LogHarmonic:
    """The global harmonic function log r + c_1 + ... on the minus end,
    O(r^{-1}) on the plus end."""
    values: np.ndarray
    dvalues: np.ndarray
    c1: float
    plus_coeff: float


def build_log_harmonic(model: ModelManifold,
                       system: GluedSystem | None = None) -> LogHarmonic:
    """w_1 + w_2 with w_1 = chi(r) log r (`cutoffs.log_cutoff`) and
    Delta w_2 = -Delta w_1 solved by the global Laplace solver."""
    chi, logr, dlogr = log_cutoff(model)
    w1 = chi.values * logr
    dw1 = chi.d1 * logr + chi.values * dlogr
    # F = -Delta w1 on the minus product region (supp chi' there):
    # Delta(chi log r) = log r Delta chi - 2 chi' (log r)'
    F = -(logr * chi.lap) + 2.0 * chi.d1 * dlogr
    sol = solve_laplace(model, F, system=system)
    return LogHarmonic(w1 + sol.values, dw1 + sol.dvalues,
                       sol.beta, sol.plus_coeff)


# ---------------------------------------------------------------------------
# discrete DtN boundary problem


# accuracy order of the NeckProblem finite-difference stencils
NECK_ORDER = 4


class NeckProblem:
    """Discrete zero-channel Laplace problem on the compact part, closed by
    the exterior DtN rows B u = d_nu u - Lambda_ext u = 0.

    For the zero channel the DtN rows coincide with the exact zero-energy
    radiation rows, so with homogeneous data the only solution is zero.
    """

    def __init__(self, model: ModelManifold, domain_radius: float = 12.0):
        self.model = model
        idx = np.where(np.abs(model.s) <= domain_radius + 1e-9)[0]
        if len(idx) < NECK_ORDER + 3:
            raise DomainError("NeckProblem: domain too small")
        self.idx = idx
        self.s = model.s[idx]
        ends = [radiation_logderiv(model, 0.0, xi)
                for xi in (self.s[0], self.s[-1])]
        self.matrix = band_matrix(_fd_operator(
            self.s, model.dlog_weight(self.s), 0.0, NECK_ORDER, ends))

    def solve(self, F) -> np.ndarray:
        """Solve Delta u = F (F given on the sub-grid, boundary rows
        homogeneous).  Raises SingularSystemError on a (numerically)
        singular system, which would signal a discrete uniqueness failure."""
        rhs = np.asarray(F, dtype=float).copy()
        rhs[0] = rhs[-1] = 0.0
        try:
            u = np.linalg.solve(self.matrix, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(str(exc)) from exc
        resid = self.matrix @ u - rhs
        if np.linalg.norm(resid) > 1e-8 * max(1.0, np.linalg.norm(rhs)):
            raise SingularSystemError("discrete neck solve did not converge")
        return u
