import copy
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve, solve_banded

from connsum import bvp, checks, cli, model as md, parametrix as px
from connsum.errors import SingularSystemError
from connsum.fits import loglog_slope
from connsum.specfun import ilg

from oracles import (apply_operator, dense_error_total, derivatives,
                     error_total, full_right_compose, full_solve, g_kernel,
                     identity_residuals, resolvent, s_kernel,
                     segment_interior)
from oracles import resolvent_kernel as two_step_kernel


def derivative_gap(model, value, deriv, rows=slice(None)) -> float:
    """Largest gap of the spectral d/ds of value (per column) from deriv
    on rows, over the largest |deriv| there."""
    d = deriv[rows]
    return np.max(np.abs(derivatives(model, value)[0][rows] - d)) \
        / np.max(np.abs(d))


def off_source_segments(model) -> np.ndarray:
    """(n, n) mask of the entries off their column's segments: a kernel
    column kinks at its source, so spectral d/ds is accurate only there."""
    off = np.ones((model.n, model.n), dtype=bool)
    for start, nn, _th, _jac, _kind in model.segments:
        off[start:start + nn, start:start + nn] = False
    return off


def resolvent_kernel(par, k, dleft=False):
    """The whole kernel of R(k) = G(k)(Id + S(k)), or with dleft of
    d_s R(k), from one solve."""
    return par.s_operator(k).right_compose(par.g_matrix(k, dleft),
                                           par._g_kink(dleft))


@pytest.fixture(scope="module")
def model():
    return md.build_model()


@pytest.fixture(scope="module")
def sys0(model):
    return bvp.GluedSystem(model, 0.0)


@pytest.fixture(scope="module")
def par(model, sys0):
    return px.Parametrix(model, q=2, kbar=1.0, system=sys0)


@pytest.fixture(scope="module")
def long_par():
    """A parametrix on ends of length 2^16 (1335 nodes), where the
    unscaled Nystrom matrix of Id + E has cond 1e18."""
    m = md.build_model(md.GeometryConfig(S_minus=2.0 ** 16,
                                         S_plus=2.0 ** 16))
    return px.Parametrix(m, q=2, kbar=1.0, system=bvp.GluedSystem(m, 0.0))


@pytest.fixture(scope="module")
def forced(par, model):
    """A copy of `par` whose finite-rank fix repairs a degenerate E(0) with
    a known null vector, so that G4 (rank >= 1) enters G, d_s G and E(k).
    The fix reads that E(0) from error_kernel, patched for its call."""
    e0 = error_total(px.error_kernel(par, 0.0))
    w = par.weight
    q = model.weights
    g = np.exp(-model.s ** 2)
    # rank-one E with (Id + E) g = 0:  E = -g <g, .>_w / ||g||_w^2
    norm2 = float(np.dot(q / w ** 2, g * g))
    Edeg = e0 - np.outer(g, g / w ** 2) / norm2 \
        - (e0 * q[None, :]) @ np.outer(g, g / w ** 2) / norm2
    no_e2 = px.LowRank(np.zeros((model.n, 1)), np.zeros((1, model.n)))
    deg = px.ErrorOperator(model, 0.0, Edeg, no_e2, w,
                           np.zeros(model.n), np.zeros(model.n))
    out = copy.copy(par)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(px, "error_kernel", lambda *args: deg)
        out.fix = px.finite_rank_fix(par)
    return out


def _count_calls(monkeypatch, owner, name, record=None) -> list:
    """Replace owner.name by a wrapper that records each call: its
    positional arguments, or what record(*args) makes of them, so that
    a memory test need not keep the arrays of a call alive."""
    calls = []
    orig = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args if record is None else record(*args))
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _neck_column(inverse) -> int:
    """The column of the equilibrated system at s = 0, inside its span,
    where the tail's right factors (basepoint columns cut off by phi_-
    and phi_+) vanish."""
    j = int(np.searchsorted(inverse.model.s, 0.0))
    assert inverse.span.start <= j < inverse.span.stop
    assert not np.any(inverse.tail.right[:, j])
    return j


class TestAssembly:
    def test_g1_support(self, par, model):
        # G1 vanishes whenever either argument is where phi_+- = 0: each
        # product block, and that of d_s G1, lives on supp phi x supp phi
        hole = np.abs(model.s) < model.radii.phi[0]
        for side in ("minus", "plus"):
            for dleft in (False, True):
                idx, block = par.product_block(side, 0.01, dleft)
                assert block.shape == (len(idx), len(idx))
                assert not np.any(hole[idx])

    @pytest.mark.parametrize("dleft", [False, True])
    def test_g_matrix_matches_dense_sum(self, par, model, dleft):
        # G3 enters by one in-place dgemm; its right factors have
        # disjoint supports, so the values are those of adding its dense
        # kernel, and g_matrix makes no n x n temporary beyond its result
        right = par.basepoint_outer(1e-3, model.s, model.s).right
        assert not np.any((right[0] != 0) & (right[1] != 0))
        unit = model.n ** 2 * np.dtype(float).itemsize
        for k in (1e-4, 1e-2, 0.3):
            np.testing.assert_array_equal(par.g_matrix(k, dleft),
                                          g_kernel(par, k, dleft)[1])
        tracemalloc.start()
        try:
            par.g_matrix(1e-3, dleft)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * unit

    def test_interior_build_memory(self, par, model):
        # G2 and d_s G2 are formed in the arrays of the frozen kernel and
        # its left derivative, and the localizer only on its phi blocks
        pieces = copy.copy(par)
        unit = model.n ** 2 * np.dtype(float).itemsize
        tracemalloc.start()
        try:
            pieces._build_interior()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * unit

    def test_g3_left_factor_at_zero_energy(self, par):
        # u_+-(., 0) = -phi continuation
        for ka in (par.u_minus, par.u_plus):
            u0, _ = ka.u(0.0)
            np.testing.assert_array_equal(u0, -ka.stages[0].phi.values)

    def test_error_column_matches_operator(self, par, model):
        # (Delta + k^2) G~ applied to columns reproduces the closed-form
        # error kernel (mask: the kink-carrying segment of the column and
        # segment-edge differentiation nodes)
        k = 0.01
        assert par.fix.rank == 0    # G(k) is the pre-parametrix G~(k)
        Gt = g_kernel(par, k)[0]
        E = error_total(px.error_kernel(par, k))
        for j in (60, 230, 430, 700):
            lhs = apply_operator(model, Gt[:, j], k=k)
            rhs = E[:, j].copy()
            rhs[j] += 1.0 / model.weights[j]
            sel = segment_interior(model)
            for start, nn, _th, _jac, _kind in model.segments:
                if start <= j < start + nn:
                    sel[start:start + nn] = False
            scale = np.max(np.abs(E[:, j])) + 1e-30
            assert np.max(np.abs(lhs - rhs)[sel]) / scale < 1e-6

    @pytest.mark.parametrize("fixture", ["par", "long_par", "forced"])
    @pytest.mark.parametrize("k", [0.05, 1e-2, 1e-4, math.exp(-24)])
    def test_derivative_matches_value(self, request, fixture, k):
        # every producer of a value and its d/ds against the spectral d/ds
        # of the value: the key approximations, the product blocks and
        # G's composition matrix with its weights divided out.  A kernel
        # column kinks at its source, so its rows on the source's
        # segments are skipped.  Worst measured: 6e-12 (u), 2.6e-11
        # (blocks) and 1.1e-10 (g_matrix); forced's g_matrix, with G4 in
        # it, reads 1.7e-11, and 2.9e-5 with the bump corners inside the
        # neck segments.  With the sign of the key
        # approximation's Bessel tail flipped on the minus end, u reads
        # 1.6e-2 at k = 0.05 and 1.2e-7 at 1e-4, and g_matrix 1.3e-2 and
        # 1.9e-7
        p = request.getfixturevalue(fixture)
        m = p.model

        def gap(value, deriv, rows=slice(None)):
            return derivative_gap(m, value, deriv, rows)

        for ka in (p.u_minus, p.u_plus):
            assert gap(*ka.u(k)) < 1e-10
        off = off_source_segments(m)
        for side in ("minus", "plus"):
            pair = []
            for dleft in (False, True):
                idx, block = p.product_block(side, k, dleft)
                pair.append(np.zeros((m.n, len(idx))))
                pair[-1][idx] = block
            assert gap(*pair, off[:, idx]) < 1e-10
        q = m.weights[None, :]
        assert gap(p.g_matrix(k) / q, p.g_matrix(k, dleft=True) / q,
                   off) < 1e-9

    # The producers below are checked the same way.  Worst measured over
    # par and long_par: 5.8e-13 (the glued kernel, at k = 1e-4), 4.8e-11
    # (_deform, at k = 1e-4), 2.6e-11 (a cutoff's d1, phi_minus) and
    # 5.0e-14 (its d2), 1.7e-12 (decaying_channel, on the minus end).
    # The forced fixture adds the bumps of its G4 to the cutoffs: 1.2e-11
    # (d1) and 1.5e-14 (d2).  With corners at -+R/2 and -+R/4, inside
    # the neck segments, they read 2.9e-5 (d1).  Its model and key
    # approximations are those of par, so the other producers take only
    # par and long_par.

    @pytest.mark.parametrize("fixture", ["par", "long_par"])
    @pytest.mark.parametrize("k", [0.0, 1e-4, 1e-2, 0.05, 0.3])
    def test_glued_kernel_derivative_matches_value(self, request, fixture,
                                                   k):
        m = request.getfixturevalue(fixture).model
        g = bvp.GluedSystem(m, k)
        assert derivative_gap(m, g.kernel_matrix(), g.kernel_dleft(),
                              off_source_segments(m)) < 5e-12

    @pytest.mark.parametrize("fixture", ["par", "long_par"])
    @pytest.mark.parametrize("k", [1e-4, 1e-2, 0.05])
    def test_deform_derivative_matches_value(self, request, fixture, k):
        # at k = e^-24 delta_k = r^{2-n} (g_nu(k r) - 1) is below the
        # rounding of g_nu, so its value carries no digits to differentiate
        p = request.getfixturevalue(fixture)
        assert derivative_gap(p.model, *p.u_plus._deform(k)) < 5e-10

    @pytest.mark.parametrize("fixture", ["par", "long_par", "forced"])
    def test_cutoff_derivatives_match_values(self, request, fixture):
        p = request.getfixturevalue(fixture)
        for field in (p.phi_minus, p.phi_plus, p.zeta, *p.fix.bumps):
            assert derivative_gap(p.model, field.values, field.d1) < 2e-10
            assert derivative_gap(p.model, field.d1, field.d2) < 1e-12

    @pytest.mark.parametrize("fixture", ["par", "long_par"])
    # the minus end's zero-energy solution is constant: no d/ds to compare
    @pytest.mark.parametrize("end,k", [
        ("minus", 1e-3), ("minus", 0.05), ("minus", 0.3),
        ("plus", 0.0), ("plus", 1e-3), ("plus", 0.05), ("plus", 0.3)])
    def test_decaying_channel_derivative_matches_value(self, request,
                                                       fixture, end, k):
        # on the end's nodes past the gluing radius; the hat form's d/dr
        # is the true d/dr times e^{k (r - R)}, so the d/dr of the hat
        # value is it plus k times the value
        m = request.getfixturevalue(fixture).model
        on = m.mask_minus if end == "minus" else m.mask_plus
        inner = on & (np.abs(m.s) > m.R)
        value, ddr, _ = md.decaying_channel(m.end_spec(end), 0, k, m.R,
                                            m.r[on])
        hat = np.zeros(m.n)
        hat[on] = value
        dds = np.zeros(m.n)
        dds[on] = m.dr_ds(end) * (ddr + k * value)
        assert derivative_gap(m, hat, dds, inner) < 2e-11

    @pytest.mark.parametrize("config", [
        md.GeometryConfig(),
        # the kernel-providers benchmark model
        md.GeometryConfig(S_minus=512.0, S_plus=512.0)],
        ids=["default", "S512"])
    def test_error_kernel_matches_dense_sum(self, config):
        # E' starts as the frozen-energy defect and E'' stays rank 2, with
        # the bits of the term-by-term sum into a zero array, signed
        # zeros included
        par = px.Parametrix(md.build_model(config))
        for k in (0.0, 1e-4, 1e-2, 0.05, 0.5):
            for got in (error_total(px.error_kernel(par, k)),
                        px.error_kernel(par, k).take_total()):
                np.testing.assert_array_equal(
                    got.view(np.uint64),
                    dense_error_total(par, k).view(np.uint64))

    def test_error_left_support_compact(self, par, model):
        for k in (0.0, 1e-3):
            E = error_total(par.error(k))
            outside = np.abs(model.s) > model.radii.zeta[1] + 0.5
            assert np.max(np.abs(E[outside, :])) < 1e-20

    def test_error_prime_left_support_in_collar(self, par, model):
        err = px.error_kernel(par, 1e-3)
        chi_collar = np.abs(model.s) <= model.radii.zeta[1] + 1e-9
        assert np.all(err.e1[~chi_collar, :] == 0.0)


class TestHilbertSchmidt:
    JS = (3, 4, 5, 6, 7)

    def test_e2_hs_decays_with_bounded_rate(self, par, model):
        # || E''(k) ||_HS = O((ilg k)^{1/2}): the fitted slope must be at
        # least 1/2 - 0.1; here it is markedly larger (faster decay)
        hs = [par.error(math.exp(-2.0 ** j)).hs_e2() for j in self.JS]
        ils = [ilg(math.exp(-2.0 ** j)) for j in self.JS]
        slope = loglog_slope(ils, hs)
        assert slope >= 0.4
        assert np.all(np.diff(hs) < 0)

    def test_q1_hs_diverges(self, model, sys0):
        par1 = px.Parametrix(model, q=1, kbar=1.0, system=sys0)
        hs = [par1.error(math.exp(-2.0 ** j)).hs_e2() for j in self.JS]
        ils = [ilg(math.exp(-2.0 ** j)) for j in self.JS]
        slope = loglog_slope(ils, hs)
        assert slope <= 0.0
        assert hs[-1] > hs[1]

    def test_hs_continuity_to_zero(self, par, model):
        E0 = error_total(par.error(0.0))
        diffs = [px.hs_norm(model,
                            error_total(par.error(math.exp(-2.0 ** j))) - E0,
                            par.weight)
                 for j in (2, 4, 6, 7)]
        assert np.all(np.diff(diffs) < 0)
        assert diffs[-1] < 0.2 * diffs[0]


class TestFiniteRank:
    def test_default_model_already_invertible(self, par, monkeypatch):
        assert par.fix.rank == 0
        assert par.fix.sigma_before > 1e-3
        # without a null space no singular vectors are computed
        svd = _count_calls(monkeypatch, np.linalg, "svd")
        assert px.finite_rank_fix(par).rank == 0
        assert svd == []

    def test_synthetic_null_space_repaired(self, forced, model):
        fix = forced.fix
        assert fix.rank >= 1
        assert fix.sigma_after >= 10 * fix.threshold
        # psi_i supported in |s| <= b, b the first cutoff radius, where
        # every corner of a bump sits: exact support check
        b = model.radii.breakpoints()[0]
        for psi in [bump.values for bump in fix.bumps]:
            assert np.all(psi[np.abs(model.s) > b] == 0.0)

    def test_null_space_of_the_solved_system(self, par, model,
                                             monkeypatch):
        # a null vector g of the kink-corrected system that every solve
        # reads, planted at the neck with E(0)'s jumps kept:
        # E' = E - (A0 g) (x) (g / w^2) / ||g||_w^2, A0 = Id + E q +
        # diag(kink), so (Id + E' q + diag(kink)) g = 0.  Without the kink
        # diagonal the same E' is invertible (sigma_min 1.1e-4)
        err = px.error_kernel(par, 0.0)
        kink = model.kink_diagonal(err.jump_ramp, err.jump_step)
        assert np.any(kink)
        w, q = par.weight, model.weights
        g = np.exp(-model.s ** 2)
        e0 = error_total(err)
        a0g = g + e0 @ (q * g) + kink * g
        norm2 = float(np.dot(q / w ** 2, g * g))
        planted = e0 - np.outer(a0g, g / w ** 2) / norm2
        no_e2 = px.LowRank(np.zeros((model.n, 1)), np.zeros((1, model.n)))
        err0 = px.ErrorOperator(model, 0.0, planted, no_e2, w,
                                err.jump_ramp, err.jump_step)
        with monkeypatch.context() as mp:
            mp.setattr(px, "error_kernel", lambda *args: err0)
            fix = px.finite_rank_fix(par)
        assert fix.rank >= 1
        assert fix.sigma_after >= 10 * fix.threshold
        # at the defaults the fix reads the figure that choose_k0 reads
        assert par.fix.sigma_before == par.s_operator(0.0).sigma_min()


class TestInversion:
    def test_identity_residual(self, par):
        for k in (1e-2, 1e-3, 1e-4):
            identity, _ = identity_residuals(par, k)
            assert identity < 1e-8

    def test_sk_identity(self, par):
        _, sk_identity = identity_residuals(par, 1e-3)
        assert sk_identity < 1e-8

    def test_identity_residuals_long_ends(self, long_par):
        # S solved on the equilibrated matrix: unscaled, sk_identity read
        # 1.9e-8 here, above the bound
        identity, sk_identity = identity_residuals(long_par, 1e-3)
        assert identity < 1e-8 and sk_identity < 1e-8

    @pytest.mark.parametrize("k", [1e-3, math.exp(-256.0)])
    def test_invert_error_writes_in_place(self, par, model, k):
        # the equilibrated system in E's own array: E'' added by one
        # in-place dgemm, then three scaling passes, with no n x n
        # temporary; each entry of E'' is one product (its right factors
        # have disjoint supports), so the sum has the bits of
        # e1 + e2.kernel()
        err = par.error(k)
        right = err.e2.right
        assert not np.any((right[0] != 0) & (right[1] != 0))
        np.testing.assert_array_equal(par.error(k).take_total(),
                                      error_total(err))
        e1 = err.e1
        unit = model.n ** 2 * np.dtype(float).itemsize
        tracemalloc.start()
        try:
            inverse = px.invert_error(err)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.shares_memory(inverse.system, e1)
        assert peak < 0.5 * unit

    @pytest.mark.parametrize("k", [1e-2, 1e-3, 1e-4, math.exp(-256.0)])
    def test_s_apply_matches_kernel(self, par, model, k):
        # InvertedError.apply(v) - v = S v, with S's corrected composition
        # matrix S q + diag(kink_S)
        v = np.exp(-2.0 * model.s ** 2)
        S, _, s_kink = s_kernel(par, k)
        ref = S @ (model.weights * v) + s_kink * v
        got = par.s_operator(k).apply(v) - v
        assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("fixture", ["par", "long_par"])
    @pytest.mark.parametrize("k", [1e-4, 1e-2, 0.05])
    def test_sigma_min_matches_svd(self, request, fixture, k):
        # the figure behind k0, from the LU factorization that apply
        # solves with, against a full SVD of the same system
        inverse = request.getfixturevalue(fixture).s_operator(k)
        ref = np.linalg.svd(inverse.system, compute_uv=False)[-1]
        assert abs(inverse.sigma_min() - ref) < 1e-10 * ref

    def test_apply_raises_on_singular_system(self, par, model):
        # lu_solve returns inf or nan at an exactly zero pivot; apply
        # must raise instead.  The zero column is a neck column: there
        # the right factors of the tail vanish, so the bordered matrix
        # has the same zero column
        inverse = par.s_operator(1e-3)
        inverse.system[:, _neck_column(inverse)] = 0.0
        with pytest.warns(LinAlgWarning), \
                pytest.raises(SingularSystemError):
            inverse.apply(np.exp(-2.0 * model.s ** 2))

    def test_s_left_decay(self, par, model):
        # S(k) rapidly decaying in the left variable: exactly compactly
        # supported here, so sup r^M |S| is finite for M <= 4
        S = s_kernel(par, 1e-3)[0]
        for M in range(5):
            vals = model.r[:, None] ** M * np.abs(S)
            assert np.isfinite(np.max(vals))
        outside = np.abs(model.s) > model.radii.zeta[1] + 0.5
        assert np.max(np.abs(S[outside, :])) < 1e-14


class TestSolveErrors:
    """checks.solve_errors, the two figures `connsum resolvent` reports
    for the solve at each lattice energy, and a planted defect that turns
    each one's check false."""

    @staticmethod
    def ok(value) -> bool:
        return cli.check(value, "<", cli.IDENTITY)["ok"]

    @staticmethod
    def solve(p, k=1e-3):
        inverse = p.s_operator(k)
        return (inverse, *inverse.solve(np.exp(-2.0 * p.model.s ** 2)),
                inverse.sigma_min())

    @pytest.mark.parametrize("fixture", ["par", "long_par"])
    def test_definitions(self, request, fixture):
        inverse, y, z, sigma = self.solve(request.getfixturevalue(fixture))
        A = inverse.system
        backward, forward = checks.solve_errors(A, y, z, sigma)
        assert backward < 1e-15 and forward < 1e-12
        v = np.exp(-2.0 * inverse.model.s ** 2)
        np.testing.assert_array_equal(inverse.apply(v, z), inverse.apply(v))
        # the transposed BLAS and LAPACK views against the dense formulas,
        # on a residual far above rounding (A is not symmetric, so a
        # transposed product or norm would read differently)
        z = z * (1.0 + 1e-3 * np.cos(inverse.model.s))
        r = A @ z - y
        backward, forward = checks.solve_errors(A, y, z, sigma)
        assert backward == pytest.approx(np.max(np.abs(r)) / (
            np.linalg.norm(A, np.inf) * np.max(np.abs(z))
            + np.max(np.abs(y))), rel=1e-9)
        assert forward == pytest.approx(
            np.linalg.norm(r) / (sigma * np.linalg.norm(z)), rel=1e-9)

    def test_dropped_kink_diagonal_fails(self, par):
        # solved with the LU of the system without its kink diagonal, the
        # matrix the identity residuals once solved
        inverse, y, _, sigma = self.solve(par)
        wrong = inverse.system.copy()
        wrong[np.diag_indices(par.model.n)] -= inverse.kink
        z = lu_solve(lu_factor(wrong), y)
        backward, forward = checks.solve_errors(inverse.system, y, z, sigma)
        assert not self.ok(backward) and not self.ok(forward)

    def test_broken_outer_row_fails(self, par):
        # the bordered solve reads the rows outside the span from the
        # tail factors, not from `system`; an outer row of `system` that
        # is no longer the identity plus the tail shows in the backward
        # error against it
        inverse = par.s_operator(1e-3)
        row = inverse.span.stop + 5
        inverse.system[row, _neck_column(inverse)] = 1.0
        y, z = inverse.solve(np.exp(-2.0 * par.model.s ** 2))
        backward, forward = checks.solve_errors(inverse.system, y, z,
                                                inverse.sigma_min())
        assert not self.ok(backward) and not self.ok(forward)

    def test_dropped_equilibration_fails_forward_bound(self, long_par):
        # solved on the unscaled A = D^-1 system D (cond 1e18 here): the
        # LU is backward stable, so only the forward bound sees it
        inverse, y, _, sigma = self.solve(long_par)
        d = inverse.scale
        A = inverse.system * d[None, :] / d[:, None]
        z = d * lu_solve(lu_factor(A), y / d)
        backward, forward = checks.solve_errors(inverse.system, y, z, sigma)
        assert self.ok(backward) and not self.ok(forward)


class TestReduction:
    """The bordered solve behind every factorization and the whole
    kernel: outside the collar rows (the span), the equilibrated system
    is the identity plus the rank-2 tail of E'', which the bordered
    matrix of order m + 2 takes in exactly."""
    TOL = 1e-12
    KS = [1e-2, 1e-4, 0.05, math.exp(-256.0)]

    @pytest.mark.parametrize("fixture, m", [
        ("par", 641), ("forced", 641), ("long_par", 640)])
    def test_span_and_outer_rows(self, request, fixture, m):
        # the span is the nodes with |s| <= 16, the outer radius of zeta:
        # 641 of them on the default grid, 640 at S = 2^16, where the
        # node next to s = -16 lies 7e-15 outside it
        p = request.getfixturevalue(fixture)
        inverse = p.s_operator(1e-3)
        span, n = inverse.span, p.model.n
        collar = np.abs(p.model.s) <= p.model.radii.zeta[1]
        np.testing.assert_array_equal(np.arange(n)[span],
                                      np.flatnonzero(collar))
        assert span.stop - span.start == m
        # entrywise, to a few rounding errors of the tail, and on the
        # diagonal, where 1 + tail rounds to 1, to one of 1
        outer = np.r_[0:span.start, span.stop:n]
        tail = inverse.tail.left[outer] @ inverse.tail.right
        eye = np.eye(n)[outer]
        eps = np.finfo(float).eps
        assert np.all(np.abs(inverse.system[outer] - eye - tail)
                      <= 8 * eps * np.abs(tail) + eps * eye)
        # at k = 0 there is no tail, and the outer rows are identity rows
        zero = p.s_operator(0.0)
        assert zero.tail.left.shape == (n, 0)
        np.testing.assert_array_equal(zero.system[outer], np.eye(n)[outer])

    @pytest.mark.parametrize("fixture", ["par", "forced", "long_par"])
    @pytest.mark.parametrize("k", KS)
    def test_matches_full_solve(self, request, fixture, k):
        # both sides of the reduced inverse and the whole kernel against
        # one dense solve on the whole equilibrated system
        p = request.getfixturevalue(fixture)
        inverse = p.s_operator(k)
        s = p.model.s
        y = inverse.scale * np.exp(-2.0 * s ** 2)
        rows = np.stack((np.exp(-s ** 2 / 8.0), np.cos(s) / (1.0 + s * s)))
        for got, ref in ((inverse @ y, full_solve(inverse, y)),
                         (rows @ inverse, full_solve(inverse, rows, True))):
            assert np.max(np.abs(got - ref)) <= self.TOL * np.max(np.abs(ref))
        matrix, kink = p.g_matrix(k, dleft=True), p._g_kink(True)
        ref = full_right_compose(inverse, matrix, kink)
        got = inverse.right_compose(matrix, kink)
        assert np.max(np.abs(got - ref)) <= self.TOL * np.max(np.abs(ref))

    def test_dropped_tail_fails(self, long_par):
        # the tail is at most 2.3e-14 here (S = 2^16, k = 0.05), but the
        # reduction without it raises the backward error from 2.2e-17 to
        # 9.8e-16; the bound sits at the geometric middle of that gap
        bound = 1.5e-16
        inverse = long_par.s_operator(0.05)
        y, z = inverse.solve(np.exp(-2.0 * long_par.model.s ** 2))
        n = long_par.model.n
        no_tail = px.LowRank(np.zeros((n, 0)), np.zeros((0, n)))
        untailed = replace(inverse, tail=no_tail) @ y
        sigma = inverse.sigma_min()
        assert checks.solve_errors(inverse.system, y, z, sigma)[0] < bound
        assert checks.solve_errors(inverse.system, y, untailed,
                                   sigma)[0] > bound


class TestWholeKernel:
    """R(k) and d_s R(k) from InvertedError.right_compose, one transposed
    solve on the equilibrated Nystrom matrix, against the two-step route
    through the whole kernel S(k) (oracles.resolvent_kernel).  Without
    the equilibration the transposed solve drifts from it by 3e-10 to
    6e-8 on the long-ended grid."""
    TOL = 1e-12

    def check(self, p, k):
        for dleft in (False, True):
            got = resolvent_kernel(p, k, dleft)
            ref = two_step_kernel(p, k, dleft)
            assert np.max(np.abs(got - ref)) \
                <= self.TOL * np.max(np.abs(ref))

    @pytest.mark.parametrize("fixture", ["par", "forced"])
    @pytest.mark.parametrize("k", [1e-2, 1e-4, math.exp(-256.0)])
    def test_matches_two_step_route(self, request, fixture, k):
        self.check(request.getfixturevalue(fixture), k)

    @pytest.mark.parametrize("k", [math.exp(-10.0), math.exp(-16.0)])
    def test_matches_two_step_route_long_ends(self, long_par, k):
        assert long_par.model.n == 1335
        self.check(long_par, k)

    @pytest.mark.parametrize("fixture", ["par", "long_par"])
    def test_work_and_memory(self, request, fixture, monkeypatch):
        # one error kernel, one inversion and one dense solve with n
        # right-hand sides on the bordered matrix, of order m + 2 (the
        # span and the rank-2 tail); the live n x n arrays are the
        # equilibrated system and the composition matrix of d_s G, which
        # becomes the result and holds the right-hand sides
        p = request.getfixturevalue(fixture)
        n = p.model.n
        span = p.s_operator(1e-3).span
        order = span.stop - span.start + 2
        errors = _count_calls(monkeypatch, px, "error_kernel")
        inverts = _count_calls(monkeypatch, px, "invert_error")
        solves = _count_calls(monkeypatch, np.linalg, "solve",
                              lambda a, b: (a.shape, b.shape))
        tracemalloc.start()
        try:
            p.resolvent_dleft(1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(errors) == 1 and len(inverts) == 1
        assert solves == [((order, order), (order, n))]
        assert peak <= 3.5 * n ** 2 * np.dtype(float).itemsize


class TestResolvent:
    def test_matches_radiation_oracle(self, par, model):
        v = np.exp(-2.0 * model.s ** 2)
        for k in (1e-2, 1e-3, 1e-4):
            assert checks.radiation_oracle_error(
                model, k, v, par.resolvent_apply(k, v)) < 1e-5

    def test_oracle_band_storage(self, model):
        # the oracle's bands hold the operator: on u = s^2, which its
        # stencils differentiate exactly, it gives -2 - 2 s v'/v + k^2 s^2
        # inside and the radiation rows at the ends; and the band solve
        # is the dense solve
        width = checks.ORACLE_ORDER
        s = model.s
        rhs = np.exp(-2.0 * s ** 2)
        rhs[0] = rhs[-1] = 0.0
        for k in (1e-2, 1e-4):
            ab = md.radial_laplacian(model, k=k, order=width)
            A = md.band_matrix(ab)
            ends = s[[0, -1]]
            logderiv = [md.radiation_logderiv(model, k, x) for x in ends]
            exact = -2.0 - 2.0 * s * model.dlog_weight(s) + k * k * s ** 2
            exact[[0, -1]] = 2.0 * ends - np.array(logderiv) * ends ** 2
            np.testing.assert_allclose(A @ s ** 2, exact, rtol=1e-8)
            dense = np.linalg.solve(A, rhs)
            banded = solve_banded((width, width), ab, rhs)
            assert np.max(np.abs(banded - dense)) \
                < 1e-9 * np.max(np.abs(dense))

    def test_defining_equation(self, par, model):
        # (Delta + k^2) R(k) v = v: exact in the discrete kernel algebra
        k = 1e-3
        v = np.exp(-2.0 * model.s ** 2)
        err = par.error(k)
        q = model.weights
        E = error_total(err)
        A0 = np.eye(model.n) + E * q[None, :]
        S0 = np.linalg.solve(A0, -E)
        algebra_res = A0 @ (v + (S0 * q[None, :]) @ v) - v
        assert np.max(np.abs(algebra_res)) < 1e-7 * np.max(np.abs(v))
        # and through the independent differentiation route, where the
        # composition-error pattern is amplified by the second derivative
        Rv = par.resolvent_apply(k, v)
        res = apply_operator(model, Rv, k=k) - v
        sel = (np.abs(model.s) < 30) & segment_interior(model)
        assert np.max(np.abs(res[sel])) < 1e-4

    def test_positivity(self, par, model):
        Rk = resolvent_kernel(par, 1e-2)
        j = np.searchsorted(model.s, 0.7)
        assert np.all(Rk[:, j] > -1e-12)

    def test_symmetry(self, par, model):
        # G~ is visibly asymmetric; R comes out symmetric to composition
        # accuracy (weighted L2; pointwise it is quadrature-limited)
        Rk = resolvent_kernel(par, 1e-3)
        q = model.weights
        num = math.sqrt(float(np.einsum("i,ij,j->", q, (Rk - Rk.T) ** 2, q)))
        den = math.sqrt(float(np.einsum("i,ij,j->", q, Rk ** 2, q)))
        assert num / den < 1e-7
        assert par.fix.rank == 0    # G(k) is the pre-parametrix G~(k)
        Gt = g_kernel(par, 1e-3)[0]
        numg = math.sqrt(float(np.einsum("i,ij,j->", q, (Gt - Gt.T) ** 2, q)))
        assert numg / den > 1e-2  # the input asymmetry is large

    def test_resolvent_identity(self, par, model):
        # R(k1) - R(k2) = (k2^2 - k1^2) R(k1) R(k2) on compacts; k large
        # enough that the e^{-kr} tails die inside the finite domain
        k1, k2 = 0.1, 0.05
        R1 = resolvent_kernel(par, k1)
        R2 = resolvent_kernel(par, k2)
        q = model.weights
        k1v, k0v = model.kink_kappa
        # kink-corrected composition: both factors carry the Green ramp
        comp = (R1 * q[None, :]) @ R2 + np.diag(-k1v / model.v) @ R2 \
            + R1 * (-k1v / model.v)[None, :]
        lhs = R1 - R2
        rhs = (k2 ** 2 - k1 ** 2) * comp
        mask = np.abs(model.s) < 20
        scale = np.max(np.abs(lhs[np.ix_(mask, mask)]))
        defect = np.max(np.abs((lhs - rhs)[np.ix_(mask, mask)]))
        assert defect < 1e-6 * np.max(np.abs(R1)) / np.abs(k2**2 - k1**2) * 1e-2 \
            or defect < 1e-4 * scale

    def test_log_bound_and_cancellation(self, par, model):
        # the product-space piece G1 diverges like |log k| pointwise on
        # the two-dimensional end; the resolvent itself stays bounded on
        # compacts (the model is transient), so the assembled R exhibits
        # the cancellation while remaining O(|log k|) uniformly
        jm = np.searchsorted(model.s, -12.0)
        ks = [math.exp(-2.0 ** j) for j in (3, 4, 5, 6, 7)]
        idx, _ = par.product_block("minus", ks[0])
        i = np.searchsorted(idx, jm)
        assert idx[i] == jm and idx[i + 2] == jm + 2
        g1_vals = np.array([par.product_block("minus", k)[1][i, i + 2]
                            for k in ks])
        logk = np.log(1 / np.array(ks))
        coef = np.polyfit(logk, g1_vals, 1)
        fitres = g1_vals - np.polyval(coef, logk)
        assert coef[0] > 0
        assert np.max(np.abs(fitres)) < 0.02 * (g1_vals.max() - g1_vals.min())
        j = np.searchsorted(model.s, 0.5)
        mask = np.abs(model.s) < 10
        sups = [np.max(np.abs(resolvent_kernel(par, k)[:, j][mask])) for k in ks]
        # bounded: Cauchy increments shrink; and trivially O(|log k|)
        assert np.all(np.diff(sups) > 0)
        incr = np.diff(sups)
        assert incr[-1] < 0.7 * incr[0]
        assert sups[-1] < sups[0] * math.log(1 / ks[-1]) / math.log(1 / ks[0])

    def test_gradient_with_finite_rank_fix(self, forced, model):
        # d_s R(k) v = d_s G (v + S v) must carry G4' = sum psi_i' (x) phi_i
        # once the fix has rank > 0; the exact glued Green solve is the
        # reference
        k = 1e-3
        v = np.exp(-2.0 * model.s ** 2)
        assert forced.fix.rank >= 1
        got = resolvent(forced, k, v).dvalues
        _, ref = bvp.GluedSystem(model, k).apply(v)
        mask = np.abs(model.s) < 20
        rel = np.max(np.abs(got - ref)[mask]) / np.max(np.abs(ref[mask]))
        assert rel < 5e-2

    def test_k0_selection(self, par):
        ks = [1e-4, 1e-3, 1e-2, 0.05, 0.1]
        k0, sigma_min = par.choose_k0(ks)
        assert k0 >= 0.01
        # the smallest singular value at every lattice k, k0 the largest
        # k above the floor
        assert list(sigma_min) == ks
        assert k0 == max(k for k in ks if sigma_min[k] > px.K0_FLOOR)

    def test_k0_selection_rejects_singular_energy(self, par, monkeypatch):
        # an exactly singular system reads sigma_min 0.0, below the floor
        s_operator = par.s_operator

        def singular_at_005(k):
            inverse = s_operator(k)
            if k == 0.05:
                inverse.system[:, _neck_column(inverse)] = 0.0
            return inverse

        monkeypatch.setattr(par, "s_operator", singular_at_005)
        with pytest.warns(LinAlgWarning):
            k0, sigma_min = par.choose_k0([1e-2, 0.05])
        assert sigma_min[0.05] == 0.0 and sigma_min[1e-2] > px.K0_FLOOR
        assert k0 == 1e-2

    def test_k0_selection_without_full_svd(self, par, monkeypatch):
        svd = _count_calls(monkeypatch, np.linalg, "svd")
        par.choose_k0([1e-4, 1e-3, 1e-2, 0.05])
        assert svd == []

    @pytest.mark.parametrize("fixture", ["par", "forced", "long_par"])
    @pytest.mark.parametrize("k", [1e-2, 1e-3, 1e-4, math.exp(-256.0)])
    def test_resolvent_apply_matches_kernel(self, request, fixture, k):
        # the factored apply path against G's composition matrix and the
        # whole kernel S; the forced fix puts G4 into both G and E.  One
        # solve on the equilibrated system (cond a few hundred) holds the
        # bound; the unscaled matrix of Id + E missed it by 12x on long_par
        p = request.getfixturevalue(fixture)
        m = p.model
        v = np.exp(-2.0 * m.s ** 2)
        S, _, s_kink = s_kernel(p, k)
        ref = p.g_matrix(k) @ (v + S @ (m.weights * v) + s_kink * v)
        got = p.resolvent_apply(k, v)
        assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))

    def test_apply_path_memory(self, par, model):
        # one apply, and one choose_k0 energy, assemble one n x n matrix
        # (plus the solver's copy and error_kernel's temporaries)
        v = np.exp(-2.0 * model.s ** 2)
        unit = model.n ** 2 * np.dtype(float).itemsize
        for run in (lambda: par.resolvent_apply(1e-3, v),
                    lambda: par.choose_k0([1e-3])):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 3 * unit

    def test_resolvent_path_imports_no_riesz(self):
        # the library path of `connsum resolvent` in a fresh interpreter
        code = ("import sys\n"
                "from connsum import bvp, model as md, parametrix as px\n"
                "m = md.build_model()\n"
                "par = px.Parametrix(m, q=3, kbar=1.0,\n"
                "                    system=bvp.GluedSystem(m, 0.0))\n"
                "par.choose_k0([1e-4, 1e-3, 1e-2, 0.05])\n"
                "px.ilg_expansion(par, par.v_minus)\n"
                "print('connsum.riesz' in sys.modules)")
        src = str(Path(px.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             check=True, capture_output=True, text=True,
                             timeout=300)
        assert out.stdout.strip() == "False"

    def test_apply_path_solves_no_kernel(self, par, model, monkeypatch):
        # one apply: one error kernel, one inversion, one LU factorization
        # of the bordered matrix (order m + 2) and one LU solve for a
        # single right-hand side, with no n-column solve
        span = par.s_operator(1e-3).span
        order = span.stop - span.start + 2
        inverts = _count_calls(monkeypatch, px, "invert_error")
        errors = _count_calls(monkeypatch, px, "error_kernel")
        factors = _count_calls(monkeypatch, px, "lu_factor")
        lu_solves = _count_calls(monkeypatch, px, "lu_solve")
        solves = _count_calls(monkeypatch, np.linalg, "solve")
        v = np.exp(-2.0 * model.s ** 2)
        par.resolvent_apply(1e-3, v)
        assert len(inverts) == 1 and len(errors) == 1
        assert [a[0].shape for a in factors] == [(order, order)]
        assert [a[1].shape for a in lu_solves] == [(order,)]
        assert solves == []
        resolvent(par, 1e-3, v)
        resolvent(par, 1e-4, v)
        assert len(inverts) == 3 and len(errors) == 3


class TestIlgExpansion:
    def test_c0_and_residual_order(self, model, sys0):
        par3 = px.Parametrix(model, q=3, kbar=1.0, system=sys0)
        v = par3.v_minus
        out = px.ilg_expansion(par3, v)
        coef, mask = out.coefficients, out.mask
        sol = bvp.solve_laplace(model, v, system=sys0)
        rel0 = np.max(np.abs(coef[0] - sol.values[mask])) \
            / np.max(np.abs(sol.values[mask]))
        assert rel0 < 1e-4
        U = bvp.build_log_harmonic(model)
        beta_phi = -sol.beta  # phi solves Delta phi = -v
        rel1 = np.max(np.abs(coef[1] - beta_phi * U.values[mask])) \
            / np.max(np.abs(U.values[mask]))
        assert rel1 < 1e-3
        for terms in (2, 3):
            res = px.ilg_residual_order(par3, v, coef, mask, terms)
            assert res["order"] >= terms - 0.05
