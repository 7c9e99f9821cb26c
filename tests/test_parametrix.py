import copy
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import LinAlgWarning, solve_banded

from connsum import bvp, checks, model as md, parametrix as px
from connsum.fits import loglog_slope
from connsum.specfun import ilg

from oracles import resolvent, segment_interior


def resolvent_kernel(par, k):
    """The whole kernel of R(k) = G(k)(Id + S(k))."""
    return par.s_operator(k).right_compose(*par.g_kernel(k))


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
def forced(par, model):
    """A copy of `par` whose finite-rank fix repairs a degenerate E(0) with
    a known null vector, so that G4 (rank >= 1) enters G, d_s G and E(k)."""
    err0 = px.error_kernel(par.pieces, 0.0)
    w = par.pieces.weight
    q = model.weights
    g = np.exp(-model.s ** 2)
    # rank-one E with (Id + E) g = 0:  E = -g <g, .>_w / ||g||_w^2
    norm2 = float(np.dot(q / w ** 2, g * g))
    Edeg = err0.total - np.outer(g, g / w ** 2) / norm2 \
        - (err0.total * q[None, :]) @ np.outer(g, g / w ** 2) / norm2
    deg = px.ErrorOperator(model, 0.0, Edeg, np.zeros_like(Edeg), w,
                           np.zeros(model.n), np.zeros(model.n))
    out = copy.copy(par)
    out.fix = px.finite_rank_fix(par.pieces, err0=deg)
    return out


def _count_calls(monkeypatch, owner, name) -> list:
    """Replace owner.name by a wrapper that records each call."""
    calls = []
    orig = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestAssembly:
    def test_g1_support(self, par, model):
        # G1 vanishes whenever either argument is where phi_+- = 0
        G1 = par.pieces.g1(0.01)
        hole = np.abs(model.s) < model.radii.phi[0]
        assert np.all(G1[hole, :] == 0.0)
        assert np.all(G1[:, hole] == 0.0)

    def test_g3_left_factor_at_zero_energy(self, par):
        # u_+-(., 0) = -phi continuation
        for ka in (par.pieces.u_minus, par.pieces.u_plus):
            u0, _ = ka.u(0.0)
            np.testing.assert_array_equal(u0, -ka.stages[0].phi.values)

    def test_error_column_matches_operator(self, par, model):
        # (Delta + k^2) G~ applied to columns reproduces the closed-form
        # error kernel (mask: the kink-carrying segment of the column and
        # segment-edge differentiation nodes)
        k = 0.01
        Gt = par.pieces.g_tilde(k)
        E = px.error_kernel(par.pieces, k).total
        for j in (60, 230, 430, 700):
            lhs = md.apply_operator(model, Gt[:, j], k=k)
            rhs = E[:, j].copy()
            rhs[j] += 1.0 / model.weights[j]
            sel = segment_interior(model)
            for start, nn, _th, _jac, _kind in model.segments:
                if start <= j < start + nn:
                    sel[start:start + nn] = False
            scale = np.max(np.abs(E[:, j])) + 1e-30
            assert np.max(np.abs(lhs - rhs)[sel]) / scale < 1e-6

    def test_error_left_support_compact(self, par, model):
        for k in (0.0, 1e-3):
            E = par.error(k).total
            outside = np.abs(model.s) > model.radii.zeta[1] + 0.5
            assert np.max(np.abs(E[outside, :])) < 1e-20

    def test_error_prime_left_support_in_collar(self, par, model):
        err = px.error_kernel(par.pieces, 1e-3)
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
        E0 = par.error(0.0).total
        diffs = [px.hs_norm(model, par.error(math.exp(-2.0 ** j)).total - E0)
                 for j in (2, 4, 6, 7)]
        assert np.all(np.diff(diffs) < 0)
        assert diffs[-1] < 0.2 * diffs[0]


class TestFiniteRank:
    def test_default_model_already_invertible(self, par, monkeypatch):
        assert par.fix.rank == 0
        assert par.fix.sigma_before > 1e-3
        # without a null space no singular vectors are computed
        svd = _count_calls(monkeypatch, np.linalg, "svd")
        assert px.finite_rank_fix(par.pieces).rank == 0
        assert svd == []

    def test_synthetic_null_space_repaired(self, forced, model):
        fix = forced.fix
        assert fix.rank >= 1
        assert fix.sigma_after >= 10 * fix.threshold
        # psi_i supported in the neck: exact support check
        for psi in [b.values for b in fix.bumps]:
            assert np.all(psi[np.abs(model.s) > model.R] == 0.0)


class TestInversion:
    def test_identity_residual(self, par):
        for k in (1e-2, 1e-3, 1e-4):
            identity, _ = checks.identity_residuals(par, k)
            assert identity < 1e-8

    def test_sk_identity(self, par):
        _, sk_identity = checks.identity_residuals(par, 1e-3)
        assert sk_identity < 1e-8

    @pytest.mark.parametrize("k", [1e-2, 1e-3, 1e-4, math.exp(-256.0)])
    def test_s_apply_matches_kernel(self, par, model, k):
        v = np.exp(-2.0 * model.s ** 2)
        ref = par.s_operator(k).matrix @ v
        got = par.s_apply(k, v)
        assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("k", [1e-4, 1e-3, 1e-2, 0.05])
    def test_smallest_singular_value_matches_svd(self, par, model, k):
        M = px._weighted_operator(model, par.error(k).total, par.pieces.weight)
        ref = np.linalg.svd(M, compute_uv=False)[-1]
        assert abs(px.smallest_singular_value(M) - ref) < 1e-10 * ref

    def test_smallest_singular_value_of_singular_matrix(self):
        M = np.diag([1.0, 2.0, 0.0, 3.0])
        with pytest.warns(LinAlgWarning):
            assert px.smallest_singular_value(M) == 0.0

    def test_s_left_decay(self, par, model):
        # S(k) rapidly decaying in the left variable: exactly compactly
        # supported here, so sup r^M |S| is finite for M <= 4
        S = par.s_operator(1e-3).s_kernel
        for M in range(5):
            vals = model.r[:, None] ** M * np.abs(S)
            assert np.isfinite(np.max(vals))
        outside = np.abs(model.s) > model.radii.zeta[1] + 0.5
        assert np.max(np.abs(S[outside, :])) < 1e-14


class TestResolvent:
    def test_matches_radiation_oracle(self, par, model):
        v = np.exp(-2.0 * model.s ** 2)
        for k in (1e-2, 1e-3, 1e-4):
            assert checks.radiation_oracle_error(par, k, v) < 1e-5

    def test_oracle_band_storage(self, model):
        # the oracle matrix lies inside its bands, and the band solve is
        # the dense solve
        width = checks.ORACLE_ORDER
        rhs = np.exp(-2.0 * model.s ** 2)
        rhs[0] = rhs[-1] = 0.0
        for k in (1e-2, 1e-4):
            A = md.radial_laplacian(model, None, k=k, order=width)
            ab = checks._band_storage(A, width)
            assert np.count_nonzero(ab) == np.count_nonzero(A)
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
        A0 = np.eye(model.n) + err.total * q[None, :]
        S0 = np.linalg.solve(A0, -err.total)
        algebra_res = A0 @ (v + (S0 * q[None, :]) @ v) - v
        assert np.max(np.abs(algebra_res)) < 1e-7 * np.max(np.abs(v))
        # and through the independent differentiation route, where the
        # composition-error pattern is amplified by the second derivative
        Rv = par.resolvent_apply(k, v)
        res = md.apply_operator(model, Rv, k=k) - v
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
        Gt = par.pieces.g_tilde(1e-3)
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
        g1_vals = np.array([par.pieces.g1(k)[jm, jm + 2] for k in ks])
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

    def test_k0_selection_without_full_svd(self, par, monkeypatch):
        svd = _count_calls(monkeypatch, np.linalg, "svd")
        par.choose_k0([1e-4, 1e-3, 1e-2, 0.05])
        assert svd == []

    @pytest.mark.parametrize("fixture", ["par", "forced"])
    @pytest.mark.parametrize("k", [1e-2, 1e-4, math.exp(-256.0)])
    def test_resolvent_apply_matches_kernel(self, request, model, fixture,
                                            k):
        # the factored apply path against G's composition matrix and the
        # whole kernel S; the forced fix puts G4 into both G and E.  The
        # bound is cond(Id + E) ~ 4e3 times rounding, with room to spare
        p = request.getfixturevalue(fixture)
        v = np.exp(-2.0 * model.s ** 2)
        ref = p.g_kernel(k)[1] @ (v + p.s_operator(k).matrix @ v)
        got = p.resolvent_apply(k, v)
        assert np.max(np.abs(got - ref)) < 1e-10 * np.max(np.abs(ref))

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
                "px.ilg_expansion(par, par.pieces.v_minus)\n"
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
        inverts = _count_calls(monkeypatch, px, "invert_error")
        errors = _count_calls(monkeypatch, px, "error_kernel")
        v = np.exp(-2.0 * model.s ** 2)
        par.resolvent_apply(1e-3, v)
        assert inverts == [] and len(errors) == 1
        resolvent(par, 1e-3, v)
        resolvent(par, 1e-4, v)
        assert inverts == [] and len(errors) == 3


class TestIlgExpansion:
    def test_c0_and_residual_order(self, model, sys0):
        par3 = px.Parametrix(model, q=3, kbar=1.0, system=sys0)
        v = par3.pieces.v_minus
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
