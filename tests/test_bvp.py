import tracemalloc

import numpy as np
import pytest
from scipy import special

from connsum import bvp, checks
from connsum import model as md
from connsum import specfun as sf
from connsum.errors import DomainError

from oracles import apply_operator, log_harmonic_remainder, segment_interior


# ---------------------------------------------------------------------------
# probes of the uniqueness statements behind the discrete DtN problem


def smallest_singular_value(prob: bvp.NeckProblem,
                            dual_weight: np.ndarray | None = None) -> float:
    """min over u of ||A u||_{L^2(dV)} / ||u||, with ||u|| either the
    plain L^2(dV) norm or the dual-weighted norm ||w u||_{L^2(dV)}."""
    q = np.sqrt(prob.model.weights[prob.idx])
    M = q[:, None] * prob.matrix
    if dual_weight is None:
        M = M / q[None, :]
    else:
        M = M / (dual_weight * q)[None, :]
    return float(np.linalg.svd(M, compute_uv=False)[-1])


def dual_weight_uniqueness_probe(model: md.ModelManifold, weight: np.ndarray,
                                 refinements: tuple[float, ...] = (8.0, 12.0, 16.0),
                                 r_maxes: tuple[float, ...] = (16.0, 32.0, 64.0, 128.0)):
    """Two numerical statements behind the density of the range of Delta:

    * the constrained discrete DtN system has no null vector: its smallest
      singular value (in the dual-weighted metric) stays bounded away from
      zero as the compact domain grows;
    * the log-growing harmonic function is not in L^2 of the dual weight:
      its truncated norm grows like log R_max (reported, not asserted).
    """
    svals = []
    for rad in refinements:
        prob = bvp.NeckProblem(model, domain_radius=rad)
        wsub = weight[prob.idx]
        svals.append(smallest_singular_value(prob, dual_weight=wsub))
    U = bvp.build_log_harmonic(model)
    norms = []
    for rmax in r_maxes:
        mask = (model.r <= rmax)
        integrand = (U.values * weight) ** 2
        norms.append(float(np.dot(model.weights[mask], integrand[mask])))
    growth = np.polyfit(np.log(np.asarray(r_maxes)), np.asarray(norms), 1)[0]
    return {"singular_values": svals,
            "log_norms": norms,
            "log_norm_growth_per_log_R": float(growth),
            "diverges": bool(np.all(np.diff(norms) > 0) and growth > 0)}


def boundary_symbol_check(xi_prime: float, xi_n: float) -> complex:
    """Action of the boundary symbol b = i xi_n + i D_t - |xi'| on the
    unique bounded solution e^{-(|xi'| + i xi_n) t} of the interior model
    ODE, evaluated at t = 0.  Equals -2 |xi'|: nonzero whenever xi' != 0,
    the Lopatinski-Shapiro condition for this boundary problem."""
    lam = abs(xi_prime) + 1j * xi_n

    def u(t):
        return np.exp(-lam * t)

    h = 1e-6
    du0 = (u(h) - u(-h)) / (2 * h)
    return 1j * xi_n * u(0.0) + du0 - abs(xi_prime) * u(0.0)


@pytest.fixture(scope="module")
def model():
    return md.build_model()


@pytest.fixture(scope="module")
def sys0(model):
    return bvp.GluedSystem(model, 0.0)


class TestGluedSystem:
    def test_wronskian_constant(self, model, sys0):
        # v (uL uR' - uL' uR) is constant across the whole axis
        assert sys0.wronskian_spread < 1e-9

    def test_wronskian_value_k0(self, model, sys0):
        # on the plus region: -v uR' = c_plus (n-2) R^{n-2}
        n = model.plus.euclidean_dim
        expected = model.plus.weight_constant * (n - 2.0) * model.R ** (n - 2)
        assert sys0.wronskian == pytest.approx(expected, rel=1e-10)

    def test_uL_constant_at_zero_energy(self, sys0):
        np.testing.assert_allclose(sys0.uL, 1.0, atol=1e-11)
        np.testing.assert_allclose(sys0.uLp, 0.0, atol=1e-11)

    def test_uR_exact_on_plus(self, model, sys0):
        pl = model.mask_plus
        np.testing.assert_allclose(sys0.uR[pl], (model.s[pl] / model.R) ** -1,
                                   rtol=1e-13)

    def test_uR_log_growth_on_minus(self, model, sys0):
        # uR = A + B log(r/R) on the minus region with B != 0
        mi = model.mask_minus
        r = model.r[mi]
        coef = np.polyfit(np.log(r), sys0.uR[mi], 1)
        assert abs(coef[0]) > 1e-3
        fit = np.polyval(coef, np.log(r))
        np.testing.assert_allclose(sys0.uR[mi], fit, atol=1e-9 * np.max(np.abs(fit)))

    def test_positive_energy_branches(self, model):
        sysk = bvp.GluedSystem(model, 0.05)
        assert sysk.wronskian_spread < 1e-8
        mi = model.mask_minus
        expected = sf.bessel_K(0.0, 0.05 * model.r[mi]) / sf.bessel_K(0.0, 0.05 * model.R)
        got = sysk.uL[mi] * np.exp(sysk.exp_l[mi])
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    @pytest.mark.parametrize("n_plus", [3, 4])
    @pytest.mark.parametrize("k", [0.0, 0.05, 0.7])
    def test_decaying_branches_match_channel_profile(self, n_plus, k):
        # the decaying branch of each end, uL on the minus end and uR on
        # the plus end in hat form, with d/ds = -+ d/dr, against the
        # closed form (r/R)^{-nu} kve_nu(k r) / kve_nu(k R) of the hat
        # profile, nu = n/2 - 1, and d/dr = -k (r/R)^{-nu}
        # kve_{nu+1}(k r) / kve_nu(k R) (at k = 0 the powers (r/R)^{2-n}
        # and (2 - n) r^{1-n} R^{n-2})
        minus_dim = n_plus - 2
        section = md.CrossSection.circle() if minus_dim == 1 else \
            md.CrossSection("explicit", minus_dim, 4 * np.pi, (0.0, 2.0, 6.0))
        m = md.build_model(md.GeometryConfig(n_plus=n_plus,
                                             minus_section=section))
        sysk = bvp.GluedSystem(m, k)
        for n, mask, val, dval, orient in (
                (2, m.mask_minus, sysk.uL, sysk.uLp, -1.0),
                (n_plus, m.mask_plus, sysk.uR, sysk.uRp, 1.0)):
            nu = 0.5 * n - 1.0
            r, R = m.r[mask], m.R
            if k == 0.0:
                ref = (r / R) ** (2.0 - n)
                dref = (2.0 - n) / R * (r / R) ** (1.0 - n)
            else:
                den = special.kve(nu, k * R)
                ref = (r / R) ** -nu * special.kve(nu, k * r) / den
                dref = -k * (r / R) ** -nu * special.kve(nu + 1.0, k * r) / den
            np.testing.assert_allclose(val[mask], ref, rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(dval[mask], orient * dref,
                                       rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("k", [1e-3, 0.3])
    def test_decaying_pairs_evaluated_once(self, model, k, monkeypatch):
        # each end's decaying pair is the near branch of one solution and
        # the far branch of the other, and is evaluated on the end's nodes
        # once per build: K_nu and K_{nu+1} there, nothing more
        calls = []
        bessel_K = sf.bessel_K

        def recording(order, x, *args, **kwargs):
            calls.append((order, np.array(x, dtype=float)))
            return bessel_K(order, x, *args, **kwargs)

        monkeypatch.setattr(sf, "bessel_K", recording)
        bvp.GluedSystem(model, k)
        for end, mask in (("minus", model.mask_minus),
                          ("plus", model.mask_plus)):
            nodes = k * model.r[mask]
            orders = sorted(order for order, x in calls
                            if x.shape == nodes.shape
                            and np.array_equal(x, nodes))
            nu = 0.5 * model.end_spec(end).euclidean_dim - 1.0
            assert orders == [nu, nu + 1.0], end

    @pytest.mark.parametrize("k", [0.0, 1e-3, 0.3])
    def test_collocation_cache_is_safe(self, k):
        # the energy-independent neck collocation pieces are cached on the
        # model: a model that has served other energies builds the same
        # bits as a fresh one, and the cached arrays are read-only
        used = md.build_model()
        for other in (0.7, 0.0, 2e-2):
            bvp.GluedSystem(used, other)
        got = bvp.GluedSystem(used, k)
        want = bvp.GluedSystem(md.build_model(), k)
        for name in ("uL", "uLp", "uR", "uRp"):
            assert getattr(got, name).tobytes() \
                == getattr(want, name).tobytes(), name
        assert got.wronskian == want.wronskian
        for pieces in used.neck_marching.values():
            for _start, *arrays in pieces:
                assert not any(a.flags.writeable for a in arrays)

    def test_green_kernel_positive(self, model):
        sysk = bvp.GluedSystem(model, 0.01)
        K = sysk.kernel_matrix()
        assert np.all(K > 0)
        np.testing.assert_allclose(K, K.T, rtol=1e-12)

    @pytest.mark.parametrize("build", ["kernel_matrix", "kernel_dleft"])
    def test_kernel_build_peak_memory(self, model, build):
        # one build holds its n x n result and per-block temporaries only
        sysk = bvp.GluedSystem(model, 0.05)
        tracemalloc.start()
        try:
            getattr(sysk, build)()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * model.n ** 2 * 8


class TestSolveLaplace:
    def test_zero_source(self, model, sys0):
        sol = bvp.solve_laplace(model, np.zeros(model.n), system=sys0)
        assert np.max(np.abs(sol.values)) == 0.0
        assert sol.beta == 0.0

    def test_exact_bump_inverse(self, model, sys0):
        # F = Delta phi for an analytic neck bump: u recovers phi, beta = 0
        s = model.s
        phi = np.exp(-2.0 * s ** 2)
        d1 = -4.0 * s * phi
        d2 = (16.0 * s ** 2 - 4.0) * phi
        lap = model.laplacian(d1, d2)
        sol = bvp.solve_laplace(model, lap, system=sys0)
        assert abs(sol.beta) < 1e-10
        np.testing.assert_allclose(sol.values, phi, atol=3e-8)

    def test_discrete_operator_residual(self, model, sys0):
        F = np.exp(-model.s ** 2)
        sol = bvp.solve_laplace(model, F, system=sys0)
        res = apply_operator(model, sol.values) - F
        interior = (np.abs(model.s) < 100.0) & segment_interior(model)
        assert np.max(np.abs(res[interior])) < 1e-8 * np.max(np.abs(F))

    def test_beta_linearity(self, model, sys0):
        b1 = np.exp(-2.0 * (model.s - 0.5) ** 2)
        b2 = np.exp(-2.0 * (model.s + 0.7) ** 2)
        s1 = bvp.solve_laplace(model, b1, system=sys0)
        s2 = bvp.solve_laplace(model, b2, system=sys0)
        s12 = bvp.solve_laplace(model, b1 + b2, system=sys0)
        assert s12.beta == pytest.approx(s1.beta + s2.beta, rel=1e-12)

    def test_asymptotics(self, model, sys0):
        # beta on the minus side is attained exactly beyond the source
        sol = bvp.solve_laplace(model, np.exp(-2.0 * model.s ** 2), system=sys0)
        far = model.s < -5.0
        np.testing.assert_allclose(sol.values[far], sol.beta, rtol=1e-10)
        # plus side: exact power decay
        farp = model.s > 5.0
        expected = sol.plus_coeff * (model.s[farp] / model.R) ** -1
        np.testing.assert_allclose(sol.values[farp], expected, rtol=1e-9)

    def test_flux_identity(self, model, sys0):
        # energy identity: v u' tends to 0 on the minus end, to -plus_coeff
        # * W-type constant on the plus end; both fluxes then vanish in the
        # surface-integral sense r * u' -> 0 (minus), r^2 u' bounded (plus)
        sol = bvp.solve_laplace(model, np.exp(-2.0 * model.s ** 2), system=sys0)
        mi_far = model.s < -20
        assert np.max(np.abs(model.r[mi_far] * sol.dvalues[mi_far])) < 1e-10
        pl_far = model.s > 20
        flux = model.r[pl_far] * sol.dvalues[pl_far]
        assert np.max(np.abs(flux)) < np.abs(sol.plus_coeff)

    def test_support_guard(self, model, sys0):
        F = np.ones(model.n)
        with pytest.raises(DomainError):
            bvp.solve_laplace(model, F, system=sys0)

    def test_against_discrete_oracle(self, model, sys0):
        # independent route: high-order FD solve with radiation rows
        F = np.exp(-1.5 * model.s ** 2)
        sol = bvp.solve_laplace(model, F, system=sys0)
        A = md.band_matrix(md.radial_laplacian(model, k=0.0, order=6))
        rhs = F.copy()
        rhs[0] = rhs[-1] = 0.0
        u_fd = np.linalg.solve(A, rhs)
        # the FD solution is defined up to discretization error only
        scale = np.max(np.abs(sol.values))
        np.testing.assert_allclose(u_fd, sol.values, atol=2e-7 * scale)


class TestLogHarmonic:
    def test_minus_asymptotics_exact(self, model):
        U = bvp.build_log_harmonic(model)
        _, rem = log_harmonic_remainder(model, U)
        assert np.max(rem) <= 1e-10 * max(1.0, abs(U.c1))

    def test_plus_decay_power(self, model):
        U = bvp.build_log_harmonic(model)
        farp = model.s > 5.0
        r = model.r[farp]
        # fitted decay exponent of |U| on the plus end: -(n-2) = -1
        slope = np.polyfit(np.log(r), np.log(np.abs(U.values[farp])), 1)[0]
        assert slope == pytest.approx(-1.0, abs=1e-6)

    def test_globally_harmonic(self, model):
        U = bvp.build_log_harmonic(model)
        res = apply_operator(model, U.values)
        interior = (np.abs(model.s) < 100.0) & segment_interior(model)
        assert np.max(np.abs(res[interior])) < 1e-8
        # segment-corner nodes see endpoint differentiation noise only
        assert np.max(np.abs(res[np.abs(model.s) < 100.0])) < 1e-7

    def test_r_times_U_bounded_on_plus(self, model):
        U = bvp.build_log_harmonic(model)
        farp = model.s > 5.0
        vals = model.r[farp] * U.values[farp]
        assert np.max(np.abs(vals)) < 10 * np.abs(vals[0]) + 1.0


class TestNeckProblem:
    def test_homogeneous_only_trivial(self, model):
        assert checks.homogeneous_norm(model) < 1e-10

    def test_matches_green_solve(self, model, sys0):
        prob = bvp.NeckProblem(model, domain_radius=12.0)
        F_full = np.exp(-2.0 * model.s ** 2)
        sol = bvp.solve_laplace(model, F_full, system=sys0)
        u = prob.solve(F_full[prob.idx])
        scale = np.max(np.abs(sol.values))
        # the neck problem is a second-to-fourth-order discrete apparatus
        np.testing.assert_allclose(u, sol.values[prob.idx], atol=5e-5 * scale)

    def test_beta_matches(self, model, sys0):
        # the minus boundary value of the neck solve is the extension
        # constant, i.e. beta
        prob = bvp.NeckProblem(model, domain_radius=12.0)
        F_full = np.exp(-2.0 * model.s ** 2)
        sol = bvp.solve_laplace(model, F_full, system=sys0)
        u = prob.solve(F_full[prob.idx])
        assert u[0] == pytest.approx(sol.beta, rel=1e-5)

    def test_self_adjointness(self, model):
        # <A u, w>_v = <u, A w>_v on DtN-compatible functions: checked on
        # interior bumps (boundary rows inactive on their support)
        prob = bvp.NeckProblem(model, domain_radius=12.0)
        q = model.weights[prob.idx]
        b1 = np.exp(-2.0 * (prob.s + 1.0) ** 2)
        b2 = np.exp(-2.0 * (prob.s - 0.5) ** 2)
        A = prob.matrix
        left = np.dot(q, (A @ b1) * b2)
        right = np.dot(q, b1 * (A @ b2))
        scale = np.dot(q, np.abs((A @ b1) * b2)) + 1e-30
        assert abs(left - right) / scale < 5e-6

    @pytest.mark.parametrize("order", [4, 6])
    def test_interior_rows_match_radial_laplacian(self, model, order,
                                                  monkeypatch):
        # the neck problem is the glued zero-energy operator on a sub-grid:
        # rows whose stencil stays inside it are rows of the full operator
        monkeypatch.setattr(bvp, "NECK_ORDER", order)
        full = md.band_matrix(md.radial_laplacian(model, k=0.0,
                                                  order=order))
        for rad in (8.0, 12.0):
            prob = bvp.NeckProblem(model, domain_radius=rad)
            half = (order + 1) // 2
            inner = slice(half, len(prob.idx) - order + half)
            rows = prob.idx[inner]
            assert np.array_equal(prob.matrix[inner],
                                  full[np.ix_(rows, prob.idx)])
            outside = np.delete(np.arange(model.n), prob.idx)
            assert not np.any(full[np.ix_(rows, outside)])

    def test_singular_value_positive_under_refinement(self, model):
        svals = [smallest_singular_value(bvp.NeckProblem(model,
                                                         domain_radius=rad))
                 for rad in (8.0, 12.0, 16.0)]
        assert all(s > 1e-8 for s in svals)


class TestDualWeightProbe:
    def test_probe(self, model):
        from connsum.parametrix import weight_w
        w = weight_w(model)
        out = dual_weight_uniqueness_probe(model, w)
        assert all(s > 0 for s in out["singular_values"])
        assert out["diverges"]
        assert out["log_norm_growth_per_log_R"] > 0


def test_boundary_symbol_check():
    for xi_p, xi_n in [(1.0, 0.0), (2.0, 3.0), (0.5, -1.0)]:
        val = boundary_symbol_check(xi_p, xi_n)
        assert val == pytest.approx(-2.0 * abs(xi_p), rel=1e-5)
    assert abs(boundary_symbol_check(3.0, 1.0)) > 1.0
