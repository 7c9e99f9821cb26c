import math

import numpy as np
import pytest

from connsum.errors import ConfigError
from connsum import model as md
from connsum import specfun as sf
from connsum.quadrature import (cheb_cumint_matrix, clenshaw_curtis,
                                fornberg_weights)

from oracles import ModeChannel, apply_operator, cheb_diff_matrix


@pytest.fixture(scope="module")
def default_model():
    return md.build_model()


class TestBuildModel:
    def test_default_is_valid(self, default_model):
        m = default_model
        assert m.minus.euclidean_dim == 2
        assert m.plus.euclidean_dim == 3
        assert m.minus.total_dim == m.plus.total_dim == 3

    def test_invalid_dimension(self):
        with pytest.raises(ConfigError, match="invalid dimension"):
            md.build_model(md.GeometryConfig.from_dict({"n_plus": 2}))

    def test_dimension_consistency_enforced(self):
        cfg = md.GeometryConfig(n_plus=4)  # 2+1 != 4+0
        with pytest.raises(ConfigError, match="dimension mismatch"):
            md.ModelManifold(cfg)

    def test_non_ascending_spectrum(self):
        with pytest.raises(ConfigError, match="ascending"):
            md.CrossSection("explicit", 1, 1.0, (0.0, 4.0, 1.0))

    def test_spectrum_must_start_at_zero(self):
        with pytest.raises(ConfigError):
            md.CrossSection("explicit", 1, 1.0, (1.0, 4.0))

    def test_from_dict_keys(self):
        cfg = md.GeometryConfig.from_dict({
            "n_plus": 3,
            "spectra": {"minus": {"type": "circle", "length": 6.283185307179586},
                        "plus": {"type": "point"}},
            "R": 2.0, "S_minus": 64.0, "S_plus": 64.0,
            "grid": {"pts_per_decade": 48},
        })
        m = md.build_model(cfg)
        assert m.config.S_minus == 64.0

    def test_spectra_minus_alone_keeps_plus_default(self):
        cfg = md.GeometryConfig.from_dict(
            {"spectra": {"minus": {"type": "circle", "length": 3.0}}})
        assert cfg.minus_section == md.CrossSection.circle(3.0)
        assert cfg.plus_section == md.CrossSection.point()
        md.build_model(cfg)

    def test_spectra_plus_alone_keeps_minus_default(self):
        cfg = md.GeometryConfig.from_dict({"spectra": {"plus": {
            "dim": 0, "volume": 2.0, "spectrum": [0.0]}}})
        assert cfg.minus_section == md.CrossSection.circle()
        assert cfg.plus_section == md.CrossSection("explicit", 0, 2.0, (0.0,))
        md.build_model(cfg)

    @pytest.mark.parametrize("block", ["spectra"])
    def test_section_blocks_must_be_mappings(self, block):
        with pytest.raises(ConfigError, match="must be a mapping"):
            md.GeometryConfig.from_dict({block: ["minus"]})

    def test_volumes_block_is_unknown_key(self):
        # a cross-section's volume is set in its spectra entry only (the
        # explicit type's volume, a circle's length)
        with pytest.raises(ConfigError,
                           match="unknown geometry key 'volumes'"):
            md.GeometryConfig.from_dict({"volumes": {"minus": 3.0}})


class TestGrid:
    def test_grid_monotone_and_weights_positive(self, default_model):
        m = default_model
        assert np.all(np.diff(m.s) > 0)
        assert np.all(m.weights >= 0)
        assert np.all(m.v > 0)

    def test_quadrature_smooth_bump(self, default_model):
        # smooth bump, wide on the log scale, against adaptive quadrature
        from scipy.integrate import quad
        m = default_model
        f = np.exp(-((m.s + 7.0) / 3.0) ** 2)
        exact, _ = quad(lambda s: math.exp(-((s + 7.0) / 3.0) ** 2)
                        * float(m.weight(np.array([s]))[0]), -40, 10, limit=400)
        assert m.integrate(f) == pytest.approx(exact, rel=3e-6)

    def test_quadrature_global_decaying(self, default_model):
        from scipy.integrate import quad
        m = default_model
        f = 1.0 / (1.0 + m.s ** 2) ** 2
        exact = 0.0
        for a, b in zip(m.segment_bounds[:-1], m.segment_bounds[1:]):
            val, _ = quad(lambda s: (1 + s * s) ** -2.0
                          * float(m.weight(np.array([s]))[0]), a, b, limit=200)
            exact += val
        assert m.integrate(f) == pytest.approx(exact, rel=1e-6)

    def test_weight_matches_products_exactly(self, default_model):
        m = default_model
        on_minus = m.s <= -m.R
        np.testing.assert_allclose(
            m.v[on_minus], m.minus.weight_constant * (-m.s[on_minus]), rtol=1e-14)
        on_plus = m.s >= m.R
        np.testing.assert_allclose(
            m.v[on_plus], m.plus.weight_constant * m.s[on_plus] ** 2, rtol=1e-14)

    def test_neck_weight_smooth(self, default_model):
        # matched derivatives of log v at the junctions
        m = default_model
        for s0 in (-m.R, m.R):
            left = m.dlog_weight(np.array([s0 - 1e-9]))[0]
            right = m.dlog_weight(np.array([s0 + 1e-9]))[0]
            assert left == pytest.approx(right, rel=1e-6)
        # second log-derivative continuity by centered differences
        for s0 in (-m.R, m.R):
            h = 1e-4
            sec_out = (m.dlog_weight(np.array([s0 - h]))[0]
                       - m.dlog_weight(np.array([s0 - 3 * h]))[0]) / (2 * h)
            sec_in = (m.dlog_weight(np.array([s0 + 3 * h]))[0]
                      - m.dlog_weight(np.array([s0 + h]))[0]) / (2 * h)
            assert sec_out == pytest.approx(sec_in, rel=1e-2, abs=1e-6)


    @pytest.mark.parametrize("n", [33, 65, 579])
    def test_cumint_matrix_exact_on_chebyshev(self, n):
        # int_{-1}^t T_j from T_j(cos th) = cos(j th):
        # [T_{j+1}/(2(j+1)) - T_{j-1}/(2(j-1))] from -1 to t for j >= 2
        t, _ = clenshaw_curtis(n)
        th = np.arccos(t)
        j = np.arange(2, n)

        def T(deg):
            return np.cos(np.outer(th, deg))

        exact = np.empty((n, n))
        exact[:, 0] = t + 1.0
        exact[:, 1] = 0.5 * (t * t - 1.0)
        exact[:, 2:] = (T(j + 1) + (-1.0) ** j) / (2.0 * (j + 1)) \
            - (T(j - 1) + (-1.0) ** j) / (2.0 * (j - 1))
        got = cheb_cumint_matrix(n) @ T(np.arange(n))
        np.testing.assert_allclose(got, exact, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", [2, 33, 65, 129])
    def test_diff_matrix_matches_chebder(self, n):
        # D applied to the values of T_j gives the values of chebder(T_j)
        C = np.polynomial.chebyshev
        t, _ = clenshaw_curtis(n)
        exact = C.chebval(t, C.chebder(np.eye(n))).T
        got = cheb_diff_matrix(n) @ C.chebvander(t, n - 1)
        np.testing.assert_allclose(got, exact, rtol=0,
                                   atol=1e-13 * max(1.0, np.abs(exact).max()))

    def test_cumulative_integral_gaussian(self, default_model):
        # int_{s_0}^s e^{-x^2/100} dx = 5 sqrt(pi) (erf(s/10) - erf(s_0/10))
        m = default_model
        exact = 5.0 * math.sqrt(math.pi) * np.array(
            [math.erf(x / 10.0) - math.erf(m.s[0] / 10.0) for x in m.s])
        got = m.cumulative_integral(np.exp(-m.s ** 2 / 100.0))
        np.testing.assert_allclose(got, exact, rtol=0, atol=1e-12)

    def test_kink_rule_composes_ramp_and_step(self, default_model):
        # K(s, y) = |s - y| + H(y - s) (H(0) = 1/2) has, in y at y = s, the
        # slope jump 2 and the value jump 1.  The exact composition with
        # f v comes from the cumulative integrals F0 of f v and F1 of
        # s f v:  2 s F0 - 2 F1 + F1(end) - s F0(end) + F0(end) - F0.
        # The corrected sum reaches 7.0e-8 relative; the plain Nystrom sum
        # 1.0e-6, and the rule with the step sign flipped 1.0e-6.
        m = default_model
        s = m.s
        f = np.exp(-s ** 2 / 32.0)
        F0 = m.cumulative_integral(f * m.v)
        F1 = m.cumulative_integral(s * f * m.v)
        exact = 2.0 * s * F0 - 2.0 * F1 + F1[-1] - s * F0[-1] + F0[-1] - F0
        K = np.abs(s[:, None] - s[None, :]) \
            + np.where(s[None, :] > s[:, None], 1.0, 0.0)
        np.fill_diagonal(K, 0.5)
        plain = K @ (m.weights * f)
        corrected = plain + m.kink_diagonal(2.0, 1.0) * f

        def rel(x):
            return np.max(np.abs(x - exact)) / np.max(np.abs(exact))

        tol = 1e-7
        assert rel(corrected) < tol
        assert rel(plain) > 10 * tol

    @pytest.mark.parametrize("neck_pts,n_nodes", [(32, 719), (34, 721)])
    def test_neck_pts_sets_node_count(self, neck_pts, n_nodes):
        # neck_pts // 2 + 1 nodes per neck half, sharing the node at s = 0
        m = md.build_model(md.GeometryConfig.from_dict(
            {"grid": {"neck_pts": neck_pts}}))
        assert m.n == n_nodes


class TestRadial:
    def test_exact_on_ends(self, default_model):
        m = default_model
        assert m.radial(7.0) == 7.0
        assert m.radial(-33.5) == 33.5

    def test_neck_range(self, default_model):
        m = default_model
        sneck = np.linspace(-m.R, m.R, 401)
        r = m.radial(sneck)
        assert np.all(r >= 0.98)
        assert np.all(r <= m.R + 1e-12)
        assert m.radial(0.0) == pytest.approx(1.0, abs=0.02)

    def test_monotone_along_each_end(self, default_model):
        m = default_model
        s = np.linspace(m.R, m.config.S_plus, 300)
        assert np.all(np.diff(m.radial(s)) > 0)
        s = np.linspace(-m.config.S_minus, -m.R, 300)
        assert np.all(np.diff(m.radial(s)) < 0)


class TestRadialLaplacian:
    def test_constants_harmonic(self, default_model):
        m = default_model
        res = apply_operator(m, np.ones(m.n))
        assert np.max(np.abs(res)) < 2e-9

    def test_log_harmonic_on_minus(self, default_model):
        # Delta log r = 0 on the minus product region
        m = default_model
        u = np.where(m.mask_minus, np.log(m.r), 0.0)
        res = apply_operator(m, u)
        interior = m.s < -m.R - 0.5
        assert np.max(np.abs(res[interior])) < 1e-8

    def test_power_harmonic_on_plus(self, default_model):
        m = default_model
        u = np.where(m.mask_plus, m.r ** (2.0 - m.plus.euclidean_dim), 0.0)
        res = apply_operator(m, u)
        interior = m.s > m.R + 0.5
        assert np.max(np.abs(res[interior])) < 1e-8

    def test_channel_decaying_solution_matches_bessel(self, default_model):
        # integrate the (m=1, l=1) minus-channel ODE inward from the outer
        # radiation condition; compare with r -> c K_1(mu_1 r)
        from scipy.integrate import solve_ivp
        m = default_model
        ch = ModeChannel("minus", 1, 1)
        mu = m.minus.cross_section.mu(1)
        r1, r0 = 12.0, 3.0

        def rhs(r, y):
            u, up = y
            upp = -up / r + (ch.angular ** 2 / r ** 2 + mu ** 2) * u
            return [up, upp]

        kap0 = md.decaying_radial_logderiv(m.minus, 1, mu, r1)
        sol = solve_ivp(rhs, (r1, r0), [1.0, kap0], rtol=1e-10, atol=1e-14,
                        dense_output=True)
        rs = np.linspace(r0, r1, 40)
        num = sol.sol(rs)[0]
        ref = np.array([sf.bessel_K(1.0, mu * r) for r in rs])
        ref *= num[-1] / ref[-1]
        np.testing.assert_allclose(num, ref, rtol=1e-6)

    def test_discrete_symmetry(self, default_model):
        # <A u, w>_v = <u, A w>_v for interior-supported grid functions
        m = default_model
        rng = np.random.default_rng(7)
        A = md.band_matrix(md.radial_laplacian(m, k=0.3))
        inner = (np.abs(m.s) < 30)
        u = np.where(inner, np.exp(-0.1 * m.s ** 2) * (1 + 0.1 * np.sin(m.s)), 0.0)
        w = np.where(inner, np.exp(-0.05 * (m.s - 1) ** 2), 0.0)
        left = m.integrate((A @ u) * w)
        right = m.integrate(u * (A @ w))
        scale = m.integrate(np.abs((A @ u) * w)) + 1e-30
        assert abs(left - right) / scale < 5e-6

    def test_stencil_batch_matches_single_stencils(self, default_model):
        # the operators take all Fornberg stencils in one call: bitwise the
        # weights of one call per stencil
        x = default_model.s
        rows = np.arange(1, 120)
        cols = np.arange(7)[:, None] + np.clip(rows - 3, 0, len(x) - 7)
        batch = fornberg_weights(x[rows], x[cols], 2)
        for i, row in enumerate(rows):
            np.testing.assert_array_equal(
                batch[:, :, i], fornberg_weights(x[row], x[cols[:, i]], 2))

    def test_zero_channel_radiation_rows(self, default_model):
        # constants satisfy the k=0 glued radiation system up to the plus row
        m = default_model
        A = md.band_matrix(md.radial_laplacian(m, k=0.0))
        res = A @ np.ones(m.n)
        assert np.max(np.abs(res[:-1])) < 1e-9
        # plus-side row enforces u'/u = -(n-2)/r, nonzero on constants
        assert res[-1] != 0.0

    def test_radiation_logderiv_where_bessel_k_underflows(self, default_model):
        # k r = 800 on both ends: K_nu(800) ~ 1e-349 is below the double
        # range; the log-derivative is -k - (n - 1)/(2r) + O(1/(k r^2))
        m = default_model
        for s, end, orient in ((m.s[0], m.minus, -1.0),
                               (m.s[-1], m.plus, 1.0)):
            r = abs(s)
            k = 800.0 / r
            got = md.radiation_logderiv(m, k, s)
            expected = -k - (end.euclidean_dim - 1.0) / (2.0 * r)
            assert np.isfinite(got)
            assert orient * got == pytest.approx(expected, rel=1e-5)


def test_basepoint_outside_neck(default_model):
    m = default_model
    assert m.radii.basepoint > m.R
    assert m.radii.basepoint < m.radii.phi[0]
