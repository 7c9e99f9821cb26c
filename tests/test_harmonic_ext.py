import math

import numpy as np
import pytest

from connsum import harmonic_ext as hx
from connsum import model as md
from connsum import specfun as sf
from connsum.errors import DomainError, TruncationError


@pytest.fixture(scope="module")
def model():
    return md.build_model()


@pytest.fixture(scope="module")
def minus_end(model):
    return model.minus


@pytest.fixture(scope="module")
def plus_end(model):
    return model.plus


R = 2.0


def sup_bound(u, r):
    """sum over channels of |coefficient| * |profile(r)|; with angular
    factors bounded by one this dominates sup |u| on the sphere of
    radius r."""
    return sum(np.abs(u.channel_values(m, l, r)) for (m, l) in u.data.coeffs)


class TestExtendMinus:
    def test_constant_extends_to_constant(self, minus_end):
        f = hx.BoundaryData.constant("minus", R)
        u = hx.extend_minus(minus_end, f)
        r = np.array([2.0, 5.0, 50.0, 1e4])
        np.testing.assert_allclose(u.channel_values(0, 0, r), 1.0, rtol=1e-15)
        # the value at infinity is the (0, 0) coefficient
        assert u.data.coeffs.get((0, 0), 0.0) == 1.0

    def test_pure_angular_mode(self, minus_end):
        # f = e^{i theta}: profile (r/2)^{-1}
        f = hx.BoundaryData("minus", R, {(1, 0): 1.0})
        u = hx.extend_minus(minus_end, f)
        r = np.array([2.0, 4.0, 20.0])
        np.testing.assert_allclose(u.channel_values(1, 0, r), (r / 2.0) ** -1,
                                   rtol=1e-14)

    def test_cross_section_mode_profile(self, minus_end):
        f = hx.BoundaryData("minus", R, {(0, 1): 1.0})
        u = hx.extend_minus(minus_end, f)
        mu = minus_end.cross_section.mu(1)
        r = np.array([2.0, 3.0, 7.0])
        expected = np.array([sf.bessel_K(0.0, mu * ri) for ri in r])
        expected /= sf.bessel_K(0.0, mu * R)
        np.testing.assert_allclose(u.channel_values(0, 1, r), expected, rtol=1e-13)

    def test_ode_residual_small(self, minus_end):
        f = hx.BoundaryData("minus", R, {(0, 1): 1.0, (2, 1): 0.5, (3, 0): 1.0})
        u = hx.extend_minus(minus_end, f)
        r = np.linspace(2.5, 12.0, 25)
        for (m, l) in f.coeffs:
            res = u.ode_residual(m, l, r)
            val, _ = u.profile(m, l)
            scale = np.max(np.abs(val(r))) * (1 + minus_end.cross_section.eigenvalues[l])
            assert np.max(np.abs(res)) / scale < 1e-8

    def test_wrong_end_rejected(self, minus_end):
        with pytest.raises(DomainError):
            hx.extend_minus(minus_end, hx.BoundaryData.constant("plus", R))

    def test_truncation_guard(self, minus_end):
        too_deep = len(minus_end.cross_section.eigenvalues) + 3
        with pytest.raises(TruncationError):
            hx.extend_minus(minus_end, hx.BoundaryData("minus", R, {(0, too_deep): 1.0}))


class TestExtendPlus:
    def test_constant_gives_green_power(self, plus_end):
        # n=3, R=2: u = 2/r
        f = hx.BoundaryData.constant("plus", R)
        u = hx.extend_plus(plus_end, f)
        r = np.array([2.0, 4.0, 100.0])
        np.testing.assert_allclose(u.channel_values(0, 0, r), 2.0 / r, rtol=1e-14)

    def test_degree_one_harmonic(self, plus_end):
        # degree-1 spherical harmonic with R=1: r^{-2} profile
        f = hx.BoundaryData("plus", 1.0, {(1, 0): 1.0})
        u = hx.extend_plus(plus_end, f)
        r = np.array([1.0, 2.0, 10.0])
        np.testing.assert_allclose(u.channel_values(1, 0, r), r ** -2.0, rtol=1e-14)

    def test_decay_bound(self, plus_end):
        f = hx.BoundaryData("plus", R, {(0, 0): 0.7, (1, 0): 0.2, (2, 0): 0.1})
        u = hx.extend_plus(plus_end, f)
        r = 10 * R
        supf = sum(abs(c) for c in f.coeffs.values())
        assert sup_bound(u, np.array([r]))[0] <= 10.0 ** (2 - 3) * supf * 1.05

    def test_limit_zero(self, plus_end):
        u = hx.extend_plus(plus_end, hx.BoundaryData.constant("plus", R))
        assert u.channel_values(0, 0, np.array([1e12]))[0] == \
            pytest.approx(0.0, abs=1e-11)


class TestDtN:
    def test_constant_minus_maps_to_zero(self, minus_end):
        assert hx.dtn_multiplier(minus_end, 0, 0, R) == 0.0

    def test_angular_multiplier_exact(self, minus_end):
        # lambda = |m| / R
        for radius in (1.0, R):
            for m in (1, 2, 3, 7):
                assert hx.dtn_multiplier(minus_end, m, 0, radius) == \
                    pytest.approx(m / radius, rel=1e-14)

    def test_plus_constant_multiplier(self, plus_end):
        # u = 2/r at R=2: -u'(2) = 2/4 = 1/2
        assert hx.dtn_multiplier(plus_end, 0, 0, R) == \
            pytest.approx(0.5, rel=1e-14)

    def test_multiplier_is_minus_normal_derivative(self, minus_end, plus_end):
        sec = md.CrossSection("explicit", 2, 1.0, (0.0, 0.5, 3.0, 8.0))
        end4 = md.EndSpec(4, sec, R)
        for end, tag, channels in (
                (minus_end, "minus", [(0, 1), (3, 2), (2, 0)]),
                (plus_end, "plus", [(0, 0), (1, 0), (4, 0)]),
                (end4, "plus", [(0, 0), (2, 0), (0, 1), (1, 2), (3, 3)])):
            u = hx.HarmonicExtension(end, hx.BoundaryData(tag, R))
            for (m, l) in channels:
                lam = hx.dtn_multiplier(end, m, l, R)
                val, der = u.profile(m, l)
                assert float(val(R)) == pytest.approx(1.0, rel=1e-15)
                assert lam == pytest.approx(-float(der(R)), rel=1e-12)

    def test_multiplier_is_minus_decaying_logderiv(self, minus_end, plus_end):
        # the DtN multiplier is the radiation log-derivative, bit for bit
        for end in (minus_end, plus_end):
            for m in range(0, 21, 4):
                for l in range(len(end.cross_section.eigenvalues)):
                    mu = end.cross_section.mu(l)
                    assert hx.dtn_multiplier(end, m, l, R) == \
                        -md.decaying_radial_logderiv(end, m, mu, R)

    def test_multiplier_where_bessel_k_underflows(self):
        # mu R = 800: K_nu(800) ~ 1e-349 is below the double range; the
        # multiplier is mu + (n - 1)/(2R) + O(1/(mu R^2))
        sec = md.CrossSection("explicit", 1, 1.0, (0.0, (800.0 / R) ** 2))
        for n in (2, 3):
            lam = hx.dtn_multiplier(md.EndSpec(n, sec, R), 0, 1, R)
            assert math.isfinite(lam)
            assert lam == pytest.approx(800.0 / R + (n - 1.0) / (2.0 * R),
                                        rel=1e-5)

    def test_nonnegative_on_minus(self, minus_end):
        for (m, l) in [(0, 0), (1, 0), (0, 1), (4, 3)]:
            assert hx.dtn_multiplier(minus_end, m, l, R) >= 0.0

    def test_symbol_ratios(self, minus_end, plus_end):
        # cross-section ratio at mu R = 50 within 5% of 1
        sec = md.CrossSection("explicit", 1, 2 * math.pi, (0.0, (50.0 / R) ** 2))
        end2 = md.EndSpec(2, sec, R)
        chk = hx.dtn_symbol_check(end2, R)
        assert abs(chk["cross_at_largest"] - 1.0) < 0.03
        end3 = md.EndSpec(3, sec, R)
        chk3 = hx.dtn_symbol_check(end3, R)
        assert abs(chk3["cross_at_largest"] - 1.0) < 0.05


class TestAsymptotics:
    def test_expansion_remainder_power(self, minus_end):
        # |u - partial sum| r^{M+1} stays bounded along a geometric sweep
        coeffs = {(m, l): math.exp(-1.5 * m - 2.0 * l) for m in range(6)
                  for l in range(3)}
        u = hx.extend_minus(minus_end, hx.BoundaryData("minus", R, coeffs))
        rs = R * 2.0 ** np.arange(1, 9)
        for M in range(5):
            tail = np.zeros_like(rs)
            for (m, l) in coeffs:
                if l == 0 and m <= M:
                    continue
                tail += np.abs(u.channel_values(m, l, rs))
            scaled = tail * rs ** (M + 1)
            assert scaled[-1] <= scaled[0] * 1.01

    def test_aggregate_exponential_decay(self, minus_end):
        coeffs = {(m, l): math.exp(-m - l) for m in range(4) for l in range(1, 4)}
        u = hx.extend_minus(minus_end, hx.BoundaryData("minus", R, coeffs))
        mu1 = minus_end.cross_section.mu(1)
        rs = np.array([4.0, 8.0, 16.0])
        vals = sup_bound(u, rs)
        c = 0.95 * mu1
        # decays at least like e^{-c (r - R)} with c just below mu_1
        ratio = vals / np.exp(-c * (rs - R))
        assert np.all(np.diff(ratio) < 0)

    def test_term_by_term_derivative(self, minus_end):
        coeffs = {(1, 0): 0.4, (0, 1): 1.0, (2, 1): 0.3}
        u = hx.extend_minus(minus_end, hx.BoundaryData("minus", R, coeffs))
        rs = np.linspace(3.0, 9.0, 7)
        h = 1e-6
        for (m, l) in coeffs:
            fd = (u.channel_values(m, l, rs + h) - u.channel_values(m, l, rs - h)) / (2 * h)
            an = coeffs[(m, l)] * u.profile(m, l)[1](rs)
            np.testing.assert_allclose(an, fd, rtol=1e-5)

    def test_reextension_consistency(self, minus_end, plus_end):
        # extend from R, restrict to R' > R, re-extend: same function
        for end, tag, builder in ((minus_end, "minus", hx.extend_minus),
                                  (plus_end, "plus", hx.extend_plus)):
            coeffs = {(0, 0): 1.0, (1, 0): 0.5, (2, 0): 0.25}
            if tag == "minus":
                coeffs[(0, 1)] = 0.25
            u = builder(end, hx.BoundaryData(tag, R, coeffs))
            Rp = 5.0
            new_coeffs = {ch: float(u.channel_values(*ch, np.array([Rp]))[0])
                          for ch in coeffs}
            u2 = builder(end, hx.BoundaryData(tag, Rp, new_coeffs))
            rs = np.array([6.0, 11.0, 30.0])
            for ch in coeffs:
                np.testing.assert_allclose(u2.channel_values(*ch, rs),
                                           u.channel_values(*ch, rs), rtol=1e-12)
