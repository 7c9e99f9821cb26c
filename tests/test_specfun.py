import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from connsum.errors import DomainError, NonConvergenceError
from connsum import checks, specfun as sf

from oracles import bessel_K_adaptive

# reference values frozen from the adaptive quadrature of the integral
# representation (30-digit tanh-sinh runs)
K0_1 = 0.42102443824070833334
K0_HALF = 0.92441907122766586178
K1_1 = 0.60190723019723457474
KHALF_1 = 0.46106850444789455844
K3_1 = 7.101262824737944506

RNG = np.random.default_rng(20260808)


class TestBesselK:
    def test_half_order_closed_form(self):
        assert sf.bessel_K(0.5, 1.0) == pytest.approx(
            math.sqrt(math.pi / 2) * math.exp(-1.0), rel=1e-13)

    def test_frozen_values(self):
        assert sf.bessel_K(0.0, 1.0) == pytest.approx(K0_1, rel=1e-13)
        assert sf.bessel_K(0.0, 0.5) == pytest.approx(K0_HALF, rel=1e-13)
        assert sf.bessel_K(1.0, 1.0) == pytest.approx(K1_1, rel=1e-13)
        assert sf.bessel_K(3.0, 1.0) == pytest.approx(K3_1, rel=1e-13)

    def test_against_quadrature_oracle(self):
        # orders up to 40 and x in [1e-3, 200]; K stays finite on all of it
        for nu in [0.0, 0.5, 1.0, 2.5, 7.0, 15.5, 25.0, 40.0]:
            for x in np.geomspace(1e-3, 200.0, 15):
                ref = sf.bessel_K_quadrature(nu, float(x))
                assert sf.bessel_K(nu, float(x)) == pytest.approx(ref, rel=1e-10)

    def test_vectorized_matches_scalar(self):
        x = np.array([1e-3, 0.5, 2.0, 2.0000001, 17.0])
        vec = sf.bessel_K(1.5, x)
        scal = np.array([sf.bessel_K(1.5, float(xi)) for xi in x])
        np.testing.assert_allclose(vec, scal, rtol=1e-14)

    def test_scaled(self):
        x = np.array([0.7, 30.0, 500.0])
        ke = sf.bessel_K(2.0, x, scaled=True)
        assert np.all(np.isfinite(ke))
        assert ke[0] == pytest.approx(math.exp(0.7) * sf.bessel_K(2.0, 0.7), rel=1e-12)

    def test_monotone_decreasing(self):
        x = np.geomspace(1e-3, 50, 400)
        for nu in [0.0, 0.5, 1.0, 5.0, 10.0]:
            vals = sf.bessel_K(nu, x)
            assert np.all(np.diff(vals) < 0)

    def test_exp_inequality(self):
        # K_nu(y) <= e^{x-y} K_nu(x) for 0 < x < y
        for nu in [0.0, 1.0, 5.0]:
            x = RNG.uniform(0.01, 20, 300)
            y = x + RNG.uniform(1e-3, 30, 300)
            assert checks.exponential_comparison_violations(nu, x, y) == 0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            sf.bessel_K(0.0, -1.0)
        with pytest.raises(DomainError):
            sf.bessel_K(0.0, 0.0)
        with pytest.raises(DomainError):
            sf.bessel_K(-1.0, 1.0)

    def test_overflow_signal(self):
        with pytest.raises(OverflowError):
            sf.bessel_K(200.0, 1e-8)

    def test_past_the_flush_of_kv(self):
        # scipy's kv returns 0.0 from x ~ 697 on; K_0(700) = 4.67e-306 is
        # still a normal double, and bessel_K keeps kv's bits below 697
        ref = sf.bessel_K_quadrature(0.0, 700.0)
        assert sf.bessel_K(0.0, 700.0) == pytest.approx(ref, rel=1e-10)
        x = np.array([1.0, 696.0, 700.0])
        got = sf.bessel_K(0.0, x)
        assert got[1] == special.kv(0.0, 696.0) and got[2] > 0.0

    def test_underflow_signal(self):
        # below the smallest subnormal even through the scaled function
        with pytest.raises(OverflowError, match="underflow"):
            sf.bessel_K(0.0, np.array([1.0, 800.0]))
        assert sf.bessel_K(0.0, 800.0, scaled=True) > 0.0


class TestBesselKQuadrature:
    """The trapezoidal oracle against the adaptive quadrature of the same
    integral, the closed form of K_1/2, its shapes and its failure."""
    ORDERS = np.arange(0, 11, dtype=float)
    XS = np.geomspace(1e-3, 50.0, 12)

    def test_matches_adaptive_quadrature(self):
        # the specfun-check grid in one call, and its two corners where
        # the peak of the integrand sits far out (order 10 at x = 1e-3)
        # or the integrand is narrowest (x = 50)
        got = sf.bessel_K_quadrature(self.ORDERS[:, None], self.XS[None, :])
        ref = np.array([[bessel_K_adaptive(nu, x) for x in self.XS]
                        for nu in self.ORDERS])
        assert np.max(np.abs(got - ref) / ref) < 1e-13
        for nu, x in ((10.0, 1e-3), (0.0, 50.0)):
            ref = bessel_K_adaptive(nu, x)
            assert abs(sf.bessel_K_quadrature(nu, x) - ref) < 1e-13 * ref

    def test_half_order_closed_form(self):
        x = np.geomspace(1e-3, 50.0, 25)
        exact = np.sqrt(np.pi / (2.0 * x)) * np.exp(-x)
        got = sf.bessel_K_quadrature(0.5, x)
        assert np.max(np.abs(got - exact) / exact) < 1e-14

    def test_scalar_and_broadcast_shapes(self):
        assert type(sf.bessel_K_quadrature(1.0, 2.0)) is float
        orders = np.array([[0.0], [1.0], [2.5]])
        xs = np.array([0.1, 1.0, 3.0, 10.0])
        got = sf.bessel_K_quadrature(orders, xs)
        assert got.shape == (3, 4)
        for i, nu in enumerate(orders[:, 0]):
            for j, x in enumerate(xs):
                assert got[i, j] == pytest.approx(
                    sf.bessel_K_quadrature(nu, x), rel=1e-14)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            sf.bessel_K_quadrature(1.0, np.array([1.0, 0.0]))

    def test_halving_cap_raises(self, monkeypatch):
        # with no halving allowed no two sums are ever compared, so none
        # can agree
        monkeypatch.setattr(sf, "K_QUADRATURE_HALVINGS", 0)
        with pytest.raises(NonConvergenceError):
            sf.bessel_K_quadrature(1.0, 2.0)


class TestBesselKPrime:
    def test_k0_prime_is_minus_k1(self):
        assert sf.bessel_K_prime(0, 1.0) == pytest.approx(-K1_1, rel=1e-13)

    def test_against_finite_differences(self):
        for m in [0, 1, 3, 7]:
            for x in [0.3, 1.0, 5.0, 20.0]:
                h = 1e-5 * x
                fd = (sf.bessel_K(m, x - 2 * h) - 8 * sf.bessel_K(m, x - h)
                      + 8 * sf.bessel_K(m, x + h) - sf.bessel_K(m, x + 2 * h)) / (12 * h)
                assert sf.bessel_K_prime(m, x) == pytest.approx(fd, rel=1e-8)

    def test_derivative_bound(self):
        # |x K_m'(x)| <= m K_m(x) + x K_m(x) for m >= 1; at m = 0 the
        # bound would read K_1 <= K_0, which is false for every x
        x = np.geomspace(1e-3, 50, 60)
        for m in range(1, 21):
            assert checks.derivative_bound_violations(m, x) == 0

    def test_derivative_bound_fails_at_order_zero(self):
        x = 1.0
        assert abs(x * sf.bessel_K_prime(0, x)) > x * sf.bessel_K(0, x)

    def test_sign_negative(self):
        for m in [0, 1, 4]:
            for x in [0.01, 1.0, 30.0]:
                assert sf.bessel_K_prime(m, x) < 0


class TestBesselI:
    def test_small_order_values(self):
        # I_0(1) = 1.2660658777520083356, I_1(1) = 0.5651591039924850272
        assert sf.bessel_I(0.0, 1.0) == pytest.approx(1.2660658777520083356, rel=1e-12)
        assert sf.bessel_I(1.0, 1.0) == pytest.approx(0.5651591039924850272, rel=1e-12)

    def test_half_order_closed_form(self):
        x = 2.3
        assert sf.bessel_I(0.5, x) == pytest.approx(
            math.sqrt(2 / (math.pi * x)) * math.sinh(x), rel=1e-12)

    def test_wronskian(self):
        # I_nu(x) K_{nu+1}(x) + I_{nu+1}(x) K_nu(x) = 1/x
        for nu in [0.0, 0.5, 2.0]:
            for x in [0.2, 1.0, 8.0, 40.0]:
                w = (sf.bessel_I(nu, x) * sf.bessel_K(nu + 1, x)
                     + sf.bessel_I(nu + 1, x) * sf.bessel_K(nu, x))
                assert w == pytest.approx(1.0 / x, rel=1e-12)

    def test_domain_errors(self):
        for nu, x in [(0.0, 0.0), (0.0, -1.0), (-1.0, 1.0)]:
            with pytest.raises(DomainError):
                sf.bessel_I(nu, x)

    def test_overflow_signal(self):
        with pytest.raises(OverflowError):
            sf.bessel_I(0.0, 1000.0)
        assert math.isfinite(sf.bessel_I(0.0, 1000.0, scaled=True))

    def test_scaled_large_argument(self):
        ie = sf.bessel_I(0.0, 900.0, scaled=True)
        # e^{-x} I_0(x) ~ 1/sqrt(2 pi x)
        assert ie == pytest.approx(1.0 / math.sqrt(2 * math.pi * 900.0), rel=1e-3)


class TestLa:
    def test_l2_is_k0(self):
        assert sf.l_a(2.0, 0.5) == pytest.approx(K0_HALF, rel=1e-13)

    def test_l3_closed_form(self):
        assert sf.l_a(3.0, 1.0) == pytest.approx(KHALF_1, rel=1e-13)

    def test_l4_small_r_power(self):
        # log L_4 vs log r slope -> -(a-2) = -2 near r = 1e-4
        r = 1e-4
        slope = (math.log(sf.l_a(4.0, 2 * r)) - math.log(sf.l_a(4.0, r))) / math.log(2.0)
        assert slope == pytest.approx(-2.0, abs=1e-2)

    def test_large_r_decay(self):
        # L_a(r) ~ r^{(1-a)/2} e^{-r}: ratio against it settles to a constant
        a = 6.0
        vals = [sf.l_a(a, r) / (r ** ((1 - a) / 2) * math.exp(-r))
                for r in (20.0, 40.0, 80.0)]
        # Cauchy differences of the ratio shrink
        assert abs(vals[2] - vals[1]) < 0.6 * abs(vals[1] - vals[0])
        assert vals[1] == pytest.approx(vals[2], rel=5e-2)

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.l_a(0.5, 1.0)
        with pytest.raises(DomainError):
            sf.l_a(2.0, -1.0)


class TestIlg:
    def test_values(self):
        assert sf.ilg(0.0) == 0.0
        assert sf.ilg(math.exp(-1.0)) == pytest.approx(1.0, rel=1e-14)
        assert sf.ilg(math.exp(-4.0)) == pytest.approx(0.25, rel=1e-14)

    def test_monotone_continuous(self):
        k = np.linspace(0, 0.5, 2000)
        v = sf.ilg(k)
        assert np.all(np.diff(v) > 0)
        assert v[0] == 0.0

    def test_slower_than_any_power(self):
        # ilg k / k^eps -> oo as k -> 0; the ratio (1/t) e^{eps t} with
        # t = log(1/k) grows once t > 1/eps, so sample there
        for eps in [0.5, 0.1, 0.01]:
            t = np.array([1.5, 3.0, 6.0]) / eps
            ks = np.exp(-t)
            ratio = sf.ilg(ks) / ks ** eps
            assert np.all(np.diff(ratio) > 0)
            assert ratio[-1] > 10 * ratio[0]

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.ilg(-0.1)
        with pytest.raises(DomainError):
            sf.ilg(0.6)


class TestStableRemainders:
    def test_k0_remainder_matches_direct(self):
        for x in [0.3, 0.49, 0.51, 1.0]:
            direct = sf.bessel_K(0.0, x) + math.log(x / 2) + sf.EULER_GAMMA
            assert sf.k0_remainder(x) == pytest.approx(direct, rel=1e-9, abs=1e-15)

    def test_k0_asymptotic_constant(self):
        # K_0(s) + log s -> log 2 - gamma as s -> 0
        s = 1e-3
        dev = abs(sf.bessel_K(0.0, s) + math.log(s) - sf.C_GAMMA)
        assert dev < 1e-4

    def test_k1_tail(self):
        for x in [1e-6, 1e-4, 0.01, 1.0]:
            direct = sf.bessel_K_quadrature(1.0, x) - 1.0 / x
            assert sf.k1_tail(x) == pytest.approx(direct, rel=2e-4)


class TestHeatIdentity:
    def test_deviation_small(self):
        assert sf.heat_resolvent_identity_check(3.0, 1.0, 1.0) < 1e-6
        assert sf.heat_resolvent_identity_check(2.0, 0.1, 1.0) < 1e-6

    def test_scale_invariance(self):
        c = 3.7
        d1 = sf.heat_resolvent_identity_check(3.0, 0.2, 2.0)
        d2 = sf.heat_resolvent_identity_check(3.0, 0.2 * c, 2.0 / c)
        assert abs(d1 - d2) < 1e-10

    def test_calibration_constant(self):
        # the fitted constant is 2^{a/2}
        assert sf._heat_constant(4.0) == pytest.approx(2.0 ** 2, rel=1e-9)


def test_pipeline_import_leaves_scipy_integrate_unloaded():
    # only the quadrature oracles need scipy.integrate, and no norm
    # estimate needs scipy.sparse; a fresh process that imports the
    # pipeline modules must not pay for either
    code = ("import sys\n"
            "import connsum.cli, connsum.bvp, connsum.keylemma, "
            "connsum.riesz, connsum.parametrix\n"
            "print('scipy.integrate' in sys.modules)\n"
            "print(any(m.split('.')[:2] == ['scipy', 'sparse'] "
            "for m in sys.modules))")
    src = str(Path(sf.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.split() == ["False", "False"]
