"""Zero-channel product kernels against closed forms, and the full
cross-section mode sum of the product resolvent, with its envelope
bounds, as a reference kept next to these tests.

The mode-sum kernel of (Delta + k^2)^{-1} on R^n x M sums, over the
eigenvalues mu_l^2 of M, the Euclidean resolvent of R^n at the shifted
energy kappa_l = sqrt(k^2 + mu_l^2),

    G_n(kappa, d) = (2 pi)^{-n/2} kappa^{n-2} (kappa d)^{1-n/2}
                    K_{n/2-1}(kappa d),

so G_2(kappa, d) = K_0(kappa d) / (2 pi) and G_3 = e^{-kappa d}/(4 pi d).
Radial derivatives use d/dx [x^{-nu} K_nu(x)] = -x^{-nu} K_{nu+1}(x).
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from connsum import model as md
from connsum import product_kernels as pk
from connsum import specfun as sf
from connsum.errors import DomainError, TruncationError
from connsum.model import EndSpec

from oracles import fit_envelope


# ---------------------------------------------------------------------------
# the cross-section mode sum


@dataclass(frozen=True)
class ProductPoint:
    """A point (x, y) on R^n x M; y is the circle coordinate or None."""
    x: tuple[float, ...]
    y: float | None = None


def euclid_resolvent(n: int, kappa: float, d):
    """Kernel of (Delta_{R^n} + kappa^2)^{-1} at distance d."""
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise DomainError("euclid_resolvent: on-diagonal singularity (d <= 0)")
    nu = 0.5 * n - 1.0
    x = kappa * d
    ke = sf.bessel_K(nu, x, scaled=True)
    return (2 * math.pi) ** (-0.5 * n) * kappa ** (n - 2) * x ** (-nu) * ke * np.exp(-x)


def euclid_resolvent_dd(n: int, kappa: float, d):
    """d/dd of euclid_resolvent: -(2 pi)^{-n/2} kappa^{n-1} x^{-nu} K_{nu+1}(x)."""
    d = np.asarray(d, dtype=float)
    nu = 0.5 * n - 1.0
    x = kappa * d
    ke = sf.bessel_K(nu + 1.0, x, scaled=True)
    return -(2 * math.pi) ** (-0.5 * n) * kappa ** (n - 1) * x ** (-nu) * ke * np.exp(-x)


class ProductResolvent:
    """Mode-sum resolvent kernel of one product end at energy k > 0."""

    def __init__(self, end: EndSpec, k: float, l_max: int | None = None,
                 tail_tol: float = 1e-12):
        if k <= 0:
            raise DomainError("ProductResolvent: k must be positive")
        self.end = end
        self.k = k
        n_modes = len(end.cross_section.eigenvalues)
        self.l_max = n_modes - 1 if l_max is None else min(l_max, n_modes - 1)
        self.tail_tol = tail_tol

    def _mode_terms(self, z: ProductPoint, zp: ProductPoint, fn):
        """Sum over cross-section modes of eigenfactor * fn(kappa_l, dx).

        fn must accept an array of kappa values at fixed dx.
        """
        end = self.end
        dx = float(np.linalg.norm(np.asarray(z.x) - np.asarray(zp.x)))
        if dx <= 0:
            raise DomainError("on-diagonal singularity: coincident Euclidean points")
        cs = end.cross_section
        if cs.kind == "point":
            return float(fn(np.array([self.k]), dx)[0]), 0.0
        if cs.kind != "circle":
            raise DomainError(
                "mode-sum kernels need a 'point' or 'circle' cross-section")
        L = cs.volume
        dy = (z.y or 0.0) - (zp.y or 0.0)
        ls = np.arange(0, self.l_max + 2)
        kaps = np.sqrt(self.k ** 2 + (2 * math.pi * ls / L) ** 2)
        vals = fn(kaps, dx)
        ang = 2.0 * np.cos(2 * math.pi * ls[:-1] * dy / L) / L
        ang[0] = 1.0 / L
        total = float(np.dot(ang, vals[:-1]))
        # tail dominated by a geometric series in e^{-(mu_{l+1}-mu_l) dx}
        gap = 2 * math.pi / L
        tail = (2.0 / L) * abs(float(vals[-1])) / max(1e-300,
                                                      -math.expm1(-gap * dx))
        return total, tail

    def kernel(self, z: ProductPoint, zp: ProductPoint,
               with_tail: bool = False):
        """Resolvent kernel value; raises TruncationError when the mode-sum
        tail bound exceeds tail_tol relative to the value."""
        n = self.end.euclidean_dim
        val, tail = self._mode_terms(z, zp, lambda kap, d: euclid_resolvent(n, kap, d))
        if abs(val) > 0 and tail / abs(val) > self.tail_tol:
            if not with_tail:
                raise TruncationError(
                    f"mode-sum tail {tail:g} above tolerance at separation; "
                    "raise l_max or the tolerance")
        return (val, tail) if with_tail else val

    def gradient(self, z: ProductPoint, zp: ProductPoint):
        """(euclidean gradient vector at z, cross-section derivative at z)."""
        n = self.end.euclidean_dim
        xdiff = np.asarray(z.x) - np.asarray(zp.x)
        dx = float(np.linalg.norm(xdiff))
        dval, _ = self._mode_terms(z, zp,
                                   lambda kap, d: euclid_resolvent_dd(n, kap, d))
        grad_x = dval * xdiff / dx
        dy_val = 0.0
        cs = self.end.cross_section
        if cs.kind == "circle" and self.l_max >= 1:
            L = cs.volume
            dy = (z.y or 0.0) - (zp.y or 0.0)
            ls = np.arange(1, self.l_max + 1)
            w = 2 * math.pi * ls / L
            kaps = np.sqrt(self.k ** 2 + w ** 2)
            vals = euclid_resolvent(n, kaps, dx)
            dy_val = float(np.dot(-2.0 * w / L * np.sin(w * dy), vals))
        return grad_x, dy_val


# ---------------------------------------------------------------------------
# envelope verification


def fit_lower_constant(values, shape) -> float:
    """Largest constant c with values >= c * shape (values, shape > 0)."""
    values = np.asarray(values, dtype=float).ravel()
    shape = np.asarray(shape, dtype=float).ravel()
    return float(np.min(values / shape))


@dataclass(frozen=True)
class KernelBoundEnvelope:
    form: str
    c_rate: float
    constant: float
    stable: bool

    def __post_init__(self):
        if self.constant <= 0:
            raise DomainError("envelope constant must be positive")


_FORMS = {"upper3", "lower3", "grad3", "upper2", "lower2", "grad2"}


def _envelope_shape(form: str, end: EndSpec, k: float, d, rate: float):
    d = np.asarray(d, dtype=float)
    N = end.total_dim
    n = end.euclidean_dim
    if form in ("upper3", "lower3"):
        base = d ** (2.0 - N) + d ** (2.0 - n)
    elif form == "grad3":
        base = d ** (1.0 - N) + d ** (1.0 - n)
    elif form in ("upper2", "lower2"):
        base = d ** (2.0 - N) + 1.0 + np.abs(np.log(k * d))
    elif form == "grad2":
        base = d ** (1.0 - N) + d ** (-1.0)
    else:
        raise DomainError(f"unknown envelope form {form!r}")
    return base * np.exp(-rate * k * d)


def _sample_values(end: EndSpec, form: str, k: float, ds, rng) -> np.ndarray:
    res = ProductResolvent(end, k)
    vals = []
    for d in ds:
        # random direction and random cross offset at total distance d
        if end.cross_section.kind == "circle":
            L = end.cross_section.volume
            dy = rng.uniform(0, min(0.4 * d, 0.49 * L))
        else:
            dy = 0.0
        dx = math.sqrt(max(d * d - dy * dy, 1e-12))
        z = ProductPoint((0.0,) * end.euclidean_dim, 0.0)
        zp = ProductPoint((dx,) + (0.0,) * (end.euclidean_dim - 1), dy)
        if form.startswith("grad"):
            gx, gy = res.gradient(zp, z)
            vals.append(math.hypot(float(np.linalg.norm(gx)), gy))
        else:
            vals.append(res.kernel(zp, z))
    return np.asarray(vals)


def verify_envelope(end: EndSpec, form: str, k_list, d_list,
                    upper_rate: float = 0.5, lower_rate: float = 2.0,
                    seed: int = 0) -> KernelBoundEnvelope:
    """Fit the constant of the kernel bound envelope over the samples.

    Upper forms: smallest C with |kernel| <= C shape(c=upper_rate);
    lower forms: largest c with kernel >= c shape(C=lower_rate).
    Succeeds when the constant is finite/positive and moves by < 10%
    under doubling of the d-sampling.
    """
    if form not in _FORMS:
        raise DomainError(f"unknown envelope form {form!r}")
    d_list = np.asarray(sorted(d_list), dtype=float)
    if len(np.unique(d_list)) != len(d_list):
        raise DomainError("sample distances must be pairwise distinct")
    d_fine = np.unique(np.concatenate([d_list, np.sqrt(d_list[:-1] * d_list[1:])]))
    rng = np.random.default_rng(seed)
    lower = form.startswith("lower")
    rate = lower_rate if lower else upper_rate
    consts, consts_fine = [], []
    for k in k_list:
        vals = _sample_values(end, form, k, d_list, rng)
        shape = _envelope_shape(form, end, k, d_list, rate)
        vals_f = _sample_values(end, form, k, d_fine, rng)
        shape_f = _envelope_shape(form, end, k, d_fine, rate)
        if lower:
            consts.append(fit_lower_constant(vals, shape))
            consts_fine.append(fit_lower_constant(vals_f, shape_f))
        else:
            consts.append(fit_envelope(vals, shape))
            consts_fine.append(fit_envelope(vals_f, shape_f))
    if lower:
        c0, c1 = min(consts), min(consts_fine)
        stable = c0 > 0 and abs(c1 - c0) / c0 <= 0.10
        return KernelBoundEnvelope(form, lower_rate, c1 if c1 > 0 else c0, stable)
    c0, c1 = max(consts), max(consts_fine)
    stable = math.isfinite(c0) and c0 > 0 and abs(c1 - c0) / c0 <= 0.10
    return KernelBoundEnvelope(form, upper_rate, max(c0, c1), stable)


RNG = np.random.default_rng(42)

POINT_END_3 = md.EndSpec(3, md.CrossSection.point(), 2.0)
POINT_END_2 = md.EndSpec(2, md.CrossSection.point(), 2.0)
CIRCLE_END_2 = md.EndSpec(2, md.CrossSection.circle(), 2.0)


def _pt(*x, y=None):
    return ProductPoint(tuple(float(c) for c in x), y)


class TestEuclideanKernels:
    def test_r3_low_energy_green(self):
        # n=3, M=point, k -> 0: kernel -> 1/(4 pi d)
        res = ProductResolvent(POINT_END_3, 1e-6)
        val = res.kernel(_pt(1, 0, 0), _pt(0, 0, 0))
        assert val == pytest.approx(1.0 / (4 * math.pi), rel=1e-5)

    def test_r2_closed_form(self):
        # n=2, M=point: kernel = K_0(k d)/(2 pi)
        res = ProductResolvent(POINT_END_2, 0.7)
        d = 1.3
        val = res.kernel(_pt(d, 0), _pt(0, 0))
        assert val == pytest.approx(sf.bessel_K(0.0, 0.7 * d) / (2 * math.pi),
                                    rel=1e-10)

    def test_symmetry_exact(self):
        res = ProductResolvent(CIRCLE_END_2, 0.3)
        z, zp = _pt(2.0, 1.0, y=0.3), _pt(-1.0, 0.5, y=2.1)
        assert res.kernel(z, zp) == res.kernel(zp, z)

    def test_on_diagonal_signal(self):
        res = ProductResolvent(POINT_END_3, 1.0)
        with pytest.raises(DomainError):
            res.kernel(_pt(1, 0, 0), _pt(1, 0, 0))

    def test_positivity(self):
        for k in [1e-3, 0.1, 1.0]:
            res = ProductResolvent(CIRCLE_END_2, k)
            for _ in range(20):
                z = _pt(*RNG.uniform(-5, 5, 2), y=RNG.uniform(0, 6.28))
                zp = _pt(*RNG.uniform(-5, 5, 2), y=RNG.uniform(0, 6.28))
                if np.allclose(z.x, zp.x):
                    continue
                assert res.kernel(z, zp) > 0

    def test_log_divergence_subtracted_converges(self):
        # kernel2D(k) - (-log k)/(2 pi): Cauchy differences shrink as k halves
        res_at = lambda k: ProductResolvent(POINT_END_2, k).kernel(
            _pt(1.5, 0), _pt(0, 0))
        ks = [1e-2 / 2 ** j for j in range(6)]
        vals = [res_at(k) + math.log(k) / (2 * math.pi) for k in ks]
        diffs = np.abs(np.diff(vals))
        assert np.all(np.diff(diffs) < 0)
        assert diffs[-1] < 1e-6

    def test_mode_sum_truncation_self_consistent(self):
        end = md.EndSpec(2, md.CrossSection.circle(l_max=64), 2.0)
        res_c = ProductResolvent(end, 0.5, l_max=6, tail_tol=np.inf)
        res_f = ProductResolvent(end, 0.5, l_max=60, tail_tol=np.inf)
        z, zp = _pt(0.0, 0.0, y=0.0), _pt(1.1, 0, y=0.4)
        coarse, tail = res_c.kernel(z, zp, with_tail=True)
        fine = res_f.kernel(z, zp)
        assert abs(fine - coarse) <= tail * 1.01


class TestGradient:
    def test_r2_radial_derivative_closed_form(self):
        # d/dr kernel = -k K_1(k r) / (2 pi)
        k, r = 0.9, 2.7
        res = ProductResolvent(POINT_END_2, k)
        gx, gy = res.gradient(_pt(r, 0), _pt(0, 0))
        assert gx[0] == pytest.approx(-k * sf.bessel_K(1.0, k * r) / (2 * math.pi),
                                      rel=1e-12)
        assert gy == 0.0

    def test_finite_difference_match(self):
        res = ProductResolvent(CIRCLE_END_2, 0.4)
        mism = 0.0
        for _ in range(100):
            x = RNG.uniform(1, 6, 2)
            xp = RNG.uniform(-6, -1, 2)
            y, yp = RNG.uniform(0, 6.28, 2)
            z, zp = _pt(*x, y=y), _pt(*xp, y=yp)
            gx, gy = res.gradient(z, zp)
            h = 1e-5
            for axis in range(2):
                e = np.zeros(2)
                e[axis] = h
                fd = (res.kernel(_pt(*(x + e), y=y), zp)
                      - res.kernel(_pt(*(x - e), y=y), zp)) / (2 * h)
                mism = max(mism, abs(fd - gx[axis]) / (abs(gx[axis]) + 1e-300))
            fdy = (res.kernel(_pt(*x, y=y + h), zp)
                   - res.kernel(_pt(*x, y=y - h), zp)) / (2 * h)
            assert fdy == pytest.approx(gy, rel=1e-5, abs=1e-9)
        assert mism < 1e-6

    def test_antisymmetric_in_flat_offset(self):
        res = ProductResolvent(POINT_END_3, 0.5)
        base = _pt(0, 0, 0)
        g1, _ = res.gradient(_pt(0.0, 1.7, 0.0), base)
        g2, _ = res.gradient(_pt(0.0, -1.7, 0.0), base)
        np.testing.assert_allclose(g1, -g2, rtol=1e-13)


class TestReducedKernels:
    def test_r3_reduced_closed_form(self):
        end = POINT_END_3
        k = 0.8
        r, rp = 1.4, 3.7
        val = pk.reduced_kernel(end, k, r, rp)
        expected = math.sinh(k * r) * math.exp(-k * rp) / (4 * math.pi * k * r * rp)
        assert val == pytest.approx(expected, rel=1e-12)

    def test_r2_reduced_is_i0k0(self):
        end = CIRCLE_END_2
        k, r, rp = 0.3, 5.0, 2.2
        val = pk.reduced_kernel(end, k, r, rp)
        expected = sf.bessel_I(0.0, k * 2.2) * sf.bessel_K(0.0, k * 5.0) \
            / end.weight_constant
        assert val == pytest.approx(expected, rel=1e-12)

    def test_reduced_inverts_operator(self):
        # (Delta + k^2) applied in r to the reduced kernel vanishes off rp
        end = POINT_END_3
        k, rp = 0.6, 2.0
        r = np.linspace(3.0, 6.0, 9)
        h = 1e-4
        vals = lambda rr: pk.reduced_kernel(end, k, rr, rp)
        d2 = (vals(r + h) - 2 * vals(r) + vals(r - h)) / h ** 2
        d1 = (vals(r + h) - vals(r - h)) / (2 * h)
        res = -d2 - 2.0 / r * d1 + k * k * vals(r)
        assert np.max(np.abs(res)) < 1e-7

    def test_dleft_matches_fd(self):
        for end in (CIRCLE_END_2, POINT_END_3):
            k = 0.45
            rp = 4.0
            r = np.array([2.0, 3.9, 4.1, 9.0])
            h = 1e-6
            fd = (pk.reduced_kernel(end, k, r + h, rp)
                  - pk.reduced_kernel(end, k, r - h, rp)) / (2 * h)
            an = pk.reduced_kernel_pair(end, k, r, rp)[1]
            np.testing.assert_allclose(an, fd, rtol=1e-7)

    def test_pair_has_the_bits_of_each(self):
        # the value half has the bits of reduced_kernel, on one outer
        # grid, the diagonal included, on either end; the left derivative
        # has no other path (test_dleft_matches_fd checks it)
        r = np.geomspace(1.0, 400.0, 37)
        for end in (CIRCLE_END_2, POINT_END_3):
            for k in (1e-6, 0.05, 1.3):
                args = (end, k, r[:, None], r[None, :])
                value = pk.reduced_kernel_pair(*args)[0]
                np.testing.assert_array_equal(
                    value.view(np.uint64),
                    pk.reduced_kernel(*args).view(np.uint64))

    def test_k0_difference_limit(self):
        end = CIRCLE_END_2
        r, rp, r2, rp2 = 3.0, 7.0, 2.5, 11.0
        limit = pk.reduced_kernel_k0_diff(end, r, rp, r2, rp2)
        for k in (1e-5, 1e-7):
            diff = pk.reduced_kernel(end, k, r, rp) - pk.reduced_kernel(end, k, r2, rp2)
            assert diff == pytest.approx(limit, rel=1e-6)

    def test_dleft_k0_limit(self):
        # d/dr of the kernel tends to -r^{1-n}/c above the diagonal and
        # to 0 below it, on either end
        for end in (CIRCLE_END_2, POINT_END_3):
            r = np.array([7.0, 3.0])
            rp = np.array([3.0, 7.0])
            limit = pk.reduced_kernel_dleft_k0(end, r, rp)
            assert limit[1] == 0.0
            assert limit[0] == pytest.approx(
                -7.0 ** (1 - end.euclidean_dim) / end.weight_constant,
                rel=1e-14)
            got = pk.reduced_kernel_pair(end, 1e-7, r, rp)[1]
            np.testing.assert_allclose(got, limit, rtol=1e-6, atol=1e-12)

    def test_zero_energy_plus(self):
        end = POINT_END_3
        val = pk.reduced_zero_energy_kernel(end, 3.0, 5.0)
        assert val == pytest.approx(5.0 ** -1 / (4 * math.pi), rel=1e-14)
        small_k = pk.reduced_kernel(end, 1e-8, 3.0, 5.0)
        assert small_k == pytest.approx(val, rel=1e-6)


class TestEnvelopes:
    KS = [1e-1, 1e-2, 1e-3, 1e-4]
    DS = np.geomspace(1.0, 100.0, 25)

    def test_upper2_finite_stable(self):
        env = verify_envelope(CIRCLE_END_2, "upper2", self.KS, self.DS)
        assert math.isfinite(env.constant) and env.constant > 0
        assert env.stable

    def test_lower2_positive_stable(self):
        env = verify_envelope(CIRCLE_END_2, "lower2", self.KS, self.DS)
        assert env.constant > 0
        assert env.stable

    def test_upper3_finite(self):
        env = verify_envelope(POINT_END_3, "upper3", self.KS, self.DS)
        assert math.isfinite(env.constant) and env.constant > 0
        assert env.stable

    def test_grad2_finite(self):
        env = verify_envelope(CIRCLE_END_2, "grad2", self.KS, self.DS)
        assert math.isfinite(env.constant) and env.constant > 0

    def test_unknown_form_rejected(self):
        with pytest.raises(DomainError):
            verify_envelope(CIRCLE_END_2, "upper9", self.KS, self.DS)
