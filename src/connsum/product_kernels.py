"""Exact resolvent kernels on the free product spaces R^n x M.

The kernel of (Delta + k^2)^{-1} on R^n x M is a cross-section mode sum:
each eigenvalue mu_l^2 of M contributes the Euclidean resolvent of
R^n at shifted energy kappa_l = sqrt(k^2 + mu_l^2),

    G_n(kappa, d) = (2 pi)^{-n/2} kappa^{n-2} (kappa d)^{1-n/2}
                    K_{n/2-1}(kappa d),

so G_2(kappa, d) = K_0(kappa d) / (2 pi) and G_3 = e^{-kappa d}/(4 pi d).
Radial derivatives use d/dx [x^{-nu} K_nu(x)] = -x^{-nu} K_{nu+1}(x).

The zero-channel reduction (the kernel acting on functions of the radius
alone, with the volume measure c r^{n-1} dr) is

    (r r')^{1 - n/2} I_nu(kappa r_<) K_nu(kappa r_>) / c,   nu = n/2 - 1,

which is what the glued-manifold machinery consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun as sf
from .errors import DomainError, TruncationError
from .fits import fit_envelope, fit_lower_constant
from .model import EndSpec


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
# zero-channel radial reductions (used by the glued-manifold machinery)


def _scaled_at(fn, order: float, k: float, r, rp, take_r):
    """fn(order, k * where(take_r, r, rp), scaled=True), evaluated on r and
    rp apart and then broadcast: an outer grid r[:, None], rp[None, :]
    costs len(r) + len(rp) evaluations instead of len(r) * len(rp)."""
    return np.where(take_r, fn(order, k * r, scaled=True),
                    fn(order, k * rp, scaled=True))


def reduced_kernel(end: EndSpec, k: float, r, rp):
    """Zero-channel radial resolvent kernel of the product end:
    (Kf)(r) = int kernel(r, r') f(r') c r'^{n-1} dr' inverts Delta + k^2
    on radial functions.  Broadcasts over r and rp."""
    n = end.euclidean_dim
    nu = 0.5 * n - 1.0
    c = end.weight_constant
    r = np.asarray(r, dtype=float)
    rp = np.asarray(rp, dtype=float)
    a = np.minimum(r, rp)
    b = np.maximum(r, rp)
    ie = _scaled_at(sf.bessel_I, nu, k, r, rp, r <= rp)
    ke = _scaled_at(sf.bessel_K, nu, k, r, rp, r >= rp)
    return (r * rp) ** (-nu) * ie * ke * np.exp(-k * (b - a)) / c


def reduced_kernel_dleft(end: EndSpec, k: float, r, rp):
    """d/dr of reduced_kernel in the left variable (kink across r = rp)."""
    n = end.euclidean_dim
    nu = 0.5 * n - 1.0
    c = end.weight_constant
    r = np.asarray(r, dtype=float)
    rp = np.asarray(rp, dtype=float)
    a = np.minimum(r, rp)
    b = np.maximum(r, rp)
    expf = np.exp(-k * (b - a))
    lo, hi = r <= rp, r >= rp
    val_below = k * _scaled_at(sf.bessel_I, nu + 1.0, k, r, rp, lo) \
        * _scaled_at(sf.bessel_K, nu, k, r, rp, hi)
    val_above = -k * _scaled_at(sf.bessel_I, nu, k, r, rp, lo) \
        * _scaled_at(sf.bessel_K, nu + 1.0, k, r, rp, hi)
    # midpoint convention on the diagonal (value jumps enter kink-corrected
    # compositions with H(0) = 1/2)
    out = np.where(r < rp, val_below,
                   np.where(r > rp, val_above, 0.5 * (val_below + val_above)))
    return (r * rp) ** (-nu) * out * expf / c


def reduced_zero_energy_kernel(end: EndSpec, r, rp):
    """k -> 0 limit of reduced_kernel on an end of dimension >= 3:
    max(r, rp)^{2-n} / ((n-2) c)."""
    n = end.euclidean_dim
    if n < 3:
        raise DomainError("zero-energy kernel needs euclidean dimension >= 3")
    b = np.maximum(np.asarray(r, float), np.asarray(rp, float))
    return b ** (2.0 - n) / ((n - 2.0) * end.weight_constant)


def reduced_kernel_k0_diff(end: EndSpec, r, rp, r2, rp2):
    """k -> 0 limit of reduced_kernel(r, rp) - reduced_kernel(r2, rp2).

    On a two-dimensional end each kernel diverges like -log k; the
    difference has the finite limit log(max(r2,rp2)/max(r,rp)) / c.
    """
    n = end.euclidean_dim
    c = end.weight_constant
    b1 = np.maximum(np.asarray(r, float), np.asarray(rp, float))
    b2 = np.maximum(np.asarray(r2, float), np.asarray(rp2, float))
    if n == 2:
        return np.log(b2 / b1) / c
    return reduced_zero_energy_kernel(end, r, rp) \
        - reduced_zero_energy_kernel(end, r2, rp2)


# ---------------------------------------------------------------------------
# envelope verification


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
