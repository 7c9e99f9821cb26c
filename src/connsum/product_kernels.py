"""Exact zero-channel resolvent kernels of the free product ends R^n x M.

On R^n x M the resolvent (Delta + k^2)^{-1} is a sum over the
cross-section eigenvalues mu_l^2 of Euclidean resolvents at the shifted
energies sqrt(k^2 + mu_l^2).  The glued-manifold machinery needs only its
zero channel: the kernel acting on functions of the radius alone, with
the volume measure c r^{n-1} dr,

    (r r')^{1 - n/2} I_nu(k r_<) K_nu(k r_>) / c,   nu = n/2 - 1,

with its left derivative and the k -> 0 limits of both.
"""

from __future__ import annotations

import numpy as np

from . import specfun as sf
from .errors import DomainError
from .model import EndSpec


def _scaled_at(fn, order: float, k: float, r, rp, take_r):
    """fn(order, k * where(take_r, r, rp), scaled=True), evaluated on r and
    rp apart and then broadcast: an outer grid r[:, None], rp[None, :]
    costs len(r) + len(rp) evaluations instead of len(r) * len(rp)."""
    return np.where(take_r, fn(order, k * r, scaled=True),
                    fn(order, k * rp, scaled=True))


def _shared_factors(end: EndSpec, k: float, r, rp):
    """(nu, c, r, rp, lo, hi, power, expf, ie, ke): what reduced_kernel
    and its left derivative share.  nu = n/2 - 1 and c the weight
    constant, r and rp as arrays, the masks lo = r <= rp and
    hi = r >= rp, power = (r rp)^{-nu}, expf = e^{-k (max - min)}, and
    the scaled I_nu(k min) and K_nu(k max)."""
    nu = 0.5 * end.euclidean_dim - 1.0
    r = np.asarray(r, dtype=float)
    rp = np.asarray(rp, dtype=float)
    expf = np.exp(-k * (np.maximum(r, rp) - np.minimum(r, rp)))
    lo, hi = r <= rp, r >= rp
    ie = _scaled_at(sf.bessel_I, nu, k, r, rp, lo)
    ke = _scaled_at(sf.bessel_K, nu, k, r, rp, hi)
    return (nu, end.weight_constant, r, rp, lo, hi, (r * rp) ** (-nu),
            expf, ie, ke)


def _kernel(factors):
    nu, c, r, rp, lo, hi, power, expf, ie, ke = factors
    return power * ie * ke * expf / c


def _kernel_dleft(k: float, factors):
    nu, c, r, rp, lo, hi, power, expf, ie, ke = factors
    val_below = k * _scaled_at(sf.bessel_I, nu + 1.0, k, r, rp, lo) * ke
    val_above = -k * ie * _scaled_at(sf.bessel_K, nu + 1.0, k, r, rp, hi)
    # midpoint convention on the diagonal (value jumps enter kink-corrected
    # compositions with H(0) = 1/2)
    out = np.where(r < rp, val_below,
                   np.where(r > rp, val_above, 0.5 * (val_below + val_above)))
    return power * out * expf / c


def reduced_kernel(end: EndSpec, k: float, r, rp):
    """Zero-channel radial resolvent kernel of the product end:
    (Kf)(r) = int kernel(r, r') f(r') c r'^{n-1} dr' inverts Delta + k^2
    on radial functions.  Broadcasts over r and rp."""
    return _kernel(_shared_factors(end, k, r, rp))


def reduced_kernel_pair(end: EndSpec, k: float, r, rp):
    """(reduced_kernel, its d/dr in the left variable, with a kink across
    r = rp), from one evaluation of the factors they share."""
    factors = _shared_factors(end, k, r, rp)
    return _kernel(factors), _kernel_dleft(k, factors)


def reduced_zero_energy_kernel(end: EndSpec, r, rp):
    """k -> 0 limit of reduced_kernel on an end of dimension >= 3:
    max(r, rp)^{2-n} / ((n-2) c)."""
    n = end.euclidean_dim
    if n < 3:
        raise DomainError("zero-energy kernel needs euclidean dimension >= 3")
    b = np.maximum(np.asarray(r, float), np.asarray(rp, float))
    return b ** (2.0 - n) / ((n - 2.0) * end.weight_constant)


def reduced_kernel_dleft_k0(end: EndSpec, r, rp):
    """k -> 0 limit of the left derivative of reduced_kernel (the second
    member of reduced_kernel_pair): -r^{1-n}/c for r > r', 0 below."""
    n = end.euclidean_dim
    r = np.asarray(r, dtype=float)
    rp = np.asarray(rp, dtype=float)
    return np.where(r > rp, -r ** (1.0 - n) / end.weight_constant, 0.0)


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
