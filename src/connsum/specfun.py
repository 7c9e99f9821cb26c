"""Modified Bessel functions K_nu / I_nu, the radial profile family L_a,
and the inverse-log scale function.

K_nu and I_nu (real order nu >= 0, x > 0) are thin wrappers over
scipy.special.kv/kve and iv/ive that add the domain checks and turn a
value outside the double range into OverflowError.  kv flushes to 0.0
from x ~ 697 on, where K_nu is still a normal double (K_0(700) =
4.67e-306); bessel_K takes kve(nu, x) e^-x there.  An independent
reference is the trapezoidal rule on the integral representation

    K_nu(x) = int_0^oo exp(-x cosh t) cosh(nu t) dt,

exposed as `bessel_K_quadrature` (order and x broadcast, so a whole grid
is one call); the checks and tests compare the two.

Everything here is a pure function of its arguments; scalars in give
scalars out, arrays in give arrays out.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np
from scipy import special

from .errors import DomainError, NonConvergenceError

EULER_GAMMA = 0.5772156649015328606065
#: c_gamma = log 2 - gamma, the constant term in K_0(s) ~ -log s + c_gamma.
C_GAMMA = math.log(2.0) - EULER_GAMMA


def _as_array(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


def _bessel(name: str, plain, scaled_fn, order: float, x, scaled: bool):
    if order < 0:
        raise DomainError(f"{name}: order must be >= 0, got {order}")
    xa, was_scalar = _as_array(x)
    if np.any(xa <= 0) or not np.all(np.isfinite(xa)):
        raise DomainError(f"{name}: argument must be positive and finite")
    out = (scaled_fn if scaled else plain)(order, xa)
    if not np.all(np.isfinite(out)):
        raise OverflowError(f"{name} overflow: order={order}, "
                            f"x in [{xa.min():g}, {xa.max():g}]")
    return float(out[0]) if was_scalar else out


def _kv(order: float, x: np.ndarray) -> np.ndarray:
    """scipy.special.kv, with kve(order, x) e^-x where kv flushes to 0.0
    (from x ~ 697 on); OverflowError where that underflows too."""
    out = special.kv(order, x)
    flushed = out == 0.0
    if flushed.any():
        xf = x[flushed]
        out[flushed] = special.kve(order, xf) * np.exp(-xf)
        if not np.all(out[flushed]):
            raise OverflowError(
                f"bessel_K underflow: order={order}, x in "
                f"[{xf.min():g}, {xf.max():g}] (K below the smallest "
                "subnormal; take scaled=True)")
    return out


def bessel_K(order: float, x, scaled: bool = False):
    """Modified Bessel function of the second kind, K_order(x).

    order: real, >= 0.  x: positive scalar or array.
    scaled=True returns e^x K_order(x), safe for large x.

    Raises DomainError for x <= 0 and OverflowError when the value lies
    outside the double range: above it (tiny x at large order), or below
    the smallest subnormal (x past about 745).
    """
    return _bessel("bessel_K", _kv, special.kve, order, x, scaled)


def bessel_K_prime(order: float, x):
    """d/dx K_order(x) = -(K_{order-1}(x) + K_{order+1}(x))/2.

    Negative for all x > 0 since K is strictly decreasing.  For integer
    m >= 1 it satisfies |x K_m'(x)| <= m K_m(x) + x K_m(x); at m = 0 that
    bound fails (it would force K_1 <= K_0) and only the sign statement
    survives.
    """
    if order < 0:
        raise DomainError(f"bessel_K_prime: order must be >= 0, got {order}")
    lower = abs(order - 1.0)  # K_{-a} = K_a
    return -0.5 * (bessel_K(lower, x) + bessel_K(order + 1.0, x))


def bessel_I(order: float, x, scaled: bool = False):
    """Modified Bessel function of the first kind, I_order(x), order >= 0.

    scaled=True returns e^{-x} I_order(x), safe for large x.  Raises
    DomainError for x <= 0 and OverflowError when the unscaled value
    exceeds the double range (large x).
    """
    return _bessel("bessel_I", special.iv, special.ive, order, x, scaled)


def l_a(a: float, r):
    """Decaying solution profile L_a(r) = r^{1-a/2} K_{|a/2-1|}(r) of
    f'' + (a-1)/r f' - f = 0, for a >= 1, r > 0."""
    if a < 1:
        raise DomainError(f"l_a: need a >= 1, got {a}")
    ra, was_scalar = _as_array(r)
    if np.any(ra <= 0):
        raise DomainError("l_a: need r > 0")
    out = ra ** (1.0 - 0.5 * a) * bessel_K(abs(0.5 * a - 1.0), ra)
    return float(out[0]) if was_scalar else out


def ilg(k):
    """The inverse-log scale: 1/log(1/k) for k in (0, 1), 0 at k = 0.

    Continuous and monotone increasing on [0, 1), unbounded as k -> 1;
    tends to zero slower than any positive power of k.
    """
    ka, was_scalar = _as_array(k)
    if np.any(ka < 0) or np.any(ka >= 1):
        raise DomainError("ilg: argument must lie in [0, 1)")
    out = np.zeros_like(ka)
    pos = ka > 0
    out[pos] = 1.0 / np.log(1.0 / ka[pos])
    return float(out[0]) if was_scalar else out


def k0_remainder(x):
    """R0(x) = K_0(x) + log(x/2) + gamma, stable for small x.

    R0(x) = O(x^2 |log x|) as x -> 0.
    """
    xa, was_scalar = _as_array(x)
    out = np.empty_like(xa)
    small = xa < 0.5
    if small.any():
        xs = xa[small]
        q = 0.25 * xs * xs
        lg = np.log(0.5 * xs) + EULER_GAMMA
        term = np.ones_like(xs)
        i0m1 = np.zeros_like(xs)   # I_0(x) - 1
        hsum = np.zeros_like(xs)   # sum H_j q^j / (j!)^2
        hj = 0.0
        for j in range(1, 30):
            term = term * q / (j * j)
            hj += 1.0 / j
            i0m1 += term
            hsum += hj * term
            if np.all(term < 1e-20):
                break
        out[small] = -lg * i0m1 + hsum
    if (~small).any():
        # kv's flush to zero past x ~ 697 is exact here: K_0 is then
        # far below an ulp of log(x/2) + gamma
        xb = xa[~small]
        out[~small] = special.kv(0.0, xb) + np.log(0.5 * xb) + EULER_GAMMA
    return float(out[0]) if was_scalar else out


def k1_tail(x):
    """T(x) = K_1(x) - 1/x, stable for small x.  T(x) = O(x |log x|)."""
    xa, was_scalar = _as_array(x)
    out = np.empty_like(xa)
    small = xa < 1e-4
    if small.any():
        xs = xa[small]
        out[small] = 0.5 * xs * (np.log(0.5 * xs) + EULER_GAMMA - 0.5)
    if (~small).any():
        # as in k0_remainder, K_1 past its flush to zero is below an ulp
        # of 1/x
        xb = xa[~small]
        out[~small] = special.kv(1.0, xb) - 1.0 / xb
    return float(out[0]) if was_scalar else out


# ---------------------------------------------------------------------------
# quadrature reference

def _log_cosh(u):
    au = np.abs(u)
    return au + np.log1p(np.exp(-2.0 * au)) - math.log(2.0)


# relative tolerances of the quadratures behind bessel_K_quadrature and
# heat_resolvent_identity_check
K_QUADRATURE_RTOL = 1e-12
HEAT_RTOL = 1e-10
# the trapezoidal sums of bessel_K_quadrature start at step 1/16 and halve
# at most this many times
K_QUADRATURE_HALVINGS = 8


def bessel_K_quadrature(order, x):
    """Reference value of K_order(x) by the trapezoidal rule for
    int_0^oo exp(-x cosh t) cosh(order t) dt.

    The integrand is even in t, entire, and decays doubly exponentially
    in every strip |Im t| < c < pi/2, so the sums h (f(0)/2 + sum_j f(j h))
    converge geometrically as h -> 0 (Trefethen and Weideman, SIAM
    Review 2014).  They run over [0, tmax], beyond which the integrand
    is below exp(-750) relative to its peak.  The step halves from 1/16
    until two successive sums agree to K_QUADRATURE_RTOL at every point;
    NonConvergenceError if they do not within K_QUADRATURE_HALVINGS
    halvings.

    order and x broadcast; scalars give a scalar.  Used as the
    independent oracle for bessel_K.
    """
    nu, xa = np.broadcast_arrays(np.asarray(order, dtype=float),
                                 np.asarray(x, dtype=float))
    if np.any(xa <= 0):
        raise DomainError("bessel_K_quadrature: need x > 0")
    shape = xa.shape
    nu, xa = nu.reshape(-1, 1), xa.reshape(-1, 1)
    tstar = np.arcsinh(nu / xa)
    big = 750.0 + xa + np.where(nu > 0, nu * tstar - xa * np.cosh(tstar),
                                0.0)
    tmax = np.where(big > xa, np.arccosh(np.maximum(
        np.maximum(big, 2.0) / xa, 1.0)) + 2.0, 25.0)

    def trapezoid_terms(t):
        f = np.exp(-xa * np.cosh(t) + _log_cosh(nu * t))
        return np.where(t <= tmax, f, 0.0).sum(axis=1)

    t_end = float(tmax.max())
    h = 1.0 / 16.0
    nodes = np.arange(math.floor(t_end / h) + 1) * h
    total = h * (trapezoid_terms(nodes) - 0.5 * trapezoid_terms(nodes[:1]))
    for _ in range(K_QUADRATURE_HALVINGS):
        h *= 0.5
        halved = 0.5 * total + h * trapezoid_terms(nodes + h)
        if np.all(np.abs(halved - total) <= K_QUADRATURE_RTOL
                  * np.abs(halved)):
            out = halved.reshape(shape)
            return float(out) if out.ndim == 0 else out
        total = halved
        nodes = np.arange(math.floor(t_end / h) + 1) * h
    raise NonConvergenceError(
        f"bessel_K_quadrature: no agreement to {K_QUADRATURE_RTOL:g} "
        f"within {K_QUADRATURE_HALVINGS} halvings of the step")


# ---------------------------------------------------------------------------
# heat-to-resolvent identity


def _heat_time_integral(a: float, k: float, r: float) -> float:
    """int_0^oo e^{-t k^2} t^{-a/2} e^{-r^2/(4t)} dt.

    Computed after t = (r/(2k)) e^u, which turns it into
    (r/(2k))^{1-a/2} int e^{-kr cosh u} e^{(1-a/2)u} du: a single smooth
    bump, integrated adaptively.  Everything depends on (k, r) only
    through kr and a prefactor, which makes the scale invariance
    (k, r) -> (ck, r/c) exact in floating point as well.
    """
    from scipy.integrate import quad

    p = 1.0 - 0.5 * a
    kr = k * r

    def integrand(u):
        return math.exp(-kr * math.cosh(u) + p * u)

    umax = math.acosh(max(760.0 / kr, 2.0)) + 2.0
    val, err = quad(integrand, -umax, umax, limit=400, epsabs=0.0,
                    epsrel=HEAT_RTOL)
    if not math.isfinite(val) or (
            val != 0 and err / abs(val) > 100 * HEAT_RTOL):
        raise NonConvergenceError(
            f"heat identity quadrature failed: a={a}, k={k}, r={r}")
    return (r / (2.0 * k)) ** p * val


@cache
def _heat_constant(a: float) -> float:
    """C_a of the heat identity, calibrated at (k, r) = (1, 1)."""
    return _heat_time_integral(a, 1.0, 1.0) / l_a(a, 1.0)


def heat_resolvent_identity_check(a: float, k: float, r: float) -> float:
    """Relative deviation between int_0^oo e^{-tk^2} t^{-a/2} e^{-r^2/4t} dt
    and C_a k^{a-2} L_a(kr), with C_a calibrated once per a at (k, r) = (1, 1).
    """
    if a < 1:
        raise DomainError("heat_resolvent_identity_check: need a >= 1")
    if k <= 0 or r <= 0:
        raise DomainError("heat_resolvent_identity_check: need k, r > 0")
    lhs = _heat_time_integral(a, k, r)
    rhs = _heat_constant(a) * k ** (a - 2.0) * l_a(a, k * r)
    return abs(lhs - rhs) / abs(rhs)
