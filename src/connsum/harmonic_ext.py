"""Harmonic extensions on the product ends and exterior
Dirichlet-to-Neumann operators as per-channel multipliers.

On an end R^n x M, boundary data on the gluing sphere r = R decomposes
into channels (m, l): spherical harmonic degree m (the Fourier mode on
the angle when n = 2), eigenvalue mu_l^2 on the cross-section.  Every
channel profile is the one decaying channel solution
`model.decaying_channel` with kappa = mu_l, normalized to 1 at R (read
through `model.channel_profile`).  On the two-dimensional end it is

    (r/R)^{-|m|}                       l = 0, m != 0,
    1                                  (m, l) = (0, 0),
    K_{|m|}(mu_l r) / K_{|m|}(mu_l R)  l >= 1,

the bounded extension; on an end with n >= 3, the decaying one.  The
exterior DtN operator is the diagonal map f -> lambda_{ml} f with
lambda_{ml} = -(d/dr) log b_{ml}(R) (`model.decaying_radial_logderiv`),
a first-order symbol: lambda ~ |m|/R at large m, ~ mu_l at large mu_l R.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, TruncationError
from .model import EndSpec, channel_profile, decaying_radial_logderiv

Channel = tuple[int, int]  # (angular degree m >= 0, cross index l >= 0)


@dataclass(frozen=True)
class BoundaryData:
    """Channel coefficients of a function on the gluing sphere of one end."""
    end: str                      # "minus" | "plus"
    R: float
    coeffs: dict[Channel, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.end not in ("minus", "plus"):
            raise DomainError("BoundaryData.end must be 'minus' or 'plus'")
        for (m, l) in self.coeffs:
            if m < 0 or l < 0:
                raise DomainError(f"invalid channel {(m, l)}")

    @staticmethod
    def constant(end: str, R: float) -> "BoundaryData":
        """The constant 1 on the gluing sphere."""
        return BoundaryData(end, R, {(0, 0): 1.0})


@dataclass(frozen=True)
class HarmonicExtension:
    """Harmonic continuation of boundary data into one end."""
    end_spec: EndSpec
    data: BoundaryData

    @property
    def R(self) -> float:
        return self.data.R

    def profile(self, m: int, l: int):
        """(value, d/dr) of the channel profile, normalized to 1 at R."""
        return channel_profile(self.end_spec, m,
                               self.end_spec.cross_section.mu(l), self.R)

    def channel_values(self, m: int, l: int, r):
        val, _ = self.profile(m, l)
        return self.data.coeffs.get((m, l), 0.0) * val(r)

    def ode_residual(self, m: int, l: int, r):
        """Residual of the radial channel ODE on the profile, with the
        second derivative from five-point differences (relative step
        1e-3) of the analytic first derivative."""
        val, der = self.profile(m, l)
        r = np.asarray(r, dtype=float)
        hh = 1e-3 * r
        d2 = (-der(r + 2 * hh) + 8 * der(r + hh) - 8 * der(r - hh)
              + der(r - 2 * hh)) / (12 * hh)
        n = self.end_spec.euclidean_dim
        mu2 = self.end_spec.cross_section.eigenvalues[l]
        pot = m * (m + n - 2) / r ** 2 + mu2
        return -d2 - (n - 1.0) / r * der(r) + pot * val(r)


def extend_minus(end: EndSpec, f: BoundaryData) -> HarmonicExtension:
    """Harmonic extension of minus-end boundary data (`_extend`)."""
    return _extend("minus", end, f)


def extend_plus(end: EndSpec, f: BoundaryData) -> HarmonicExtension:
    """Harmonic extension of plus-end boundary data (`_extend`)."""
    return _extend("plus", end, f)


def _extend(side: str, end: EndSpec, f: BoundaryData) -> HarmonicExtension:
    """The unique harmonic extension of f into the end whose channels all
    follow the decaying channel solution: on a two-dimensional end the
    bounded one, tending to the (0, 0) coefficient at infinity, and on an
    end of dimension n >= 3 the decaying one, O(r^{2-n})."""
    if f.end != side:
        raise DomainError(f"extend_{side} needs {side}-end boundary data")
    n_modes = len(end.cross_section.eigenvalues)
    for (m, l) in f.coeffs:
        if l >= n_modes:
            raise TruncationError(
                f"channel (m={m}, l={l}) beyond the configured spectrum "
                f"truncation ({n_modes} modes)")
    return HarmonicExtension(end, f)


def dtn_multiplier(end: EndSpec, m: int, l: int, R: float) -> float:
    """Exterior DtN eigenvalue on channel (m, l): minus the radial
    log-derivative at R of the decaying harmonic profile (0.0 - keeps the
    constant minus-end channel at +0)."""
    return 0.0 - decaying_radial_logderiv(end, m, end.cross_section.mu(l), R)


def dtn_symbol_check(end: EndSpec, R: float, m_max: int = 20) -> dict:
    """First-order-symbol ratios of the DtN multipliers.

    Angular: lambda_{m0} / (expected slope (n - 2 + m)/R, which is m/R on
    the two-dimensional end) as m grows; cross-section: lambda_{0l} / mu_l
    as mu_l R grows.  Both tend to 1.
    """
    if m_max < 10:
        raise DomainError("dtn_symbol_check: need m_max >= 10")
    n = end.euclidean_dim
    ang = {m: dtn_multiplier(end, m, 0, R) / ((n - 2 + m) / R)
           for m in range(1, m_max + 1)}
    cross = {l: dtn_multiplier(end, 0, l, R) / end.cross_section.mu(l)
             for l in range(1, len(end.cross_section.eigenvalues))}
    return {"angular_ratio": ang, "cross_ratio": cross,
            "worst_angular": max(abs(v - 1) for v in ang.values()),
            "cross_at_largest": cross[max(cross)] if cross else None}
