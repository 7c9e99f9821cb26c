"""Smooth cutoff functions with analytic derivatives.

All transitions use the C^4 polynomial smoothstep
S(t) = 126 t^5 - 420 t^6 + 540 t^7 - 315 t^8 + 70 t^9 on [0, 1], whose
first two derivatives have the closed forms
S'(t) = 630 t^4 (1-t)^4 and S''(t) = 2520 t^3 (1-t)^3 (1-2t).
Four matched derivatives at the corners keep composite quadrature and
high-order finite differences at full order across the transition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t ** 5 * (126 + t * (-420 + t * (540 + t * (-315 + 70 * t))))


def _smoothstep_d1(t):
    inside = (t > 0) & (t < 1)
    tc = np.where(inside, t, 0.5)
    return np.where(inside, 630 * tc ** 4 * (1 - tc) ** 4, 0.0)


def _smoothstep_d2(t):
    inside = (t > 0) & (t < 1)
    tc = np.where(inside, t, 0.5)
    return np.where(inside, 2520 * tc ** 3 * (1 - tc) ** 3 * (1 - 2 * tc), 0.0)


@dataclass(frozen=True)
class Step:
    """Monotone C^4 step: 0 for s <= a, 1 for s >= b (or reversed)."""
    a: float
    b: float
    falling: bool = False

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError("Step: need b > a")

    def _t(self, s):
        return (np.asarray(s, dtype=float) - self.a) / (self.b - self.a)

    def __call__(self, s):
        v = _smoothstep(self._t(s))
        return 1.0 - v if self.falling else v

    def d1(self, s):
        v = _smoothstep_d1(self._t(s)) / (self.b - self.a)
        return -v if self.falling else v

    def d2(self, s):
        v = _smoothstep_d2(self._t(s)) / (self.b - self.a) ** 2
        return -v if self.falling else v


def minus_cutoff(model) -> Step:
    """The standing minus-end cutoff phi_minus: 1 for r >= phi[1] and 0
    for r <= phi[0] on the minus end."""
    pa, pb = model.radii.phi
    return Step(-pb, -pa, falling=True)


def minus_cutoff_source(model) -> np.ndarray:
    """The source v = -Delta phi_minus on the grid of `model`."""
    return -on_grid(model, minus_cutoff(model)).lap


def log_cutoff(model):
    """(chi, log r, d/ds log r) on the grid of `model`, the pieces of
    chi log r: the K_0 gluing cutoff chi, 1 for r >= chi[1] and 0 for
    r <= chi[0] on the minus end, and log r and its d/ds on the minus end,
    zero elsewhere."""
    a, b = model.radii.chi
    on = model.mask_minus
    logr = np.where(on, np.log(model.r), 0.0)
    dlogr = np.where(on, model.dr_ds("minus") / model.r, 0.0)
    return on_grid(model, Step(-b, -a, falling=True)), logr, dlogr


@dataclass(frozen=True)
class Bump:
    """C^4 plateau bump: 0 off [a, d], 1 on [b, c]."""
    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if not (self.a < self.b <= self.c < self.d):
            raise ValueError("Bump: need a < b <= c < d")

    def __call__(self, s):
        up = Step(self.a, self.b)
        down = Step(self.c, self.d, falling=True)
        return up(s) * down(s)

    def d1(self, s):
        up, down = Step(self.a, self.b), Step(self.c, self.d, falling=True)
        return up.d1(s) * down(s) + up(s) * down.d1(s)

    def d2(self, s):
        up, down = Step(self.a, self.b), Step(self.c, self.d, falling=True)
        return up.d2(s) * down(s) + 2 * up.d1(s) * down.d1(s) + up(s) * down.d2(s)


@dataclass
class CutoffField:
    """A cutoff sampled on the grid with its s-derivatives and Laplacian."""
    values: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    lap: np.ndarray


def on_grid(model, cutoff) -> CutoffField:
    """Sample a Step or Bump on the grid of `model`."""
    s = model.s
    d1, d2 = cutoff.d1(s), cutoff.d2(s)
    return CutoffField(cutoff(s), d1, d2, model.laplacian(d1, d2))
