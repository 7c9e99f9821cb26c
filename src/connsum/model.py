"""Geometry of the model connected sum.

Two product ends, R^2 x M_minus and R^{n_plus} x M_plus, are glued through
a rotationally symmetric neck.  An axis coordinate s runs from -S_minus
(far out on the two-dimensional end) to +S_plus (far out on the higher
dimensional end); the gluing sphere sits at |s| = R and the metric is an
exact product for |s| >= R.  Because the neck is rotationally symmetric,
separated-variables channels never mix, and every global object in the
package lives on the one-dimensional axis with the volume weight

    v(s) = c_minus * r       on the minus end (c_minus = 2 pi vol(M_-)),
    v(s) = c_plus * r^{n+-1} on the plus end  (c_plus = |S^{n+-1}| vol(M_+)),

interpolated through the neck by a two-point Hermite polynomial in log v.
The global radial function r(s) equals |s| for |s| >= R and dips smoothly
to 1 in the neck interior.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .quadrature import cc_segment, cheb_cumint_matrix, fornberg_weights


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere S^{n-1} in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def hermite_two_point(x0: float, vals0, x1: float, vals1) -> np.ndarray:
    """Coefficients (ascending) of the polynomial matching the given
    derivative values (f, f', f'', ...) at x0 and x1."""
    rows, rhs = [], []
    deg = len(vals0) + len(vals1) - 1
    for x, vals in ((x0, vals0), (x1, vals1)):
        for j, val in enumerate(vals):
            row = np.zeros(deg + 1)
            for p in range(j, deg + 1):
                row[p] = math.perm(p, j) * x ** (p - j)
            rows.append(row)
            rhs.append(val)
    return np.linalg.solve(np.array(rows), np.array(rhs))


@dataclass(frozen=True)
class CrossSection:
    """Compact cross-section factor of one end.

    `eigenvalues` lists the distinct eigenvalues mu_l^2 of the
    cross-section, ascending from 0, each once whatever its multiplicity:
    a channel index l names the whole mu_l^2 eigenspace (the circle of
    length L lists (2 pi l / L)^2 once, though l >= 1 has multiplicity 2).
    A repeated value would name one channel twice."""
    kind: str            # "point" | "circle" | "explicit"
    dim: int
    volume: float
    eigenvalues: tuple[float, ...]  # distinct, ascending, eigenvalues[0] == 0

    def __post_init__(self):
        if not (math.isfinite(self.volume) and self.volume > 0):
            raise ConfigError("cross-section volume must be a finite positive "
                              f"number, got {self.volume!r}")
        ev = self.eigenvalues
        if not all(math.isfinite(x) for x in ev):
            raise ConfigError(f"cross-section spectrum must be finite, got {ev}")
        if len(ev) == 0 or ev[0] != 0.0:
            raise ConfigError("cross-section spectrum must start at 0")
        if any(b <= a for a, b in zip(ev, ev[1:])):
            raise ConfigError(
                "cross-section spectrum must be strictly ascending: list "
                "each distinct eigenvalue once, since channel l names its "
                "whole eigenspace")
        if len(ev) > 1 and ev[1] <= 0:
            raise ConfigError("nonzero cross-section eigenvalues must be positive")

    def mu(self, l: int) -> float:
        return math.sqrt(self.eigenvalues[l])

    @staticmethod
    def point() -> "CrossSection":
        return CrossSection("point", 0, 1.0, (0.0,))

    @staticmethod
    def circle(length: float = 2 * math.pi, l_max: int = 32) -> "CrossSection":
        ev = tuple((2 * math.pi * l / length) ** 2 for l in range(l_max + 1))
        return CrossSection("circle", 1, length, ev)


@dataclass(frozen=True)
class EndSpec:
    """One product end R^n x M."""
    euclidean_dim: int
    cross_section: CrossSection
    gluing_radius: float

    @property
    def total_dim(self) -> int:
        return self.euclidean_dim + self.cross_section.dim

    @property
    def weight_constant(self) -> float:
        """c with v(s) = c * r^{n-1} on this end."""
        return sphere_area(self.euclidean_dim) * self.cross_section.volume


@dataclass(frozen=True)
class CutoffRadii:
    """Radial anchors of the standing cutoff functions.

    chi:  the K_0 gluing cutoff, rising on the minus end,
    phi:  the end cutoffs phi_{+-}, one per end,
    eta:  the plus-end deformation cutoff of the off-zero extension,
    zeta: the localizer of the interior parametrix,
    basepoint: the frozen kernel basepoints, strictly outside the neck
    and outside supp phi.
    """
    chi: tuple[float, float] = (3.0, 5.0)
    phi: tuple[float, float] = (6.0, 10.0)
    eta: tuple[float, float] = (4.0, 8.0)
    zeta: tuple[float, float] = (12.0, 16.0)
    basepoint: float = 2.5

    def __post_init__(self):
        for name in ("chi", "phi", "eta", "zeta"):
            pair = getattr(self, name)
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                raise ConfigError(
                    f"radii.{name} must be an increasing pair, got {pair!r}")
            pair = tuple(_require_finite(f"radii.{name}", x) for x in pair)
            if not pair[0] < pair[1]:
                raise ConfigError(
                    f"radii.{name} must be an increasing pair, got {pair}")
            object.__setattr__(self, name, pair)
        object.__setattr__(self, "basepoint",
                           _require_finite("radii.basepoint", self.basepoint))

    def breakpoints(self) -> list[float]:
        return sorted({*self.chi, *self.phi, *self.eta, *self.zeta})


def _require_integer(key: str, val, least: int) -> int:
    """val as an int, or a ConfigError naming key unless val is a
    numbers.Integral other than bool and >= least: a float or a JSON
    true is never truncated to an integer."""
    if not (isinstance(val, numbers.Integral) and not isinstance(val, bool)
            and val >= least):
        raise ConfigError(f"{key} must be an integer >= {least}, got "
                          f"{val!r}")
    return int(val)


def _require_finite(key: str, val) -> float:
    """val as a float, or a ConfigError naming key unless val is a finite
    real number other than bool."""
    if not (isinstance(val, numbers.Real) and not isinstance(val, bool)
            and math.isfinite(val)):
        raise ConfigError(f"{key} must be a finite number, got {val!r}")
    return float(val)


@dataclass(frozen=True)
class GridSpec:
    """Grid resolution.  Each half of the neck gets neck_pts // 2 + 1
    nodes, so neck_pts >= 32 gives it at least 17."""
    pts_per_decade: int = 96
    neck_pts: int = 129
    min_segment_pts: int = 33

    def __post_init__(self):
        for name, least in (("pts_per_decade", 1), ("neck_pts", 32),
                            ("min_segment_pts", 2)):
            _require_integer(f"grid.{name}", getattr(self, name), least)


# the keys a cross-section entry of the spectra block may give, by type
_SECTION_KEYS = {"point": ("type",), "circle": ("type", "length", "l_max"),
                 "explicit": ("type", "dim", "volume", "spectrum")}


@dataclass(frozen=True)
class GeometryConfig:
    n_plus: int = 3
    minus_section: CrossSection = field(default_factory=CrossSection.circle)
    plus_section: CrossSection = field(default_factory=CrossSection.point)
    R: float = 2.0
    S_minus: float = 128.0
    S_plus: float = 128.0
    grid: GridSpec = field(default_factory=GridSpec)
    radii: CutoffRadii = field(default_factory=CutoffRadii)

    def __post_init__(self):
        for key in ("R", "S_minus", "S_plus"):
            object.__setattr__(self, key,
                               _require_finite(key, getattr(self, key)))

    @staticmethod
    def from_dict(raw: dict) -> "GeometryConfig":
        def known(spec, keys, where=""):
            for key in spec:
                if key not in keys:
                    raise ConfigError(
                        f"unknown geometry key {where + str(key)!r}")

        def section(key, spec):
            if not isinstance(spec, dict):
                raise ConfigError(f"geometry key {key!r} must be a mapping")
            kind = spec.get("type", "explicit")
            if not isinstance(kind, str) or kind not in _SECTION_KEYS:
                raise ConfigError(f"geometry key '{key}.type' must be one of "
                                  f"{', '.join(_SECTION_KEYS)}, got {kind!r}")
            known(spec, _SECTION_KEYS[kind], f"{key}.")
            if kind == "point":
                return CrossSection.point()
            if kind == "circle":
                length = _require_finite(f"{key}.length",
                                         spec.get("length", 2 * math.pi))
                if not length > 0:
                    raise ConfigError(f"{key}.length must be positive, got "
                                      f"{length!r}")
                args = (length, _require_integer(f"{key}.l_max",
                                                 spec.get("l_max", 32), 0))
                build = CrossSection.circle
            else:
                for name in ("dim", "volume", "spectrum"):
                    if name not in spec:
                        raise ConfigError(
                            f"missing geometry key '{key}.{name}'")
                spectrum = spec["spectrum"]
                if not isinstance(spectrum, (list, tuple)):
                    raise ConfigError(f"{key}.spectrum must be a list, got "
                                      f"{spectrum!r}")
                args = ("explicit",
                        _require_integer(f"{key}.dim", spec["dim"], 0),
                        _require_finite(f"{key}.volume", spec["volume"]),
                        tuple(_require_finite(f"{key}.spectrum[{i}]", x)
                              for i, x in enumerate(spectrum)))
                build = CrossSection
            try:
                return build(*args)
            except ConfigError as exc:
                raise ConfigError(f"{key}: {exc}") from None

        if not isinstance(raw, dict):
            raise ConfigError("geometry config must be a JSON object, got "
                              f"{type(raw).__name__}")
        known(raw, ("n_plus", "spectra", "R", "S_minus", "S_plus", "grid",
                    "radii"))
        kwargs = {}
        if "n_plus" in raw:
            kwargs["n_plus"] = _require_integer("n_plus", raw["n_plus"], 0)
        spectra = raw.get("spectra", {})
        if not isinstance(spectra, dict):
            raise ConfigError("geometry key 'spectra' must be a mapping")
        known(spectra, ("minus", "plus"), "spectra.")
        # a side the spectra block omits keeps its default section
        for side in ("minus", "plus"):
            if side in spectra:
                kwargs[f"{side}_section"] = section(f"spectra.{side}",
                                                    spectra[side])
        for key in ("R", "S_minus", "S_plus"):
            if key in raw:
                kwargs[key] = raw[key]
        for key, block_type in (("grid", GridSpec), ("radii", CutoffRadii)):
            if key in raw:
                block = raw[key]
                if not isinstance(block, dict):
                    raise ConfigError(f"geometry key '{key}' must be a "
                                      "mapping")
                known(block, [f.name for f in fields(block_type)], f"{key}.")
                kwargs[key] = block_type(**block)
        return GeometryConfig(**kwargs)

    @staticmethod
    def from_json(path) -> "GeometryConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read geometry file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"geometry file is not valid JSON: {exc}") from exc
        return GeometryConfig.from_dict(raw)


class NeckProfile:
    """Weight and radial interpolants through the neck |s| <= R."""

    # derivatives of log v matched at s = -+R: as many as the C^4 radial
    # dip below and the C^4 cutoff smoothstep (cutoffs) carry
    SMOOTHNESS = 4

    def __init__(self, minus: EndSpec, plus: EndSpec, R: float):
        m = self.SMOOTHNESS
        # log v matched to log(c |s|^{n-1}) of each end at its side, s = -+R
        def end_derivs(end, s):
            power = end.euclidean_dim - 1.0
            vals = [math.log(end.weight_constant) + power * math.log(abs(s))]
            sign = 1.0
            for j in range(1, m + 1):
                vals.append(power * sign * math.factorial(j - 1) / s ** j)
                sign *= -1.0
            return vals

        self._logv = hermite_two_point(-R, end_derivs(minus, -R),
                                       R, end_derivs(plus, R))
        self._dlogv = np.polynomial.polynomial.polyder(self._logv)
        # radial function: even C^4 dip from r(+-R) = R to r(0) ~ 1
        self._rpoly = hermite_two_point(0.0, [1.0, 0.0, 0.0, 0.0, 0.0],
                                        R, [R, 1.0, 0.0, 0.0, 0.0])
        xs = np.linspace(0, R, 200)
        rv = np.polynomial.polynomial.polyval(xs, self._rpoly)
        if rv.min() < 0.98 or np.any(np.diff(rv) < -1e-12):
            raise ConfigError(
                f"neck radial interpolant ill-behaved for R={R}; use R >= 1.5")

    def weight(self, s):
        return np.exp(np.polynomial.polynomial.polyval(np.asarray(s, float),
                                                       self._logv))

    def dlog_weight(self, s):
        return np.polynomial.polynomial.polyval(np.asarray(s, float), self._dlogv)

    def radial(self, s):
        return np.polynomial.polynomial.polyval(np.abs(np.asarray(s, float)),
                                                self._rpoly)


class ModelManifold:
    """Immutable model geometry with its computational grid.

    The grid is segmented at every cutoff corner (so composite quadrature
    and stencils never straddle a transition corner), log-spaced in r on
    the ends and uniform through the neck.  `weights` are the quadrature
    weights of the volume measure v(s) ds; `weights_plain` integrate ds.
    """

    def __init__(self, config: GeometryConfig):
        c = config
        if c.n_plus < 3:
            raise ConfigError(f"invalid dimension: n_plus must be >= 3, got {c.n_plus}")
        self.minus = EndSpec(2, c.minus_section, c.R)
        self.plus = EndSpec(c.n_plus, c.plus_section, c.R)
        if self.minus.total_dim != self.plus.total_dim:
            raise ConfigError(
                f"total dimension mismatch: {self.minus.euclidean_dim} + "
                f"dim(M-) = {self.minus.total_dim} != n_plus + dim(M+) = "
                f"{self.plus.total_dim}")
        if not (1.5 <= c.R < c.radii.breakpoints()[0]):
            raise ConfigError("need 1.5 <= R < first cutoff radius")
        if c.S_minus <= c.radii.zeta[1] or c.S_plus <= c.radii.zeta[1]:
            raise ConfigError("domain must extend beyond the outermost cutoff")
        if not (c.R < c.radii.basepoint < c.radii.phi[0]):
            raise ConfigError("basepoint must sit between the neck and supp phi")

        self.config = c
        self.R = c.R
        self.radii = c.radii
        self.neck = NeckProfile(self.minus, self.plus, c.R)
        self._build_grid()

    # -- grid ---------------------------------------------------------------

    def _build_grid(self):
        """Segmented grid: Clenshaw-Curtis nodes per segment, in log r on
        the ends and in s through the neck.  Every cutoff corner is a
        segment boundary, so per-segment integrands are analytic (the
        cutoff transitions are polynomials) and the quadrature and
        cumulative integrals are spectrally accurate."""
        c = self.config
        breaks = self.radii.breakpoints()
        minus_bounds = [c.R] + [b for b in breaks if c.R < b < c.S_minus] + [c.S_minus]
        plus_bounds = [c.R] + [b for b in breaks if c.R < b < c.S_plus] + [c.S_plus]

        def count(th0, th1):
            return max(c.grid.min_segment_pts,
                       int(round((th1 - th0) / math.log(10) * c.grid.pts_per_decade)) + 1)

        segdefs = []  # (kind, theta_lo, theta_hi, n), ascending in s
        for lo, hi in reversed(list(zip(minus_bounds[:-1], minus_bounds[1:]))):
            t0, t1 = -math.log(hi), -math.log(lo)
            segdefs.append(("minus", t0, t1, count(t0, t1)))
        # split at s = 0: the radial interpolant is only C^4 across the tip
        half_neck = c.grid.neck_pts // 2 + 1
        segdefs.append(("neck", -c.R, 0.0, half_neck))
        segdefs.append(("neck", 0.0, c.R, half_neck))
        for lo, hi in zip(plus_bounds[:-1], plus_bounds[1:]):
            t0, t1 = math.log(lo), math.log(hi)
            segdefs.append(("plus", t0, t1, count(t0, t1)))

        nodes: list[float] = []
        wplain: list[float] = []
        # (start index, n, theta nodes, jacobian ds/dtheta, kind)
        self.segments = []
        for kind, t0, t1, n in segdefs:
            th, w = cc_segment(t0, t1, n)
            if kind == "minus":
                s_seg = -np.exp(-th)
                jac = np.exp(-th)
            elif kind == "plus":
                s_seg = np.exp(th)
                jac = np.exp(th)
            else:
                s_seg = th
                jac = np.ones_like(th)
            wj = w * jac
            if nodes and abs(nodes[-1] - s_seg[0]) < 1e-11:
                start = len(nodes) - 1
                wplain[-1] += wj[0]
                nodes.extend(s_seg[1:])
                wplain.extend(wj[1:])
            else:
                start = len(nodes)
                nodes.extend(s_seg)
                wplain.extend(wj)
            self.segments.append((start, n, th, jac, kind))

        self.s = np.asarray(nodes)
        self.weights_plain = np.asarray(wplain)
        if np.any(np.diff(self.s) <= 0):
            raise ConfigError("grid nodes are not strictly increasing")
        self.v = self.weight(self.s)
        self.weights = self.weights_plain * self.v
        self.n = len(self.s)
        self.r = self.radial(self.s)
        bounds = [-b for b in minus_bounds[::-1]] + [b for b in plus_bounds]
        self.segment_bounds = np.array(sorted(set(bounds)))

    def cumulative_integral(self, y) -> np.ndarray:
        """int_{s_0}^{s_i} y ds, spectrally accurate per segment."""
        y = np.asarray(y, dtype=float)
        out = np.empty(self.n)
        offset = 0.0
        for start, n, th, jac, _kind in self.segments:
            sl = slice(start, start + n)
            half = 0.5 * (th[-1] - th[0])
            local = cheb_cumint_matrix(n) @ (y[sl] * jac) * half
            out[sl] = offset + local
            offset = out[start + n - 1]
        return out

    @cached_property
    def kink_kappa(self) -> tuple[np.ndarray, np.ndarray]:
        """(kappa_ramp, kappa_step): node-local quadrature-defect weights.

        For a kernel composition int K(z, y) f(y) dV(y) whose integrand
        has, at the node y = z_i, a slope jump J1 (in d/ds units) and a
        value jump J0, the corrected Nystrom sum is

            sum_j K_ij q_j f_j + (J1_i kappa_ramp_i + J0_i kappa_step_i) f_i,

        where the jumps are those of K(z_i, .) f v combined (f smooth:
        jumps of K times f_i v_i, already folded into kappa here).
        """
        from .quadrature import cc_kink_coefficients

        k1 = np.zeros(self.n)
        k0 = np.zeros(self.n)
        for start, n, th, jac, _kind in self.segments:
            sl = slice(start, start + n)
            C1, C0 = cc_kink_coefficients(n)
            half = 0.5 * (th[-1] - th[0])
            k1[sl] += self.v[sl] * jac ** 2 * half ** 2 * C1
            k0[sl] += self.v[sl] * jac * half * C0
        return k1, k0

    @cached_property
    def neck_marching(self) -> dict[bool, list[tuple]]:
        """The energy-independent pieces of the neck collocation
        (bvp._neck_collocation), keyed by its marching direction
        (from_plus): for each neck segment in marching order, (start, J,
        J @ J, (log v)', I + (log v)' J, s - s0), with J the scaled
        Chebyshev cumulative integral from the marching side and s0 that
        side's node.  The arrays are read-only."""
        segs = [(start, n, th) for start, n, th, _jac, kind
                in self.segments if kind == "neck"]
        out = {}
        for from_plus in (False, True):
            pieces = []
            for start, n, th in segs[::-1] if from_plus else segs:
                s_seg = self.s[start:start + n]
                dlv = self.dlog_weight(s_seg)
                J = cheb_cumint_matrix(n) * (0.5 * (th[-1] - th[0]))
                if from_plus:
                    # integrate from the right end: J~ y = -(J_total - J)
                    J = J - J[-1][None, :]
                ds = s_seg - (s_seg[-1] if from_plus else s_seg[0])
                piece = (J, J @ J, dlv, np.eye(n) + dlv[:, None] * J, ds)
                for a in piece:
                    a.flags.writeable = False
                pieces.append((start, *piece))
            out[from_plus] = pieces
        return out

    def kink_diagonal(self, jump_ramp, jump_step) -> np.ndarray:
        """J1 kappa_ramp + J0 kappa_step: the diagonal that a kernel's
        diagonal slope jumps J1 and value jumps J0 add to its corrected
        Nystrom matrix.  Its left-variable kinks, met when the kernel is
        the right factor, take the step sign flipped: (J1, -J0)."""
        k1, k0 = self.kink_kappa
        return jump_ramp * k1 + jump_step * k0

    def laplacian(self, d1, d2) -> np.ndarray:
        """Delta y = -y'' - (log v)' y' on the grid, from the s-derivatives
        d1 = y' and d2 = y'' of a zero-channel grid function y."""
        return -d2 - self.dlog_weight(self.s) * d1

    # -- coordinate fields ----------------------------------------------------

    def _by_end(self, s, on_end, on_neck):
        """on_end(end, s) on each end's part of the axis points s,
        on_neck(s) in the neck."""
        s = np.asarray(s, dtype=float)
        out = np.empty_like(s)
        nk = np.abs(s) < self.R
        out[nk] = on_neck(s[nk])
        for end, on in ((self.minus, s <= -self.R), (self.plus, s >= self.R)):
            out[on] = on_end(end, s[on])
        return out

    def weight(self, s):
        """v = c |s|^{n-1} on each end, the neck interpolant between."""
        return self._by_end(s, lambda end, x: end.weight_constant
                            * np.abs(x) ** (end.euclidean_dim - 1),
                            self.neck.weight)

    def dlog_weight(self, s):
        """(log v)' = (n - 1)/s on each end."""
        return self._by_end(s, lambda end, x: (end.euclidean_dim - 1.0) / x,
                            self.neck.dlog_weight)

    def radial(self, s):
        """Global radial function: |s| on the ends, >= 1 everywhere."""
        arr = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.abs(arr)
        nk = out < self.R
        if nk.any():
            out[nk] = self.neck.radial(arr[nk])
        return float(out[0]) if np.ndim(s) == 0 else out

    def end_spec(self, end: str) -> EndSpec:
        return self.minus if end == "minus" else self.plus

    @staticmethod
    def dr_ds(end: str) -> float:
        """dr/ds on one end: s runs outward on the plus end and inward on
        the minus end, so d/ds = dr_ds(end) d/dr there.  Every conversion
        between d/ds and d/dr reads it."""
        return -1.0 if end == "minus" else 1.0

    # -- masks on the grid ----------------------------------------------------

    @cached_property
    def mask_minus(self):
        return self.s <= -self.R

    @cached_property
    def mask_plus(self):
        return self.s >= self.R

    def integrate(self, f) -> float:
        """Integral of a grid function against the volume measure v ds."""
        return float(np.dot(self.weights, np.asarray(f, dtype=float)))


def build_model(config: GeometryConfig | None = None) -> ModelManifold:
    """Construct the model of a geometry config (the default one if
    None)."""
    return ModelManifold(GeometryConfig() if config is None else config)


# ---------------------------------------------------------------------------
# discrete radial operators


def decaying_channel(end: EndSpec, angular: int, kappa: float, R: float, r):
    """(value, d/dr, d/dr log) at radii r of the solution of channel m
    decaying as r -> oo on an end of Euclidean dimension n:
    r^{-nu0} K_{nu0+m}(kappa r), nu0 = n/2 - 1, or at kappa = 0 the power
    r^{2-n-m}.  value and d/dr are normalized to 1 at r = R and in hat
    form (the solution is value e^{-kappa (r - R)}), from the scaled
    Ks_nu(x) = e^x K_nu(x): d/dr[r^{-nu0} K_{nu0+m}] = r^{-nu0} ((m/r)
    K_{nu0+m} - kappa K_{nu0+m+1}), d/dr log = m/r - kappa
    Ks_{nu0+m+1}/Ks_{nu0+m}.  No value leaves the double range."""
    from . import specfun as sf

    n = end.euclidean_dim
    m = angular
    r = np.asarray(r, dtype=float)
    if kappa == 0.0:
        p = -(n - 2.0) - m
        return (r / R) ** p, p / R * (r / R) ** (p - 1.0), p / r
    nu0 = 0.5 * n - 1.0
    den = R ** (-nu0) * sf.bessel_K(nu0 + m, kappa * R, scaled=True)
    rn = r ** (-nu0)
    k_m = sf.bessel_K(nu0 + m, kappa * r, scaled=True)
    k_m1 = sf.bessel_K(nu0 + m + 1.0, kappa * r, scaled=True)
    return (rn * k_m / den, (rn * (m / r) * k_m - kappa * rn * k_m1) / den,
            m / r - kappa * k_m1 / k_m)


def decaying_radial_logderiv(end: EndSpec, angular: int, kappa: float,
                             r: float) -> float:
    """d/dr log of the decaying channel solution (`decaying_channel`) at
    the radius r."""
    return float(decaying_channel(end, angular, kappa, r, r)[2])


def channel_profile(end: EndSpec, angular: int, kappa: float, R: float):
    """(value, d/dr) functions of the radius r (arrays too) for the
    decaying channel solution `decaying_channel`, out of hat form."""
    def part(j):
        return lambda r: decaying_channel(end, angular, kappa, R, r)[j] \
            * np.exp(-kappa * (np.asarray(r, dtype=float) - R))

    return part(0), part(1)


def radiation_logderiv(model: ModelManifold, k: float, s: float) -> float:
    """d/ds log of the glued zero-channel solution decaying toward the
    nearer infinity, at the axis point s.  Exact radiation condition:
    domain truncation then commits no error for the model."""
    end = "minus" if s < 0 else "plus"
    return model.dr_ds(end) * decaying_radial_logderiv(model.end_spec(end),
                                                       0, k, abs(s))


def radial_laplacian(model: ModelManifold, k: float = 0.0, order: int = 4):
    """Discrete (Delta + k^2) of the glued zero channel on the whole axis
    grid, in the band storage of `_fd_operator` (`order` diagonals on
    each side) that scipy.linalg.solve_banded takes; `band_matrix`
    expands it.

    Delta is the positive Laplacian -v^{-1}(v u')'.  The outer boundaries
    are closed with the exact decaying log-derivative.
    """
    x = model.s
    ends = [radiation_logderiv(model, k, xi) for xi in (x[0], x[-1])]
    return _fd_operator(x, model.dlog_weight(x), k * k, order, ends)


def _fd_operator(x, dlv, shift, order: int, ends) -> np.ndarray:
    """Finite-difference operator u -> -u'' - dlv u' + shift u on the
    ascending nodes x, by (order + 1)-point Fornberg stencils kept inside
    the grid.  ends gives the first and last rows: each number L the
    radiation row u' - L u = 0.

    Every stencil lies within `order` diagonals of its row, so the
    operator is returned in the diagonal-ordered band storage
    ab[order + i - j, j] = A[i, j]; `band_matrix` expands it."""
    n = len(x)
    width = order + 1
    half = width // 2
    shift = np.broadcast_to(shift, (n,))
    ab = np.zeros((2 * order + 1, n))
    rows = np.arange(1, n - 1)
    cols = np.arange(width)[:, None] + np.clip(rows - half, 0, n - width)
    w = fornberg_weights(x[rows], x[cols], 2)
    ab[order + rows - cols, cols] = -w[2] - dlv[rows] * w[1]
    ab[order, rows] += shift[rows]
    for i, logderiv in zip((0, n - 1), ends):
        j0 = 0 if i == 0 else n - width
        cols = np.arange(j0, j0 + width)
        w = fornberg_weights(x[i], x[cols], 1)
        ab[order + i - cols, cols] = w[1]
        ab[order, i] -= logderiv
    return ab


def band_matrix(ab: np.ndarray) -> np.ndarray:
    """The dense n x n matrix A[i, j] = ab[u + i - j, j] of a band storage
    with u = (len(ab) - 1) / 2 diagonals on each side."""
    u = (ab.shape[0] - 1) // 2
    n = ab.shape[1]
    A = np.zeros((n, n))
    for d in range(-u, u + 1):
        j = np.arange(max(d, 0), n + min(d, 0))
        A[j - d, j] = ab[u - d, j]
    return A
