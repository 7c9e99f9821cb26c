"""Approximate low-energy solutions of (Delta + k^2) u = v by the staged
inverse-log construction.

One stage, for a compactly supported radial source w: solve
Delta phi = -w (bounded on the minus end, limit beta; decaying on the
plus end with tail coefficient c r^{2-n}), then glue

    u = -beta chi(r) ilg(k) K_0(k r) - chi V_- - (1 - chi) V_+(k),

where chi is 1 far out on the two-dimensional end, V_- = phi - beta is the
(exactly trivial) off-zero extension there, and V_+ deforms the plus tail
c r^{2-n} into the decaying Bessel profile
c r^{1-n/2} K_{n/2-1}(k r) / (leading constant) beyond a plus-side cutoff
eta.  Using K_0(x) = -log(x/2) - gamma + R0(x) everything collapses to

    (Delta + k^2) u - w = -ilg(k) * w_next + small(k),

with  w_next = -beta Delta(chi (log r - c_gamma))  compactly supported and
small(k) an explicit, exactly compactly supported O(k^2 log k) field.
Iterating q times yields a residual  -(ilg k)^q w_{q+1} + sum of smalls,
evaluated here in closed form (no numerical differentiation anywhere).

The inverse-log coefficient of u is available in closed form as well:
coefficient m >= 1 equals beta_m chi (log r - c_gamma) - phi_{m+1}, which
for m = 1 is (plus/minus sign conventions aside) beta times the global
log-growing harmonic function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun as sf
from .bvp import GlobalHarmonicSolution, GluedSystem, solve_laplace
from .cutoffs import Step, log_cutoff, on_grid
from .errors import DomainError
from .fits import loglog_slope
from .model import ModelManifold
from .specfun import C_GAMMA, ilg


def _gnu(nu: float, x):
    """g_nu(x) = K_nu(x) x^nu / (2^{nu-1} Gamma(nu)): the decaying radial
    profile normalized so that r^{2-n} g_nu(k r) -> r^{2-n} as k -> 0.
    K_nu is the scaled one times e^-x, so x past the double range of
    K_nu (k r on long ends) gives 0."""
    x = np.asarray(x, dtype=float)
    if nu == 0.5:
        return np.exp(-x)
    out = np.ones_like(x)
    big = x > 1e-8
    if big.any():
        xb = x[big]
        out[big] = sf.bessel_K(nu, xb, scaled=True) * np.exp(-xb) \
            * xb ** nu / (2 ** (nu - 1) * math.gamma(nu))
    return out


def _gnu_prime(nu: float, x):
    """d/dx g_nu(x) = -x^nu K_{nu-1}(x) / (2^{nu-1} Gamma(nu)), with
    K from the scaled one as in _gnu."""
    x = np.asarray(x, dtype=float)
    if nu == 0.5:
        return -np.exp(-x)
    out = np.zeros_like(x)
    pos = x > 0
    if pos.any():
        xp = x[pos]
        out[pos] = -xp ** nu \
            * (sf.bessel_K(abs(nu - 1.0), xp, scaled=True) * np.exp(-xp)) \
            / (2 ** (nu - 1) * math.gamma(nu))
    return out


# beta / sup |phi| up to which beta counts as 0: a source that is itself
# a Laplacian (of a bump, say) has beta = 0 up to the rounding of its
# spectral derivatives, 1e-14 to 3e-12 of sup |phi|, of either sign
BETA_ROUNDING = 1e-9
# verify_lower_bound checks the lower bound where k r <= LOWER_BOUND_EPS;
# residual_slope fits the residual at k = e^{-2^j}, j in RESIDUAL_SLOPE_J
LOWER_BOUND_EPS = 0.1
RESIDUAL_SLOPE_J = (3, 4, 5, 6, 7)


@dataclass
class KeyStage:
    """One stage of the construction, for one compact source."""
    source: np.ndarray
    phi: GlobalHarmonicSolution
    beta: float
    c_raw: float          # phi = c_raw r^{2-n} near plus infinity
    v_next: np.ndarray    # the next compact source (zero when beta = 0)

    @property
    def beta_positive(self) -> bool:
        """beta > BETA_ROUNDING sup |phi|: positive beyond rounding."""
        return self.beta > BETA_ROUNDING * np.max(np.abs(self.phi.values))


class KeyApproximation:
    """Approximate solution u(z, k) of (Delta + k^2) u = v to order q."""

    def __init__(self, model: ModelManifold, v, q: int = 3,
                 system: GluedSystem | None = None):
        if q < 1:
            raise DomainError("KeyApproximation: need q >= 1")
        self.model = model
        self.q = q
        self.v = np.asarray(v, dtype=float)
        sys0 = system if system is not None else GluedSystem(model, 0.0)
        # chi is 1 far out on the minus end, eta 1 far out on the plus end
        self.chi, self.logr, self.dlogr = log_cutoff(model)
        self.eta = on_grid(model, Step(*model.radii.eta))
        self.n_plus = model.plus.euclidean_dim
        self.nu = 0.5 * self.n_plus - 1.0
        # g = log r - c_gamma and the compact-source generator
        g = self.logr - C_GAMMA
        self.unit_next = -(g * self.chi.lap - 2.0 * self.chi.d1 * self.dlogr)
        self.stages: list[KeyStage] = []
        w = self.v
        for _ in range(q):
            phi = solve_laplace(model, w, system=sys0)
            # Delta phi = -w convention: solve_laplace solves Delta u = F
            phi = GlobalHarmonicSolution(-phi.values, -phi.dvalues,
                                         -phi.beta, -phi.plus_coeff)
            beta = phi.beta
            c_raw = phi.plus_coeff * model.R ** (self.n_plus - 2.0)
            v_next = beta * self.unit_next
            self.stages.append(KeyStage(w, phi, beta, c_raw, v_next))
            w = v_next
        self.final_source = w

    # -- pieces ---------------------------------------------------------------

    def _ilgterm(self, k: float):
        """ilg(k) (log r - c_gamma - R0(k r)) on supp chi, else 0, and its
        d/ds, ilg(k) (dr/ds) (1/r + k (K_1(k r) - 1/(k r))); it equals
        1 - ilg(k) K_0(k r) there.  Stable down to k = e^{-500}."""
        if k == 0.0:
            return np.zeros(self.model.n), np.zeros(self.model.n)
        s = self.model.s
        on = self.chi.values > 0
        out = np.zeros_like(s)
        dout = np.zeros_like(s)
        r = self.model.r[on]
        il = ilg(k)
        out[on] = il * (self.logr[on] - C_GAMMA - sf.k0_remainder(k * r))
        dout[on] = il * (self.dlogr[on] + self.model.dr_ds("minus") * k
                         * sf.k1_tail(k * r))
        return out, dout

    def _delta(self, k: float):
        """(delta_k, d/ds delta_k) with delta_k = r^{2-n}(g_nu(k r) - 1) on
        the support of the plus-side cutoff eta, zero elsewhere; k > 0."""
        m = self.model
        on = self.eta.values > 0
        r = m.r[on]
        n = self.n_plus
        gg = _gnu(self.nu, k * r)
        dgg = _gnu_prime(self.nu, k * r)
        delta = np.zeros(m.n)
        ddelta = np.zeros(m.n)
        delta[on] = r ** (2.0 - n) * (gg - 1.0)
        ddelta[on] = (2.0 - n) * r ** (1.0 - n) * (gg - 1.0) \
            + r ** (2.0 - n) * k * dgg
        return delta, ddelta

    def _deform(self, k: float):
        """(delta_k eta, d/ds of it), supported on the plus-side cutoff eta."""
        if k == 0.0:
            return np.zeros(self.model.n), np.zeros(self.model.n)
        delta, ddelta = self._delta(k)
        return (delta * self.eta.values,
                ddelta * self.eta.values + delta * self.eta.d1)

    def u(self, k: float):
        """(values, d/ds values) of the approximate solution at energy k."""
        term, dterm = self._ilgterm(k)
        dkv, dkd = self._deform(k)
        il = ilg(k) if k > 0 else 0.0
        vals = np.zeros(self.model.n)
        dvals = np.zeros(self.model.n)
        for i, st in enumerate(self.stages):
            ui = -st.phi.values + st.beta * self.chi.values * term
            dui = -st.phi.dvalues + st.beta * (self.chi.d1 * term
                                                + self.chi.values * dterm)
            if k > 0 and st.c_raw != 0.0:
                ui = ui - st.c_raw * dkv
                dui = dui - st.c_raw * dkd
            vals += il ** i * ui
            dvals += il ** i * dui
        return vals, dvals

    def radial_gradient(self, k: float) -> np.ndarray:
        """d_r(u + phi_1)(., k) on the minus end, the gradient the key
        lemma bounds below by beta ilg(k) / r (phi_1 the first stage's
        harmonic solution), from d/ds by the end's orientation."""
        _, dvals = self.u(k)
        return self.model.dr_ds("minus") * (dvals
                                            + self.stages[0].phi.dvalues)

    def residual(self, k: float):
        """(Delta + k^2) u - v in closed form."""
        m = self.model
        il = ilg(k) if k > 0 else 0.0
        out = -(il ** self.q) * self.final_source.copy()
        if k == 0.0:
            return out
        chi, eta = self.chi, self.eta
        on_chi = (np.abs(chi.d1) > 0) | (np.abs(chi.d2) > 0)
        r_chi = m.r[on_chi]
        R0 = sf.k0_remainder(k * r_chi)
        Q1 = k * sf.bessel_K(1.0, k * r_chi) - 1.0 / r_chi
        r2n_eta = np.where(eta.values > 0,
                           m.r ** (2.0 - self.n_plus) * eta.values, 0.0)
        delta, ddelta = self._delta(k)
        for i, st in enumerate(self.stages):
            small = k * k * (st.beta * chi.values - st.phi.values
                             + st.c_raw * r2n_eta)
            if st.beta != 0.0:
                add = np.zeros(m.n)
                add[on_chi] = -st.beta * il * chi.lap[on_chi] * R0 \
                    + 2.0 * st.beta * il * chi.d1[on_chi] * Q1
                small = small + add
            if st.c_raw != 0.0:
                small = small - st.c_raw * (delta * eta.lap
                                            - 2.0 * ddelta * eta.d1)
            out = out + il ** i * small
        return out

    def ilg_coefficient(self, m: int):
        """Closed-form coefficient of ilg(k)^m in the expansion of u at
        k = 0 (valid for m <= q - 1)."""
        if m < 0 or m > self.q - 1:
            raise DomainError("ilg_coefficient: need 0 <= m <= q-1")
        if m == 0:
            return -self.stages[0].phi.values
        st_prev = self.stages[m - 1]
        st = self.stages[m]
        return st_prev.beta * self.chi.values * (self.logr - C_GAMMA) \
            - st.phi.values


def build_key_approximation(model: ModelManifold, v, q: int = 3,
                            system: GluedSystem | None = None) -> KeyApproximation:
    """Staged approximate solution of (Delta + k^2) u = v for a compactly
    supported radial source."""
    return KeyApproximation(model, v, q=q, system=system)


# ---------------------------------------------------------------------------
# estimate verification


def verify_lower_bound(approx: KeyApproximation, ks) -> dict:
    """Check d_r(u + phi) >= C beta ilg(k)/r on {k r <= LOWER_BOUND_EPS,
    r >= r0} of the minus end, r0 = 1.2 times the outer radius of phi,
    and fit the largest such C (vacuous when beta <= 0, up to
    rounding)."""
    m = approx.model
    st = approx.stages[0]
    beta = st.beta
    if not st.beta_positive:
        return {"applicable": False, "beta": beta}
    r0 = m.radii.phi[1] * 1.2
    cs, rems = [], []
    for k in ks:
        dr = approx.radial_gradient(k)
        mask = m.mask_minus & (m.r >= r0) & (k * m.r <= LOWER_BOUND_EPS)
        if not mask.any():
            continue
        shape = beta * ilg(k) / m.r[mask]
        ratio = dr[mask] / shape
        cs.append(float(np.min(ratio)))
        rems.append(float(np.max(np.abs(dr[mask] - shape))) / (k / r0))
    c_fit = min(cs) if cs else math.nan
    return {"applicable": True, "beta": beta, "constant": c_fit,
            "remainder_scale": max(rems) if rems else math.nan,
            "positive": bool(cs and c_fit > 0)}


def residual_slope(approx: KeyApproximation) -> float:
    """Fitted order of sup_{|s| <= 20} |(Delta+k^2) u - v| against ilg k
    at k = e^{-2^j}, j in RESIDUAL_SLOPE_J."""
    m = approx.model
    mask = np.abs(m.s) <= 20.0
    ks = [math.exp(-2.0 ** j) for j in RESIDUAL_SLOPE_J]
    sups = [float(np.max(np.abs(approx.residual(k)[mask]))) for k in ks]
    return loglog_slope(ilg(np.array(ks)), np.array(sups))
