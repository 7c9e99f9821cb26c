import math
from dataclasses import dataclass

import numpy as np
import pytest

from connsum import bvp, keylemma as kl, model as md, specfun as sf
from connsum.cutoffs import Step, minus_cutoff_source, on_grid
from connsum.errors import DomainError
from connsum.model import EndSpec, channel_profile
from connsum.specfun import ilg

from oracles import (ModeChannel, apply_operator, fit_envelope,
                     segment_interior)


# ---------------------------------------------------------------------------
# estimate verification


def verify_key_estimates(approx: kl.KeyApproximation, ks,
                         c_rate: float = 0.5) -> dict:
    """Fit the smallest constants validating the pointwise bounds on u and
    its radial derivative over a (z, k) sweep, one constant per regime.

    Shapes: |u| <= C e^{-c k r} (minus end), C r^{2-n} e^{-c k r} (plus
    end), C (neck); |u'| <= C (r^{-2} + ilg k r^{-1}) e^{-c k r} (minus),
    C r^{1-n} e^{-c k r} (plus), with an extra factor ilg k on the plus
    end when the zero-energy solution vanishes identically there.
    """
    m = approx.model
    n = m.plus.euclidean_dim
    refined_plus = abs(approx.stages[0].c_raw) < 1e-13
    regimes = {key: [] for key in
               ("u_minus", "u_plus", "u_neck", "grad_minus", "grad_plus")}
    shapes = {key: [] for key in regimes}
    for k in ks:
        vals, dvals = approx.u(k)
        il = ilg(k)
        damp = np.exp(-c_rate * k * m.r)
        mi, pl = m.mask_minus, m.mask_plus
        nk = ~(mi | pl)
        regimes["u_minus"].append(vals[mi])
        shapes["u_minus"].append(damp[mi])
        regimes["u_plus"].append(vals[pl])
        shapes["u_plus"].append(m.r[pl] ** (2.0 - n) * damp[pl])
        regimes["u_neck"].append(vals[nk])
        shapes["u_neck"].append(np.ones(nk.sum()))
        regimes["grad_minus"].append(dvals[mi])
        shapes["grad_minus"].append(
            (m.r[mi] ** -2.0 + il * m.r[mi] ** -1.0) * damp[mi])
        gshape = m.r[pl] ** (1.0 - n) * damp[pl]
        if refined_plus:
            gshape = gshape * il
        regimes["grad_plus"].append(dvals[pl])
        shapes["grad_plus"].append(gshape)
    out = {}
    for key in regimes:
        out[key] = fit_envelope(np.concatenate(regimes[key]),
                                np.concatenate(shapes[key]))
    out["c_rate"] = c_rate
    out["plus_gradient_gains_ilg"] = refined_plus
    return out


# ---------------------------------------------------------------------------
# per-channel off-zero extensions


@dataclass(frozen=True)
class OffZeroExtension:
    """k-deformation of one decaying zero-energy channel profile, matched
    at the gluing radius."""
    end_spec: EndSpec
    channel: ModeChannel
    R: float

    def _profile(self, k: float):
        """(value, d/dr) at energy k^2: channels with l >= 1 already decay
        exponentially (kappa = mu_l, trivial in k), the l = 0 channels
        deform with kappa = k."""
        l = self.channel.cross_index
        kappa = self.end_spec.cross_section.mu(l) if l >= 1 else k
        return channel_profile(self.end_spec, self.channel.angular, kappa,
                               self.R)

    def profile(self, k: float, r):
        """Profile normalized to the zero-energy one at r = R."""
        return self._profile(k)[0](r)

    def profile_dr(self, k: float, r):
        return self._profile(k)[1](r)


def extend_off_zero(model: md.ModelManifold,
                    channel: ModeChannel) -> OffZeroExtension:
    """Per-channel k-deformation of the decaying zero-energy profile.

    The constant channel on the minus end has no decaying branch: that is
    exactly the case handled by the beta K_0 mechanism instead.
    """
    if channel.end == "minus" and channel.is_zero:
        raise DomainError(
            "constant channel on the minus end: use the inverse-log "
            "K_0 mechanism, not an off-zero extension")
    return OffZeroExtension(model.end_spec(channel.end), channel, model.R)


@pytest.fixture(scope="module")
def model():
    return md.build_model()


@pytest.fixture(scope="module")
def sys0(model):
    return bvp.GluedSystem(model, 0.0)


def plus_cutoff_source(model):
    return -on_grid(model, Step(*model.radii.phi)).lap


@pytest.fixture(scope="module")
def key_minus(model, sys0):
    return kl.build_key_approximation(model, minus_cutoff_source(model),
                                      q=3, system=sys0)


class TestStages:
    def test_beta_one_for_minus_cutoff(self, key_minus):
        assert key_minus.stages[0].beta == pytest.approx(1.0, abs=1e-10)

    def test_plus_tail_vanishes_for_minus_cutoff(self, key_minus):
        # int v dV = 0 and the source sits left of the plus end
        assert abs(key_minus.stages[0].c_raw) < 1e-10

    def test_beta_recursion_geometric(self, key_minus):
        b1, b2, b3 = (st.beta for st in key_minus.stages)
        assert b3 / b2 == pytest.approx(b2 / b1, rel=1e-9)

    def test_stage_sources_exactly_supported(self, model, key_minus):
        a, b = model.radii.chi
        for st in key_minus.stages[1:]:
            outside = (model.s < -b - 1e-9) | (model.s > -a + 1e-9)
            assert np.all(st.source[outside] == 0.0)

    def test_u_at_zero_is_minus_phi(self, key_minus):
        u0, _ = key_minus.u(0.0)
        assert np.array_equal(u0, -key_minus.stages[0].phi.values)


class TestResidual:
    def test_closed_form_matches_direct_evaluation(self, model, key_minus):
        # independent oracle: high-order differentiation of u itself
        for j in (3, 5, 7):
            k = math.exp(-2.0 ** j)
            res_cf = key_minus.residual(k)
            uv, _ = key_minus.u(k)
            res_fd = apply_operator(model, uv, k=k) - key_minus.v
            mask = (np.abs(model.s) < 20) & segment_interior(model)
            assert np.max(np.abs((res_cf - res_fd)[mask])) < 1e-9

    @pytest.mark.parametrize("q,lo,hi", [(2, 1.8, 2.2), (3, 2.8, 3.2)])
    def test_residual_order(self, model, sys0, q, lo, hi):
        ka = kl.build_key_approximation(model, minus_cutoff_source(model),
                                        q=q, system=sys0)
        slope = kl.residual_slope(ka)
        assert lo <= slope <= hi

    def test_beta_zero_kills_ilg_terms(self, model, sys0):
        # v = Delta(bump): phi = -bump decays, beta = 0, residual pure k^2
        s = model.s
        bump = np.exp(-2.0 * s ** 2)
        lap_b = apply_operator(model, bump)
        ka = kl.build_key_approximation(model, lap_b, q=2, system=sys0)
        assert abs(ka.stages[0].beta) < 1e-8
        k = 1e-3
        res = ka.residual(k)
        assert np.max(np.abs(res)) < 10 * k * k * np.max(np.abs(bump)) + 1e-12

    def test_mis_set_beta_inflates_residual(self, model, sys0):
        # sensitivity of the Delta chi cancellation: the K_0 mechanism and
        # the V_+ - V_- = beta matching cancel the O(1) Delta chi terms,
        # leaving O(ilg k).  Shifting the V difference by delta beta
        # reinstates an O(delta) residual, proportional to delta.
        ka = kl.build_key_approximation(model, minus_cutoff_source(model),
                                        q=1, system=sys0)
        beta = ka.stages[0].beta
        k = math.exp(-64.0)
        mask = (np.abs(model.s) < 20) & segment_interior(model)
        uv, _ = ka.u(k)
        base = np.max(np.abs((apply_operator(model, uv, k=k)
                              - ka.v)[mask]))
        inflated = {}
        for delta in (0.05, 0.1):
            bad = uv - delta * beta * (1.0 - ka.chi.values)
            res = apply_operator(model, bad, k=k) - ka.v
            inflated[delta] = np.max(np.abs(res[mask]))
            assert inflated[delta] > 3 * base
        assert inflated[0.1] == pytest.approx(2 * inflated[0.05], rel=0.15)


class TestIlgCoefficients:
    def test_c1_equals_beta_times_log_harmonic(self, model, key_minus):
        U = bvp.build_log_harmonic(model)
        c1 = key_minus.ilg_coefficient(1)
        beta = key_minus.stages[0].beta
        mask = np.abs(model.s) < 12
        np.testing.assert_allclose(c1[mask], beta * U.values[mask], rtol=1e-9)

    def test_coefficient_extraction_by_fit(self, model, key_minus):
        # Richardson-style fit of u(z, k) in powers of ilg k recovers the
        # closed-form coefficients
        from connsum.fits import fit_ilg_series
        ks = [math.exp(-2.0 ** j) for j in (4, 5, 6, 7, 8)]
        mask = np.abs(model.s) < 10
        vals = np.array([key_minus.u(k)[0][mask] for k in ks])
        coef = fit_ilg_series(ks, vals, deg=3)
        c0 = key_minus.ilg_coefficient(0)[mask]
        c1 = key_minus.ilg_coefficient(1)[mask]
        scale = np.max(np.abs(c0))
        np.testing.assert_allclose(coef[0], c0, atol=1e-6 * scale)
        np.testing.assert_allclose(coef[1], c1, atol=1e-3 * np.max(np.abs(c1)))

    def test_out_of_range(self, key_minus):
        with pytest.raises(DomainError):
            key_minus.ilg_coefficient(3)


class TestEstimates:
    def test_envelopes_finite(self, key_minus):
        ks = [1e-1, 1e-2, 1e-4, 1e-8]
        out = verify_key_estimates(key_minus, ks)
        for key in ("u_minus", "u_plus", "u_neck", "grad_minus", "grad_plus"):
            assert math.isfinite(out[key]) and out[key] >= 0
        assert out["plus_gradient_gains_ilg"]  # phi vanishes on E_+ here

    def test_lower_bound_positive(self, key_minus):
        ks = [1e-3, 1e-4, 1e-6]
        out = kl.verify_lower_bound(key_minus, ks)
        assert out["applicable"] and out["positive"]
        assert out["constant"] > 0.5  # K_0 mechanism gives C ~ 1

    def test_lower_bound_vacuous_for_beta_zero(self, model, sys0):
        bump = np.exp(-2.0 * model.s ** 2)
        lap_b = apply_operator(model, bump)
        ka = kl.build_key_approximation(model, lap_b, q=2, system=sys0)
        out = kl.verify_lower_bound(ka, [1e-3])
        assert not out["applicable"]

    def test_k0_derivative_positive(self, model, key_minus):
        # d_r of -beta chi ilg k K_0(k r) is positive: K_0 decreasing
        k = 1e-4
        r = np.geomspace(12.0, 1000.0, 40)
        dr = key_minus.stages[0].beta * kl.ilg(k) * k * \
            np.array([sf.bessel_K(1.0, k * ri) for ri in r])
        assert np.all(dr > 0)


class TestOffZero:
    def test_minus_angular_profile(self, model):
        ext = extend_off_zero(model, ModeChannel("minus", 1, 0))
        r = np.array([2.0, 4.0, 16.0])
        np.testing.assert_allclose(ext.profile(0.0, r), (r / 2.0) ** -1,
                                   rtol=1e-13)
        # k -> 0 recovers the power
        np.testing.assert_allclose(ext.profile(1e-8, r), (r / 2.0) ** -1,
                                   rtol=1e-5)

    def test_deformed_profile_is_bessel(self, model, sys0):
        ext = extend_off_zero(model, ModeChannel("minus", 1, 0))
        k = 0.3
        r = np.array([3.0, 5.0])
        expected = sf.bessel_K(1.0, k * r) / sf.bessel_K(1.0, k * model.R)
        np.testing.assert_allclose(ext.profile(k, r), expected, rtol=1e-12)

    def test_derivative_slope_in_k(self, model):
        # d_r(V(., k) - V(., 0)) at r = 2R is O(k r^{-1}): the fitted
        # order is exactly 1 on the plus end and never below 1 on the
        # minus end (there the m = 1 deformation is in fact O(k^2 log k),
        # well inside the bound)
        from connsum.fits import loglog_slope
        ks = np.array([1e-3, 1e-4, 1e-5])
        r = np.array([2 * model.R])
        ext_p = extend_off_zero(model, ModeChannel("plus", 0, 0))
        diffs = [abs(float((ext_p.profile_dr(k, r) - ext_p.profile_dr(0.0, r))[0]))
                 for k in ks]
        assert loglog_slope(ks, np.array(diffs)) == pytest.approx(1.0, abs=0.05)
        ext_m = extend_off_zero(model, ModeChannel("minus", 1, 0))
        diffs_m = [abs(float((ext_m.profile_dr(k, r)
                              - ext_m.profile_dr(0.0, r))[0]))
                   for k in ks]
        assert loglog_slope(ks, np.array(diffs_m)) >= 0.9

    def test_profile_dr_is_derivative_of_profile(self, model):
        r = np.array([2.5, 4.0, 9.0, 30.0])
        h = 1e-3 * r
        for ch, k in ((ModeChannel("minus", 1, 0), 0.0),
                      (ModeChannel("minus", 1, 0), 0.3),
                      (ModeChannel("minus", 2, 1), 0.3),
                      (ModeChannel("plus", 0, 0), 0.0),
                      (ModeChannel("plus", 1, 0), 0.05)):
            ext = extend_off_zero(model, ch)
            fd = (-ext.profile(k, r + 2 * h) + 8 * ext.profile(k, r + h)
                  - 8 * ext.profile(k, r - h) + ext.profile(k, r - 2 * h)) \
                / (12 * h)
            np.testing.assert_allclose(ext.profile_dr(k, r), fd, rtol=0,
                                       atol=1e-8)

    def test_cross_channel_trivial_in_k(self, model):
        ext = extend_off_zero(model, ModeChannel("minus", 0, 1))
        r = np.array([3.0, 6.0])
        np.testing.assert_allclose(ext.profile(0.0, r), ext.profile(0.5, r))

    def test_constant_channel_rejected(self, model):
        with pytest.raises(DomainError):
            extend_off_zero(model, ModeChannel("minus", 0, 0))
