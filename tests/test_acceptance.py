"""Acceptance suite: every exit criterion, each as one test that prints a
pass/fail line with its measured numbers (run with -v or -rA to see them).

Tolerances are pinned here, at the stated values.  Two measurements are
implemented as the one-sided bounds that the underlying asymptotic
statements actually make (both recorded in the decisions ledger):

* the log-harmonic remainder on the two-dimensional end is exactly
  constant in this model (the zero channel has no r^{-1} tail), so the
  check is |U - log r - c_1| <= C r^{-1}, not an equality fit;
* the weighted Hilbert-Schmidt norm of the key-lemma error is
  O((ilg k)^{1/2}); the fitted slope must be at least 0.4 (it comes out
  near q - 1, i.e. the norm decays faster than the bound requires).
"""

import math

import numpy as np
import pytest

from connsum import bvp, checks, keylemma as kl, lp_estimator as lpe, \
    model as md, parametrix as px, riesz as rz, specfun as sf
from connsum.cutoffs import minus_cutoff_source
from connsum.fits import loglog_slope
from connsum.specfun import ilg

from oracles import (identity_residuals, log_harmonic_remainder,
                     schur_exponent_check)

RNG = np.random.default_rng(20260808)


def _line(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def model():
    return md.build_model()


@pytest.fixture(scope="module")
def sys0(model):
    return bvp.GluedSystem(model, 0.0)


def test_criterion_1_special_functions():
    worst = checks.bessel_vs_quadrature(range(0, 11),
                                        np.geomspace(1e-3, 50.0, 12))
    x = RNG.uniform(0.01, 20.0, 10000)
    y = x + RNG.uniform(1e-3, 30.0, 10000)
    viol_exp = sum(checks.exponential_comparison_violations(nu, x, y)
                   for nu in (0.0, 1.0, 5.0))
    ms = RNG.integers(1, 21, 10000)
    xs = np.exp(RNG.uniform(np.log(1e-3), np.log(50.0), 10000))
    viol_der = sum(checks.derivative_bound_violations(m, xs[ms == m])
                   for m in range(1, 21))
    ok = worst <= 1e-10 and viol_exp == 0 and viol_der == 0
    _line(1, ok, f"bessel rel err {worst:.2e} (<=1e-10), "
          f"exp-comparison violations {viol_exp}/10000, "
          f"derivative-bound violations {viol_der}/10000 (orders 1..20)")


def test_criterion_2_heat_identity():
    worst = 0.0
    for a in (2.0, 3.0, 4.0, 6.0):
        for k in np.geomspace(0.03, 3.0, 10):
            for r in np.geomspace(0.1, 10.0, 10):
                worst = max(worst,
                            sf.heat_resolvent_identity_check(a, float(k),
                                                             float(r)))
    _line(2, worst < 1e-6,
          f"heat-to-resolvent deviation {worst:.2e} (<1e-6) over "
          "a in {2,3,4,6}, 10x10 log grid")


def test_criterion_3_harmonic_extensions(model):
    from connsum import harmonic_ext as hx

    R = model.R
    coeffs = {(m, l): math.exp(-1.2 * m - 1.5 * l)
              for m in range(5) for l in range(3)}
    u = hx.extend_minus(model.minus, hx.BoundaryData("minus", R, coeffs))
    r = np.linspace(R + 0.5, 10.0, 20)
    res = max(float(np.max(np.abs(u.ode_residual(m, l, r))))
              for (m, l) in coeffs if (m, l) != (0, 0))
    rs = R * 2.0 ** np.arange(1, 9)
    bounded = True
    for M in range(5):
        tail = np.zeros_like(rs)
        for (m, l) in coeffs:
            if l == 0 and m <= M:
                continue
            tail += np.abs(u.channel_values(m, l, rs))
        scaled = tail * rs ** (M + 1)
        bounded = bounded and scaled[-1] <= scaled[0] * 1.01
    sec = md.CrossSection("explicit", 1, 2 * math.pi, (0.0, (50.0 / R) ** 2))
    dev_minus = abs(hx.dtn_symbol_check(md.EndSpec(2, sec, R), R)
                    ["cross_at_largest"] - 1.0)
    dev_plus = abs(hx.dtn_symbol_check(md.EndSpec(3, sec, R), R)
                   ["cross_at_largest"] - 1.0)
    ok = res < 1e-8 and bounded and dev_minus < 0.05 and dev_plus < 0.05
    _line(3, ok, f"ODE residual {res:.1e} (<1e-8), expansion remainders "
          f"bounded to M=4: {bounded}, DtN symbol deviations "
          f"{dev_minus:.3f}/{dev_plus:.3f} (<0.05 at mu R = 50)")


def test_criterion_4_bvp(model, sys0):
    hom = checks.homogeneous_norm(model)
    U = bvp.build_log_harmonic(model, system=sys0)
    r_far, rem = log_harmonic_remainder(model, U)
    rem_minus = float(np.max(rem))
    if rem_minus < 1e-10:
        minus_ok = True
        minus_desc = f"exactly constant ({rem_minus:.1e})"
    else:
        slope = loglog_slope(r_far, rem)
        minus_ok = slope <= -0.9
        minus_desc = f"fitted exponent {slope:.2f}"
    farp = model.s > 6.0
    slope_plus = loglog_slope(model.r[farp], np.abs(U.values[farp]))
    plus_ok = abs(slope_plus + 1.0) <= 0.1
    _, beta_shift = checks.beta_refinement(model, sys0)
    beta_ok = beta_shift < 1e-4
    ok = hom < 1e-10 and minus_ok and plus_ok and beta_ok
    _line(4, ok, f"homogeneous {hom:.1e} (<1e-10); minus remainder "
          f"{minus_desc}; plus exponent {slope_plus:.3f} (-1 +- 0.1); "
          f"beta refinement shift {beta_shift:.1e} (<1e-4)")


def test_criterion_5_key_lemma(model, sys0):
    v = minus_cutoff_source(model)
    slopes = {}
    for q in (2, 3):
        ka = kl.build_key_approximation(model, v, q=q, system=sys0)
        slopes[q] = kl.residual_slope(ka)
    slope_ok = all(slopes[q] >= q - 0.2 for q in (2, 3))
    ka3 = kl.build_key_approximation(model, v, q=3, system=sys0)
    low = kl.verify_lower_bound(ka3, [1e-3, 1e-5, math.exp(-16)])
    U = bvp.build_log_harmonic(model, system=sys0)
    c1 = ka3.ilg_coefficient(1)
    mask = np.abs(model.s) < 12
    rel = checks.c1_vs_beta_log_harmonic(c1[mask], ka3.stages[0].beta,
                                         U.values[mask])
    ok = slope_ok and low["positive"] and rel < 1e-3
    _line(5, ok, f"residual slopes {slopes[2]:.3f}/{slopes[3]:.3f} "
          f"(>= q - 0.2); lower-bound constant {low['constant']:.3f} (>0) "
          f"on kr<=0.1, r>=r0; inverse-log coefficient vs beta*U rel "
          f"{rel:.1e} (<1e-3)")


def test_criterion_6_parametrix(model, sys0):
    js = (3, 4, 5, 6, 7)
    par2 = px.Parametrix(model, q=2, kbar=1.0, system=sys0)
    hs2 = [par2.error(math.exp(-2.0 ** j)).hs_e2() for j in js]
    ils = [ilg(math.exp(-2.0 ** j)) for j in js]
    slope2 = loglog_slope(ils, hs2)
    par1 = px.Parametrix(model, q=1, kbar=1.0, system=sys0)
    hs1 = [par1.error(math.exp(-2.0 ** j)).hs_e2() for j in js]
    slope1 = loglog_slope(ils, hs1)
    identity, _ = identity_residuals(par2, 1e-3)
    v = np.exp(-2.0 * model.s ** 2)
    worst_oracle = max(checks.radiation_oracle_error(
        model, k, v, par2.resolvent_apply(k, v)) for k in (1e-2, 1e-3, 1e-4))
    ok = slope2 >= 0.4 and slope1 <= 0.0 \
        and identity < 1e-8 and worst_oracle < 1e-5
    _line(6, ok, f"HS(E'') slope {slope2:.2f} at q=2 (>=0.4: the "
          f"O((ilg k)^(1/2)) bound holds with room), q=1 slope "
          f"{slope1:.2f} (<=0: divergence); (Id+E)(Id+S)-Id = "
          f"{identity:.1e} (<1e-8); resolvent vs radiation "
          f"oracle {worst_oracle:.1e} (<1e-5) at k in 1e-2..1e-4")


def test_criterion_7_ilg_expansion(model, sys0):
    par3 = px.Parametrix(model, q=3, kbar=1.0, system=sys0)
    v = par3.pieces.v_minus
    out = px.ilg_expansion(par3, v)
    coef, mask = out.coefficients, out.mask
    sol = bvp.solve_laplace(model, v, system=sys0)
    rel0 = checks.c0_vs_zero_energy_solve(coef[0], sol.values[mask])
    orders = {}
    for terms in (2, 3):
        orders[terms] = px.ilg_residual_order(par3, v, coef, mask,
                                              terms)["order"]
    ok = rel0 < 1e-4 and all(orders[t] >= t - 0.05 for t in (2, 3))
    _line(7, ok, f"c0 vs zero-energy solve rel {rel0:.1e} (<1e-4); "
          f"residual orders after 2/3 terms: {orders[2]:.2f}/{orders[3]:.2f} "
          "(>= number of terms)")


@pytest.fixture(scope="module")
def riesz_kernel():
    cfg = md.GeometryConfig(S_minus=2.0 ** 16, S_plus=2.0 ** 16)
    wide = md.build_model(cfg)
    return wide, rz.low_energy_kernel(wide, k0=0.05, n_sigma=33)


def test_criterion_8_riesz_boundedness(riesz_kernel):
    wide, kern = riesz_kernel
    r_maxes = tuple(2.0 ** j for j in range(5, 17))
    report = rz.lp_boundedness_report(kern, (1.25, 1.5, 2.0), r_maxes)
    variations = {p: report["verdicts"][p]["variation"]
                  for p in (1.25, 1.5, 2.0)}
    trend_ok = all(report["verdicts"][p]["verdict"] == "bounded-trend"
                   for p in (1.25, 1.5, 2.0))
    schur = {}
    for s_exp in (2.0, 4.0):
        out = schur_exponent_check(wide, s_exp)
        schur[s_exp] = out["fitted"]
    schur_ok = all(abs(schur[s] + 2.0 / s) <= 0.1 for s in (2.0, 4.0))
    ok = trend_ok and schur_ok
    _line(8, ok, "p->p estimates stabilize (last-three variation "
          + ", ".join(f"p={p}: {v:.3f}" for p, v in variations.items())
          + " < 0.05 on the sweep extended to 2^16; saturation of this "
          "barely-transient model is logarithmic, see ledger); Schur "
          f"exponents {schur[2.0]:.2f}/{schur[4.0]:.2f} vs -1.0/-0.5 (+-0.1)")


def test_criterion_9_riesz_unboundedness():
    wit = rz.unboundedness_witness(md.GeometryConfig(), p_list=(3.0, 4.0))
    chain = rz.ilg_chain_inequality()
    fits = {p: g["fitted_exponent"] for p, g in wit.growth.items()}
    growth_ok = all(abs(wit.growth[p]["fitted_exponent"]
                        - wit.growth[p]["expected"]) <= 0.1
                    for p in (3.0, 4.0))
    ok = growth_ok and chain["violations"] == 0 and \
        wit.lower_constant > 0 and wit.entrywise_nonneg
    _line(9, ok, f"witness growth exponents p=3: {fits[3.0]:.3f} "
          f"(1/3 +- 0.1), p=4: {fits[4.0]:.3f} (1/2 +- 0.1); "
          f"chain inequality violations {chain['violations']}/10000; "
          f"kernel lower constant {wit.lower_constant:.3f} (>0), "
          f"entrywise nonnegative: {wit.entrywise_nonneg}")


def test_criterion_10_power_kernel_lemmas():
    suite = lpe.random_instance_suite(200)
    paper_ok = True
    details = []
    for kern, (plo, phi) in lpe.paper_instances(3):
        inside = 0.5 * (plo + min(phi, 2.0)) if phi <= 2.0 else 1.5
        paper_ok = paper_ok and lpe.lemma_predicate(kern, inside)
        if math.isfinite(phi):
            paper_ok = paper_ok and not lpe.lemma_predicate(kern, phi + 0.5)
        details.append(f"({kern.d1:g},{kern.d2:g})")
    hom = lpe.PowerKernel(1.0, 1.0, 2.0, 0.0, 2.0, 2.0, domain_start=0.0)
    paper_ok = paper_ok and lpe.lemma_predicate(hom, 1.5) \
        and not lpe.lemma_predicate(hom, 3.0)
    ok = suite["agree"] == suite["total"] == 200 and paper_ok
    _line(10, ok, f"predicate/trend agreement {suite['agree']}/"
          f"{suite['total']}; paper instances {' '.join(details)} and the "
          "homogeneous d=2, a=1, a'=2 case classified on their stated "
          "p-ranges")
