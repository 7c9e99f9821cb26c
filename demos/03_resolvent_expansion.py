#!/usr/bin/env python3
"""The inverse-log expansion of the low-energy resolvent.

Assembles the parametrix G1 + G2 + G3 (+ G4), inverts Id + E(k), and
extracts the expansion of R(k) v in powers of 1/log(1/k): the constant
term is the zero-energy solution, the first-order coefficient is beta
times the log-growing harmonic function, and the error operator's
weighted Hilbert-Schmidt norm melts away like a positive power of
ilg k when the construction depth is at least two, but not at depth one.
"""

import math

import numpy as np

from connsum import bvp, checks, model as md, parametrix as px

m = md.build_model()
sys0 = bvp.GluedSystem(m, 0.0)

print("== error operator across depths ==")
for q in (1, 2):
    par = px.Parametrix(m, q=q, kbar=1.0, system=sys0)
    hs = [par.error(math.exp(-2.0 ** j)).hs_e2() for j in (3, 5, 7)]
    print(f"q = {q}: ||E''(k)||_HS at k = e^-8, e^-32, e^-128: "
          + ", ".join(f"{h:.3f}" for h in hs)
          + ("   (shrinks)" if hs[-1] < hs[0] else "   (does not shrink)"))

par = px.Parametrix(m, q=3, kbar=1.0, system=sys0)
print(f"\nfinite-rank fix: null space dimension {par.fix.rank} "
      f"(smallest singular value of Id+E(0): {par.fix.sigma_before:.4f})")
inverse = par.s_operator(1e-3)
y, z = inverse.solve(np.exp(-2.0 * m.s ** 2))
backward, forward = checks.solve_errors(inverse.system, y, z,
                                        inverse.sigma_min())
print(f"solve with Id + E at k = 1e-3: backward error {backward:.1e}, "
      f"forward error bound {forward:.1e}")
del inverse

print("\n== inverse-log series of R(k) v ==")
v = par.pieces.v_minus
out = px.ilg_expansion(par, v)
coef, mask = out.coefficients, out.mask
sol = bvp.solve_laplace(m, v, system=sys0)
U = bvp.build_log_harmonic(m, system=sys0)
rel0 = checks.c0_vs_zero_energy_solve(coef[0], sol.values[mask])
rel1 = checks.c1_vs_beta_log_harmonic(coef[1], -sol.beta, U.values[mask])
print(f"c_0 against the zero-energy solve:      rel {rel0:.1e}")
print(f"c_1 against beta x (log-growing U):     rel {rel1:.1e}")
for terms in (2, 3):
    res = px.ilg_residual_order(par, v, coef, mask, terms)
    print(f"residual after {terms} terms decays with order {res['order']:.3f}")

print("\n== resolvent against the radiation-condition oracle ==")
vv = np.exp(-2.0 * m.s ** 2)
for k in (1e-2, 1e-4):
    err = checks.radiation_oracle_error(m, k, vv, par.resolvent_apply(k, vv))
    print(f"k = {k:g}: rel difference {err:.1e}")
