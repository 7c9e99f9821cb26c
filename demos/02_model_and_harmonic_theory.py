#!/usr/bin/env python3
"""The model geometry and its harmonic theory.

Builds the default connected sum (a two-dimensional-by-circle end glued
to a three-dimensional end), shows the graded grid and the neck weight,
then walks the per-end harmonic extensions, the exterior
Dirichlet-to-Neumann multipliers, the global Laplace solve with its limit
constant beta, and the log-growing harmonic function.
"""

import numpy as np

from connsum import bvp, harmonic_ext as hx, model as md

m = md.build_model()
print(f"grid: {m.n} nodes on [{m.s[0]:.0f}, {m.s[-1]:.0f}], "
      f"{len(m.segments)} spectral segments")
print(f"weight constants: c_minus = {m.minus.weight_constant:.4f} "
      f"(2 pi x circle length), c_plus = {m.plus.weight_constant:.4f} "
      "(unit sphere area)")

print("\n== harmonic extensions on the ends ==")
u = hx.extend_minus(m.minus, hx.BoundaryData("minus", m.R, {(1, 0): 1.0}))
r = np.array([2.0, 4.0, 8.0])
print("minus end, angular mode 1: profile", u.channel_values(1, 0, r),
      "against (r/R)^-1 =", (r / m.R) ** -1)
up = hx.extend_plus(m.plus, hx.BoundaryData.constant("plus", m.R))
print("plus end, constant data: profile", up.channel_values(0, 0, r),
      "against R/r =", m.R / r)

print("\n== exterior DtN multipliers ==")
for (m_idx, l_idx) in [(0, 0), (1, 0), (0, 1)]:
    lam = hx.dtn_multiplier(m.minus, m_idx, l_idx, m.R)
    print(f"minus channel (m={m_idx}, l={l_idx}): lambda = {lam:.6f}")
print(f"plus zero mode: lambda = "
      f"{hx.dtn_multiplier(m.plus, 0, 0, m.R):.6f} "
      f"(= (n-2)/R = {(m.plus.euclidean_dim - 2) / m.R})")

print("\n== global Laplace solve ==")
sys0 = bvp.GluedSystem(m, 0.0)
F = np.exp(-2.0 * m.s ** 2)
sol = bvp.solve_laplace(m, F, system=sys0)
print(f"source mass {m.integrate(F):.4f}; minus-end limit beta = "
      f"{sol.beta:.8f}; plus-end tail coefficient {sol.plus_coeff:.8f}")

print("\n== the log-growing harmonic function ==")
U = bvp.build_log_harmonic(m, system=sys0)
far = m.s < -20
print(f"U - log r on the minus end: constant c_1 = {U.c1:.8f} "
      f"(spread {np.ptp(U.values[far] - np.log(m.r[far])):.1e})")
farp = m.s > 20
print("r * U on the plus end stays bounded:",
      np.round((m.r * U.values)[farp][:4], 6))
