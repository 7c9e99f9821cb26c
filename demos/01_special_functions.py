#!/usr/bin/env python3
"""Special functions on display.

Walk through the primitive layer: modified Bessel functions checked
against their integral representation, the radial profile family L_a and
its small/large-argument asymptotics, the inverse-log scale, and the
heat-to-resolvent time integral collapsing onto C_a k^{a-2} L_a(kr).
"""

import math

from connsum import specfun as sf

print("== modified Bessel functions ==")
for nu, x in [(0.0, 1.0), (0.5, 1.0), (3.0, 1.0), (7.0, 0.01)]:
    val = sf.bessel_K(nu, x)
    ref = sf.bessel_K_quadrature(nu, x)
    print(f"K_{nu:g}({x:g}) = {val:.12e}   quadrature oracle rel err "
          f"{abs(val - ref) / ref:.1e}")
print(f"closed form check: K_1/2(1) - sqrt(pi/2)/e = "
      f"{sf.bessel_K(0.5, 1.0) - math.sqrt(math.pi / 2) / math.e:.1e}")

print("\n== the L_a family ==")
for a in (2.0, 3.0, 4.0, 6.0):
    small = [sf.l_a(a, r) for r in (1e-4, 2e-4)]
    slope = math.log(small[1] / small[0]) / math.log(2.0)
    print(f"L_{a:g}: small-r log-log slope {slope:+.4f}"
          f"   (power 2 - a = {2 - a:+g}; L_2 is logarithmic)")

print("\n== the inverse-log scale ==")
for j in (1, 4, 16, 64):
    print(f"ilg(e^-{j}) = {sf.ilg(math.exp(-j)):.6f}")

print("\n== heat-to-resolvent identity ==")
for a in (2.0, 3.0, 6.0):
    dev = sf.heat_resolvent_identity_check(a, 0.3, 1.7)
    print(f"a = {a:g}: relative deviation {dev:.2e} "
          f"(calibrated constant C_a = {sf._heat_constant(a):.6f}, "
          f"2^(a/2) = {2 ** (a / 2):.6f})")
