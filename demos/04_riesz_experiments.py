#!/usr/bin/env python3
"""The Riesz transform experiments: bounded for 1 < p <= 2, unbounded
beyond.

The low-energy kernel is the k-quadrature of the resolvent gradient; its
restricted p -> p norm estimates saturate as the truncation radius grows
(logarithmically slowly: this space is transient just barely).  On the
two-dimensional end the same kernel dominates a rank-one piece
tau(z)/r x ilg(1/r')/r' whose norms grow like R^{(2-p')/p'} / log R once
p > 2; the measured growth exponents land on 1/3 and 1/2 for p = 3, 4.
"""

from connsum import model as md, riesz as rz

print("== boundedness side (p <= 2) ==")
wide = md.build_model(md.GeometryConfig(S_minus=2.0 ** 14, S_plus=2.0 ** 14))
kern = rz.low_energy_kernel(wide, k0=0.05, n_sigma=33)
report = rz.lp_boundedness_report(kern, (1.5, 2.0),
                                  tuple(2.0 ** j for j in range(5, 15)))
for p in (1.5, 2.0):
    series = [round(r.lower, 4) for r in report["rows"] if r.p == p]
    v = report["verdicts"][p]
    print(f"p = {p}: estimates {series}")
    print(f"        verdict: {v['verdict']} "
          f"(last-three variation {v['variation']:.3f})")
print("note: at p = 2 the estimate approaches the multiplier bound "
      "sup xi F_<(xi) = 1")

print("\n== unboundedness side (p > 2) ==")
wit = rz.unboundedness_witness(md.GeometryConfig())
print(f"beta = {wit.beta:.6f} (> 0: the witness applies)")
print(f"witness kernel entrywise nonnegative: {wit.entrywise_nonneg}; "
      f"lower constant against (tau/r) ilg(1/r')/r': {wit.lower_constant:.4f}")
for p, g in wit.growth.items():
    print(f"p = {p}: restricted norms grow with exponent "
          f"{g['fitted_exponent']:.3f}  (expected (2-p')/p' = "
          f"{g['expected']:.3f})")
chain = rz.ilg_chain_inequality()
print(f"inverse-log chain inequality: {chain['violations']} violations "
      f"in {chain['samples']} samples")
