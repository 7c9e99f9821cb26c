"""Command-line front door: configure a model, run one experiment family,
emit machine-readable reports.

Exit status contract: 0 success, 2 configuration error, 3 invariant
violation, 4 numerical non-convergence.  Reports are JSON (plus CSV
tables for the Riesz experiments); identical configuration and seed give
byte-identical reports.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, checks
from . import specfun as sf
from .cutoffs import minus_cutoff_source
from .errors import ConfigError, DomainError, NonConvergenceError, \
    SingularSystemError
from .model import GeometryConfig, apply_operator, build_model
from .reports import write_csv, write_report

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_NONCONV = 4


def _geometry(args) -> GeometryConfig:
    if args.geometry:
        return GeometryConfig.from_json(args.geometry)
    return GeometryConfig()


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _config_payload(args) -> dict:
    skip = {"func", "out"}
    return {k: v for k, v in vars(args).items() if k not in skip}


# ---------------------------------------------------------------------------


def cmd_specfun_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    rtol = args.bessel_rtol
    failures = []

    worst = checks.bessel_vs_quadrature(np.arange(0, 11, dtype=float),
                                        np.geomspace(1e-3, 50.0, 12))
    if worst > rtol:
        failures.append(("bessel_vs_quadrature", worst))

    x = rng.uniform(0.01, 20.0, 10000)
    y = x + rng.uniform(1e-3, 30.0, 10000)
    nu_s = rng.choice([0.0, 1.0, 5.0], 10000)
    bad = 0
    for nu in (0.0, 1.0, 5.0):
        sel = nu_s == nu
        bad += checks.exponential_comparison_violations(nu, x[sel], y[sel])
    if bad:
        failures.append(("exponential_comparison", bad))

    xs2 = np.geomspace(1e-3, 50.0, 40)
    bad = sum(checks.derivative_bound_violations(m, xs2) for m in range(1, 21))
    if bad:
        failures.append(("derivative_bound", bad))

    dev = abs(sf.bessel_K(0.0, 1e-3) + math.log(1e-3) - sf.C_GAMMA)
    if dev > 1e-4:
        failures.append(("k0_asymptotic_constant", dev))

    fd_worst = 0.0
    for x0 in (0.5, 1.0, 5.0):
        h = 1e-5 * x0
        fd = (sf.bessel_K(0.0, x0 - 2 * h) - 8 * sf.bessel_K(0.0, x0 - h)
              + 8 * sf.bessel_K(0.0, x0 + h)
              - sf.bessel_K(0.0, x0 + 2 * h)) / (12 * h)
        fd_worst = max(fd_worst, abs(fd + sf.bessel_K(1.0, x0))
                       / sf.bessel_K(1.0, x0))
    if fd_worst > 1e-8:
        failures.append(("k0_prime_recurrence", fd_worst))

    for a in (2.0, 3.0, 4.0, 6.0):
        d = sf.heat_resolvent_identity_check(a, 0.3, 2.0)
        if d > 1e-6:
            failures.append((f"heat_identity_a{a:g}", d))

    payload = {"failures": [{"invariant": n, "value": v} for n, v in failures],
               "worst_bessel_relerr": worst}
    write_report(_outdir(args) / "specfun_check.json", payload,
                 _config_payload(args), __version__)
    if failures:
        print("specfun-check: FAILED "
              + ", ".join(n for n, _ in failures))
        return EXIT_INVARIANT
    print("specfun-check: ok (worst Bessel rel err "
          f"{worst:.2e})")
    return EXIT_OK


def cmd_model_build(args) -> int:
    model = build_model(_geometry(args))
    payload = {"n_nodes": model.n,
               "segment_bounds": model.segment_bounds.tolist(),
               "weight_constants": {"minus": model.minus.weight_constant,
                                    "plus": model.plus.weight_constant},
               "total_dim": model.minus.total_dim}
    write_report(_outdir(args) / "model_build.json", payload,
                 _config_payload(args), __version__)
    print(f"model-build: ok ({model.n} nodes)")
    return EXIT_OK


def cmd_extend(args) -> int:
    from . import harmonic_ext as hx

    model = build_model(_geometry(args))
    R = model.R
    report = {}
    for tag, end in (("minus", model.minus), ("plus", model.plus)):
        chk = hx.dtn_symbol_check(end, R, m_max=max(10, args.m_max))
        report[tag] = {"worst_angular_ratio_dev": chk["worst_angular"],
                       "cross_ratio_at_largest": chk["cross_at_largest"]}
    data = hx.BoundaryData("minus", R, {(0, 1): 1.0, (2, 0): 0.5})
    u = hx.extend_minus(model.minus, data)
    r = np.linspace(R + 0.5, 4 * R, 12)
    res = max(float(np.max(np.abs(u.ode_residual(m_, l_, r))))
              for (m_, l_) in data.coeffs)
    report["minus_ode_residual"] = res
    write_report(_outdir(args) / "extend.json", report,
                 _config_payload(args), __version__)
    ok = res < 1e-8
    print(f"extend: {'ok' if ok else 'FAILED'} (ode residual {res:.2e})")
    return EXIT_OK if ok else EXIT_INVARIANT


def cmd_bvp(args) -> int:
    from . import bvp

    model = build_model(_geometry(args))
    hom = checks.homogeneous_norm(model)
    sys0 = bvp.GluedSystem(model, 0.0)
    beta, beta_shift = checks.beta_refinement(model, sys0)
    U = bvp.build_log_harmonic(model, system=sys0)
    rem = float(np.max(checks.log_harmonic_remainder(model, U)[1]))
    payload = {"homogeneous_norm": hom, "beta": beta,
               "beta_refinement_shift": beta_shift,
               "log_harmonic_c1": U.c1,
               "minus_remainder_sup": rem}
    write_report(_outdir(args) / "bvp.json", payload,
                 _config_payload(args), __version__)
    ok = hom < 1e-10 and beta_shift < 1e-4
    print(f"bvp: {'ok' if ok else 'FAILED'} (homogeneous {hom:.1e}, "
          f"beta shift {beta_shift:.1e})")
    return EXIT_OK if ok else EXIT_INVARIANT


def cmd_keylemma(args) -> int:
    from . import bvp, keylemma as kl

    model = build_model(_geometry(args))
    sys0 = bvp.GluedSystem(model, 0.0)
    v_minus = minus_cutoff_source(model)
    slopes = {}
    for q in (2, 3):
        ka = kl.build_key_approximation(model, v_minus, q=q, system=sys0)
        slopes[q] = kl.residual_slope(ka)
    ka3 = kl.build_key_approximation(model, v_minus, q=3, system=sys0)
    low = kl.verify_lower_bound(ka3, [1e-3, 1e-5, 1e-8])
    U = bvp.build_log_harmonic(model, system=sys0)
    c1 = ka3.ilg_coefficient(1)
    mask = np.abs(model.s) < 12
    rel = checks.c1_vs_beta_log_harmonic(c1[mask], ka3.stages[0].beta,
                                         U.values[mask])
    payload = {"residual_slopes": slopes, "lower_bound": low,
               "ilg_coefficient_vs_log_harmonic_rel": rel}
    write_report(_outdir(args) / "keylemma.json", payload,
                 _config_payload(args), __version__)
    ok = all(abs(slopes[q] - q) <= 0.2 for q in (2, 3)) \
        and low["positive"] and rel < 1e-3
    print(f"keylemma: {'ok' if ok else 'FAILED'} (slopes {slopes})")
    return EXIT_OK if ok else EXIT_INVARIANT


def cmd_resolvent(args) -> int:
    from . import bvp, parametrix as px

    model = build_model(_geometry(args))
    sys0 = bvp.GluedSystem(model, 0.0)
    par = px.Parametrix(model, q=args.q, kbar=1.0, system=sys0)
    k0 = par.choose_k0([1e-4, 1e-3, 1e-2, 0.05])
    v = par.pieces.v_minus
    out = px.ilg_expansion(par, v)
    coef, mask = out.coefficients, out.mask
    sol = bvp.solve_laplace(model, v, system=sys0)
    c0_rel = checks.c0_vs_zero_energy_solve(coef[0], sol.values[mask])
    U = bvp.build_log_harmonic(model, system=sys0)
    c1_rel = checks.c1_vs_beta_log_harmonic(coef[1], -sol.beta,
                                            U.values[mask])
    vv = np.exp(-2.0 * model.s ** 2)
    oracle = {k: checks.radiation_oracle_error(par, k, vv)
              for k in (1e-2, 1e-3, 1e-4)}
    identity, sk_identity = checks.identity_residuals(par, 1e-3)
    identity_bound = 1e-8
    payload = {"k0": k0, "c0_vs_bvp_rel": c0_rel,
               "c1_vs_beta_logharmonic_rel": c1_rel,
               "oracle_rel_err": oracle,
               "coefficient_norms": np.max(np.abs(coef), axis=1).tolist(),
               "identity": {"residual": identity, "bound": identity_bound},
               "sk_identity": {"residual": sk_identity,
                               "bound": identity_bound}}
    if args.q == 1:
        payload["hs_divergence_warning"] = (
            "q = 1: the Hilbert-Schmidt norm of the key-lemma error does "
            "not tend to zero as k -> 0; take q > 1")
    write_report(_outdir(args) / "resolvent.json", payload,
                 _config_payload(args), __version__)
    ok = c0_rel < 1e-4 and max(oracle.values()) < 1e-5 \
        and max(identity, sk_identity) < identity_bound
    print(f"resolvent: {'ok' if ok else 'FAILED'} (c0 rel {c0_rel:.1e}, "
          f"worst oracle {max(oracle.values()):.1e}, identity "
          f"{identity:.1e}/{sk_identity:.1e})")
    return EXIT_OK if ok else EXIT_INVARIANT


def cmd_riesz(args) -> int:
    from dataclasses import replace

    from . import bvp, keylemma as kl, riesz as rz

    if args.n_sigma < 3 or args.n_sigma % 2 == 0:
        raise ConfigError("--n-sigma must be an odd integer >= 3, got "
                          f"{args.n_sigma}")
    cfg = _geometry(args)
    cfg = replace(cfg, S_minus=float(args.sweep_max),
                  S_plus=float(args.sweep_max))
    model = build_model(cfg)
    kern = rz.low_energy_kernel(model, k0=args.k0, n_sigma=args.n_sigma)
    p_bounded = [float(p) for p in args.p_bounded]
    r_maxes = [2.0 ** j for j in range(5, int(math.log2(args.sweep_max)) + 1)]
    report = rz.lp_boundedness_report(kern, p_bounded, r_maxes)
    rows = [(r.p, r.r_max, r.lower, r.upper,
             report["verdicts"][r.p]["verdict"]) for r in report["rows"]]
    write_csv(_outdir(args) / "riesz_boundedness.csv", rows,
              ("p", "R_max", "lower", "upper", "verdict"))
    payload = {"bounded": {str(p): report["verdicts"][p] for p in p_bounded},
               "k_quadrature": {"error": kern.quad_error,
                                "bound": kern.quad_error_bound()}}

    witness_section = {"applicable": False}
    growth_ok = True
    if not args.skip_witness:
        wcfg = replace(cfg, S_minus=2.0 ** 24, S_plus=64.0)
        wmodel = build_model(wcfg)
        wsys = bvp.GluedSystem(wmodel, 0.0)
        if args.witness_source == "bump":
            vsrc = apply_operator(wmodel, np.exp(-2.0 * wmodel.s ** 2))
        else:
            vsrc = minus_cutoff_source(wmodel)
        ka = kl.build_key_approximation(wmodel, vsrc, q=3, system=wsys)
        if ka.stages[0].beta <= 0:
            witness_section = {"applicable": False,
                               "reason": "beta <= 0 for the chosen source"}
        else:
            wit = rz.unboundedness_witness(
                wmodel, ka, p_list=[float(p) for p in args.p_unbounded],
                k0=math.exp(-9.5))
            witness_section = {
                "applicable": True, "beta": wit.beta,
                "entrywise_nonneg": wit.entrywise_nonneg,
                "lower_constant": wit.lower_constant,
                "chain_violations": rz.ilg_chain_inequality()["violations"],
                "growth": {str(p): g for p, g in wit.growth.items()}}
            growth_ok = all(
                abs(g["fitted_exponent"] - g["expected"]) <= 0.1
                for g in wit.growth.values())
    payload["witness"] = witness_section
    write_report(_outdir(args) / "riesz.json", payload,
                 _config_payload(args), __version__)

    bounded_ok = all(report["verdicts"][p]["verdict"] == "bounded-trend"
                     for p in p_bounded)
    ok = bounded_ok and growth_ok
    print(f"riesz: {'ok' if ok else 'FAILED'} "
          f"(bounded {bounded_ok}, witness growth {growth_ok})")
    return EXIT_OK if ok else EXIT_INVARIANT


def cmd_lp_lemmas(args) -> int:
    from . import lp_estimator as lpe

    out = lpe.random_instance_suite(args.instances, seed=args.seed)
    rows = []
    for kern, _ in lpe.paper_instances(3):
        for p in (1.2, 1.5, 2.5, 3.5):
            try:
                pred = lpe.lemma_predicate(kern, p)
            except lpe.BoundaryCase:
                pred = "boundary"
            rows.append((kern.d1, kern.d2, kern.a, kern.b, kern.a_prime,
                         kern.b_prime, p, pred))
    write_csv(_outdir(args) / "lp_lemmas.csv", rows,
              ("d1", "d2", "a", "b", "a_prime", "b_prime", "p", "bounded"))
    payload = {"random_suite": {"agree": out["agree"], "total": out["total"]}}
    write_report(_outdir(args) / "lp_lemmas.json", payload,
                 _config_payload(args), __version__)
    ok = out["agree"] == out["total"]
    print(f"lp-lemmas: {'ok' if ok else 'FAILED'} "
          f"({out['agree']}/{out['total']} agree)")
    return EXIT_OK if ok else EXIT_INVARIANT


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="connsum",
        description="Low-energy resolvent and Riesz transform experiments "
                    "on a two-ended model connected sum.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--geometry", help="geometry config JSON file")
        p.add_argument("--out", default="reports", help="output directory")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("specfun-check", help="special-function invariants")
    common(p)
    p.add_argument("--bessel-rtol", type=float, default=1e-10)
    p.set_defaults(func=cmd_specfun_check)

    p = sub.add_parser("model-build", help="validate and build the geometry")
    common(p)
    p.set_defaults(func=cmd_model_build)

    p = sub.add_parser("extend", help="harmonic extension and DtN checks")
    common(p)
    p.add_argument("--m-max", type=int, default=20)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("bvp", help="global Laplace solves and uniqueness")
    common(p)
    p.set_defaults(func=cmd_bvp)

    p = sub.add_parser("keylemma", help="staged approximate solutions")
    common(p)
    p.set_defaults(func=cmd_keylemma)

    p = sub.add_parser("resolvent", help="parametrix, inverse-log expansion")
    common(p)
    p.add_argument("--q", type=int, default=3)
    p.set_defaults(func=cmd_resolvent)

    p = sub.add_parser("riesz", help="boundedness and unboundedness suite")
    common(p)
    p.add_argument("--k0", type=float, default=0.05)
    p.add_argument("--n-sigma", type=int, default=33)
    p.add_argument("--sweep-max", type=float, default=2.0 ** 16)
    p.add_argument("--p-bounded", nargs="+", default=[1.25, 1.5, 2.0])
    p.add_argument("--p-unbounded", nargs="+", default=[3.0, 4.0])
    p.add_argument("--skip-witness", action="store_true")
    p.add_argument("--witness-source", choices=("minus-cutoff", "bump"),
                   default="minus-cutoff")
    p.set_defaults(func=cmd_riesz)

    p = sub.add_parser("lp-lemmas", help="power-weight kernel lemma suite")
    common(p)
    p.add_argument("--instances", type=int, default=200)
    p.set_defaults(func=cmd_lp_lemmas)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonConvergenceError as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONV
    except (DomainError, SingularSystemError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
