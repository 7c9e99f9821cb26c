"""Command-line front door: configure a model, run one experiment family,
emit machine-readable reports.

Exit status contract: 0 success, 2 configuration error, 3 invariant
violation, 4 numerical non-convergence.  Reports are JSON (plus CSV
tables for the Riesz experiments); identical configuration and seed give
byte-identical reports at a fixed BLAS thread count (numpy's dense
products behind the Riesz kernel round differently with, say,
OPENBLAS_NUM_THREADS=1 and 2).  `import connsum` holds scipy's bundled
OpenBLAS at one thread, and every LU factorization, LU solve and solve
check of `resolvent` runs there, so resolvent.json does not depend on the
thread count.  Each
report's `checks` block lists the subcommand's pass conditions as
{name: {value, bound, sense, ok, margin}} (see `check`); the status line
and the choice between exit 0 and 3 are derived from it.
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
    SingularSystemError, TruncationError
from .model import GeometryConfig, build_model
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


# Bounds of the pass conditions the acceptance suite gates, at its values
BESSEL_RTOL = 1e-10    # bessel_K against the quadrature oracle, relative
ODE_RESIDUAL = 1e-8    # harmonic-extension ODE residual
HOMOGENEOUS = 1e-10    # neck solve with zero boundary data
BETA_SHIFT = 1e-4      # change of beta when every grid field doubles
ILG_COEF_REL = 1e-3    # first inverse-log coefficient against beta U
C0_REL = 1e-4          # leading coefficient against the zero-energy solve
ORACLE_REL = 1e-5      # R(k) v against the radiation oracle
IDENTITY = 1e-8        # backward error and forward bound of each solve
GROWTH_TOL = 0.1       # witness growth exponent against its expected value


SENSES = {"<": lambda v, b: v < b, "<=": lambda v, b: v <= b,
          ">": lambda v, b: v > b, "==": lambda v, b: v == b}


def check(value, sense: str, bound) -> dict:
    """One pass condition `value sense bound`, sense one of <, <=, > and
    ==, as a report entry.  Its margin in digits is log10(bound / |value|)
    for < and <=, |value| floored at machine epsilon, and log10(value /
    bound) for >; None for ==, for a bound <= 0 and for a value that is
    not finite (for >, not positive)."""
    margin = None
    if sense != "==" and bound > 0 and math.isfinite(value):
        eps = sys.float_info.epsilon
        margin = (math.log10(bound / max(abs(value), eps)) if sense != ">"
                  else math.log10(value / bound) if value > 0 else None)
    return {"value": value, "bound": bound, "sense": sense,
            "ok": bool(SENSES[sense](value, bound)), "margin": margin}


def _at_least(args, option: str, low: int) -> int:
    """The value of the integer option `option`, which must be >= low."""
    value = getattr(args, option.lstrip("-").replace("-", "_"))
    if value < low:
        raise ConfigError(f"{option} must be >= {low}, got {value}")
    return value


def finish(args, name: str, payload: dict, block: dict) -> int:
    """Write the report with block as its `checks`, print the status line
    and return the exit code, all three from the same entries."""
    payload["checks"] = block
    write_report(_outdir(args) / name, payload, _config_payload(args),
                 __version__)
    failed = [n for n, c in block.items() if not c["ok"]]
    print(f"{args.command}: " + ("FAILED " + ", ".join(failed)
                                 if failed else "ok"))
    return EXIT_INVARIANT if failed else EXIT_OK


# ---------------------------------------------------------------------------


def cmd_specfun_check(args) -> int:
    rng = np.random.default_rng(_at_least(args, "--seed", 0))
    worst = checks.bessel_vs_quadrature(np.arange(0, 11, dtype=float),
                                        np.geomspace(1e-3, 50.0, 12))
    chk = {"bessel_vs_quadrature": check(worst, "<=", BESSEL_RTOL)}

    x = rng.uniform(0.01, 20.0, 10000)
    y = x + rng.uniform(1e-3, 30.0, 10000)
    nu_s = rng.choice([0.0, 1.0, 5.0], 10000)
    bad = 0
    for nu in (0.0, 1.0, 5.0):
        sel = nu_s == nu
        bad += checks.exponential_comparison_violations(nu, x[sel], y[sel])
    chk["exponential_comparison"] = check(bad, "==", 0)

    xs2 = np.geomspace(1e-3, 50.0, 40)
    bad = sum(checks.derivative_bound_violations(m, xs2) for m in range(1, 21))
    chk["derivative_bound"] = check(bad, "==", 0)

    dev = abs(sf.bessel_K(0.0, 1e-3) + math.log(1e-3) - sf.C_GAMMA)
    chk["k0_asymptotic_constant"] = check(dev, "<=", 1e-4)

    fd_worst = 0.0
    for x0 in (0.5, 1.0, 5.0):
        h = 1e-5 * x0
        fd = (sf.bessel_K(0.0, x0 - 2 * h) - 8 * sf.bessel_K(0.0, x0 - h)
              + 8 * sf.bessel_K(0.0, x0 + h)
              - sf.bessel_K(0.0, x0 + 2 * h)) / (12 * h)
        fd_worst = max(fd_worst, abs(fd + sf.bessel_K(1.0, x0))
                       / sf.bessel_K(1.0, x0))
    chk["k0_prime_recurrence"] = check(fd_worst, "<=", 1e-8)

    for a in (2.0, 3.0, 4.0, 6.0):
        d = sf.heat_resolvent_identity_check(a, 0.3, 2.0)
        chk[f"heat_identity_a{a:g}"] = check(d, "<=", 1e-6)

    payload = {"failures": [{"invariant": n, "value": c["value"]}
                            for n, c in chk.items() if not c["ok"]],
               "worst_bessel_relerr": worst}
    return finish(args, "specfun_check.json", payload, chk)


def cmd_model_build(args) -> int:
    model = build_model(_geometry(args))
    payload = {"n_nodes": model.n,
               "segment_bounds": model.segment_bounds.tolist(),
               "weight_constants": {"minus": model.minus.weight_constant,
                                    "plus": model.plus.weight_constant},
               "total_dim": model.minus.total_dim}
    return finish(args, "model_build.json", payload, {})


def cmd_extend(args) -> int:
    from . import harmonic_ext as hx

    model = build_model(_geometry(args))
    R = model.R
    report = {}
    for tag, end in (("minus", model.minus), ("plus", model.plus)):
        chk = hx.dtn_symbol_check(end, R)
        report[tag] = {"cross_ratio_at_largest": chk["cross_at_largest"]}
    data = hx.BoundaryData("minus", R, {(0, 1): 1.0, (2, 0): 0.5})
    u = hx.extend_minus(model.minus, data)
    r = np.linspace(R + 0.5, 4 * R, 12)
    res = max(float(np.max(np.abs(u.ode_residual(m_, l_, r))))
              for (m_, l_) in data.coeffs)
    report["minus_ode_residual"] = res
    return finish(args, "extend.json", report,
                  {"minus_ode_residual": check(res, "<", ODE_RESIDUAL)})


def cmd_bvp(args) -> int:
    from . import bvp

    model = build_model(_geometry(args))
    hom = checks.homogeneous_norm(model)
    sys0 = bvp.GluedSystem(model, 0.0)
    beta, beta_shift = checks.beta_refinement(model, sys0)
    U = bvp.build_log_harmonic(model, system=sys0)
    payload = {"homogeneous_norm": hom, "beta": beta,
               "beta_refinement_shift": beta_shift,
               "log_harmonic_c1": U.c1}
    return finish(args, "bvp.json", payload, {
        "homogeneous_norm": check(hom, "<", HOMOGENEOUS),
        "beta_refinement_shift": check(beta_shift, "<", BETA_SHIFT)})


def cmd_keylemma(args) -> int:
    from . import bvp, keylemma as kl

    model = build_model(_geometry(args))
    sys0 = bvp.GluedSystem(model, 0.0)
    v_minus = minus_cutoff_source(model)
    slopes = {}
    for q in (2, 3):   # the q = 3 approximation stays in ka
        ka = kl.build_key_approximation(model, v_minus, q=q, system=sys0)
        slopes[q] = kl.residual_slope(ka)
    low = kl.verify_lower_bound(ka, [1e-3, 1e-5, 1e-8])
    U = bvp.build_log_harmonic(model, system=sys0)
    c1 = ka.ilg_coefficient(1)
    mask = np.abs(model.s) < 12
    rel = checks.c1_vs_beta_log_harmonic(c1[mask], ka.stages[0].beta,
                                         U.values[mask])
    payload = {"residual_slopes": slopes, "lower_bound": low,
               "ilg_coefficient_vs_log_harmonic_rel": rel}
    chk = {f"residual_slope_q{q}": check(abs(slope - q), "<=", 0.2)
           for q, slope in slopes.items()}
    chk["lower_bound_positive"] = check(low["constant"], ">", 0)
    chk["ilg_coefficient_vs_log_harmonic_rel"] = check(rel, "<", ILG_COEF_REL)
    return finish(args, "keylemma.json", payload, chk)


def cmd_resolvent(args) -> int:
    from . import bvp, parametrix as px

    q = _at_least(args, "--q", 1)
    model = build_model(_geometry(args))
    sys0 = bvp.GluedSystem(model, 0.0)
    par = px.Parametrix(model, q=q, kbar=1.0, system=sys0)
    vv = np.exp(-2.0 * model.s ** 2)
    oracle = dict.fromkeys((1e-2, 1e-3, 1e-4))
    backward, forward = {}, {}

    def check_solve(k, inverse, sigma):
        # (Id + S(k)) vv from the factorization behind sigma_min: the
        # backward error and forward-error bound of its one solve, and
        # R(k) vv = G(k)(Id + S(k)) vv against the radiation oracle
        y, z = inverse.solve(vv)
        back, fwd = checks.solve_errors(inverse.system, y, z, sigma)
        backward[f"backward_error_k{k}"] = check(back, "<", IDENTITY)
        forward[f"forward_bound_k{k}"] = check(fwd, "<", IDENTITY)
        if k in oracle:
            oracle[k] = checks.radiation_oracle_error(
                model, k, vv, par.g_apply(k, inverse.apply(vv, z)))

    k0, sigma_min = par.choose_k0([1e-4, 1e-3, 1e-2, 0.05], check_solve)
    v = par.v_minus
    out = px.ilg_expansion(par, v)
    coef, mask = out.coefficients, out.mask
    sol = bvp.solve_laplace(model, v, system=sys0)
    c0_rel = checks.c0_vs_zero_energy_solve(coef[0], sol.values[mask])
    U = bvp.build_log_harmonic(model, system=sys0)
    c1_rel = checks.c1_vs_beta_log_harmonic(coef[1], -sol.beta,
                                            U.values[mask])
    payload = {"k0": k0,
               "k0_selection": {"sigma_min": sigma_min, "floor": px.K0_FLOOR},
               "c0_vs_bvp_rel": c0_rel,
               "c1_vs_beta_logharmonic_rel": c1_rel,
               "oracle_rel_err": oracle,
               "coefficient_norms": np.max(np.abs(coef), axis=1).tolist()}
    if q == 1:
        payload["hs_divergence_warning"] = (
            "q = 1: the Hilbert-Schmidt norm of the key-lemma error does "
            "not tend to zero as k -> 0; take q > 1")
    chk = {"c0_vs_bvp_rel": check(c0_rel, "<", C0_REL),
           **{f"oracle_k{k}": check(e, "<", ORACLE_REL)
              for k, e in oracle.items()},
           **backward, **forward}
    return finish(args, "resolvent.json", payload, chk)


def cmd_riesz(args) -> int:
    """The L^p sweep on ends of length --sweep-max and, unless
    --skip-witness, the p > 2 witness (riesz.unboundedness_witness)."""
    from dataclasses import replace

    from . import riesz as rz
    from .fits import TREND_STABILITY

    if args.n_sigma < 3 or args.n_sigma % 2 == 0:
        raise ConfigError("--n-sigma must be an odd integer >= 3, got "
                          f"{args.n_sigma}")
    try:
        p_bounded = [float(p) for p in args.p_bounded]
        p_unbounded = [float(p) for p in args.p_unbounded]
    except ValueError as exc:
        raise ConfigError(f"--p-bounded and --p-unbounded take numbers: "
                          f"{exc}") from exc
    for opt, ps in (("--p-bounded", p_bounded),
                    ("--p-unbounded", p_unbounded)):
        if not all(p > 1.0 for p in ps):
            raise ConfigError(f"{opt} values must be > 1, got {ps}")
    # the sweep runs R_max = 32, 64, ... up to --sweep-max, and a trend
    # verdict needs three of them
    if not args.sweep_max >= 128.0:
        raise ConfigError("--sweep-max must be >= 128, three R_max from "
                          f"32 up, got {args.sweep_max:g}")
    if not math.exp(-rz.SIGMA_MAX) < args.k0 < 1.0:
        raise ConfigError(f"--k0 must lie in (e^-{rz.SIGMA_MAX:g}, 1), "
                          f"got {args.k0}")
    cfg = _geometry(args)
    cfg = replace(cfg, S_minus=float(args.sweep_max),
                  S_plus=float(args.sweep_max))
    model = build_model(cfg)
    kern = rz.low_energy_kernel(model, k0=args.k0, n_sigma=args.n_sigma)
    r_maxes = [2.0 ** j for j in range(5, int(math.log2(args.sweep_max)) + 1)]
    report = rz.lp_boundedness_report(kern, p_bounded, r_maxes)
    rows = [(r.p, r.r_max, r.lower, r.upper,
             report["verdicts"][r.p]["verdict"]) for r in report["rows"]]
    write_csv(_outdir(args) / "riesz_boundedness.csv", rows,
              ("p", "R_max", "lower", "upper", "verdict"))
    payload = {"bounded": {str(p): report["verdicts"][p] for p in p_bounded}}
    # the verdict's own rule (fits.classify_trend)
    chk = {f"bounded_p{p}": check(v["variation"], "<", TREND_STABILITY)
           for p, v in payload["bounded"].items()}
    chk["k_quadrature_error"] = check(kern.quad_error, "<=",
                                      kern.quad_error_bound())

    witness_section = {"applicable": False}
    if not args.skip_witness:
        wit = rz.unboundedness_witness(cfg, p_unbounded)
        witness_section = {
            "applicable": True, "beta": wit.beta,
            "entrywise_nonneg": wit.entrywise_nonneg,
            "lower_constant": wit.lower_constant,
            "chain_violations": rz.ilg_chain_inequality()["violations"],
            "growth": {str(p): g for p, g in wit.growth.items()}}
        for p, g in witness_section["growth"].items():
            err = abs(g["fitted_exponent"] - g["expected"])
            chk[f"growth_p{p}"] = check(err, "<=", GROWTH_TOL)
        chk["chain_violations"] = check(
            witness_section["chain_violations"], "==", 0)
        chk["lower_constant"] = check(wit.lower_constant, ">", 0)
        chk["entrywise_nonneg"] = check(wit.entrywise_nonneg, "==", True)
    payload["witness"] = witness_section
    return finish(args, "riesz.json", payload, chk)


def cmd_lp_lemmas(args) -> int:
    from . import lp_estimator as lpe

    out = lpe.random_instance_suite(_at_least(args, "--instances", 1),
                                    seed=_at_least(args, "--seed", 0))
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
    return finish(args, "lp_lemmas.json", payload, {"disagreements": check(
        out["total"] - out["agree"], "==", 0)})


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="connsum",
        description="Low-energy resolvent and Riesz transform experiments "
                    "on a two-ended model connected sum.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, geometry=True):
        # only the subcommands that build a model read a geometry
        if geometry:
            p.add_argument("--geometry", help="geometry config JSON file")
        p.add_argument("--out", default="reports", help="output directory")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("specfun-check", help="special-function invariants")
    common(p, geometry=False)
    p.set_defaults(func=cmd_specfun_check)

    p = sub.add_parser("model-build", help="validate and build the geometry")
    common(p)
    p.set_defaults(func=cmd_model_build)

    p = sub.add_parser("extend", help="harmonic extension and DtN checks")
    common(p)
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
    p.set_defaults(func=cmd_riesz)

    p = sub.add_parser("lp-lemmas", help="power-weight kernel lemma suite")
    common(p, geometry=False)
    p.add_argument("--instances", type=int, default=200)
    p.set_defaults(func=cmd_lp_lemmas)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # a TruncationError names a channel beyond the configured spectrum
    except (ConfigError, TruncationError) as exc:
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
