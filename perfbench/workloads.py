"""The three benchmark workloads.

A workload is a sequence of steps; one pass runs every step once, from
model build to checked result, in the current process.  Each step returns
its checks: the pass conditions of the matching ``connsum`` subcommand,
re-evaluated here from the report the step wrote.  A step that raises,
exits with a code other than 0 (ok) or 3 (invariant violation), writes no
readable report, or whose exit code disagrees with its own checks, counts
every one of its checks as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EXIT_OK, EXIT_INVARIANT = 0, 3
EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    value: float | None = None   # set for numeric checks: |value| <= bound
    bound: float | None = None

    @property
    def margin_digits(self) -> float | None:
        """log10(bound / |value|), with |value| floored at machine epsilon."""
        if self.value is None:
            return None
        return math.log10(self.bound / max(abs(self.value), EPS))


def numeric(name, value, bound, strict=True) -> Check:
    ok = abs(value) < bound if strict else abs(value) <= bound
    return Check(name, bool(ok), float(value), float(bound))


def _read(outdir: Path, name: str) -> dict:
    return json.loads((outdir / name).read_text())


# -- checks per subcommand, mirroring connsum.cli ---------------------------

SPECFUN_INVARIANTS = ("exponential_comparison", "derivative_bound",
                      "k0_asymptotic_constant", "k0_prime_recurrence",
                      "heat_identity_a2", "heat_identity_a3",
                      "heat_identity_a4", "heat_identity_a6")


def specfun_checks(outdir):
    rep = _read(outdir, "specfun_check.json")
    failed = {f["invariant"] for f in rep["failures"]}
    return ([numeric("specfun.bessel_vs_quadrature",
                     rep["worst_bessel_relerr"], 1e-10, strict=False)]
            + [Check(f"specfun.{n}", n not in failed)
               for n in SPECFUN_INVARIANTS])


def extend_checks(outdir):
    rep = _read(outdir, "extend.json")
    return [numeric("extend.minus_ode_residual", rep["minus_ode_residual"],
                    1e-8)]


def bvp_checks(outdir):
    rep = _read(outdir, "bvp.json")
    return [numeric("bvp.homogeneous_norm", rep["homogeneous_norm"], 1e-10),
            numeric("bvp.beta_refinement_shift",
                    rep["beta_refinement_shift"], 1e-4)]


def keylemma_checks(outdir):
    rep = _read(outdir, "keylemma.json")
    return ([numeric(f"keylemma.slope_q{q}",
                     rep["residual_slopes"][str(q)] - q, 0.2, strict=False)
             for q in (2, 3)]
            + [Check("keylemma.lower_bound_positive",
                     rep["lower_bound"]["positive"] is True),
               numeric("keylemma.ilg_coefficient_rel",
                       rep["ilg_coefficient_vs_log_harmonic_rel"], 1e-3)])


def resolvent_checks(outdir):
    rep = _read(outdir, "resolvent.json")
    return ([numeric("resolvent.c0_vs_bvp_rel", rep["c0_vs_bvp_rel"], 1e-4)]
            + [numeric(f"resolvent.oracle_k{k}", rep["oracle_rel_err"][k],
                       1e-5) for k in ("0.01", "0.001", "0.0001")])


RIESZ_P_BOUNDED = ("1.25", "1.5", "2.0")
RIESZ_P_UNBOUNDED = ("3.0", "4.0")


def riesz_checks(outdir):
    rep = _read(outdir, "riesz.json")
    growth = rep["witness"].get("growth", {})
    checks = [Check(f"riesz.bounded_p{p}",
                    rep["bounded"][p]["verdict"] == "bounded-trend")
              for p in RIESZ_P_BOUNDED]
    for p in RIESZ_P_UNBOUNDED:
        if p in growth:
            g = growth[p]
            checks.append(numeric(f"riesz.growth_p{p}",
                                  g["fitted_exponent"] - g["expected"], 0.1,
                                  strict=False))
        else:
            checks.append(Check(f"riesz.growth_p{p}", False))
    return checks


# -- steps --------------------------------------------------------------------

@dataclass(frozen=True)
class CliStep:
    """One ``connsum`` subcommand run in-process through ``cli.main``."""
    argv: tuple
    checks: object      # outdir -> list[Check]
    n_checks: int

    def run(self, outdir: Path, seed: int) -> list[Check]:
        from connsum import cli
        names = [f"{self.argv[0]}.check{i}" for i in range(self.n_checks)]
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([*self.argv, "--out", str(outdir),
                                 "--seed", str(seed)])
            if code not in (EXIT_OK, EXIT_INVARIANT):
                return [Check(n, False) for n in names]
            checks = self.checks(outdir)
        except Exception:  # noqa: BLE001 - any failure of the step is counted
            return [Check(n, False) for n in names]
        if len(checks) != self.n_checks or \
                (code == EXIT_OK) != all(c.ok for c in checks):
            return [Check(n, False) for n in names]
        return checks


@dataclass(frozen=True)
class KernelProviders:
    """Parametrix.resolvent_dleft against the glued Green kernel at
    energies drawn from the seed."""
    n_energies: int = 8
    sigma_range: tuple = (10.0, 24.0)
    rtol: float = 1e-3        # the provider tolerance of tests/test_riesz.py

    def sigmas(self, seed: int) -> list[float]:
        # stratified: one uniform draw in each of n_energies equal slices,
        # so every pass covers the whole interval
        lo, hi = self.sigma_range
        u = np.random.default_rng(seed).random(self.n_energies)
        width = (hi - lo) / self.n_energies
        return [lo + width * (i + float(ui)) for i, ui in enumerate(u)]

    def run(self, outdir: Path, seed: int) -> list[Check]:
        from connsum import bvp, model as md, parametrix as px
        sigmas = self.sigmas(seed)
        try:
            model = md.build_model(md.GeometryConfig(S_minus=512.0,
                                                     S_plus=512.0))
            par = px.Parametrix(model, q=2, kbar=1.0,
                                system=bvp.GluedSystem(model, 0.0))
            rels = []
            for sigma in sigmas:
                k = math.exp(-sigma)
                dR = par.resolvent_dleft(k)
                dG = bvp.GluedSystem(model, k).kernel_dleft()
                rels.append(float(np.max(np.abs(dR - dG))
                                  / np.max(np.abs(dG))))
        except Exception:  # noqa: BLE001 - any failure of the step is counted
            return [Check(f"providers.sigma{i}", False)
                    for i in range(self.n_energies)]
        (outdir / "kernel_providers.json").write_text(json.dumps(
            {"n_nodes": model.n, "sigma": sigmas, "rel_diff": rels},
            indent=2))
        return [numeric(f"providers.sigma{s:.3f}", r, self.rtol)
                for s, r in zip(sigmas, rels)]


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple
    modules: tuple      # connsum modules a fresh process imports before a pass
    # passes a run makes even when they take longer than --seconds, so
    # that its median has more than one sample
    min_passes: int = 3

    def run_pass(self, outdir: Path, seed: int) -> list[Check]:
        checks = []
        for step in self.steps:
            checks += step.run(outdir, seed)
        return checks


# The light subcommands that check the ingredients of the resolvent
# expansion run in the same pass as ``resolvent``.  As a workload of their
# own (a pass of about 0.8 s of scalar Bessel and quadrature code) they were
# too unsteady on a shared 2-vCPU VM: over ten runs of 15-20 s the
# interquartile range of the median pass time was 0.27-0.29 of its median,
# and that median moved by 43% between two such sets, because the host's
# speed for interpreter-bound code drifted by up to 2x over minutes.  The
# dense-solve workloads moved by under 10% in the same sets.
# ``lp-lemmas`` is left out: its classifier disagrees with the exact
# predicate on one instance in 200 at many seeds (0, 1, 11, 18 of 0-19), so
# the subcommand exits 3 there and no pass could be correct.  It belongs
# here again once that classifier is fixed.
WORKLOADS = {w.name: w for w in (
    Workload("resolvent-apply",
             (CliStep(("resolvent",), resolvent_checks, 4),
              CliStep(("specfun-check",), specfun_checks, 9),
              CliStep(("extend",), extend_checks, 1),
              CliStep(("bvp",), bvp_checks, 2),
              CliStep(("keylemma",), keylemma_checks, 4)),
             ("harmonic_ext", "bvp", "keylemma", "parametrix")),
    Workload("riesz-sweep",
             (CliStep(("riesz",), riesz_checks, 5),),
             ("bvp", "keylemma", "riesz"), min_passes=2),
    Workload("kernel-providers", (KernelProviders(),),
             ("bvp", "parametrix")),
)}
