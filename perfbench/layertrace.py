"""Outside-in layer tracing for the connsum benchmark.

The tracer wraps the public entry points of each connsum layer at their
module or class attribute, records one span per call (name, start, end,
parent span) in memory, and restores every original attribute on
uninstall.  Nothing inside the package is edited, so an untraced pass runs
exactly the code a user runs.

A function imported by name into another connsum module (for example
``keylemma.solve_laplace``) is the same object as the original, so every
module attribute bound to it is replaced as well.  Classes are traced
through their methods on the class itself, which covers every import site.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

MARK = "__perfbench_wrapped__"

# (metric prefix, connsum module, attribute path); a ``Class.__init__``
# target times construction, and two targets may share one metric prefix
TARGETS = [
    ("specfun.bessel_K", "specfun", "bessel_K"),
    ("specfun.bessel_I", "specfun", "bessel_I"),
    ("specfun.bessel_K_quadrature", "specfun", "bessel_K_quadrature"),
    ("specfun.heat_resolvent_identity_check", "specfun",
     "heat_resolvent_identity_check"),
    ("model.build_model", "model", "build_model"),
    ("model.radial_laplacian", "model", "radial_laplacian"),
    ("harmonic_ext.dtn_symbol_check", "harmonic_ext", "dtn_symbol_check"),
    ("harmonic_ext.extend_minus", "harmonic_ext", "extend_minus"),
    ("bvp.GluedSystem", "bvp", "GluedSystem.__init__"),
    ("bvp.GluedSystem.kernel_dleft", "bvp", "GluedSystem.kernel_dleft"),
    ("bvp.solve_laplace", "bvp", "solve_laplace"),
    ("bvp.build_log_harmonic", "bvp", "build_log_harmonic"),
    ("bvp.NeckProblem", "bvp", "NeckProblem.__init__"),
    ("bvp.NeckProblem", "bvp", "NeckProblem.solve"),
    ("keylemma.build_key_approximation", "keylemma",
     "build_key_approximation"),
    ("keylemma.KeyApproximation.u", "keylemma", "KeyApproximation.u"),
    ("keylemma.residual_slope", "keylemma", "residual_slope"),
    ("parametrix.Parametrix", "parametrix", "Parametrix.__init__"),
    ("parametrix.error_kernel", "parametrix", "error_kernel"),
    ("parametrix.invert_error", "parametrix", "invert_error"),
    ("parametrix.choose_k0", "parametrix", "Parametrix.choose_k0"),
    ("parametrix.ilg_expansion", "parametrix", "ilg_expansion"),
    ("parametrix.resolvent_apply", "parametrix", "Parametrix.resolvent_apply"),
    ("parametrix.resolvent_dleft", "parametrix", "Parametrix.resolvent_dleft"),
    ("product_kernels.reduced_kernel", "product_kernels", "reduced_kernel"),
    ("riesz.low_energy_kernel", "riesz", "low_energy_kernel"),
    ("riesz.lp_boundedness_report", "riesz", "lp_boundedness_report"),
    ("riesz.boyd_lower_bound", "riesz", "boyd_lower_bound"),
    ("riesz.schur_upper_bound", "riesz", "schur_upper_bound"),
    ("riesz.unboundedness_witness", "riesz", "unboundedness_witness"),
]

# metrics derived from the spans rather than read off one span name
POINTS = ("specfun.bessel_K", "specfun.bessel_I")
SELF_S = sorted({name for name, _, _ in TARGETS})
CALLS = ["specfun.bessel_K", "specfun.bessel_I", "bvp.GluedSystem",
         "bvp.GluedSystem.kernel_dleft", "keylemma.KeyApproximation.u",
         "parametrix.error_kernel", "parametrix.invert_error",
         "parametrix.resolvent_apply", "parametrix.resolvent_dleft",
         "product_kernels.reduced_kernel", "riesz.boyd_lower_bound"]


def _connsum_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "connsum" or n.startswith("connsum."))]


class Tracer:
    """Records spans for one pass at a time; install() before the pass,
    uninstall() after the last traced pass."""

    def __init__(self):
        self.spans = []      # [name, parent index, start, end, points]
        self._stack = []
        self._undo = []      # (owner, attribute, original)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        want_points = name in POINTS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, tracer._stack[-1] if tracer._stack else -1,
                   time.perf_counter(), None, 0]
            if want_points:
                x = args[1] if len(args) > 1 else kwargs["x"]
                rec[4] = int(np.size(x))
            tracer.spans.append(rec)
            tracer._stack.append(len(tracer.spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                rec[3] = time.perf_counter()

        setattr(wrapper, MARK, True)
        return wrapper

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        layers = {m: importlib.import_module(f"connsum.{m}")
                  for _, m, _ in TARGETS}
        modules = _connsum_modules()
        for name, modname, path in TARGETS:
            mod = layers[modname]
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(mod, path)
            wrapped = self._wrap(name, orig)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._undo.append((m, attr, orig))
                        setattr(m, attr, wrapped)

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def reset(self):
        self.spans = []
        self._stack = []

    def summary(self, pass_s: float) -> dict:
        """Per-layer metrics of the spans recorded since the last reset.

        Self time is a span's duration minus that of its direct children;
        whatever no span covers is ``cli.self_s`` (glue, report writing and
        the benchmark's own checks)."""
        dur = [s[3] - s[2] for s in self.spans]
        self_s = defaultdict(float)
        calls = defaultdict(int)
        points = defaultdict(int)
        child = defaultdict(float)
        for i, s in enumerate(self.spans):
            if s[1] >= 0:
                child[s[1]] += dur[i]
        for i, s in enumerate(self.spans):
            self_s[s[0]] += dur[i] - child[i]
            calls[s[0]] += 1
            points[s[0]] += s[4]
        covered = sum(d for d, s in zip(dur, self.spans) if s[1] < 0)

        # GluedSystem constructions nested anywhere inside low_energy_kernel
        builds = 0
        for s in self.spans:
            if s[0] != "bvp.GluedSystem":
                continue
            p = s[1]
            while p >= 0 and self.spans[p][0] != "riesz.low_energy_kernel":
                p = self.spans[p][1]
            builds += p >= 0
        kernels = calls["riesz.low_energy_kernel"]

        out = {f"{n}.s": self_s[n] for n in SELF_S}
        out.update({f"{n}.calls": calls[n] for n in CALLS})
        out.update({f"{n}.points": points[n] for n in POINTS})
        out["riesz.green_builds_per_kernel"] = builds / kernels if kernels else 0.0
        out["cli.self_s"] = pass_s - covered
        return out


def surviving_wrappers() -> list[str]:
    """Names of connsum attributes that are still tracer wrappers."""
    found = []
    for m in _connsum_modules():
        for attr, val in vars(m).items():
            if getattr(val, MARK, False):
                found.append(f"{m.__name__}.{attr}")
            if inspect.isclass(val) and val.__module__ == m.__name__:
                for meth, fn in vars(val).items():
                    if getattr(fn, MARK, False):
                        found.append(f"{m.__name__}.{attr}.{meth}")
    return found
