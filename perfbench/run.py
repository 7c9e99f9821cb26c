"""connsum benchmark: time to a verified result on three desk-scale workloads.

Run one workload (the last line of standard output is the JSON
result):

    python3 perfbench/run.py --workload riesz-sweep --seed 1 --seconds 25 --trace 0

Run every workload, each in its own process, and print a table:

    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]

Workloads run in a closed loop with one client: a pass (one experiment,
from model build to checked result) starts when the previous one ends,
until ``--seconds`` have elapsed and at least the workload's ``min_passes``
have run.
``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` is a separate run that alternates untraced and traced passes
and reports per-layer self times and call counts (see layertrace.py), the
tracing overhead, and self-checks that tracing changed no report byte and
left no wrapper behind, and that every count repeats exactly.

The program is taken from ``src/`` next to this directory; the benchmark
refuses to run without it.  BLAS/OpenMP threads are pinned to
min(2, usable CPUs) in every process it starts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_TRACED_PASSES = 2
SETUP_REPEATS = 5
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "check_pass_frac": "ratio", "check_margin_digits": "digits"}


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update({v: str(BLAS_THREADS) for v in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def environment() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "git_sha": sha}


def setup_seconds(modules) -> float:
    """Median wall time of a fresh interpreter importing numpy, scipy and
    the workload's connsum modules (the median also drops the one start
    that byte-compiles a fresh checkout)."""
    code = "import numpy, scipy, connsum.cli" + "".join(
        f", connsum.{m}" for m in modules)
    cmd = [sys.executable, "-c", code]
    env = pinned_env()
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def require_sources():
    if not (SRC / "connsum" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no connsum sources under {SRC}")


def import_program(modules):
    sys.path.insert(0, str(SRC))
    import importlib
    pkg = importlib.import_module("connsum")
    if SRC.resolve() not in Path(pkg.__file__).resolve().parents:
        raise SystemExit(f"benchmark: connsum imported from {pkg.__file__}, "
                         f"not from {SRC}")
    for m in ("cli", *modules):
        importlib.import_module(f"connsum.{m}")


def reports_digest(outdir: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(outdir.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def steal_seconds() -> float:
    """CPU time the hypervisor took from this machine's CPUs since boot
    (summed over CPUs), or 0 where the kernel does not report it."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def timed_pass(workload, outdir: Path, seed: int):
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    t0 = time.perf_counter()
    checks = workload.run_pass(outdir, seed)
    return time.perf_counter() - t0, checks, reports_digest(outdir)


def tail_percentile(times):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None while a run has too few passes."""
    n = len(times)
    if n <= 10:
        return None
    return 100.0 * (n - 10) / n, sorted(times)[n - 11]


def summarize_checks(all_checks) -> tuple[int, int, float | None, list]:
    flat = [c for checks in all_checks for c in checks]
    failed = [c for c in flat if not c.ok]
    margins = [c.margin_digits for c in flat if c.margin_digits is not None]
    return len(flat), len(failed), (min(margins) if margins else None), failed


def print_checks(checks, failed):
    for c in checks:
        if c.value is not None:
            print(f"  check {c.name}: {'ok' if c.ok else 'FAILED'} "
                  f"|{c.value:.3e}| vs {c.bound:g} "
                  f"({c.margin_digits:.3f} digits)")
    names = sorted({c.name for c in failed})
    if names:
        print(f"  failed checks: {len(failed)} ({', '.join(names[:8])}"
              f"{', ...' if len(names) > 8 else ''})")


def run_untraced(workload, seed, seconds, outdir):
    setup = setup_seconds(workload.modules)
    import_program(workload.modules)
    times, steals, all_checks, digests = [], [], [], set()
    t_start = time.perf_counter()
    while (len(times) < workload.min_passes
           or time.perf_counter() - t_start < seconds):
        st0 = steal_seconds()
        dt, checks, digest = timed_pass(workload, outdir, seed)
        steals.append(steal_seconds() - st0)
        times.append(dt)
        all_checks.append(checks)
        digests.add(digest)
    attempted, failed, margin, bad = summarize_checks(all_checks)
    values = {
        "pass_s": statistics.median(times),
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "check_pass_frac": 1.0 - failed / attempted,
        "check_margin_digits": margin,
    }
    print(f"workload {workload.name} seed {seed}: {len(times)} passes, "
          f"pass_s samples {[round(t, 4) for t in times]}, CPU time "
          f"stolen by the host {[round(t, 2) for t in steals]}")
    tail = tail_percentile(times)
    if tail:
        print(f"  pass_s p{tail[0]:.0f} = {tail[1]:.4f} s")
    print_checks(all_checks[-1], bad)
    if len(digests) != 1:
        print("  reports differ between passes of one seed")
    correct = failed == 0 and len(digests) == 1 and margin is not None
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
               for k, v in values.items()}
    return correct, attempted, failed, metrics


def run_traced(workload, seed, seconds, outdir):
    from layertrace import Tracer, surviving_wrappers
    import_program(workload.modules)
    tracer = Tracer()
    plain, traced, all_checks, summaries = [], [], [], []
    digests = set()
    t_start = time.perf_counter()
    while (len(traced) < MIN_TRACED_PASSES or not plain
           or time.perf_counter() - t_start < seconds):
        if len(plain) <= len(traced):
            dt, checks, digest = timed_pass(workload, outdir, seed)
            plain.append(dt)
        else:
            tracer.install()
            try:
                tracer.reset()
                dt, checks, digest = timed_pass(workload, outdir, seed)
            finally:
                tracer.uninstall()
            traced.append(dt)
            summaries.append(tracer.summary(dt))
        all_checks.append(checks)
        digests.add(digest)
    leftovers = surviving_wrappers()
    attempted, failed, _, bad = summarize_checks(all_checks)

    counts_repeat = True
    layer = {}
    for key in summaries[0]:
        vals = [s[key] for s in summaries]
        if key.endswith((".s", "_s")):
            # means, so the self times and cli.self_s add up to trace.pass_s
            layer[key] = statistics.fmean(vals)
        else:
            counts_repeat &= len(set(vals)) == 1
            layer[key] = vals[0]
    layer["trace.pass_s"] = statistics.fmean(traced)
    layer["trace.overhead_s"] = statistics.median(traced) \
        - statistics.median(plain)

    print(f"workload {workload.name} seed {seed} traced: "
          f"{len(plain)} untraced / {len(traced)} traced passes")
    print_checks(all_checks[-1], bad)
    print(f"  self-check reports byte-identical traced vs untraced: "
          f"{len(digests) == 1}")
    print(f"  self-check no wrapper survives: {not leftovers} {leftovers}")
    print(f"  self-check counts repeat exactly: {counts_repeat}")
    correct = failed == 0 and len(digests) == 1 and not leftovers \
        and counts_repeat
    metrics = {k: {"value": v, "unit": layer_unit(k)}
               for k, v in layer.items()}
    return correct, attempted, failed, metrics


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith((".calls", ".points")):
        return "count"
    return "ratio"


def run_workload(args) -> int:
    from workloads import WORKLOADS
    require_sources()
    workload = WORKLOADS[args.workload]
    outdir = OUT / f"{workload.name}-{os.getpid()}"
    run = run_traced if args.trace else run_untraced
    try:
        correct, attempted, failed, metrics = run(
            workload, args.seed, args.seconds, outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT.rmdir()     # only when no other run is using it
    print("environment " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; a table of the results."""
    from workloads import WORKLOADS
    rows, status = [], 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, env=pinned_env(), capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name}: exit {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        rows.append((name, res))
    print()
    for name, res in rows:
        print(f"{name}: correct={res['correct']} checks attempted="
              f"{res['attempted']} failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:44s} {m['value']:14.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    # before numpy loads: OpenBLAS reads its thread count once
    os.environ.update({v: str(BLAS_THREADS) for v in THREAD_VARS})
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
