"""Record a before/after benchmark comparison in a file.

Runs ``perfbench/run.py --workload W`` in alternating pairs: once in a
checkout of the parent revision and once in a checkout of the change,
the parent first in even pairs and second in odd ones.  Both checkouts
are shared ``git clone``s of this repository, at ``--parent`` (default
``HEAD~1``) and ``--change`` (default ``HEAD``), made side by side in one
temporary directory and removed afterwards, so that neither side runs
from a different place than the other; each run lasts the
``run_seconds`` of BENCHMARK.json.  Only commits are compared: with
uncommitted changes to tracked files the driver refuses to run.  The
output file holds the machine, both commit SHAs, every pair, and for
each end-to-end metric both medians, the parent's interquartile range,
the number of pairs the change wins and a sign-test interval for the
median paired difference:

    python3 tools/bench_pairs.py --workload riesz-sweep --pairs 10 \\
        --seed 3 --out BENCH_riesz.json

An A/A run compares a commit with itself and measures the noise floor a
claim is read against: with ``--parent HEAD`` both sides run the same
code, so the sign-test interval of its paired differences is the spread
that alternating pairs show with no change:

    python3 tools/bench_pairs.py --workload resolvent-apply --pairs 10 \\
        --parent HEAD --seed 5 --out BENCH_aa.json

Both trees' benchmarks must report ``correct: true`` in every run, or the
driver stops without writing the file.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
SECONDS = BENCHMARK["run_seconds"]


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


@contextmanager
def checkouts(revs: dict):
    """{side: tree}: a clone of this repository at each side's revision,
    all in one temporary directory, each borrowing this repository's
    objects; this repository's own .git is left untouched."""
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {}
        for side, rev in revs.items():
            sha = git("rev-parse", rev)
            trees[side] = Path(tmp) / side
            git("clone", "--quiet", "--shared", "--no-checkout", str(ROOT),
                str(trees[side]))
            git("checkout", "--quiet", "--detach", sha, cwd=trees[side])
        yield trees


def run_once(tree: Path, args) -> dict:
    """One benchmark process in tree: its result line and environment."""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"benchmark in {tree} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    result = json.loads(lines[-1])
    if result["correct"] is not True:
        raise SystemExit(f"benchmark in {tree} reports correct: "
                         f"{result['correct']}")
    env = next(json.loads(line.split(" ", 1)[1]) for line in lines
               if line.startswith("environment "))
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "environment": env}


def quartiles(values) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


# least coverage sought from the sign-test interval
SIGN_TEST_LEVEL = 0.95


def sign_test_interval(diffs) -> dict:
    """Distribution-free interval for the median of the paired
    differences: the k-th smallest and k-th largest of the n differences,
    which cover the median with probability 1 - 2 P(Bin(n, 1/2) < k)
    whatever their distribution.  k is the largest rank whose coverage
    is at least SIGN_TEST_LEVEL (for n = 10 the 2nd and 9th, at
    1 - 22/1024 = 97.85 %); below n = 6 no rank reaches it and the
    interval is the whole range, with its lower coverage reported."""
    d = sorted(diffs)
    n = len(d)

    def coverage(k):
        return 1.0 - 2.0 * sum(math.comb(n, i) for i in range(k)) / 2.0 ** n

    k = 1
    while k < n // 2 and coverage(k + 1) >= SIGN_TEST_LEVEL:
        k += 1
    return {"low": d[k - 1], "high": d[n - k], "ranks": [k, n + 1 - k],
            "coverage": coverage(k)}


def summarize(pairs) -> dict:
    """Per metric: both medians, the parent's IQR, the pairs the change
    wins (ties count for neither side), whether the medians differ by
    more than the parent's IQR, and the sign-test interval for the median
    of the paired differences change - parent (sign_test_interval)."""
    out = {}
    for name, better in BETTER.items():
        par = [p["parent"][name] for p in pairs]
        chg = [p["change"][name] for p in pairs]
        lo, hi = quartiles(par)
        sign = 1.0 if better == "lower" else -1.0
        med_par, med_chg = statistics.median(par), statistics.median(chg)
        out[name] = {
            "parent_median": med_par, "change_median": med_chg,
            "parent_iqr": hi - lo,
            "change_wins": sum(sign * (a - b) > 0 for a, b in zip(par, chg)),
            "median_gap_exceeds_parent_iqr": abs(med_chg - med_par) > hi - lo,
            "paired_difference": sign_test_interval(
                [b - a for a, b in zip(par, chg)])}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--parent", default="HEAD~1",
                    help="parent revision to clone (HEAD for an A/A run)")
    ap.add_argument("--change", default="HEAD",
                    help="changed revision to clone")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    if git("status", "--porcelain", "--untracked-files=no"):
        raise SystemExit("uncommitted changes to tracked files: commit them "
                         "first, both sides run from commits")
    pairs, envs = [], {}
    with checkouts({"parent": args.parent, "change": args.change}) as trees:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else \
                ("change", "parent")
            pair = {"order": list(order)}
            for side in order:
                res = run_once(trees[side], args)
                pair[side] = res["metrics"]
                envs[side] = res["environment"]
            pairs.append(pair)
            print(f"pair {i + 1}/{args.pairs}: pass_s parent "
                  f"{pair['parent']['pass_s']:.4f} change "
                  f"{pair['change']['pass_s']:.4f}", flush=True)
    shas = {side: env.pop("git_sha") for side, env in envs.items()}
    report = {
        "workload": args.workload,
        "command": f"perfbench/run.py --workload {args.workload} "
                   f"--seed {args.seed} --seconds {SECONDS:g} "
                   "--trace 0",
        "machine": {**envs["change"], "platform": platform.platform()},
        "parent_sha": shas["parent"],
        "change_sha": shas["change"],
        "pairs": pairs,
        "summary": summarize(pairs),
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    for name, s in report["summary"].items():
        ci = s["paired_difference"]
        print(f"{name}: parent median {s['parent_median']:.6g} (IQR "
              f"{s['parent_iqr']:.3g}), change median "
              f"{s['change_median']:.6g}, change wins {s['change_wins']}/"
              f"{args.pairs}, change - parent in [{ci['low']:.3g}, "
              f"{ci['high']:.3g}] ({100 * ci['coverage']:.1f} %)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
