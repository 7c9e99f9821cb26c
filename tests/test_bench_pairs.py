import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _pairs(parent, change, frac=(1.0, 1.0)):
    base = {name: 1.0 for name in bench_pairs.BETTER}
    return [{"parent": {**base, "pass_s": a, "check_pass_frac": frac[0]},
             "change": {**base, "pass_s": b, "check_pass_frac": frac[1]}}
            for a, b in zip(parent, change)]


def test_summary_counts_wins_and_parent_iqr():
    pairs = _pairs([3.0, 3.2, 2.9, 3.1, 3.0], [2.4, 2.3, 3.0, 2.5, 2.4])
    s = bench_pairs.summarize(pairs)
    p = s["pass_s"]
    assert p["change_wins"] == 4          # the third pair is a loss
    assert p["parent_median"] == 3.0
    assert p["change_median"] == 2.4
    assert p["parent_iqr"] == pytest.approx(3.1 - 3.0)
    assert p["median_gap_exceeds_parent_iqr"] is True
    # equal values are ties, which count for neither side
    assert s["setup_s"]["change_wins"] == 0
    assert s["setup_s"]["median_gap_exceeds_parent_iqr"] is False


def test_summary_higher_is_better():
    s = bench_pairs.summarize(_pairs([3.0], [3.0], frac=(0.9, 1.0)))
    assert s["check_pass_frac"]["change_wins"] == 1
    assert s["check_pass_frac"]["parent_iqr"] == 0.0


def test_sign_test_interval_on_planted_pairs():
    # ten planted differences change - parent; the interval is their 2nd
    # and 9th order statistics, at coverage 1 - 2 (1 + 10) / 2^10
    diffs = [-0.31, -0.52, -0.40, -0.12, -0.47, -0.36, -0.05, -0.44,
             -0.29, -0.38]
    parent = [1.5 + 0.01 * i for i in range(10)]
    change = [a + d for a, d in zip(parent, diffs)]
    s = bench_pairs.summarize(_pairs(parent, change))
    ci = s["pass_s"]["paired_difference"]
    got = sorted(b - a for a, b in zip(parent, change))
    assert ci["ranks"] == [2, 9]
    assert (ci["low"], ci["high"]) == (got[1], got[8])
    assert ci["low"] == pytest.approx(-0.47) and \
        ci["high"] == pytest.approx(-0.12)
    assert ci["coverage"] == pytest.approx(1.0 - 22.0 / 1024.0)
    assert ci["coverage"] > 0.978
    # identical sides: the interval is the single point 0
    same = s["setup_s"]["paired_difference"]
    assert (same["low"], same["high"]) == (0.0, 0.0)


def test_sign_test_interval_small_samples():
    # below six pairs no rank reaches 95 %: the whole range is reported
    ci = bench_pairs.sign_test_interval([0.3, -0.1, 0.2, 0.0, 0.5])
    assert ci["ranks"] == [1, 5]
    assert (ci["low"], ci["high"]) == (-0.1, 0.5)
    assert ci["coverage"] == pytest.approx(1.0 - 2.0 / 32.0)
    # twenty pairs: the 6th and 15th, at 95.9 %
    ci = bench_pairs.sign_test_interval(range(20))
    assert ci["ranks"] == [6, 15]
    assert (ci["low"], ci["high"]) == (5, 14)
    assert ci["coverage"] == pytest.approx(0.9586, abs=1e-4)
