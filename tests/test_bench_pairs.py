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
