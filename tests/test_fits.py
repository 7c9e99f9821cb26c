import math

import numpy as np
import pytest

from connsum import fits
from connsum.errors import DomainError
from connsum.fits import classify_trend

R = np.array([1e2, 1e3, 1e4, 1e5, 1e6])


@pytest.mark.parametrize("name,norms,bounded,slope", [
    # geometric convergence to 1 with ratio 0.3 per decade
    ("geometric", 1.0 - 0.3 ** np.arange(1, 6), True, None),
    ("sqrt-growth", R ** 0.5, False, 0.5),
    # the fit uses the last four points only: a wild first one is ignored
    ("sqrt-growth-outlier", np.r_[1e3, R[1:] ** 0.5], False, 0.5),
    ("log-growth", np.log(R), False, None),
    # spreads on either side of the 5 % cut
    ("just-inside", [1.0, 1.0, 1.0, 1.0, 0.951], True, None),
    ("just-outside", [1.0, 1.0, 1.0, 1.0, 0.949], False, 0.0),
])
def test_classify_trend_planted(name, norms, bounded, slope):
    trend = classify_trend(R, norms)
    assert trend.bounded is bounded, name
    tail = np.asarray(norms)[-3:]
    assert trend.variation == pytest.approx((tail.max() - tail.min())
                                            / tail.max(), rel=1e-14)
    if bounded:
        assert trend.growth_exponent is None
    elif slope is not None:
        assert trend.growth_exponent == pytest.approx(slope, abs=1e-2)
    else:
        assert trend.growth_exponent > 0


@pytest.mark.parametrize("name,norms", [
    # an estimator that overflowed at the largest truncation only
    ("overflow-last", [1e10, 5e16, 3e22, 1.7e28, math.inf]),
    # ... or early, leaving no finite tail at all
    ("overflow-early", [1e3, math.inf, math.inf, math.inf, math.inf]),
    # a finite-looking tail behind an overflow: the series still diverges
    ("overflow-first", [math.inf, 1.0, 1.0, 1.0, 1.0]),
    ("nan", [1.0, 1.0, 1.0, 1.0, math.nan]),
])
def test_classify_trend_non_finite(name, norms, monkeypatch):
    def no_fit(*args):
        raise AssertionError("no slope is fitted to a non-finite series")

    monkeypatch.setattr(fits, "loglog_slope", no_fit)
    trend = classify_trend(R, norms)
    assert trend.bounded is False, name
    assert trend.variation == math.inf
    assert trend.growth_exponent == math.inf


@pytest.mark.parametrize("n", [0, 1, 2])
def test_classify_trend_short_series(n):
    # one or two norms show no trend, however flat they are
    with pytest.raises(DomainError, match="at least three norms"):
        classify_trend(R[:n], [1.0] * n)
