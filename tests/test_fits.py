import numpy as np
import pytest

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
