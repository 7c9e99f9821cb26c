import numpy as np
import pytest

from connsum import bvp, harmonic_ext as hx, model as md, parametrix as px


def test_dtn_operator_type():
    m = md.build_model()
    op = hx.DtNOperator(m.minus, "minus", m.R)
    f = hx.BoundaryData("minus", m.R, {(0, 0): 2.0, (3, 0): 1.0})
    out = op(f)
    assert out.coeffs[(0, 0)] == 0.0
    assert out.coeffs[(3, 0)] == pytest.approx(3.0 / m.R)
    with pytest.raises(Exception):
        op(hx.BoundaryData("plus", m.R, {(0, 0): 1.0}))


def test_resolvent_grid_function():
    m = md.build_model()
    sys0 = bvp.GluedSystem(m, 0.0)
    par = px.Parametrix(m, q=2, kbar=1.0, system=sys0)
    v = np.exp(-2.0 * m.s ** 2)
    k = 1e-3
    out = px.resolvent(par, k, v)
    # values match resolvent_apply; derivatives match the exact system's
    Rv = par.resolvent_apply(k, v)
    np.testing.assert_allclose(out.values, Rv, rtol=1e-12)
    sysk = bvp.GluedSystem(m, k)
    _, du = sysk.apply(v)
    sel = np.abs(m.s) < 20
    scale = np.max(np.abs(du[sel]))
    # the parametrix dleft route carries second-order kink remainders
    assert np.max(np.abs((out.dvalues - du)[sel])) < 1e-3 * scale
