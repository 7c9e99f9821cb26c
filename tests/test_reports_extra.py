import numpy as np

from connsum import bvp, model as md, parametrix as px

from oracles import resolvent


def test_resolvent_grid_function():
    m = md.build_model()
    sys0 = bvp.GluedSystem(m, 0.0)
    par = px.Parametrix(m, q=2, kbar=1.0, system=sys0)
    v = np.exp(-2.0 * m.s ** 2)
    k = 1e-3
    out = resolvent(par, k, v)
    # values match resolvent_apply; derivatives match the exact system's
    Rv = par.resolvent_apply(k, v)
    np.testing.assert_allclose(out.values, Rv, rtol=1e-12)
    sysk = bvp.GluedSystem(m, k)
    _, du = sysk.apply(v)
    sel = np.abs(m.s) < 20
    scale = np.max(np.abs(du[sel]))
    # the parametrix dleft route carries second-order kink remainders
    assert np.max(np.abs((out.dvalues - du)[sel])) < 1e-3 * scale
