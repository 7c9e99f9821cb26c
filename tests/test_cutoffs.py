import numpy as np
import pytest

from connsum import model as md
from connsum.cutoffs import (Bump, Step, minus_cutoff, minus_cutoff_source,
                             on_grid)

from oracles import apply_operator, segment_interior


@pytest.fixture(scope="module", params=[128.0, 512.0], ids=["S128", "S512"])
def model(request):
    S = request.param
    return md.build_model(md.GeometryConfig(S_minus=S, S_plus=S))


def test_minus_cutoff_source_matches_spectral_operator(model):
    # independent route: Chebyshev differentiation of the sampled phi_minus
    # instead of the closed-form step derivatives
    v = minus_cutoff_source(model)
    ref = -apply_operator(model, minus_cutoff(model)(model.s))
    sel = segment_interior(model)
    assert np.max(np.abs(v - ref)[sel]) < 1e-7 * np.max(np.abs(v[sel]))


def test_falling_step_is_one_minus_rising(model):
    a, b = model.radii.phi
    up = on_grid(model, Step(a, b))
    down = on_grid(model, Step(a, b, falling=True))
    assert np.array_equal(down.values, 1.0 - up.values)
    assert np.array_equal(down.d1, -up.d1)
    assert np.array_equal(down.d2, -up.d2)
    assert np.array_equal(down.lap, -up.lap)


def test_on_grid_laplacian_is_the_model_laplacian(model):
    za, zb = model.radii.zeta
    bump = Bump(-zb, -za, za, zb)
    fld = on_grid(model, bump)
    s = model.s
    assert np.array_equal(fld.lap,
                          -bump.d2(s) - model.dlog_weight(s) * bump.d1(s))
