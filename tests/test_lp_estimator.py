import math

import numpy as np
import pytest

from connsum import lp_estimator as lpe
from connsum.errors import DomainError


def mellin_profile_l1(kernel: lpe.PowerKernel, p: float) -> float:
    """|| u ||_{L^1(R)} for the log-substituted convolution profile of a
    homogeneous kernel: closed form 1/(d/p - a) + 1/(a' - d/p) inside the
    boundedness window, infinity outside."""
    if not kernel.homogeneous:
        raise DomainError("Mellin profile needs the homogeneous calibration")
    d = kernel.d1
    alpha = d / p - kernel.a        # exponent for s <= 0
    beta = d / p - kernel.a_prime   # exponent for s > 0
    if alpha <= 0 or beta >= 0:
        return math.inf
    return 1.0 / alpha - 1.0 / beta


def dual_kernel(kernel: lpe.PowerKernel) -> lpe.PowerKernel:
    """Transpose kernel K(y, x): the x <= y branch picks up the primed
    exponents with the roles of the variables swapped, and the two
    measures trade places."""
    return lpe.PowerKernel(kernel.b_prime, kernel.a_prime, kernel.b,
                           kernel.a, kernel.d2, kernel.d1,
                           domain_start=kernel.domain_start)


class TestPredicate:
    def test_paper_plus_minus_instance(self):
        # d1 = 3, d2 = 2, a = 2, a' = 3, a + b = a' + b' = 3, p = 1.5
        kern = lpe.PowerKernel(2.0, 1.0, 3.0, 0.0, 3.0, 2.0)
        assert lpe.lemma_predicate(kern, 1.5)

    def test_homogeneous_window(self):
        kern = lpe.PowerKernel(1.0, 1.0, 2.0, 0.0, 2.0, 2.0, domain_start=0.0)
        assert lpe.lemma_predicate(kern, 1.5)
        assert not lpe.lemma_predicate(kern, 3.0)
        with pytest.raises(lpe.BoundaryCase):
            lpe.lemma_predicate(kern, 2.0)

    def test_all_paper_instances_on_their_ranges(self):
        for kern, (plo, phi) in lpe.paper_instances(3):
            for p in (1.2, 1.5, 1.9):
                if plo < p < phi:
                    assert lpe.lemma_predicate(kern, p)
            if math.isfinite(phi):
                assert not lpe.lemma_predicate(kern, phi + 0.7)

    def test_paper_instances_other_dimension(self):
        for kern, (plo, phi) in lpe.paper_instances(5):
            assert lpe.lemma_predicate(kern, 0.5 * (plo + phi))

    def test_p_below_one_rejected(self):
        kern = lpe.PowerKernel(2.0, 1.0, 3.0, 0.0, 3.0, 2.0)
        with pytest.raises(DomainError):
            lpe.lemma_predicate(kern, 0.9)

    def test_scaling_lemma_needs_calibration(self):
        with pytest.raises(DomainError):
            lpe.PowerKernel(1.0, 0.5, 2.0, 0.0, 2.0, 2.0, domain_start=0.0)


class TestMellin:
    def test_closed_form_vs_quadrature(self):
        # the substitution oracle: the profile integrated numerically
        from scipy.integrate import quad
        kern = lpe.PowerKernel(1.0, 1.0, 2.0, 0.0, 2.0, 2.0, domain_start=0.0)
        for p in (1.3, 1.5, 1.8):
            alpha = kern.d1 / p - kern.a
            beta = kern.d1 / p - kern.a_prime
            left, _ = quad(lambda s: math.exp(alpha * s), -80.0 / alpha, 0.0,
                           limit=200)
            right, _ = quad(lambda s: math.exp(beta * s), 0.0, -80.0 / beta,
                            limit=200)
            assert mellin_profile_l1(kern, p) == \
                pytest.approx(left + right, rel=1e-8)

    def test_infinite_outside_window(self):
        kern = lpe.PowerKernel(1.0, 1.0, 2.0, 0.0, 2.0, 2.0, domain_start=0.0)
        assert mellin_profile_l1(kern, 3.0) == math.inf

    def test_norm_bounded_by_profile(self):
        # measured norms stay below the L^1 bound of the profile
        kern = lpe.PowerKernel(1.0, 1.0, 2.0, 0.0, 2.0, 2.0, domain_start=0.0)
        p = 1.5
        norms, trend = lpe.empirical_norm_trend(kern, p)
        bound = mellin_profile_l1(kern, p)
        assert trend.bounded
        assert max(norms) <= bound * 1.01
        # the gap closes to within ten percent
        assert max(norms) > 0.9 * bound


class TestBoydLowerBound:
    @pytest.mark.parametrize("p", [1.25, 1.5, 3.0])
    def test_rank_one_closed_form(self, p):
        # the L^p(w2) -> L^p(w1) norm of f -> a (b . f) is
        # ||a||_{p,w1} ||b/w2||_{p',w2}, attained after one step
        rng = np.random.default_rng(7)
        a = rng.standard_normal(40)
        b = rng.standard_normal(30)
        w1 = rng.uniform(0.5, 2.0, 40)
        w2 = rng.uniform(0.1, 3.0, 30)
        pp = p / (p - 1.0)
        exact = lpe.lp_norm(w1, a, p) * lpe.lp_norm(w2, b / w2, pp)
        got = lpe.boyd_lower_bound(np.outer(a, b), w1, w2, p, 5)
        assert got == pytest.approx(exact, rel=1e-12)

    def test_p2_is_weighted_spectral_norm(self):
        # at p = 2 the iteration is the power method for M* M, so on a
        # signed matrix it reaches the largest singular value of
        # diag(sqrt w1) M diag(1/sqrt w2)
        rng = np.random.default_rng(3)
        mat = rng.standard_normal((30, 20))
        w1 = rng.uniform(0.5, 2.0, 30)
        w2 = rng.uniform(0.1, 3.0, 20)
        exact = np.linalg.norm(np.sqrt(w1)[:, None] * mat
                               / np.sqrt(w2)[None, :], 2)
        got = lpe.boyd_lower_bound(mat, w1, w2, 2.0, 400)
        assert got == pytest.approx(exact, rel=1e-10)

    def test_vector_p_matches_scalar_calls(self):
        rng = np.random.default_rng(5)
        mat = rng.standard_normal((30, 20))
        w1 = rng.uniform(0.5, 2.0, 30)
        w2 = rng.uniform(0.1, 3.0, 20)
        ps = [1.2, 1.5, 2.0, 3.5]
        got = lpe.boyd_lower_bound(mat, w1, w2, ps, 30)
        for p, g in zip(ps, got):
            assert g == pytest.approx(
                lpe.boyd_lower_bound(mat, w1, w2, p, 30), rel=1e-12)

    def test_zero_operator_stops_at_zero(self):
        w = np.ones(5)
        assert lpe.boyd_lower_bound(np.zeros((5, 5)), w, w, 1.5, 10) == 0.0

    def test_overflow_reports_inf(self):
        # a homogeneous kernel outside its window (a' < a): the truncated
        # norms grow like 1e6 per decade of R_max, and at R_max = 1e6 the
        # iterate at p = 1.134 overflows in |f|^p on the first steps; a
        # norm read off that iterate would be about 6
        d = 3.45
        kern = lpe.PowerKernel(0.8, d - 0.8, 0.17, d - 0.17, d, d,
                               domain_start=0.0)
        p = 1.134
        assert not lpe.lemma_predicate(kern, p)
        # the last truncation, R_max = 1e6, is the whole grid
        mat, w1, w2, _ = lpe._log_grid_operator(kern, 20)
        assert lpe.boyd_lower_bound(mat, w1, w2, p, 40) == math.inf
        # the overflow stops its own column only
        both = lpe.boyd_lower_bound(mat, w1, w2, [p, 3.0], 40)
        assert both[0] == math.inf
        assert both[1] == pytest.approx(
            lpe.boyd_lower_bound(mat, w1, w2, 3.0, 40), rel=1e-12)
        norms, trend = lpe.empirical_norm_trend(kern, p, pts_per_decade=20)
        assert norms[-1] == math.inf
        assert all(math.isfinite(x) for x in norms[:-1])
        assert not trend.bounded
        assert trend.growth_exponent == math.inf


class TestTrend:
    def test_divergent_when_aprime_equals_a(self):
        # a' = a violates the lemma: the log-substituted profile is not
        # integrable and the truncated norms grow
        kern = lpe.PowerKernel(1.0, 1.0, 1.0, 1.0, 2.0, 2.0, domain_start=0.0)
        _, trend = lpe.empirical_norm_trend(kern, 1.5)
        assert not trend.bounded

    def test_bounded_instance_stable(self):
        kern = lpe.PowerKernel(2.0, 1.0, 3.0, 0.0, 3.0, 2.0)
        _, trend = lpe.empirical_norm_trend(kern, 1.5)
        assert trend.bounded

    @pytest.mark.parametrize("kern", [
        lpe.PowerKernel(1.0, 1.0, 2.0, 0.0, 2.0, 2.0, domain_start=0.0),
        lpe.PowerKernel(2.0, 1.0, 3.0, 0.0, 3.0, 2.0)])
    def test_lockstep_matches_per_truncation(self, kern):
        # every truncation of the one lockstep call is the scalar
        # iteration on its own copy of the truncated kernel, up to
        # rounding
        p = 1.5
        assert lpe.lemma_predicate(kern, p)
        norms, _ = lpe.empirical_norm_trend(kern, p)
        mat, w1, w2, cuts = lpe._log_grid_operator(kern, 16)
        assert len(norms) == len(cuts) == len(lpe.TREND_R_MAXES)
        for got, cut in zip(norms, cuts):
            one = lpe.boyd_lower_bound(mat[cut, cut].copy(), w1[cut],
                                       w2[cut], p, 40)
            assert got == pytest.approx(one, rel=1e-12)

    def test_duality(self):
        # verdict of the transpose at p' matches
        kern = lpe.PowerKernel(2.0, 1.0, 3.0, 0.0, 3.0, 2.0)
        p = 1.5
        dual = dual_kernel(kern)
        assert lpe.lemma_predicate(kern, p) == \
            lpe.lemma_predicate(dual, p / (p - 1.0))


def test_random_suite_agreement():
    out = lpe.random_instance_suite(200)
    assert out["total"] == 200
    assert out["agree"] == 200, out["disagreements"][:3]
