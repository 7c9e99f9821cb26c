import math
import warnings

import numpy as np
import pytest

from connsum import bvp, keylemma as kl, model as md, parametrix as px, riesz as rz
from connsum import product_kernels as pk
from connsum.cutoffs import minus_cutoff_source
from connsum.errors import DomainError, NonConvergenceError
from connsum.fits import loglog_slope
from connsum.quadrature import cc_segment, clenshaw_curtis, fornberg_weights

from oracles import schur_exponent_check


# ---------------------------------------------------------------------------
# the low/high-energy split of 1/xi and closed forms of the low-energy part


def f_low(xi, k0: float = 1.0):
    """F_<(xi) = (2/(pi xi)) (pi/2 - arctan(xi/k0))."""
    xi = np.asarray(xi, dtype=float)
    return 2.0 / (math.pi * xi) * (0.5 * math.pi - np.arctan(xi / k0))


def f_high(xi, k0: float = 1.0):
    """F_>(xi) = (2/(pi xi)) arctan(xi/k0); F_< + F_> = 1/xi."""
    xi = np.asarray(xi, dtype=float)
    return 2.0 / (math.pi * xi) * np.arctan(xi / k0)


def rank_one_k_integral(c_rate: float, k0: float, r, rp):
    """Closed form int_0^{k0} r^{-1} e^{-c k r} e^{-c k r'} dk
    = r^{-1} (c (r + r'))^{-1} (1 - e^{-c k0 (r + r')})."""
    r = np.asarray(r, dtype=float)
    rp = np.asarray(rp, dtype=float)
    tot = c_rate * (r + rp)
    return (1.0 - np.exp(-k0 * tot)) / (r * tot)


# ---------------------------------------------------------------------------
# the high-energy multiplier, by a finite-volume eigen-decomposition


def _finite_volume(r, n_dim: int, pot, scale: float = 1.0):
    """Finite-volume form of -v^{-1}(v u')' + pot on the ascending nodes r,
    v = scale r^{n_dim - 1}, with natural (Neumann) ends: returns the cell
    weights w, the stiffness matrix (the sum over cells of v_mid u_i' u_j'
    plus the potential mass) and the weights v_mid h of the cell
    gradients."""
    n_pts = len(r)
    h = np.diff(r)
    w = np.zeros(n_pts)
    w[1:-1] = 0.5 * (r[2:] - r[:-2]) * r[1:-1] ** (n_dim - 1)
    w[0] = 0.5 * h[0] * r[0] ** (n_dim - 1)
    w[-1] = 0.5 * h[-1] * r[-1] ** (n_dim - 1)
    w *= scale
    vmid = scale * (0.5 * (r[1:] + r[:-1])) ** (n_dim - 1)
    main = np.zeros(n_pts)
    off = -vmid / h
    main[:-1] -= off
    main[1:] -= off
    S = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
    S = S + np.diag(pot * w)
    return w, S, vmid * h


def _weighted_modes(S, w):
    """Eigenvalues (floored at 0) of the symmetric pencil (S, diag w) and
    its modes, orthonormal in the weights w."""
    sq = np.sqrt(w)
    eigs, Q = np.linalg.eigh(S / sq[:, None] / sq[None, :])
    return np.maximum(eigs, 0.0), Q / sq[:, None]


def _symmetric_channel_operator(model: md.ModelManifold, end: str, m: int,
                                l: int, r_max: float, n_pts: int):
    """Symmetric finite-volume radial operator of one channel on
    [R, r_max] with Dirichlet walls; returns (eigs, modes, weights, grad,
    grad_weights) with modes orthonormal in the channel volume measure."""
    spec = model.end_spec(end)
    n_dim = spec.euclidean_dim
    r = np.geomspace(model.R, r_max, n_pts)
    mu2 = spec.cross_section.eigenvalues[l]
    ang = m * (m + n_dim - 2)
    w, S, gw = _finite_volume(r, n_dim, ang / r ** 2 + mu2)
    # Dirichlet walls: restrict to the interior
    sl = slice(1, n_pts - 1)
    wd = w[sl]
    eigs, modes = _weighted_modes(S[sl, sl], wd)
    # staggered gradient of the quadratic form (zero boundary values):
    # rows = interior cell interfaces, weights v_mid h
    ni = n_pts - 2
    grad = np.zeros((ni + 1, ni))
    hd = np.empty(ni + 1)
    hd[0] = r[1] - r[0]
    hd[1:] = r[2:] - r[1:-1]
    for i in range(ni + 1):
        if 0 < i <= ni - 1:
            grad[i, i - 1] = -1.0 / hd[i]
        if i <= ni - 1:
            grad[i, i] = grad[i, i] + 1.0 / hd[i]
        elif i == ni:
            grad[i, i - 1] = -1.0 / hd[i]
    return eigs, modes, wd, grad, gw


def high_energy_multiplier(model: md.ModelManifold, channels, k0: float = 1.0,
                           r_max: float = 64.0, n_pts: int = 220) -> dict:
    """Apply nabla F_>(sqrt(Delta)) per channel by eigen-decomposition on
    a truncated radial domain and report the L^2 -> L^2 norms.

    The multiplier bound sup_xi |xi F_>(xi)| = (2/pi) arctan(oo) = 1 makes
    sup_channels || nabla F_>(sqrt(Delta)) ||_{2->2} <= 1.
    """
    norms = {}
    for ch in channels:
        eigs, modes, wd, grad, gw = _symmetric_channel_operator(
            model, ch.end, ch.angular, ch.cross_index, r_max, n_pts)
        lam = np.sqrt(eigs)
        mult = np.where(lam > 0, f_high(np.maximum(lam, 1e-300), k0), 0.0)
        # the discretization-consistent gradient is the staggered
        # difference entering the finite-volume quadratic form:
        # ||grad g||^2 <= <Delta g, g>, so the norm is <= sup xi F_>(xi)
        core = modes * mult[None, :]
        T = grad @ core @ (modes.T * wd[None, :])
        Tw = np.sqrt(gw)[:, None] * T / np.sqrt(wd)[None, :]
        norms[(ch.end, ch.angular, ch.cross_index)] = float(
            np.linalg.norm(Tw, 2))
    return {"norms": norms, "uniform_bound": max(norms.values()),
            "multiplier_sup": 1.0}


# ---------------------------------------------------------------------------
# split consistency on a pure Euclidean model


def split_consistency_euclidean(k0: float = 1.0, n_r: int = 160,
                                r_span=(2.0, 40.0)) -> dict:
    """On R^3 (point cross-section), the low-energy k-quadrature kernel
    plus the high-energy eigen-multiplier kernel reproduce the radial
    derivative of the known kernel of Delta^{-1/2},

        K(r, r') = log((r + r')/|r - r'|) / (4 pi^2 r r'),

    compared pointwise away from the diagonal."""
    end = md.EndSpec(3, md.CrossSection.point(), 2.0)
    r = np.geomspace(r_span[0], r_span[1], n_r)
    # low part: (2/pi) int_0^{k0} d_r kernel dk by quadrature
    sig, ws = cc_segment(math.log(1.0 / k0), 38.0, 35)
    low = np.zeros((n_r, n_r))
    for s_i, w_i in zip(sig, ws):
        k = math.exp(-s_i)
        low += (2.0 / math.pi) * w_i * k * \
            pk.reduced_kernel_dleft(end, k, r[:, None], r[None, :])
    # high part kernel: d_r F_>(sqrt(Delta)) by dense eigen-decomposition
    w, S, _ = _finite_volume(r, end.euclidean_dim, 0.0, end.weight_constant)
    eigs, modes = _weighted_modes(S, w)
    # the constant mode has eigenvalue 0, where f_high is 0/0
    eigs = np.maximum(eigs, 1e-14)
    kern_h = (modes * f_high(np.sqrt(eigs), k0)[None, :]) @ modes.T
    D1 = np.zeros((n_r, n_r))
    rows = np.arange(n_r)
    cols = np.arange(5)[:, None] + np.clip(rows - 2, 0, n_r - 5)
    D1[rows, cols] = fornberg_weights(r, r[cols], 1)[1]
    high = D1 @ kern_h
    # reference: d/dr of the exact half-inverse kernel
    a = r[:, None]
    b = r[None, :]
    core = np.log((a + b) / np.maximum(np.abs(a - b), 1e-300))
    dcore = 1.0 / (a + b) - np.sign(a - b) / np.maximum(np.abs(a - b), 1e-300)
    ref = (dcore / (a * b) - core / (a * a * b)) / (4 * math.pi ** 2)
    total = low + high
    mask_r = (r > 4.0) & (r < 25.0)
    offdiag = np.abs(a - b) > 3.0
    sel = np.outer(mask_r, mask_r) & offdiag
    rel = float(np.max(np.abs((total - ref)[sel]))
                / np.max(np.abs(ref[sel])))
    return {"rel_error": rel}


# ---------------------------------------------------------------------------
# witness ingredients


def kappa_integral(eps: float = 1.0, c_rate: float = 1.0) -> float:
    """int_0^eps f(kappa)(1 + |log kappa|) e^{-c kappa} d kappa > 0."""
    from scipy.integrate import quad

    val, _ = quad(lambda t: float(rz.witness_f(t)) * (1 + abs(math.log(t)))
                  * math.exp(-c_rate * t), 0.0, eps, limit=200)
    return val


def truncated_bnorm_exponent(p: float, r_maxes, R: float = 2.0,
                             c_minus: float = 1.0) -> dict:
    """Fitted growth exponent of || ilg(1/r)/r ||_{L^{p'}(r dr), r <= Rmax},
    with the 1/log R factor removed: expected (2 - p')/p'."""
    from scipy.integrate import quad

    pp = p / (p - 1.0)
    norms = []
    for rmax in r_maxes:
        val, _ = quad(lambda r: (1.0 / (math.log(r) * r)) ** pp * c_minus * r,
                      R, rmax, limit=400)
        norms.append(val ** (1.0 / pp))
    corrected = np.array(norms) * np.log(np.array(r_maxes))
    slope = loglog_slope(np.array(r_maxes, dtype=float), corrected)
    return {"norms": norms, "fitted_exponent": slope,
            "expected": (2.0 - pp) / pp}


@pytest.fixture(scope="module")
def model():
    # moderate domain: enough octaves for trend checks, fast to sweep
    return md.build_model(md.GeometryConfig(S_minus=512.0, S_plus=512.0))


@pytest.fixture(scope="module")
def low_kernel(model):
    return rz.low_energy_kernel(model, k0=0.05, n_sigma=25)


def weighted_block(mat, sq, cut):
    """D mat[cut, cut] D^-1 with D = diag(sq[cut]), as a dense copy."""
    s = sq[cut]
    return s[:, None] * mat[cut, cut] / s[None, :]


class TestSplit:
    def test_partition_of_inverse(self):
        xi = np.geomspace(1e-4, 1e4, 200)
        for k0 in (0.05, 1.0):
            total = f_low(xi, k0) + f_high(xi, k0)
            assert np.max(xi * np.abs(total - 1.0 / xi)) < 1e-12

    def test_high_bounded_by_inverse(self):
        xi = np.geomspace(1e-3, 1e3, 50)
        vals = f_high(xi, 0.7) * xi
        assert np.all(vals <= 1.0 + 1e-14)
        assert np.max(vals) > 0.9


class TestLowEnergyKernel:
    def test_rank_one_model_integral(self):
        # closed form for int_0^{k0} r^{-1} e^{-ckr} e^{-ckr'} dk
        from scipy.integrate import quad
        c, k0 = 0.7, 0.3
        for r, rp in ((2.0, 5.0), (10.0, 3.0)):
            val = rank_one_k_integral(c, k0, r, rp)
            ref, _ = quad(lambda k: math.exp(-c * k * (r + rp)) / r, 0, k0)
            assert val == pytest.approx(ref, rel=1e-10)

    def test_quadrature_error_estimate(self, low_kernel):
        assert 0 < low_kernel.quad_error < low_kernel.quad_error_bound()
        assert low_kernel.quad_error_bound() == \
            1e-3 * np.max(np.abs(low_kernel.values))

    def test_coarse_rule_is_embedded(self):
        for m in range(5, 34):
            fine, _ = clenshaw_curtis(2 * m - 1)
            coarse, _ = clenshaw_curtis(m)
            assert np.array_equal(fine[::2], coarse)
            fine, _ = cc_segment(math.log(1 / 0.05), 40.0, 2 * m - 1)
            coarse, _ = cc_segment(math.log(1 / 0.05), 40.0, m)
            assert np.array_equal(fine[::2], coarse)

    def test_one_green_build_per_node(self, model, monkeypatch):
        calls = []
        init = bvp.GluedSystem.__init__

        def counting(self, model, k):
            calls.append(k)
            init(self, model, k)

        monkeypatch.setattr(bvp.GluedSystem, "__init__", counting)
        rz.low_energy_kernel(model, k0=0.05, n_sigma=25)
        assert len(calls) == 25

    def test_matches_two_pass_reference(self, model, low_kernel):
        # independent reference: one dense kernel_dleft sum per rule; the
        # generator form sums in another order, so agreement is to
        # rounding, not bitwise
        def assemble(n_nodes):
            sig, w = cc_segment(math.log(1.0 / 0.05), 40.0, n_nodes)
            out = np.zeros((model.n, model.n))
            jump = np.zeros(model.n)
            for s_i, w_i in zip(sig, w):
                k = math.exp(-s_i)
                out += (2.0 / math.pi) * w_i * k * \
                    bvp.GluedSystem(model, k).kernel_dleft()
                jump += (2.0 / math.pi) * w_i * k * (1.0 / model.v)
            return out, jump

        vals, jump = assemble(25)
        coarse, _ = assemble(13)
        scale = np.max(np.abs(vals))
        assert np.max(np.abs(low_kernel.values - vals)) <= 1e-14 * scale
        assert np.array_equal(low_kernel.jump_step, jump)
        assert low_kernel.quad_error == pytest.approx(
            float(np.max(np.abs(vals - coarse))), rel=1e-12, abs=0.0)

    def test_generator_sums_match_dense(self, model):
        # k S reaches 4096 at k = 8: every factor needs its block shift,
        # and no branch may be scaled before it is selected
        assert model.n % bvp.DLEFT_BLOCK != 0
        systems = [bvp.GluedSystem(model, float(k))
                   for k in np.geomspace(1e-3, 8.0, 9)]
        coefs = np.array([np.linspace(1.0, 2.0, 9), np.cos(np.arange(9))])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sums = bvp.kernel_dleft_sums(systems, coefs)
        assert len(sums) == 2
        for c, got in zip(coefs, sums):
            ref = sum(c_k * g.kernel_dleft() for c_k, g in zip(c, systems))
            assert np.all(np.isfinite(got))
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n_sigma", [24, 2, 1])
    def test_even_or_tiny_n_sigma_rejected(self, model, n_sigma):
        with pytest.raises(DomainError, match="odd"):
            rz.low_energy_kernel(model, k0=0.05, n_sigma=n_sigma)

    def test_provider_agreement_at_deep_k(self, model):
        # the parametrix route and the direct Green route agree where the
        # stage cascade has converged
        sys0 = bvp.GluedSystem(model, 0.0)
        par = px.Parametrix(model, q=2, kbar=1.0, system=sys0)
        for k in (math.exp(-10.0), math.exp(-16.0)):
            dR = par.resolvent_dleft(k)
            dG = bvp.GluedSystem(model, k).kernel_dleft()
            rel = np.max(np.abs(dR - dG)) / np.max(np.abs(dG))
            assert rel < 1e-3

    def test_scalar_kernel_symmetry(self, model):
        # the non-gradient analogue (the k-integrated resolvent itself)
        # is symmetric
        sig, w = cc_segment(math.log(1 / 0.05), 30.0, 15)
        out = np.zeros((model.n, model.n))
        for s_i, w_i in zip(sig, w):
            k = math.exp(-s_i)
            out += w_i * k * bvp.GluedSystem(model, k).kernel_matrix()
        asym = np.max(np.abs(out - out.T)) / np.max(np.abs(out))
        assert asym < 1e-10

    def test_plus_end_column_decay(self, model, low_kernel):
        # entries decay along the plus-end right variable like r'^{1-n}
        i = np.searchsorted(model.s, 0.5)
        cols = np.where(model.mask_plus & (model.r > 30) & (model.r < 500))[0]
        vals = np.abs(low_kernel.values[i, cols])
        slope = loglog_slope(model.r[cols], np.maximum(vals, 1e-300))
        assert slope == pytest.approx(1.0 - model.plus.euclidean_dim, abs=0.4)


class TestHighEnergy:
    def test_uniform_l2_bound(self, model):
        chans = [md.ModeChannel("minus", 0, 0), md.ModeChannel("minus", 1, 0),
                 md.ModeChannel("minus", 0, 1), md.ModeChannel("plus", 0, 0),
                 md.ModeChannel("plus", 2, 0)]
        out = high_energy_multiplier(model, chans, k0=1.0)
        assert out["uniform_bound"] <= 1.0 + 1e-6
        assert out["uniform_bound"] > 0.3

    def test_cross_potential_shifts_spectrum(self, model):
        # the constant cross-section potential mu_l^2 adds mu_l^2 to every
        # eigenvalue of the channel operator
        base = _symmetric_channel_operator(model, "minus", 1, 0, 32.0, 80)
        shifted = _symmetric_channel_operator(model, "minus", 1, 2,
                                                 32.0, 80)
        mu2 = model.minus.cross_section.eigenvalues[2]
        np.testing.assert_allclose(shifted[0], base[0] + mu2, rtol=1e-10)

    def test_split_consistency_euclidean(self):
        out = split_consistency_euclidean()
        assert out["rel_error"] < 1e-3


class TestBoundednessReport:
    def test_bounded_trend_small_p(self, model, low_kernel):
        r_maxes = tuple(2.0 ** j for j in range(3, 10))
        report = rz.lp_boundedness_report(low_kernel, (1.5, 2.0), r_maxes)
        # rows run over R_max within each p, as riesz_boundedness.csv does
        assert [(r.p, r.r_max) for r in report["rows"]] == \
            [(p, rm) for p in (1.5, 2.0) for rm in r_maxes]
        for p in (1.5, 2.0):
            series = [r.lower for r in report["rows"] if r.p == p]
            # increments rise while the collar resolves, then decelerate
            # toward saturation (full stabilization needs a wider sweep,
            # exercised in the acceptance suite)
            inc = np.diff(series)
            assert np.all(inc > -1e-6)
            assert inc[-1] < inc[-2] < inc[-3]
            assert inc[-1] < 0.75 * np.max(inc)

    def test_spectral_norm_matches_svd(self, model, low_kernel):
        q = model.weights
        sq = np.sqrt(q)
        for rmax in (64.0, 512.0):
            mask = model.r <= rmax
            sub = low_kernel.matrix()[np.ix_(mask, mask)]
            a = sq[mask][:, None] * sub / sq[mask][None, :]
            lanczos = px.spectral_norm(a)
            assert lanczos == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)
            assert px.spectral_norm(a) == lanczos

    def test_spectral_norms_match_dense(self, model, low_kernel):
        mat = low_kernel.matrix()
        sq = np.sqrt(model.weights)
        cuts = [rz._truncation(model, rmax) for rmax in (16.0, 64.0, 512.0)]
        got = rz.spectral_norms(mat, sq, cuts)
        for cut, norm in zip(cuts, got):
            dense = np.linalg.norm(weighted_block(mat, sq, cut), 2)
            assert norm == pytest.approx(dense, rel=1e-12)

    def test_spectral_norms_rerun_bitwise(self, model, low_kernel):
        mat = low_kernel.matrix()
        sq = np.sqrt(model.weights)
        cuts = [rz._truncation(model, rmax) for rmax in (32.0, 128.0, 512.0)]
        first = rz.spectral_norms(mat, sq, cuts)
        assert rz.spectral_norms(mat, sq, cuts).tolist() == first.tolist()

    def test_spectral_norms_block_equals_alone(self, model, low_kernel):
        # a truncation's row of the block is its own bidiagonalization
        mat = low_kernel.matrix()
        sq = np.sqrt(model.weights)
        cuts = [rz._truncation(model, rmax) for rmax in (8.0, 64.0, 512.0)]
        block = rz.spectral_norms(mat, sq, cuts)
        for cut, norm in zip(cuts, block):
            alone = rz.spectral_norms(mat, sq, [cut])
            assert alone.shape == (1,)
            assert abs(norm - alone[0]) <= 1e-14 * alone[0]

    def test_spectral_norms_small_and_zero_blocks(self):
        # a Krylov space that exhausts its truncation, and a zero block
        rng = np.random.default_rng(5)
        mat = rng.standard_normal((9, 9))
        mat[6:, 6:] = 0.0
        sq = rng.uniform(0.5, 2.0, 9)
        cuts = [slice(0, 2), slice(0, 9), slice(6, 9)]
        got = rz.spectral_norms(mat, sq, cuts)
        for cut, norm in zip(cuts, got):
            dense = np.linalg.norm(weighted_block(mat, sq, cut), 2)
            assert norm == pytest.approx(dense, rel=1e-12, abs=1e-15)

    def test_spectral_norms_step_cap(self, model, low_kernel, monkeypatch):
        monkeypatch.setattr(rz, "GKL_MAX_STEPS", 3)
        cuts = [rz._truncation(model, 512.0)]
        with pytest.raises(NonConvergenceError, match="after 3 "):
            rz.spectral_norms(low_kernel.matrix(), np.sqrt(model.weights),
                              cuts)

    def test_p2_rows_match_spectral_norm(self, model, low_kernel):
        r_maxes = (16.0, 64.0, 256.0, 512.0)
        report = rz.lp_boundedness_report(low_kernel, (2.0,), r_maxes)
        mat = low_kernel.matrix()
        sq = np.sqrt(model.weights)
        for row in report["rows"]:
            cut = rz._truncation(model, row.r_max)
            want = px.spectral_norm(weighted_block(mat, sq, cut))
            assert row.lower == row.upper
            assert row.upper == pytest.approx(want, rel=1e-12)

    def test_p2_estimate_near_multiplier_bound(self, model, low_kernel):
        # three R_max: classify_trend reads no verdict from fewer
        report = rz.lp_boundedness_report(low_kernel, (2.0,),
                                          (128.0, 256.0, 512.0))
        last = [r for r in report["rows"] if r.p == 2.0][-1]
        assert 0.7 < last.lower <= 1.05

    def test_lockstep_boyd_matches_per_cell(self, model, low_kernel):
        # every column of the lockstep iteration is the scalar iteration
        # on its own truncated copy of the kernel, up to rounding
        mat = low_kernel.matrix()
        q = model.weights
        cells = [(p, rmax) for rmax in (16.0, 64.0, 512.0)
                 for p in (1.25, 1.5, 1.8, 3.0)]
        support = np.column_stack([model.r <= rmax for _, rmax in cells])
        block = rz.boyd_lower_bound(mat, q, q, [p for p, _ in cells], 50,
                                    support)
        assert block.shape == (len(cells),)
        for (p, rmax), got in zip(cells, block):
            mask = model.r <= rmax
            sub = mat[np.ix_(mask, mask)]
            one = rz.boyd_lower_bound(sub, q[mask], q[mask], p, 50)
            assert isinstance(one, float)
            assert got == pytest.approx(one, rel=1e-12), (p, rmax)

    def test_schur_vector_p_is_scalar_bitwise(self, model, low_kernel):
        mask = model.r <= 64.0
        sub = low_kernel.matrix()[np.ix_(mask, mask)]
        ps = (1.1, 1.25, 1.5, 1.75)
        got = rz.schur_upper_bound(sub, model.weights[mask], ps)
        want = [rz.schur_upper_bound(sub, model.weights[mask], p)
                for p in ps]
        assert isinstance(want[0], float)
        assert got.tolist() == want

    def test_one_boyd_call_per_report(self, low_kernel, monkeypatch):
        calls = []
        boyd = rz.boyd_lower_bound

        def counted(*args, **kwargs):
            calls.append(args[3])
            return boyd(*args, **kwargs)

        monkeypatch.setattr(rz, "boyd_lower_bound", counted)
        r_maxes = (64.0, 256.0, 512.0)
        report = rz.lp_boundedness_report(low_kernel, (1.25, 1.5, 2.0),
                                          r_maxes)
        assert len(calls) == 1
        # one column per (R_max, p != 2) cell; p = 2 is spectral_norms
        assert len(calls[0]) == 2 * len(r_maxes)
        assert len(report["rows"]) == 3 * len(r_maxes)

    def test_truncations_are_index_ranges(self, model):
        for rmax in (8.0, 64.0, 512.0):
            cut = rz._truncation(model, rmax)
            np.testing.assert_array_equal(np.arange(model.n)[cut],
                                          np.flatnonzero(model.r <= rmax))
        with pytest.raises(DomainError):
            rz._truncation(model, 0.5)


class TestWitness:
    @pytest.fixture(scope="class")
    def wide(self):
        cfg = md.GeometryConfig(S_minus=2.0 ** 24, S_plus=64.0)
        model = md.build_model(cfg)
        sys0 = bvp.GluedSystem(model, 0.0)
        ka = kl.build_key_approximation(model, minus_cutoff_source(model),
                                        q=3, system=sys0)
        return model, ka

    def test_chain_inequality(self):
        out = rz.ilg_chain_inequality()
        assert out["violations"] == 0

    def test_kappa_integral_positive(self):
        assert kappa_integral() > 0

    def test_witness(self, wide):
        model, ka = wide
        wit = rz.unboundedness_witness(model, ka, k0=math.exp(-9.5))
        assert wit.beta > 0
        assert wit.entrywise_nonneg
        assert wit.lower_constant > 0
        # basepoint-freezing error: O(r'^{-2}) bound with room
        assert wit.diff_exponent < -2.0 + 0.3
        for p, g in wit.growth.items():
            assert g["fitted_exponent"] == pytest.approx(g["expected"], abs=0.1)

    def test_beta_zero_source_rejected(self, model):
        sys0 = bvp.GluedSystem(model, 0.0)
        bump = np.exp(-2.0 * model.s ** 2)
        lap = md.apply_operator(model, bump)
        ka0 = kl.build_key_approximation(model, lap, q=2, system=sys0)
        with pytest.raises(DomainError):
            rz.unboundedness_witness(model, ka0)

    def test_bnorm_exponents(self):
        for p in (3.0, 4.0):
            out = truncated_bnorm_exponent(
                p, tuple(2.0 ** j for j in (10, 12, 14, 16, 18)))
            assert out["fitted_exponent"] == pytest.approx(out["expected"],
                                                           abs=0.05)


def test_schur_exponent(model):
    out = schur_exponent_check(model, 4.0)
    assert out["fitted"] == pytest.approx(out["expected"], abs=0.1)
    out2 = schur_exponent_check(model, 2.0)
    assert out2["fitted"] == pytest.approx(-1.0, abs=0.1)
