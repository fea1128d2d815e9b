import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

import ndscope.ratmat as rm
import ndscope.sim
from helpers import loop_simulate, rand_mat, realization, xorshift_prbs
from ndscope.fixtures import PHI0, PHI_DIFF, PHI_EQUIV, SWEEP_DIRECTIONS, demo_nds
from ndscope.model import (
    NdsDefinition, NotRegular, SCMatrix, SubsystemRealization,
)
from ndscope.polymat import Poly, RatFun, RatFunMat, ShapeError
from ndscope.sim import (
    MAX_SAMPLES, SimConfig, SingularE, TooManySamples, Trajectory, Unstable,
    ZeroSpectrum, choose_sampling, distance_freq, distance_scm,
    distance_time, eig, exact_tfm, expm, freq_response, hinf_norm, prbs,
    relative_error, screen, sigma_max, simulate, stability_margins, stm, svd,
    tau_sweep,
)
from ndscope.identifiability import (
    UndiffRegion, check_identifiable_at, undiff_region,
)
from ndscope.reconstruction import lump


class TestKernels:
    def test_eig_diagonal(self):
        vals = sorted(eig([[-1.0, 0.0], [0.0, -2.0]]).real)
        assert np.allclose(vals, [-2.0, -1.0])

    def test_eig_rotation(self):
        vals = eig([[0.0, -1.0], [1.0, 0.0]])
        assert np.allclose(sorted(vals.imag), [-1.0, 1.0])

    def test_eig_trace_identity(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 5))
        vals = eig(a)
        assert abs(vals.sum().real - np.trace(a)) < 1e-8
        assert abs(vals.sum().imag) < 1e-8

    def test_svd_diagonal(self):
        _, s, _ = svd([[3.0, 0.0], [0.0, 2.0]])
        assert np.allclose(s, [3.0, 2.0])

    def test_svd_fixture_k_rank(self):
        k = rm.to_float(rm.vstack(demo_nds().block("B_xv"),
                                  demo_nds().block("D_yv")))
        _, s, _ = svd(np.array(k)[:, :2])
        assert s[1] > 1e-10

    def test_svd_induced_norm(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 4))
        _, s, _ = svd(a)
        xs = rng.standard_normal((4, 1000))
        xs /= np.linalg.norm(xs, axis=0)
        sampled = np.linalg.norm(a @ xs, axis=0).max()
        assert sampled <= s[0] * (1 + 1e-12)
        assert s[0] - sampled <= 1e-2 * s[0]

    def test_expm_zero_and_diagonal(self):
        assert np.allclose(expm(np.zeros((2, 2))), np.eye(2))
        got = expm(np.diag([1.0, -2.0]))
        assert np.allclose(np.diag(got), [math.e, math.exp(-2.0)],
                           rtol=1e-12)

    def test_expm_nilpotent(self):
        got = expm([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(got, [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)


class TestStm:
    def test_fixture_stable(self):
        a = stm(demo_nds(), PHI0)
        assert np.all(eig(a).real < 0)

    def test_zero_scm_block_diag(self):
        a = stm(demo_nds(), SCMatrix.zero(4, 2))
        want = np.array(rm.to_float(demo_nds().block("A_xx")))
        assert np.allclose(a, want)

    def test_singular_e_rejected(self):
        from ndscope.model import NdsDefinition, SubsystemRealization
        sub = SubsystemRealization(
            E=((F(0),),), A_xx=((F(1),),),
            B_xv=((F(1),),), B_xu=((F(1),),),
            C_zx=((F(1),),), C_yx=((F(1),),),
            D_zv=((F(0),),), D_zu=((F(0),),),
            D_yv=((F(0),),), D_yu=((F(0),),))
        nds = NdsDefinition(subsystems=(sub,))
        with pytest.raises(SingularE):
            stm(nds, SCMatrix.zero(1, 1))
        # E does not depend on Phi, so a sweep refuses its reference
        # before any row could be skipped as singular_e
        got = screen(nds, SCMatrix.zero(1, 1))
        assert (got.reason, got.realization, got.margins, got.tfm) == \
            ("singular_e", None, None, None)
        with pytest.raises(SingularE):
            tau_sweep(nds, SCMatrix.zero(1, 1), SCMatrix.zero(1, 1), [F(0)],
                      region=UndiffRegion(phi0=SCMatrix.zero(1, 1),
                                          basis=[[]]))


class TestMargins:
    def test_real_only(self):
        m = stability_margins(np.diag([-1.0, -2.0]))
        assert m.s_mr == pytest.approx(1.0)
        assert m.s_md is None
        assert m.stable

    def test_complex_pair_damping(self):
        a = np.array([[-1.0, 2.0], [-2.0, -1.0]])   # eigs -1 +- 2i
        m = stability_margins(a)
        assert m.s_mr is None
        assert abs(m.s_md - 1.0 / math.sqrt(5.0)) < 1e-10

    def test_unstable_flag(self):
        m = stability_margins(np.diag([1.0, -2.0]))
        assert not m.stable

    def test_rho_extrema(self):
        m = stability_margins(np.diag([-1.0, -2.0, -5.0]))
        assert m.rho_max == pytest.approx(5.0)
        assert m.rho_min == pytest.approx(1.0)

    def test_discrete_domain(self):
        m = stability_margins(np.diag([0.5, -0.25]), domain="discrete")
        assert m.stable
        assert m.s_mr == pytest.approx(0.5)


def sampling(a1, a2):
    """``choose_sampling`` on the margins of two state transition matrices."""
    return choose_sampling(stability_margins(a1), stability_margins(a2))


class TestSampling:
    def test_equal_spectra(self):
        a = np.diag([-10.0, -10.0])
        t, m = sampling(a, a)
        assert t == pytest.approx(0.01)
        assert m == 10_000

    def test_ratio_dominates(self):
        a1 = np.diag([-100.0, -0.5])
        t, m = sampling(a1, a1)
        assert t == pytest.approx(0.001)
        assert m == 20_000

    def test_zero_spectrum(self):
        with pytest.raises(ZeroSpectrum):
            sampling(np.zeros((2, 2)), np.diag([-1.0]))

    def test_fixture_pair(self):
        t, m = sampling(stm(demo_nds(), PHI0), stm(demo_nds(), PHI_DIFF))
        assert 0 < t < 1 and m >= 10_000

    def test_too_many_samples(self):
        # the rule would ask for 1e11 samples; nothing is allocated
        with pytest.raises(TooManySamples):
            sampling(np.diag([-1.0]), np.diag([-1e-9]))

    def test_near_limit_allowed(self):
        # M = 1e6, the size of the paper's near-graze point tau = 1.09
        _, m = sampling(np.diag([-1.0]), np.diag([-1e-4]))
        assert m == 1_000_000 < MAX_SAMPLES

    def test_reads_margins_without_eig(self, monkeypatch):
        margins = stability_margins(np.diag([-100.0, -0.5]))

        def no_eig(a):
            raise AssertionError("choose_sampling computed a spectrum")
        monkeypatch.setattr(ndscope.sim, "eig", no_eig)
        assert choose_sampling(margins, margins) == \
            (pytest.approx(0.001), 20_000)


class TestPrbs:
    def test_levels(self):
        u = prbs(3, 500, 2, amplitude=10.0)
        assert set(np.unique(u)) == {-10.0, 10.0}

    def test_reproducible(self):
        assert np.array_equal(prbs(7, 100, 3), prbs(7, 100, 3))
        assert not np.array_equal(prbs(7, 100, 1), prbs(8, 100, 1))

    def test_channels_differ(self):
        u = prbs(1, 200, 2)
        assert not np.array_equal(u[:, 0], u[:, 1])

    def test_mean_concentration(self):
        m = 10_000
        u = prbs(0, m, 2, amplitude=10.0)
        bound = 4 * 10.0 / math.sqrt(m)
        assert np.all(np.abs(u.mean(axis=0)) <= bound)

    @pytest.mark.parametrize("seed", [0, 5, -2, 2 ** 70])
    @pytest.mark.parametrize("m", [1, 2, 99, 100, 101, 1_000, 10_007])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_matches_stepped_streams(self, seed, m, channels):
        want = xorshift_prbs(seed, m, channels, amplitude=2.5)
        assert np.array_equal(prbs(seed, m, channels, amplitude=2.5), want)

    def test_prefix_property(self):
        long = prbs(11, 23_826, 3)
        for m in (1, 37, 10_000, 23_825):
            assert np.array_equal(prbs(11, m, 3), long[:m])


class TestSimulate:
    def test_zero_input_zero_state(self):
        nds = demo_nds()
        cfg = SimConfig(T=0.01, M=50)
        tr = simulate(realization(nds, PHI0), np.zeros((50, 2)), cfg)
        assert np.allclose(tr.y, 0.0)

    def test_superposition(self):
        nds = demo_nds()
        cfg = SimConfig(T=0.02, M=200)
        u1 = prbs(1, 200, 2)
        u2 = prbs(2, 200, 2)
        real = realization(nds, PHI0)
        y1 = simulate(real, u1, cfg).y
        y2 = simulate(real, u2, cfg).y
        y12 = simulate(real, u1 + u2, cfg).y
        scale = np.abs(y12).max() or 1.0
        assert np.max(np.abs(y12 - (y1 + y2))) <= 1e-9 * scale

    def test_matches_rk4_oracle(self):
        # ZOH recursion equals a fine Runge-Kutta integration of the
        # continuous dynamics under the same piecewise constant input
        nds = demo_nds()
        m = 60
        t_s = 0.05
        cfg = SimConfig(T=t_s, M=m)
        u = prbs(5, m, 2)
        tr = simulate(realization(nds, PHI0), u, cfg)

        model = lump(nds, PHI0)
        a = np.array(rm.to_float(rm.thaw(model.A_hat)))
        b = np.array(rm.to_float(rm.thaw(model.B_hat)))
        c = np.array(rm.to_float(rm.thaw(model.C_hat)))
        d = np.array(rm.to_float(rm.thaw(model.D_hat)))
        x = np.zeros(4)
        ys = []
        sub = 80
        h = t_s / sub
        for k in range(m):
            ys.append(c @ x + d @ u[k])
            for _ in range(sub):
                def f(xv):
                    return a @ xv + b @ u[k]
                k1 = f(x)
                k2 = f(x + 0.5 * h * k1)
                k3 = f(x + 0.5 * h * k2)
                k4 = f(x + h * k3)
                x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        ys = np.array(ys)
        scale = np.abs(ys).max()
        assert np.max(np.abs(ys - tr.y)) <= 1e-6 * scale

    def test_discrete_domain_iterates_directly(self):
        from ndscope.model import NdsDefinition
        base = demo_nds()
        nds = NdsDefinition(subsystems=base.subsystems,
                            time_domain="discrete")
        cfg = SimConfig(T=1.0, M=10)
        u = np.ones((10, 2))
        tr = simulate(realization(nds, SCMatrix.zero(4, 2)), u, cfg)
        model = lump(nds, SCMatrix.zero(4, 2))
        a = np.array(rm.to_float(rm.thaw(model.A_hat)))
        b = np.array(rm.to_float(rm.thaw(model.B_hat)))
        x = np.zeros(4)
        for k in range(3):
            x = a @ x + b @ u[k]
        assert np.allclose(tr.x[3], x)

    def test_shape_error(self):
        cfg = SimConfig(T=0.01, M=10)
        with pytest.raises(ShapeError):
            simulate(realization(demo_nds(), PHI0), np.zeros((5, 2)), cfg)

    def test_initial_state(self):
        nds = demo_nds()
        x0 = np.array([1.0, -0.5, 0.25, 2.0])
        cfg = SimConfig(T=0.01, M=5, x0=x0)
        tr = simulate(realization(nds, PHI0), np.zeros((5, 2)), cfg)
        from ndscope.reconstruction import lump
        c = np.array(rm.to_float(rm.thaw(lump(nds, PHI0).C_hat)))
        assert np.allclose(tr.y[0], c @ x0)
        assert not np.allclose(tr.y[1], 0.0)


BLOCK = ndscope.sim._BLOCK


def _small(rng, rows, cols):
    # entries in [-1/4, 1/4]
    return tuple(tuple(F(rng.randint(-2, 2), 8) for _ in range(cols))
                 for _ in range(rows))


def _kernel_nds(n_u, domain):
    """One 3-state subsystem whose lumped A is stable in its domain.

    Entries of A_xx, B_xv, C_zx, D_zv and Phi are at most 1/4, so every
    row of the lumped A (discrete case) sums to less than 0.8 in absolute
    value; the continuous case shifts A_xx by -I.
    """
    rng = random.Random(40 + n_u)
    shift = -1 if domain == "continuous" else 0
    a = tuple(tuple(x + (shift if i == j else 0) for j, x in enumerate(row))
              for i, row in enumerate(_small(rng, 3, 3)))
    eye = tuple(tuple(F(int(i == j)) for j in range(3)) for i in range(3))
    sub = SubsystemRealization(
        E=eye, A_xx=a, B_xv=_small(rng, 3, 1), B_xu=rand_mat(rng, 3, n_u),
        C_zx=_small(rng, 1, 3), C_yx=rand_mat(rng, 2, 3),
        D_zv=_small(rng, 1, 1), D_zu=rand_mat(rng, 1, n_u),
        D_yv=rand_mat(rng, 2, 1), D_yu=rand_mat(rng, 2, n_u))
    return NdsDefinition(subsystems=(sub,), time_domain=domain), \
        SCMatrix(((F(1, 4),),))


class TestBlockKernel:
    """simulate against the sample-by-sample recursion of the oracle."""

    @pytest.mark.parametrize("domain", ["continuous", "discrete"])
    @pytest.mark.parametrize("m", [1, BLOCK - 1, BLOCK, BLOCK + 1, 10_007])
    @pytest.mark.parametrize("n_u", [1, 3])
    def test_matches_loop(self, domain, m, n_u):
        nds, phi = _kernel_nds(n_u, domain)
        assert stability_margins(stm(nds, phi), domain).stable
        cfg = SimConfig(T=0.05, M=m, x0=np.array([1.0, -2.0, 0.5]))
        u = prbs(m + n_u, m, n_u)
        real = realization(nds, phi)
        tr = simulate(real, u, cfg)
        x, y = loop_simulate(real, u, cfg)
        assert tr.x.shape == x.shape and tr.y.shape == y.shape
        for got, want in ((tr.x, x), (tr.y, y)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_demo_pair_matches_loop(self):
        nds = demo_nds()
        t, m = sampling(stm(nds, PHI0), stm(nds, PHI_DIFF))
        cfg = SimConfig(T=t, M=m)
        u = prbs(0, m, nds.m_u)
        real = realization(nds, PHI_DIFF)
        tr = simulate(real, u, cfg)
        _, y = loop_simulate(real, u, cfg)
        assert np.max(np.abs(tr.y - y)) <= 1e-12 * np.max(np.abs(y))


class TestRelativeError:
    def _traj(self, y):
        y = np.asarray(y, dtype=float)
        m = y.shape[0]
        return Trajectory(times=np.arange(m) * 1.0,
                          u=np.zeros((m, 1)), y=y, x=np.zeros((m, 1)))

    def test_identical(self):
        t = self._traj([[1.0], [2.0]])
        assert np.all(relative_error(t, t) == 0.0)

    def test_doubling(self):
        t1 = self._traj([[1.0], [2.0]])
        t2 = self._traj([[2.0], [4.0]])
        assert np.all(relative_error(t1, t2) == 1.0)

    def test_absent_below_floor(self):
        t1 = self._traj([[1e-13], [1.0]])
        t2 = self._traj([[1.0], [1.0]])
        err = relative_error(t1, t2)
        assert np.isnan(err[0, 0]) and err[1, 0] == 0.0


class TestDistances:
    def test_time_identical_and_constant(self):
        t1 = TestRelativeError()._traj([[0.0, 0.0], [0.0, 0.0]])
        t2 = TestRelativeError()._traj([[3.0, 4.0], [3.0, 4.0]])
        assert distance_time(t1, t1) == 0.0
        assert distance_time(t1, t2) == pytest.approx(5.0)

    def test_time_homogeneity_and_symmetry(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal((50, 2))
        e = rng.standard_normal((50, 2))
        base = TestRelativeError()._traj(y)
        one = TestRelativeError()._traj(y + e)
        two = TestRelativeError()._traj(y + 2 * e)
        assert distance_time(base, two) == pytest.approx(
            2 * distance_time(base, one))
        assert distance_time(base, one) == distance_time(one, base)

    def test_hinf_first_order(self):
        diff = RatFunMat(1, 1, [[RatFun(Poly((1,)), Poly((1, 1)))]])
        assert hinf_norm(diff) == pytest.approx(1.0, rel=1e-6)

    def test_hinf_resonance_refinement(self):
        # peak away from the grid: 1/(s^2 + 0.01 s + 1), max near w = 1
        diff = RatFunMat(1, 1, [[RatFun(Poly((1,)),
                                        Poly((1, F(1, 100), 1)))]])
        got = hinf_norm(diff)
        # exact peak value of this resonance
        want = max(abs(1.0 / (-w * w + 0.01j * w + 1.0))
                   for w in np.linspace(0.99, 1.01, 200001))
        assert got >= want * (1 - 1e-6)

    def test_distance_freq_fixture(self):
        nds = demo_nds()
        assert distance_freq(nds, PHI0, PHI_EQUIV) == 0.0
        assert distance_freq(nds, PHI0, PHI_DIFF) > 0.0

    def test_distance_freq_symmetric(self):
        nds = demo_nds()
        a = distance_freq(nds, PHI0, PHI_DIFF)
        b = distance_freq(nds, PHI_DIFF, PHI0)
        assert a == pytest.approx(b, rel=1e-9)

    def test_unstable_rejected(self):
        nds = demo_nds()
        delta = rm.sub(SWEEP_DIRECTIONS[0].as_lists(), PHI0.as_lists())
        phi = SCMatrix(rm.freeze(rm.add(PHI0.as_lists(),
                                        rm.scale(delta, F(11, 10)))))
        with pytest.raises(Unstable):
            distance_freq(nds, phi, PHI0)

    def test_frequency_response_matches_state_space(self):
        nds = demo_nds()
        h = exact_tfm(nds, PHI_DIFF)
        model = lump(nds, PHI_DIFF)
        a = np.array(rm.to_float(rm.thaw(model.A_hat)))
        b = np.array(rm.to_float(rm.thaw(model.B_hat)))
        c = np.array(rm.to_float(rm.thaw(model.C_hat)))
        d = np.array(rm.to_float(rm.thaw(model.D_hat)))
        for w in (0.0, 0.1, 1.0, 10.0, 100.0):
            exact = np.array(h.eval(1j * w))
            ss = c @ np.linalg.solve(1j * w * np.eye(4) - a, b) + d
            assert np.max(np.abs(exact - ss)) <= 1e-8 * (1 + np.abs(ss).max())

    def test_freq_response_matches_state_space(self):
        nds = demo_nds()
        model = lump(nds, PHI_DIFF)
        a, b, c, d = (np.array(rm.to_float(rm.thaw(getattr(model, k))))
                      for k in ("A_hat", "B_hat", "C_hat", "D_hat"))
        ws = np.array([0.0, 0.1, 1.0, 10.0, 100.0])
        resp = freq_response(exact_tfm(nds, PHI_DIFF), 1j * ws)
        assert resp.shape == (len(ws), nds.m_y, nds.m_u)
        for w, got in zip(ws, resp):
            ss = c @ np.linalg.solve(1j * w * np.eye(4) - a, b) + d
            assert np.max(np.abs(got - ss)) <= 1e-8 * (1 + np.abs(ss).max())



def _rf(num, den=(1,)):
    """RatFun from coefficient tuples, lowest power first."""
    return RatFun(Poly(num), Poly(den))


def _rand_ratfunmat(rng, rows, cols):
    """Entries of numerator degree 0..2 and denominator degree 1..3."""
    def coeffs(deg):
        cs = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(deg)]
        return tuple(cs) + (F(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3)),)
    return RatFunMat(rows, cols, [
        [_rf(coeffs(rng.randint(0, 2)), coeffs(rng.randint(1, 3)))
         for _ in range(cols)] for _ in range(rows)])


def _lapack_sigma(resp):
    return np.linalg.svd(resp, compute_uv=False)[:, 0]


SHAPES = [(1, 1), (1, 3), (3, 1), (2, 2), (2, 5), (5, 2), (3, 3)]


class TestFrequencyKernels:
    """The closed-form sigma_max against LAPACK, the stacked Horner pass
    against np.polyval, and hinf_norm on hand-computed norms."""

    @pytest.mark.parametrize("shape", SHAPES)
    def test_sigma_max_helper_matches_svd(self, shape):
        rng = np.random.default_rng(100 + 10 * shape[0] + shape[1])
        resp = (rng.standard_normal((300,) + shape)
                + 1j * rng.standard_normal((300,) + shape))
        np.testing.assert_allclose(ndscope.sim._sigma_max(resp),
                                   _lapack_sigma(resp), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_sigma_max_matches_svd(self, shape):
        diff = _rand_ratfunmat(random.Random(200 + 10 * shape[0] + shape[1]),
                               *shape)
        points = 1j * np.logspace(-2.0, 2.0, 101)
        np.testing.assert_allclose(
            sigma_max(diff, points),
            _lapack_sigma(freq_response(diff, points)), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_sigma_max_rank_one_and_zero(self, shape):
        rng = np.random.default_rng(300 + 10 * shape[0] + shape[1])
        u = rng.standard_normal((50, shape[0], 1)) \
            + 1j * rng.standard_normal((50, shape[0], 1))
        v = rng.standard_normal((50, 1, shape[1])) \
            + 1j * rng.standard_normal((50, 1, shape[1]))
        rank_one = u @ v
        np.testing.assert_allclose(ndscope.sim._sigma_max(rank_one),
                                   _lapack_sigma(rank_one), rtol=1e-13, atol=0)
        zero = np.zeros((4,) + shape, dtype=complex)
        assert np.array_equal(ndscope.sim._sigma_max(zero), np.zeros(4))

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("power", [700, -700])
    def test_sigma_max_extreme_scale(self, shape, power):
        # squares of 2^700 overflow and squares of 2^-700 underflow
        rng = np.random.default_rng(400 + 10 * shape[0] + shape[1])
        resp = (rng.standard_normal((100,) + shape)
                + 1j * rng.standard_normal((100,) + shape))
        scaled = np.ldexp(resp.real, power) + 1j * np.ldexp(resp.imag, power)
        np.testing.assert_allclose(ndscope.sim._sigma_max(scaled),
                                   np.ldexp(_lapack_sigma(resp), power),
                                   rtol=1e-13, atol=0)

    def test_freq_response_is_polyval(self):
        # a zero numerator and entries of unequal degree share one table
        h = RatFunMat(2, 3, [
            [RatFun(Poly(())), _rf((1,), (1, 1)), _rf((F(7, 3),))],
            [_rf((3, 0, 1), (5, 2, 0, 1)), _rf((F(-1, 2), 4), (2, 1)),
             _rf((1, 1, 1, 1, F(1, 9)), (3, F(1, 7), 1))]])
        for points in (np.concatenate((
                1j * np.logspace(-3.0, 3.0, 50),
                np.exp(1j * np.linspace(0.0, math.pi, 50)))),
                np.arange(7)):
            want = np.empty((len(points), 2, 3), dtype=complex)
            for i, row in enumerate(h.entries):
                for j, e in enumerate(row):
                    num = [float(c) for c in reversed(e.num.coeffs)] or [0.0]
                    den = [float(c) for c in reversed(e.den.coeffs)]
                    want[:, i, j] = (np.polyval(num, points)
                                     / np.polyval(den, points))
            got = freq_response(h, points)
            assert got.dtype == complex
            assert np.array_equal(got, want)

    def test_hinf_zero_size(self):
        assert hinf_norm(RatFunMat(0, 2, [])) == 0.0
        assert hinf_norm(RatFunMat(2, 0, [[], []])) == 0.0
        assert np.array_equal(sigma_max(RatFunMat(0, 2, []), 1j * np.ones(3)),
                              np.zeros(3))

    def test_hinf_column_and_row(self):
        # [1/(s+1), 2/(s+1)]: sigma = sqrt(5)/|jw + 1|, peak at w = 0
        row = RatFunMat(1, 2, [[_rf((1,), (1, 1)), _rf((2,), (1, 1))]])
        assert hinf_norm(row) == pytest.approx(math.sqrt(5.0), rel=1e-12)
        # [1/(s+1); 1/(s+2)]: sigma^2 = 1/(1 + w^2) + 1/(4 + w^2)
        col = RatFunMat(2, 1, [[_rf((1,), (1, 1))], [_rf((1,), (2, 1))]])
        assert hinf_norm(col) == pytest.approx(math.sqrt(5.0) / 2, rel=1e-12)

    def test_hinf_discrete_first_order(self):
        # 1/(z - 1/2) peaks at z = 1 (w = 0, the grid's end point)
        diff = RatFunMat(1, 1, [[_rf((1,), (F(-1, 2), 1))]])
        assert hinf_norm(diff, "discrete") == pytest.approx(2.0, rel=1e-12)

    def test_hinf_discrete_resonance_refinement(self):
        # poles 0.99 exp(+-j theta), 2 * 0.99 cos(theta) = 1: the peak
        # near theta = 1.0413 lies between points of the w grid
        diff = RatFunMat(1, 1, [[_rf((1,), (F(9801, 10000), -1, 1))]])
        got = hinf_norm(diff, "discrete")
        z = np.exp(1j * np.linspace(1.0, 1.08, 400001))
        want = float(np.max(np.abs(1.0 / (z * z - z + 0.9801))))
        assert want * (1 - 1e-6) <= got <= want * (1 + 1e-8)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("den,domain", [
        ((0, 1), "continuous"),         # 1/s: a pole at w = 0
        ((-1, 1), "discrete"),          # 1/(z - 1): a pole at z = 1
    ])
    def test_hinf_pole_on_grid_point_is_inf(self, den, domain):
        diff = RatFunMat(1, 2, [[_rf((1,), den), _rf((1,), (2, 1))]])
        assert hinf_norm(diff, domain) == math.inf
        assert hinf_norm(RatFunMat(1, 1, [diff.entries[0][:1]]),
                         domain) == math.inf

    def test_hinf_counts_the_value_at_infinity(self):
        # s/(s + 1) and (2s + 1)/(s + 1) approach their norms 1 and 2 as
        # w -> inf, beyond the last grid point; s is unbounded there
        assert hinf_norm(RatFunMat(1, 1, [[_rf((0, 1), (1, 1))]])) == 1.0
        assert hinf_norm(RatFunMat(1, 1, [[_rf((1, 2), (1, 1))]])) == 2.0
        assert hinf_norm(RatFunMat(1, 1, [[_rf((0, 1))]])) == math.inf
        # [s/(s + 1), 1/(s + 2)]: sigma^2 = 1 - 1/(1 + w^2) + 1/(4 + w^2)
        # stays below 1 on the axis; the sup, 1, is H(inf) = [1, 0]
        mixed = RatFunMat(1, 2, [[_rf((0, 1), (1, 1)), _rf((1,), (2, 1))]])
        assert hinf_norm(mixed) == 1.0
        improper = RatFunMat(2, 1, [[_rf((1,), (1, 1))], [_rf((0, 0, 1),
                                                              (1, 1))]])
        assert hinf_norm(improper) == math.inf

    def test_hinf_discrete_ignores_the_continuous_limit(self):
        # in z the unit circle is bounded: |z| = 1, |z/(z - 1/2)| <= 2
        assert hinf_norm(RatFunMat(1, 1, [[_rf((0, 1))]]),
                         "discrete") == pytest.approx(1.0, rel=1e-12)
        diff = RatFunMat(1, 1, [[_rf((0, 1), (F(-1, 2), 1))]])
        assert hinf_norm(diff, "discrete") == pytest.approx(2.0, rel=1e-12)

    def test_hinf_pole_between_grid_points_is_finite(self):
        # 1/(s^2 + 4): the pole at w = 2 falls between grid points
        got = hinf_norm(RatFunMat(1, 1, [[_rf((1,), (4, 0, 1))]]))
        assert 1e9 < got < math.inf

    def test_no_lapack_below_three(self, monkeypatch):
        """k = min(m_y, m_u) <= 2 takes the closed form; k = 3 still
        reaches the batched SVD."""
        nds = demo_nds()
        demo = (screen(nds, PHI_DIFF).tfm - screen(nds, PHI0).tfm)
        col = RatFunMat(2, 1, [[_rf((1,), (1, 1))], [_rf((1,), (2, 1))]])
        cube = _rand_ratfunmat(random.Random(5), 3, 3)
        calls = []

        def patched(*args, **kwargs):
            calls.append(args)
            raise AssertionError("LAPACK SVD reached")
        monkeypatch.setattr(ndscope.sim.np.linalg, "svd", patched)
        assert hinf_norm(demo) > 0.0
        assert hinf_norm(col) > 0.0
        assert calls == []
        with pytest.raises(AssertionError, match="LAPACK SVD reached"):
            hinf_norm(cube)
        assert len(calls) == 1


class TestDistanceScm:
    def _region(self):
        rep = check_identifiable_at(demo_nds(), PHI0)
        return undiff_region(rep, PHI0)

    def test_zero_at_phi0_and_members(self):
        region = self._region()
        assert distance_scm(PHI0, region) == 0.0
        assert distance_scm(PHI_EQUIV, region) <= 1e-12
        rng = random.Random(6)
        for _ in range(5):
            gamma = [[F(rng.randint(-20, 20), 4) for _ in range(2)]]
            member = region.member(gamma)
            assert distance_scm(member, region) <= 1e-9 * (
                1.0 + max(abs(float(x)) for row in member.entries
                          for x in row))

    def test_nonmember_positive(self):
        region = self._region()
        assert distance_scm(PHI_DIFF, region) == pytest.approx(1.0)

    def test_linear_in_tau(self):
        region = self._region()
        delta = rm.sub(SWEEP_DIRECTIONS[2].as_lists(), PHI0.as_lists())
        base = distance_scm(SWEEP_DIRECTIONS[2], region)
        for k in (2, 5, 17):
            tau = F(k, 10)
            phi = SCMatrix(rm.freeze(rm.add(PHI0.as_lists(),
                                            rm.scale(delta, tau))))
            got = distance_scm(phi, region)
            assert got == pytest.approx(float(tau) * base, rel=1e-9)


def _one_state(c_zx):
    """x' = -x + v + u, z = c_zx x + v, y = x.  At Phi = 1, 1 - Phi G_zv(s)
    is identically zero when c_zx = 0 (irregular); when c_zx = 1 it is
    -1/(s + 1), but 1 - Phi D_zv = 0 (regular, not well-posed)."""
    one, zero = ((F(1),),), ((F(0),),)
    sub = SubsystemRealization(
        E=one, A_xx=((F(-1),),), B_xv=one, B_xu=one,
        C_zx=((F(c_zx),),), C_yx=one, D_zv=one, D_zu=zero,
        D_yv=zero, D_yu=zero)
    return NdsDefinition(subsystems=(sub,))


def _region(nds, phi0):
    """The undifferentiable region at phi0, as ``ndscope sweep`` builds
    it; an identifiable SCM gets the trivial region."""
    report = check_identifiable_at(nds, phi0)
    if report.verdict == "not_identifiable":
        return undiff_region(report, phi0)
    return UndiffRegion(phi0=phi0, basis=[[] for _ in range(phi0.rows)])


def _sweep(nds, phi0, direction, taus, *args, **kwargs):
    """``tau_sweep`` with the region that ``ndscope sweep`` passes."""
    return tau_sweep(nds, phi0, direction, taus, *args,
                     region=_region(nds, phi0), **kwargs)


class TestScreen:
    def test_passing_screen_carries_the_exact_tfm(self):
        nds = demo_nds()
        got = screen(nds, PHI_DIFF)
        assert got.reason is None
        assert got.tfm == exact_tfm(nds, PHI_DIFF)
        assert got.require("the SCM") is got

    def test_irregular_nds_is_a_skip_without_tfm(self):
        got = screen(_one_state(c_zx=0), SCMatrix(((F(1),),)))
        assert (got.reason, got.realization, got.margins, got.tfm) == \
            ("irregular", None, None, None)

    def test_skips_carry_no_tfm(self):
        # not well-posed, then unstable (tau = 1.1 on direction 1)
        got = screen(_one_state(c_zx=1), SCMatrix(((F(1),),)))
        assert (got.reason, got.tfm) == ("not_well_posed", None)
        delta = rm.sub(SWEEP_DIRECTIONS[0].as_lists(), PHI0.as_lists())
        phi = SCMatrix(rm.freeze(rm.add(PHI0.as_lists(),
                                        rm.scale(delta, F(11, 10)))))
        got = screen(demo_nds(), phi)
        assert (got.reason, got.tfm) == ("unstable", None)
        assert got.margins is not None

    def test_irregular_subsystem_raises(self):
        # det(s E - A_xx) = 0 for every s: the subsystem, not the
        # interconnection, is at fault, so nothing can be skipped
        one, zero = ((F(1),),), ((F(0),),)
        sub = SubsystemRealization(
            E=zero, A_xx=zero, B_xv=one, B_xu=one, C_zx=one, C_yx=one,
            D_zv=zero, D_zu=zero, D_yv=zero, D_yu=zero)
        nds = NdsDefinition(subsystems=(sub,))
        phi = SCMatrix.zero(1, 1)
        region = UndiffRegion(phi0=phi, basis=[[]])
        with pytest.raises(NotRegular, match="subsystem 1"):
            screen(nds, phi)
        with pytest.raises(NotRegular, match="subsystem 1"):
            tau_sweep(nds, phi, phi, [F(0)], region=region)
        with pytest.raises(NotRegular, match="subsystem 1"):
            distance_freq(nds, phi, phi)

    def test_screen_runs_no_separate_regularity_pass(self, monkeypatch):
        import ndscope.model as model

        def forbidden(*args):
            raise AssertionError("check_nds_regular ran")
        for mod in (ndscope.sim, model):
            monkeypatch.setattr(mod, "check_nds_regular", forbidden,
                                raising=False)
        assert screen(demo_nds(), PHI0).reason is None
        assert screen(_one_state(c_zx=0),
                      SCMatrix(((F(1),),))).reason == "irregular"


class TestTauSweep:
    def test_tau_zero_row(self, monkeypatch):
        # tau = 0 is Phi0: the row shares the reference's screening, so
        # both sides of its distances come from one realization and TFM
        screened = []

        def counted(nds, phi):
            screened.append(phi.entries)
            return screen(nds, phi)
        monkeypatch.setattr(ndscope.sim, "screen", counted)
        nds = demo_nds()
        rows = _sweep(nds, PHI0, SWEEP_DIRECTIONS[1], [F(0)], seed=0)
        r = rows[0]
        assert not r.skipped
        assert r.d_T == 0.0 and r.d_F == 0.0 and r.d_S == 0.0
        assert r.tfm_diff.is_zero
        assert screened == [PHI0.entries]

    def test_region_is_required(self):
        # d_S needs the caller's region; there is no default to rebuild it
        with pytest.raises(TypeError, match="region"):
            tau_sweep(demo_nds(), PHI0, SWEEP_DIRECTIONS[1], [F(0)], seed=0)

    @pytest.mark.parametrize("reason",
                             ["unstable", "irregular", "not_well_posed"])
    def test_skip_bookkeeping(self, reason):
        if reason == "unstable":
            # tau = 1.1 on direction 1 has a real eigenvalue at +6.37e-5
            nds, phi0, direction = demo_nds(), PHI0, SWEEP_DIRECTIONS[0]
            taus = [F(k, 10) for k in (10, 11, 12)]
        else:
            nds = _one_state(c_zx=0 if reason == "irregular" else 1)
            phi0, direction = SCMatrix.zero(1, 1), SCMatrix(((F(1),),))
            taus = [F(1, 4), F(1), F(3, 2)]
        rows = _sweep(nds, phi0, direction, taus, seed=0)
        assert [r.skipped for r in rows] == [False, True, False]
        assert rows[1].reason == reason
        # only the stability rule computes margins
        assert (rows[1].margins is not None) == (reason == "unstable")

    def test_rows_carry_margins_and_sampling(self):
        nds = demo_nds()
        rows = _sweep(nds, PHI0, SWEEP_DIRECTIONS[3], [F(1)], seed=0)
        r = rows[0]
        assert r.margins is not None and r.margins.stable
        assert r.M >= 10_000 and r.T > 0
        assert all(v >= 0.0 for v in (r.d_T, r.d_F, r.d_S))

    def test_tau_zero_after_longer_row(self):
        # tau = 1.2 draws M = 23,826 samples; tau = 0 then reuses a prefix
        rows = _sweep(demo_nds(), PHI0, SWEEP_DIRECTIONS[0],
                      [F(12, 10), F(0)], seed=0)
        assert rows[0].M > rows[1].M == 10_000
        assert rows[1].d_T == 0.0 and rows[1].d_F == 0.0

    def test_rows_independent_of_grid(self):
        nds = demo_nds()
        alone = _sweep(nds, PHI0, SWEEP_DIRECTIONS[0], [F(1)], seed=4)
        after = _sweep(nds, PHI0, SWEEP_DIRECTIONS[0], [F(12, 10), F(1)],
                       seed=4)
        assert (after[1].d_T, after[1].d_F, after[1].d_S) == \
            (alone[0].d_T, alone[0].d_F, alone[0].d_S)

    def test_config_supplies_seed_and_amplitude(self):
        nds = demo_nds()
        d = SWEEP_DIRECTIONS[3]
        by_keyword = _sweep(nds, PHI0, d, [F(1)], seed=3)[0].d_T
        assert _sweep(nds, PHI0, d, [F(1)],
                      SimConfig(T=1.0, M=1, seed=3))[0].d_T == by_keyword
        # the system is linear and starts at rest: d_T scales with amplitude
        halved = _sweep(nds, PHI0, d, [F(1)],
                        SimConfig(T=1.0, M=1, seed=3, amplitude=5.0))
        assert halved[0].d_T == pytest.approx(by_keyword / 2, rel=1e-12)
        with pytest.raises(TypeError):
            _sweep(nds, PHI0, d, [F(1)], SimConfig(T=1.0, M=1), seed=3)

    def test_too_many_samples_skipped(self, monkeypatch):
        # tau = 1.095 on direction 1 is stable, 0.005 short of the graze,
        # and the sampling rule asks for about 3.2e6 samples
        def refuse(*args, **kwargs):
            raise AssertionError("no signal may be drawn for this row")
        monkeypatch.setattr(ndscope.sim, "prbs", refuse)
        monkeypatch.setattr(ndscope.sim, "simulate", refuse)
        rows = _sweep(demo_nds(), PHI0, SWEEP_DIRECTIONS[0],
                      [F(1095, 1000)], seed=0)
        assert rows[0].skipped and rows[0].reason == "too_many_samples"
        assert rows[0].margins.stable

    def test_d_t_rises_then_falls(self):
        # the time distance grows for small tau and decays past a peak
        nds = demo_nds()
        taus = [F(0), F(1), F(2), F(3)]
        rows = _sweep(nds, PHI0, SWEEP_DIRECTIONS[0], taus, seed=0)
        d_t = [r.d_T for r in rows]
        assert d_t[1] > d_t[0]
        assert d_t[2] < d_t[1] and d_t[3] < d_t[2]
