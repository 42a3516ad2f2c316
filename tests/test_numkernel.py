import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgas import numkernel as nk
from rgas import zerofinder as zf
from rgas.errors import AccuracyError, DomainError, PoleError

import oracles

PI = math.pi


class TestZeta:
    def test_classical_values(self):
        assert nk.zeta(2.0).real == pytest.approx(PI**2 / 6, abs=1e-12)
        assert nk.zeta(0.0).real == pytest.approx(-0.5, abs=1e-13)
        assert nk.zeta(3.0).real == pytest.approx(1.2020569031595943, abs=1e-12)

    def test_strip_values_match_eta_oracle(self):
        for s in (0.3, 0.5, 0.7):
            assert nk.zeta(s).real == pytest.approx(oracles.zeta_via_eta(s), abs=1e-12)

    def test_first_zero_on_critical_line(self):
        # ordinate frozen from the sign-change search
        assert abs(nk.zeta(complex(0.5, oracles.GAMMA_1))) < 1e-5

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            nk.zeta(1.0)

    def test_infinite_imaginary_part_is_domain_error(self):
        with pytest.raises(DomainError):
            nk.zeta(complex(0.0, math.inf))

    def test_infinite_argument_is_domain_error(self):
        with pytest.raises(DomainError):
            nk.zeta(math.inf)

    def test_cutoff_past_max_terms_is_named_briefly(self):
        with pytest.raises(AccuracyError, match=r"cutoff 5e\+299 exceeds max_terms=200000$"):
            nk.zeta(complex(0.5, 1e300))

    def test_unit_where_two_to_the_minus_s_underflows(self):
        # from Re s = 1100 on zeta is 1 and zeta' is 0 without summing: the
        # values the Euler-Maclaurin sum gives up to Re s = 1e12, past which
        # its rising product overflows
        rng = np.random.default_rng(11)
        s = np.concatenate([np.exp(rng.uniform(0.0, math.log(1e12), 300)), [1099.0, 1100.0, 1e12]])
        s = s[s != 1.0].astype(np.complex128)
        z, d = nk._zeta_em_many(s, want_derivative=True)
        ref_z, ref_d, _, _ = nk._hurwitz_em(s, 1.0, nk._em_cutoff(0.0, 1.0), True)
        assert np.all(z == ref_z) and np.all(d == ref_d)
        far = s.real >= 1100.0
        assert far.sum() > 100 and np.all(z[far] == 1.0) and np.all(d[far] == 0.0)
        assert nk._zeta_log_derivative_real_many(np.array([1e30]))[0] == 0.0
        assert nk.zeta(complex(2000.0, 3e6)) == 1.0

    def test_trivial_zeros_exact(self):
        assert nk.zeta(-2.0) == 0.0
        assert nk.zeta(-4.0) == 0.0

    def test_negative_axis_via_reflection(self):
        assert nk.zeta(-1.0).real == pytest.approx(-1.0 / 12.0, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=0.05, max_value=4.0),
        st.floats(min_value=0.1, max_value=25.0),
    )
    def test_schwarz_reflection(self, sigma, t):
        s = complex(sigma, t)
        if abs(s - 1.0) < 1e-3:
            return
        assert nk.zeta(np.conj(s)) == pytest.approx(nk.zeta(s).conjugate(), abs=1e-12)

    def test_truncation_estimate_bounds_doubled_evaluation(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = complex(rng.uniform(0.1, 3.0), rng.uniform(0.0, 40.0))
            n = nk._em_cutoff(abs(s.imag), 1.0)
            coarse, _, est, _ = nk._hurwitz_em(np.array([s]), 1.0, n, False)
            fine, _, _, _ = nk._hurwitz_em(np.array([s]), 1.0, 2 * n, False)
            true_err = abs(complex(coarse[0] - fine[0]))
            assert true_err <= float(est[0]) + 1e-15

    @staticmethod
    def step_by_step_estimate(s, a, n, want_derivative):
        """The truncation estimate with its rising product taken one factor
        at a time."""
        sf = np.asarray(s, dtype=np.complex128)
        ln_n = np.log(np.arange(0, n, dtype=np.float64) + a)
        powers = np.exp(-sf[:, None] * ln_n[None, :])
        w = a + n
        ln_w = math.log(w)
        w_ms = np.exp(-sf * ln_w)
        pole = w * w_ms / (sf - 1.0)
        w_pow = w_ms * w
        for _ in range(nk._EM_ORDER + 1):
            w_pow = w_pow / (w * w)
        p = np.maximum(np.abs(sf), 1.0).astype(np.complex128)
        for j in range(1, 2 * nk._EM_ORDER + 1):
            p = p * np.maximum(np.abs(sf + j), 1.0)
        denom = sf.real + 2 * nk._EM_ORDER + 1
        factor = np.abs(sf + (2 * nk._EM_ORDER + 1)) / np.where(denom > 0.5, denom, 0.5)
        est = abs(nk._B_OVER_FACT[nk._EM_ORDER]) * np.abs(p) * np.abs(w_pow) * np.maximum(factor, 1.0)
        floor = 8.0 * np.finfo(float).eps * (
            np.abs(powers).sum(axis=1) + np.abs(pole) + 0.5 * np.abs(w_ms)
        )
        return est * (ln_w + 1.0) + floor if want_derivative else est + floor

    def test_estimate_matches_step_by_step_product(self):
        rng = np.random.default_rng(11)
        s = rng.uniform(-6.0, 6.0, 200) + 1j * rng.uniform(-3000.0, 3000.0, 200)
        near_integers = -np.arange(1.0, 6.0)
        s = np.concatenate(
            [s, near_integers + 1e-9, near_integers - 1e-12 + 1e-10j, rng.uniform(-6.0, 6.0, 40) + 0j]
        )
        for want_derivative in (False, True):
            for n in (21, 120, 1510):
                est = nk._hurwitz_em(s, 1.0, n, want_derivative)[2]
                ref = self.step_by_step_estimate(s, 1.0, n, want_derivative)
                assert np.max(np.abs(est - ref) / ref) <= 1e-12


class TestRealAxisKernel:
    """A real s stays in float64 arithmetic: zeta, zeta' and zeta'/zeta are
    the real kernel on a one-element array, whose value does not depend on
    the batch around it, and lies within the kernel's estimate of the
    complex path's real part and of mpmath.  The estimate of zeta' omits
    the rounding of its 1/(s-1)^2 pole term, so zeta' also gets 8 ulps of
    its size."""

    # s in [0, 80] \ {1}, with draws at 1e-15 .. 0.1 from the pole
    POINTS = st.one_of(
        st.floats(min_value=0.0, max_value=80.0),
        st.builds(
            lambda d, sign: 1.0 + sign * d,
            st.floats(min_value=1e-15, max_value=0.1),
            st.sampled_from([-1.0, 1.0]),
        ),
    ).filter(lambda s: s != 1.0)

    @settings(max_examples=60, deadline=None)
    @given(POINTS, st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([1, 2, 15, 300]))
    def test_scalar_is_the_real_kernel(self, s, seed, size):
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(seed)
        batch = rng.uniform(0.0, 80.0, size)
        batch[batch == 1.0] = 2.0
        k = int(rng.integers(0, size))
        batch[k] = s
        z, d = nk._zeta_em_many(np.array([s]), want_derivative=True)
        assert z.dtype == d.dtype == np.float64
        zb, db = nk._zeta_em_many(batch, want_derivative=True)
        assert (zb[k], db[k]) == (z[0], d[0])
        assert nk._zeta_em_many(batch)[k] == z[0]
        for arg in (s, complex(s, 0.0)):
            assert nk.zeta(arg) == complex(z[0])
            assert nk.zeta_derivative(arg) == complex(d[0])
            assert nk.zeta_log_derivative(arg) == complex(d[0] / z[0])

        n = nk._em_cutoff(0.0, 1.0)
        est = nk._hurwitz_em(np.array([s]), 1.0, n, False)[2][0]
        est_d = nk._hurwitz_em(np.array([s]), 1.0, n, True)[2][0]
        zc, dc = nk._zeta_em_many(np.array([s], dtype=np.complex128), want_derivative=True)
        with mp.workdps(30):
            ref, ref_d = float(mp.zeta(s)), float(mp.zeta(s, derivative=1))
        ulps = 8.0 * np.finfo(float).eps * abs(ref_d)
        for value, deriv in ((zc[0].real, dc[0].real), (ref, ref_d)):
            assert abs(z[0] - value) <= est
            assert abs(d[0] - deriv) <= est_d + ulps


class TestNegativeHalfPlaneAgainstMpmath:
    """Re s < 0 with |Im s| > 2, where the reflection formula evaluates
    log Gamma through the large-|Im| branch of log sin(pi z)."""

    POINTS = (-0.5 + 3.0j, -1.0 + 30.0j, -3.3 - 7.0j, -5.9 + 2.5j, -0.01 - 40.0j)

    def test_zeta_and_derivative(self):
        mp = pytest.importorskip("mpmath")
        for s in self.POINTS:
            with mp.workdps(30):
                ref, ref_d = complex(mp.zeta(s)), complex(mp.zeta(s, derivative=1))
            assert abs(nk.zeta(s) - ref) <= 1e-12 * abs(ref)
            assert abs(nk.zeta_derivative(s) - ref_d) <= 1e-12 * abs(ref_d)

    def test_log_gamma(self):
        mp = pytest.importorskip("mpmath")
        for s in self.POINTS + (-0.5 + 1.5j,):
            with mp.workdps(30):
                ref = complex(mp.loggamma(s))
            value = nk.log_gamma(s)
            assert value.real == pytest.approx(ref.real, abs=1e-12 * max(1.0, abs(ref.real)))
            turns = (value.imag - ref.imag) / (2.0 * PI)
            assert abs(turns - round(turns)) <= 1e-12 * max(1.0, abs(ref.imag))


class TestZetaDerivative:
    def test_infinite_argument_is_domain_error(self):
        with pytest.raises(DomainError):
            nk.zeta_derivative(math.inf)

    def test_value_at_2_against_log_sum_oracle(self):
        assert nk.zeta_derivative(2.0).real == pytest.approx(oracles.ZETA_PRIME_2, abs=1e-10)
        # bracket with the raw truncated oracle and its tail bound
        n = 4000
        partial = -math.fsum(math.log(k) / k**2 for k in range(1, n + 1))
        bound = (math.log(n) + 1.0) / n
        assert abs(nk.zeta_derivative(2.0).real - partial) <= bound

    def test_value_at_0(self):
        assert nk.zeta_derivative(0.0).real == pytest.approx(-0.5 * math.log(2 * PI), abs=1e-12)

    def test_finite_difference_at_3(self):
        h = 1e-5
        fd = (nk.zeta(3.0 + h) - nk.zeta(3.0 - h)) / (2 * h)
        assert abs(nk.zeta_derivative(3.0) - fd) <= 1e-8

    def test_finite_difference_across_0(self):
        # wider step + 4th-order stencil: the reflection branch at -h limits
        # pointwise accuracy to ~1e-16/h, so tiny steps lose the quotient
        h = 1e-3
        fd = (
            8.0 * (nk.zeta(complex(h)) - nk.zeta(complex(-h)))
            - (nk.zeta(complex(2 * h)) - nk.zeta(complex(-2 * h)))
        ) / (12.0 * h)
        assert abs(nk.zeta_derivative(0.0) - fd) <= 1e-8

    def test_trivial_zero_slope(self):
        # zeta'(-2) = -zeta(3) / (4 pi^2)
        expect = -1.2020569031595943 / (4 * PI**2)
        assert nk.zeta_derivative(-2.0).real == pytest.approx(expect, abs=1e-12)


class TestLogZetaPrincipal:
    def test_real_above_one(self):
        v = nk.log_zeta_principal(2.0)
        assert v.imag == 0.0
        assert v.real == pytest.approx(math.log(PI**2 / 6), abs=1e-12)

    def test_strip_branch(self):
        v = nk.log_zeta_principal(0.5)
        assert v.imag == PI  # exact branch selection
        assert v.real == pytest.approx(math.log(-oracles.ZETA_HALF), abs=1e-12)

    def test_branch_exact_across_strip(self):
        for s in np.linspace(0.02, 0.98, 25):
            assert nk.log_zeta_principal(float(s)).imag == PI

    def test_log_singularity_toward_pole(self):
        s = 1.0 + 1e-6
        assert nk.log_zeta_principal(s).real == pytest.approx(-math.log(s - 1.0), rel=1e-4)


class TestZetaLogDerivative:
    def test_pole_residue(self):
        s = 1.0 + 1e-6
        assert (s - 1.0) * nk.zeta_log_derivative(s).real == pytest.approx(-1.0, abs=1e-4)

    def test_value_at_2_against_von_mangoldt(self):
        partial, bound = oracles.zeta_log_derivative_2_bracket(30_000)
        assert abs(nk.zeta_log_derivative(2.0).real - partial) <= bound

    def test_negative_half_plane_consistent_with_quotient(self):
        s = complex(-1.3, 0.7)
        quotient = nk.zeta_derivative(s) / nk.zeta(s)
        assert nk.zeta_log_derivative(s) == pytest.approx(quotient, abs=1e-9)


class TestHurwitz:
    def test_reduces_to_riemann(self):
        assert nk.hurwitz_zeta(2.0, 1.0).real == pytest.approx(PI**2 / 6, abs=1e-12)

    def test_half_identity(self):
        assert nk.hurwitz_zeta(2.0, 0.5).real == pytest.approx(PI**2 / 2, abs=1e-12)

    def test_pole_finite_part_at_q1(self):
        # lim_{z->1} (zeta(z, 1) - 1/(z-1)) = gamma_E
        delta = 1e-4
        sym = 0.5 * (nk.hurwitz_zeta(1 + delta, 1.0).real + nk.hurwitz_zeta(1 - delta, 1.0).real)
        assert sym == pytest.approx(oracles.EULER_GAMMA, abs=1e-7)
        assert nk.hurwitz_finite_part(1.0) == pytest.approx(0.5772157, abs=1e-6)

    def test_finite_part_richardson_consistency(self):
        q, d = 2.0, 1e-3
        e1 = 0.5 * (nk.hurwitz_zeta(1 + d, q).real + nk.hurwitz_zeta(1 - d, q).real)
        e2 = 0.5 * (nk.hurwitz_zeta(1 + d / 2, q).real + nk.hurwitz_zeta(1 - d / 2, q).real)
        richardson = (4.0 * e2 - e1) / 3.0
        assert abs(nk.hurwitz_finite_part(q) - richardson) <= 1e-8

    def test_finite_part_half(self):
        assert nk.hurwitz_finite_part(0.5) == pytest.approx(
            oracles.EULER_GAMMA + 2 * math.log(2.0), abs=1e-12
        )

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=-1.5, max_value=5.0),
        st.floats(min_value=0.05, max_value=20.0),
    )
    def test_shift_identity(self, z, q):
        if abs(z - 1.0) < 1e-3:
            return
        lhs = nk.hurwitz_zeta(complex(z), q)
        rhs = nk.hurwitz_zeta(complex(z), q + 1.0) + complex(q) ** (-z)
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(lhs)))

    def test_shift_identity_moderately_negative(self):
        # cancellation of large powers caps absolute accuracy for z < 0
        for z, q in ((-4.0, 1.0), (-5.5, 0.7)):
            lhs = nk.hurwitz_zeta(complex(z), q)
            rhs = nk.hurwitz_zeta(complex(z), q + 1.0) + complex(q) ** (-z)
            assert lhs == pytest.approx(rhs, abs=1e-7 * max(1.0, abs(lhs)))

    def test_power_of_q_where_the_sum_rounds_away(self):
        """Past x ln(1 + 1/q) = 53 ln 2 + ln(q + 2) the value is q^-z, within
        the unit roundoff of mpmath, times 1 + |y ln q| for the rounding of
        the phase (the sum just below that edge, within 1e-13 relative);
        exactly 1 at q = 1, 0 where q^-z underflows, and AccuracyError where
        it overflows."""
        mp = pytest.importorskip("mpmath")
        for q in (0.3, 1.0, 2.0, 7.5):
            edge = (53.0 * math.log(2.0) + math.log(q + 2.0)) / math.log1p(1.0 / q)
            for x, bound in ((0.9 * edge, 1e-13), (edge, 2.0**-52), (1.01 * edge, 2.0**-52), (2.0 * edge, 2.0**-52)):
                for y in (0.0, 5.0):
                    value = nk.hurwitz_zeta(complex(x, y), q)
                    with mp.workdps(30):
                        ref = complex(mp.zeta(mp.mpc(x, y), q))
                    assert abs(value - ref) <= bound * abs(ref) * (1.0 + abs(y * math.log(q)))
        assert nk.hurwitz_zeta(complex(1e14, 3.0), 1.0) == 1.0
        assert nk.hurwitz_zeta(1e14, 2.0) == 0.0
        with pytest.raises(AccuracyError, match="float range"):
            nk.hurwitz_zeta(1e14, 0.5)

    def test_deep_negative_rejected(self):
        with pytest.raises(DomainError):
            nk.hurwitz_zeta(-8.0, 1.0)

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            nk.hurwitz_zeta(1.0, 2.0)
        with pytest.raises(DomainError):
            nk.hurwitz_zeta(2.0, -1.0)


class TestDigamma:
    def test_paper_value_at_1(self):
        assert nk.digamma(1.0) == pytest.approx(-0.577215, abs=1e-6)
        assert nk.digamma(1.0) == pytest.approx(-oracles.EULER_GAMMA, abs=1e-13)

    def test_recurrence_at_2(self):
        assert nk.digamma(2.0) == pytest.approx(nk.digamma(1.0) + 1.0, abs=1e-13)

    def test_duplication_oracle_at_half(self):
        # psi(2x) = psi(x)/2 + psi(x+1/2)/2 + ln 2 at x = 1/2
        expect = nk.digamma(1.0) - 2.0 * math.log(2.0)
        assert nk.digamma(0.5) == pytest.approx(expect, abs=1e-12)
        assert nk.digamma(0.5) == pytest.approx(-1.9635101, abs=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=60.0))
    def test_recurrence_property(self, x):
        assert nk.digamma(x + 1.0) - nk.digamma(x) == pytest.approx(
            1.0 / x, abs=1e-12 * max(1.0, 1.0 / x)
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            nk.digamma(0.0)
        with pytest.raises(DomainError):
            nk.digamma(-2.5)

    def test_vectorized_matches_scalar(self):
        x = np.array([0.01, 0.3, 1.0, 4.7, 11.0, 123.0])
        v = nk._digamma_many(x)
        for xi, vi in zip(x, v):
            assert vi == nk.digamma(float(xi))

    def test_non_finite_argument_is_domain_error(self):
        with pytest.raises(DomainError):
            nk.digamma(math.inf)
        with pytest.raises(DomainError):
            nk._digamma_many(np.array([1.0, math.nan]))

    def test_overflow_is_accuracy_error(self):
        with pytest.raises(AccuracyError):
            nk.digamma(1e-320)

    def test_complex_pole_raises(self):
        with pytest.raises(PoleError):
            nk._digamma_many(np.array([0.5 + 1j, -3.0 + 0j]))


class TestLogGamma:
    def test_factorial(self):
        assert nk.log_gamma(5.0).real == pytest.approx(math.log(24.0), abs=1e-13)
        assert nk.log_gamma(5.0).imag == 0.0

    def test_half(self):
        assert nk.log_gamma(0.5).real == pytest.approx(0.5 * math.log(PI), abs=1e-13)

    def test_recurrence_relative(self):
        for s in (0.3 + 2.0j, 2.7 - 5.0j, 0.25 + 30.0j):
            lhs = cmath.exp(nk.log_gamma(s + 1.0))
            rhs = s * cmath.exp(nk.log_gamma(s))
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_functional_equation_residual(self):
        s = complex(0.3, 2.0)
        left = cmath.exp(-s / 2 * math.log(PI) + nk.log_gamma(s / 2)) * nk.zeta(s)
        right = cmath.exp(-(1 - s) / 2 * math.log(PI) + nk.log_gamma((1 - s) / 2)) * nk.zeta(1 - s)
        assert abs(left - right) <= 1e-10

    def test_pole(self):
        with pytest.raises(PoleError):
            nk.log_gamma(0.0)
        with pytest.raises(PoleError):
            nk.log_gamma(-3.0)

    def test_non_finite_argument_is_domain_error(self):
        with pytest.raises(DomainError):
            nk.log_gamma(complex(-math.inf, 0.0))

    def test_overflow_is_accuracy_error(self):
        with pytest.raises(AccuracyError):
            nk.log_gamma(complex(1e308, 1e308))


class TestGammaKernelContract:
    """log_gamma, digamma and theta are one kernel each: a scalar is the
    kernel on a one-element array, and the kernels' value at a point does
    not depend on the batch around it."""

    @staticmethod
    def batch(rng, size):
        """Points in both half-planes, on and off the real axis."""
        z = rng.uniform(-30.0, 30.0, size) + 1j * rng.uniform(-60.0, 60.0, size)
        z.imag[rng.random(size) < 0.2] *= 1e-3
        z.imag[rng.random(size) < 0.3] = 0.0
        z[(z.imag == 0.0) & (z.real == np.floor(z.real))] += 0.5
        return z

    def test_scalar_is_the_kernel(self):
        rng = np.random.default_rng(20260904)
        for z in self.batch(rng, 200):
            assert nk.log_gamma(z) == nk._log_gamma_many([z])[0]
        for x in rng.uniform(1e-3, 80.0, 200):
            assert nk.digamma(x) == nk._digamma_many([x])[0]
        for t in np.exp(rng.uniform(math.log(1e-3), math.log(1e5), 200)):
            assert zf.riemann_siegel_theta(t) == zf._theta_many([t])[0]

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([1, 2, 15, 300]),
    )
    def test_value_alone_equals_value_in_a_batch(self, seed, size):
        rng = np.random.default_rng(seed)
        z = self.batch(rng, size)
        t = np.exp(rng.uniform(math.log(1e-3), math.log(1e5), size))
        cases = (
            (nk._log_gamma_many, z),
            (nk._digamma_many, z),
            (nk._digamma_many, np.abs(z.real) + 1e-3),
            (zf._theta_many, t),
        )
        for kernel, points in cases:
            whole = kernel(points)
            alone = np.array([kernel(points[k : k + 1])[0] for k in range(size)])
            assert np.array_equal(whole, alone)


class TestExponentialIntegral:
    def test_frozen_series_values(self):
        assert nk.exp_integral_ei(1.0) == pytest.approx(oracles.EI_1, abs=1e-13)
        assert nk.exp_integral_ei(0.25) == pytest.approx(oracles.EI_QUARTER, abs=1e-13)
        assert nk.exp_integral_ei(0.25) == pytest.approx(-0.5425, abs=1e-4)

    def test_matches_series_oracle_on_grid(self):
        for x in (-6.0, -1.0, -0.1, 0.5, 3.0, 10.0, 31.0):
            assert nk.exp_integral_ei(x) == pytest.approx(
                oracles.ei_series(x), rel=1e-11, abs=1e-13
            )

    @pytest.mark.parametrize("x", [-10.0, -20.0, -30.0, 32.0001])
    def test_matches_mpmath_past_the_series_oracle(self, x):
        # below x ~ -6 the power series (and so the series oracle) cancels, and
        # just past x = 32 the asymptotic series alone falls short of 1e-13
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            ref = float(mp.ei(x))
        assert nk.exp_integral_ei(x) == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_subnormal_is_a_domain_error(self):
        for x in (1e-320, -5e-324):
            with pytest.raises(DomainError):
                nk.exp_integral_ei(x)

    def test_derivative_property(self):
        x, h = 2.0, 1e-5
        slope = (nk.exp_integral_ei(x + h) - nk.exp_integral_ei(x - h)) / (2 * h)
        assert slope == pytest.approx(math.exp(x) / x, abs=1e-6)

    def test_crossover_continuity(self):
        below = nk.exp_integral_ei(31.9999)
        above = nk.exp_integral_ei(32.0001)
        slope = math.exp(32.0) / 32.0
        assert above - below == pytest.approx(2e-4 * slope, rel=1e-3)

    def test_singularity(self):
        with pytest.raises(PoleError):
            nk.exp_integral_ei(0.0)

    def test_nan_is_domain_error(self):
        with pytest.raises(DomainError):
            nk.exp_integral_ei(math.nan)

    def test_overflow_is_an_accuracy_error(self):
        for x in (716.5, 800.0, 1e6):
            with pytest.raises(AccuracyError):
                nk.exp_integral_ei(x)

    def test_finite_past_the_exp_range(self):
        # Ei(x) ~ e^x / x stays a finite float until x ~ 716.4, past e^x
        below = nk.exp_integral_ei(709.78)
        assert nk.exp_integral_ei(709.79) == pytest.approx(below * math.exp(0.01), rel=1e-4)
        for x in (710.0, 713.0, 716.3):
            value = nk.exp_integral_ei(x)
            series = 1.0 + 1.0 / x + 2.0 / x**2 + 6.0 / x**3 + 24.0 / x**4 + 120.0 / x**5
            expect = math.exp(x - math.log(x)) * series
            assert math.isfinite(value)
            assert value == pytest.approx(expect, rel=1e-12)

    def test_scaled_ei_is_the_product_where_finite(self):
        # both are views of g(z) = z e^z E1(z) at z = -x + i0:
        # e^-x Ei(x) = Re g / x, and Ei(x) = e^(x/2) (e^-x Ei(x)) e^(x/2)
        rng = np.random.default_rng(5)
        for x in np.concatenate([rng.uniform(-700.0, 716.0, 200), [0.25, 32.0, 709.78, 716.0]]):
            x = float(x)
            g = complex(nk._z_exp_e1(np.array([complex(-x, 0.0)]))[1][0])
            for scale in (1.0, 0.37):
                assert nk._exp_neg_ei([x], scale)[0] == scale * (g.real / x)
            half = math.exp(0.5 * x)
            assert nk.exp_integral_ei(x) == half * nk._exp_neg_ei([x])[0] * half

    def test_scaled_ei_past_the_float_range(self):
        # no exponential is formed, so nothing changes where e^x overflows
        below, above = nk._exp_neg_ei([709.78, 709.79])
        assert above == pytest.approx(below, rel=2e-5)
        for x in (710.0, 1e3, 1e5, -710.0, -1e4):
            # e^-x Ei(x) = 1/x (1 + 1/x + 2/x^2 + 6/x^3 + ...)
            expect = (1.0 + 1.0 / x + 2.0 / x**2 + 6.0 / x**3 + 24.0 / x**4) / x
            assert nk._exp_neg_ei([x])[0] == pytest.approx(expect, rel=1e-12)


class TestFunctionalEquationGrid:
    def test_residual_on_strip_grid(self):
        rng = np.random.default_rng(123)
        worst = 0.0
        for _ in range(50):
            s = complex(rng.uniform(0.05, 0.95), rng.uniform(-30.0, 30.0))
            left = cmath.exp(-s / 2 * math.log(PI) + nk.log_gamma(s / 2)) * nk.zeta(s)
            right = cmath.exp(-(1 - s) / 2 * math.log(PI) + nk.log_gamma((1 - s) / 2)) * nk.zeta(
                1 - s
            )
            worst = max(worst, abs(left - right))
        assert worst <= 1e-10
