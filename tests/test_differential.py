"""The zeta family (zeta, zeta', zeta'/zeta and Hurwitz zeta), the
gamma-family, exponential-integral and real-axis log-zeta kernels, and the
Mellin transform of zeta'/zeta, against mpmath at 30 digits.

Points are drawn by hypothesis over the advertised domains, including the
neighbourhoods of the poles of Gamma and zeta, |Im z| up to 1e4, and both
sides of the cut of E1.  Each bound is relative to max(1, |reference|);
on Re z <= 0 the imaginary part of log Gamma is compared mod 2 pi, as the
reflection formula determines it only there.  e^-x Ei(x) and the pole
window of the free energy are held to BOUND relative; the pole window of
the energy, which changes sign, to BOUND relative to the integral of its
integrand's magnitude.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rgas import numkernel as nk
from rgas import superzeta as sz
from rgas import thermo as th
from rgas import zerofinder as zf
from rgas.errors import PoleError

mp = pytest.importorskip("mpmath")

BOUND = 1e-13


def magnitudes(lo, hi):
    """Floats log-uniform in [lo, hi]."""
    return st.floats(min_value=math.log(lo), max_value=math.log(hi)).map(math.exp)


signs = st.sampled_from([-1.0, 1.0])
# a pole -n of Gamma, n = 0..40, and an offset of 1e-10 .. 0.1 in either
# direction along the real axis, possibly just off it
near_poles = st.builds(
    lambda n, d, sign, im: complex(-n + sign * d, im),
    st.integers(min_value=0, max_value=40),
    magnitudes(1e-10, 0.1),
    signs,
    st.sampled_from([0.0, 1e-9, -1e-6]),
)


def reference(fn, z):
    with mp.workdps(30):
        return complex(fn(mp.mpc(z.real, z.imag)))


def scaled(value, ref):
    return abs(value - ref) / max(1.0, abs(ref))


def assert_log_gamma(z):
    value, ref = nk.log_gamma(z), reference(mp.loggamma, z)
    assert scaled(value.real, ref.real) <= BOUND
    if z.real > 0.0:
        assert scaled(value.imag, ref.imag) <= BOUND
    else:
        turns = (value.imag - ref.imag) / (2.0 * math.pi)
        assert abs(turns - round(turns)) * 2.0 * math.pi <= BOUND * max(1.0, abs(ref.imag))


# the zeta family's accuracy target that numkernel's docstring states, here
# relative to max(1, |reference|)
TARGET = 1e-12
# the distance to a pole or a trivial zero along the real axis, possibly
# with the point just off it
near = st.builds(
    lambda d, sign, im: (sign * d, im), magnitudes(1e-10, 0.1), signs, st.sampled_from([0.0, 1e-9, -1e-6])
)
REFLECTION_FOUND = (
    "FOUND: on Re s < 0 next to s = 0 the reflection formula takes zeta(1 - s) at a rounded 1 - s: "
    "zeta'(-1.2345e-5) and zeta'/zeta there err by 8e-8 relative, zeta(-1.2345e-9) by 2e-8, "
    "and zeta(-1e-17) raises PoleError for the pole at s = 1"
)
HURWITZ_FOUND = (
    "FOUND: numkernel.hurwitz_zeta misses its 1e-12 target for Re z below about -2 "
    "(hurwitz_zeta(-3, 1) - 1/120 = -4.7e-11, and up to 9e-7 at z = -5.84, q = 0.68), "
    "while its Euler-Maclaurin estimate passes the gate"
)


def assert_zeta_family(s):
    """zeta, zeta' and zeta'/zeta at s against mpmath; zeta'/zeta has a pole
    where zeta is 0."""
    with mp.workdps(30):
        w = mp.mpc(s.real, s.imag)
        value, slope = mp.zeta(w), mp.zeta(w, 1, 1)
        refs = complex(value), complex(slope), None if value == 0 else complex(slope / value)
    for fn, ref in zip((nk.zeta, nk.zeta_derivative, nk.zeta_log_derivative), refs):
        if ref is None:
            with pytest.raises(PoleError):
                fn(s)
        else:
            assert scaled(fn(s), ref) <= TARGET


class TestZetaFamily:
    """zeta, zeta' and zeta'/zeta next to the pole, at and next to the
    trivial zeros, on Re s < 0 (the reflection formula) and from Re s = 1100
    on, where zeta is 1 and zeta' is 0; Hurwitz zeta for -6 < Re z < 60 and
    q log-uniform in [1e-3, 4], all to numkernel's target.  Two domains
    hold a recorded defect: Re s < 0 next to 0 and Hurwitz zeta left of
    Re z = -2.  There the test over the whole domain is a strict xfail, and
    a test beside it holds the rest to the target.  High in the critical
    strip the Euler-Maclaurin rounding floor is no bound (at 0.5 + 3000i
    zeta errs by 3.0e-12 against an estimate of 4.3e-13, a FOUND in
    CHANGES.md); that belongs to compensated phases (ROADMAP item 5), so
    |Im s| stays at most 100 here."""

    @settings(max_examples=100, deadline=None)
    @given(near)
    def test_next_to_the_pole(self, offset):
        d, im = offset
        assert_zeta_family(complex(1.0 + d, im))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=40))
    def test_at_the_trivial_zeros(self, n):
        assert nk.zeta(-2.0 * n) == 0.0
        assert_zeta_family(complex(-2.0 * n, 0.0))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=40), near)
    def test_next_to_the_trivial_zeros(self, n, offset):
        d, im = offset
        assert_zeta_family(complex(-2.0 * n + d, im))

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=-60.0, max_value=-0.01), st.one_of(st.just(0.0), magnitudes(1e-3, 100.0)), signs)
    def test_reflection_left_of_re_s_minus_0_01(self, x, y, sign):
        assert_zeta_family(complex(x, sign * y))

    @pytest.mark.xfail(strict=True, reason=REFLECTION_FOUND)
    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=-60.0, max_value=0.0, exclude_max=True),
           st.one_of(st.just(0.0), magnitudes(1e-3, 100.0)), signs)
    @example(-1e-10, 0.0, 1.0)
    def test_reflection(self, x, y, sign):
        assert_zeta_family(complex(x, sign * y))

    @settings(max_examples=60, deadline=None)
    @given(magnitudes(1100.0, 1e300), st.one_of(st.just(0.0), st.floats(min_value=-1e4, max_value=1e4)))
    def test_far_right(self, x, y):
        s = complex(x, y)
        assert (nk.zeta(s), nk.zeta_derivative(s)) == (1.0, 0.0)
        assert_zeta_family(s)

    @staticmethod
    def assert_hurwitz(x, y, q):
        z = complex(x, y)
        if z == 1.0:
            return
        with mp.workdps(30):
            ref = complex(mp.zeta(mp.mpc(x, y), q))
        assert scaled(nk.hurwitz_zeta(z, q), ref) <= TARGET

    @settings(max_examples=150, deadline=None)
    @given(st.floats(min_value=-1.0, max_value=60.0), st.one_of(st.just(0.0), st.floats(-100.0, 100.0)),
           magnitudes(1e-3, 4.0))
    def test_hurwitz_right_of_re_z_minus_1(self, x, y, q):
        self.assert_hurwitz(x, y, q)

    @pytest.mark.xfail(strict=True, reason=HURWITZ_FOUND)
    @settings(max_examples=150, deadline=None)
    @given(st.floats(min_value=-6.0, max_value=60.0, exclude_min=True),
           st.one_of(st.just(0.0), st.floats(-100.0, 100.0)), magnitudes(1e-3, 4.0))
    @example(-3.0, 0.0, 1.0)
    def test_hurwitz(self, x, y, q):
        self.assert_hurwitz(x, y, q)


class TestLogGamma:
    @settings(max_examples=150, deadline=None)
    @given(magnitudes(1e-3, 60.0), magnitudes(1e-3, 1e4), signs)
    def test_right_half_plane(self, x, y, sign):
        assert_log_gamma(complex(x, sign * y))

    @settings(max_examples=150, deadline=None)
    @given(st.floats(min_value=-60.0, max_value=0.0), magnitudes(1e-3, 1e4), signs)
    def test_left_half_plane(self, x, y, sign):
        assert_log_gamma(complex(x, sign * y))

    @settings(max_examples=150, deadline=None)
    @given(near_poles)
    def test_next_to_the_poles(self, z):
        assert_log_gamma(z)


class TestDigamma:
    @settings(max_examples=150, deadline=None)
    @given(magnitudes(1e-3, 1e4))
    def test_real_axis(self, x):
        assert scaled(nk.digamma(x), reference(mp.digamma, complex(x)).real) <= BOUND

    @settings(max_examples=150, deadline=None)
    @given(st.floats(min_value=-60.0, max_value=60.0), magnitudes(1e-3, 1e4), signs)
    def test_complex_plane(self, x, y, sign):
        z = complex(x, sign * y)
        value = complex(nk._digamma_many(np.array([z]))[0])
        assert scaled(value, reference(mp.digamma, z)) <= BOUND

    @settings(max_examples=150, deadline=None)
    @given(near_poles)
    def test_next_to_the_poles(self, z):
        value = complex(nk._digamma_many(np.array([z]))[0])
        assert scaled(value, reference(mp.digamma, z)) <= BOUND


class TestTheta:
    @settings(max_examples=150, deadline=None)
    @given(magnitudes(1e-3, 1e5))
    def test_against_siegeltheta(self, t):
        with mp.workdps(30):
            ref = float(mp.siegeltheta(t))
        assert scaled(zf.riemann_siegel_theta(t), ref) <= BOUND

    @settings(max_examples=150, deadline=None)
    @given(magnitudes(zf._THETA_SERIES_MIN_T, 1e6))
    def test_series_against_siegeltheta(self, t):
        with mp.workdps(30):
            ref = float(mp.siegeltheta(t))
        assert scaled(float(zf._theta_many(np.array([t]))[0]), ref) <= BOUND

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=-2.0, max_value=2.0))
    def test_both_sides_of_the_series_edge(self, offset):
        """Dense draws on t0 -/+ 2: log Gamma below t0, the series from t0
        on, where its truncation is below the rounding of its leading term
        (t/2) ln(t/2pi), so it stays within 4 ulps of that term."""
        t = zf._THETA_SERIES_MIN_T + offset
        with mp.workdps(30):
            ref = float(mp.siegeltheta(t))
        value = float(zf._theta_many(np.array([t]))[0])
        assert scaled(value, ref) <= BOUND
        if offset >= 0.0:
            assert abs(value - ref) <= 4.0 * np.spacing(0.5 * t * math.log(t / (2.0 * math.pi)))


class TestGramPoints:
    @staticmethod
    def reference(n):
        with mp.workdps(30):
            if n == -1:  # mp.grampoint starts at g_0
                return mp.findroot(lambda t: mp.siegeltheta(t) + mp.pi, mp.mpf(9.7))
            return mp.grampoint(n)

    def test_against_grampoint(self):
        """g_-1 .. g_10006, the Gram points of the largest zero search, on 40
        sampled n with both ends, against mpmath within 4 ulps."""
        gram = zf._gram_points(-1, 10006)
        rng = np.random.default_rng(1979)
        picks = np.concatenate(([-1, 0, 1, 2, 10006], rng.integers(3, 10006, 35)))
        for n in picks:
            value = float(gram[n + 1])
            with mp.workdps(30):
                err = abs(mp.mpf(value) - self.reference(int(n)))
            assert float(err) <= 4.0 * np.spacing(value), n

    def test_g_minus_1_is_a_constant(self):
        """g_-1, the one Gram point below the theta series, is a constant
        that every batch starts with, within 4 ulps of mp.grampoint(-1)."""
        value = zf._GRAM_MINUS_1
        assert zf.gram_point(-1) == value
        assert zf._gram_points(-1, 5)[0] == value
        assert np.array_equal(zf._gram_points(-1, 5)[1:], zf._gram_points(0, 5))
        with mp.workdps(30):
            err = abs(mp.mpf(value) - mp.grampoint(-1))
        assert float(err) <= 4.0 * np.spacing(value)


class TestExponentialIntegral:
    @staticmethod
    def assert_h(z):
        h = complex(nk._z_exp_e1(np.array([z]))[0][0])
        with mp.workdps(30):
            w = mp.mpc(z.real, z.imag)  # mpmath also takes the axis from above
            ref = complex(w * mp.exp(w) * mp.e1(w) - 1)
        assert scaled(h, ref) <= BOUND

    def test_fraction_depth(self, monkeypatch):
        """The continued fraction at depth ceil(170/s) + 8, s = |z| + Re z,
        on 20,000 seeded points of its region (s > 2, |z| <= 50), half with
        s in (2, 2.1] where it runs deepest: g = z e^z E1(z) within 1e-15
        relative of mpmath, and within twice the error at ceil(250/s) + 8."""
        rng = np.random.default_rng(170)
        n = 20200
        s = np.where(np.arange(n) % 2 == 0, 2.0 + 0.1 * (1.0 - rng.random(n)),
                     np.exp(rng.uniform(math.log(2.1), math.log(100.0), n)))
        r = np.exp(rng.uniform(np.log(s / 2.0), math.log(50.0)))
        z = (s - r) + 1j * rng.choice([-1.0, 1.0], n) * np.sqrt(np.maximum(r * r - (s - r) ** 2, 0.0))
        z = z[(np.abs(z) + z.real > 2.0) & (np.abs(z) <= 50.0)][:20000]
        assert z.size == 20000
        with mp.workdps(30):
            ref = np.array([complex(w * mp.exp(w) * mp.e1(w)) for w in map(mp.mpc, z.tolist())])

        def worst():
            return float(np.max(np.abs(nk._z_exp_e1(z)[1] - ref) / np.abs(ref)))

        new = worst()
        steps = list(nk._E1_STEPS)
        steps[1] = lambda r, s: np.ceil(250.0 / s) + 8
        monkeypatch.setattr(nk, "_E1_STEPS", tuple(steps))
        assert new < 1e-15
        assert new <= 2.0 * worst()

    @settings(max_examples=200, deadline=None)
    @given(magnitudes(1e-3, 716.0), signs)
    def test_scaled_ei(self, x, sign):
        x *= sign
        with mp.workdps(30):
            ref = float(mp.exp(-x) * mp.ei(x))
        # next to the zero x = 0.3725... of Ei a relative bound cannot hold:
        # there the error is that of moving x by a few ulps,
        # eps |x d/dx e^-x Ei(x)| = eps |1 - x e^-x Ei(x)|
        slack = 4.0 * np.finfo(float).eps * abs(1.0 - x * ref)
        assert abs(nk._exp_neg_ei([x])[0] - ref) <= BOUND * abs(ref) + slack

    @settings(max_examples=300, deadline=None)
    @given(magnitudes(1e-3, 1e6), st.floats(min_value=-math.pi, max_value=math.pi))
    def test_plane(self, r, phase):
        self.assert_h(r * complex(math.cos(phase), math.sin(phase)))

    @settings(max_examples=200, deadline=None)
    @given(magnitudes(1e-3, 1e6), magnitudes(1e-12, 1e-1), signs)
    def test_next_to_the_cut(self, r, d, sign):
        self.assert_h(complex(-r, sign * d * r))

    @settings(max_examples=100, deadline=None)
    @given(magnitudes(1e-3, 1e6))
    def test_upper_side_of_the_negative_axis(self, r):
        self.assert_h(complex(-r, 0.0))


class TestRegularLogZeta:
    """L(s) = ln((s-1) zeta(s)), which is 0 at the pole s = 1, and the
    closed form of -int_0^2 e^(-kappa s) ln|s-1| ds that f adds to the
    quadrature of e^(-kappa s) L(s)."""

    @staticmethod
    def assert_l(s):
        value = float(nk._log_regular_zeta_real_many(np.array([s]))[0])
        with mp.workdps(30):
            w = mp.mpf(s)
            ref = 0.0 if s == 1.0 else float(mp.log((w - 1) * mp.zeta(w)))
        assert scaled(value, ref) <= BOUND

    @settings(max_examples=150, deadline=None)
    @given(st.floats(min_value=0.0, max_value=80.0))
    def test_real_axis(self, s):
        self.assert_l(s)

    @settings(max_examples=150, deadline=None)
    @given(magnitudes(1e-12, 0.1), signs)
    def test_next_to_the_pole(self, d, sign):
        self.assert_l(1.0 + sign * d)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(st.just(0.0), magnitudes(1e-12, 0.1)))
    def test_next_to_zero(self, s):
        self.assert_l(s)

    @settings(max_examples=60, deadline=None)
    @given(magnitudes(5e-4, 2e3))
    def test_pole_window(self, kappa):
        value = float(th._pole_log_window(np.array([kappa]))[0])
        with mp.workdps(30):
            k = mp.mpf(kappa)
            edges = sorted({0.0, 1.0, 2.0} | {c / kappa for c in (1, 5, 20, 60) if c < kappa})
            ref = float(-mp.quad(lambda s: mp.exp(-k * s) * mp.log(abs(s - 1)), edges))
        assert abs(value - ref) <= BOUND * abs(ref)

    @settings(max_examples=60, deadline=None)
    @given(magnitudes(5e-4, 2e3))
    def test_energy_pole_window(self, kappa):
        # -int_0^2 (1 - kappa s) e^(-kappa s) ln|s-1| ds; its closed form
        # (1 - e^(-2 kappa))/kappa - kappa W cancels to ~ -1/kappa^2 at large
        # kappa and misses this bound there by up to 3x
        value = float(th._energy_pole_window(np.array([kappa]))[0])
        with mp.workdps(30):
            k = mp.mpf(kappa)
            edges = sorted(
                {0.0, 1.0, 2.0} | {c / kappa for c in (1, 5, 20, 60) if c < 2.0 * kappa}
            )

            def integrand(s):
                return (1 - k * s) * mp.exp(-k * s) * mp.log(abs(s - 1))

            ref = float(-mp.quad(integrand, edges))
            mass = float(mp.quad(lambda s: abs(integrand(s)), edges))
        assert abs(value - ref) <= BOUND * mass


@functools.lru_cache(maxsize=None)
def _log_derivative_30(x0, y):
    """(zeta'/zeta)(x0 + y) at 30 digits, kept per node: the quadratures of
    one t share their nodes."""
    return mp.zeta(x0 + y, derivative=1) / mp.zeta(x0 + y)


@functools.lru_cache(maxsize=None)
def mellin_reference(s, t):
    """J(s, t) = int_0^inf g(1/2 + t + y) y^(-s) dy, g = zeta'/zeta, by
    mpmath quadrature at 30 digits.  On [0, 1/2] the integrand less
    g(1/2 + t) y^(-s), which integrates in closed form, vanishes at y = 0
    for tanh-sinh; Gauss-Legendre takes the rest of the ray to y = 128,
    past which g(1/2 + t + y) y^6 < 2^-120."""
    with mp.workdps(30):
        s, x0, a = mp.mpc(s.real, s.imag), mp.mpf(0.5) + t, mp.mpf(0.5)
        g0 = _log_derivative_30(x0, mp.mpf(0))
        head = mp.quad(lambda y: (_log_derivative_30(x0, y) - g0) * y ** (-s), [0, a])
        body = mp.quad(
            lambda y: _log_derivative_30(x0, y) * y ** (-s), [a, 2, 8, 32, 128], method="gauss-legendre"
        )
        return complex(head + g0 * a ** (1 - s) / (1 - s) + body)


class TestMellinJ:
    """mellin_j at real and complex s across -6 < Re s < 1, on rays that
    start next to the pole (t = 0.6), at 2 and far right of it, held to
    max(tol, 1e-13 |J|); test_superzeta.py holds s = -5.9 + 3i to the same
    reference."""

    POINTS = [
        (complex(-5.9, 0.0), 0.6),
        (complex(0.5, -4.0), 0.6),
        (complex(0.9, 0.0), 0.6),
        (complex(0.9, 2.0), 0.6),
        (complex(-3.0, 0.0), 1.5),
        (complex(-5.5, 1.0), 1.5),
        (complex(0.5, 0.0), 1.5),
        (complex(-0.5, 0.0), 20.0),
    ]

    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    @pytest.mark.parametrize("s,t", POINTS)
    def test_against_mpmath(self, s, t, tol):
        ref = mellin_reference(s, t)
        assert abs(sz.mellin_j(s, t, tol) - ref) <= max(tol, 1e-13 * abs(ref))
