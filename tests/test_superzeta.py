import math

import numpy as np
import pytest

from rgas import numkernel as nk
from rgas import quadrature
from rgas import superzeta as sz
from rgas.errors import AccuracyError, DomainError, PoleError

import oracles


class TestG2:
    def test_value_with_100_zeros(self, zeros100):
        r = sz.g2(1.0, 0.5, zeros100)
        assert r.value == pytest.approx(0.023096, abs=1e-4)
        assert abs(r.value - oracles.RHO_SUM) <= r.tail.bound

    def test_even_in_t(self, zeros100):
        assert sz.g2(1.2, 0.7, zeros100).value == sz.g2(1.2, -0.7, zeros100).value

    def test_first_term(self, zeros1000):
        gamma1 = float(zeros1000.gammas[0])
        assert 1.0 / (0.25 + gamma1**2) == pytest.approx(0.004998988834, abs=1e-9)

    def test_partial_sums_monotone_in_count(self, zeros100, zeros1000):
        assert zeros1000.count > zeros100.count
        small = sz.g2(1.0, 0.5, zeros100)
        big = sz.g2(1.0, 0.5, zeros1000)
        assert big.partial > small.partial
        # positive terms: partial sums climb toward the closed-form limit
        # and stay bounded by it plus the quoted tail
        for r in (small, big):
            assert r.partial < oracles.RHO_SUM
            assert r.partial <= oracles.RHO_SUM + r.tail.bound

    def test_tail_bound_decreases_with_count(self, zeros100, zeros1000):
        assert sz.g2(1.0, 0.5, zeros1000).tail.bound < sz.g2(1.0, 0.5, zeros100).tail.bound

    def test_domain(self, zeros100):
        with pytest.raises(DomainError):
            sz.g2(0.5, 0.5, zeros100)


class TestSumInverseRho:
    def test_closed_form_cross_check(self, zeros1000):
        r = sz.sum_inverse_rho(zeros1000)
        assert r.value == pytest.approx(oracles.RHO_SUM, abs=1e-5)
        assert r.value == pytest.approx(0.0230957, abs=1e-5)

    def test_closed_form_is_what_it_claims(self):
        expect = 1.0 + 0.5 * oracles.EULER_GAMMA - 0.5 * math.log(4.0 * math.pi)
        assert sz.RHO_SUM_CLOSED_FORM == pytest.approx(expect, abs=1e-15)


class TestG1TwoRoutes:
    def test_two_route_agreement(self, zeros1000):
        for t in (1.0, 1.5, 3.0, 9.5):
            zs = sz.g1_zero_sum(1.0, t, zeros1000)
            ident = sz.g1_via_identity(t)
            assert abs(zs.value - ident) <= zs.tail.bound + 1e-10

    def test_agreement_at_x2(self, zeros1000):
        zs = sz.g1_zero_sum(1.0, 1.5, zeros1000)
        assert zs.value == pytest.approx(sz.g1_via_identity(1.5), abs=1e-8)

    def test_agreement_at_x10_fast_tail(self, zeros1000):
        zs = sz.g1_zero_sum(1.0, 9.5, zeros1000)
        assert zs.value == pytest.approx(sz.g1_via_identity(9.5), abs=1e-8)

    def test_paired_sum_is_real(self, zeros100):
        r = sz.g1_zero_sum(2.0, 1.5, zeros100)
        assert isinstance(r.value, float)

    def test_g1_at_half_equals_rho_sum(self, zeros1000):
        r1 = sz.g1_zero_sum(1.0, 0.5, zeros1000)
        r2 = sz.sum_inverse_rho(zeros1000)
        assert r1.value == pytest.approx(r2.value, abs=1e-12)
        assert r1.value == pytest.approx(0.0230957, abs=1e-5)

    def test_s2_matches_derivative_of_identity_route(self, zeros1000):
        # d/dt sum 1/(x - rho) = -sum 1/(x - rho)^2
        h = 1e-5
        fd = (sz.g1_via_identity(1.5 + h) - sz.g1_via_identity(1.5 - h)) / (2 * h)
        zs = sz.g1_zero_sum(2.0, 1.5, zeros1000)
        assert zs.value == pytest.approx(-fd, abs=1e-6)

    def test_identity_route_bounded_near_pole(self):
        # the explicit 1/(x-1) term cancels the zeta'/zeta pole
        for x in (0.9, 0.95, 1.05, 1.1):
            assert abs(sz.g1_via_identity(x - 0.5)) < 10.0

    def test_identity_route_pole(self):
        with pytest.raises(PoleError):
            sz.g1_via_identity(0.5)

    def test_unpaired_region_rejected(self, zeros100):
        with pytest.raises(DomainError):
            sz.g1_zero_sum(0.8, 1.0, zeros100)


class TestExpansion:
    def test_direct_match_100_zeros(self, zeros100):
        e = sz.zeta_log_derivative_expansion(2.0, zeros100)
        d = nk.zeta_log_derivative(2.0)
        assert abs(e.value - d) <= 1e-3
        assert abs(e.value - d) <= e.tail.bound

    def test_direct_match_1000_zeros(self, zeros1000):
        for s in (2.0, 3.0):
            e = sz.zeta_log_derivative_expansion(complex(s), zeros1000)
            assert abs(e.value - nk.zeta_log_derivative(complex(s))) <= 1e-6

    def test_constant_offset_vanishes(self, zeros1000):
        d2 = sz.zeta_log_derivative_expansion(2.0, zeros1000).value - nk.zeta_log_derivative(
            2.0
        )
        d3 = sz.zeta_log_derivative_expansion(3.0, zeros1000).value - nk.zeta_log_derivative(
            3.0
        )
        assert abs(d2 - d3) <= 2e-3
        assert abs(d2 - d3) <= 1e-7  # realized accuracy is far better

    def test_vanishes_far_right(self, zeros1000):
        e = sz.zeta_log_derivative_expansion(30.5, zeros1000)
        assert abs(e.value) < 1e-6
        assert abs(nk.zeta_log_derivative(30.5)) < 1e-8

    def test_random_points_within_tail_bound(self, zeros1000):
        rng = np.random.default_rng(42)
        for _ in range(20):
            s = complex(rng.uniform(1.5, 6.0), rng.uniform(-10.0, 10.0))
            e = sz.zeta_log_derivative_expansion(s, zeros1000)
            d = nk.zeta_log_derivative(s)
            assert abs(e.value - d) <= e.tail.bound + 1e-10

    def test_poles_rejected(self, zeros100):
        with pytest.raises(PoleError):
            sz.zeta_log_derivative_expansion(1.0, zeros100)
        with pytest.raises(PoleError):
            sz.zeta_log_derivative_expansion(-2.0, zeros100)

    def test_expansion_constant_value(self):
        # validated twice: against the direct kernel at s = 0 and through
        # the oracle-checked energy decomposition
        assert sz.EXPANSION_CONSTANT == pytest.approx(math.log(2 * math.pi) - 1.0, abs=1e-15)
        zp0 = nk.zeta_derivative(0.0).real / nk.zeta(0.0).real
        assert sz.EXPANSION_CONSTANT == pytest.approx(zp0 - 1.0, abs=1e-12)


class TestStabilityUnderExtension:
    def test_zero_sums_stable(self, zeros1000, zeros3000):
        for sigma, t in ((1.0, 0.5), (0.8, 2.0), (1.5, 0.0)):
            small = sz.g2(sigma, t, zeros1000)
            big = sz.g2(sigma, t, zeros3000)
            assert abs(small.value - big.value) <= small.tail.bound
        s_small = sz.g1_zero_sum(1.0, 1.5, zeros1000)
        s_big = sz.g1_zero_sum(1.0, 1.5, zeros3000)
        assert abs(s_small.value - s_big.value) <= s_small.tail.bound


class TestMellin:
    def test_s0_is_log_zeta(self):
        j0 = sz.mellin_j(0.0, 1.5)
        assert j0.imag == 0.0
        assert j0.real == pytest.approx(-math.log(nk.zeta(2.0).real), abs=1e-9)
        assert j0.real == pytest.approx(-0.4977, abs=1e-4)

    def test_half_finite_and_reproducible(self):
        j = sz.mellin_j(0.5, 1.5, tol=1e-9)
        assert -2.0 < j.real < 0.0
        j2 = sz.mellin_j(0.5, 1.5, tol=1e-11)
        assert abs(j - j2) <= 1e-8

    def test_dirichlet_decay_bound(self):
        # |zeta'/zeta(x)| <= 2 ln 2 2^-x (1 + eps) for x >= 10
        for x in (10.0, 15.0, 25.0):
            val = abs(nk.zeta_log_derivative(complex(x)).real)
            assert val <= 2.0 * math.log(2.0) * 2.0**-x * 1.02
        # so the truncated ray beyond y = 40 contributes below 1e-12
        t = 1.5
        tail = 2.0 * math.log(2.0) * 1.02 * 2.0 ** (-(0.5 + t + 40.0)) / math.log(2.0)
        assert tail < 1e-12

    def test_ray_through_pole_rejected(self):
        with pytest.raises(DomainError):
            sz.mellin_j(0.0, 0.4)

    def test_region_rejected(self):
        with pytest.raises(DomainError):
            sz.mellin_j(1.5, 1.5)

    @pytest.mark.parametrize("s", [-6.0, -150.0, complex(-170.0, 2.0), -200.0])
    def test_far_left_rejected(self, s):
        with pytest.raises(DomainError, match="Re s > -6"):
            sz.mellin_j(s, 1.5)

    @pytest.mark.parametrize("t", [0.6, 1.5, 20.0])
    def test_left_edge_finite(self, t):
        # the far-left edge, where |J| ~ 1e3 and a sliver at u = 0 that was
        # bounded but never added once moved J by up to 1.9: against the
        # mpmath quadrature of test_differential.py at 30 digits
        from test_differential import mellin_reference

        s = complex(-5.9, 3.0)
        ref = mellin_reference(s, t)
        for tol in (1e-10, 1e-12):
            assert abs(sz.mellin_j(s, t, tol) - ref) <= max(tol, 1e-13 * abs(ref))

    @pytest.mark.parametrize("s,tol", [(0.0, 1e-13), (complex(-5.9, 3.0), 1e-10)])
    def test_unconverged_rows_are_an_accuracy_error(self, monkeypatch, s, tol):
        # rows whose leaves may not be split stop at their first panels,
        # far above tol and their rounding floor
        monkeypatch.setattr(quadrature, "_MAX_DEPTH", 0)
        with pytest.raises(AccuracyError, match="mellin_j: error estimate"):
            sz.mellin_j(s, 1.5, tol)


class TestParamsValidation:
    def test_minimum_zero_count(self, zeros200):
        # every zero sum takes T* from _tail_start, which refuses the table
        nine = zeros200.head(9)
        for call in (
            lambda: sz.g2(1.0, 0.5, nine),
            lambda: sz.sum_inverse_rho(nine),
            lambda: sz.g1_zero_sum(1.0, 1.5, nine),
            lambda: sz.g1_zero_sum(2.0, 1.5, nine),
            lambda: sz.zeta_log_derivative_expansion(2.0, nine),
        ):
            with pytest.raises(DomainError, match="at least 10 zeros"):
                call()
        assert sz.sum_inverse_rho(zeros200.head(10)).value > 0.0

    def test_tail_estimate_sanity(self):
        with pytest.raises(DomainError):
            sz.TailEstimate(value=1.0, bound=0.01)
        with pytest.raises(DomainError):
            sz.TailEstimate(value=0.0, bound=-1.0)
