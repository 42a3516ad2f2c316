import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgas import quadrature as q
from rgas.errors import ConvergenceError, DomainError

import oracles


def runge(x):
    return 1.0 / (1.0 + 25.0 * x * x)


# (factory, a, b, exact); the singular integrands are integrated as they
# stand, with no endpoint flags: a leaf next to a singular end keeps
# splitting while its error is above its share
CLOSED_FORMS = [
    (lambda x: x * x, 0.0, 1.0, 1.0 / 3.0),
    (np.sin, 0.0, math.pi, 2.0),
    (lambda x: x, 0.0, 1.0, 0.5),
    (np.exp, 0.0, 1.0, math.e - 1.0),
    (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, math.pi / 4.0),
    (runge, 0.0, 4.0, math.atan(20.0) / 5.0),
    (np.sqrt, 0.0, 1.0, 2.0 / 3.0),
    (lambda x: -np.log(1.0 - x), 0.0, 1.0, 1.0),
    (np.log, 0.0, 1.0, -1.0),
    (lambda x: np.cos(10.0 * x), 0.0, 2.0, math.sin(20.0) / 10.0),
    (lambda x: x ** 1.5, 0.0, 4.0, 2.0 / 5.0 * 4.0**2.5),
    (lambda x: np.exp(-x) * x, 0.0, 30.0, 1.0 - 31.0 * math.exp(-30.0)),
]


class TestIntegrate:
    def test_suite_values_and_error_bounds(self):
        for f, a, b, exact in CLOSED_FORMS:
            res = q.integrate(f, a, b, 1e-10)
            true_err = abs(res.value - exact)
            assert res.converged
            assert true_err <= 1e-10, f"{f}: {true_err}"
            assert true_err <= res.abs_error, "reported error must bound the true error"

    def test_log_singularity_example(self):
        res = q.integrate(lambda s: -np.log(1.0 - s), 0.0, 1.0, 1e-10)
        assert abs(res.value - 1.0) <= 1e-10

    def test_tightening_tolerance_reduces_achieved_error(self):
        exact = math.atan(20.0) / 5.0
        achieved = []
        for tol in (1e-4, 1e-6, 1e-8, 1e-10):
            achieved.append(abs(q.integrate(runge, 0.0, 4.0, tol).value - exact))
        for coarse, fine in zip(achieved, achieved[1:]):
            assert fine <= max(coarse / 2.0, 2e-15)

    def test_budget_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(q, "_MAX_PANELS", 64)
        with pytest.raises(ConvergenceError, match="64-panel budget exhausted"):
            q.integrate(lambda x: np.abs(x - 1.0 / 3.0) ** -0.9, 0.0, 1.0, 1e-12)

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            q.integrate(np.sin, 1.0, 0.0, 1e-8)

    def test_complex_integrand_rejected(self):
        with pytest.raises(DomainError, match="must be real"):
            q.integrate(lambda x: np.exp(1j * x), 0.0, 1.0, 1e-8)

    def test_one_integrand_call_per_panel_set(self):
        calls = []

        def f(x):
            calls.append(x.size)
            return np.log(1.0 - x)

        res = q.integrate(f, 0.5, 1.0, 1e-10)
        assert res.value == -0.8465735902736642
        assert res.abs_error == 3.6662362324070254e-11
        assert res.evaluations == 825
        # one call per round: the first panel, then both halves of the one
        # leaf next to the singular end, round by round as the plain-loop
        # reference splits
        value, err, rounds = _rows_reference(lambda x: np.log(1.0 - x), np.ones_like, [0.5, 1.0], 1e-10)
        assert (res.value, res.abs_error) == (value, err)
        assert calls == [15] + [30] * (rounds - 1)
        assert sum(calls) == res.evaluations

    def test_panels_match_single_panel_rounding(self):
        def reference(f, a, b):
            # one GK15 pass over [a, b] alone: the per-panel rule, row by row
            c, h = 0.5 * (a + b), 0.5 * (b - a)
            y = np.asarray(f(c + h * q._NODES))
            i15 = h * np.sum(q._WK * y)
            i7 = h * np.sum(q._WGAUSS * y[q._GAUSS_IDX])
            return (complex(i15), complex(i7)) if np.iscomplexobj(y) else (float(i15), float(i7))

        rng = np.random.default_rng(11)
        integrands = (
            lambda x: np.exp(-x) * np.log(x),
            lambda x: np.exp(7j * x) * np.log(x),
            lambda x: 1.0 / (1.0 + 25.0 * x * x),
        )
        for f in integrands:
            for n_panels in (1, 2, 7, 40, 300):
                edges = np.sort(rng.uniform(0.01, 3.0, n_panels + 1))
                lo, hi = edges[:-1], edges[1:]
                x = 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * q._NODES
                i15, i7 = q._gk15(lo, hi, f(x))
                assert list(zip(i15.tolist(), i7.tolist())) == [reference(f, a, b) for a, b in zip(lo, hi)]

    def test_row_tolerance_is_floored_at_its_rounding(self):
        # -x ln x on [0, 1] vanishes at 0, where a leaf has no depth limit and
        # stays above its own floor: asked for 1e-300, the row stops once its
        # error is within 4 times the sum of its leaves' floors, unconverged
        rows = q.RowSet(lambda r, x: -x * np.log(x), [q.dyadic_edges(-20, 0)], [1e-300], None, list)
        ((res,),) = q.integrate_rows(rows)
        assert not res.converged
        assert res.evaluations <= 500
        assert abs(res.value - 0.25) <= res.abs_error <= 2.0 * q._PANEL_ROUNDING * 0.25

    def test_nonfinite_integrand_rejected(self):
        def bad(x):
            with np.errstate(invalid="ignore"):
                return np.sqrt(x - 0.5)  # nan left of 0.5

        with pytest.raises(DomainError):
            q.integrate(bad, 0.0, 1.0, 1e-8)


class TestExpWeight:
    def test_normalization(self):
        assert q.integrate_exp_weight(lambda w: np.ones_like(w), 1.0, 1e-12).value == pytest.approx(
            1.0, abs=1e-12
        )

    def test_mean(self):
        assert q.integrate_exp_weight(lambda w: w, 2.0, 1e-12).value == pytest.approx(
            0.5, abs=1e-12
        )

    def test_second_moment(self):
        assert q.integrate_exp_weight(lambda w: w * w, 2.0, 1e-12).value == pytest.approx(
            0.5, abs=1e-12
        )

    def test_growth_violation(self):
        with pytest.raises(DomainError):
            q.integrate_exp_weight(lambda w: np.exp(3.0 * w), 1.0, 1e-8)

    def test_bad_rate(self):
        with pytest.raises(DomainError):
            q.integrate_exp_weight(lambda w: w, -1.0, 1e-8)


class TestPrincipalValue:
    def test_odd_symmetry(self):
        res = q.principal_value(lambda x: np.ones_like(x), 1.0, 0.0, 2.0, 1e-12)
        assert abs(res.value) <= 1e-13

    def test_x_over_x_minus_1(self):
        res = q.principal_value(lambda x: x, 1.0, 0.0, 2.0, 1e-12)
        assert res.value == pytest.approx(2.0, abs=1e-12)

    def test_exponential_ray_matches_ei_closed_form(self):
        # PV int_0^inf om e^-om/(om-1) d om = 1 - e^-1 Ei(1)
        res = q.principal_value(lambda x: x * np.exp(-x), 1.0, 0.0, math.inf, 1e-11)
        expect = 1.0 - math.exp(-1.0) * oracles.EI_1
        assert res.value == pytest.approx(expect, abs=1e-10)
        assert res.value == pytest.approx(0.3028, abs=1e-4)

    def test_split_point_independence(self):
        # PV over [0, 2] == PV over [0, 1.5] plus the regular rest
        tol = 1e-10
        h = lambda x: np.cos(x)
        whole = q.principal_value(h, 1.0, 0.0, 2.0, tol)
        left = q.principal_value(h, 1.0, 0.0, 1.5, tol)
        rest = q.integrate(lambda x: np.cos(x) / (x - 1.0), 1.5, 2.0, tol)
        assert abs(whole.value - (left.value + rest.value)) <= 2.0 * tol

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=0.15, max_value=1.85))
    def test_smooth_h_shifted_pole(self, pole):
        # PV int_0^2 (x - pole + 1)/(x - pole) = 2 + ln((2-pole)/pole)
        res = q.principal_value(lambda x: x - pole + 1.0, pole, 0.0, 2.0, 1e-11)
        expect = 2.0 + math.log((2.0 - pole) / pole)
        assert res.value == pytest.approx(expect, abs=1e-9)

    def test_pole_on_boundary_rejected(self):
        with pytest.raises(DomainError):
            q.principal_value(lambda x: x, 0.0, 0.0, 2.0, 1e-8)

    def test_h_sees_one_side_of_the_pole_per_call(self):
        calls = []

        def h(x):
            calls.append(np.array(x))
            return np.cos(25.0 * x)

        q.principal_value(h, 1.0, 0.0, 2.0, 1e-12)
        assert calls[0].tolist() == [1.0]
        assert len(calls) > 3
        for x in calls[1:]:
            assert np.all(x < 1.0) or np.all(x > 1.0)

    def test_failing_h_is_called_once(self):
        calls = []

        def h(x):
            calls.append(x.size)
            if x.size > 1:
                raise ValueError("h fails on panels")
            return np.ones_like(x)

        with pytest.raises(ValueError, match="h fails on panels"):
            q.principal_value(h, 1.0, 0.0, 2.0, 1e-10)
        # the pole probe, then the left half's panel set, which raises
        assert len(calls) == 2 and calls[0] == 1

    def test_node_on_the_pole_is_a_convergence_error(self):
        # a leaf that ends at the pole 0 splits while its error is above its
        # share, and (h(x) - h(0))/x = sign(x)/sqrt|x| keeps it above; on a
        # subnormal interval a few splits round a node onto 0, where the
        # difference quotient is 0/0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="rounds onto the pole"):
                q.principal_value(lambda x: np.sqrt(np.abs(x)), 0.0, -1e-320, 1e-320, 1e-200)


def _rows_reference(weight, kernel, edges, tol):
    """One row of integrate_rows, refined on its own by the same rule: split
    every leaf with err > tol/(2 n) that is above its rounding floor until
    the sum is within tol/2.  Returns the value, its error and the number
    of rounds."""
    leaves = list(zip(edges[:-1], edges[1:]))
    done = []
    rounds = 0
    while True:
        rounds += 1
        lo = np.array([p[0] for p in leaves])
        hi = np.array([p[1] for p in leaves])
        x = 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * q._NODES
        i15, i7 = q._gk15(lo, hi, weight(x) * kernel(x))
        err = np.abs(i15 - i7) + q._PANEL_ROUNDING * np.abs(i15)
        done = sorted(done + list(zip(lo.tolist(), hi.tolist(), i15.tolist(), err.tolist())))
        n = len(done)
        total = 0.0
        for p in done:
            total += p[3]
        split = [p for p in done if p[3] * 2.0 * n > tol and p[3] > 2.0 * q._PANEL_ROUNDING * abs(p[2])]
        if total <= 0.5 * tol or not split:
            value = 0.0
            for p in done:
                value += p[2]
            return value, total, rounds
        done = [p for p in done if p not in split]
        leaves = [(a, m) for a, b, _, _ in split for m in [0.5 * (a + b)]]
        leaves += [(m, b) for a, b, _, _ in split for m in [0.5 * (a + b)]]


class TestIntegrateRows:
    RATES = (0.05, 0.7, 3.0, 40.0, 900.0)

    @staticmethod
    def rows(rates, kinds, tol, kernel=np.cos):
        """The rows of exp(-rate s) (kind 0) or s exp(-rate s) (kind 1)
        against kernel, on [0, 2^4] graded toward 0, each to tol, as one set
        whose finish is the list of their QuadResults."""
        rate = np.array(rates, dtype=float)
        kind = np.array(kinds)

        def weight(r, x):
            w = np.exp(-rate[r, None] * x)
            return np.where(kind[r, None] == 1, x * w, w)

        edges = [q.dyadic_edges(-max(1, math.ceil(math.log2(a))), 4) for a in rates]
        return q.RowSet(weight, edges, [tol] * len(rates), kernel, list)

    def test_closed_forms(self):
        # int_0^16 e^(-a s) cos s ds and int_0^16 s e^(-a s) ds: one set with
        # the kernel and one without, in one call
        with_cos, plain = q.integrate_rows(
            self.rows(self.RATES, [0] * 5, 1e-11), self.rows(self.RATES, [1] * 5, 1e-11, None)
        )
        rates, kinds = self.RATES + self.RATES, [0] * 5 + [1] * 5
        for a, kind, res in zip(rates, kinds, with_cos + plain, strict=True):
            z = complex(a, -1.0)
            if kind == 0:
                exact = ((1.0 - np.exp(-16.0 * z)) / z).real
            else:
                exact = (1.0 - (1.0 + 16.0 * a) * math.exp(-16.0 * a)) / (a * a)
            assert res.converged
            assert abs(res.value - exact) <= max(res.abs_error, 1e-15 * abs(exact))
            assert res.abs_error <= 1e-11

    def test_row_alone_equals_row_in_a_block(self):
        rates = [0.3, 7.0, 0.3, 55.0, 2.0]
        kinds = [0, 1, 1, 0, 0]
        (together,) = q.integrate_rows(self.rows(rates, kinds, 1e-10))
        for r in range(5):
            rows = self.rows(rates[r : r + 1], kinds[r : r + 1], 1e-10)
            (alone,) = q.integrate_rows(rows)
            assert alone == [together[r]]
            weight = lambda x: rows.weight(np.zeros(x.shape[0], int), x)
            value, err, _ = _rows_reference(weight, np.cos, rows.edges[0], 1e-10)
            assert (alone[0].value, alone[0].abs_error) == (value, err)

    def test_blocks_share_one_table(self, monkeypatch):
        # every node reaches the kernel once per call, across row blocks too,
        # and rows without the kernel never reach it
        monkeypatch.setattr(q, "_ROW_BLOCK", 3)
        sent = []

        def kernel(s):
            sent.append(s.copy())
            return np.cos(s)

        rates = [0.2 * k + 0.1 for k in range(10)]
        results, (plain,) = q.integrate_rows(
            self.rows(rates[:9], [0] * 9, 1e-12, kernel), self.rows(rates[9:], [0], 1e-12, None)
        )
        nodes = np.concatenate(sent)
        assert np.unique(nodes).size == nodes.size
        a = rates[9]
        assert plain.value == pytest.approx((1.0 - math.exp(-16.0 * a)) / a, abs=1e-12)
        (alone,) = q.integrate_rows(self.rows(rates[:9], [0] * 9, 1e-12))
        assert results == alone

    @pytest.mark.parametrize("block", [256, 4])
    def test_sets_in_one_call_equal_each_set_alone(self, monkeypatch, block):
        # each set's finish is what the set gives alone, bit for bit, also
        # where the row blocks cut across the sets
        monkeypatch.setattr(q, "_ROW_BLOCK", block)
        a = self.rows([0.3, 7.0, 55.0], [0, 1, 0], 1e-11)
        b = self.rows([0.7, 2.0], [1, 0], 1e-10, None)
        b = b._replace(finish=lambda results: sum(r.value for r in results))
        c = self.rows([0.3, 900.0, 3.0], [1, 0, 0], 1e-12, np.sin)
        together = q.integrate_rows(a, b, c)
        assert together == [q.integrate_rows(a)[0], q.integrate_rows(b)[0], q.integrate_rows(c)[0]]

    def test_sets_that_name_one_kernel_share_its_table(self):
        # two sets with the same kernel send each distinct node to it once,
        # the nodes of both sets alone; a set without a kernel, here on
        # [16, 32], sends it none
        sent = []

        def kernel(s):
            sent.append(s.copy())
            return np.cos(s)

        a = self.rows([0.3, 7.0], [0, 1], 1e-11, kernel)
        c = self.rows([0.3, 2.0, 55.0], [1, 0, 0], 1e-12, kernel)
        b = q.RowSet(lambda r, x: np.exp(-x), [np.array([16.0, 32.0])], [1e-12], None, list)
        q.integrate_rows(a, b, c)
        nodes = np.concatenate(sent)
        assert np.unique(nodes).size == nodes.size
        assert nodes.max() < 16.0
        alone = []
        for rows in (a, c):
            sent.clear()
            q.integrate_rows(rows)
            alone += sent
        assert np.array_equal(np.unique(nodes), np.unique(np.concatenate(alone)))

    def test_budget_and_depth(self, monkeypatch):
        rows = self.rows([1.0], [0], 1e-13)
        monkeypatch.setattr(q, "_MAX_PANELS", 8)
        with pytest.raises(ConvergenceError, match="8-panel budget exhausted"):
            q.integrate_rows(rows)
        monkeypatch.setattr(q, "_MAX_PANELS", 4096)
        monkeypatch.setattr(q, "_MAX_DEPTH", 0)
        ((res,),) = q.integrate_rows(rows)
        assert not res.converged
        assert res.evaluations == 15 * (len(rows.edges[0]) - 1)

    def test_rows_past_the_budget_fail_in_row_order(self, monkeypatch):
        # two rows of |x - 1/3|^-0.9 on [0, 1]: row 0 starts from one panel
        # and passes 8 leaves rounds later than row 1, which starts from 8
        # and passes them in its first round; the rows' errors differ by tol
        monkeypatch.setattr(q, "_MAX_PANELS", 8)
        edges = [np.array([0.0, 1.0]), np.linspace(0.0, 1.0, 9)]

        def weight(r, x):
            return np.abs(x - 1.0 / 3.0) ** -0.9

        def call(finish):
            return q.integrate_rows(q.RowSet(weight, edges, [1e-12, 1e-11], None, finish))

        alone = []
        for k in (0, 1):
            rows = q.RowSet(weight, [edges[k]], [[1e-12, 1e-11][k]], None, list)
            with pytest.raises(ConvergenceError, match="8-panel budget exhausted") as error:
                q.integrate_rows(rows)
            alone.append(str(error.value))
        assert alone[0] != alone[1]
        # a finish raises the rows' errors in the order it reads them, and
        # the call raises the first failed row that its finish did not read
        for finish, first in ((list, 0), (lambda rows: [rows[1], rows[0]], 1), (lambda rows: None, 0)):
            with pytest.raises(ConvergenceError) as error:
                call(finish)
            assert str(error.value) == alone[first]

    def test_tolerance_below_the_rounding_floor(self):
        # int_0^1 1e6 e^x: one panel is at its rounding floor, 50 eps |K15|,
        # far above 1e-12; it is not split, and the row ends unconverged with
        # that floor as its error
        rows = q.RowSet(lambda r, x: 1e6 * np.exp(x), [np.array([0.0, 1.0])], [1e-12], None, list)
        ((res,),) = q.integrate_rows(rows)
        assert not res.converged
        assert res.evaluations == 15
        assert abs(res.value - 1e6 * (math.e - 1.0)) <= res.abs_error <= 100.0 * np.finfo(float).eps * res.value

    def test_nonfinite_integrand_rejected(self):
        with np.errstate(invalid="ignore"), pytest.raises(DomainError, match="not finite"):
            q.integrate_rows(self.rows([1.0], [0], 1e-10, lambda s: np.sqrt(1.0 - s)))

    def test_dyadic_edges(self):
        assert q.dyadic_edges(-2, 1).tolist() == [0.0, 0.25, 0.5, 1.0, 2.0]
        # one read-only array per (first, last), shared by every caller
        assert q.dyadic_edges(-2, 1) is q.dyadic_edges(-2, 1)
        with pytest.raises(ValueError):
            q.dyadic_edges(-2, 1)[0] = 1.0
