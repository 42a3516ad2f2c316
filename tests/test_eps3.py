"""The closed form of eps3: the kernel h(z) = z e^z E1(z) - 1, the pair
integrals and the density tail, against mpmath and against the oracle."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgas import numkernel as nk
from rgas import thermo as th
from rgas.errors import DomainError
from rgas.superzeta import _tail_start

mp = pytest.importorskip("mpmath")

# the breakdown domain: kappa = lam/beta in [1e-3, 1e3], gamma in [14, 1e5]
LOG_KAPPA = st.floats(math.log(1e-3), math.log(1e3))
LOG_GAMMA = st.floats(math.log(14.0), math.log(1e5))


def _h_ref(z: complex) -> complex:
    with mp.workdps(30):
        w = mp.mpc(z.real, z.imag)
        return complex(w * mp.exp(w) * mp.e1(w) - 1)


def _pair_ref(gamma, beta, lam):
    """I(gamma) to the working precision of mpmath.  z e^z E1(z) - 1 loses
    about log10|z| digits to the subtraction and Re h as many again, so
    those are added."""
    z = -(lam / beta) * mp.mpc(0.5, gamma)
    with mp.workdps(mp.mp.dps + 2 * max(0, int(mp.log10(abs(z)))) + 5):
        return -2 / (beta * lam) * mp.re(z * mp.exp(z) * mp.e1(z) - 1)


def _eps3_ref(gammas, beta: float, lam: float) -> float:
    """-lam (sum of I over the table + integral of I against the density
    (1/2pi) ln(gamma/2pi) from T* to infinity), at 30 digits, the tail
    integrated in gamma itself and split where I changes scale."""
    t_star = _tail_start(gammas.size)
    with mp.workdps(30):
        b, lm = mp.mpf(beta), mp.mpf(lam)
        pairs = mp.fsum(_pair_ref(mp.mpf(float(g)), b, lm) for g in gammas)
        cuts = sorted({t_star * f for f in (1.0, 2.0, 10.0, 100.0)} | {
            c / (lam / beta) for c in (1.0, 10.0, 100.0) if c / (lam / beta) > t_star
        })
        tail = mp.quad(
            lambda g: _pair_ref(g, b, lm) * mp.log(g / (2 * mp.pi)) / (2 * mp.pi),
            [mp.mpf(c) for c in cuts] + [mp.inf],
        )
        return float(-lm * (pairs + tail))


class TestKernel:
    @settings(max_examples=300, deadline=None)
    @given(LOG_KAPPA, LOG_GAMMA)
    def test_matches_mpmath(self, log_kappa, log_gamma):
        z = -math.exp(log_kappa) * complex(0.5, math.exp(log_gamma))
        h = complex(nk._z_exp_e1(np.array([z]))[0][0])
        ref = _h_ref(z)
        assert abs(h - ref) <= 1e-13 * abs(ref)
        # Re h can be far below |h| (I(gamma) changes sign near lam/beta = 4);
        # its scale is that of its two leading terms, Re(-1/z) and 2/z^2
        assert abs(h.real - ref.real) <= 1e-13 * (abs(ref.real) + abs(ref) ** 2)

    def test_elementwise(self):
        z = -np.geomspace(1e-3, 1e3, 40) * (0.5 + 1j * np.geomspace(14.0, 1e5, 40))
        h, g = nk._z_exp_e1(z)
        for k in range(z.size):
            alone = nk._z_exp_e1(z[k : k + 1])
            assert h[k] == alone[0][0] and g[k] == alone[1][0]

    @pytest.mark.parametrize("z", [0.0, complex(math.nan, 1.0), math.inf])
    def test_outside_the_domain_rejected(self, z):
        with pytest.raises(DomainError):
            nk._z_exp_e1(np.array([z]))

    @pytest.mark.parametrize("z", [-1.0, complex(-3.0, 0.0), complex(-3.0, -0.0)])
    def test_negative_axis_is_its_upper_side(self, z):
        # E1(-x + i0) = -Ei(x) - i pi, also for a signed-zero imaginary part
        h = complex(nk._z_exp_e1(np.array([z]))[0][0])
        with mp.workdps(30):
            x = -z.real
            ref = complex(-x * mp.exp(-x) * (-mp.ei(x) - 1j * mp.pi) - 1)
        assert abs(h - ref) <= 1e-13 * abs(ref)


# both sides of the cut, 1e-10 .. 1e-1 off it, for |z| in (3, 50]
NEAR_CUT = [
    complex(-x, side * d)
    for x in np.geomspace(3.01, 50.0, 12)
    for d in np.geomspace(1e-10, 1e-1, 10)
    for side in (1.0, -1.0)
]

# evaluates NEAR_CUT (JSON pairs on stdin) and prints h as JSON pairs
_NEAR_CUT_CHILD = """
import json, sys
import numpy as np
from rgas import numkernel as nk
z = np.array([complex(a, b) for a, b in json.load(sys.stdin)])
h = nk._z_exp_e1(z)[0]
print(json.dumps([[v.real, v.imag] for v in h.tolist()]))
"""


class TestNearTheCut:
    def test_every_evaluation_terminates(self):
        # a kernel loop that waits on convergence can stall next to the cut,
        # so the batch runs in a child process with a deadline
        src = os.path.dirname(os.path.dirname(os.path.abspath(nk.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", _NEAR_CUT_CHILD],
            input=json.dumps([[z.real, z.imag] for z in NEAR_CUT]),
            capture_output=True,
            text=True,
            timeout=60,
            cwd=src,
        )
        assert proc.returncode == 0, proc.stderr
        values = [complex(a, b) for a, b in json.loads(proc.stdout)]
        for z, h in zip(NEAR_CUT, values):
            ref = _h_ref(z)
            assert abs(h - ref) <= 1e-13 * max(1.0, abs(ref)), z


class TestEps3:
    @pytest.mark.parametrize(
        "lam,beta,count",
        [
            (0.01, 10.0, 100),
            (0.05, 1.0, 200),
            (0.3, 3.0, 300),
            (1.0, 1.0, 300),
            (2.0, 0.5, 200),
            (100.0, 0.1, 100),
        ],
    )
    def test_matches_mpmath(self, zeros3000, lam, beta, count):
        table = zeros3000.head(count)
        eps3 = th.energy_breakdown(th.EnsembleSpec.continuum(lam), beta, table).eps3
        assert eps3 == pytest.approx(_eps3_ref(table.gammas, beta, lam), rel=1e-12)

    @pytest.mark.parametrize("beta", [1.0, 10.0, 100.0])
    def test_total_meets_oracle_at_small_lam(self, zeros1000, beta):
        bd = th.energy_breakdown(th.EnsembleSpec.continuum(0.01), beta, zeros1000)
        assert abs(bd.total - bd.oracle) < 1e-4

    def test_total_within_abs_error_on_a_jittered_grid(self, zeros3000):
        # one point in each cell of a 4 x 4 x 4 grid over log lam in
        # [0.01, 100], log beta in [0.1, 10] and M in [100, 3000]
        rng = np.random.default_rng(20261018)
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    ul, ub, um = (np.array([i, j, k]) + rng.random(3)) / 4
                    lam = math.exp(math.log(0.01) + ul * math.log(1e4))
                    beta = math.exp(math.log(0.1) + ub * math.log(1e2))
                    table = zeros3000.head(100 + round(um * 2900))
                    bd = th.energy_breakdown(th.EnsembleSpec.continuum(lam), beta, table)
                    assert abs(bd.total - bd.oracle) <= bd.abs_error, (lam, beta, table.count)
