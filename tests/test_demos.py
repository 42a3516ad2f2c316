"""Each demo prints the same bytes on every run; these are pinned."""

import hashlib
import os
import subprocess
import sys

import pytest

import rgas

SRC = os.path.dirname(os.path.dirname(os.path.abspath(rgas.__file__)))
DEMOS = os.path.join(os.path.dirname(SRC), "demos")

# sha256 of each demo's stdout
DEMO_DIGESTS = {
    "01_special_function_kernels.py": "79f679c6e2df428a6e31030d869deae07eef48e9eac1d011fb072b52901c94b7",
    "02_prime_gas_partition_functions.py": "3a5cd6e0de5a539468be0b468b8e05d615b10de04fc36dcd8745ac4d7421f4d6",
    "03_hunting_riemann_zeros.py": "34079310555d92378332a009abb3da72896e96f682a1307ebdccbe611c4d79c6",
    "04_superzeta_cross_checks.py": "299c8ea03f61edad5f72349da0f5ae6ef02da2ec807c7571bcce8c29237fc6e9",
    "05_quenched_thermodynamics.py": "be018350d31e91ef63c909fd27cd3fdb508d3bab51f968a8ec50ac80cc53b3ba",
}


def test_every_demo_is_pinned():
    assert sorted(n for n in os.listdir(DEMOS) if n.endswith(".py")) == sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_stdout_bytes(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, os.path.join(DEMOS, name)],
        capture_output=True,
        timeout=120,
        env=env,
        check=True,
    )
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_DIGESTS[name]
