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
    "03_hunting_riemann_zeros.py": "789332c4fd32e7408a4f5287bb36e6cd9b6fb97cf65658891d1326b7a9f4f621",
    "04_superzeta_cross_checks.py": "299c8ea03f61edad5f72349da0f5ae6ef02da2ec807c7571bcce8c29237fc6e9",
    "05_quenched_thermodynamics.py": "4e82d6d6a0608ba4958ebd36b0c87633075b2d54bd98d20657a3402310c9a495",
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
