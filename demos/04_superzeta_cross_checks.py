"""Sums over the Riemann zeros, checked two independent ways.

Truncated zero sums are completed with a smooth-density tail (the local
density of ordinates is theta'(gamma)/pi, and the tail integral starts at
the Gram point matching the table size).  The same quantities are then
recomputed with no zeros at all, through the pole/zero expansion of
zeta'/zeta, and the two routes are compared.
"""

import numpy as np

from rgas import numkernel as nk
from rgas import superzeta as sz
from rgas import zerofinder as zf

table = zf.find_zeros(500)

print("=== the basic constant: sum over zeros of 1/rho ===")
r = sz.sum_inverse_rho(table)
print(f"500-zero partial sum        : {r.partial:.10f}")
print(f"+ smooth-density tail       : {r.value:.10f}")
print(f"closed form (no zeros)      : {sz.RHO_SUM_CLOSED_FORM:.10f}")
print(f"difference                  : {r.value - sz.RHO_SUM_CLOSED_FORM:+.2e}")
print(f"(tail bound quoted: {r.tail.bound:.1e} -- deliberately conservative)")

print("\n=== two routes to the paired zero sum at s = 1 ===")
print("t      zero sum + tail       identity route        diff")
for t in (1.0, 1.5, 3.0, 9.5):
    a = sz.g1_zero_sum(1.0, t, table)
    b = sz.g1_via_identity(t)
    print(f"{t:4}   {a.value:.12f}       {b:.12f}      {a.value - b:+.1e}")

print("\n=== rebuilding zeta'/zeta from its poles and zeros ===")
print("s        expansion             direct kernel         diff")
for s in (1.5, 2.0, 3.0, 6.0):
    e = sz.zeta_log_derivative_expansion(complex(s), table)
    d = nk.zeta_log_derivative(complex(s))
    print(f"{s:4}   {e.value.real:+.12f}      {d.real:+.12f}     {abs(e.value - d):.1e}")
print(f"expansion constant ln(2 pi) - 1 = {sz.EXPANSION_CONSTANT:.12f}")

print("\n=== the Mellin transform of zeta'/zeta ===")
j0 = sz.mellin_j(0.0, 1.5)
print(f"J(0, 3/2)  = {j0.real:+.10f}   (analytically -ln zeta(2) = {-np.log(nk.zeta(2.0).real):+.10f})")
jh = sz.mellin_j(0.5, 1.5)
print(f"J(1/2, 3/2) = {jh.real:+.10f}   (finite: the ray starts right of the pole)")
