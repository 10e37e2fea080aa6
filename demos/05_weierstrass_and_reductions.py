"""The Weierstrass-side picture and the classical reductions.

e-values as weight-2 lattice data, the curve family with its 2-torsion
translations, the anharmonic maps and the accessory map h_W = (c tau + d)^2 h
read from each type's stored matrix, and the Landen/duplication functional
identities between local solutions.
"""

import cmath

from darboux import (
    EValues,
    ParamTuple,
    accessory_weierstrass,
    anh_on_E,
    assoc_lame_subgroup,
    duplication_pair,
    evalues_from_modulus,
    evalues_from_tau,
    half_period_shift,
    lame_subgroup,
    landen_pair,
    wp_tau,
)
from darboux.weierstrass import CurvePoint
from darboux.reductions import (
    duplication_potential_identity,
    landen_potential_identity,
)

tau = 0.31 + 1.13j
e = evalues_from_tau(tau)
print(f"lattice e-values at tau = {tau}:")
for j, ej in enumerate(e, 1):
    print(f"  e{j} = {ej:.10f}")
print(f"  sum = {abs(sum(e)):.2e}")
print(f"  p(1/2) - e1 = {abs(wp_tau(0.5, tau) - e[0]):.2e}")

print("\nhalf-period translation as 2-torsion addition on the cubic:")
ev = EValues(*e)
z = 0.17 + 0.05j
x = wp_tau(z, tau)
y = cmath.sqrt(4 * x**3 - ev.g2 * x - ev.g3)
pdot = (wp_tau(z + 1e-6, tau) - wp_tau(z - 1e-6, tau)) / 2e-6
if abs(pdot - y) > abs(pdot + y):
    y = -y
pt = CurvePoint(x=x, y=y, tau=tau)
shifted = half_period_shift(1, pt, ev)
print(f"  x(P + T1)      = {shifted.x:.10f}")
print(f"  p(z + omega1)  = {wp_tau(z + 0.5, tau):.10f}")

print("\nanharmonic maps move the curve family; accessory parameters only scale:")
for tag in "IABCDE":
    q = anh_on_E(tag, pt)
    print(f"  {tag}: tau -> {q.tau:.6f}   h -> {accessory_weierstrass(tag, 1.0, tau):.6f}")

print("\nthe six transformations preserving the one-potential (sn^2) form:")
print(" ", [r.name for r in lame_subgroup()], "(an S3)")
print("the four preserving the two-potential (cd^2, sn^2) form:")
print(" ", [r.name for r in assoc_lame_subgroup()], "(a Klein four-group)")

print("\nLanden descent between local solutions (half argument, new modulus):")
k, u = 0.6, 0.11 + 0.06j
e_sn, e_ns = landen_potential_identity(u, k)
print(f"  supporting potential identities: {e_sn:.2e}, {e_ns:.2e}")
lhs, rhs = landen_pair(0.0, 1.0, 0.83, k, u)
print(f"  Dl(xi,0,0,nu; h*; (1+k')u, k*) / (1+k')^(xi+1) Dl(xi,xi,nu,nu; h; u,k)"
      f" - 1 = {abs(lhs / rhs - 1):.2e}")

print("\nduplication (doubled argument, same modulus):")
print(f"  four-term potential identity: {duplication_potential_identity(u, k):.2e}")
lhs, rhs = duplication_pair(0.31, 1.7, k, u)
print(f"  Dl(xi,0,0,0; h/4; 2u,k) / 2^(xi+1) Dl(xi,xi,xi,xi; h; u,k) - 1 "
      f"= {abs(lhs / rhs - 1):.2e}")
