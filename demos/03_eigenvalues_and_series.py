"""Local series solutions, terminating polynomials, and the function spectrum.

The accessory parameter h is free in the equation; special values make the
local series terminate (polynomials, from a tridiagonal eigenproblem) or
extend its convergence domain (roots of an infinite continued fraction,
found from the eigenvalues of the recursion's truncation matrix), and the
coefficient ratios feel the difference (Poincare/Perron).
"""

import numpy as np

from darboux import (
    ParamTuple,
    convergence_domain,
    darboux_function_eigenvalues,
    dl_coefficients,
    dl_eval,
    infinite_cf,
    polynomial_eigenvalues,
    ratio_diagnostic,
    termination_check,
)
from darboux.elliptic import jacobi_sn_cn_dn

k = 0.6

print("terminating channels and their closed-form eigenvalues:")
for exps, label, target in [
    ((0, -1, -1, 1), "sn      ", 1 + k * k),
    ((-1, 0, -1, 1), "cn      ", 1.0),
    ((-1, -1, 0, 1), "dn      ", k * k),
    ((0, 0, -1, 2), "sn cn   ", 4 + k * k),
    ((0, 0, 0, 3), "sn cn dn", 4 * (1 + k * k)),
]:
    p = ParamTuple(*exps, h=0.0, k=k)
    q = termination_check(p)
    h = polynomial_eigenvalues(p, q)[0]
    print(f"  {exps} (q={q}): h = {h.real:.12f}   [{label} expects {target}]")

print("\nthe series at an eigenvalue reproduces the classical solution:")
p = ParamTuple(0, 0, 0, 3, h=4 * (1 + k * k), k=k)
u = 0.72
sn, cn, dn = jacobi_sn_cn_dn(u, k)
print(f"  Dl(u) = {dl_eval(p, u):.15f}")
print(f"  sncndn= {sn * cn * dn:.15f}")

print("\nnon-terminating spectrum: roots of the infinite continued fraction")
p = ParamTuple(0, 0, 0, 1, h=0.0, k=k)
roots = darboux_function_eigenvalues(p, (0.0, 12.0), depth=400)
print(f"  roots in (0, 12), depth cap 400: {[f'{r.real:.10f}' for r in roots]}")
hhat = roots[0]
cf = infinite_cf(hhat, p, 800)
print(f"  |g(hhat)| = {abs(cf.value):.2e} after {cf.depth} levels (cap 800, truncation bound {cf.truncation_bound:.1e})")
print(f"  convergence radius at generic h : {convergence_domain(p, 0.77)}")
print(f"  convergence radius at h = hhat  : {convergence_domain(p, hhat):.6f} (= 1/k)")

print("\nPerron dichotomy on the coefficient ratios:")
for h, note in [(hhat + 0.01, "hhat+0.01"), (hhat, "hhat      ")]:
    coeffs = dl_coefficients(ParamTuple(0, 0, 0, 1, h=h, k=k), 200)
    diag = ratio_diagnostic(coeffs, k)
    print(f"  h = {note}: ratio -> {diag.limit.real:.6f}  [{diag.classification}]"
          f"   (roots 1 and k^2 = {k * k})")
