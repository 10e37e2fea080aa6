"""Independent oracles for every op kind, run outside the timed phase.

References never go through the package's own evaluation paths:

* Jacobi functions: mpmath theta quotients at 30 digits (mpmath's own
  ``ellipfun`` construction, with the nome and theta zero-values computed
  once per modulus); lattice-shifted points use the exact sign rules
  sn(u + 2K) = -sn, cn(u + 2K) = -cn, cn(u + 2iK') = -cn, dn(u + 2iK') = -dn.
* Recursion coefficients: the three-term recursion written out here.
* Continued fraction: a backward ratio recurrence written out here, scanned
  at double depth on a 4x denser grid (real k), or a winding-number count
  on a 4x denser box contour at double depth plus the closed-form root of
  the channel (complex k).
* Polynomial eigenvalues: mpmath eigenvalues of the tridiagonal at 30 digits.
* Catalog residuals, the table harness, the adjudicator and the Landen /
  duplication pairs: the gates the CLI itself applies.

``check`` returns a ``Verdict``; a failed op carries its cause.  Failures
whose (op kind, cause) pair is listed in ``KNOWN_DEFECTS`` are the seed's
documented defects: they count as failed ops but do not make the run
incorrect.  Any other failure does.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import mpmath
import numpy as np

from execute import Raised

DPS = 30
JACOBI_REL_TOL = 1e-12
RECURSION_REL_TOL = 1e-12
POLY_REL_TOL = 1e-10
ROOT_REL_TOL = 1e-9
GLYPH_REL_TOL = 1e-10
COVARIANCE_REL_TOL = 1e-9
CATALOG_RESIDUAL_TOL = 1e-6      # `darboux catalog verify` exit gate
CALIBRATION_TOL = 1e-9           # ResidualReport.trusted
POTENTIAL_TOL = 1e-12            # `darboux identities` gates
PAIR_REL_TOL = 1e-8
ADJUDICATOR_ACCEPT = 1e-6        # lvariant_adjudicator's own `accept`
REFERENCE_DEPTH = 800            # double the scanners' default depth 400
REFERENCE_GRID = 4 * 241         # four times the real scan's default grid
REFERENCE_SIDE = 4 * 48          # four times the box scan's points per side

#: (op kind, cause) -> the defect it shows.  These fail today and are
#: counted in `failed`; a fix turns them into passing ops.  A typed
#: DarbouxError is the documented refusal for the same inputs, so it is
#: expected too (and still counted as failed).
KNOWN_DEFECTS = {
    ("modulus", "raised:OverflowError"):
        "far-off argument: cmath.sin overflows inside the theta series",
    ("modulus", "raised:DarbouxError"): "far-off argument refused",
    ("window", "empty"):
        "complex-k real-window scan silently returns [] (only Re g is scanned)",
    ("window", "raised:DarbouxError"): "complex-k real-window scan refused",
    ("polynomial", "tolerance"):
        "nonsymmetric tridiagonal eigensolve in double loses digits as q grows",
}


@dataclass
class Verdict:
    ok: bool
    cause: str | None = None
    residual: float = 0.0        # worst residual-type diagnostic of the op
    rel_err: float = 0.0         # worst relative error against a reference
    expected: bool = True        # passed, or failed by a KNOWN_DEFECTS cause


def _fail(kind: str, cause: str, **diag) -> Verdict:
    return Verdict(False, cause, expected=(kind, cause) in KNOWN_DEFECTS, **diag)


def check(op, result, cache: dict) -> Verdict:
    """Judge one op's result.  `cache` holds references shared within a run."""
    if isinstance(result, Raised):
        return _fail(op.kind, "raised:DarbouxError" if result.typed else f"raised:{result.name}")
    return _CHECKS[op.kind](op, result, cache)


# -- Jacobi functions -------------------------------------------------------


def _mp_nome(k: complex, cache: dict):
    key = ("nome", k)
    if key not in cache:
        with mpmath.workdps(DPS):
            q = mpmath.qfrom(m=mpmath.mpc(k) ** 2)
            cache[key] = (q, *(mpmath.jtheta(n, 0, q) for n in (2, 3, 4)))
    return cache[key]


def reference_sn_cn_dn(u: complex, k: complex, cache: dict) -> tuple[complex, complex, complex]:
    """(sn, cn, dn)(u | k^2) at 30 digits."""
    q, z2, z3, z4 = _mp_nome(k, cache)
    with mpmath.workdps(DPS):
        t = mpmath.mpc(u) / z3**2
        t1, t2, t3, t4 = (mpmath.jtheta(n, t, q) for n in (1, 2, 3, 4))
        return (complex(z3 / z2 * t1 / t4), complex(z4 / z2 * t2 / t4),
                complex(z4 / z3 * t3 / t4))


def _triple_err(got, ref) -> float:
    return max(abs(complex(a) - b) for a, b in zip(got, ref)) / max(abs(b) for b in ref)


def _recursion_residual(p_exps, h, k, values, exps) -> float:
    """Worst relative residual of M C_{m+1} + L C_m + K C_{m-1} = 0, each
    term weighed at the size of its parts (L = h + L0 can cancel to far
    below |h|, and its rounding with it)."""
    worst = 0.0
    for m in range(len(values) - 1):
        top = int(exps[m + 1])
        nxt = complex(values[m + 1])
        cur = complex(math.ldexp(values[m].real, int(exps[m]) - top),
                      math.ldexp(values[m].imag, int(exps[m]) - top))
        prev = 0j if m == 0 else complex(math.ldexp(values[m - 1].real, int(exps[m - 1]) - top),
                                         math.ldexp(values[m - 1].imag, int(exps[m - 1]) - top))
        M, L0, K = _cf_coefficients(p_exps, k, m)
        scale = abs(M * nxt) + (abs(h) + abs(L0)) * abs(cur) + abs(K * prev)
        if scale:
            worst = max(worst, abs(M * nxt + (h + L0) * cur + K * prev) / scale)
    return worst


def _check_modulus(op, result, cache) -> Verdict:
    a = op.args
    k = a["k"]
    md, triples, ev, wps, coeffs = result
    m, n = a["shift"]
    signs = ((-1) ** m, (-1) ** (m + n), (-1) ** n)
    err = 0.0
    refs = []
    for u, got in zip(a["base"], triples):
        ref = tuple(s * r for s, r in zip(signs, reference_sn_cn_dn(u, k, cache)))
        refs.append(ref)
        err = max(err, _triple_err(got, ref))
    k2 = k * k
    e1, e2, e3 = ev.as_tuple()
    err = max(err, abs(e1 - e3 - 1), abs(e1 + e2 + e3), abs((e2 - e3) / (e1 - e3) - k2) / max(1.0, abs(k2)))
    for got, ref in zip(wps, refs):
        ns2 = 1 / ref[0] ** 2
        err = max(err, abs(got - (e3 + ns2)) / (abs(e3) + abs(ns2)))
    residual = _recursion_residual([complex(g) for g in a["exponents"]], a["h"], k,
                                   coeffs.values, coeffs.exps)
    if coeffs.mode != "forward" or coeffs.values[0] != 1:
        return _fail("modulus", "coefficients", residual=residual, rel_err=err)
    if err > JACOBI_REL_TOL or residual > RECURSION_REL_TOL:
        return _fail("modulus", "tolerance", residual=residual, rel_err=err)
    return Verdict(True, residual=residual, rel_err=err)


# -- continued fraction and eigenvalues -------------------------------------


def _cf_coefficients(exps, k, m):
    xi, eta, mu, nu = exps
    k2 = k * k
    M = (2 * m + 2) * (2 * m + 2 * xi + 3)
    L0 = -(2 * m + eta + xi + 2) ** 2 - k2 * (2 * m + mu + xi + 2) ** 2   # L_m - h
    K = k2 * (2 * m + xi + eta + mu + nu + 2) * (2 * m + xi + eta + mu - nu + 1)
    return M, L0, K


@functools.lru_cache(maxsize=64)
def _cf_table(exps: tuple, k, depth: int) -> tuple[list, list, list]:
    return tuple(map(list, zip(*(_cf_coefficients(exps, k, m) for m in range(depth + 1)))))


def cf_value(h, exps, k, depth: int = REFERENCE_DEPTH):
    """g(h) = L_0/M_0 + C_1/C_0 of the minimal solution, by the backward
    ratio recurrence r_m = -K_m / (L_m + M_m r_{m+1}), r_{depth+1} = 0.
    Works on scalars and numpy arrays of h alike."""
    M, L0, K = _cf_table(tuple(exps), k, depth)
    r = 0 * h
    for m in range(depth, 0, -1):
        r = -K[m] / (h + L0[m] + M[m] * r)
    return (h + L0[0]) / M[0] + r


def reference_real_roots(exps, k: float, region) -> list[float]:
    """Roots of g in [lo, hi]: sign changes on a dense grid, bisected, with
    the sign changes through poles (|g| large at the limit) discarded."""
    lo, hi = region
    hs = np.linspace(lo, hi, REFERENCE_GRID)
    with np.errstate(all="ignore"):
        gs = cf_value(hs, exps, k).real
    roots = []
    for i in np.nonzero(np.isfinite(gs[:-1]) & np.isfinite(gs[1:]) & (gs[:-1] * gs[1:] <= 0))[0]:
        a, b, fa = float(hs[i]), float(hs[i + 1]), gs[i]
        for _ in range(200):
            mid = 0.5 * (a + b)
            if b - a < 1e-14 * max(1.0, abs(mid)):
                break
            fm = cf_value(mid, exps, k).real
            if fa * fm <= 0:
                b = mid
            else:
                a, fa = mid, fm
        root = 0.5 * (a + b)
        if abs(cf_value(root, exps, k)) < 1e-6:
            roots.append(root)
    return roots


def winding_count(exps, k: complex, box) -> int:
    """Zeros minus poles of g inside the box, from its dense contour."""
    (rl, rh), (il, ih) = box
    corners = [complex(rl, il), complex(rh, il), complex(rh, ih), complex(rl, ih)]
    t = np.linspace(0.0, 1.0, REFERENCE_SIDE, endpoint=False)
    z = np.concatenate([a + t * (b - a) for a, b in zip(corners, corners[1:] + corners[:1])])
    g = cf_value(z, exps, k)
    turn = np.angle(np.roll(g, -1) / g).sum()
    return int(round(turn / (2 * math.pi)))


def _ordered(roots) -> list[complex]:
    return sorted((complex(r) for r in roots), key=lambda z: (z.real, z.imag))


def _match(got, ref, region=None) -> tuple[bool, float]:
    """Same roots (to ROOT_REL_TOL), ignoring reference roots that sit on
    the window's edges, where inclusion is a coin toss for any grid."""
    got = _ordered(got)
    if region is not None:
        edge = 1e-7 * max(1.0, abs(region[1]))
        optional = [r for r in ref if min(r - region[0], region[1] - r) < edge]
        ref = [r for r in ref if r not in optional]
        got = [g for g in got if all(abs(g - r) > edge for r in optional)]
    ref = _ordered(ref)
    if len(got) != len(ref):
        return False, math.inf
    err = max((abs(g - r) / max(1.0, abs(r)) for g, r in zip(got, ref)), default=0.0)
    return err <= ROOT_REL_TOL, err


def _residual_at(roots, exps, k) -> float:
    return max((abs(cf_value(complex(r), exps, k)) for r in roots), default=0.0)


def _check_function(op, result, cache) -> Verdict:
    a = op.args
    exps = a["exponents"]
    ref = reference_real_roots(exps, a["k"], a["region"])
    ok, err = _match(result, ref, a["region"])
    residual = _residual_at(result, exps, a["k"])
    if ok:
        return Verdict(True, residual=residual, rel_err=err)
    return _fail("function", "empty" if ref and not result else "tolerance",
                 residual=residual, rel_err=err)


def _complex_reference(a, cache) -> list[complex]:
    key = ("box", a["k"], a["box"])
    if key not in cache:
        exps, root = a["exponents"], a["root"]
        count = winding_count(exps, a["k"], a["box"])
        identity_holds = abs(cf_value(root, exps, a["k"])) < 1e-8
        cache[key] = [root] if count == 1 and identity_holds else None
    return cache[key]


def _check_complex(op, result, cache) -> Verdict:
    ref = _complex_reference(op.args, cache)
    if ref is None:
        return _fail(op.kind, "reference")
    exps, k = op.args["exponents"], op.args["k"]
    ok, err = _match(result, ref)
    residual = _residual_at(result, exps, k)
    if ok:
        return Verdict(True, residual=residual, rel_err=err)
    return _fail(op.kind, "empty" if not result else "tolerance", residual=residual, rel_err=err)


def reference_polynomial(exps, k: float, q: int) -> list[complex]:
    """Eigenvalues of the (q+1)-square tridiagonal at 30 digits."""
    with mpmath.workdps(DPS):
        mexps = [mpmath.mpf(g) for g in exps]
        mk = mpmath.mpf(k)
        n = q + 1
        A = mpmath.zeros(n, n)
        for m in range(n):
            M, L0, K = _cf_coefficients(mexps, mk, m)
            A[m, m] = -L0
            if m + 1 < n:
                A[m, m + 1] = -M
            if m > 0:
                A[m, m - 1] = -K
        eig = mpmath.eig(A, left=False, right=False)
        return _ordered(eig)


def _check_polynomial(op, result, cache) -> Verdict:
    a = op.args
    ref = reference_polynomial(a["exponents"], a["k"], a["q"])
    got = _ordered(result)
    if len(got) != len(ref):
        return _fail("polynomial", "count")
    err = max(abs(g - r) / max(1.0, abs(r)) for g, r in zip(got, ref))
    if err > POLY_REL_TOL:
        return _fail("polynomial", "tolerance", rel_err=err)
    return Verdict(True, rel_err=err)


# -- catalog and tables -----------------------------------------------------


def _check_catalog(op, result, cache) -> Verdict:
    rep, n = result
    res = rep.max_relative_residual
    if n == 0:
        return _fail("catalog", "no points")
    if rep.calibration_residual > CALIBRATION_TOL:
        return _fail("catalog", "calibration", residual=res)
    if not res <= CATALOG_RESIDUAL_TOL:
        return _fail("catalog", "tolerance", residual=res)
    return Verdict(True, residual=res)


def _check_harness(op, report, cache) -> Verdict:
    errors = [r.max_error for r in report.records if r.status != "failed" and r.max_error == r.max_error]
    worst = max(errors, default=0.0)
    if not report.passed():
        return _fail("harness", "table entry failed", residual=worst)
    return Verdict(True, residual=worst)


def _check_adjudicator(op, result, cache) -> Verdict:
    verdict, evidence = result
    worst = max(e.residual for e in evidence if e.variant == "corrected")
    if verdict != "corrected" or worst > ADJUDICATOR_ACCEPT:
        return _fail("adjudicator", "verdict", residual=worst)
    return Verdict(True, residual=worst)


def _potential(exps, k, sncndn) -> complex:
    xi, eta, mu, nu = exps
    sn, cn, dn = sncndn
    k2 = k * k
    return (xi * (xi + 1) / sn**2 + eta * (eta + 1) * (dn / cn) ** 2
            + mu * (mu + 1) * k2 * (cn / dn) ** 2 + nu * (nu + 1) * k2 * sn**2)


def _check_glyphs(op, result, cache) -> Verdict:
    """Row identities sn/cn/dn(w, kappa) = entry(u, k), the twelve glyphs
    against mpmath quotients, and sigma_and_h against the covariance
    identity h - V(u) = a^2 (h_X - V(w)) with mpmath potentials."""
    from darboux import symmetry

    a = op.args
    k = complex(a["k"])
    rows, glyphs = result
    glyph_err = max(abs(l - r) / max(1.0, abs(r)) for _, pairs, _ in rows for l, r in pairs)
    rel = 0.0
    for u, values in zip(a["points"], glyphs):
        sn, cn, dn = reference_sn_cn_dn(u, k, cache)
        ref = {"sn": sn, "cn": cn, "dn": dn, "ns": 1 / sn, "nc": 1 / cn, "nd": 1 / dn,
               "sc": sn / cn, "cs": cn / sn, "sd": sn / dn, "ds": dn / sn,
               "cd": cn / dn, "dc": dn / cn}
        for code, got in zip(ref, values):
            rel = max(rel, abs(got - ref[code]) / abs(ref[code]))
    exps = [complex(g) for g in a["exponents"]]
    cov = 0.0
    for name, _, pt in rows:
        scale, offset = symmetry.gii_by_name(name).substitution_parts(k)
        for u in a["points"]:
            w = scale * (u + offset)
            lhs = a["h"] - _potential(exps, k, reference_sn_cn_dn(u, k, cache))
            rhs = scale**2 * (pt.h - _potential(pt.exponents, pt.k,
                                                reference_sn_cn_dn(w, complex(pt.k), cache)))
            cov = max(cov, abs(lhs - rhs) / max(1.0, abs(lhs)))
    residual = max(glyph_err, cov)
    if glyph_err > GLYPH_REL_TOL or cov > COVARIANCE_REL_TOL or rel > JACOBI_REL_TOL:
        return _fail("glyphs", "tolerance", residual=residual, rel_err=rel)
    return Verdict(True, residual=residual, rel_err=rel)


def _check_pair(op, result, cache) -> Verdict:
    potential, (lhs, rhs) = result
    errs = potential if isinstance(potential, tuple) else (potential,)
    pot = max(errs)
    rel = abs(lhs / rhs - 1)
    if pot > POTENTIAL_TOL or not rel <= PAIR_REL_TOL:
        return _fail(op.kind, "tolerance", residual=pot, rel_err=rel)
    return Verdict(True, residual=pot, rel_err=rel)


_CHECKS = {
    "catalog": _check_catalog,
    "function": _check_function,
    "window": _check_complex,
    "box": _check_complex,
    "polynomial": _check_polynomial,
    "modulus": _check_modulus,
    "harness": _check_harness,
    "adjudicator": _check_adjudicator,
    "glyphs": _check_glyphs,
    "landen": _check_pair,
    "duplication": _check_pair,
}
