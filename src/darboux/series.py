"""Local series solutions of the Darboux equation at u = 0.

The solution with exponent xi+1 is

    sn^(xi+1) cn^(eta+1) dn^(mu+1) * sum_m C_m sn^(2m),

with a three-term recursion M_m C_{m+1} + L_m C_m + K_m C_{m-1} = 0,
C_{-1} = 0, C_0 = 1.  Two L_m variants are first-class citizens:

* ``"paper"``    : L_m = h - (2m+eta+xi+2)^2 - k^2 (2m+mu+xi+2)^2
                       + (k^2+1)(xi+1)^2
* ``"corrected"``: the same without the (k^2+1)(xi+1)^2 term.

The corrected form is what an independent Frobenius rederivation in the
variable t = sn^2 u produces, and it is the variant under which the
classical closed-form eigensolutions (sn, cn, dn, sn*cn, sn*cn*dn, ...)
satisfy the equation; the residual adjudicator in :mod:`darboux.verify`
selects it as the default.  Both remain callable everywhere.

Terminating solutions (Darboux polynomials) exist when one of

    xi+eta+mu+nu = -2q-4      or      xi+eta+mu-nu = -2q-3

holds for an integer q >= 0; the q+1 admissible accessory parameters are
the eigenvalues of a (q+1) x (q+1) tridiagonal matrix.  Non-terminating
series converge for |sn u| < min(1, |k|^-1) generically, and on the larger
domain |sn u| < max(1, |k|^-1) exactly when the infinite continued
fraction built from the recursion vanishes (Darboux functions); then the
coefficient ratio C_{m+1}/C_m tends to the minimal root of
t^2 - (1+k^2) t + k^2 instead of the dominant one (Poincare/Perron).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .elliptic import jacobi_sn_cn_dn
from .errors import (
    CoefficientOverflow,
    DegenerateRecursion,
    DepthUnstable,
    InsufficientData,
    LogarithmicCase,
    ModulusOnUnitCircle,
    OutsideConvergence,
    PoleProximity,
    ZeroPivot,
)
from .symmetry import ParamTuple

VARIANTS = ("corrected", "paper")

_INT_TOL = 1e-9          # tolerance for integer matching in termination tests
_LOG_TOL = 1e-12         # tolerance for the logarithmic-exponent guard
_RESCALE_LIMIT = 2.0**512
_RESCALE_SHIFT = 512


@dataclass(frozen=True)
class RecursionCoeffs:
    """The three-term weights at index m."""

    M: complex
    L: complex
    K: complex


def _check_log_case(xi: complex) -> None:
    # xi in {-3/2, -5/2, ...} makes some M_m vanish: logarithmic case.
    two_xi = 2 * xi
    r = round(two_xi.real)
    if abs(two_xi - r) < _LOG_TOL and r % 2 != 0 and r <= -3:
        raise LogarithmicCase(f"xi = {xi} is in {{-3/2, -5/2, ...}}")


@lru_cache(maxsize=16)
def _weights(exponents: tuple, k: complex, variant: str, length: int):
    """The h-free recursion tables for m = 0..length-1: lists M, A, B, K and
    the variant constant c, with L_m = h - A[m] - B[m] + c.

    Every consumer reads these shared, read-only lists.  h stays out of the
    key, so a scan over h builds its tables once; 16 tables (at most ~2 MB)
    hold a scan's two depths with room to spare.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    xi, eta, mu, nu = exponents
    _check_log_case(xi)
    k2 = k * k
    c = (k2 + 1) * (xi + 1) ** 2 if variant == "paper" else 0.0
    a1 = eta + xi + 2
    a2 = mu + xi + 2
    b1 = xi + eta + mu + nu + 2
    b2 = xi + eta + mu - nu + 1
    m2s = range(0, 2 * length, 2)
    M = [(m2 + 2) * (m2 + 2 * xi + 3) for m2 in m2s]
    A = [(m2 + a1) ** 2 for m2 in m2s]
    B = [k2 * (m2 + a2) ** 2 for m2 in m2s]
    K = [k2 * (m2 + b1) * (m2 + b2) for m2 in m2s]
    return M, A, B, K, c


def recursion_coeffs(m: int, p: ParamTuple, variant: str = "corrected") -> RecursionCoeffs:
    """Weights (M_m, L_m, K_m) of the three-term recursion at index m."""
    if m < 0:
        raise ValueError("m must be >= 0")
    M, A, B, K, c = _weights(p.exponents, p.k, variant, m + 1)
    return RecursionCoeffs(M=M[m], L=p.h - A[m] - B[m] + c, K=K[m])


def termination_check(p: ParamTuple) -> int | None:
    """Index q >= 0 if a termination relation holds, else None.

    Either xi+eta+mu+nu = -2q-4 or xi+eta+mu-nu = -2q-3, with integer
    matching to tolerance 1e-9 for floating inputs; the smaller admissible
    q wins.
    """
    xi, eta, mu, nu = p.exponents
    qs = []
    for total, offset in ((xi + eta + mu + nu, -4), (xi + eta + mu - nu, -3)):
        # total = -2q + offset  =>  q = (offset - total) / 2
        qc = (offset - total) / 2
        if abs(qc.imag) < _INT_TOL:
            r = round(qc.real)
            if abs(qc.real - r) < _INT_TOL and r >= 0:
                qs.append(r)
    return min(qs) if qs else None


@dataclass
class SeriesCoefficients:
    """Coefficients C_0..C_N with per-index power-of-two rescaling.

    True coefficient: values[m] * 2**exps[m].  Rescaling keeps the stored
    mantissas representable when a generic (non-eigen) accessory parameter
    drives geometric growth.
    """

    values: np.ndarray
    exps: np.ndarray
    variant: str
    mode: str
    terminated_at: int | None

    def __len__(self) -> int:
        return len(self.values)

    def coeff(self, m: int) -> complex:
        v = self.values[m]
        e = int(self.exps[m])
        return complex(math.ldexp(v.real, e), math.ldexp(v.imag, e))

    def ratio(self, m: int) -> complex:
        """C_{m+1} / C_m."""
        dv = self.values[m + 1] / self.values[m]
        de = int(self.exps[m + 1] - self.exps[m])
        return complex(math.ldexp(dv.real, de), math.ldexp(dv.imag, de))


def dl_coefficients(
    p: ParamTuple, N: int, variant: str = "corrected", mode: str = "auto"
) -> SeriesCoefficients:
    """Coefficients C_0..C_N of the local solution, C_{-1} = 0, C_0 = 1.

    Modes
    -----
    ``"forward"``
        Plain forward recursion (the defining construction).
    ``"minimal"``
        Backward (tail-to-head) recursion, which selects the minimal
        solution; this is the numerically faithful construction when h is
        a root of the infinite continued fraction, where the forward pass
        would be contaminated by the dominant solution after ~16/|log10 k^2|
        steps.  Falls back to forward when the parameters terminate (some
        K_m = 0 blocks the backward division).
    ``"auto"``
        ``minimal`` when h sits within 1e-8 of a continued-fraction root
        and the tuple does not terminate; ``forward`` otherwise.
    """
    if mode not in ("auto", "forward", "minimal"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "auto":
        q = termination_check(p)
        if q is None and abs(infinite_cf(p.h, p, depth=max(2 * N, 200), variant=variant).value) < 1e-8:
            mode = "minimal"
        else:
            mode = "forward"
    if mode == "minimal":
        try:
            return _coefficients_backward(p, N, variant)
        except ZeroDivisionError:
            mode = "forward"
    return _coefficients_forward(p, N, variant)


def _coefficients_forward(p: ParamTuple, N: int, variant: str) -> SeriesCoefficients:
    values = np.zeros(N + 1, dtype=complex)
    exps = np.zeros(N + 1, dtype=np.int64)
    values[0] = 1.0
    prev = 0j          # C_{m-1} at the current common scale
    cur = 1.0 + 0j
    e = 0
    M, A, B, K, c = _weights(p.exponents, p.k, variant, N)
    for m in range(N):
        if M[m] == 0:
            raise DegenerateRecursion(f"M_{m} = 0")
        nxt = -((p.h - A[m] - B[m] + c) * cur + K[m] * prev) / M[m]
        prev, cur = cur, nxt
        if not (cmath.isfinite(cur.real) and cmath.isfinite(cur.imag)):
            raise CoefficientOverflow(f"coefficient C_{m + 1} overflowed")
        if abs(cur) > _RESCALE_LIMIT:
            cur = complex(math.ldexp(cur.real, -_RESCALE_SHIFT), math.ldexp(cur.imag, -_RESCALE_SHIFT))
            prev = complex(math.ldexp(prev.real, -_RESCALE_SHIFT), math.ldexp(prev.imag, -_RESCALE_SHIFT))
            e += _RESCALE_SHIFT
        values[m + 1] = cur
        exps[m + 1] = e
    term = _detect_termination(p, values, exps)
    return SeriesCoefficients(values=values, exps=exps, variant=variant, mode="forward", terminated_at=term)


def _detect_termination(p: ParamTuple, values: np.ndarray, exps: np.ndarray) -> int | None:
    q = termination_check(p)
    if q is None or q >= len(values) - 1:
        return None
    # largest magnitude among the head coefficients, in log2 scale
    head = max(
        (math.log2(abs(values[m])) + exps[m]) if values[m] != 0 else -1e9
        for m in range(q + 1)
    )
    tail_ok = all(
        values[m] == 0 or (math.log2(abs(values[m])) + exps[m]) < head + math.log2(1e-10)
        for m in range(q + 1, len(values))
    )
    if tail_ok:
        values[q + 1:] = 0.0
        exps[q + 1:] = 0
        return q
    return None


def _coefficients_backward(p: ParamTuple, N: int, variant: str, buffer: int = 60) -> SeriesCoefficients:
    top = N + buffer
    vals = np.zeros(top + 2, dtype=complex)
    vals[top] = 1.0
    M, A, B, K, c = _weights(p.exponents, p.k, variant, top + 1)
    for m in range(top, 0, -1):
        if K[m] == 0:
            raise ZeroDivisionError
        vals[m - 1] = -(M[m] * vals[m + 1] + (p.h - A[m] - B[m] + c) * vals[m]) / K[m]
        if abs(vals[m - 1]) > _RESCALE_LIMIT:
            vals *= 2.0**-_RESCALE_SHIFT
    if vals[0] == 0:
        raise DegenerateRecursion("backward recursion produced C_0 = 0")
    values = (vals[: N + 1] / vals[0]).astype(complex)
    exps = np.zeros(N + 1, dtype=np.int64)
    return SeriesCoefficients(values=values, exps=exps, variant=variant, mode="minimal", terminated_at=None)


def polynomial_eigenvalues(p: ParamTuple, q: int, variant: str = "corrected") -> np.ndarray:
    """The q+1 accessory parameters that terminate the series at degree q.

    They are the eigenvalues of the tridiagonal matrix encoding the
    recursion with C_{q+1} = 0 (equivalently the roots of the finite
    continued fraction); h in `p` is ignored.  Sorted by real part.
    """
    qt = termination_check(p)
    if qt is None or qt != q:
        raise DegenerateRecursion(
            f"termination relation does not hold with q = {q} (got {qt})"
        )
    n = q + 1
    M, A, B, K, c = _weights(p.exponents, p.k, variant, n)
    J = np.zeros((n, n), dtype=complex)
    for m in range(n):
        if M[m] == 0:
            raise DegenerateRecursion(f"M_{m} = 0 inside the matrix range")
        J[m, m] = A[m] + B[m] - c          # L_m = h - J[m, m]
        if m + 1 < n:
            J[m, m + 1] = -M[m]
        if m - 1 >= 0:
            J[m, m - 1] = -K[m]
    eig = np.linalg.eigvals(J)
    return eig[np.argsort(eig.real + 1e-9 * eig.imag)]


@dataclass(frozen=True)
class CFValue:
    """Truncated infinite continued fraction and its convergence indicator."""

    value: complex
    depth: int
    change_from_half_depth: float


def _cf_raw(h: complex, p: ParamTuple, depth: int, variant: str) -> complex:
    """One backward pass of the continued fraction over the cached tables."""
    M, A, B, K, c = _weights(p.exponents, p.k, variant, depth + 1)
    tail = 0j
    for j in range(depth, 0, -1):
        denom = (h - A[j] - B[j] + c) / M[j] - tail
        if denom == 0:
            raise ZeroPivot(f"vanishing partial denominator at level {j}")
        tail = (K[j] / M[j]) / denom
    return (h - A[0] - B[0] + c) / M[0] - tail


def infinite_cf(h: complex, p: ParamTuple, depth: int = 400, variant: str = "corrected") -> CFValue:
    """g(h) = L0/M0 - (K1/M1)/(L1/M1 - (K2/M2)/(L2/M2 - ...)), depth levels.

    Backward (tail-to-head) evaluation; the reported indicator is the
    change between depth and depth/2.  Raises ZeroPivot if a partial
    denominator vanishes exactly (caller nudges h and retries).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    g = _cf_raw(h, p, depth, variant)
    g_half = _cf_raw(h, p, max(1, depth // 2), variant)
    return CFValue(value=g, depth=depth, change_from_half_depth=abs(g - g_half))


def darboux_function_eigenvalues(
    p: ParamTuple,
    region,
    depth: int = 400,
    variant: str = "corrected",
    n_grid: int = 241,
    tol: float = 1e-10,
) -> list[complex]:
    """Accessory parameters where the infinite continued fraction vanishes.

    `region` is either a real interval (lo, hi) scanned by sign-change
    bisection, or a complex box ((re_lo, re_hi), (im_lo, im_hi)) handled by
    argument-principle subdivision.  Each root is refined to `tol` and must
    be stable under depth doubling (else DepthUnstable); sign changes that
    refine onto poles of the truncated fraction are discarded.
    """
    lo, hi = region
    if isinstance(lo, tuple) or isinstance(lo, list):
        roots = _complex_box_roots(p, region, depth, variant, tol)
    else:
        roots = _real_scan_roots(p, float(lo), float(hi), depth, variant, n_grid, tol)
    stable = []
    for r in roots:
        r2 = _polish_root(p, r, 2 * depth, variant, tol)
        if abs(r2 - r) > 100 * tol * max(1.0, abs(r)):
            raise DepthUnstable(
                f"root {r} moved by {abs(r2 - r):.3e} when depth doubled"
            )
        stable.append(r2)
    return sorted(stable, key=lambda z: (z.real, z.imag))


def _real_scan_roots(p, lo, hi, depth, variant, n_grid, tol) -> list[complex]:
    hs = np.linspace(lo, hi, n_grid)
    gs = []
    for h in hs:
        try:
            gs.append(_cf_raw(h, p, depth, variant).real)
        except ZeroPivot:
            gs.append(float("nan"))
    roots = []
    for i in range(n_grid - 1):
        a, b = gs[i], gs[i + 1]
        if not (np.isfinite(a) and np.isfinite(b)) or a * b > 0:
            continue
        x0, x1, f0 = hs[i], hs[i + 1], a
        for _ in range(200):
            xm = 0.5 * (x0 + x1)
            fm = _cf_raw(xm, p, depth, variant).real
            if f0 * fm <= 0:
                x1 = xm
            else:
                x0, f0 = xm, fm
            if x1 - x0 < tol:
                break
        root = 0.5 * (x0 + x1)
        # a sign change through a pole refines to a point where |g| explodes
        if abs(_cf_raw(root, p, depth, variant)) < 1e-4:
            roots.append(complex(root))
    return roots


def _polish_root(p, r, depth, variant, tol) -> complex:
    # complex secant iteration
    x0, x1 = r + 10 * tol, r
    f0 = _cf_raw(x0, p, depth, variant)
    for _ in range(60):
        f1 = _cf_raw(x1, p, depth, variant)
        if f1 == f0:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        x0, f0, x1 = x1, f1, x2
        if abs(x1 - x0) < tol * max(1.0, abs(x1)):
            break
    return x1


def _winding_number(p, box, depth, variant, n_side=48) -> int:
    (rl, rh), (il, ih) = box
    corners = [complex(rl, il), complex(rh, il), complex(rh, ih), complex(rl, ih)]
    pts = []
    for a, b in zip(corners, corners[1:] + corners[:1]):
        for t in np.linspace(0.0, 1.0, n_side, endpoint=False):
            pts.append(a + t * (b - a))
    vals = [_cf_raw(z, p, depth, variant) for z in pts]
    if min(abs(v) for v in vals) < 1e-9:
        raise ZeroPivot("root or pole too close to the box boundary")
    total = 0.0
    for i in range(len(vals)):
        d = cmath.phase(vals[(i + 1) % len(vals)] / vals[i])
        total += d
    return round(total / (2 * cmath.pi))


def _complex_box_roots(p, box, depth, variant, tol, _depth_limit=24) -> list[complex]:
    (rl, rh), (il, ih) = box
    try:
        w = _winding_number(p, box, depth, variant)
    except ZeroPivot:
        eps = 1e-7 * max(rh - rl, ih - il, 1.0)
        rl, rh, il, ih = rl - eps, rh + 2 * eps, il - 3 * eps, ih + eps
        w = _winding_number(p, ((rl, rh), (il, ih)), depth, variant)
    if w <= 0:
        return []
    if max(rh - rl, ih - il) < 1e-3 or _depth_limit == 0:
        centre = complex((rl + rh) / 2, (il + ih) / 2)
        root = _polish_root(p, centre, depth, variant, tol)
        return [root] if abs(_cf_raw(root, p, depth, variant)) < 1e-6 else []
    rm, im_ = (rl + rh) / 2, (il + ih) / 2
    out = []
    for sub in (
        ((rl, rm), (il, im_)),
        ((rm, rh), (il, im_)),
        ((rl, rm), (im_, ih)),
        ((rm, rh), (im_, ih)),
    ):
        out.extend(_complex_box_roots(p, sub, depth, variant, tol, _depth_limit - 1))
    # merge duplicates from shared boundaries
    merged: list[complex] = []
    for r in out:
        if all(abs(r - m) > 1e-8 * max(1.0, abs(r)) for m in merged):
            merged.append(r)
    return merged


def convergence_domain(p: ParamTuple, h: complex, depth: int = 400, variant: str = "corrected") -> float:
    """Certified convergence radius in |sn u|.

    max(1, |k|^-1) when the infinite continued fraction vanishes at h,
    min(1, |k|^-1) otherwise; math.inf for a terminating (polynomial)
    channel, whose finite sum is unbounded on the torus minus the poles.
    """
    ak = abs(p.k)
    if abs(ak - 1.0) < 1e-12:
        raise ModulusOnUnitCircle("|k| = 1: convergence radii coincide")
    pz = ParamTuple(*p.exponents, h=h, k=p.k)
    q = termination_check(pz)
    if q is not None:
        eigs = polynomial_eigenvalues(pz, q, variant)
        if any(abs(h - e) < 1e-8 * max(1.0, abs(e)) for e in eigs):
            return math.inf
    g = _cf_raw(h, pz, depth, variant)
    if abs(g) < 1e-8:
        return max(1.0, 1.0 / ak)
    return min(1.0, 1.0 / ak)


@dataclass(frozen=True)
class RatioDiagnostic:
    """Least-squares limit of C_{m+1}/C_m over the top quartile of indices."""

    limit: complex | None
    classification: str      # "dominant" | "minimal" | "terminated" | "unclassified"
    characteristic_roots: tuple[complex, complex]


def ratio_diagnostic(coeffs: SeriesCoefficients, k: complex) -> RatioDiagnostic:
    """Poincare-Perron ratio estimate for a computed coefficient list.

    Fits r_m = c0 + c1/m on the top quartile and classifies c0 against the
    roots {1, k^2} of t^2 - (1+k^2) t + k^2.  Requires N >= 64.
    """
    n = len(coeffs) - 1
    if coeffs.terminated_at is not None:
        return RatioDiagnostic(limit=None, classification="terminated",
                               characteristic_roots=(1.0 + 0j, complex(k) ** 2))
    if n < 64:
        raise InsufficientData(f"need at least 64 coefficients, got {n}")
    lo = (3 * n) // 4
    ms = np.arange(lo, n)
    rs = np.array([coeffs.ratio(m) for m in ms])
    A = np.vstack([np.ones(len(ms)), 1.0 / ms]).T
    sol, *_ = np.linalg.lstsq(A, rs, rcond=None)
    limit = complex(sol[0])
    k2 = complex(k) ** 2
    dominant, minimal = (1.0 + 0j, k2) if abs(k2) < 1 else (k2, 1.0 + 0j)
    cls = "unclassified"
    if abs(limit - dominant) < 1e-2 * max(1.0, abs(dominant)):
        cls = "dominant"
    elif abs(limit - minimal) < 1e-2 * max(1.0, abs(minimal)):
        cls = "minimal"
    return RatioDiagnostic(limit=limit, classification=cls,
                           characteristic_roots=(1.0 + 0j, k2))


@dataclass(frozen=True)
class DlValue:
    value: complex
    tail_bound: float


def dl_eval(
    p: ParamTuple,
    u: complex,
    N: int = 200,
    variant: str = "corrected",
    mode: str = "auto",
    coeffs: SeriesCoefficients | None = None,
    detail: bool = False,
):
    """Evaluate the local solution at u.

    The prefactor uses principal-branch complex powers (the solution is
    defined on a cut neighbourhood of the singular point; callers keep
    evaluation paths on fixed rays).  Raises OutsideConvergence when
    |sn u| is not strictly inside the certified radius, PoleProximity when
    a prefactor base vanishes under a negative exponent.  With
    ``detail=True`` returns a DlValue carrying a geometric tail bound
    estimated from the dominant Poincare ratio.
    """
    if coeffs is None:
        coeffs = dl_coefficients(p, N, variant=variant, mode=mode)
    sn, cn, dn = jacobi_sn_cn_dn(u, p.k)
    s2 = sn * sn
    radius = min(1.0, 1.0 / abs(p.k))
    if abs(sn) >= radius and coeffs.terminated_at is None:
        # the larger domain applies only on the vanishing-CF locus
        big = max(1.0, 1.0 / abs(p.k))
        g = _cf_raw(p.h, p, depth=max(2 * len(coeffs), 200), variant=variant)
        if abs(g) >= 1e-8 or abs(sn) >= big:
            raise OutsideConvergence(
                f"|sn u| = {abs(sn):.6f} outside certified radius"
            )
    xi, eta, mu, nu = p.exponents
    pref = 1.0 + 0j
    for base, expo in ((sn, xi + 1), (cn, eta + 1), (dn, mu + 1)):
        if base == 0:
            if expo == 0:
                continue
            if expo.real > 0:
                pref = 0j
                continue
            raise PoleProximity("prefactor base vanished under a non-positive exponent")
        pref *= cmath.exp(expo * cmath.log(base))
    total = 0j
    pw = 1.0 + 0j
    pe = 0
    last = 0.0
    upto = coeffs.terminated_at if coeffs.terminated_at is not None else len(coeffs) - 1
    for m in range(upto + 1):
        t = coeffs.values[m] * pw
        e = int(coeffs.exps[m]) + pe
        term = complex(math.ldexp(t.real, e), math.ldexp(t.imag, e))
        total += term
        last = abs(term)
        pw *= s2
        if abs(pw) != 0 and abs(pw) < 2.0**-_RESCALE_SHIFT:
            pw = complex(math.ldexp(pw.real, _RESCALE_SHIFT), math.ldexp(pw.imag, _RESCALE_SHIFT))
            pe -= _RESCALE_SHIFT
    value = pref * total
    if coeffs.terminated_at is not None:
        tail = 0.0
    else:
        rho = abs(s2) * max(1.0, abs(p.k) ** 2)
        tail = last * rho / (1 - rho) * abs(pref) if rho < 1 else math.inf
    if detail:
        return DlValue(value=value, tail_bound=tail)
    return value


def darboux_potential(u: complex, p: ParamTuple) -> complex:
    """The equation's potential V(u): the solution satisfies y'' + (h - V) y = 0."""
    xi, eta, mu, nu = p.exponents
    k2 = p.k * p.k
    sn, cn, dn = jacobi_sn_cn_dn(u, p.k)
    return (
        xi * (xi + 1) / (sn * sn)
        + eta * (eta + 1) * (dn / cn) ** 2
        + mu * (mu + 1) * k2 * (cn / dn) ** 2
        + nu * (nu + 1) * k2 * sn * sn
    )
