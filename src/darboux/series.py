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
    NonConvergence,
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


def _mul(a, b):
    """a * b elementwise by CPython's scalar rule: (ar br - ai bi) + i (ar bi + ai br),
    a real factor having imaginary part 0 (numpy's complex loops fuse multiply-adds)."""
    if not (np.iscomplexobj(a) or np.iscomplexobj(b)):
        return a * b
    z = np.empty(np.broadcast(a, b).shape, complex)
    z.real, z.imag = a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real
    return z


def _square(a: np.ndarray) -> np.ndarray:
    """a ** 2 elementwise by CPython's scalar rule: (1+0j)(a a) or libm pow."""
    if np.iscomplexobj(a):
        return _mul(1 + 0j, _mul(a, a))
    return a * a if a.dtype.kind == "i" else np.float_power(a, 2)


@lru_cache(maxsize=16)
def _weights(exponents: tuple, k: complex, variant: str, n: int):
    """The h-free recursion tables for m = 0..n-1: read-only arrays M, A, B, K,
    each entry with the bits of its scalar formula in Python, and the variant
    constant c, with L_m = h - A[m] - B[m] + c.  ``_tables`` rounds n up to a
    power of two of at least 512, so a 200-term series and its depth-400
    fraction share one build; h is not in the key.  A build holds at most
    64 n bytes: 16 builds of n <= 1024 (depth 800) stay within 1 MB."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    xi, eta, mu, nu = exponents
    _check_log_case(xi)
    k2 = k * k
    c = (k2 + 1) * (xi + 1) ** 2 if variant == "paper" else 0.0
    m2 = np.arange(0, 2 * n, 2)
    M = _mul(m2 + 2, m2 + 2 * xi + 3)
    A = _square(m2 + (eta + xi + 2))
    B = _mul(k2, _square(m2 + (mu + xi + 2)))
    K = _mul(_mul(k2, m2 + (xi + eta + mu + nu + 2)), m2 + (xi + eta + mu - nu + 1))
    for t in (M, A, B, K):
        t.flags.writeable = False
    return M, A, B, K, c


def _tables(p: ParamTuple, variant: str, n: int):
    """``_weights`` of p with at least n entries."""
    return _weights(p.exponents, p.k, variant, max(512, 1 << int(n - 1).bit_length()))


def _recursion_lists(p: ParamTuple, h: complex, variant: str, n: int) -> tuple[list, list, list]:
    """Lists L, M, K of the recursion at accessory parameter h for m = 0..n-1."""
    M, A, B, K, c = _tables(p, variant, n)
    return (h - A[:n] - B[:n] + c).tolist(), M[:n].tolist(), K[:n].tolist()


def recursion_coeffs(m: int, p: ParamTuple, variant: str = "corrected") -> RecursionCoeffs:
    """Weights (M_m, L_m, K_m) of the three-term recursion at index m."""
    if m < 0:
        raise ValueError("m must be >= 0")
    L, M, K = _recursion_lists(p, p.h, variant, m + 1)
    return RecursionCoeffs(M=M[m], L=L[m], K=K[m])


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
        near_root = termination_check(p) is None and abs(_cf_raw(p.h, p, max(2 * N, 200), variant)) < 1e-8
        mode = "minimal" if near_root else "forward"
    if mode == "minimal":
        try:
            return _coefficients_backward(p, N, variant)
        except ZeroDivisionError:
            mode = "forward"
    return _coefficients_forward(p, N, variant)


def _coefficients_forward(p: ParamTuple, N: int, variant: str) -> SeriesCoefficients:
    L, M, K = _recursion_lists(p, p.h, variant, N)
    prev, cur, e = 0j, 1.0 + 0j, 0          # C_{m-1}, C_m at the common scale 2^e
    vals, es = [cur], [e]
    for m in range(N):
        prev, cur = cur, -(L[m] * cur + K[m] * prev) / M[m]
        if abs(cur) > _RESCALE_LIMIT:
            cur = complex(math.ldexp(cur.real, -_RESCALE_SHIFT), math.ldexp(cur.imag, -_RESCALE_SHIFT))
            prev = complex(math.ldexp(prev.real, -_RESCALE_SHIFT), math.ldexp(prev.imag, -_RESCALE_SHIFT))
            e += _RESCALE_SHIFT
        vals.append(cur)
        es.append(e)
    values, exps = np.array(vals, dtype=complex), np.array(es, dtype=np.int64)
    if not np.isfinite(values).all():
        raise CoefficientOverflow(f"coefficient C_{np.argmin(np.isfinite(values))} overflowed")
    term = _detect_termination(p, values, exps)
    return SeriesCoefficients(values=values, exps=exps, variant=variant, mode="forward", terminated_at=term)


def _detect_termination(p: ParamTuple, values: np.ndarray, exps: np.ndarray) -> int | None:
    q = termination_check(p)
    if q is None or q >= len(values) - 1:
        return None
    mag = [math.log2(abs(v)) + e if v != 0 else -math.inf for v, e in zip(values.tolist(), exps.tolist())]
    floor = max(mag[: q + 1]) + math.log2(1e-10)   # log2 of 1e-10 times the largest head term
    if all(x < floor for x in mag[q + 1:]):
        values[q + 1:], exps[q + 1:] = 0.0, 0
        return q
    return None


def _coefficients_backward(p: ParamTuple, N: int, variant: str, buffer: int = 60) -> SeriesCoefficients:
    top = N + buffer
    vals = np.zeros(top + 2, dtype=complex)
    vals[top] = 1.0
    L, M, K = _recursion_lists(p, p.h, variant, top + 1)
    for m in range(top, 0, -1):
        if K[m] == 0:
            raise ZeroDivisionError
        vals[m - 1] = -(M[m] * vals[m + 1] + L[m] * vals[m]) / K[m]
        if abs(vals[m - 1]) > _RESCALE_LIMIT:
            vals *= 2.0**-_RESCALE_SHIFT
    if vals[0] == 0:
        raise DegenerateRecursion("backward recursion produced C_0 = 0")
    return SeriesCoefficients(values=vals[: N + 1] / vals[0], exps=np.zeros(N + 1, dtype=np.int64),
                              variant=variant, mode="minimal", terminated_at=None)


def _truncation_matrix(p: ParamTuple, n: int, variant: str) -> np.ndarray:
    """The tridiagonal J_n of the recursion cut at C_n = 0 (L_m = h - J[m, m]);
    its eigenvalues are the zeros of the continued fraction at depth n-1."""
    M, A, B, K, c = _tables(p, variant, n)
    J = np.zeros((n, n), dtype=complex)
    np.fill_diagonal(J, A[:n] + B[:n] - c)
    np.fill_diagonal(J[:, 1:], -M[: n - 1])
    np.fill_diagonal(J[1:], -K[1:n])
    return J


def polynomial_eigenvalues(p: ParamTuple, q: int, variant: str = "corrected") -> np.ndarray:
    """The q+1 accessory parameters that terminate the series at degree q:
    the eigenvalues of the truncation matrix J_{q+1}, sorted by real part
    (h in `p` is ignored)."""
    qt = termination_check(p)
    if qt is None or qt != q:
        raise DegenerateRecursion(f"termination relation does not hold with q = {q} (got {qt})")
    eig = np.linalg.eigvals(_truncation_matrix(p, q + 1, variant))
    return eig[np.argsort(eig.real + 1e-9 * eig.imag)]


@dataclass(frozen=True)
class CFValue:
    """Truncated infinite continued fraction and its convergence indicator."""

    value: complex
    depth: int
    change_from_half_depth: float


def _cf_raw(h: complex, p: ParamTuple, depth: int, variant: str) -> complex:
    """One backward pass of the continued fraction over the cached tables."""
    L, M, K = _recursion_lists(p, h, variant, depth + 1)
    tail = 0j
    for j in range(depth, 0, -1):
        denom = L[j] / M[j] - tail
        if denom == 0:
            raise ZeroPivot(f"vanishing partial denominator at level {j}")
        tail = (K[j] / M[j]) / denom
    return L[0] / M[0] - tail


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
    tol: float = 1e-10,
) -> list[complex]:
    """Accessory parameters where the infinite continued fraction vanishes.

    `region` is a complex box ((re_lo, re_hi), (im_lo, im_hi)) or a real
    interval (lo, hi), the box of zero height; a lower bound above its
    upper bound (or a NaN bound) raises ValueError.  Candidates are the eigenvalues of the
    truncation matrix J_n (Ince's method), polished on the fraction at
    `depth` to `tol`; n doubles from 32 until every candidate polishes onto
    a root near itself and two successive sets agree, at most to depth+1,
    where the eigenvalues are exactly the zeros at `depth`.  A tuple that
    terminates at q (K_{q+1} = 0) stops at order min(depth, q) + 1: g is
    then a finite fraction whose zeros are exactly the eigenvalues of
    J_{q+1}.  Each root must be stable under depth doubling (else
    DepthUnstable).
    """
    lo, hi = region
    box = region if isinstance(lo, (tuple, list)) else ((lo, hi), (0.0, 0.0))
    if not all(a <= b for a, b in box):   # also refuses a NaN bound
        raise ValueError(f"region {region}: each lower bound must be at most its upper bound")
    q = termination_check(p)
    top = depth + 1 if q is None else min(depth, q) + 1
    prev, n = None, 32
    while True:
        found, resolved = _matrix_roots(p, min(n, top), box, depth, variant, tol)
        if n >= top or (resolved and prev is not None and len(found) == len(prev)
                        and all(np.isclose(r, prev, rtol=1e-8, atol=1e-8).any() for r in found)):
            break
        prev, n = found if resolved else None, 2 * n
    stable = []
    for r in found:
        r2 = _polish_root(p, r, 2 * depth, variant, tol)
        if abs(r2 - r) > 100 * tol * max(1.0, abs(r)):
            raise DepthUnstable(f"root {r} moved by {abs(r2 - r):.3e} when depth doubled")
        stable.append(r2)
    return sorted(stable, key=lambda z: (z.real, z.imag))


def _matrix_roots(p, n, box, depth, variant, tol) -> tuple[list[complex], bool]:
    """The distinct zeros of g at `depth` in the box (|g| < 1e-8), polished
    from the eigenvalues of J_n in or near it, and whether each of those
    polished onto a root within 1% of itself.  (Near a high eigenvalue g
    has a pole almost on the root, so a rough eigenvalue can polish onto a
    far root, and two short truncations can agree on missing a root.)"""
    (rl, rh), (il, ih) = box
    pad = max(1.0, rh - rl, ih - il)
    roots: list[complex] = []
    resolved = True
    for e in np.linalg.eigvals(_truncation_matrix(p, n, variant)):
        if not (rl - pad <= e.real <= rh + pad and il - pad <= e.imag <= ih + pad):
            continue
        r = _polish_root(p, complex(e), depth, variant, tol)
        resolved = resolved and abs(r - e) <= 1e-2 * max(1.0, abs(e))
        # a root within tol of the region's imaginary range is put on it:
        # a real interval gets real roots
        im = min(max(r.imag, il), ih)
        if abs(r.imag - im) <= tol * max(1.0, abs(r)):
            r = complex(r.real, im)
        if (
            rl <= r.real <= rh
            and il <= r.imag <= ih
            and abs(_cf_raw(r, p, depth, variant)) < 1e-8
            and not np.isclose(r, roots, rtol=1e-8, atol=1e-8).any()
        ):
            roots.append(r)
    return roots, resolved


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
    """A series value with its tail bound: complex and float for a scalar u,
    arrays of u's shape for an array u."""

    value: complex | np.ndarray
    tail_bound: float | np.ndarray


#: Terms per cumprod block in ``_power_sum``: with |r| >= 1/2, r^m stays a
#: normal float for m < 1022.
_POWER_BLOCK = 1000


def _ldexp(z: np.ndarray, e) -> np.ndarray:
    """z 2^e for a complex array z, in place."""
    np.ldexp(z.real, e, out=z.real)
    np.ldexp(z.imag, e, out=z.imag)
    return z


def _power_sum(coeffs: SeriesCoefficients, s2: np.ndarray, upto: int):
    """sum_{m <= upto} C_m s2^m and |C_upto s2^upto|, elementwise over a 1-D s2.

    s2 = r 2^e with 1/2 <= |r| < 1 (np.frexp of |s2|).  The powers r^m are
    cumulative products over a (points x terms) matrix, and each term
    (C_m's mantissa times r^m) is scaled once by 2^(exps[m] + m e): a term
    has the bits of the term-by-term product C_m s2^m, also where C_m or
    s2^m alone is outside the float range.  Every _POWER_BLOCK terms the
    running power is renormalised.
    """
    _, e = np.frexp(np.abs(s2))
    r = _ldexp(s2.copy(), -e)
    total = np.zeros(s2.shape, complex)
    head, head_e = np.ones(s2.shape, complex), np.zeros(s2.shape, np.int64)  # s2^lo = head 2^head_e
    for lo in range(0, upto + 1, _POWER_BLOCK):
        m = np.arange(lo, min(lo + _POWER_BLOCK, upto + 1))
        pw = np.empty((s2.size, m.size), complex)
        pw[:, 0] = head
        pw[:, 1:] = r[:, None]
        np.cumprod(pw, axis=1, out=pw)
        head = pw[:, -1] * r
        pw *= coeffs.values[m]
        shift = coeffs.exps[m] + head_e[:, None] + (m - lo) * e[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            terms = _ldexp(pw, shift)
        total += terms.sum(axis=1)
        _, f = np.frexp(np.abs(head))
        head, head_e = _ldexp(head, -f), head_e + m.size * e + f
    return total, np.abs(terms[:, -1])


def dl_eval(
    p: ParamTuple,
    u,
    N: int = 200,
    variant: str = "corrected",
    mode: str = "auto",
    coeffs: SeriesCoefficients | None = None,
    detail: bool = False,
):
    """Evaluate the local solution at u: a complex for a scalar u, a complex
    array of u's shape for a numpy array.

    The prefactor uses principal-branch complex powers (the solution is
    defined on a cut neighbourhood of the singular point; callers keep
    evaluation paths on fixed rays).  Raises OutsideConvergence when some
    |sn u| is not strictly inside the certified radius (its ``index`` names
    the first such point of an array), PoleProximity when a prefactor base
    vanishes under a negative exponent, NonConvergence when the sum is not
    finite.  With ``detail=True`` returns a DlValue carrying a geometric
    tail bound estimated from the dominant Poincare ratio.
    """
    if coeffs is None:
        coeffs = dl_coefficients(p, N, variant=variant, mode=mode)
    scalar = not (isinstance(u, np.ndarray) and u.ndim)
    sn, cn, dn = (np.asarray(x, complex).ravel() for x in jacobi_sn_cn_dn(u, p.k))
    s2 = sn * sn
    asn = np.abs(sn)
    outside = asn >= min(1.0, 1.0 / abs(p.k))
    if coeffs.terminated_at is None and outside.any():
        # the larger domain applies only on the vanishing-CF locus
        g = _cf_raw(p.h, p, depth=max(2 * len(coeffs), 200), variant=variant)
        if abs(g) < 1e-8:
            outside = asn >= max(1.0, 1.0 / abs(p.k))
        if outside.any():
            i = int(np.argmax(outside))
            raise OutsideConvergence(
                f"|sn u| = {asn[i]:.6f} outside certified radius", index=None if scalar else i
            )
    xi, eta, mu, nu = p.exponents
    pref = np.ones(sn.shape, complex)
    for base, expo in ((sn, xi + 1), (cn, eta + 1), (dn, mu + 1)):
        if expo == 0:
            continue
        zero = base == 0
        if zero.any() and expo.real <= 0:
            raise PoleProximity("prefactor base vanished under a non-positive exponent")
        pref *= np.where(zero, 0, np.exp(expo * np.log(np.where(zero, 1, base))))
    upto = coeffs.terminated_at if coeffs.terminated_at is not None else len(coeffs) - 1
    total, last = _power_sum(coeffs, s2, upto)
    value = pref * total
    if not np.isfinite(value).all():
        raise NonConvergence("series sum is not finite")
    if coeffs.terminated_at is not None:
        tail = np.zeros(sn.shape)
    else:
        rho = np.abs(s2) * max(1.0, abs(p.k) ** 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            tail = np.where(rho < 1, last * rho / (1 - rho) * np.abs(pref), math.inf)
    if scalar:
        value, tail = complex(value[0]), float(tail[0])
    else:
        value, tail = value.reshape(u.shape), tail.reshape(u.shape)
    return DlValue(value=value, tail_bound=tail) if detail else value


def darboux_potential(u, p: ParamTuple):
    """The equation's potential V(u): the solution satisfies y'' + (h - V) y = 0.

    Elementwise for a numpy array of u."""
    xi, eta, mu, nu = p.exponents
    k2 = p.k * p.k
    sn, cn, dn = jacobi_sn_cn_dn(u, p.k)
    return (
        xi * (xi + 1) / (sn * sn)
        + eta * (eta + 1) * (dn / cn) ** 2
        + mu * (mu + 1) * k2 * (cn / dn) ** 2
        + nu * (nu + 1) * k2 * sn * sn
    )
