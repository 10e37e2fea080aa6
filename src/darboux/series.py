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
t^2 - (1+k^2) t + k^2 instead of the dominant one (Poincare/Perron).  The
coefficients are then the recursion's minimal solution, the products of
the fraction's tails (Pincherle), from one backward pass of the fraction
whose root h is.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .elliptic import _refuse_zero, jacobi_sn_cn_dn
from .errors import (
    CoefficientOverflow,
    DegenerateRecursion,
    DepthUnstable,
    InsufficientData,
    LogarithmicCase,
    ModulusOnUnitCircle,
    NonConvergence,
    NonFiniteExponent,
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
_ROOT_TOL = 1e-8         # |g(h)| below which h is a root of the continued fraction


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


def _weights(p: ParamTuple, variant: str, n: int):
    """The h-free recursion table of p for m = 0..n-1: the three diagonals of
    the truncation matrix J as lists M, D, K of Python scalars, with
    L_m = h - D[m] (D_m = A_m + B_m - c: the two squares of L_m and the
    paper variant's constant c).  Each public entry point builds it once,
    for the largest index it reads, and passes it down; an entry does not
    depend on n.  The entries take the parameters' types (0, 0.0 and 0j
    give int, float and complex entries).  Int tables that could pass int64
    are built in float (each entry is at most 4 b^2 max(1, |k^2|), with b
    bounding every linear factor); tables beyond the float range raise
    CoefficientOverflow."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    xi, eta, mu, nu = p.exponents
    k = p.k
    if not all(cmath.isfinite(g) for g in (xi, eta, mu, nu)):
        raise NonFiniteExponent(f"exponents {(xi, eta, mu, nu)} are not all finite")
    _check_log_case(xi)
    k2 = k * k
    m2 = np.arange(0, 2 * n, 2)
    b = 2 * n + 3 + 2 * sum(abs(g) for g in (xi, eta, mu, nu))
    if 4 * b * b * max(1, abs(k2)) >= 2**63:
        m2 = m2.astype(float)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            c = (k2 + 1) * (xi + 1) ** 2 if variant == "paper" else 0
            M = (m2 + 2) * (m2 + 2 * xi + 3)
            D = (m2 + (eta + xi + 2)) ** 2 + k2 * (m2 + (mu + xi + 2)) ** 2 - c
            K = k2 * (m2 + (xi + eta + mu + nu + 2)) * (m2 + (xi + eta + mu - nu + 1))
        finite = all(np.isfinite(t).all() for t in (M, D, K))
    except OverflowError:   # a Python power or int beyond the float range
        finite = False
    if not finite:
        raise CoefficientOverflow(f"recursion tables overflow for exponents {(xi, eta, mu, nu)} and k = {k}")
    return M.tolist(), D.tolist(), K.tolist()


def _check_h(h: complex) -> None:
    if not cmath.isfinite(h):
        raise NonFiniteExponent(f"accessory parameter h = {h} is not finite")


def recursion_coeffs(m: int, p: ParamTuple, variant: str = "corrected") -> RecursionCoeffs:
    """Weights (M_m, L_m, K_m) of the three-term recursion at index m."""
    if m < 0:
        raise ValueError("m must be >= 0")
    M, D, K = _weights(p, variant, m + 1)
    _check_h(p.h)
    return RecursionCoeffs(M=M[m], L=p.h - D[m], K=K[m])


def termination_check(p: ParamTuple) -> int | None:
    """Index q >= 0 if a termination relation holds, else None.

    Either xi+eta+mu+nu = -2q-4 or xi+eta+mu-nu = -2q-3, with integer
    matching to tolerance 1e-9 for floating inputs; the smaller admissible
    q wins.  An int exponent beyond the float range raises
    CoefficientOverflow.
    """
    xi, eta, mu, nu = p.exponents
    try:
        # total = -2q + offset  =>  q = (offset - total) / 2
        qcs = [(offset - total) / 2 for total, offset in ((xi + eta + mu + nu, -4), (xi + eta + mu - nu, -3))]
    except OverflowError:   # an int beyond the float range
        raise CoefficientOverflow(f"exponents {(xi, eta, mu, nu)} are beyond the float range") from None
    qs = []
    for qc in qcs:
        if abs(qc.imag) < _INT_TOL and math.isfinite(qc.real):
            r = round(qc.real)
            if abs(qc.real - r) < _INT_TOL and r >= 0:
                qs.append(r)
    return min(qs) if qs else None


@dataclass
class SeriesCoefficients:
    """Coefficients C_0..C_N with per-index power-of-two rescaling.

    True coefficient: values[m] * 2**exps[m].  Rescaling keeps the stored
    mantissas representable when a generic (non-eigen) accessory parameter
    drives geometric growth.  ``radius``: the certified radius in |sn u|.
    """

    values: np.ndarray
    exps: np.ndarray
    mode: str
    terminated_at: int | None
    radius: float

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
        The minimal solution, C_m = -t_m C_{m-1} with t_m the tails of one
        backward pass of the continued fraction at depth max(2N, 200)
        (Pincherle: the tails are the minimal solution's ratios).  This is
        the numerically faithful construction when h is a root of the
        infinite continued fraction, where the forward pass would be
        contaminated by the dominant solution after ~16/|log10 k^2| steps.
        A tuple that ``termination_check`` finds terminating goes to the
        forward pass.  Raises ZeroPivot if a partial denominator vanishes.
    ``"auto"``
        ``minimal`` when the tuple does not terminate and h sits within
        1e-8 of a root of that same fraction, at the depth it needs up to
        max(2N, 200) (see ``_cf_value``); ``forward`` otherwise.

    The radius is inf for a terminated series, max(1, |k|^-1) for minimal
    coefficients at a root and min(1, |k|^-1) otherwise (forward ones follow
    the dominant solution, also at a root).
    """
    if mode not in ("auto", "forward", "minimal"):
        raise ValueError(f"unknown mode {mode!r}")
    if N < 0:
        raise ValueError("N must be >= 0")
    q = termination_check(p)
    if mode == "forward" or q is not None:
        return _coefficients_forward(p, _weights(p, variant, N), N, q)
    depth = max(2 * N, 200)     # the fraction's depth cap, and the depth of its tails
    tables = _weights(p, variant, depth + 1)
    if mode == "auto" and not _is_cf_root(p.h, tables, depth):
        return _coefficients_forward(p, tables, N, q)
    g, _, _, tails = _cf_pass(p.h, tables, depth, tails=True)
    root = abs(g) < _ROOT_TOL
    vals = [1.0 + 0j]
    for t in tails[1 : N + 1]:
        vals.append(-t * vals[-1])
    radius = max(1.0, 1.0 / abs(p.k)) if root else min(1.0, 1.0 / abs(p.k))
    return SeriesCoefficients(values=_finite(vals), exps=np.zeros(N + 1, dtype=np.int64),
                              mode="minimal", terminated_at=None, radius=radius)


def _finite(vals: list) -> np.ndarray:
    """The coefficients as a complex array; CoefficientOverflow names the first non-finite one."""
    values = np.array(vals, dtype=complex)
    if not np.isfinite(values).all():
        raise CoefficientOverflow(f"coefficient C_{np.argmin(np.isfinite(values))} overflowed")
    return values


def _coefficients_forward(p: ParamTuple, tables, N: int, q: int | None) -> SeriesCoefficients:
    """C_0..C_N by the forward recursion over the tables; `q` is p's
    ``termination_check``.  C_m is kept as a mantissa at the scale 2^e: once
    |C_m| passes 2^512 both carried terms are scaled down by 2^512, and
    exps[m:] go up by 512."""
    M, D, K = tables
    h = p.h
    _check_h(h)
    prev, cur = 0j, 1.0 + 0j               # C_{m-1}, C_m at the common scale
    vals, rescaled = [cur], []
    for m in range(N):
        prev, cur = cur, -((h - D[m]) * cur + K[m] * prev) / M[m]
        if abs(cur) > _RESCALE_LIMIT:
            cur = complex(math.ldexp(cur.real, -_RESCALE_SHIFT), math.ldexp(cur.imag, -_RESCALE_SHIFT))
            prev = complex(math.ldexp(prev.real, -_RESCALE_SHIFT), math.ldexp(prev.imag, -_RESCALE_SHIFT))
            rescaled.append(m + 1)
        vals.append(cur)
    values, exps = _finite(vals), np.zeros(N + 1, dtype=np.int64)
    for m in rescaled:
        exps[m:] += _RESCALE_SHIFT
    term = _detect_termination(q, values, exps)
    radius = math.inf if term is not None else min(1.0, 1.0 / abs(p.k))
    return SeriesCoefficients(values=values, exps=exps, mode="forward", terminated_at=term, radius=radius)


def _detect_termination(q: int | None, values: np.ndarray, exps: np.ndarray) -> int | None:
    """q where the tuple terminates at q (its ``termination_check``) and
    every computed C_m past q is below 1e-10 of the largest head term; those
    are then set to exact zeros."""
    if q is None or q >= len(values) - 1:
        return None
    mag = [math.log2(abs(v)) + e if v != 0 else -math.inf for v, e in zip(values.tolist(), exps.tolist())]
    floor = max(mag[: q + 1]) + math.log2(1e-10)   # log2 of 1e-10 times the largest head term
    if all(x < floor for x in mag[q + 1:]):
        values[q + 1:], exps[q + 1:] = 0.0, 0
        return q
    return None


def _truncation_matrix(tables, n: int) -> np.ndarray:
    """The tridiagonal J_n of the recursion cut at C_n = 0 (L_m = h - J[m, m]);
    its eigenvalues are the zeros of the continued fraction at depth n-1."""
    M, D, K = tables
    J = np.zeros((n, n), dtype=complex)
    np.fill_diagonal(J, D[:n])
    np.fill_diagonal(J[:, 1:], np.negative(M[: n - 1]))
    np.fill_diagonal(J[1:], np.negative(K[1:n]))
    return J


def _tridiagonal_eigvals(J: np.ndarray) -> np.ndarray:
    """Eigenvalues of the tridiagonal J, as a complex array.

    Where J is real, with products p_m = J[m, m+1] J[m+1, m] (= M_m K_{m+1}),
    a positive diagonal D makes D J D^-1 sign-symmetric: sqrt|p_m| above the
    diagonal, sign(p_m) sqrt|p_m| below it (a p_m = 0 splits J into blocks
    with the same eigenvalues).  Where every p_m is positive that matrix is
    real symmetric: ``eigvalsh`` solves it, every eigenvalue with condition
    number 1.  Where some p_m <= 0 the real ``eigvals`` solves the
    sign-symmetric matrix, at about a third of the cost of the complex solve
    of J.  A complex J, or one with a non-finite entry, goes to ``eigvals``
    as it is."""
    if J.imag.any():
        return np.linalg.eigvals(J)
    d = J.diagonal().real
    prod = J.diagonal(1).real * J.diagonal(-1).real
    if not (np.isfinite(d).all() and np.isfinite(prod).all()):
        return np.linalg.eigvals(J)
    root = np.sqrt(np.abs(prod))
    S = np.diag(d)
    np.fill_diagonal(S[1:], np.copysign(root, prod))   # eigvalsh reads the lower triangle
    if (prod > 0).all():
        return np.linalg.eigvalsh(S).astype(complex)
    np.fill_diagonal(S[:, 1:], root)
    return np.linalg.eigvals(S).astype(complex)


def polynomial_eigenvalues(p: ParamTuple, q: int, variant: str = "corrected") -> np.ndarray:
    """The q+1 accessory parameters that terminate the series at degree q:
    the eigenvalues of the truncation matrix J_{q+1}, sorted by real part
    (h in `p` is ignored)."""
    qt = termination_check(p)
    if qt is None or qt != q:
        raise DegenerateRecursion(f"termination relation does not hold with q = {q} (got {qt})")
    eig = _tridiagonal_eigvals(_truncation_matrix(_weights(p, variant, q + 1), q + 1))
    return eig[np.argsort(eig.real + 1e-9 * eig.imag)]


@dataclass(frozen=True)
class CFValue:
    """The infinite continued fraction, truncated where its truncation bound
    accepted it: its value, the levels used and that bound.  The bound is
    first order in the dropped tail, and the tails next to the cut have not
    reached their limit, so near |k| = 1 it can read low by about
    |1 + k^2| / (1 - |k^2|) (9.9x at k = 0.9 with a cap of 20)."""

    value: complex
    depth: int
    truncation_bound: float


#: Relative accuracy the adaptive fraction aims at: 2^-52 of |l_0| + |t_1|.
_CF_EPS = 2.0**-52
#: Start depth of the adaptive fraction beyond its geometric estimate, and its floor.
_CF_MARGIN = 8


def _check_depth(depth) -> None:
    if isinstance(depth, bool) or not isinstance(depth, numbers.Integral) or depth < 1:
        raise ValueError(f"depth must be an int >= 1, got {depth!r}")


def _check_tol(tol) -> None:
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")


def _cf_pass(h: complex, tables, depth: int, tails: bool = False) -> tuple[complex, complex, float, list | None]:
    """One backward pass of the continued fraction over the tables (at least
    depth + 1 entries).  Returns its value g, its slope g' = dg/dh, the
    sensitivity P = |dg/dt_{depth+1}| to the tail the truncation drops, and,
    with ``tails=True``, the tails t_j = (K_j/M_j)/(L_j/M_j - t_{j+1}) =
    -C_j/C_{j-1} of the minimal solution in tails[1..depth] (else None).

    Per level, with denom = L_j/M_j - t_{j+1}: t'_j = t_j (t'_{j+1} - 1/M_j)
    / denom and dt_j/dt_{j+1} = t_j / denom; g = L_0/M_0 - t_1 and
    g' = 1/M_0 - t'_1."""
    M, D, K = tables
    _check_h(h)
    store = [0j] * (depth + 1) if tails else None
    tail, slope, sens = 0j, 0j, 1.0
    for j in range(depth, 0, -1):
        m = M[j]
        denom = (h - D[j]) / m - tail
        if denom == 0:
            raise ZeroPivot(f"vanishing partial denominator at level {j}")
        tail = (K[j] / m) / denom
        ratio = tail / denom
        slope = ratio * (slope - 1 / m)
        sens *= abs(ratio)
        if tails:
            store[j] = tail
    return (h - D[0]) / M[0] - tail, 1 / M[0] - slope, sens, store


def _cf_value(h: complex, tables, cap: int) -> tuple[complex, complex, float, int]:
    """The continued fraction at the depth it needs, at most `cap`: its value,
    slope, truncation bound and the levels used.

    The bound of a pass at depth n with sensitivity P is P |K_{n+1}/M_{n+1}|
    / |L_{n+1}/M_{n+1}|, the first-order effect of the tail it drops (inf
    where the tables end at n).  The tails decay like rho^j, rho =
    min(r, 1/r) with r = |K/M| at the tables' last entry (it tends to
    |k^2|), so the first pass runs n = ceil(log 2^-52 / log rho) + 8 levels,
    at least 8.  A pass is accepted once its bound is at most
    2^-52 (|l_0| + |t_1|); else the depth doubles.
    A doubled pass runs only while the levels used so far, its own and a
    pass at the cap stay within 1.5 cap; otherwise the next pass runs the
    cap, which is always accepted."""
    M, D, K = tables
    r = abs(K[-1] / M[-1])
    rho = min(r, 1 / r) if r else 0.0
    n = cap
    if rho < 1:
        n = _CF_MARGIN + (math.ceil(math.log(_CF_EPS) / math.log(rho)) if rho else 0)
        if 2 * n > cap:
            n = cap
    used = 0
    while True:
        g, slope, sens, _ = _cf_pass(h, tables, n)
        used += n
        ell = abs(h - D[n + 1]) if n + 1 < len(M) else 0
        bound = sens * abs(K[n + 1]) / ell if ell else math.inf
        if n == cap:
            return g, slope, bound, n
        ell0 = (h - D[0]) / M[0]
        if bound <= _CF_EPS * (abs(ell0) + abs(ell0 - g)):   # t_1 = l_0 - g
            return g, slope, bound, n
        n = 2 * n if 2 * (used + 2 * n) <= cap else cap


def _is_cf_root(h: complex, tables, depth: int) -> bool:
    """Whether the continued fraction, at the depth it needs up to `depth`,
    vanishes at h, to _ROOT_TOL."""
    return abs(_cf_value(h, tables, depth)[0]) < _ROOT_TOL


def infinite_cf(h: complex, p: ParamTuple, depth: int = 400, variant: str = "corrected") -> CFValue:
    """g(h) = L0/M0 - (K1/M1)/(L1/M1 - (K2/M2)/(L2/M2 - ...)).

    Backward (tail-to-head) evaluation at the depth the fraction needs, with
    `depth` as the cap (see ``_cf_value``); the result reports the levels
    used and the truncation bound of that pass, which is first order and can
    read low by about |1 + k^2| / (1 - |k^2|) near |k| = 1.  Raises
    ZeroPivot if a partial denominator vanishes exactly (caller nudges h
    and retries).
    """
    _check_depth(depth)
    tables = _weights(p, variant, depth + 2)
    g, _, bound, n = _cf_value(h, tables, depth)
    return CFValue(value=g, depth=n, truncation_bound=bound)


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
    upper bound (or a NaN bound) raises ValueError, as do a `depth` that is
    not an int >= 1 and a `tol` that is not finite and > 0.  Candidates are
    the eigenvalues of the truncation matrix J_n (Ince's method, solved by
    ``_tridiagonal_eigvals``), polished by Newton steps on the fraction,
    which runs at the depth it needs up to the cap `depth`, to `tol`.
    n doubles from 32 until every candidate polishes onto a root near
    itself and two successive sets agree, at most to depth+1, where the
    eigenvalues are exactly the zeros at `depth`.  A tuple that terminates at q (K_{q+1} = 0) stops at order
    min(depth, q) + 1: g is then a finite fraction whose zeros are exactly
    the eigenvalues of J_{q+1}.  Each root must be stable when re-polished
    with the cap doubled (else DepthUnstable).
    """
    _check_depth(depth)
    _check_tol(tol)
    lo, hi = region
    box = region if isinstance(lo, (tuple, list)) else ((lo, hi), (0.0, 0.0))
    if not all(a <= b for a, b in box):   # also refuses a NaN bound
        raise ValueError(f"region {region}: each lower bound must be at most its upper bound")
    q = termination_check(p)
    top = depth + 1 if q is None else min(depth, q) + 1
    tables = _weights(p, variant, 2 * depth + 1)
    prev, n = None, 32
    while True:
        found, resolved = _matrix_roots(tables, min(n, top), box, depth, tol)
        if n >= top or (resolved and prev is not None and len(found) == len(prev)
                        and all(np.isclose(r, prev, rtol=1e-8, atol=1e-8).any() for r in found)):
            break
        prev, n = found if resolved else None, 2 * n
    stable = []
    for r in found:
        r2, _ = _polish_root(tables, r, 2 * depth, tol)
        if abs(r2 - r) > 100 * tol * max(1.0, abs(r)):
            raise DepthUnstable(f"root {r} moved by {abs(r2 - r):.3e} when depth doubled")
        stable.append(r2)
    return sorted(stable, key=lambda z: (z.real, z.imag))


def _matrix_roots(tables, n, box, depth, tol) -> tuple[list[complex], bool]:
    """The distinct zeros of g at `depth` in the box (|g| < 1e-8), polished
    from the eigenvalues of J_n in or near it, and whether each of those
    polished onto a root within 1% of itself.  (Near a high eigenvalue g
    has a pole almost on the root, so a rough eigenvalue can polish onto a
    far root, and two short truncations can agree on missing a root.)"""
    (rl, rh), (il, ih) = box
    pad = max(1.0, rh - rl, ih - il)
    roots: list[complex] = []
    resolved = True
    for e in _tridiagonal_eigvals(_truncation_matrix(tables, n)):
        if not (rl - pad <= e.real <= rh + pad and il - pad <= e.imag <= ih + pad):
            continue
        r, g = _polish_root(tables, complex(e), depth, tol)
        resolved = resolved and abs(r - e) <= 1e-2 * max(1.0, abs(e))
        # a root within tol of the region's imaginary range is put on it (a
        # real interval gets real roots) and tested there; else the polish's
        # last value is its root test
        im = min(max(r.imag, il), ih)
        if abs(r.imag - im) <= tol * max(1.0, abs(r)):
            if r.imag != im:
                g = _cf_value(complex(r.real, im), tables, depth)[0]
            r = complex(r.real, im)
        if (
            rl <= r.real <= rh
            and il <= r.imag <= ih
            and abs(g) < _ROOT_TOL
            and not np.isclose(r, roots, rtol=1e-8, atol=1e-8).any()
        ):
            roots.append(r)
    return roots, resolved


def _polish_root(tables, r, depth, tol) -> tuple[complex, complex]:
    """Newton steps on the fraction (capped at `depth`) from r, until a step
    is below tol (relative to max(1, |x|)).  Returns the polished point and
    the fraction's value at the last point evaluated: one step before it,
    or at it where a zero slope or a non-finite step stopped the steps."""
    x = r
    for _ in range(60):
        g, slope, _, _ = _cf_value(x, tables, depth)
        if slope == 0:
            break
        step = g / slope
        if not cmath.isfinite(step):
            break
        x -= step
        if abs(step) < tol * max(1.0, abs(x)):
            break
    return x, g


def convergence_domain(p: ParamTuple, h: complex, depth: int = 400, variant: str = "corrected") -> float:
    """Certified convergence radius in |sn u|.

    max(1, |k|^-1) when the infinite continued fraction vanishes at h,
    min(1, |k|^-1) otherwise; math.inf for a terminating (polynomial)
    channel, whose finite sum is unbounded on the torus minus the poles.
    The fraction runs at the depth it needs, with `depth` as its cap.
    """
    _check_depth(depth)
    ak = abs(p.k)
    if abs(ak - 1.0) < 1e-12:
        raise ModulusOnUnitCircle("|k| = 1: convergence radii coincide")
    q = termination_check(p)      # p.h is not read: the tables and J are h-free
    if q is not None:
        eigs = polynomial_eigenvalues(p, q, variant)
        if any(abs(h - e) < 1e-8 * max(1.0, abs(e)) for e in eigs):
            return math.inf
    if _is_cf_root(h, _weights(p, variant, depth + 1), depth):
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

#: Largest |shift| ``_power_sum`` hands to ldexp: any nonzero finite double
#: times 2^2200 is past 2^1024, and times 2^-2200 below 2^-1075, so a larger
#: shift saturates to the same inf or 0.
_SHIFT_CLIP = 2200


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
    running power is renormalised.  The exponent bookkeeping is int64; the
    shift handed to ldexp is clipped to +-_SHIFT_CLIP and cast to a C int,
    whose ldexp loop is about 10x faster than numpy's int64 one.
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
            terms = _ldexp(pw, np.clip(shift, -_SHIFT_CLIP, _SHIFT_CLIP).astype(np.intc))
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
    finite.  The certified radius is ``coeffs.radius``.  With ``detail=True``
    returns a DlValue carrying a geometric tail bound estimated from the
    Poincare ratio |sn u|^2 / radius^2.
    """
    if coeffs is None:
        coeffs = dl_coefficients(p, N, variant=variant, mode=mode)
    return _dl_from_jacobi(p, coeffs, *jacobi_sn_cn_dn(u, p.k), detail=detail)


def _dl_from_jacobi(p: ParamTuple, coeffs: SeriesCoefficients, sn, cn, dn, detail: bool = False):
    """``dl_eval`` from (sn, cn, dn) at the points u: scalars for a scalar u,
    arrays of u's shape for an array (``jacobi_sn_cn_dn`` gives both), with
    the same value, tail bound and refusals."""
    shape = sn.shape if isinstance(sn, np.ndarray) else None
    sn, cn, dn = (np.asarray(x, complex).ravel() for x in (sn, cn, dn))
    s2 = sn * sn
    asn = np.abs(sn)
    outside = asn >= coeffs.radius
    if outside.any():
        i = int(np.argmax(outside))
        raise OutsideConvergence(
            f"|sn u| = {asn[i]:.6f} outside certified radius", index=None if shape is None else i
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
    rho = np.abs(s2) / coeffs.radius**2      # 0 for a terminated series
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = np.where(rho < 1, last * rho / (1 - rho) * np.abs(pref), math.inf)
    if shape is None:
        value, tail = complex(value[0]), float(tail[0])
    else:
        value, tail = value.reshape(shape), tail.reshape(shape)
    return DlValue(value=value, tail_bound=tail) if detail else value


def darboux_potential(u, p: ParamTuple):
    """The equation's potential V(u): the solution satisfies y'' + (h - V) y = 0.

    Elementwise for a numpy array of u.  PoleProximity where sn, cn or dn
    vanishes: there u is one of the equation's singular points."""
    return _potential_from_jacobi(p, *jacobi_sn_cn_dn(u, p.k))


def _potential_from_jacobi(p: ParamTuple, sn, cn, dn):
    """``darboux_potential`` from (sn, cn, dn) at the points u, scalars or
    arrays, elementwise; PoleProximity where one of them vanishes."""
    xi, eta, mu, nu = p.exponents
    k2 = p.k * p.k
    _refuse_zero("the potential", sn, cn, dn)
    return (
        xi * (xi + 1) / (sn * sn)
        + eta * (eta + 1) * (dn / cn) ** 2
        + mu * (mu + 1) * k2 * (cn / dn) ** 2
        + nu * (nu + 1) * k2 * sn * sn
    )
