"""Complex-argument, complex-modulus Jacobi elliptic functions.

Everything downstream (symmetry tables, series solutions, Weierstrass
conversions) evaluates through this module.  The implementation is
theta-quotient based: quarter periods come from the arithmetic-geometric
mean, the nome q = exp(i*pi*tau) from tau = i*K'/K, and sn/cn/dn from
quotients of the four theta series.  This is uniform in complex u and
works for the complex moduli (i*k/k', 1/k, ...) that the transformation
tables require, where real-modulus algorithms fail.

Branch conventions: principal square roots throughout; during the AGM the
geometric-mean sign is corrected so that |a - b| <= |a + b| at every step
(this keeps the iteration contracting and matches the principal-branch
quadrature value of the defining integral on the test set).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DegenerateModulus,
    LowerHalfPlane,
    NomeOutOfDisc,
    NonConvergence,
    PoleProximity,
)

#: The twelve Jacobi glyphs.  The nine derived ones are quotients of the
#: basic three, built exactly as quotients (bitwise, no separate series).
JACOBI_CODES = ("sn", "cn", "dn", "ns", "nc", "nd", "sc", "cs", "sd", "ds", "cd", "dc")

#: Glyph letters in half-period order.  The glyph p/q has its poles at the
#: zeros of q: those of sn, cn, dn sit at 0, K, K+iK', and a glyph over
#: n = 1 has the poles of sn, cn, dn, at iK'.
_LETTERS = "scdn"

#: Names of the half-periods returned by ``singular_points``.
SINGULAR_POINT_NAMES = ("0", "K", "K+iKp", "iKp")

#: Default guard radius (in u-units) around poles of the requested glyph.
DEFAULT_POLE_GUARD = 0.05

_DEGENERATE_TOL = 1e-14
_THETA_CAP = 256
_THETA_TOL = 1e-17


def _check_modulus(k: complex) -> complex:
    k = complex(k)
    if not cmath.isfinite(k):
        raise DegenerateModulus(f"modulus must be finite, got {k}")
    k2 = k * k
    if abs(k2) < _DEGENERATE_TOL or abs(k2 - 1) < _DEGENERATE_TOL:
        raise DegenerateModulus(f"k^2 = {k2} is in {{0, 1}}")
    return k


def _agm(a: complex, b: complex) -> complex:
    """Arithmetic-geometric mean with the right-choice square root.

    Returns a once |a - b| <= 1e-17 |a|.  Otherwise the steps stop at the
    first one that leaves (a, b) unchanged, since every later step would
    repeat it (quadratic convergence gets there within about 16 steps), or
    after 64; the pair they stop on is accepted if a and b agree to 1e-12,
    else NonConvergence."""
    for _ in range(64):
        if abs(a - b) <= 1e-17 * abs(a):
            return a
        a1, b1 = (a + b) / 2, cmath.sqrt(a * b)
        if abs(a1 - b1) > abs(a1 + b1):
            b1 = -b1
        if a1 == a and b1 == b:
            break
        a, b = a1, b1
    if abs(a - b) <= 1e-12 * max(abs(a), 1.0):
        return a
    raise NonConvergence(f"AGM failed to contract for ({a}, {b})")


def complete_elliptic(k: complex) -> tuple[complex, complex]:
    """Complete elliptic integrals (K(k), K'(k)) for a complex modulus.

    K(k) = pi / (2 agm(1, k')) with k' = sqrt(1 - k^2) principal, and
    K'(k) = K(k').  Raises DegenerateModulus for k^2 in {0, 1} and
    NonConvergence if the AGM fails to contract.
    """
    k = _check_modulus(k)
    kp = cmath.sqrt(1 - k * k)
    K = cmath.pi / (2 * _agm(1.0 + 0j, kp))
    Kp = cmath.pi / (2 * _agm(1.0 + 0j, k))
    return K, Kp


def _theta_terms(q: complex, im: float) -> int:
    """The largest merged index j the theta series sum at nome q for points
    with |Im z| <= im (odd j = 2n+1 for theta_1/theta_2, even j = 2n for
    theta_3/theta_4).  A term has size about |q|^(j^2/4) e^(j im), a
    parabola a j^2 + im j in the log with a = log|q| / 4; the sum stops at
    the first index past the peak whose term is below 1e-17 of the peak
    term (DLMF 20.2).  The parabola's peak is at top = im / (2|a|) and it
    falls 1e-17 below it at x; ceil(x) + 1 is that index or one more, and
    one test of the index below settles which.  More than 2 * 256 terms
    raise NonConvergence."""
    if abs(q) >= 1:
        raise NomeOutOfDisc(f"|q| = {abs(q)} >= 1")
    if q == 0:
        return 1
    a, tol = math.log(abs(q)) / 4, math.log(_THETA_TOL)
    top = im / (-2 * a)
    x = top + math.sqrt(tol / a)
    if x <= 2 * _THETA_CAP:   # False for a NaN or infinite im
        last, peak = math.ceil(x) + 1, max(1, math.ceil(top - 0.5))
        if (last - 1) ** 2 * a + (last - 1) * im < peak * peak * a + peak * im + tol:
            last -= 1
        if last <= 2 * _THETA_CAP:
            return last
    raise NonConvergence(f"theta series need more than {2 * _THETA_CAP} terms at |Im z| = {im:.6g}")


@lru_cache(maxsize=256)
def _theta_weights(q: complex, last: int) -> tuple[list, list]:
    """The q-power weights up to the merged index `last`: q^{n(n+1)} for
    n = 0 .. (last-1)//2 and q^{n^2} for n = 1 .. last//2."""
    qq, qn, w12, w34 = 1.0 + 0j, 1.0 + 0j, [], []
    for n in range((last + 1) // 2):
        if n > 0:
            qq *= q ** (2 * n)
        w12.append(qq)
    for n in range(1, last // 2 + 1):
        qn *= q ** (2 * n - 1)
        w34.append(qn)
    return w12, w34


@lru_cache(maxsize=64)
def _theta_rows(q: complex, last: int) -> tuple[np.ndarray, ...]:
    """``_theta_weights`` as read-only arrays for the batched sums: w12, its
    alternating-sign copy, 2 w34 and its alternating-sign copy."""
    w12, w34 = _theta_weights(q, last)
    w12, w34 = np.array(w12), 2 * np.array(w34)
    rows = (w12, np.where(np.arange(len(w12)) % 2, -1.0, 1.0) * w12,
            w34, np.where(np.arange(1, len(w34) + 1) % 2, -1.0, 1.0) * w34)
    for r in rows:
        r.flags.writeable = False
    return rows


def _theta_all(z: complex, q: complex) -> tuple[complex, complex, complex, complex]:
    """theta_1..theta_4 at a scalar z with nome q: the q-series summed term
    by term to ``_theta_terms``.  A far-off z whose sin/cos terms overflow
    raises NonConvergence."""
    z = complex(z)
    w12, w34 = _theta_weights(q, _theta_terms(q, abs(z.imag)))
    t1, t2, t3, t4 = 0j, 0j, 1.0 + 0j, 1.0 + 0j
    try:
        for n, qq in enumerate(w12):
            t1 += (-1 if n % 2 else 1) * qq * cmath.sin((2 * n + 1) * z)
            t2 += qq * cmath.cos((2 * n + 1) * z)
        for n, qn in enumerate(w34, 1):
            a3 = 2 * qn * cmath.cos(2 * n * z)
            t3 += a3
            t4 += (-1 if n % 2 else 1) * a3
    except OverflowError as exc:
        raise NonConvergence(f"theta series overflowed at z = {z}") from exc
    q4 = q**0.25
    return t1 * (2 * q4), t2 * (2 * q4), t3, t4


def _theta_array(z: np.ndarray, q: complex) -> tuple[np.ndarray, ...]:
    """theta_1..theta_4 at a 1-D array z: each series is one (terms x points)
    product of the ``_theta_rows`` weights with np.sin / np.cos of (2n+1) z
    and 2n z, to the ``_theta_terms`` count of max |Im z|."""
    w12, sw12, w34, sw34 = _theta_rows(q, _theta_terms(q, float(np.max(np.abs(z.imag), initial=0.0))))
    odd = np.arange(1, 2 * len(w12), 2)[:, None] * z
    q4 = 2 * q**0.25
    with np.errstate(over="ignore", invalid="ignore"):
        even = np.cos(np.arange(2, 2 * len(w34) + 1, 2)[:, None] * z)
        t1 = q4 * (sw12[:, None] * np.sin(odd)).sum(axis=0)
        t2 = q4 * (w12[:, None] * np.cos(odd)).sum(axis=0)
        t3 = 1 + (w34[:, None] * even).sum(axis=0)
        t4 = 1 + (sw34[:, None] * even).sum(axis=0)
    if not np.isfinite((t1, t2, t3, t4)).all():
        raise NonConvergence(f"theta series overflowed at |Im z| up to {np.max(np.abs(z.imag)):.6g}")
    return t1, t2, t3, t4


def theta(index: int, z: complex, q: complex) -> complex:
    """Jacobi theta function theta_index(z, q), index in 1..4."""
    if index not in (1, 2, 3, 4):
        raise ValueError(f"theta index must be 1..4, got {index}")
    return _theta_all(z, q)[index - 1]


@dataclass(frozen=True)
class ModulusData:
    """One torus: modulus, complementary modulus, quarter periods, nome.

    Invariants (checked at construction): k^2 + k'^2 = 1, tau = i K'/K,
    q = exp(i pi tau) with |q| < 1, and k^2 not in {0, 1}.  The theta
    zero-values are summed once here, not at every sn/cn/dn evaluation.
    """

    k: complex
    kp: complex
    K: complex
    Kp: complex
    q: complex
    tau: complex
    theta_zero: tuple[complex, complex, complex, complex]   # theta_1..4 at z = 0

    @classmethod
    def from_modulus(cls, k: complex) -> "ModulusData":
        k = complex(k)
        if k.real and k.imag:
            return _modulus_data_cached(k)
        # +0.0 and -0.0 compare and hash equal, but a zero part's sign can
        # move tau by 2 or refuse the modulus: it joins the key
        return _modulus_data_cached(k, math.copysign(1.0, k.real), math.copysign(1.0, k.imag))


@lru_cache(maxsize=512)
def _modulus_data_cached(k: complex, *zero_signs: float) -> ModulusData:
    K, Kp = complete_elliptic(k)
    kp = cmath.sqrt(1 - k * k)
    tau = 1j * Kp / K
    q = cmath.exp(1j * cmath.pi * tau)
    if abs(q) >= 1:
        raise NomeOutOfDisc(f"nome |q| = {abs(q)} >= 1 for k = {k}")
    return ModulusData(k=k, kp=kp, K=K, Kp=Kp, q=q, tau=tau, theta_zero=_theta_all(0.0, q))


def nome_and_tau(k: complex) -> tuple[complex, complex]:
    """Nome q and period ratio tau = i K'(k)/K(k) for the modulus k."""
    md = ModulusData.from_modulus(k)
    return md.q, md.tau


def lambda_of_tau(tau: complex) -> complex:
    """Modular lambda invariant, theta-quotient form.

    lambda(tau) = theta_2(0, q)^4 / theta_3(0, q)^4 with q = exp(i pi tau).
    Normalized so that lambda(tau) = k^2 when tau = i K'(k)/K(k); invariant
    under tau -> tau + 2.
    """
    tau = complex(tau)
    if tau.imag <= 0:
        raise LowerHalfPlane(f"Im(tau) = {tau.imag} <= 0")
    q = cmath.exp(1j * cmath.pi * tau)
    _, t2, t3, _ = _theta_all(0.0, q)
    return (t2 / t3) ** 4


#: the rounded lattice cell's neighbours (da, db), and as (9, 1) columns
_CELLS = tuple((da, db) for da in (-1, 0, 1) for db in (-1, 0, 1))
_CELL_A, _CELL_B = np.array(_CELLS, float).T[:, :, None]


def _lattice_remainder(u, p1: complex, p2: complex, origin: complex = 0j):
    """Distance from u to origin + Z*p1 + Z*p2: a float for a scalar u, a
    float array for a 1-D array u, with the same bits per point (np.hypot is
    the hypot of Python's complex abs).  A non-finite u, or a u so large that
    its lattice coordinates are not finite, raises NonConvergence naming it,
    an array's first, before any distance."""
    det = p1.real * p2.imag - p1.imag * p2.real
    if isinstance(u, np.ndarray):
        bad = ~np.isfinite(u)
        if bad.any():
            raise NonConvergence(f"argument u = {u[bad.argmax()]} is not finite")
        with np.errstate(over="ignore", invalid="ignore"):
            w = u - origin
            a = (w.real * p2.imag - w.imag * p2.real) / det
            b = (p1.real * w.imag - p1.imag * w.real) / det
        bad = ~(np.isfinite(a) & np.isfinite(b))
        if bad.any():
            raise _beyond_lattice(u[bad.argmax()])
        d = (a - np.round(a) + _CELL_A) * p1 + (b - np.round(b) + _CELL_B) * p2
        return np.hypot(d.real, d.imag).min(axis=0)
    if not cmath.isfinite(u):
        raise NonConvergence(f"argument u = {u} is not finite")
    w = u - origin
    a = (w.real * p2.imag - w.imag * p2.real) / det
    b = (p1.real * w.imag - p1.imag * w.real) / det
    try:
        a -= round(a)
        b -= round(b)
    except (OverflowError, ValueError):     # round() of an infinite or NaN coordinate
        raise _beyond_lattice(u) from None
    return min(abs((a + da) * p1 + (b + db) * p2) for da, db in _CELLS)


def _beyond_lattice(u) -> NonConvergence:
    return NonConvergence(f"argument u = {u} is too large: its lattice coordinates are not finite")


def singular_points(k: complex) -> tuple[complex, complex, complex, complex]:
    """The four half-periods (0, K, K+iK', iK') for the modulus k.

    They are the equation's regular singular points (named by
    ``SINGULAR_POINT_NAMES``), the Klein shifts of the transformation rows,
    and the pole offsets of the glyphs.
    """
    md = ModulusData.from_modulus(k)
    return (0j, md.K, md.K + 1j * md.Kp, 1j * md.Kp)


def pole_distance(code: str, u: complex, k: complex) -> float:
    """Distance from u to the pole lattice of the requested glyph: the
    half-period named by its second letter, modulo (2K, 2iK')."""
    md = ModulusData.from_modulus(k)
    off = singular_points(k)[_LETTERS.index(code[1])]
    return _lattice_remainder(complex(u), 2 * md.K, 2j * md.Kp, off)


def _refuse_zero(what: str, *dens) -> None:
    """PoleProximity if any of the denominators `dens` (scalars or arrays)
    vanishes at any point."""
    # a scalar keeps the plain test: np.any on it costs more than the quotient
    if any((d == 0).any() if isinstance(d, np.ndarray) else d == 0 for d in dens):
        raise PoleProximity(f"{what} is evaluated at a pole: its denominator vanishes")


def _glyph(code: str, sn, cn, dn):
    """The glyph p/q from (sn, cn, dn) scalars or arrays; letters s, c, d, n
    stand for sn, cn, dn, 1.  PoleProximity if q vanishes at any point."""
    vals = (sn, cn, dn, 1)
    p, q = _LETTERS.index(code[0]), _LETTERS.index(code[1])
    if q == 3:
        return vals[p]
    _refuse_zero(code, vals[q])
    return vals[p] / vals[q]


def _unbounded(u) -> NonConvergence:
    """The refusal of a u whose theta argument pi u / (2K) is not finite."""
    return NonConvergence(f"argument u = {u} is not finite") if not cmath.isfinite(u) else _beyond_lattice(u)


def jacobi_sn_cn_dn(u, k: complex):
    """(sn, cn, dn)(u, k) via theta quotients; no pole guard applied.

    A scalar u gives three complex numbers.  A numpy array of u gives three
    complex arrays of its shape, from one batched theta sum.  A non-finite
    u, or one so large that pi u / (2K) is not finite, raises
    NonConvergence naming it (an array's first).
    """
    md = ModulusData.from_modulus(complex(k))
    if isinstance(u, np.ndarray) and u.ndim:
        w = u.astype(complex).ravel()
        with np.errstate(over="ignore", invalid="ignore"):
            z = cmath.pi * w / (2 * md.K)
        if not np.isfinite(z).all():
            raise _unbounded(w[np.argmin(np.isfinite(z))])
        t1, t2, t3, t4 = (t.reshape(u.shape) for t in _theta_array(z, md.q))
    else:
        w = complex(u)
        z = cmath.pi * w / (2 * md.K)
        if not cmath.isfinite(z):
            raise _unbounded(w)
        t1, t2, t3, t4 = _theta_all(z, md.q)
    z1, z2, z3, z4 = md.theta_zero
    sn = (z3 / z2) * (t1 / t4)
    cn = (z4 / z2) * (t2 / t4)
    dn = (z4 / z3) * (t3 / t4)
    return sn, cn, dn


def jacobi(code: str, u: complex, k: complex, guard: float = DEFAULT_POLE_GUARD) -> complex:
    """One of the twelve Jacobi elliptic functions at complex (u, k).

    Parameters
    ----------
    code : str
        Glyph name, one of ``JACOBI_CODES``.
    u : complex
        Argument.  Must keep `guard` distance from the glyph's poles.
    k : complex
        Modulus, k^2 not in {0, 1}.
    guard : float
        Pole guard radius in u-units; PoleProximity inside it.

    The nine derived glyphs are computed exactly as the defining quotients
    of sn, cn, dn.
    """
    if code not in JACOBI_CODES:
        raise ValueError(f"unknown Jacobi code {code!r}")
    if guard > 0 and pole_distance(code, u, k) < guard:
        raise PoleProximity(f"{code} pole within guard {guard} of u = {u}")
    return _glyph(code, *jacobi_sn_cn_dn(u, k))
