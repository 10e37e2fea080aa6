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
from dataclasses import dataclass
from functools import lru_cache

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
    if not (cmath.isfinite(k.real) and cmath.isfinite(k.imag)):
        raise DegenerateModulus(f"modulus must be finite, got {k}")
    k2 = k * k
    if abs(k2) < _DEGENERATE_TOL or abs(k2 - 1) < _DEGENERATE_TOL:
        raise DegenerateModulus(f"k^2 = {k2} is in {{0, 1}}")
    return k


def _agm(a: complex, b: complex) -> complex:
    """Arithmetic-geometric mean with the right-choice square root."""
    for _ in range(64):
        if abs(a - b) <= 1e-17 * abs(a):
            return a
        a, b = (a + b) / 2, cmath.sqrt(a * b)
        if abs(a - b) > abs(a + b):
            b = -b
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


def _theta_all(z: complex, q: complex) -> tuple[complex, complex, complex, complex]:
    """theta_1..theta_4 at z with nome q, truncated q-series.

    Terms are added until two consecutive ones fall below 1e-17 of the
    partial sum (|q| < 1 makes the decay super-geometric); hard cap 256.
    A far-off z whose sin/cos terms overflow raises NonConvergence.
    """
    if abs(q) >= 1:
        raise NomeOutOfDisc(f"|q| = {abs(q)} >= 1")
    z = complex(z)
    try:
        return _theta_series(z, q)
    except OverflowError as exc:
        raise NonConvergence(f"theta series overflowed at z = {z}") from exc


def _theta_series(z: complex, q: complex) -> tuple[complex, complex, complex, complex]:
    q4 = q**0.25
    t1 = 0j
    t2 = 0j
    qq = 1.0 + 0j  # q^{n(n+1)}
    small = 0
    for n in range(_THETA_CAP):
        if n > 0:
            qq *= q ** (2 * n)
        s = cmath.sin((2 * n + 1) * z)
        c = cmath.cos((2 * n + 1) * z)
        sgn = -1 if n % 2 else 1
        a1 = sgn * qq * s
        a2 = qq * c
        t1 += a1
        t2 += a2
        ref = max(abs(t1), abs(t2), 1e-300)
        small = small + 1 if max(abs(a1), abs(a2)) < _THETA_TOL * ref else 0
        if small >= 2:
            break
    else:
        raise NonConvergence("theta_1/theta_2 series did not settle in 256 terms")
    t1 *= 2 * q4
    t2 *= 2 * q4

    t3 = 1.0 + 0j
    t4 = 1.0 + 0j
    qn = 1.0 + 0j  # q^{n^2}
    small = 0
    for n in range(1, _THETA_CAP):
        qn *= q ** (2 * n - 1)
        c = cmath.cos(2 * n * z)
        sgn = -1 if n % 2 else 1
        a3 = 2 * qn * c
        t3 += a3
        t4 += sgn * a3
        small = small + 1 if abs(a3) < _THETA_TOL * max(abs(t3), 1e-300) else 0
        if small >= 2:
            break
    else:
        raise NonConvergence("theta_3/theta_4 series did not settle in 256 terms")
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
    q = exp(i pi tau) with |q| < 1, and k^2 not in {0, 1}.
    """

    k: complex
    kp: complex
    K: complex
    Kp: complex
    q: complex
    tau: complex

    @classmethod
    def from_modulus(cls, k: complex) -> "ModulusData":
        return _modulus_data_cached(complex(k))

    def theta_zero(self) -> tuple[complex, complex, complex, complex]:
        return _theta_all(0.0, self.q)


@lru_cache(maxsize=512)
def _modulus_data_cached(k: complex) -> ModulusData:
    K, Kp = complete_elliptic(k)
    kp = cmath.sqrt(1 - k * k)
    tau = 1j * Kp / K
    q = cmath.exp(1j * cmath.pi * tau)
    if abs(q) >= 1:
        raise NomeOutOfDisc(f"nome |q| = {abs(q)} >= 1 for k = {k}")
    return ModulusData(k=k, kp=kp, K=K, Kp=Kp, q=q, tau=tau)


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


def _lattice_remainder(u: complex, p1: complex, p2: complex) -> float:
    """Distance from u to the lattice Z*p1 + Z*p2."""
    det = p1.real * p2.imag - p1.imag * p2.real
    a = (u.real * p2.imag - u.imag * p2.real) / det
    b = (p1.real * u.imag - p1.imag * u.real) / det
    a -= round(a)
    b -= round(b)
    best = float("inf")
    for da in (-1, 0, 1):
        for db in (-1, 0, 1):
            best = min(best, abs((a + da) * p1 + (b + db) * p2))
    return best


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
    return _lattice_remainder(complex(u) - off, 2 * md.K, 2j * md.Kp)


def _glyph(code: str, sn: complex, cn: complex, dn: complex) -> complex:
    """The glyph p/q from (sn, cn, dn); letters s, c, d, n stand for sn, cn, dn, 1."""
    vals = (sn, cn, dn, 1)
    p, q = _LETTERS.index(code[0]), _LETTERS.index(code[1])
    return vals[p] if q == 3 else vals[p] / vals[q]


def jacobi_sn_cn_dn(u: complex, k: complex) -> tuple[complex, complex, complex]:
    """(sn, cn, dn)(u, k) via theta quotients; no pole guard applied."""
    md = ModulusData.from_modulus(complex(k))
    v = cmath.pi * complex(u) / (2 * md.K)
    t1, t2, t3, t4 = _theta_all(v, md.q)
    z1, z2, z3, z4 = md.theta_zero()
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
