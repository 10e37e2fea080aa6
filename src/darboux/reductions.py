"""Classical specializations and functional identities.

The one-term potential (only the sn^2 coefficient present) is preserved by
exactly six of the 24 transformations; the two-term potential (cd^2 and
sn^2) by exactly four.  The Landen and duplication identities relate local
solutions at different moduli / arguments when the exponent parameters are
pairwise equal; both are shipped as machine-checkable value pairs with the
underlying potential identities exposed as sub-checks.
"""

from __future__ import annotations

import cmath

from .elliptic import _refuse_zero, jacobi_sn_cn_dn
from .series import dl_eval
from .symmetry import ParamTuple, TransformRow, gii_by_name

LAME_SUBGROUP_NAMES = ("I0", "A1", "B2", "C0", "D2", "E1")
ASSOC_LAME_SUBGROUP_NAMES = ("I0", "I1", "A0", "A1")


def lame_subgroup() -> list[TransformRow]:
    """The six transformations preserving the one-potential form.

    Closed under composition and isomorphic to S3: these are exactly the
    rows whose parameter permutation fixes the fourth slot.
    """
    return [gii_by_name(n) for n in LAME_SUBGROUP_NAMES]


def assoc_lame_subgroup() -> list[TransformRow]:
    """The four transformations preserving the two-potential (cd^2, sn^2)
    form; a Klein four-group."""
    return [gii_by_name(n) for n in ASSOC_LAME_SUBGROUP_NAMES]


def landen_modulus(k: complex) -> complex:
    kp = cmath.sqrt(1 - k * k)
    return (1 - kp) / (1 + kp)


def landen_accessory(h: complex, xi: complex, nu: complex, k: complex) -> complex:
    kp = cmath.sqrt(1 - k * k)
    return (h - k * k * xi * (xi + 1) - k * k * nu * (nu + 1)) / (1 + kp) ** 2


def landen_potential_identity(u: complex, k: complex) -> tuple[float, float]:
    """Residuals of the two half-argument potential identities

        (1+k')^2 kappa*^2 sn^2(w, kappa*) + k^2 = k^2 sn^2 + k^2 cd^2
        (1+k')^2          ns^2(w, kappa*) + k^2 = ns^2 + dc^2

    with w = (1+k')u, kappa* = (1-k')/(1+k').  (The second identity is the
    corrected form; the published version carries a spurious kappa*^2.)
    PoleProximity where a denominator sn, cn or dn vanishes.
    """
    k = complex(k)
    kp = cmath.sqrt(1 - k * k)
    ks = landen_modulus(k)
    w = (1 + kp) * complex(u)
    snw = jacobi_sn_cn_dn(w, ks)[0]
    sn, cn, dn = jacobi_sn_cn_dn(u, k)
    _refuse_zero("the Landen identity", snw, sn, cn, dn)
    lhs1 = (1 + kp) ** 2 * ks**2 * snw**2 + k * k
    rhs1 = k * k * sn**2 + k * k * (cn / dn) ** 2
    lhs2 = (1 + kp) ** 2 / snw**2 + k * k
    rhs2 = 1 / sn**2 + (dn / cn) ** 2
    return abs(lhs1 - rhs1), abs(lhs2 - rhs2)


def landen_pair(
    xi: complex, nu: complex, h: complex, k: complex, u: complex, N: int = 200
) -> tuple[complex, complex]:
    """Both sides of the Landen transformation formula:

        Dl(xi,0,0,nu; h*; (1+k')u, (1-k')/(1+k'))
            = (1+k')^(xi+1) Dl(xi,xi,nu,nu; h; u, k),

    h* = [h - k^2 xi(xi+1) - k^2 nu(nu+1)] / (1+k')^2.
    """
    k = complex(k)
    kp = cmath.sqrt(1 - k * k)
    ks = landen_modulus(k)
    hs = landen_accessory(h, xi, nu, k)
    lhs = dl_eval(ParamTuple(xi, 0.0, 0.0, nu, h=hs, k=ks), (1 + kp) * u, N=N)
    rhs = (1 + kp) ** (xi + 1) * dl_eval(ParamTuple(xi, xi, nu, nu, h=h, k=k), u, N=N)
    return lhs, rhs


def duplication_potential_identity(u: complex, k: complex) -> float:
    """Residual of ns^2 + dc^2 + k^2 cd^2 + k^2 sn^2 = 4 ns^2(2u, k).
    PoleProximity where a denominator sn, cn or dn vanishes."""
    k = complex(k)
    sn, cn, dn = jacobi_sn_cn_dn(u, k)
    sn2 = jacobi_sn_cn_dn(2 * complex(u), k)[0]
    _refuse_zero("the duplication identity", sn, cn, dn, sn2)
    lhs = 1 / sn**2 + (dn / cn) ** 2 + k * k * (cn / dn) ** 2 + k * k * sn**2
    return abs(lhs - 4 / sn2**2)


def duplication_pair(
    xi: complex, h: complex, k: complex, u: complex, N: int = 200
) -> tuple[complex, complex]:
    """Both sides of the duplication formula:

        Dl(xi,0,0,0; h/4; 2u, k) = 2^(xi+1) Dl(xi,xi,xi,xi; h; u, k).
    """
    lhs = dl_eval(ParamTuple(xi, 0.0, 0.0, 0.0, h=h / 4, k=k), 2 * complex(u), N=N)
    rhs = 2 ** (xi + 1) * dl_eval(ParamTuple(xi, xi, xi, xi, h=h, k=k), u, N=N)
    return lhs, rhs
