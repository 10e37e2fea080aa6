"""The Weierstrass-side picture of the equation.

Lattice e-values, the p-function evaluated through its Jacobi conversion,
the six anharmonic maps on the elliptic-curve family over the tau-line,
half-period shifts as addition of 2-torsion points on the cubic, the
algebraic form of the equation's potential, and the Weierstrass-form
accessory-parameter map.

Conventions: half-periods are labeled (omega1, omega3) for the ordered
basis with omega2 = omega1 + omega3; for the lattice Z + tau*Z these are
(1/2, tau/2).  e-values then carry the labels e1 = p(1/2),
e2 = p((1+tau)/2), e3 = p(tau/2), and lambda(tau) = (e2-e3)/(e1-e3) = k^2.
The anharmonic maps are honest lattice isomorphisms; three of them send
tau to the lower half-plane, where Z + tau*Z = Z + (-tau)*Z keeps every
lattice quantity well-defined.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .elliptic import (
    ModulusData,
    _check_modulus,
    _lattice_remainder,
    _theta_all,
    jacobi_sn_cn_dn,
    lambda_of_tau,
)
from .errors import ParabolicImage, PoleProximity
from .symmetry import AnhElement, anh_element

_REAL_TAU_TOL = 1e-12


@dataclass(frozen=True)
class EValues:
    """Lattice invariants of weight 2; e1 + e2 + e3 = 0, pairwise distinct."""

    e1: complex
    e2: complex
    e3: complex

    def as_tuple(self) -> tuple[complex, complex, complex]:
        return (self.e1, self.e2, self.e3)

    @property
    def g2(self) -> complex:
        e1, e2, e3 = self.as_tuple()
        return -4 * (e1 * e2 + e2 * e3 + e3 * e1)

    @property
    def g3(self) -> complex:
        return 4 * self.e1 * self.e2 * self.e3


def evalues_from_modulus(k: complex, scale: complex = 1.0) -> EValues:
    """The unique e-values with k^2 = (e2-e3)/(e1-e3), e1-e3 = scale, sum 0.

    DegenerateModulus for a k that ``elliptic`` refuses (non-finite, or
    k^2 in {0, 1}); ValueError for a zero or non-finite scale."""
    if scale == 0 or not cmath.isfinite(scale):
        raise ValueError(f"scale must be finite and nonzero, got {scale}")
    k = _check_modulus(k)
    k2 = k * k
    e1 = scale * (2 - k2) / 3
    e2 = scale * (2 * k2 - 1) / 3
    e3 = -scale * (1 + k2) / 3
    return EValues(e1=e1, e2=e2, e3=e3)


def _norm_tau(tau: complex) -> complex:
    """Representative of the lattice Z + tau*Z in the upper half-plane."""
    tau = complex(tau)
    if abs(tau.imag) < _REAL_TAU_TOL:
        raise ParabolicImage(f"tau = {tau} is real: degenerate lattice")
    return tau if tau.imag > 0 else -tau


def evalues_from_tau(tau: complex) -> tuple[complex, complex, complex]:
    """(e1, e2, e3) of the lattice Z + tau*Z via theta fourth powers.

    Branch-free in tau (entire functions of the nome), so this is the
    normalization under which the weight-2 covariance of the e-values can
    be tested exactly.  Equals evalues_from_modulus(sqrt(lambda(tau)))
    scaled by (pi theta_3^2)^2 * ... = 4 K^2 on the principal region.
    """
    tau = _norm_tau(tau)
    q = cmath.exp(1j * cmath.pi * tau)
    _, t2, t3, t4 = _theta_all(0.0, q)
    c = cmath.pi**2 / 3
    e1 = c * (t3**4 + t4**4)
    e2 = c * (t2**4 - t4**4)
    e3 = -c * (t2**4 + t3**4)
    return (e1, e2, e3)


def wp(z: complex, ev: EValues, k: complex, guard: float = 1e-8) -> complex:
    """Weierstrass p through the Jacobi conversion p(z) = e3 + (e1-e3) ns^2(u, k)
    with u = sqrt(e1-e3) z (principal root).  Even and doubly periodic."""
    root = cmath.sqrt(ev.e1 - ev.e3)
    u = root * complex(z)
    md = ModulusData.from_modulus(k)
    if _lattice_remainder(u, 2 * md.K, 2j * md.Kp) < guard:
        raise PoleProximity(f"z = {z} is on (or too near) the period lattice")
    sn = jacobi_sn_cn_dn(u, k)[0]
    return ev.e3 + (ev.e1 - ev.e3) / (sn * sn)


def wp_tau(z: complex, tau: complex) -> complex:
    """p(z) on the lattice Z + tau*Z (either half-plane)."""
    tau = _norm_tau(tau)
    e = evalues_from_tau(tau)
    ev = EValues(*e)
    lam = lambda_of_tau(tau)
    return wp(z, ev, cmath.sqrt(lam))


@dataclass(frozen=True)
class CurvePoint:
    """Affine point (x, y) on y^2 = 4x^3 - g2 x - g3 at parameter tau, or the
    point at infinity (an explicit tagged state: the group identity)."""

    x: complex = 0j
    y: complex = 0j
    tau: complex = 0j
    infinity: bool = False

    @classmethod
    def at_infinity(cls, tau: complex) -> "CurvePoint":
        return cls(infinity=True, tau=tau)

    def curve_residual(self, ev: EValues) -> float:
        if self.infinity:
            return 0.0
        lhs = self.y**2
        rhs = 4 * self.x**3 - ev.g2 * self.x - ev.g3
        return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def curve_add(p: CurvePoint, q: CurvePoint, ev: EValues) -> CurvePoint:
    """Chord-tangent addition on y^2 = 4x^3 - g2 x - g3, identity at infinity."""
    if p.infinity:
        return q
    if q.infinity:
        return p
    if abs(p.x - q.x) < 1e-13 * max(1.0, abs(p.x)):
        if abs(p.y + q.y) < 1e-13 * max(1.0, abs(p.y), 1e-13):
            return CurvePoint.at_infinity(p.tau)
        m = (12 * p.x**2 - ev.g2) / (2 * p.y)
    else:
        m = (q.y - p.y) / (q.x - p.x)
    x3 = m * m / 4 - p.x - q.x
    y3 = -(m * (x3 - p.x) + p.y)
    return CurvePoint(x=x3, y=y3, tau=p.tau)


def half_period_shift(j: int, p: CurvePoint, ev: EValues) -> CurvePoint:
    """Translation by the j-th half-period: addition of the 2-torsion point
    (e_j, 0); j = 0 is the identity.  Order two by construction."""
    if j not in (0, 1, 2, 3):
        raise ValueError("j must be 0..3")
    if j == 0:
        return p
    t = CurvePoint(x=ev.as_tuple()[j - 1], y=0j, tau=p.tau)
    return curve_add(p, t, ev)


def anh_on_E(tag_or_elem, p: CurvePoint) -> CurvePoint:
    """The six explicit anharmonic maps on the curve family.

    I:(x,y;tau), A:((tau-1)^2 x, (tau-1)^3 y; tau/(tau-1)),
    B:(tau^2 x, tau^3 y; 1/tau), C:(x, y; 1-tau),
    D:(tau^2 x, tau^3 y; (tau-1)/tau), E:((1-tau)^2 x, (1-tau)^3 y; 1/(1-tau)).

    The output satisfies its own curve equation (same lattice up to the
    scaling); ParabolicImage when the new tau is real, which happens only
    for invalid (real) input tau.
    """
    tag = tag_or_elem.tag if isinstance(tag_or_elem, AnhElement) else tag_or_elem
    tau = p.tau
    if tag == "I":
        fac, new_tau = 1.0 + 0j, tau
    elif tag == "A":
        fac, new_tau = tau - 1, tau / (tau - 1)
    elif tag == "B":
        fac, new_tau = tau, 1 / tau
    elif tag == "C":
        fac, new_tau = 1.0 + 0j, 1 - tau
    elif tag == "D":
        fac, new_tau = tau, (tau - 1) / tau
    elif tag == "E":
        fac, new_tau = 1 - tau, 1 / (1 - tau)
    else:
        raise ValueError(f"unknown anharmonic tag {tag!r}")
    if abs(complex(new_tau).imag) < _REAL_TAU_TOL:
        raise ParabolicImage(f"image tau = {new_tau} is real (invalid input tau)")
    if p.infinity:
        return CurvePoint.at_infinity(new_tau)
    return CurvePoint(x=fac**2 * p.x, y=fac**3 * p.y, tau=new_tau)


def darboux_potential_algebraic(x: complex, ev: EValues, xi, eta, mu, nu,
                                guard: float = 1e-10) -> complex:
    """The algebraic potential of the equation's operator on the curve:

        xi(xi+1) x + sum over j of gamma_j(gamma_j+1) *
            [(x-e_k)(x-e_l) - (x-e_j)^2] / (x-e_j),

    with (gamma_1, gamma_2, gamma_3) = (eta, mu, nu).  At x = p(z) this
    equals the transcendental potential xi(xi+1) p(z) + sum gamma(gamma+1)
    p(z+omega_j) up to the additive constant 2*sum gamma_j(gamma_j+1) e_j
    (the half-period addition formula; the constant is itself weight-2
    covariant, so the pull-back covariance statement is identical for both
    forms).
    """
    e = ev.as_tuple()
    for ej in e:
        if abs(x - ej) < guard:
            raise PoleProximity(f"x = {x} too close to e-value {ej}")
    out = xi * (xi + 1) * x
    gammas = (eta, mu, nu)
    for j in range(3):
        ej = e[j]
        ek, el = (e[(j + 1) % 3], e[(j + 2) % 3])
        out += gammas[j] * (gammas[j] + 1) * ((x - ek) * (x - el) - (x - ej) ** 2) / (x - ej)
    return out


def accessory_weierstrass(tag: str, h: complex, tau: complex) -> complex:
    """Weierstrass-form accessory map: I,C keep h; A,E give (tau-1)^2 h;
    B,D give tau^2 h."""
    hw = anh_element(tag).hW_tag
    if hw == "h":
        return h
    if hw == "(tau-1)^2*h":
        return (tau - 1) ** 2 * h
    if hw == "tau^2*h":
        return tau**2 * h
    raise ValueError(f"unknown accessory tag {hw!r}")
