"""Weierstrass layer: e-values, p-function, curve group law, anharmonic maps."""

import cmath

import numpy as np
import pytest

from darboux.elliptic import complete_elliptic, lambda_of_tau
from darboux.errors import DegenerateModulus, ParabolicImage, PoleProximity
from darboux.symmetry import ANH_TAGS, anh_element
from darboux.weierstrass import (
    CurvePoint,
    EValues,
    accessory_weierstrass,
    anh_on_E,
    curve_add,
    darboux_potential_algebraic,
    evalues_from_modulus,
    evalues_from_tau,
    half_period_shift,
    wp,
    wp_tau,
)

GENERIC_TAUS = (0.31 + 1.13j, -0.4 + 0.9j, 2.1j)


def half_periods_z(ev: EValues, k: complex):
    """Half periods in z-units for the (ev, k) normalization of wp."""
    root = cmath.sqrt(ev.e1 - ev.e3)
    K, Kp = complete_elliptic(k)
    return K / root, (K + 1j * Kp) / root, 1j * Kp / root


class TestEValues:
    def test_half_lambda_case(self):
        ev = evalues_from_modulus(cmath.sqrt(0.5))
        assert abs(ev.e1 - 0.5) < 1e-14
        assert abs(ev.e2) < 1e-14
        assert abs(ev.e3 + 0.5) < 1e-14

    def test_sum_zero_and_ratio(self):
        ev = evalues_from_modulus(0.6, scale=2.3 + 0.4j)
        assert abs(ev.e1 + ev.e2 + ev.e3) < 1e-14
        assert abs((ev.e2 - ev.e3) / (ev.e1 - ev.e3) - 0.36) < 1e-14
        assert abs((ev.e1 - ev.e3) - (2.3 + 0.4j)) < 1e-14

    def test_degenerate(self):
        with pytest.raises(DegenerateModulus):
            evalues_from_modulus(1.0)

    @pytest.mark.parametrize("k", [float("nan"), float("inf"), complex(0.6, float("nan"))])
    def test_nonfinite_modulus_refused(self, k):
        with pytest.raises(DegenerateModulus, match="modulus must be finite"):
            evalues_from_modulus(k)

    @pytest.mark.parametrize("scale", [0, float("nan"), complex(float("inf"), 1.0)])
    def test_zero_or_nonfinite_scale_refused(self, scale):
        with pytest.raises(ValueError, match="scale must be finite and nonzero"):
            evalues_from_modulus(0.6, scale=scale)

    def test_evalues_from_tau_matches_modulus_route(self):
        for tau in GENERIC_TAUS:
            lam = lambda_of_tau(tau)
            k = cmath.sqrt(lam)
            e = evalues_from_tau(tau)
            # scale fixed by the period normalization e1 - e3 = pi^2 theta3^4
            ev = evalues_from_modulus(k, scale=e[0] - e[2])
            assert max(abs(a - b) for a, b in zip(e, ev.as_tuple())) < 1e-10


class TestWp:
    def test_values_at_half_periods(self):
        for k in (0.6, 0.3):
            ev = evalues_from_modulus(k)
            w1, w2, w3 = half_periods_z(ev, k)
            assert abs(wp(w1, ev, k) - ev.e1) < 1e-10
            assert abs(wp(w2, ev, k) - ev.e2) < 1e-10
            assert abs(wp(w3, ev, k) - ev.e3) < 1e-10

    def test_even(self):
        ev = evalues_from_modulus(0.6)
        for z in (0.31 + 0.2j, 0.7):
            assert abs(wp(z, ev, 0.6) - wp(-z, ev, 0.6)) < 1e-11

    def test_laurent_normalization(self):
        # z^2 p(z) -> 1 along a ray to 0
        ev = evalues_from_modulus(0.6)
        for t in (1e-3, 1e-4):
            z = t * cmath.exp(0.4j)
            assert abs(z * z * wp(z, ev, 0.6) - 1) < 1e-5

    def test_pole_guard(self):
        ev = evalues_from_modulus(0.6)
        with pytest.raises(PoleProximity):
            wp(1e-12, ev, 0.6)

    def test_wp_tau_lower_half_plane(self):
        # Z + tau Z = Z + (-tau) Z: both half-planes give the same values
        tau = 0.31 + 1.13j
        z = 0.23 + 0.11j
        assert abs(wp_tau(z, tau) - wp_tau(z, -tau)) < 1e-11


class TestCurve:
    def setup_method(self):
        self.tau = 1.0j * complete_elliptic(cmath.sqrt(0.5))[1] / complete_elliptic(cmath.sqrt(0.5))[0]
        self.ev = EValues(*evalues_from_tau(self.tau))

    def _point(self, z):
        x = wp_tau(z, self.tau)
        # p'(z) from the curve equation, sign fixed by a finite difference
        y2 = 4 * x**3 - self.ev.g2 * x - self.ev.g3
        y = cmath.sqrt(y2)
        h = 1e-6
        fd = (wp_tau(z + h, self.tau) - wp_tau(z - h, self.tau)) / (2 * h)
        if abs(fd - y) > abs(fd + y):
            y = -y
        return CurvePoint(x=x, y=y, tau=self.tau)

    def test_point_on_curve(self):
        p = self._point(0.23 + 0.07j)
        assert p.curve_residual(self.ev) < 1e-9

    def test_identity_and_inverse(self):
        p = self._point(0.21)
        inf = CurvePoint.at_infinity(self.tau)
        assert curve_add(p, inf, self.ev) == p
        neg = CurvePoint(x=p.x, y=-p.y, tau=p.tau)
        assert curve_add(p, neg, self.ev).infinity

    def test_addition_matches_wp_translation(self):
        # chord-tangent addition of the 2-torsion point (e_j, 0) realizes
        # z -> z + omega_j on the p-coordinate (independent oracle)
        lam = lambda_of_tau(self.tau)
        k = cmath.sqrt(lam)
        root = cmath.sqrt(self.ev.e1 - self.ev.e3)
        K, Kp = complete_elliptic(k)
        omegas = (K / root, (K + 1j * Kp) / root, 1j * Kp / root)
        z = 0.17 + 0.05j
        p = self._point(z)
        for j in (1, 2, 3):
            shifted = half_period_shift(j, p, self.ev)
            assert abs(shifted.x - wp_tau(z + omegas[j - 1], self.tau)) < 1e-8
            assert shifted.curve_residual(self.ev) < 1e-8

    def test_shift_is_order_two(self):
        p = self._point(0.23 + 0.07j)
        for j in range(4):
            twice = half_period_shift(j, half_period_shift(j, p, self.ev), self.ev)
            assert abs(twice.x - p.x) < 1e-9 and abs(twice.y - p.y) < 1e-8

    def test_klein_four_composition(self):
        # I_a then I_b equals I_c on three generic points
        table = {(1, 2): 3, (2, 3): 1, (1, 3): 2}
        for z in (0.19, 0.23 + 0.07j, 0.11 - 0.04j):
            p = self._point(z)
            for (a, b), c in table.items():
                lhs = half_period_shift(b, half_period_shift(a, p, self.ev), self.ev)
                rhs = half_period_shift(c, p, self.ev)
                assert abs(lhs.x - rhs.x) < 1e-8
                assert abs(lhs.y - rhs.y) < 1e-7


class TestAnhOnE:
    def _point(self, tau, z=0.21 + 0.06j):
        ev = EValues(*evalues_from_tau(tau))
        x = wp_tau(z, tau)
        y2 = 4 * x**3 - ev.g2 * x - ev.g3
        y = cmath.sqrt(y2)
        return CurvePoint(x=x, y=y, tau=tau)

    def test_identity_and_C(self):
        p = self._point(0.31 + 1.13j)
        assert anh_on_E("I", p) == p
        q = anh_on_E("C", p)
        assert q.x == p.x and q.y == p.y and abs(q.tau - (1 - p.tau)) < 1e-15

    def test_B_map(self):
        p = self._point(0.31 + 1.13j)
        q = anh_on_E("B", p)
        assert abs(q.x - p.tau**2 * p.x) < 1e-12
        assert abs(q.y - p.tau**3 * p.y) < 1e-12
        assert abs(q.tau - 1 / p.tau) < 1e-15

    def test_outputs_on_their_own_curve(self):
        for tau in GENERIC_TAUS:
            p = self._point(tau)
            assert p.curve_residual(EValues(*evalues_from_tau(tau))) < 1e-10
            for tag in ANH_TAGS:
                q = anh_on_E(tag, p)
                assert q.curve_residual(EValues(*evalues_from_tau(q.tau))) < 1e-10, (tag, tau)

    def test_parabolic_image(self):
        p = CurvePoint(x=1.0, y=1.0, tau=0.5 + 0j)
        with pytest.raises(ParabolicImage):
            anh_on_E("C", p)


class TestWeight2Covariance:
    def test_e_values_all_six(self):
        for el in [anh_element(t) for t in ANH_TAGS]:
            (a, b), (c, d) = el.matrix
            for tau in GENERIC_TAUS:
                e = evalues_from_tau(tau)
                en = evalues_from_tau((a * tau + b) / (c * tau + d))
                for j in range(3):
                    lhs = en[j]
                    rhs = (c * tau + d) ** 2 * e[el.rho[j]]
                    assert abs(lhs - rhs) <= 1e-8 * max(1, abs(lhs)), (el.tag, tau, j)


class TestAlgebraicPotential:
    def test_zero_parameters(self):
        ev = evalues_from_modulus(0.6)
        assert darboux_potential_algebraic(0.8, ev, 0, 0, 0, 0) == 0

    def test_xi_only(self):
        ev = evalues_from_modulus(0.6)
        assert abs(darboux_potential_algebraic(0.8, ev, 1, 0, 0, 0) - 1.6) < 1e-14

    def test_transcendental_equivalence(self):
        # equals the shifted-argument p-sum up to 2*sum(gamma(gamma+1) e_j),
        # the constant produced by the half-period addition formula
        k = 0.6
        ev = evalues_from_modulus(k)
        w1, w2, w3 = half_periods_z(ev, k)
        xi, eta, mu, nu = 0.23, -0.41, 0.57, 1.13
        const = 2 * (eta * (eta + 1) * ev.e1 + mu * (mu + 1) * ev.e2 + nu * (nu + 1) * ev.e3)
        for z in (0.31 + 0.12j, 0.7 - 0.2j):
            x = wp(z, ev, k)
            alg = darboux_potential_algebraic(x, ev, xi, eta, mu, nu)
            tra = (
                xi * (xi + 1) * wp(z, ev, k)
                + eta * (eta + 1) * wp(z + w1, ev, k)
                + mu * (mu + 1) * wp(z + w2, ev, k)
                + nu * (nu + 1) * wp(z + w3, ev, k)
            )
            assert abs(alg - (tra + const)) < 1e-9 * max(1, abs(alg))

    def test_pullback_covariance(self):
        # after an anharmonic map, the potential picks up (c tau + d)^2 and a
        # rho-permutation of the (eta, mu, nu) slots
        xi, eta, mu, nu = 0.23, -0.41, 0.57, 1.13
        x = 0.37 + 0.21j
        for el in [anh_element(t) for t in ANH_TAGS]:
            (a, b), (c, d) = el.matrix
            for tau in GENERIC_TAUS:
                ev = EValues(*evalues_from_tau(tau))
                evn = EValues(*evalues_from_tau((a * tau + b) / (c * tau + d)))
                fac = (c * tau + d) ** 2
                gam = [eta, mu, nu]
                old = [0j, 0j, 0j]
                for j in range(3):
                    old[el.rho[j]] = gam[j]
                lhs = darboux_potential_algebraic(fac * x, evn, xi, eta, mu, nu)
                rhs = fac * darboux_potential_algebraic(x, ev, xi, *old)
                assert abs(lhs - rhs) <= 1e-8 * max(1, abs(lhs)), (el.tag, tau)

    def test_pole_guard(self):
        ev = evalues_from_modulus(0.6)
        with pytest.raises(PoleProximity):
            darboux_potential_algebraic(ev.e1, ev, 1, 1, 1, 1)


class TestAccessoryWeierstrass:
    def test_table_values(self):
        tau = 0.31 + 1.13j
        h = 0.77
        assert accessory_weierstrass("I", h, tau) == h
        assert accessory_weierstrass("C", h, tau) == h
        assert accessory_weierstrass("A", h, tau) == (tau - 1) ** 2 * h
        assert accessory_weierstrass("E", h, tau) == (tau - 1) ** 2 * h
        assert accessory_weierstrass("B", h, tau) == tau**2 * h
        assert accessory_weierstrass("D", h, tau) == tau**2 * h

    @pytest.mark.parametrize("tag", ANH_TAGS)
    def test_weierstrass_form_covariance(self, tag):
        # h - V(u; tau) = f^-2 (h_W - V(u/f; tau')) with f = c tau + d and
        # tau' from the stored matrix, the (eta, mu, nu) slots permuted by rho
        el = anh_element(tag)
        c, d = el.matrix[1]
        h, xi, gam = 0.77, 0.23, (-0.41, 0.57, 1.13)

        def potential(u, tau, slots):
            halves = (0.5, (1 + tau) / 2, tau / 2)
            return xi * (xi + 1) * wp_tau(u, tau) + sum(
                g * (g + 1) * wp_tau(u + w, tau) for g, w in zip(slots, halves))

        for tau in (0.31 + 1.13j, -0.4 + 0.9j):
            f, taut = c * tau + d, el.mobius(tau)
            ht = accessory_weierstrass(tag, h, tau)
            slots = [gam[el.rho[j]] for j in range(3)]
            for u in (0.27 + 0.09j, 0.4 - 0.13j, 0.13 + 0.31j):
                lhs = h - potential(u, tau, gam)
                rhs = f**-2 * (ht - potential(u / f, taut, slots))
                assert abs(lhs - rhs) <= 1e-12 * max(1, abs(lhs)), (tag, tau, u)

    def test_worked_A_example(self):
        # the A-map worked through the equation: with omega1 = tau/2,
        # omega2 = 1/2 + tau/2, omega3 = 1/2, u~ = u/(tau-1),
        # tau~ = tau/(tau-1), the transformed equation carries
        # h~ = (tau-1)^2 h and swaps the mu/nu potential slots.
        tau = 0.31 + 1.13j
        h = 0.77
        xi, eta, mu, nu = 0.23, -0.41, 0.57, 1.13
        w1, w2, w3 = tau / 2, 0.5 + tau / 2, 0.5
        taut = tau / (tau - 1)
        ht = accessory_weierstrass("A", h, tau)
        assert abs(ht - (tau - 1) ** 2 * h) == 0
        for u in (0.27 + 0.09j, 0.4 - 0.13j):
            ut = u / (tau - 1)
            lhs = h - (
                xi * (xi + 1) * wp_tau(u, tau)
                + eta * (eta + 1) * wp_tau(u + w1, tau)
                + mu * (mu + 1) * wp_tau(u + w2, tau)
                + nu * (nu + 1) * wp_tau(u + w3, tau)
            )
            rhs = (tau - 1) ** -2 * (
                ht
                - xi * (xi + 1) * wp_tau(ut, taut)
                - eta * (eta + 1) * wp_tau(ut + taut / 2, taut)
                - nu * (nu + 1) * wp_tau(ut + taut / 2 + 0.5, taut)
                - mu * (mu + 1) * wp_tau(ut + 0.5, taut)
            )
            assert abs(lhs - rhs) < 1e-9 * max(1, abs(lhs))
