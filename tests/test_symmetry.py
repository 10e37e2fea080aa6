"""Group algebra and the frozen transformation tables."""

import cmath

import numpy as np
import pytest

from darboux.elliptic import complete_elliptic
from darboux.errors import DegenerateModulus
from darboux.series import darboux_potential
from darboux.symmetry import (
    ANH_TAGS,
    CROSS_RATIOS,
    GroupElement,
    IDENTITY_SIGNS,
    ParamTuple,
    accessory_map,
    all_sign_vectors,
    anh_element,
    anh_elements,
    apply_to_variable,
    enumerate_group,
    gamma_action,
    gii_by_name,
    gii_compose,
    gii_elements,
    gii_identity,
    GlyphEntry,
    gI_apply,
    jacobi_transform_row,
    semidirect_compose,
    sigma_and_h,
)

GENERIC_P = ParamTuple(0.23, -0.41, 0.57, 1.13, h=0.77, k=0.6)


class TestSignFlips:
    def test_identity(self):
        assert gI_apply(IDENTITY_SIGNS, GENERIC_P) == GENERIC_P

    def test_zero_maps_to_minus_one(self):
        p = ParamTuple(0.0, 0, 0, 0, h=1, k=0.6)
        assert gI_apply((-1, 1, 1, 1), p).xi == -1

    def test_involution(self):
        for s in all_sign_vectors():
            back = gI_apply(s, gI_apply(s, GENERIC_P))
            assert all(
                abs(a - b) < 1e-15
                for a, b in zip(back.exponents, GENERIC_P.exponents)
            )

    def test_equation_untouched(self):
        p2 = gI_apply((-1, 1, -1, 1), GENERIC_P)
        assert p2.h == GENERIC_P.h and p2.k == GENERIC_P.k
        assert abs(p2.gamma_sum() - GENERIC_P.gamma_sum()) < 1e-14


class TestGIIStructure:
    def test_twenty_four_distinct_faithful(self):
        rows = gii_elements()
        assert len(rows) == 24
        assert len({r.perm for r in rows}) == 24

    def test_closure_exhaustive(self):
        rows = gii_elements()
        names = {r.name for r in rows}
        for a in rows:
            for b in rows:
                assert gii_compose(a, b).name in names

    def test_identity_element(self):
        for x in gii_elements():
            assert gii_compose(gii_identity(), x).name == x.name
            assert gii_compose(x, gii_identity()).name == x.name

    def test_klein_four_relations(self):
        names = {(a, b): gii_compose(gii_by_name(f"I{a}"), gii_by_name(f"I{b}")).name
                 for a in range(4) for b in range(4)}
        assert names[(1, 2)] == "I3" and names[(2, 3)] == "I1" and names[(1, 3)] == "I2"
        for a in range(4):
            assert names[(a, a)] == "I0"

    def test_B0_squares_to_identity(self):
        # the residual u -> -u of the raw substitution is trivial on
        # order-two points; at the permutation level B0 has order two
        b0 = gii_by_name("B0")
        assert gii_compose(b0, b0).name == "I0"

    def test_perm_first_slot_is_klein_index(self):
        # the transformed series' leading slot always carries the parameter
        # attached to the row's singular point
        for row in gii_elements():
            assert row.perm[0] == row.klein_index


class TestSemidirect:
    def test_two_sided_identity(self):
        e = GroupElement(IDENTITY_SIGNS, gii_identity())
        g = GroupElement((-1, 1, 1, -1), gii_by_name("C2"))
        for prod in (semidirect_compose(e, g), semidirect_compose(g, e)):
            assert prod.signs == g.signs and prod.gii.name == g.gii.name

    def test_conjugation_identity_exhaustive(self):
        # Gamma(X)(s) = X s X^{-1} exactly, all 16 x 24 pairs
        rows = gii_elements()
        inverses = {}
        for r in rows:
            for r2 in rows:
                if gii_compose(r, r2).name == "I0":
                    inverses[r.name] = r2
                    break
        for s in all_sign_vectors():
            for r in rows:
                X = GroupElement(IDENTITY_SIGNS, r)
                S = GroupElement(s, gii_identity())
                Xinv = GroupElement(IDENTITY_SIGNS, inverses[r.name])
                conj = semidirect_compose(semidirect_compose(X, S), Xinv)
                assert conj.gii.name == "I0"
                assert conj.signs == gamma_action(r, s)

    def test_group_order_by_enumeration(self):
        g = enumerate_group()
        assert len(g) == 384
        assert len({(e.signs, e.gii.name) for e in g}) == 384

    def test_closure_sampled(self):
        rng = np.random.default_rng(11)
        g = enumerate_group()
        universe = {(e.signs, e.gii.name) for e in g}
        for _ in range(400):
            a = g[rng.integers(0, 384)]
            b = g[rng.integers(0, 384)]
            c = semidirect_compose(a, b)
            assert (c.signs, c.gii.name) in universe


class TestVariableMaps:
    def test_I3_and_B0_and_C0(self):
        k = 0.6
        K, Kp = complete_elliptic(k)
        w, kap = apply_to_variable(gii_by_name("I3"), 0.7, k)
        assert abs(w - (0.7 + 1j * Kp)) < 1e-13 and kap == k
        w, kap = apply_to_variable(gii_by_name("B0"), 0.7, k)
        assert abs(w + 0.7j) < 1e-15 and abs(kap - 0.8) < 1e-15
        w, kap = apply_to_variable(gii_by_name("C0"), 0.7, k)
        assert abs(w - 0.42) < 1e-15 and abs(kap - 1 / 0.6) < 1e-15

    def test_degenerate_kappa(self):
        # 1/k at k = 1 is rejected one level down (k itself degenerate)
        with pytest.raises(DegenerateModulus):
            apply_to_variable(gii_by_name("C0"), 0.5, 1.0)

    @pytest.mark.parametrize("k", [0, 1, -1])
    def test_degenerate_modulus_refused_before_kappa(self, k):
        # kappa_X of rows A-E divides by k or k'; k itself is refused first
        for row in gii_elements():
            with pytest.raises(DegenerateModulus):
                sigma_and_h(row, ParamTuple(0, 0, 0, 1, h=1.0, k=k))
            with pytest.raises(DegenerateModulus):
                apply_to_variable(row, 0.5, k)


#: h_X(h, S, k^2) of each type in closed form, as the maps read before they
#: were stored as the data gamma of h_X = (h + gamma S) / a^2
CLOSED_FORMS = {
    "I": lambda h, S, k2: h,
    "A": lambda h, S, k2: (h - k2 * S) / (1 - k2),
    "B": lambda h, S, k2: -h + S,
    "C": lambda h, S, k2: h / k2,
    "D": lambda h, S, k2: (-h + S) / (1 - k2),
    "E": lambda h, S, k2: -h / k2 + S,
}


class TestAccessory:
    def test_printed_examples(self):
        p = GENERIC_P
        s = p.gamma_sum()
        hB = sigma_and_h(gii_by_name("B0"), p).h
        assert hB == pytest.approx(-p.h + s)

    @pytest.mark.parametrize("k", [0.3, 0.6, 0.9, 0.5 + 0.3j, -0.4 + 1.2j, 1.7, 2 * cmath.exp(2.5j)])
    def test_matches_the_closed_forms(self, k):
        # no data form keeps every bit of the closed forms: E's -h/k^2 + S
        # becomes (h - k^2 S) / (-k^2)
        for X in ANH_TAGS:
            for h, S in ((0.77, 1.94), (-3.7 + 0.4j, -0.3 + 2j), (250.0, 12.0)):
                want = CLOSED_FORMS[X](h, S, k * k)
                assert abs(accessory_map(X, h, S, k) - want) <= 4e-15 * abs(want)

    def test_unknown_tag_refused(self):
        with pytest.raises(ValueError, match="unknown anharmonic tag"):
            accessory_map("F", 0.77, 1.94, 0.6)

    def test_sigma_of_I1(self):
        pt = sigma_and_h(gii_by_name("I1"), GENERIC_P)
        assert (pt.xi, pt.eta, pt.mu, pt.nu) == (
            GENERIC_P.eta, GENERIC_P.xi, GENERIC_P.nu, GENERIC_P.mu
        )

    def test_h_independent_of_klein_index(self):
        for X in ANH_TAGS:
            hs = {sigma_and_h(gii_by_name(f"{X}{i}"), GENERIC_P).h for i in range(4)}
            assert len(hs) == 1

    def test_composition_consistency(self):
        # h_{a then b}(h, k) = h_b(h_a(h, k), kappa_a(k)) for all 576 pairs
        p = GENERIC_P
        for a in gii_elements():
            for b in gii_elements():
                one = sigma_and_h(b, sigma_and_h(a, p))
                two = sigma_and_h(gii_compose(a, b), p)
                assert abs(one.h - two.h) < 1e-10 * max(1, abs(two.h))
                assert abs(one.k**2 - two.k**2) < 1e-12

    def test_equation_covariance_every_row(self):
        # h - V(u) = a^2 (h_X - V(w)) pins sigma, h_X, kappa, substitution jointly
        p = GENERIC_P
        for row in gii_elements():
            pt = sigma_and_h(row, p)
            a, _ = row.substitution_parts(p.k)
            for u in (0.31 + 0.12j, 0.77 - 0.2j):
                w, _ = apply_to_variable(row, u, p.k)
                lhs = p.h - darboux_potential(u, p)
                rhs = a * a * (pt.h - darboux_potential(w, pt))
                assert abs(lhs - rhs) < 1e-9 * max(1, abs(lhs))


class TestFrozenTableIdentities:
    def test_all_rows_all_glyphs(self, k_values):
        rng = np.random.default_rng(5)
        us = [complex(0.2 + 1.0 * a, 0.5 * (b - 0.5)) for a, b in
              zip(rng.random(6), rng.random(6))]
        for row in gii_elements():
            for ident in jacobi_transform_row(row):
                for k in k_values:
                    for u in us:
                        lhs, rhs = ident(u, k)
                        assert abs(lhs - rhs) <= 1e-10 * max(1, abs(rhs)), (
                            row.name, u, k, lhs, rhs
                        )

    def test_glyph_at_zero_of_sn(self):
        # only the requested quotient is formed, so sn(0) = 0 divides nothing
        assert GlyphEntry((0, 0, 0), "cn").value(0, 0.6) == 1

    def test_expected_repairs_recorded(self):
        d1 = gii_by_name("D1")
        assert d1.shift == 1
        assert any("substitution" in r for r in d1.repairs)
        c3 = gii_by_name("C3")
        assert any("dc" in r and "ds" in r for r in c3.repairs)
        dD = anh_element("D")
        assert any("K" in r for r in dD.repairs)

    def test_quarter_period_formulas(self, k_values):
        for el in anh_elements():
            for k in k_values:
                k = complex(k)
                kp = cmath.sqrt(1 - k * k)
                from darboux.symmetry import scalar_value

                kappa = scalar_value(el.kappa, k, kp)
                K, Kp = complete_elliptic(k)
                Kn, Kpn = complete_elliptic(kappa)
                m = scalar_value(el.quarter_scale, k, kp)
                cK, cKp = el.quarter_K
                assert abs(Kn - m * (cK * K + cKp * Kp)) < 1e-10 * abs(Kn)
                cK, cKp = el.quarter_Kp
                assert abs(Kpn - m * (cK * K + cKp * Kp)) < 1e-10 * abs(Kpn)

    def test_kappa_prime_consistent(self, k_values):
        from darboux.symmetry import scalar_value

        for el in anh_elements():
            for k in k_values:
                k = complex(k)
                kp = cmath.sqrt(1 - k * k)
                kap = scalar_value(el.kappa, k, kp)
                kapp = scalar_value(el.kappa_prime, k, kp)
                assert abs(kap**2 + kapp**2 - 1) < 1e-12

    def test_anh_cross_ratio_pairings(self):
        from darboux.elliptic import lambda_of_tau

        for el in anh_elements():
            f = CROSS_RATIOS[el.cross_ratio]
            for tau in (0.31 + 1.13j, -0.4 + 0.9j, 2.1j):
                lhs = lambda_of_tau(el.mobius(tau))
                assert abs(lhs - f(lambda_of_tau(tau))) < 1e-10
