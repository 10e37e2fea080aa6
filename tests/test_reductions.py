"""Specializations: invariance subgroups and the Landen/duplication identities."""

import numpy as np
import pytest

from darboux.reductions import (
    assoc_lame_subgroup,
    duplication_pair,
    duplication_potential_identity,
    lame_subgroup,
    landen_accessory,
    landen_pair,
    landen_potential_identity,
)
from darboux.errors import PoleProximity
from darboux.series import ParamTuple, polynomial_eigenvalues, termination_check
from darboux.symmetry import gii_compose, sigma_and_h

K = 0.6


class TestLameSubgroup:
    def test_membership(self):
        names = [r.name for r in lame_subgroup()]
        assert names == ["I0", "A1", "B2", "C0", "D2", "E1"]

    def test_closure(self):
        rows = lame_subgroup()
        names = {r.name for r in rows}
        for a in rows:
            for b in rows:
                assert gii_compose(a, b).name in names

    def test_isomorphic_to_S3(self):
        rows = lame_subgroup()
        orders = []
        for r in rows:
            x, n = r, 1
            while x.name != "I0":
                x = gii_compose(x, r)
                n += 1
            orders.append(n)
        assert sorted(orders) == [1, 2, 2, 2, 3, 3]
        a, b = rows[1], rows[5]  # two distinct non-identity elements
        assert gii_compose(a, b).name != gii_compose(b, a).name  # nonabelian

    def test_members_fix_fourth_slot(self):
        for r in lame_subgroup():
            assert r.perm[3] == 3

    def test_lame_form_preserved_exactly(self):
        # transformed products gamma(gamma+1) vanish for the first three slots
        for exps in [(0, 0, 0, 1.37), (-1, 0, -1, 1.37), (0, -1, -1, 1.37)]:
            p = ParamTuple(*exps, h=0.77, k=K)
            for r in lame_subgroup():
                pt = sigma_and_h(r, p)
                for g in (pt.xi, pt.eta, pt.mu):
                    assert g * (g + 1) == 0
                assert pt.nu * (pt.nu + 1) == p.nu * (p.nu + 1)

    def test_non_members_break_the_form(self):
        from darboux.symmetry import gii_by_name

        p = ParamTuple(0, 0, 0, 1.37, h=0.77, k=K)
        pt = sigma_and_h(gii_by_name("I1"), p)
        assert any(g * (g + 1) != 0 for g in (pt.xi, pt.eta, pt.mu))


class TestAssocLameSubgroup:
    def test_membership(self):
        assert [r.name for r in assoc_lame_subgroup()] == ["I0", "I1", "A0", "A1"]

    def test_klein_four(self):
        rows = assoc_lame_subgroup()
        names = {r.name for r in rows}
        for a in rows:
            for b in rows:
                c = gii_compose(a, b)
                assert c.name in names
                assert gii_compose(b, a).name == c.name  # abelian
            if a.name != "I0":
                assert gii_compose(a, a).name == "I0"

    def test_form_preserved(self):
        # only the cd^2 and sn^2 potential slots survive
        p = ParamTuple(0, -1, 0.57, 1.37, h=0.77, k=K)
        for r in assoc_lame_subgroup():
            pt = sigma_and_h(r, p)
            assert pt.xi * (pt.xi + 1) == 0
            assert pt.eta * (pt.eta + 1) == 0
            assert {complex(pt.mu), complex(pt.nu)} == {0.57 + 0j, 1.37 + 0j}


class TestLandenIdentities:
    def test_potential_identities_pointwise(self):
        for u in (0.4, 0.37 + 0.21j, 0.22 - 0.1j):
            for k in (0.3, 0.6, 0.9):
                e_sn, e_ns = landen_potential_identity(u, k)
                assert e_sn < 1e-12
                assert e_ns < 1e-12

    def test_zero_denominator_is_a_typed_pole(self):
        with pytest.raises(PoleProximity):
            landen_potential_identity(0.0, 0.6)

    def test_dl_level_generic(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            u = 0.06 + 0.16 * rng.random() + 0.08j * (rng.random() - 0.5)
            k = 0.3 + 0.6 * rng.random()
            lhs, rhs = landen_pair(0.0, 1.0, 0.83, k, u)
            assert abs(lhs / rhs - 1) < 1e-8

    def test_dl_level_terminating(self):
        # RHS (xi,xi,nu,nu) = (0,0,-3,-3): q = 1 via the first relation
        p = ParamTuple(0.0, 0.0, -3.0, -3.0, h=0.0, k=K)
        assert termination_check(p) == 1
        for h in polynomial_eigenvalues(p, 1):
            lhs, rhs = landen_pair(0.0, -3.0, complex(h), K, 0.21)
            assert abs(lhs / rhs - 1) < 1e-10

    def test_accessory_map_value(self):
        h = 2.1
        hs = landen_accessory(h, 0.0, 1.0, K)
        kp = 0.8
        assert hs == pytest.approx((h - K * K * 2.0) / (1 + kp) ** 2)


class TestDuplication:
    def test_potential_identity_pointwise(self):
        for u in (0.37 + 0.21j, 0.52, 0.3 - 0.14j):
            for k in (0.3, 0.6, 0.9):
                assert duplication_potential_identity(u, k) < 1e-12

    def test_zero_denominator_is_a_typed_pole(self):
        with pytest.raises(PoleProximity):
            duplication_potential_identity(0.0, 0.6)

    def test_dl_level(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            u = 0.05 + 0.15 * rng.random() + 0.06j * (rng.random() - 0.5)
            xi = rng.choice([0.0, 0.31])
            h = 0.5 + 1.5 * rng.random()
            lhs, rhs = duplication_pair(xi, h, K, u)
            assert abs(lhs / rhs - 1) < 1e-8

    def test_xi_zero_reduces_to_single_potential(self):
        # at xi = 0 the right side is the four-fold-symmetric equation and
        # the left a one-potential equation in the doubled variable
        lhs, rhs = duplication_pair(0.0, 0.9, K, 0.19)
        assert abs(lhs / rhs - 1) < 1e-10

