"""The 192-solution catalog: enumeration, classification, instantiation."""

import cmath
from collections import Counter

import numpy as np
import pytest

from darboux.catalog import (
    SolutionId,
    classify,
    enumerate_192,
    instantiate,
    sample_points,
    transformed_convergence,
    transformed_termination,
    transformed_tuple,
)
from darboux.elliptic import complete_elliptic
from darboux.errors import DegenerateModulus
from darboux.series import ParamTuple, polynomial_eigenvalues
from darboux.symmetry import gii_by_name
from darboux.verify import ode_residual

K = 0.6


def nu3_equation() -> ParamTuple:
    base = ParamTuple(0, 0, 0, 3, h=0.0, k=K)
    h = polynomial_eigenvalues(base, 0)[0]
    return ParamTuple(0, 0, 0, 3, h=h, k=K)


class TestEnumeration:
    def test_exactly_192_distinct(self):
        ids = enumerate_192()
        assert len(ids) == 192
        assert len({sid.label for sid in ids}) == 192

    def test_identity_rows_present(self):
        labels = {sid.label for sid in enumerate_192()}
        for i in range(4):
            assert f"I{i}[+++]" in labels

    def test_no_fourth_sign(self):
        assert not hasattr(enumerate_192()[0], "s_nu")

    def test_deterministic_order(self):
        a = [sid.label for sid in enumerate_192()]
        b = [sid.label for sid in enumerate_192()]
        assert a == b
        assert a[0] == "I0[+++]" and a[1] == "I0[++-]"


class TestClassification:
    def test_eight_groups_of_24(self):
        groups = Counter(
            (classify(sid).singular_point, classify(sid).exponent_branch)
            for sid in enumerate_192()
        )
        assert len(groups) == 8
        assert all(count == 24 for count in groups.values())

    def test_identity_is_plus_at_zero(self):
        sid = SolutionId(1, 1, 1, gii_by_name("I0"))
        grp = classify(sid)
        assert grp.singular_point == "0" and grp.exponent_branch == "plus"

    def test_minus_branch(self):
        sid = SolutionId(-1, 1, 1, gii_by_name("I0"))
        assert classify(sid).exponent_branch == "minus"

    def test_shift_three_rows_sit_at_iKp(self):
        for X in "IABCDE":
            sid = SolutionId(1, 1, 1, gii_by_name(f"{X}3"))
            assert classify(sid).singular_point == "iKp"


class TestTransformedCriteria:
    def test_identity_reduces_to_plain_check(self):
        p = ParamTuple(0, 0, 0, 3, h=0.0, k=K)
        sid = SolutionId(1, 1, 1, gii_by_name("I0"))
        assert transformed_termination(sid, p) == 0

    def test_permutation_symmetry(self):
        # an id whose sigma swaps nu with xi applied to (3,0,0,0)
        p = ParamTuple(3, 0, 0, 0, h=0.0, k=K)
        sid = SolutionId(1, 1, 1, gii_by_name("I3"))  # sigma = (xi nu)(eta mu)
        assert transformed_termination(sid, p) == 0

    def test_generic_none(self):
        p = ParamTuple(0.21, 0.33, 0.47, 0.91, h=0.0, k=K)
        sid = SolutionId(1, -1, 1, gii_by_name("B2"))
        assert transformed_termination(sid, p) is None

    def test_transformed_convergence_identity(self):
        p = ParamTuple(0, 0, 0, 1, h=0.77, k=K)
        sid = SolutionId(1, 1, 1, gii_by_name("I0"))
        assert transformed_convergence(sid, p) == 1.0

    def test_transformed_convergence_at_cf_root(self):
        from darboux.series import darboux_function_eigenvalues

        base = ParamTuple(0, 0, 0, 1, h=0.0, k=K)
        hhat = darboux_function_eigenvalues(base, (3.0, 4.0))[0]
        sid = SolutionId(1, 1, 1, gii_by_name("I0"))
        p = ParamTuple(0, 0, 0, 1, h=hhat, k=K)
        assert transformed_convergence(sid, p) == pytest.approx(1 / K)

    def test_transformed_convergence_C0_uses_reciprocal_modulus(self):
        p = ParamTuple(0.21, 0.33, 0.47, 0.91, h=0.77, k=K)
        sid = SolutionId(1, 1, 1, gii_by_name("C0"))
        # kappa = 1/k: generic h gives min(1, |kappa|^-1) = k
        assert transformed_convergence(sid, p) == pytest.approx(K)


class TestInstantiation:
    def test_identity_id_is_plain_series(self):
        from darboux.series import dl_eval

        p = nu3_equation()
        sid = SolutionId(1, 1, 1, gii_by_name("I0"))
        fn, desc = instantiate(sid, p)
        for u in (0.3, 0.52 + 0.1j):
            assert abs(fn(u) - dl_eval(p, u)) < 1e-13
        assert desc.transformed == p

    def test_descriptor_C0(self):
        p = nu3_equation()
        sid = SolutionId(1, 1, 1, gii_by_name("C0"))
        fn, desc = instantiate(sid, p)
        assert abs(desc.kappa - 1 / K) < 1e-14
        assert abs(desc.substitution_scale - K) < 1e-14
        # sigma_C0 swaps eta and mu; h_C = h/k^2
        assert desc.transformed.h == pytest.approx(p.h / K**2)

    def test_sampled_ids_solve_original_equation(self):
        p = nu3_equation()
        rng = np.random.default_rng(0)
        ids = enumerate_192()
        sample = [ids[8 * r + int(rng.integers(0, 8))] for r in range(24)]
        for sid in sample:
            fn, _ = instantiate(sid, p)
            pts = sample_points(sid, p)
            assert len(pts) >= 3, sid.label
            rep = ode_residual(fn, p, pts)
            assert rep.max_relative_residual <= 1e-6, (sid.label, rep)

    def test_minus_sign_branch_solves_equation(self):
        p = nu3_equation()
        sid = SolutionId(-1, 1, -1, gii_by_name("A2"))
        fn, _ = instantiate(sid, p)
        pts = sample_points(sid, p)
        rep = ode_residual(fn, p, pts)
        assert rep.max_relative_residual <= 1e-6

    def test_within_group_proportionality(self):
        # members of one group are proportional local solutions: the ratio
        # at two points on a common ray from the singular point agrees
        p = nu3_equation()
        K_, Kp_ = complete_elliptic(K)
        pts_by_group = {
            "0": 0j, "K": K_, "K+iKp": K_ + 1j * Kp_, "iKp": 1j * Kp_,
        }
        pairs = [
            (SolutionId(1, 1, 1, gii_by_name("I0")), SolutionId(1, -1, 1, gii_by_name("A0"))),
            (SolutionId(1, 1, 1, gii_by_name("C0")), SolutionId(1, 1, -1, gii_by_name("B0"))),
            (SolutionId(1, 1, 1, gii_by_name("I3")), SolutionId(1, 1, 1, gii_by_name("C3"))),
            (SolutionId(-1, 1, 1, gii_by_name("I1")), SolutionId(-1, -1, 1, gii_by_name("A1"))),
        ]
        for sid_a, sid_b in pairs:
            ga, gb = classify(sid_a), classify(sid_b)
            assert ga == gb
            base = pts_by_group[ga.singular_point]
            us = [base + t * cmath.exp(0.4j) for t in (0.2, 0.31)]
            fa, _ = instantiate(sid_a, p)
            fb, _ = instantiate(sid_b, p)
            r1 = fa(us[0]) / fb(us[0])
            r2 = fa(us[1]) / fb(us[1])
            assert abs(r1 - r2) <= 1e-8 * max(1, abs(r1)), (sid_a.label, sid_b.label)


class TestSamplePoints:
    @pytest.mark.parametrize("k", [0, 1, -1])
    def test_degenerate_modulus_is_typed(self, k):
        # every row, A-E among them, whose kappa_X divides by k or k'
        p = ParamTuple(0, 0, 0, 3, h=1.0, k=k)
        for name in "I0 A1 B2 C0 D3 E1".split():
            sid = SolutionId(1, 1, 1, gii_by_name(name))
            with pytest.raises(DegenerateModulus):
                instantiate(sid, p)
            with pytest.raises(DegenerateModulus):
                sample_points(sid, p)

    def test_points_inside_domain(self):
        p = nu3_equation()
        for name in ("I3", "C2", "E1"):
            sid = SolutionId(1, 1, 1, gii_by_name(name))
            pt = transformed_tuple(sid, p)
            from darboux.elliptic import jacobi_sn_cn_dn

            for u in sample_points(sid, p):
                a, b = sid.row.substitution_parts(p.k)
                sn = jacobi_sn_cn_dn(a * (u + b), pt.k)[0]
                assert abs(sn) < min(1.0, 1.0 / abs(pt.k))
