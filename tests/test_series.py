"""Series layer: recursion, eigenvalues, continued fractions, diagnostics."""

import cmath
import math
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from darboux import series
from darboux.elliptic import complete_elliptic, jacobi_sn_cn_dn
from darboux.errors import (
    CoefficientOverflow,
    DarbouxError,
    DegenerateRecursion,
    InsufficientData,
    LogarithmicCase,
    ModulusOnUnitCircle,
    OutsideConvergence,
    PoleProximity,
)
from darboux.series import (
    ParamTuple,
    _matrix_roots,
    convergence_domain,
    darboux_function_eigenvalues,
    darboux_potential,
    dl_coefficients,
    dl_eval,
    infinite_cf,
    polynomial_eigenvalues,
    ratio_diagnostic,
    recursion_coeffs,
    termination_check,
)

K = 0.6


def P(xi, eta, mu, nu, h=0.0, k=K):
    return ParamTuple(xi, eta, mu, nu, h=h, k=k)


class TestRecursionCoeffs:
    def test_M0(self):
        for xi in (0.0, 0.7, -0.2):
            rc = recursion_coeffs(0, P(xi, 0, 0, 0))
            assert rc.M == 2 * (2 * xi + 3)

    def test_K1_vanishes_on_termination_channel(self):
        rc = recursion_coeffs(1, P(0, 0, 0, 3))
        assert rc.K == 0

    def test_L0_example(self):
        rc = recursion_coeffs(0, P(0, -1, -1, 1, h=0.5))
        assert rc.L == pytest.approx(0.5 - 1 - K * K, rel=1e-15)

    def test_paper_variant_offset(self):
        xi = 0.4
        a = recursion_coeffs(2, P(xi, 0.1, 0.2, 0.3, h=1.0), "corrected")
        b = recursion_coeffs(2, P(xi, 0.1, 0.2, 0.3, h=1.0), "paper")
        assert abs(b.L - a.L - (K * K + 1) * (xi + 1) ** 2) < 1e-14
        assert b.M == a.M and b.K == a.K

    def test_logarithmic_guard(self):
        with pytest.raises(LogarithmicCase):
            recursion_coeffs(0, P(-1.5, 0, 0, 0))
        with pytest.raises(LogarithmicCase):
            recursion_coeffs(0, P(-2.5, 0, 0, 0))
        # -1/2 is fine: M_m never vanishes there
        recursion_coeffs(0, P(-0.5, 0, 0, 0))


class TestTermination:
    def test_examples(self):
        assert termination_check(P(0, 0, 0, 3)) == 0
        assert termination_check(P(0, 0, 0, -6)) == 1
        assert termination_check(P(1, 1, 0, 0)) is None

    def test_float_tolerance(self):
        assert termination_check(P(0, 0, 0, 3 + 1e-11)) == 0
        assert termination_check(P(0, 0, 0, 3 + 1e-6)) is None

    @pytest.mark.parametrize("exps", [(10**400, 0, 0, 0), (0, 0, 0, -(10**400)), (10**400, 0.5, 0, 0)])
    def test_int_beyond_the_float_range_is_refused(self, exps):
        # a typed refusal, not the bare OverflowError of int / int or int + float
        with pytest.raises(CoefficientOverflow):
            termination_check(P(*exps, h=5.0))
        for mode in ("auto", "forward", "minimal"):
            with pytest.raises(CoefficientOverflow):
                dl_coefficients(P(*exps, h=5.0), 10, mode=mode)


class TestRecursionIdentity:
    def test_residual_of_computed_solutions(self):
        # every computed coefficient list satisfies the three-term relation
        for p, mode in [
            (P(0.23, -0.41, 0.57, 1.13, h=0.9), "forward"),
            (P(0, 0, 0, 1, h=3.606652280861), "minimal"),
        ]:
            coeffs = dl_coefficients(p, 120, mode=mode)
            scale = max(abs(coeffs.coeff(m)) for m in range(40))
            for m in range(1, 100):
                rc = recursion_coeffs(m, p)
                r = rc.M * coeffs.coeff(m + 1) + rc.L * coeffs.coeff(m) + rc.K * coeffs.coeff(m - 1)
                ref = max(abs(rc.M * coeffs.coeff(m + 1)), abs(rc.L * coeffs.coeff(m)), scale * 1e-30)
                assert abs(r) <= 1e-13 * max(ref, 1e-300)

    def test_initial_conditions(self):
        coeffs = dl_coefficients(P(0.2, 0.1, 0.4, 0.9, h=1.2), 32)
        assert coeffs.coeff(0) == 1.0

    def test_k_zero_limit_two_term(self):
        # K_m carries k^2: tiny k make the recursion effectively two-term
        p = P(0.2, 0.1, 0.4, 0.9, h=1.2, k=1e-7)
        coeffs = dl_coefficients(p, 12)
        for m in range(1, 10):
            rc = recursion_coeffs(m, p)
            two_term = -(rc.L * coeffs.coeff(m)) / rc.M
            assert abs(coeffs.coeff(m + 1) - two_term) <= 1e-12 * max(1, abs(two_term))


class TestEigenvalues:
    def test_lame_nu1_channels(self, k_values):
        for k in k_values:
            for exps, target in [
                ((0, -1, -1, 1), 1 + k * k),
                ((-1, 0, -1, 1), 1.0),
                ((-1, -1, 0, 1), k * k),
            ]:
                eig = polynomial_eigenvalues(P(*exps, k=k), 0)
                assert abs(eig[0] - target) < 1e-10

    def test_lame_nu2_channels(self, k_values):
        for k in k_values:
            for exps, target in [
                ((0, 0, -1, 2), 4 + k * k),
                ((0, -1, 0, 2), 1 + 4 * k * k),
                ((-1, 0, 0, 2), 1 + k * k),
            ]:
                eig = polynomial_eigenvalues(P(*exps, k=k), 0)
                assert abs(eig[0] - target) < 1e-10

    def test_nu3_product_channel(self, k_values):
        for k in k_values:
            eig = polynomial_eigenvalues(P(0, 0, 0, 3, k=k), 0)
            assert abs(eig[0] - 4 * (1 + k * k)) < 1e-10

    def test_count_matches_q(self):
        p = P(0, 0, 0, -8)  # q = 2 via the first relation
        assert termination_check(p) == 2
        assert len(polynomial_eigenvalues(p, 2)) == 3

    def test_variant_shift_exact(self):
        p = P(0.4, 0.1, -0.5, -4.0)  # sum = -4: q = 0
        q = termination_check(p)
        a = polynomial_eigenvalues(p, q, "corrected")
        b = polynomial_eigenvalues(p, q, "paper")
        shift = (K * K + 1) * (0.4 + 1) ** 2
        assert np.allclose(b, a - shift, atol=1e-12)

    def test_wrong_q_raises(self):
        with pytest.raises(DegenerateRecursion):
            polynomial_eigenvalues(P(0, 0, 0, 3), 1)


class TestDlEval:
    def test_sn_channel_pointwise(self):
        p = P(0, -1, -1, 1, h=1 + K * K)
        for u in (0.3, 0.83, 0.6 + 0.2j):
            sn = jacobi_sn_cn_dn(u, K)[0]
            assert abs(dl_eval(p, u) - sn) < 1e-12

    def test_product_channel_pointwise(self):
        p = P(0, 0, 0, 3, h=4 * (1 + K * K))
        for u in (0.72, 0.4 + 0.3j):
            sn, cn, dn = jacobi_sn_cn_dn(u, K)
            assert abs(dl_eval(p, u) - sn * cn * dn) < 1e-12

    def test_value_at_zero(self):
        assert dl_eval(P(0, 0, 0, 1, h=0.4), 0.0) == 0

    def test_outside_convergence(self):
        p = P(0.2, 0.1, 0.4, 0.9, h=1.2)
        K_, Kp_ = complete_elliptic(K)
        with pytest.raises(OutsideConvergence):
            dl_eval(p, K_ + 0.4j)  # |sn| > 1 there, generic h

    def test_tail_bound_reported(self):
        res = dl_eval(P(0.2, 0.1, 0.4, 0.9, h=1.2), 0.4, detail=True)
        assert res.tail_bound < 1e-12

    # the Lame root on (0, 12) at k = 0.6, and a point with |sn u| = 1.29,
    # inside 1/k but outside 1
    LAME_ROOT = P(0, 0, 0, 1, h=3.6066522808608408)
    BEYOND_ONE = complete_elliptic(K)[0].real + 1j

    def test_coefficients_carry_their_radius(self):
        assert dl_coefficients(self.LAME_ROOT, 200, mode="forward").radius == 1.0
        assert dl_coefficients(self.LAME_ROOT, 200, mode="auto").radius == 1 / K
        assert dl_coefficients(P(0.2, 0.1, 0.4, 0.9, h=1.2), 200, mode="minimal").radius == 1.0
        assert dl_coefficients(P(0, 0, 0, 3, h=4 * (1 + K * K)), 200).radius == math.inf

    def test_forward_coefficients_at_a_root_keep_the_smaller_radius(self):
        # they follow the dominant solution: at N = 200 they would sum to ~1e27j
        coeffs = dl_coefficients(self.LAME_ROOT, 200, mode="forward")
        with pytest.raises(OutsideConvergence):
            dl_eval(self.LAME_ROOT, self.BEYOND_ONE, coeffs=coeffs)
        for mode in ("auto", "minimal"):
            value = dl_eval(self.LAME_ROOT, self.BEYOND_ONE, mode=mode)
            assert value == pytest.approx(-1.4149117507375726j, abs=1e-12)

    def test_minimal_tail_bound_uses_the_minimal_ratio(self):
        # rho = |sn u|^2 k^2 = 0.60 there, not |sn u|^2 > 1
        res = dl_eval(self.LAME_ROOT, self.BEYOND_ONE, detail=True)
        change = abs(dl_eval(self.LAME_ROOT, self.BEYOND_ONE, N=200)
                     - dl_eval(self.LAME_ROOT, self.BEYOND_ONE, N=400))
        assert math.isfinite(res.tail_bound) and res.tail_bound >= change

    def test_renormalized_big_modulus(self):
        # kappa = 1/k with k = 0.3: coefficient growth |kappa|^2m needs the
        # power-of-two rescaling at N = 400
        p = ParamTuple(0.2, 0.1, 0.4, 0.9, h=1.2, k=1 / 0.3)
        coeffs = dl_coefficients(p, 400, mode="forward")
        assert np.isfinite(coeffs.values).all()
        assert int(coeffs.exps[-1]) > 0
        K_, Kp_ = complete_elliptic(1 / 0.3)
        u = 0.2 * K_  # |sn| small
        v = dl_eval(p, u, N=400, coeffs=coeffs)
        assert cmath.isfinite(v.real) and cmath.isfinite(v.imag)

    def test_ode_residual_of_series(self):
        # independent check: the series satisfies the equation it claims to
        from darboux.verify import ode_residual

        p = P(0.23, -0.41, 0.57, 1.13, h=0.9)
        coeffs = dl_coefficients(p, 200)

        def f(u):
            return dl_eval(p, u, coeffs=coeffs)

        assert ode_residual(f, p, [0.35, 0.52], step=4e-3).max_relative_residual < 1e-8


class TestPotential:
    @pytest.mark.parametrize("u", [0.0, np.array([0.3, 0.0]), np.array([[0.2], [0.0]])])
    def test_zero_of_sn_is_a_typed_pole(self, u):
        with pytest.raises(PoleProximity):
            darboux_potential(u, P(0.1, 0.2, 0.3, 1.5, h=5.0))


def _outcome(call):
    """A call's result as (type, shape, bytes) per value, or its refusal as
    (type, message, index)."""
    try:
        result = call()
    except (OutsideConvergence, PoleProximity) as exc:
        return type(exc), str(exc), getattr(exc, "index", None)
    values = (result.value, result.tail_bound) if isinstance(result, series.DlValue) else (result,)
    return [(type(v), np.shape(v), np.asarray(v).tobytes()) for v in values]


class TestKernelsFromJacobi:
    """dl_eval and darboux_potential are jacobi_sn_cn_dn plus a kernel that
    takes (sn, cn, dn); each kernel gives their bits and their refusals."""

    K_ = complete_elliptic(K)[0].real
    POINTS = [0.35, 0.6 + 0.2j, 0.0, np.array([0.35, 0.52 - 0.1j]),
              np.array([[0.3, 0.4], [0.5 + 0.1j, 0.2j]]), np.array([0.3, 0.0, 0.4])]
    #: a generic tuple, a terminating one, a negative exponent on sn (a pole
    #: at u = 0), each with its coefficients
    TUPLES = [P(0.23, -0.41, 0.57, 1.13, h=0.9), P(0, 0, 0, 3, h=4 * (1 + K * K)), P(-1.3, 0.2, 0.1, 0.7, h=0.4)]

    @pytest.mark.parametrize("u", POINTS + [K_ + 0.4j, np.array([0.3, K_ + 0.4j, K_ + 0.5j])])
    @pytest.mark.parametrize("p", TUPLES)
    def test_series_kernel_is_dl_eval(self, p, u):
        coeffs = dl_coefficients(p, 200)
        for detail in (False, True):
            want = _outcome(lambda: dl_eval(p, u, coeffs=coeffs, detail=detail))
            got = _outcome(lambda: series._dl_from_jacobi(p, coeffs, *jacobi_sn_cn_dn(u, K), detail=detail))
            assert got == want

    def test_series_kernel_refusals(self):
        p, bad = self.TUPLES[0], np.array([0.3, self.K_ + 0.4j, self.K_ + 0.5j])
        coeffs = dl_coefficients(p, 200)
        assert _outcome(lambda: series._dl_from_jacobi(p, coeffs, *jacobi_sn_cn_dn(bad, K)))[::2] == (
            OutsideConvergence, 1)
        assert _outcome(lambda: series._dl_from_jacobi(p, coeffs, *jacobi_sn_cn_dn(bad[1], K)))[::2] == (
            OutsideConvergence, None)
        p = self.TUPLES[2]
        assert _outcome(lambda: series._dl_from_jacobi(p, dl_coefficients(p, 200), *jacobi_sn_cn_dn(0.0, K)))[0] \
            is PoleProximity

    @pytest.mark.parametrize("u", POINTS)
    @pytest.mark.parametrize("p", TUPLES)
    def test_potential_kernel_is_darboux_potential(self, p, u):
        want = _outcome(lambda: darboux_potential(u, p))
        assert _outcome(lambda: series._potential_from_jacobi(p, *jacobi_sn_cn_dn(u, K))) == want
        assert (want[0] is PoleProximity) == (not np.all(u))     # sn vanishes at u = 0


class TestContinuedFraction:
    def test_vanishes_at_terminating_eigenvalue(self):
        p = P(0, 0, 0, 3)
        h0 = polynomial_eigenvalues(p, 0)[0]
        cf = infinite_cf(h0, p, depth=200)
        assert abs(cf.value) < 1e-10
        assert infinite_cf(h0 + 0.3, p, depth=200).value != 0

    def test_k_to_zero_reduces_to_L0_over_M0(self):
        p = P(0.2, 0.1, 0.4, 0.9, h=1.2, k=1e-9)
        rc = recursion_coeffs(0, p)
        cf = infinite_cf(p.h, p, depth=100)
        assert abs(cf.value - rc.L / rc.M) < 1e-14

    def test_generic_h_nonzero(self):
        p = P(0, 0, 0, 1)
        roots = darboux_function_eigenvalues(p, (0.0, 12.0), depth=400)
        rng = np.random.default_rng(3)
        for _ in range(5):
            h = 12 * rng.random()
            if all(abs(h - r) > 0.05 for r in roots):
                assert abs(infinite_cf(h, p, depth=400).value) > 1e-6

    def test_convergence_indicator(self):
        # one adaptive pass: it stops well before the cap, where its
        # truncation bound reaches 2^-52 (|l_0| + |t_1|), and it agrees with
        # the depth-400 pass to rounding
        p = P(0.2, 0.1, 0.4, 0.9)
        cf = infinite_cf(0.9, p, depth=400)
        tables = series._weights(p, "corrected", 401)
        full = series._cf_pass(0.9, tables, 400)[0]
        rc = recursion_coeffs(0, p)
        scale = 2.0**-52 * (abs(rc.L / rc.M) + abs(rc.L / rc.M - full))
        assert cf.depth < 100 and cf.truncation_bound <= scale
        assert cf.value == series._cf_pass(0.9, tables, cf.depth)[0]
        assert abs(cf.value - full) <= 4 * scale

    def test_bound_at_the_cap(self):
        # a cap below the needed depth: the pass runs the cap and reports its
        # bound, of the order of the distance to the converged value.  The
        # bound is first order in the dropped tail, and the tails next to
        # the cut have not reached their limit yet, so it can be low by about
        # |1 + k^2| / (1 - |k^2|), 9.5 at k = 0.9 (9.9 here)
        p = P(0.2, 0.1, 0.4, 0.9, k=0.9)
        cf = infinite_cf(0.9, p, depth=20)
        full = infinite_cf(0.9, p, depth=400).value
        assert cf.depth == 20 and 1e-12 < cf.truncation_bound < 1
        assert cf.truncation_bound <= abs(cf.value - full) <= 12 * cf.truncation_bound

    @pytest.mark.parametrize("p, h", [(P(0.2, 0.1, 0.4, 0.9), 0.9), (P(0, 0, 0, 1), 3.6 + 0.2j),
                                      (P(0, 0, 0, 1, k=0.5 + 0.3j), 15.0 - 2.0j)])
    def test_slope_is_the_derivative(self, p, h):
        tables = series._weights(p, "corrected", 401)
        _, slope, _, _ = series._cf_pass(h, tables, 400)
        d = 1e-5
        central = (series._cf_pass(h + d, tables, 400)[0] - series._cf_pass(h - d, tables, 400)[0]) / (2 * d)
        assert abs(slope - central) <= 1e-8 * max(1.0, abs(slope))


#: Lame nu = 1 at a complex modulus: its function eigenvalues are all off the real axis.
LAME_COMPLEX = P(0, 0, 0, 1, k=0.5 + 0.3j)
#: A root at h = 15.0146, 0.005 above a pole of the truncated fraction.
ROOT_BY_POLE = P(-0.24591471658366582, 0.12469204519355315, 0.368277362555949,
                 3.208248489823756, k=0.2080985922194127)


#: the three eigenvalues of the terminating nu = 7 Lame channel at k = 0.6
LAME_NU7 = [11.763777598540026, 24.328244403161552, 40.067977998298424]


class TestScanner:
    def test_recovers_terminating_eigenvalues(self):
        # the three one-potential channels: prefactors sn, cn, dn; the cn
        # root h = 1 stays real for complex k, and is found once
        for exps, k, region, target in [
            ((0, -1, -1, 1), K, (0.1, 3.0), 1 + K * K),
            ((-1, 0, -1, 1), K, (0.1, 3.0), 1.0),
            ((-1, -1, 0, 1), K, (0.1, 3.0), K * K),
            ((-1, 0, -1, 1), 0.5 + 0.3j, (0.5, 1.5), 1.0),
        ]:
            roots = darboux_function_eigenvalues(P(*exps, k=k), region, depth=400)
            assert len(roots) == 1
            assert abs(roots[0] - target) < 1e-9

    @pytest.mark.parametrize("exps, region, q, expected", [
        ((-1, -1, 0, 1), (0.1, 3.0), 0, [0.36]),
        ((0, 0, 0, 7), (0.0, 80.0), 2, LAME_NU7),
        ((0, 0, 0, 7), ((0.0, 80.0), (-1.0, 1.0)), 2, LAME_NU7),
    ])
    def test_terminating_tuple_stops_at_order_q_plus_1(self, monkeypatch, exps, region, q,
                                                        expected):
        # K_{q+1} = 0 makes g a finite fraction: its zeros are the eigenvalues
        # of J_{q+1}, so no larger truncation matrix is built; the roots are
        # those of the order depth+1 search
        import darboux.series as series

        orders = []
        build = series._truncation_matrix
        monkeypatch.setattr(series, "_truncation_matrix",
                            lambda tables, n: orders.append(n) or build(tables, n))
        roots = darboux_function_eigenvalues(P(*exps), region, depth=400)
        assert termination_check(P(*exps)) == q and max(orders) == q + 1
        assert roots == pytest.approx(expected, abs=1e-12)

    def test_lame_search_runs_short_fractions(self, monkeypatch):
        # the Lame nu = 1 search on (0, 12) used to run 12 passes of 400 or
        # 800 levels (5,600 levels); the Newton polish and the adaptive depth
        # run 5 passes of 44 levels
        levels, run = [], series._cf_pass
        monkeypatch.setattr(series, "_cf_pass",
                            lambda h, tables, n, **kw: levels.append(n) or run(h, tables, n, **kw))
        roots = darboux_function_eigenvalues(P(0, 0, 0, 1), (0.0, 12.0))
        assert roots == pytest.approx([3.6066522808608], abs=1e-12)
        assert len(levels) <= 6 and sum(levels) <= 400

    @pytest.mark.parametrize("call, name", [
        (lambda: darboux_function_eigenvalues(P(0, 0, 0, 1), (0, 12), depth=0), "depth"),
        (lambda: darboux_function_eigenvalues(P(0, 0, 0, 1), (0, 12), depth=-3), "depth"),
        (lambda: darboux_function_eigenvalues(P(0, 0, 0, 1), (0, 12), depth=400.0), "depth"),
        (lambda: darboux_function_eigenvalues(P(0, 0, 0, 1), (0, 12), tol=-1.0), "tol"),
        (lambda: darboux_function_eigenvalues(P(0, 0, 0, 1), (0, 12), tol=0.0), "tol"),
        (lambda: darboux_function_eigenvalues(P(0, 0, 0, 1), (0, 12), tol=math.nan), "tol"),
        (lambda: darboux_function_eigenvalues(P(0, 0, 0, 1), (0, 12), tol=math.inf), "tol"),
        (lambda: convergence_domain(P(0, 0, 0, 1), 3.6, depth=-1), "depth"),
        (lambda: infinite_cf(3.6, P(0, 0, 0, 1), depth=0), "depth"),
        (lambda: infinite_cf(3.6, P(0, 0, 0, 1), depth=True), "depth"),
    ], ids=["eigen-depth-0", "eigen-depth-neg", "eigen-depth-float", "eigen-tol-neg", "eigen-tol-0",
            "eigen-tol-nan", "eigen-tol-inf", "domain-depth-neg", "cf-depth-0", "cf-depth-bool"])
    def test_bad_depth_or_tol_refused(self, call, name):
        # never a root of l_0 alone, numpy's own error, DepthUnstable or a bare IndexError
        with pytest.raises(ValueError, match=f"^{name} must be"):
            call()

    def test_inverted_region_is_refused(self):
        for region in [(3.0, 1.0), ((0.0, 1.0), (1.0, -1.0)), (math.nan, 1.0)]:
            with pytest.raises(ValueError):
                darboux_function_eigenvalues(P(0, 0, 0, 1), region)

    def test_lame_function_roots_depth_stable(self):
        p = P(0, 0, 0, 1)
        roots = darboux_function_eigenvalues(p, (0.0, 12.0), depth=400)
        assert len(roots) >= 1
        again = darboux_function_eigenvalues(p, (0.0, 12.0), depth=800)
        for r, r2 in zip(roots, again):
            assert abs(r - r2) < 1e-10

    def test_empty_region(self):
        for p, region in [(P(0, 0, 0, 1), (100.0, 101.0)), (LAME_COMPLEX, (0.0, 12.0))]:
            assert darboux_function_eigenvalues(p, region) == []

    def test_poles_not_reported(self):
        # each region contains a pole of the truncated fraction next to a root
        for p, region, expected in [
            (P(0, 0, 0, 1), (0.0, 12.0), [3.6066522808608]),
            (P(0, 0, 0, 1), ((0.0, 12.0), (-1.0, 1.0)), [3.6066522808608]),
            (ROOT_BY_POLE, (9.633954567730381, 15.633954567730381), [15.0145858430975]),
        ]:
            roots = darboux_function_eigenvalues(p, region, depth=400)
            assert roots == pytest.approx(expected, abs=1e-12)
            for r in roots:
                assert abs(infinite_cf(r, p, depth=400).value) < 1e-8

    def test_complex_box_finds_real_root(self):
        p = P(0, 0, 0, 1)
        real_roots = darboux_function_eigenvalues(p, (3.0, 4.0), depth=400)
        box_roots = darboux_function_eigenvalues(
            p, ((3.0, 4.0), (-0.5, 0.5)), depth=400
        )
        assert len(box_roots) == len(real_roots) == 1
        assert abs(box_roots[0] - real_roots[0]) < 1e-8
        box_roots = darboux_function_eigenvalues(LAME_COMPLEX, ((0.0, 40.0), (-6.0, 1.0)))
        expected = [3.8576351285640 - 0.3186419642223j, 14.9956832640287 - 2.2222632324899j,
                    33.5547964498198 - 5.3904135901172j]
        assert box_roots == pytest.approx(expected, abs=1e-10)

    @settings(derandomize=True, database=None, deadline=None, max_examples=25)
    @given(
        k=st.one_of(
            st.floats(0.2, 0.95),
            st.builds(cmath.rect, st.floats(0.2, 0.9), st.floats(0.1, 1.2)),
        ),
        exps=st.tuples(*[st.floats(-0.45, 3.0)] * 4),
        lo=st.floats(0.0, 20.0),
        width=st.sampled_from([8.0, 20.0]),
        height=st.sampled_from([0.0, 1.0, 4.0]),
    )
    # J_32 and J_64 both polish onto no root in (20, 40), which holds two
    @example(k=0.95, exps=(-0.3957848517478701, 0.23512594166917494, 0.9718315753059932,
                           1.922368404248031), lo=20.0, width=20.0, height=0.0)
    def test_doubling_matches_full_order(self, k, exps, lo, width, height):
        # the early-stopped doubling finds what the order depth+1 matrix,
        # whose eigenvalues are the zeros of g at `depth` exactly, finds
        p = P(*exps, k=k)
        region = ((lo, lo + width), (-height, height)) if height else (lo, lo + width)
        box = region if height else (region, (0.0, 0.0))
        full, _ = _matrix_roots(series._weights(p, "corrected", 401), 401, box, 400, 1e-10)
        roots = darboux_function_eigenvalues(p, region, depth=400)
        assert roots == pytest.approx(sorted(full, key=lambda z: (z.real, z.imag)), abs=1e-8)


def _roots_or_refusal(p, region):
    try:
        return darboux_function_eigenvalues(p, region, depth=400)
    except DarbouxError as exc:
        return type(exc).__name__


class TestTridiagonalEigvals:
    @pytest.mark.parametrize("p, symmetric", [
        (P(0, 0, 0, 1), True),                        # Lame nu = 1 at k = 0.6
        (P(0, 0, 0, 1, k=0.5 + 0.3j), False),         # complex J
        (P(-0.3, -0.3, -0.3, 3.2), False),            # M_0 K_1 < 0
    ])
    def test_path_selection(self, monkeypatch, p, symmetric):
        calls = {"eigvalsh": 0, "eigvals": 0}

        def spy(name):
            solve = getattr(np.linalg, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return solve(*args, **kwargs)
            return counted

        for name in calls:
            monkeypatch.setattr(np.linalg, name, spy(name))
        darboux_function_eigenvalues(p, (0.0, 12.0))
        assert calls["eigvalsh" if symmetric else "eigvals"] > 0
        assert calls["eigvals" if symmetric else "eigvalsh"] == 0

    @pytest.mark.parametrize("n", [1, 2, 7, 32, 64])
    @pytest.mark.parametrize("exps, k", [
        ((0, 0, 0, 1), 0.6),
        ((0.2, 0, 0, 3), 0.9),
        ((1.3, 0.4, 2.1, 0.7), 0.3),
        ((2.9, 2.9, 2.9, 0.1), 0.95),
    ])
    def test_symmetric_path_matches_dense_eigvals(self, exps, k, n):
        J = series._truncation_matrix(series._weights(P(*exps, k=k), "corrected", n), n)
        assert (np.diagonal(J, 1) * np.diagonal(J, -1)).real.min(initial=1.0) > 0
        got = np.sort(series._tridiagonal_eigvals(J))
        want = np.linalg.eigvals(J)
        want = want[np.argsort(want.real)]
        assert got.dtype == complex and not got.imag.any()
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("n", [2, 7, 32, 64])
    @pytest.mark.parametrize("exps, k", [
        ((-0.3, -0.3, -0.3, 3.2), 0.6),
        ((-0.4, -0.2, -0.35, 2.5), 0.85),
    ])
    def test_real_path_with_negative_product_matches_dense_eigvals(self, monkeypatch, exps, k, n):
        J = series._truncation_matrix(series._weights(P(*exps, k=k), "corrected", n), n)
        assert (np.diagonal(J, 1) * np.diagonal(J, -1)).real[0] < 0
        solve, solved = np.linalg.eigvals, []
        want = solve(J)
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: solved.append(a.dtype) or solve(a))
        got = series._tridiagonal_eigvals(J)
        assert solved == [np.dtype(float)]        # the real solve, not the complex one
        got, want = (e[np.lexsort((e.imag, e.real))] for e in (got, want))
        assert got.dtype == complex
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(
        k=st.floats(0.2, 0.95),
        exps=st.tuples(*[st.floats(-0.45, 3.0)] * 4),
        lo=st.floats(0.0, 20.0),
        width=st.sampled_from([8.0, 20.0]),
        height=st.sampled_from([0.0, 1.0, 4.0]),
    )
    def test_same_roots_as_dense_solver(self, k, exps, lo, width, height):
        p = P(*exps, k=k)
        region = ((lo, lo + width), (-height, height)) if height else (lo, lo + width)
        got = _roots_or_refusal(p, region)
        with mock.patch.object(series, "_tridiagonal_eigvals", np.linalg.eigvals):
            want = _roots_or_refusal(p, region)
        if isinstance(want, str):
            assert got == want
        else:
            assert got == pytest.approx(want, abs=1e-12, rel=0)


def _minimal_reference(p, N, depth=1200):
    """C_0..C_N of the minimal solution: the products of the tails of a
    40-digit backward continued fraction at `depth` (corrected variant)."""
    with mp.workdps(40):
        xi, eta, mu, nu = (mp.mpf(x) for x in p.exponents)
        k2, h = mp.mpf(p.k) ** 2, mp.mpf(p.h)
        tails, t = [0] * (depth + 1), mp.mpf(0)
        for j in range(depth, 0, -1):
            L = h - (2 * j + eta + xi + 2) ** 2 - k2 * (2 * j + mu + xi + 2) ** 2
            M = (2 * j + 2) * (2 * j + 2 * xi + 3)
            Kj = k2 * (2 * j + xi + eta + mu + nu + 2) * (2 * j + xi + eta + mu - nu + 1)
            tails[j] = t = (Kj / M) / (L / M - t)
        c = [mp.mpf(1)]
        for m in range(1, N + 1):
            c.append(-tails[m] * c[-1])
        return np.array([complex(x) for x in c])


class TestMinimalCoefficients:
    @pytest.mark.parametrize("k, bound", [(0.9, 1e-10), (0.937, 1e-10), (0.95, 1e-8)])
    def test_lame_roots_match_a_deep_fraction(self, k, bound):
        # Lame nu = 1.3 at its function eigenvalues: the coefficients decay
        # like k^2m, and a backward start only 60 levels above C_200 left an
        # error of about k^120 (2.7e-6 at k = 0.9, 2e-3 at k = 0.95)
        roots = darboux_function_eigenvalues(P(0, 0, 0, 1.3, k=k), (0.0, 12.0))
        assert len(roots) == 2
        for h in roots:
            p = P(0, 0, 0, 1.3, h=h.real, k=k)
            coeffs = dl_coefficients(p, 200)
            assert coeffs.mode == "minimal"
            want = _minimal_reference(p, 200)
            assert (np.abs(coeffs.values - want) / np.abs(want)).max() <= bound


class TestConvergenceDomain:
    def test_generic_and_special(self):
        p = P(0, 0, 0, 1)
        assert convergence_domain(p, 0.77) == 1.0
        roots = darboux_function_eigenvalues(p, (3.0, 4.0))
        assert convergence_domain(p, roots[0]) == pytest.approx(1 / K)

    def test_terminating_unbounded(self):
        p = P(0, 0, 0, 3)
        h0 = polynomial_eigenvalues(p, 0)[0]
        assert convergence_domain(p, h0) == math.inf

    def test_unit_circle_guard(self):
        with pytest.raises(ModulusOnUnitCircle):
            convergence_domain(P(0, 0, 0, 1, k=1.0 + 0j), 0.5)


class TestRatioDiagnostic:
    def test_dominant_near_root(self):
        p = P(0, 0, 0, 1)
        hhat = darboux_function_eigenvalues(p, (3.0, 4.0))[0]
        for dh in (0.01, -0.01):
            coeffs = dl_coefficients(ParamTuple(0, 0, 0, 1, h=hhat + dh, k=K), 200)
            diag = ratio_diagnostic(coeffs, K)
            assert diag.classification == "dominant"
            assert abs(diag.limit - 1) < 1e-3

    def test_minimal_at_root(self):
        p = P(0, 0, 0, 1)
        hhat = darboux_function_eigenvalues(p, (3.0, 4.0))[0]
        coeffs = dl_coefficients(ParamTuple(0, 0, 0, 1, h=hhat, k=K), 200)
        assert coeffs.mode == "minimal"  # auto picks the minimal solution at a root
        diag = ratio_diagnostic(coeffs, K)
        assert diag.classification == "minimal"
        assert abs(diag.limit - K * K) < 1e-3

    def test_classification_flips_at_tiny_offsets(self):
        # the dichotomy flips exactly at the root: one part in 1e6 away the
        # dominant component already owns the top quartile of 200 terms
        p = P(0, 0, 0, 1)
        hhat = darboux_function_eigenvalues(p, (3.0, 4.0))[0]
        at_root = ratio_diagnostic(
            dl_coefficients(ParamTuple(0, 0, 0, 1, h=hhat, k=K), 200), K
        )
        assert at_root.classification == "minimal"
        for dh in (1e-6, -1e-6):
            off = ratio_diagnostic(
                dl_coefficients(ParamTuple(0, 0, 0, 1, h=hhat + dh, k=K), 200,
                                mode="forward"), K
            )
            assert off.classification == "dominant"

    def test_terminated(self):
        p = P(0, 0, 0, 3)
        h0 = polynomial_eigenvalues(p, 0)[0]
        coeffs = dl_coefficients(ParamTuple(0, 0, 0, 3, h=h0, k=K), 80)
        assert coeffs.terminated_at == 0
        diag = ratio_diagnostic(coeffs, K)
        assert diag.classification == "terminated" and diag.limit is None

    def test_insufficient_data(self):
        coeffs = dl_coefficients(P(0.2, 0.1, 0.4, 0.9, h=1.2), 32)
        with pytest.raises(InsufficientData):
            ratio_diagnostic(coeffs, K)

    def test_characteristic_roots(self):
        coeffs = dl_coefficients(P(0.2, 0.1, 0.4, 0.9, h=1.2), 80)
        diag = ratio_diagnostic(coeffs, K)
        r1, r2 = diag.characteristic_roots
        # roots of t^2 - (1+k^2
        # ) t + k^2
        assert abs(r1 - 1) < 1e-14 and abs(r2 - K * K) < 1e-14
