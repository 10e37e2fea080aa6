"""Elliptic core: quarter periods, theta series, Jacobi functions, lambda."""

import cmath
import math
import os
import pathlib
import random
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from scipy.special import ellipj

from darboux import elliptic
from darboux.elliptic import (
    JACOBI_CODES,
    SINGULAR_POINT_NAMES,
    ModulusData,
    complete_elliptic,
    jacobi,
    jacobi_sn_cn_dn,
    lambda_of_tau,
    nome_and_tau,
    pole_distance,
    singular_points,
    theta,
)
from darboux.errors import (
    DarbouxError,
    DegenerateModulus,
    LowerHalfPlane,
    NomeOutOfDisc,
    NonConvergence,
    PoleProximity,
)
from darboux.symmetry import GlyphEntry, ParamTuple
from darboux.verify import ode_residual
from darboux.weierstrass import evalues_from_modulus, wp
from conftest import K_VALUES, guarded_complex_grid, quadrature_K


class TestCompleteElliptic:
    def test_small_k_limit(self):
        K, _ = complete_elliptic(1e-6)
        assert abs(K - np.pi / 2) < 1e-12

    def test_lemniscatic_value_vs_quadrature(self):
        k = 1 / np.sqrt(2)
        K, Kp = complete_elliptic(k)
        assert abs(K - quadrature_K(k)) < 1e-12
        assert abs(K - Kp) < 1e-13  # self-complementary modulus

    def test_matches_quadrature_on_real_moduli(self):
        for k in K_VALUES:
            K, Kp = complete_elliptic(k)
            assert abs(K - quadrature_K(k)) < 1e-12
            assert abs(Kp - quadrature_K(np.sqrt(1 - k * k))) < 1e-12

    def test_complementary_definition(self):
        for k in (0.42, 0.77 + 0.1j):
            _, Kp = complete_elliptic(k)
            kp = cmath.sqrt(1 - k * k)
            assert abs(Kp - complete_elliptic(kp)[0]) < 1e-13

    def test_degenerate_moduli_raise(self):
        for bad in (0.0, 1.0, -1.0):
            with pytest.raises(DegenerateModulus):
                complete_elliptic(bad)
        with pytest.raises(DegenerateModulus):
            complete_elliptic(complex("inf"))


def oracle_agm_pairs(a, b):
    """The pairs of the AGM run for its full 64 steps (the loop before it
    stopped at a fixed point): the start, then one pair per step, up to the
    early stop at |a - b| <= 1e-17 |a|."""
    pairs = [(a, b)]
    for _ in range(64):
        if abs(a - b) <= 1e-17 * abs(a):
            break
        a, b = (a + b) / 2, cmath.sqrt(a * b)
        if abs(a - b) > abs(a + b):
            b = -b
        pairs.append((a, b))
    return pairs


def oracle_agm(a, b):
    pairs = oracle_agm_pairs(a, b)
    a, b = pairs[-1]
    if len(pairs) <= 64 or abs(a - b) <= 1e-12 * max(abs(a), 1.0):
        return a
    raise NonConvergence(f"AGM failed to contract for ({a}, {b})")


def oracle_complete_elliptic(k):
    k = complex(k)
    kp = cmath.sqrt(1 - k * k)
    return cmath.pi / (2 * oracle_agm(1.0 + 0j, kp)), cmath.pi / (2 * oracle_agm(1.0 + 0j, k))


def _agm_moduli(n_per_class=420, seed=23):
    """Seeded moduli of five classes: real (either sign, either sign of a
    zero imaginary part), complex inside the unit circle, |k| > 1, near 0
    and near 1, each at any argument where it has one."""
    rng = random.Random(seed)
    arg = lambda: rng.uniform(-math.pi, math.pi)   # noqa: E731
    classes = (
        lambda: complex(rng.choice((-1, 1)) * rng.uniform(0.02, 0.98), rng.choice((0.0, -0.0))),
        lambda: cmath.rect(rng.uniform(0.1, 0.95), arg()),
        lambda: cmath.rect(rng.uniform(1.05, 4.0), arg()),
        lambda: cmath.rect(10 ** rng.uniform(-6.5, -2), arg()),
        lambda: complex(1 - 10 ** rng.uniform(-12, -3)),
    )
    return [draw() for _ in range(n_per_class) for draw in classes]


AGM_MODULI = _agm_moduli()


class _CountingCmath:
    """cmath with a count of its sqrt calls: one per AGM step."""

    def __init__(self):
        self.sqrt_calls = 0

    def __getattr__(self, name):
        return getattr(cmath, name)

    def sqrt(self, z):
        self.sqrt_calls += 1
        return cmath.sqrt(z)


class TestAgm:
    def test_quarter_periods_equal_the_64_step_loop(self):
        assert len(AGM_MODULI) >= 2000
        for k in AGM_MODULI:
            assert repr(complete_elliptic(k)) == repr(oracle_complete_elliptic(k)), k

    def test_steps_stop_at_the_first_fixed_point(self, monkeypatch):
        spy = _CountingCmath()
        monkeypatch.setattr(elliptic, "cmath", spy)
        runs, agm = [], elliptic._agm

        def counted(a, b):
            before = spy.sqrt_calls
            try:
                return agm(a, b)
            finally:
                runs.append((a, b, spy.sqrt_calls - before))

        monkeypatch.setattr(elliptic, "_agm", counted)
        for k in AGM_MODULI:
            complete_elliptic(k)
        late = 0
        for a, b, steps in runs:
            pairs = oracle_agm_pairs(a, b)
            fixed = next((n for n in range(1, len(pairs)) if pairs[n] == pairs[n - 1]), None)
            # never a step past the first repeated pair; all 64 where there is none
            assert steps == (len(pairs) - 1 if fixed is None else fixed), (a, b)
            late += fixed is not None and steps > 20
        # quadratic convergence reaches the fixed point within 20 steps, but
        # a pair can drift by an ulp every few steps first (k = 0.6114...j
        # settles after 24): 4 of these 4,200 pairs (and 10 never settle)
        assert late <= len(runs) // 200

    @pytest.mark.parametrize("a, b", [(1.0 + 0j, complex(math.inf, 0.0)), (1.0 + 0j, complex(0.0, math.inf)),
                                      (1.0 + 0j, complex(math.nan, 0.0)), (1e308 + 0j, 1e308j)])
    def test_a_pair_that_does_not_contract_is_refused(self, a, b):
        # an infinite part turns into NaN in the first steps; a * b overflows in the last pair
        with pytest.raises(NonConvergence, match="AGM failed to contract"):
            elliptic._agm(a, b)

    def test_a_modulus_whose_square_overflows_is_refused(self):
        with pytest.raises(NonConvergence, match="AGM failed to contract"):
            complete_elliptic(1e200)


class TestTheta:
    def test_theta1_odd(self):
        for q in (0.05, 0.02 + 0.01j):
            assert theta(1, 0.0, q) == 0
            z = 0.3 + 0.2j
            assert abs(theta(1, z, q) + theta(1, -z, q)) < 1e-15

    def test_theta3_empty_series(self):
        assert theta(3, 0.0, 0.0) == 1.0

    def test_quarter_lambda_value(self):
        # theta_2^4/theta_3^4 at the lemniscatic nome is exactly 1/2
        q = np.exp(-np.pi)
        val = (theta(2, 0.0, q) / theta(3, 0.0, q)) ** 4
        assert abs(val - 0.5) < 1e-13

    def test_vs_mpmath(self):
        q = 0.08 + 0.03j
        for idx in (1, 2, 3, 4):
            for z in (0.4, 0.3 - 0.6j):
                ref = complex(mp.jtheta(idx, z, q))
                assert abs(theta(idx, z, q) - ref) < 1e-13 * max(1, abs(ref))

    def test_nome_out_of_disc(self):
        with pytest.raises(NomeOutOfDisc):
            theta(3, 0.1, 1.2)


class TestJacobi:
    def test_initial_values(self):
        for k in (0.3, 0.6 + 0.2j):
            sn, cn, dn = jacobi_sn_cn_dn(0.0, k)
            assert abs(sn) < 1e-15 and abs(cn - 1) < 1e-14 and abs(dn - 1) < 1e-14

    def test_vs_scipy_real(self):
        for k in K_VALUES:
            for u in (0.2, 0.9, 1.7):
                sn, cn, dn = jacobi_sn_cn_dn(u, k)
                s, c, d, _ = ellipj(u, k * k)
                assert abs(sn - s) < 1e-12
                assert abs(cn - c) < 1e-12
                assert abs(dn - d) < 1e-12

    def test_trig_degeneration(self):
        # |sn(u,k) - sin u| = O(|k|^2) uniformly on a bounded grid
        for k in (1e-4, 1e-5):
            worst = max(
                abs(jacobi_sn_cn_dn(u, k)[0] - np.sin(u))
                for u in np.linspace(0.1, 1.5, 7)
            )
            assert worst <= 5 * k * k

    def test_quadratic_identities_complex_grid(self):
        for k in K_VALUES:
            for u in guarded_complex_grid(k, n=8):
                sn, cn, dn = jacobi_sn_cn_dn(u, k)
                assert abs(sn * sn + cn * cn - 1) < 1e-12
                assert abs(dn * dn + k * k * sn * sn - 1) < 1e-12

    def test_quasi_periodicity(self):
        for k in K_VALUES:
            K, Kp = complete_elliptic(k)
            for u in (0.37, 0.6 + 0.4j):
                sn0, cn0, dn0 = jacobi_sn_cn_dn(u, k)
                sn1, cn1, dn1 = jacobi_sn_cn_dn(u + 2 * K, k)
                assert abs(sn1 + sn0) < 1e-11
                assert abs(cn1 + cn0) < 1e-11
                assert abs(dn1 - dn0) < 1e-11

    def test_half_period_shift_value(self):
        # sn(u + iK') = ns(u)/k at u = 0.7, k = 0.6
        k = 0.6
        _, Kp = complete_elliptic(k)
        lhs = jacobi_sn_cn_dn(0.7 + 1j * Kp, k)[0]
        rhs = jacobi("ns", 0.7, k) / k
        assert abs(lhs - rhs) < 1e-12

    def test_derived_glyphs_are_quotients(self):
        u, k = 0.63 + 0.21j, 0.6
        sn, cn, dn = jacobi_sn_cn_dn(u, k)
        quot = {
            "ns": 1 / sn, "nc": 1 / cn, "nd": 1 / dn,
            "sc": sn / cn, "cs": cn / sn, "sd": sn / dn,
            "ds": dn / sn, "cd": cn / dn, "dc": dn / cn,
        }
        for code, ref in quot.items():
            assert jacobi(code, u, k) == ref  # identical construction
        for code in JACOBI_CODES:
            assert GlyphEntry((0, 0, 0), code).value(u, k) == jacobi(code, u, k, guard=0)

    @pytest.mark.parametrize("code,pole", {
        "sn": "iKp", "cn": "iKp", "dn": "iKp",
        "ns": "0", "nc": "K", "nd": "K+iKp",
        "sc": "K", "cs": "0", "sd": "K+iKp",
        "ds": "0", "cd": "K+iKp", "dc": "K",
    }.items())
    def test_pole_offsets(self, code, pole):
        k = 0.6
        for name, point in zip(SINGULAR_POINT_NAMES, singular_points(k)):
            dist = pole_distance(code, point + 0.01, k)
            assert (dist < 0.02) == (name == pole)
        with pytest.raises(PoleProximity):
            jacobi(code, singular_points(k)[SINGULAR_POINT_NAMES.index(pole)] + 0.01, k)

    def test_complex_modulus_self_consistency(self):
        # the moduli the symmetry tables need
        k = 0.6
        kp = 0.8
        for kappa in (1j * k / kp, 1 / k, 1 / kp, 1j * kp / k):
            for u in (0.41, 0.3 + 0.2j):
                sn, cn, dn = jacobi_sn_cn_dn(u, kappa)
                assert abs(sn * sn + cn * cn - 1) < 1e-11
                assert abs(dn * dn + kappa**2 * sn * sn - 1) < 1e-11
        sn = jacobi_sn_cn_dn(1e-7, 1j * k / kp)[0]
        assert abs(sn / 1e-7 - 1) < 1e-9

    def test_pole_guard(self):
        k = 0.6
        _, Kp = complete_elliptic(k)
        with pytest.raises(PoleProximity):
            jacobi("sn", 1j * Kp + 0.01, k)
        with pytest.raises(PoleProximity):
            jacobi("ns", 0.01, k)  # ns pole at lattice points
        # guard is configurable
        assert jacobi("ns", 0.2, k, guard=0.1) == pytest.approx(
            1 / jacobi("sn", 0.2, k), abs=0
        )
        assert pole_distance("sn", 1j * Kp, k) < 1e-12

    def test_exact_pole_without_guard_is_typed(self):
        # sn(0) = 0 exactly, so ns = 1/sn divides by zero
        with pytest.raises(PoleProximity):
            jacobi("ns", 0, 0.6, guard=0)

    def test_glyph_entry_at_exact_pole_is_typed(self):
        with pytest.raises(PoleProximity):
            GlyphEntry(scalar=(0, 0, 0), glyph="ds").value(0j, 0.6)

    def test_far_off_argument_is_typed(self):
        # cmath.sin overflows inside the theta series at Im u = 90
        with pytest.raises(NonConvergence):
            jacobi_sn_cn_dn(0.3 + 90j, 0.6)

    def test_unknown_code(self):
        with pytest.raises(ValueError):
            jacobi("xx", 0.3, 0.6)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_finite_argument_is_typed(self):
        # u = 1e308 puts the lattice coordinate u / (2K) past the float range
        p = ParamTuple(0, 0, 0, 1, 0.83, k=0.6)
        calls = (lambda: jacobi("sn", 1e308, 0.6),
                 lambda: wp(1e308, evalues_from_modulus(0.6), 0.6),
                 lambda: ode_residual(np.sin, p, [1e308]),
                 lambda: ode_residual(np.sin, p, [0.3, -1.7e308 + 1e308j]))
        for call in calls:
            with pytest.raises(DarbouxError, match="lattice coordinates are not finite"):
                call()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("u, named", [(1e308, 1e308), (1e308j, 1e308j), (-1.7e308 + 1e308j, -1.7e308 + 1e308j),
                                          (np.array([0.3, 1e308]), 1e308),
                                          (np.array([[0.3], [1e308j], [math.inf]]), 1e308j)])
    def test_huge_finite_argument_refused_by_sn_cn_dn(self, u, named):
        # pi u / (2K) is not finite: the refusal of jacobi, naming the first such u
        with pytest.raises(NonConvergence) as info:
            jacobi_sn_cn_dn(u, 0.6)
        assert str(info.value) == f"argument u = {complex(named)} is too large: its lattice coordinates are not finite"


class TestNomeTau:
    def test_lemniscatic_tau(self):
        q, tau = nome_and_tau(1 / np.sqrt(2))
        assert abs(tau - 1j) < 1e-13
        assert abs(q - np.exp(-np.pi)) < 1e-14

    def test_small_k(self):
        q, tau = nome_and_tau(1e-3)
        assert tau.imag > 4
        assert abs(q) < 1e-5

    def test_nome_vs_quadrature_oracle(self):
        # q = exp(-pi K'/K) with both quarter periods from quadrature
        k = 0.6
        q_oracle = np.exp(-np.pi * quadrature_K(0.8) / quadrature_K(0.6))
        q, _ = nome_and_tau(k)
        assert abs(q - q_oracle) < 1e-13
        # the lemniscatic nome carries the digits 0.04321391826...
        q2, _ = nome_and_tau(1 / np.sqrt(2))
        assert abs(q2 - 0.04321391826377225) < 1e-13


class TestLambda:
    def test_lambda_i(self):
        assert abs(lambda_of_tau(1j) - 0.5) < 1e-12

    def test_lambda_2i_against_theta_oracle(self):
        # independent theta implementation (mpmath) at q = e^{-2 pi};
        # the closed form is (3 - 2 sqrt 2)^2 (the square of the modulus there)
        q = mp.exp(-2 * mp.pi)
        oracle = complex((mp.jtheta(2, 0, q) / mp.jtheta(3, 0, q)) ** 4)
        val = lambda_of_tau(2j)
        assert abs(val - oracle) < 1e-13
        assert abs(val - (3 - 2 * np.sqrt(2)) ** 2) < 1e-12

    def test_period_two_invariance(self):
        for tau in (0.31 + 1.13j, -0.4 + 0.9j):
            assert abs(lambda_of_tau(tau) - lambda_of_tau(tau + 2)) < 1e-13

    def test_lambda_equals_k_squared(self):
        for k in K_VALUES:
            _, tau = nome_and_tau(k)
            assert abs(lambda_of_tau(tau) - k * k) < 1e-12

    def test_wp_quotient_cross_check(self):
        # lambda agrees with the half-period p-quotient definition, with the
        # ordered basis chosen so that lambda = k^2 (five generic tau)
        from darboux.weierstrass import wp_tau

        for tau in (1.2j, 0.31 + 1.13j, -0.4 + 0.9j, 0.2 + 1.7j, 2.1j):
            w1, w3 = 0.5, (1 + tau) / 2
            w2 = w1 + w3
            lam = (wp_tau(w3, tau) - wp_tau(w2, tau)) / (wp_tau(w1, tau) - wp_tau(w2, tau))
            assert abs(lam - lambda_of_tau(tau)) < 1e-10

    def test_lower_half_plane(self):
        with pytest.raises(LowerHalfPlane):
            lambda_of_tau(-1j)
        with pytest.raises(LowerHalfPlane):
            lambda_of_tau(0.5)

    def test_never_zero_or_one(self):
        for tau in (1j, 2j, 0.5 + 0.8j):
            lam = lambda_of_tau(tau)
            assert abs(lam) > 1e-6 and abs(lam - 1) > 1e-6


#: Prints, for each modulus on the command line in turn, its tau, q and
#: sn/cn/dn at one point, or the refusal's type.
_MODULUS_SCRIPT = """
import sys
from darboux.elliptic import ModulusData, jacobi_sn_cn_dn
from darboux.errors import DarbouxError
for arg in sys.argv[1:]:
    k = complex(arg)
    try:
        md = ModulusData.from_modulus(k)
        print(repr((md.k, md.tau, md.q, jacobi_sn_cn_dn(0.3 + 0.2j, k))))
    except DarbouxError as exc:
        print(type(exc).__name__)
"""


def _in_a_fresh_process(*moduli: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(elliptic.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _MODULUS_SCRIPT, *moduli], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return proc.stdout.splitlines()


class TestModulusData:
    def test_signed_zero_parts_keep_their_own_entry(self):
        # -0.5 +- 0j have tau = +-2 + 1.279j; -2 - 0j is refused, -2 + 0j is not
        moduli = ["-0.5+0j", "-0.5-0j", "-2+0j", "-2-0j"]
        fresh = [line for k in moduli for line in _in_a_fresh_process(k)]
        assert fresh[0] != fresh[1] and fresh[2] != "NomeOutOfDisc" and fresh[3] == "NomeOutOfDisc"
        assert _in_a_fresh_process(*moduli) == fresh
        assert _in_a_fresh_process(*moduli[::-1]) == fresh[::-1]

    def test_invariants(self):
        for k in (0.3, 0.77 + 0.2j, 1 / 0.6):
            md = ModulusData.from_modulus(k)
            assert abs(md.k**2 + md.kp**2 - 1) < 1e-13
            assert abs(md.tau - 1j * md.Kp / md.K) < 1e-13
            assert abs(md.q) < 1
            assert md.tau.imag > 0
