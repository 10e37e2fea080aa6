"""The array contract: sn/cn/dn, the series and the catalog solutions take a
numpy array of u and return arrays that agree with per-point evaluation;
a scalar u still gives a scalar."""

import cmath

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darboux.catalog import enumerate_192, instantiate
from darboux.elliptic import (
    JACOBI_CODES,
    _glyph,
    complete_elliptic,
    jacobi_sn_cn_dn,
    pole_distance,
)
from darboux.errors import NonConvergence, OutsideConvergence, PoleProximity
from darboux.series import ParamTuple, darboux_potential, dl_coefficients, dl_eval
from darboux.verify import ode_residual, wronskian_constancy

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=60)

#: moduli named by the contract: real, complex, |k| > 1, near 1, imaginary, small
SPECIAL_K = (0.6, 0.3 + 0.4j, 1 / 0.3, 0.999999, 0.5j, 0.05)


@st.composite
def moduli(draw):
    if draw(st.booleans()):
        return complex(draw(st.sampled_from(SPECIAL_K)))
    r = draw(st.floats(0.05, 3.0))
    theta = draw(st.floats(-1.5, 1.5))
    k = cmath.rect(r, theta)
    if abs(k * k - 1) < 1e-3:
        k *= 1.1
    return k


@st.composite
def batches(draw):
    """A modulus and 1..12 points a K + b i K' away from the poles, some of
    them within 1e-6 K of u = 0."""
    k = draw(moduli())
    K, Kp = complete_elliptic(k)
    n = draw(st.integers(1, 12))
    us = []
    for _ in range(n):
        if draw(st.booleans()):
            us.append(10 ** draw(st.floats(-6, -1)) * K)
        else:
            us.append(draw(st.floats(-2, 2)) * K + draw(st.floats(-1, 1)) * 1j * Kp)
    us = [u for u in us if pole_distance("sn", u, k) > 1e-3] or [0.1 * K]
    return k, np.array(us)


class TestJacobiArrays:
    @SEEDED
    @given(batches())
    def test_array_matches_scalar(self, case):
        k, us = case
        arrays = jacobi_sn_cn_dn(us, k)
        for i, u in enumerate(us):
            ref = jacobi_sn_cn_dn(complex(u), k)
            for a, b in zip(arrays, ref):
                assert abs(a[i] - b) <= 1e-13 * abs(b)

    def test_shape_is_kept(self):
        us = np.linspace(0.1, 1.2, 6).reshape(2, 3) * (1 + 0.2j)
        sn, cn, dn = jacobi_sn_cn_dn(us, 0.6)
        assert sn.shape == cn.shape == dn.shape == (2, 3)

    def test_scalar_in_scalar_out(self):
        for u in (0.4, 0.4 + 0.1j, np.float64(0.4), np.array(0.4)):
            assert all(type(v) is complex for v in jacobi_sn_cn_dn(u, 0.6))

    def test_far_off_array_is_typed(self):
        with pytest.raises(NonConvergence):
            jacobi_sn_cn_dn(np.array([0.2, 0.3 + 90j]), 0.6)

    def test_glyph_array_matches_per_point(self):
        us = np.array([0.3 + 0.1j, 0.9 - 0.2j, 1.4 + 0.05j, 2.2 + 0.7j])
        for k in (0.6, 0.3 + 0.4j, 1 / 0.3):
            sn, cn, dn = jacobi_sn_cn_dn(us, k)
            for code in JACOBI_CODES:
                per_point = [_glyph(code, sn[i], cn[i], dn[i]) for i in range(len(us))]
                assert np.array_equal(_glyph(code, sn, cn, dn), per_point)

    def test_glyph_array_on_a_pole_is_typed(self):
        # sn(0) = 0 exactly: u = 0 is a pole of ns
        with pytest.raises(PoleProximity):
            _glyph("ns", *jacobi_sn_cn_dn(np.array([0.3, 0.0]), 0.6))


def reference_value(p: ParamTuple, coeffs, u: complex) -> complex:
    """The local solution at u summed term by term at 30 digits, from the
    per-point sn, cn, dn."""
    mp.mp.dps = 30
    sn, cn, dn = (mp.mpc(v) for v in jacobi_sn_cn_dn(complex(u), p.k))
    upto = coeffs.terminated_at if coeffs.terminated_at is not None else len(coeffs) - 1
    total = mp.fsum(
        mp.mpc(coeffs.values[m]) * mp.ldexp(1, int(coeffs.exps[m])) * sn ** (2 * m)
        for m in range(upto + 1)
    )
    xi, eta, mu, _ = p.exponents
    pref = mp.exp((xi + 1) * mp.log(sn) + (eta + 1) * mp.log(cn) + (mu + 1) * mp.log(dn))
    return complex(pref * total)


class TestSeriesArrays:
    @SEEDED
    @given(st.lists(st.floats(0.05, 0.95), min_size=1, max_size=10),
           st.floats(-0.4, 0.4), st.floats(0.0, 3.0))
    def test_array_matches_reference_sum(self, fractions, slope, h):
        p = ParamTuple(0.23, -0.41, 0.57, 1.13, h=h, k=0.6)
        coeffs = dl_coefficients(p, 120)
        K, _ = complete_elliptic(0.6)
        us = np.array(fractions) * K * complex(1, slope)
        us = us[np.abs(jacobi_sn_cn_dn(us, 0.6)[0]) < 0.95]
        vals = dl_eval(p, us, coeffs=coeffs)
        for u, v in zip(us, vals):
            ref = reference_value(p, coeffs, u)
            assert abs(v - ref) <= 1e-12 * abs(ref)

    def test_renormalized_big_modulus_array(self):
        # kappa = 1/0.3: C_m grows like kappa^(2m), so N = 400 needs the
        # power-of-two exponents; the batch must sum them like one point
        p = ParamTuple(0.2, 0.1, 0.4, 0.9, h=1.2, k=1 / 0.3)
        coeffs = dl_coefficients(p, 400, mode="forward")
        assert int(coeffs.exps[-1]) > 0
        K_, _ = complete_elliptic(1 / 0.3)
        us = np.array([0.05, 0.1, 0.2]) * K_
        vals = dl_eval(p, us, coeffs=coeffs)
        assert np.isfinite(vals).all()
        for u, v in zip(us, vals):
            ref = reference_value(p, coeffs, u)
            assert abs(v - ref) <= 1e-12 * abs(ref)

    def test_long_series_crosses_blocks(self):
        # more than one cumprod block of powers
        p = ParamTuple(0.23, -0.41, 0.57, 1.13, h=0.9, k=0.6)
        coeffs = dl_coefficients(p, 2100, mode="forward")
        us = np.array([0.3, 0.9 + 0.2j])
        for u, v in zip(us, dl_eval(p, us, coeffs=coeffs)):
            ref = reference_value(p, coeffs, u)
            assert abs(v - ref) <= 1e-12 * abs(ref)

    def test_scalar_in_scalar_out(self):
        p = ParamTuple(0.23, -0.41, 0.57, 1.13, h=0.9, k=0.6)
        assert type(dl_eval(p, 0.4)) is complex
        res = dl_eval(p, 0.4, detail=True)
        assert type(res.value) is complex and type(res.tail_bound) is float
        res = dl_eval(p, np.array([0.3, 0.4]), detail=True)
        assert res.value.shape == res.tail_bound.shape == (2,)

    def test_far_off_array_is_typed(self):
        p = ParamTuple(0, 0, 0, 1, h=0.83, k=0.6)
        with pytest.raises(NonConvergence):
            dl_eval(p, np.array([0.3, 0.3 + 90j]))

    def test_outside_names_first_offending_point(self):
        p = ParamTuple(0.2, 0.1, 0.4, 0.9, h=1.2, k=0.6)
        with pytest.raises(OutsideConvergence) as info:
            dl_eval(p, np.array([0.3, 0.5, 1.7507 + 1.3j, 2.0 + 1.3j]))
        assert info.value.index == 2
        with pytest.raises(OutsideConvergence) as info:
            dl_eval(p, 1.7507 + 1.3j)
        assert info.value.index is None

    def test_potential_elementwise(self):
        p = ParamTuple(0.23, -0.41, 0.57, 1.13, h=0.9, k=0.6)
        us = np.array([0.3, 0.7 + 0.1j])
        vs = darboux_potential(us, p)
        assert all(vs[i] == pytest.approx(darboux_potential(complex(u), p), rel=1e-13)
                   for i, u in enumerate(us))


class TestCatalogArrays:
    def test_solution_takes_arrays(self):
        p = ParamTuple(0.23, -0.41, 0.57, 1.13, h=0.9, k=0.6)
        for sid in enumerate_192()[::37]:
            fn, _ = instantiate(sid, p)
            us = np.array([0.31 + 0.12j, 0.44 + 0.2j])
            try:
                vals = fn(us)
            except OutsideConvergence:
                continue
            for u, v in zip(us, vals):
                assert abs(v - fn(complex(u))) <= 1e-12 * abs(v)

    def test_ode_residual_calls_f_once(self):
        k = 0.6
        p = ParamTuple(0, -1, -1, 1, h=1 + k * k, k=k)
        calls = []

        def f(u):
            calls.append(np.shape(u))
            return jacobi_sn_cn_dn(u, k)[0]

        rep = ode_residual(f, p, np.linspace(0.25, 1.1, 9))
        assert rep.max_relative_residual <= 1e-6
        assert len(calls) == 1 and calls[0][-1] == 9

    def test_wronskian_calls_each_solution_once(self):
        calls = []

        def counted(fn):
            def call(u):
                calls.append(np.shape(u))
                return fn(u)
            return call

        dev = wronskian_constancy(counted(np.sin), counted(np.cos), np.linspace(0.2, 1.4, 9))
        assert dev <= 1e-9
        assert len(calls) == 2 and all(c[-1] == 9 for c in calls)
