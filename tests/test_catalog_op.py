"""The kernels of one catalog op (``instantiate``, ``sample_points``,
``ode_residual``) against the expressions they replaced, bit for bit.

``series._power_sum`` hands ldexp clipped C-int shifts instead of int64
ones; ``catalog.sample_points`` walks its ray in blocks and stops at the
first block that crosses, instead of one sn call over the whole walk;
``verify.ode_residual`` guards its grid with one array call of
``elliptic._lattice_remainder`` instead of a per-point loop, and computes
its sin calibration once per (grid size, step).  The oracles below are the
replaced code.
"""

import cmath

import numpy as np
import pytest

from darboux import catalog, verify
from darboux.catalog import (
    _WALK,
    _WALK_BLOCK,
    SAMPLE_ANGLE,
    SAMPLE_COUNT,
    enumerate_192,
    sample_points,
    transformed_tuple,
)
from darboux.elliptic import ModulusData, _lattice_remainder, jacobi_sn_cn_dn, singular_points
from darboux.errors import NonConvergence, PoleProximity
from darboux.series import _POWER_BLOCK, SeriesCoefficients, _power_sum, dl_coefficients
from darboux.symmetry import ParamTuple
from darboux.verify import _richardson, _stencil, ode_residual


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# --------------------------------------------------------------------------
# _power_sum: C-int shifts


def oracle_ldexp(z, e):
    np.ldexp(z.real, e, out=z.real)
    np.ldexp(z.imag, e, out=z.imag)
    return z


def oracle_power_sum(coeffs, s2, upto):
    """``_power_sum`` with the int64 shift handed to ldexp as it is."""
    _, e = np.frexp(np.abs(s2))
    r = oracle_ldexp(s2.copy(), -e)
    total = np.zeros(s2.shape, complex)
    head, head_e = np.ones(s2.shape, complex), np.zeros(s2.shape, np.int64)
    for lo in range(0, upto + 1, _POWER_BLOCK):
        m = np.arange(lo, min(lo + _POWER_BLOCK, upto + 1))
        pw = np.empty((s2.size, m.size), complex)
        pw[:, 0] = head
        pw[:, 1:] = r[:, None]
        np.cumprod(pw, axis=1, out=pw)
        head = pw[:, -1] * r
        pw *= coeffs.values[m]
        shift = coeffs.exps[m] + head_e[:, None] + (m - lo) * e[:, None]
        terms = oracle_ldexp(pw, shift)
        total += terms.sum(axis=1)
        _, f = np.frexp(np.abs(head))
        head, head_e = oracle_ldexp(head, -f), head_e + m.size * e + f
    return total, np.abs(terms[:, -1])


def binades(rng, lo, hi, n=35):
    """n points s2 with log2|s2| uniform in [lo, hi) and uniform phases."""
    return 2.0 ** rng.uniform(lo, hi, n) * np.exp(2j * np.pi * rng.random(n))


def check_power_sum(coeffs, s2, upto=None):
    upto = len(coeffs) - 1 if upto is None else upto
    with np.errstate(all="ignore"):   # the hand-built sums reach inf and nan
        got, want = _power_sum(coeffs, s2, upto), oracle_power_sum(coeffs, s2, upto)
    assert all(same_bits(g, w) for g, w in zip(got, want))


GENERIC = ParamTuple(0.23, -0.41, 0.57, 1.13, h=0.9, k=0.6)


def test_power_sum_across_binades():
    coeffs = dl_coefficients(GENERIC, 200)
    rng = np.random.default_rng(1)
    for lo in range(-48, 0, 4):
        check_power_sum(coeffs, binades(rng, lo, lo + 4))
    check_power_sum(coeffs, binades(rng, -40, 0), upto=57)


def test_power_sum_of_rescaled_forward_coefficients():
    # kappa = 3: C_m grows like 9^m, so the stored exponents are positive
    coeffs = dl_coefficients(ParamTuple(0.2, 0.1, 0.4, 0.9, h=1.2, k=3.0), 200, mode="forward")
    assert coeffs.exps.dtype == np.int64 and int(coeffs.exps.max()) > 0
    rng = np.random.default_rng(2)
    for lo in range(-30, -3, 3):
        check_power_sum(coeffs, binades(rng, lo, lo + 3))


def test_power_sum_of_minimal_coefficients():
    # auto at the Lame root on (0, 12): the products of the fraction's tails
    coeffs = dl_coefficients(ParamTuple(0, 0, 0, 1, h=3.6066522808608408, k=0.6), 200)
    assert coeffs.mode == "minimal"
    check_power_sum(coeffs, binades(np.random.default_rng(3), -30, 0))


def test_power_sum_over_two_blocks():
    coeffs = dl_coefficients(GENERIC, 1500, mode="forward")
    assert len(coeffs) - 1 > _POWER_BLOCK
    check_power_sum(coeffs, binades(np.random.default_rng(4), -12, -0.1, 7))


def test_power_sum_shifts_past_the_clip_and_the_int32_range():
    # every term saturates as it did: to inf or 0 with its sign, or nan
    rng = np.random.default_rng(5)
    big = [0, 2199, 2200, 2201, -2199, -2200, -2201, 3000, -3000, 1100, -1100,
           2**31 - 1, 2**31 + 5, -(2**31) - 5, 2**40, -(2**40)]
    exps = np.array(big * 4, np.int64)
    values = (0.5 + 0.5 * rng.random(exps.size)) * np.exp(2j * np.pi * rng.random(exps.size))
    coeffs = SeriesCoefficients(values=values, exps=exps, mode="forward", terminated_at=None, radius=1.0)
    for lo, hi in ((-1074, -1000), (-60, 0), (0, 1)):
        check_power_sum(coeffs, binades(rng, lo, hi, 9))
    # one sign of shift per sum: all terms 0, or all +-inf
    for sign in (1, -1):
        coeffs = SeriesCoefficients(values=values[:5], exps=sign * np.array([2**31 + 5] * 5, np.int64),
                                    mode="forward", terminated_at=None, radius=1.0)
        check_power_sum(coeffs, binades(rng, -2, 0, 9))


# --------------------------------------------------------------------------
# sample_points: the walk in blocks


def oracle_sample_points(sid, p):
    """``sample_points`` with the whole walk in one sn call."""
    pt = transformed_tuple(sid, p)
    a, b = sid.row.substitution_parts(p.k)
    radius = min(1.0, 1.0 / abs(pt.k))
    bound = 0.8 * radius
    direction = cmath.exp(1j * SAMPLE_ANGLE)
    walk = _WALK * radius
    crossed = np.flatnonzero(np.abs(jacobi_sn_cn_dn(walk[1:] * direction, pt.k)[0]) >= bound)
    t_max = walk[crossed[0] if crossed.size else -1]
    w = np.linspace(0.35 * t_max, 0.95 * t_max, SAMPLE_COUNT) * direction
    sn = jacobi_sn_cn_dn(w, pt.k)[0]
    return [complex(x) for x in (w / a - b)[np.abs(sn) < bound]]


@pytest.mark.parametrize("k", [0.6, 1.7, 0.5 + 0.3j, 0.2 + 0.9j])
def test_sample_points_equal_the_one_call_walk(k):
    p = ParamTuple(0, 0, 0, 3, h=5.44, k=k)
    for sid in enumerate_192():
        got, want = sample_points(sid, p), oracle_sample_points(sid, p)
        assert len(want) > 0 and same_bits(np.array(got), np.array(want)), sid.label


def spy_on_sn(monkeypatch, sn=None):
    """Record the size of every sn call of ``sample_points``; `sn` replaces its values."""
    calls = []

    def spy(u, k):
        calls.append(u.size)
        if sn is None:
            return jacobi_sn_cn_dn(u, k)
        return (np.full(u.shape, sn, complex),) * 3

    monkeypatch.setattr(catalog, "jacobi_sn_cn_dn", spy)
    return calls


def test_walk_stops_at_the_first_block_that_crosses(monkeypatch):
    calls = spy_on_sn(monkeypatch)
    sample_points(enumerate_192()[0], ParamTuple(0, 0, 0, 3, h=5.44, k=0.6))
    assert calls == [_WALK_BLOCK, SAMPLE_COUNT]


def test_walk_that_never_crosses_ends_at_its_last_point(monkeypatch):
    calls = spy_on_sn(monkeypatch, sn=0.0)
    sid, p = enumerate_192()[40], ParamTuple(0, 0, 0, 3, h=5.44, k=1.7)
    pt = transformed_tuple(sid, p)
    a, b = sid.row.substitution_parts(p.k)
    t_max = _WALK[-1] * min(1.0, 1.0 / abs(pt.k))
    want = np.linspace(0.35 * t_max, 0.95 * t_max, SAMPLE_COUNT) * cmath.exp(1j * SAMPLE_ANGLE) / a - b
    assert same_bits(np.array(sample_points(sid, p)), want)
    assert sum(calls[:-1]) == _WALK.size - 1 and max(calls[:-1]) == _WALK_BLOCK
    assert calls[-1] == SAMPLE_COUNT


# --------------------------------------------------------------------------
# ode_residual: one array pole guard, one calibration per (grid size, step)


def oracle_guard(pts, md, guard):
    """The per-point guard of ``ode_residual``."""
    for u in pts:
        if _lattice_remainder(complex(u), md.K, 1j * md.Kp) < guard:
            raise PoleProximity(f"grid point {u} within guard of singular point")


@pytest.mark.parametrize("k", [0.6, 0.98, 1.7, 0.5 + 0.4j])
def test_array_distance_has_the_scalar_bits(k):
    md = ModulusData.from_modulus(k)
    rng = np.random.default_rng(6)
    us = (rng.normal(size=400) + 1j * rng.normal(size=400)) * np.exp(rng.uniform(-6, 6, 400))
    for p1, p2, origin in ((md.K, 1j * md.Kp, 0j), (2 * md.K, 2j * md.Kp, md.K + 1j * md.Kp)):
        want = np.array([_lattice_remainder(complex(u), p1, p2, origin) for u in us])
        assert same_bits(_lattice_remainder(us, p1, p2, origin), want)


def refusal(call):
    try:
        call()
    except (NonConvergence, PoleProximity) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("k", [0.6, 1.7, 0.5 + 0.4j])
def test_array_guard_refuses_as_the_per_point_loop(k):
    p = ParamTuple(0, 0, 0, 0, h=1.0, k=k)
    md = ModulusData.from_modulus(k)
    ok = [0.5 * md.K + 0.4j * md.Kp, 0.6 * md.K + 0.5j * md.Kp]
    near = [s + 0.01 * cmath.exp(1j * j) for j, s in enumerate(singular_points(k))]
    grids = {
        "first near point named": [ok[0], near[1], ok[1], near[3]],
        "a translate": [ok[0], near[2] + 2 * md.K - 2j * md.Kp],
        "near point first": [near[0], ok[0]],
        "non-finite point first": [complex("inf"), near[1]],
        "non-finite after clear points": [ok[0], complex(0.3, float("nan")), ok[1]],
        "clear": ok,
    }
    for what, grid in grids.items():
        got = refusal(lambda: ode_residual(np.sin, p, grid, require_trusted=False))
        assert got == refusal(lambda: oracle_guard(np.array(grid), md, 0.05)), what
    assert refusal(lambda: ode_residual(np.sin, p, grids["clear"], require_trusted=False)) is None


def test_calibration_is_the_fresh_stencil_run():
    p = ParamTuple(0, 0, 0, 0, h=1.0, k=0.6)
    for n, step in ((3, 4e-3), (9, 3e-3), (35, 2e-3), (35, 1e-2)):
        x = np.linspace(0.4, 1.9, max(n, 5))
        d2, y = _richardson(np.sin(_stencil(x, step)), step)
        fresh = float(np.max(np.abs(d2 + y) / (np.abs(d2) + np.abs(y) + 1e-300)))
        for _ in range(2):   # computed, then recalled
            assert verify._calibration(n, step) == fresh
            rep = ode_residual(np.sin, p, np.linspace(0.3, 1.2, n), step=step, require_trusted=False)
            assert rep.calibration_residual == fresh
