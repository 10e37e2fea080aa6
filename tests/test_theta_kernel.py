"""The theta-series kernel: one term count and one weight table for the
scalar and the batched sums.

The oracles below are the code the shared count replaced: the scalar loop
that added terms until two consecutive ones fell below 1e-17 of the
partial sum, and the batched sums whose term count was read off a
512-entry size vector.  ``_theta_terms`` gives the second's count, and
with it ``_theta_array`` equals the second bit for bit and ``_theta_all``
the first, except where a theta function cancels to roundoff on the
half-period lattice.
"""

import cmath
import math
import time

import numpy as np
import pytest

from darboux import elliptic
from darboux.elliptic import (
    ModulusData,
    _theta_all,
    _theta_array,
    _theta_terms,
    jacobi_sn_cn_dn,
)
from darboux.errors import NomeOutOfDisc, NonConvergence
from darboux.symmetry import ParamTuple
from darboux.verify import ode_residual
from darboux.weierstrass import evalues_from_modulus, wp

CAP, TOL = 256, 1e-17

# --------------------------------------------------------------------------
# oracles: the adaptive scalar loop and the 512-entry batched count


def oracle_scalar(z, q):
    if abs(q) >= 1:
        raise NomeOutOfDisc(f"|q| = {abs(q)} >= 1")
    z = complex(z)
    try:
        q4 = q**0.25
        t1 = t2 = 0j
        qq, small = 1.0 + 0j, 0
        for n in range(CAP):
            if n > 0:
                qq *= q ** (2 * n)
            s, c = cmath.sin((2 * n + 1) * z), cmath.cos((2 * n + 1) * z)
            a1, a2 = (-1 if n % 2 else 1) * qq * s, qq * c
            t1 += a1
            t2 += a2
            ref = max(abs(t1), abs(t2), 1e-300)
            small = small + 1 if max(abs(a1), abs(a2)) < TOL * ref else 0
            if small >= 2:
                break
        else:
            raise NonConvergence("theta_1/theta_2 series did not settle")
        t1 *= 2 * q4
        t2 *= 2 * q4
        t3 = t4 = 1.0 + 0j
        qn, small = 1.0 + 0j, 0
        for n in range(1, CAP):
            qn *= q ** (2 * n - 1)
            a3 = 2 * qn * cmath.cos(2 * n * z)
            t3 += a3
            t4 += (-1 if n % 2 else 1) * a3
            small = small + 1 if abs(a3) < TOL * max(abs(t3), 1e-300) else 0
            if small >= 2:
                break
        else:
            raise NonConvergence("theta_3/theta_4 series did not settle")
    except OverflowError as exc:
        raise NonConvergence(f"theta series overflowed at z = {z}") from exc
    return t1, t2, t3, t4


def oracle_terms(q, im):
    """The largest merged index j summed, or None where the batch refused."""
    j = np.arange(1, 2 * CAP + 1)
    size = j * j * (np.log(abs(q)) / 4) + j * im
    peak = int(np.argmax(size))
    past = np.flatnonzero(size[peak:] < size[peak] + np.log(TOL))
    return None if past.size == 0 else peak + int(past[0]) + 1


def oracle_array(z, q):
    last = oracle_terms(q, float(np.max(np.abs(z.imag), initial=0.0)))
    if last is None:
        raise NonConvergence("theta series need more terms")
    qq, qn, w12, w34 = 1.0 + 0j, 1.0 + 0j, [], []
    for n in range((last + 1) // 2):
        if n > 0:
            qq *= q ** (2 * n)
        w12.append(qq)
    for n in range(1, last // 2 + 1):
        qn *= q ** (2 * n - 1)
        w34.append(qn)
    w12, w34 = np.array(w12), 2 * np.array(w34)
    sgn12 = np.where(np.arange(len(w12)) % 2, -1.0, 1.0)
    sgn34 = np.where(np.arange(1, len(w34) + 1) % 2, -1.0, 1.0)
    odd = np.outer(np.arange(1, 2 * len(w12), 2), z)
    q4 = 2 * q**0.25
    with np.errstate(over="ignore", invalid="ignore"):
        even = np.cos(np.outer(np.arange(2, 2 * len(w34) + 1, 2), z))
        t1 = q4 * ((sgn12 * w12)[:, None] * np.sin(odd)).sum(axis=0)
        t2 = q4 * (w12[:, None] * np.cos(odd)).sum(axis=0)
        t3 = 1 + (w34[:, None] * even).sum(axis=0)
        t4 = 1 + ((sgn34 * w34)[:, None] * even).sum(axis=0)
    if not all(np.isfinite(t).all() for t in (t1, t2, t3, t4)):
        raise NonConvergence("theta series overflowed")
    return t1, t2, t3, t4


def same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


# --------------------------------------------------------------------------
# the seeded sweep: the modulus classes of the moduli_sweep workload


def sweep_moduli(rng, n):
    draws = {
        "real": lambda: complex(rng.uniform(0.05, 0.95)),
        "complex": lambda: cmath.rect(rng.uniform(0.1, 0.95), rng.uniform(0.1, 1.4)),
        "outside": lambda: cmath.rect(rng.uniform(1.1, 4.0), rng.uniform(-0.6, 0.6)),
        "near0": lambda: cmath.rect(10 ** rng.uniform(-6, -2), rng.uniform(0.0, 0.5)),
        "near1": lambda: complex(1 - 10 ** rng.uniform(-12, -4)),
    }
    return [draws[name]() for _ in range(n) for name in draws]


def sweep_points(rng, md):
    """Points in the quarter cell, a few cells off it, and on the half-periods
    (where theta_2, theta_4 or theta_3 cancels to about zero)."""
    cell = [2 * a * md.K + 2j * b * md.Kp for a, b in zip(rng.uniform(0.05, 0.45, 3), rng.uniform(0.05, 0.4, 3))]
    shifted = [u + 2 * rng.integers(-3, 4) * md.K + 2j * rng.integers(-2, 3) * md.Kp for u in cell]
    return cell + shifted + [md.K, 1j * md.Kp, md.K + 1j * md.Kp]


@pytest.fixture(scope="module")
def sweep():
    rng = np.random.default_rng(20150611)
    out = []
    for k in sweep_moduli(rng, 60):
        md = ModulusData.from_modulus(k)
        out.append((k, md, sweep_points(rng, md)))
    return out


def test_scalar_sums_match_the_adaptive_loop_bit_for_bit(sweep):
    for _, md, points in sweep:
        assert same_bits(md.theta_zero, oracle_scalar(0.0, md.q))
        for u in points[:6]:
            z = cmath.pi * u / (2 * md.K)
            assert same_bits(_theta_all(z, md.q), oracle_scalar(z, md.q)), (md.k, u)


def test_scalar_sums_on_the_half_periods_agree_to_roundoff(sweep):
    # there theta_2, theta_3 or theta_4 cancels to roundoff, whose bits
    # depend on how many terms below 1e-17 of the peak were added
    for _, md, points in sweep:
        for u in points[6:]:
            z = cmath.pi * u / (2 * md.K)
            got, want = _theta_all(z, md.q), oracle_scalar(z, md.q)
            scale = max(abs(t) for t in want)
            assert all(abs(g - w) <= 1e-15 * scale for g, w in zip(got, want)), (md.k, u)


def test_batched_sums_match_the_parent_expressions_bit_for_bit(sweep):
    for _, md, points in sweep:
        z = cmath.pi * np.array(points) / (2 * md.K)
        for part in (z, z[:3], z[3:6], z[6:], z[7:8]):
            for got, want in zip(_theta_array(part, md.q), oracle_array(part, md.q)):
                assert same_bits(got, want), md.k


def test_sn_cn_dn_are_the_oracle_quotients(sweep):
    def quotients(md, t1, t2, t3, t4):
        z1, z2, z3, z4 = md.theta_zero
        return (z3 / z2) * (t1 / t4), (z4 / z2) * (t2 / t4), (z4 / z3) * (t3 / t4)

    for k, md, points in sweep:
        u = np.array(points[:6])
        want = quotients(md, *oracle_array(cmath.pi * u / (2 * md.K), md.q))
        assert all(same_bits(g, w) for g, w in zip(jacobi_sn_cn_dn(u, k), want)), k
        for x in points[:6]:
            want = quotients(md, *oracle_scalar(cmath.pi * complex(x) / (2 * md.K), md.q))
            assert same_bits(jacobi_sn_cn_dn(x, k), want), (k, x)


# --------------------------------------------------------------------------
# the term count


def test_term_count_is_the_batched_rule():
    rng = np.random.default_rng(11)
    aq = np.concatenate([10 ** rng.uniform(-16, -0.0005, 3000), 1 - 10 ** rng.uniform(-4, -1, 1000)])
    ims = np.concatenate([np.zeros(500), rng.uniform(0, 2, 1000), rng.uniform(0, 400, 2500)])
    refused = 0
    for q, im in zip(aq, ims):
        q = complex(q) * cmath.exp(1j * rng.uniform(-3, 3))
        want = oracle_terms(q, im)
        if want is None:
            refused += 1
            with pytest.raises(NonConvergence):
                _theta_terms(q, im)
        else:
            assert _theta_terms(q, im) == want, (abs(q), im)
    assert 0 < refused < len(aq)


def test_term_count_edges():
    assert _theta_terms(0j, 5.0) == 1                      # lambda(tau) far up the half plane
    for bad in (math.inf, math.nan):
        with pytest.raises(NonConvergence):
            _theta_terms(0.5, bad)
    with pytest.raises(NonConvergence):
        _theta_terms(complex(math.nan, 0), 0.0)
    with pytest.raises(NomeOutOfDisc):
        _theta_terms(1.0 + 0j, 0.0)


def test_weights_are_built_once_per_nome_and_count():
    k = 0.6123456789                                        # a modulus no other test uses
    ModulusData.from_modulus(k)
    weights, rows = elliptic._theta_weights.cache_info(), elliptic._theta_rows.cache_info()
    for _ in range(3):
        jacobi_sn_cn_dn(0.3 + 2j, k)
        jacobi_sn_cn_dn(np.array([0.3 + 2j, 0.5]), k)
    assert elliptic._theta_weights.cache_info().misses - weights.misses == 1
    assert elliptic._theta_rows.cache_info().misses - rows.misses == 1
    assert not any(row.flags.writeable for row in elliptic._theta_rows(ModulusData.from_modulus(k).q, 9))


def test_far_off_point_refused_in_constant_time():
    # near k = 1 the nome is about 0.7, so a point with Im z ~ 800 would need
    # thousands of terms: the count refuses it without walking to the peak
    k = 1 - 1e-11
    md = ModulusData.from_modulus(k)
    n = math.ceil(800 / (cmath.pi * (md.Kp / md.K).real))
    u = 0.3 * md.K + 2j * n * md.Kp
    z = cmath.pi * u / (2 * md.K)

    def best(f, *args):
        times = []
        for _ in range(30):
            t0 = time.perf_counter()
            with pytest.raises(NonConvergence):
                f(*args)
            times.append(time.perf_counter() - t0)
        return min(times)

    for got, want in ((best(jacobi_sn_cn_dn, u, k), best(oracle_scalar, z, md.q)),
                      (best(jacobi_sn_cn_dn, np.array([u]), k), best(oracle_array, np.array([z]), md.q))):
        assert got < 20 * max(want, 1e-5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [math.inf, math.nan, complex(math.inf, 0), complex(0.3, -math.inf),
                                 complex(math.nan, 1.0)])
def test_nonfinite_argument_refused(bad):
    # refused by name before v = pi u / (2K), for a scalar and an array alike
    for u in (bad, np.array([0.3, bad]), np.array([[bad]])):
        with pytest.raises(NonConvergence, match=r"^argument u = .* is not finite$"):
            jacobi_sn_cn_dn(u, 0.6)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [math.inf, math.nan, complex(0.3, -math.inf)])
def test_nonfinite_argument_refused_by_the_pole_guards(bad):
    # the lattice distance that jacobi, wp and ode_residual take first refuses it the same way
    ev = evalues_from_modulus(0.6)
    p = ParamTuple(0.1, 0.2, 0.3, 1.5, 5.0, k=0.6)
    for call in (lambda: elliptic.jacobi("sn", bad, 0.6), lambda: wp(bad, ev, 0.6),
                 lambda: ode_residual(np.sin, p, [bad])):
        with pytest.raises(NonConvergence, match=r"^argument u = .* is not finite$"):
            call()
    # the caller's u, not u less the half-period that holds the glyph's poles
    for code in ("sn", "ns", "dc"):
        with pytest.raises(NonConvergence) as info:
            elliptic.jacobi(code, bad, 0.6)
        assert str(info.value) == f"argument u = {complex(bad)} is not finite"
