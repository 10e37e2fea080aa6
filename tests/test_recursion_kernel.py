"""The recursion-table kernel: numpy tables with the bits of the scalar loops.

The oracle below is the list-based implementation that the numpy tables
replaced: Python list comprehensions for M, A, B, K, a forward recursion
with a finiteness test per step, Miller's backward pass and the backward
continued fraction, all over Python scalars.  Every kernel output must
equal it bit for bit.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darboux import series
from darboux.errors import (
    CoefficientOverflow,
    DarbouxError,
    DegenerateRecursion,
    LogarithmicCase,
    ZeroPivot,
)
from darboux.series import (
    VARIANTS,
    ParamTuple,
    _cf_raw,
    _check_log_case,
    dl_coefficients,
    infinite_cf,
    polynomial_eigenvalues,
    recursion_coeffs,
    termination_check,
)

# --------------------------------------------------------------------------
# oracle: the list-based kernel


def oracle_weights(exponents, k, variant, length):
    xi, eta, mu, nu = exponents
    _check_log_case(xi)
    k2 = k * k
    c = (k2 + 1) * (xi + 1) ** 2 if variant == "paper" else 0.0
    a1 = eta + xi + 2
    a2 = mu + xi + 2
    b1 = xi + eta + mu + nu + 2
    b2 = xi + eta + mu - nu + 1
    m2s = range(0, 2 * length, 2)
    M = [(m2 + 2) * (m2 + 2 * xi + 3) for m2 in m2s]
    A = [(m2 + a1) ** 2 for m2 in m2s]
    B = [k2 * (m2 + a2) ** 2 for m2 in m2s]
    K = [k2 * (m2 + b1) * (m2 + b2) for m2 in m2s]
    return M, A, B, K, c


def oracle_forward(p, N, variant):
    values = np.zeros(N + 1, dtype=complex)
    exps = np.zeros(N + 1, dtype=np.int64)
    values[0] = 1.0
    prev, cur, e = 0j, 1.0 + 0j, 0
    M, A, B, K, c = oracle_weights(p.exponents, p.k, variant, N)
    for m in range(N):
        if M[m] == 0:
            raise DegenerateRecursion(f"M_{m} = 0")
        nxt = -((p.h - A[m] - B[m] + c) * cur + K[m] * prev) / M[m]
        prev, cur = cur, nxt
        if not (cmath.isfinite(cur.real) and cmath.isfinite(cur.imag)):
            raise CoefficientOverflow(f"coefficient C_{m + 1} overflowed")
        if abs(cur) > 2.0**512:
            cur = complex(math.ldexp(cur.real, -512), math.ldexp(cur.imag, -512))
            prev = complex(math.ldexp(prev.real, -512), math.ldexp(prev.imag, -512))
            e += 512
        values[m + 1] = cur
        exps[m + 1] = e
    q = termination_check(p)
    if q is None or q >= N:
        return values, exps, None
    head = max(
        (math.log2(abs(values[m])) + exps[m]) if values[m] != 0 else -1e9
        for m in range(q + 1)
    )
    if all(
        values[m] == 0 or (math.log2(abs(values[m])) + exps[m]) < head + math.log2(1e-10)
        for m in range(q + 1, N + 1)
    ):
        values[q + 1:] = 0.0
        exps[q + 1:] = 0
        return values, exps, q
    return values, exps, None


def oracle_minimal(p, N, variant, buffer=60):
    """Miller's backward pass, or the forward pass where some K_m = 0."""
    top = N + buffer
    vals = np.zeros(top + 2, dtype=complex)
    vals[top] = 1.0
    M, A, B, K, c = oracle_weights(p.exponents, p.k, variant, top + 1)
    for m in range(top, 0, -1):
        if K[m] == 0:
            return oracle_forward(p, N, variant)
        vals[m - 1] = -(M[m] * vals[m + 1] + (p.h - A[m] - B[m] + c) * vals[m]) / K[m]
        if abs(vals[m - 1]) > 2.0**512:
            vals *= 2.0**-512
    if vals[0] == 0:
        raise DegenerateRecursion("backward recursion produced C_0 = 0")
    return (vals[: N + 1] / vals[0]).astype(complex), np.zeros(N + 1, dtype=np.int64), None


def oracle_cf(h, p, depth, variant):
    M, A, B, K, c = oracle_weights(p.exponents, p.k, variant, depth + 1)
    tail = 0j
    for j in range(depth, 0, -1):
        denom = (h - A[j] - B[j] + c) / M[j] - tail
        if denom == 0:
            raise ZeroPivot(f"vanishing partial denominator at level {j}")
        tail = (K[j] / M[j]) / denom
    return (h - A[0] - B[0] + c) / M[0] - tail


def oracle_matrix(p, n, variant):
    M, A, B, K, c = oracle_weights(p.exponents, p.k, variant, n)
    J = np.zeros((n, n), dtype=complex)
    np.fill_diagonal(J, [a + b - c for a, b in zip(A, B)])
    np.fill_diagonal(J[:, 1:], [-x for x in M[:-1]])
    np.fill_diagonal(J[1:], [-x for x in K[1:]])
    return J


# --------------------------------------------------------------------------
# bit-for-bit comparison


def outcome(f, *args):
    """The result of f, or the type and message of what it raised."""
    try:
        return f(*args)
    except (DarbouxError, ArithmeticError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


def same_bits(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and a.dtype == b.dtype
                and a.shape == b.shape and a.tobytes() == b.tobytes())
    if isinstance(a, (tuple, list)) and type(a) is type(b):
        return len(a) == len(b) and all(same_bits(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and repr(a) == repr(b)    # repr tells -0.0 from 0.0


def coefficient_outcome(p, N, variant, mode):
    out = outcome(dl_coefficients, p, N, variant, mode)
    return (out.values, out.exps, out.terminated_at) if isinstance(out, series.SeriesCoefficients) else out


part = st.floats(-4.0, 4.0, allow_nan=False)
exponent = st.one_of(part, st.integers(-4, 4), st.sampled_from([-1.5, -2.5]),
                     st.builds(complex, part), st.builds(complex, part, part))
modulus = st.one_of(
    st.floats(0.05, 0.95),
    st.floats(1.05, 3.0),
    st.builds(cmath.rect, st.floats(0.1, 2.5), st.floats(-3.0, 3.0)),
)
accessory = st.one_of(st.floats(-60.0, 60.0), st.builds(complex, st.floats(-60.0, 60.0), st.floats(-60.0, 60.0)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    exps=st.tuples(exponent, exponent, exponent, exponent),
    k=modulus,
    h=accessory,
    variant=st.sampled_from(VARIANTS),
    N=st.sampled_from([0, 1, 9, 200]),
    q=st.one_of(st.none(), st.integers(0, 8)),
)
def test_kernel_matches_list_oracle_bit_for_bit(exps, k, h, variant, N, q):
    if q is not None:   # a terminating tuple: xi + eta + mu + nu = -2q - 4
        exps = (*exps[:3], -(exps[0] + exps[1] + exps[2]) - 2 * q - 4)
    p = ParamTuple(*exps, h=h, k=k)
    # the cache key does not tell 0 from 0.0 or 0j, and the oracle has no cache
    series._weights.cache_clear()
    got = outcome(series._tables, p, variant, 300)
    want = outcome(oracle_weights, p.exponents, p.k, variant, 300)
    if isinstance(got[0], np.ndarray):
        got, want = tuple(t[:300].tolist() for t in got[:4]) + got[4:], tuple(want)
    assert same_bits(got, want)
    assert same_bits(coefficient_outcome(p, N, variant, "forward"), outcome(oracle_forward, p, N, variant))
    assert same_bits(coefficient_outcome(p, N, variant, "minimal"), outcome(oracle_minimal, p, N, variant))
    for depth in (1, 37, 400):
        assert same_bits(outcome(_cf_raw, h, p, depth, variant), outcome(oracle_cf, h, p, depth, variant))
    for m in (0, 5, 300):
        got = outcome(recursion_coeffs, m, p, variant)
        if isinstance(got, series.RecursionCoeffs):
            M, A, B, K, c = oracle_weights(p.exponents, p.k, variant, m + 1)
            got, want = (got.M, got.L, got.K), (M[m], h - A[m] - B[m] + c, K[m])
        else:
            want = outcome(oracle_weights, p.exponents, p.k, variant, 1)
        assert same_bits(got, want)
    qt = termination_check(p)
    if qt is not None and qt <= 12:
        want = outcome(oracle_matrix, p, qt + 1, variant)
        if isinstance(want, np.ndarray):
            want = np.linalg.eigvals(want)
            want = want[np.argsort(want.real + 1e-9 * want.imag)]
        assert same_bits(outcome(polynomial_eigenvalues, p, qt, variant), want)


def test_auto_mode_builds_the_tables_once():
    p = ParamTuple(0.123456789, 0.2, 0.3, 1.5, 5.44, k=0.6)   # a tuple no other test uses
    before = series._weights.cache_info().misses
    dl_coefficients(p, 200)
    assert series._weights.cache_info().misses - before == 1


def test_cached_tables_are_read_only():
    M, A, B, K, _ = series._tables(ParamTuple(0.1, 0.2, 0.3, 1.5, 0.0, k=0.6), "corrected", 10)
    for table in (M, A, B, K):
        with pytest.raises(ValueError):
            table[0] = 1.0


# --------------------------------------------------------------------------
# refusals


@pytest.mark.parametrize("xi", [-1.5, -2.5, -3.5])
@pytest.mark.parametrize("shift", [0.0, 1e-13, -1e-13, 1e-13j])
def test_logarithmic_exponent_refused_before_any_table(xi, shift):
    # M_m = (2m+2)(2m+2 xi+3) vanishes only at xi = -m-3/2
    p = ParamTuple(xi + shift, 0.2, 0.3, 1.5, 5.0, k=0.6)
    with pytest.raises(LogarithmicCase):
        dl_coefficients(p, 200)
    with pytest.raises(LogarithmicCase):
        infinite_cf(5.0, p)
    with pytest.raises(LogarithmicCase):
        recursion_coeffs(0, p)


@pytest.mark.parametrize("h, message", [
    (1e153, None),
    (1e155, "coefficient C_3 overflowed"),
    (1e160, "coefficient C_60 overflowed"),
    (1e160 * (1 + 1j), "coefficient C_55 overflowed"),
])
def test_forward_overflow_names_the_first_nonfinite_coefficient(h, message):
    p = ParamTuple(0.1, 0.2, 0.3, 1.5, h, k=0.6)
    if message is None:
        assert np.isfinite(dl_coefficients(p, 200, mode="forward").values).all()
    else:
        with pytest.raises(CoefficientOverflow, match=f"^{message}$"):
            dl_coefficients(p, 200, mode="forward")


@pytest.mark.parametrize("depth", [1, 5, 40, 400])
@pytest.mark.parametrize("nu", [0.0, 1.3])
def test_vanishing_partial_denominator(depth, nu):
    # xi = eta = mu = 0, k = 1/2: A_j + B_j = 1.25 (2j+2)^2 exactly, so
    # L_depth = 0 and the first partial denominator of the pass vanishes
    p = ParamTuple(0.0, 0.0, 0.0, nu, 0.0, k=0.5)
    with pytest.raises(ZeroPivot, match=f"^vanishing partial denominator at level {depth}$"):
        infinite_cf(1.25 * (2 * depth + 2) ** 2, p, depth=depth)
