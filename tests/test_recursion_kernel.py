"""The recursion-table kernel: the truncation matrix's three diagonals, and
the loops that read them.

The oracle below is the list-based implementation of the kernel: Python
list comprehensions for M, A, B, K and the paper constant c, a forward
recursion with a finiteness test per step, and the backward continued
fraction with the product of its tails for the minimal solution, all over
Python scalars.  The kernel's tables M, D = A + B - c, K are built in numpy
arithmetic, which may round a complex product differently: they must equal
the oracle's to a few ulps.  Fed the kernel's own tables, the oracle's loops
must give the kernel's outputs bit for bit.
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
    NonFiniteExponent,
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
    M, D, K = series._tables(p, variant, N)
    for m in range(N):
        if M[m] == 0:
            raise DegenerateRecursion(f"M_{m} = 0")
        nxt = -((p.h - D[m]) * cur + K[m] * prev) / M[m]
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


def oracle_cf_tails(h, p, depth, variant):
    """The backward continued fraction and its tails t_1..t_depth (tails[j] = t_j)."""
    M, D, K = series._tables(p, variant, depth + 1)
    tails = [0j] * (depth + 1)
    tail = 0j
    for j in range(depth, 0, -1):
        denom = (h - D[j]) / M[j] - tail
        if denom == 0:
            raise ZeroPivot(f"vanishing partial denominator at level {j}")
        tail = (K[j] / M[j]) / denom
        tails[j] = tail
    return (h - D[0]) / M[0] - tail, tails


def oracle_cf(h, p, depth, variant):
    return oracle_cf_tails(h, p, depth, variant)[0]


def oracle_minimal(p, N, variant):
    """C_0 = 1, C_m = -t_m C_{m-1} from the tails at max(2N, 200), or the
    forward pass for a terminating tuple."""
    if termination_check(p) is not None:
        return oracle_forward(p, N, variant)
    _, tails = oracle_cf_tails(p.h, p, max(2 * N, 200), variant)
    values = [1.0 + 0j]
    for m in range(1, N + 1):
        values.append(-tails[m] * values[m - 1])
        if not (cmath.isfinite(values[m].real) and cmath.isfinite(values[m].imag)):
            raise CoefficientOverflow(f"coefficient C_{m} overflowed")
    return np.array(values, dtype=complex), np.zeros(N + 1, dtype=np.int64), None


def oracle_matrix(p, n, variant):
    M, D, K = series._tables(p, variant, n)
    J = np.zeros((n, n), dtype=complex)
    np.fill_diagonal(J, D[:n])
    np.fill_diagonal(J[:, 1:], [-x for x in M[: n - 1]])
    np.fill_diagonal(J[1:], [-x for x in K[1:n]])
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


#: A table entry may differ from the oracle's by this many units of 2^-52
#: times the magnitudes it is built from: |M|, |K|, and |A| + |B| + |c| for D.
TABLE_ULPS = 4


@settings(max_examples=150, deadline=None, derandomize=True)
@given(exps=st.tuples(exponent, exponent, exponent, exponent), k=modulus, variant=st.sampled_from(VARIANTS))
def test_tables_match_the_list_oracle_within_ulps(exps, k, variant):
    p = ParamTuple(*exps, h=0.0, k=k)
    got = outcome(series._tables, p, variant, 300)
    want = outcome(oracle_weights, p.exponents, p.k, variant, 300)
    if isinstance(got[0], str) or isinstance(want[0], str):   # refused, the same way
        assert got == want
        return
    M, A, B, K, c = want
    bound = TABLE_ULPS * 2.0**-52
    for m in range(300):
        for table, exact, scale in ((got[0], M[m], abs(M[m])),
                                    (got[1], A[m] + B[m] - c, abs(A[m]) + abs(B[m]) + abs(c)),
                                    (got[2], K[m], abs(K[m]))):
            assert type(table[m]) is type(exact)
            assert abs(table[m] - exact) <= bound * scale, (m, table[m], exact)


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
    assert same_bits(coefficient_outcome(p, N, variant, "forward"), outcome(oracle_forward, p, N, variant))
    assert same_bits(coefficient_outcome(p, N, variant, "minimal"), outcome(oracle_minimal, p, N, variant))
    for depth in (1, 37, 400):
        assert same_bits(outcome(_cf_raw, h, p, depth, variant), outcome(oracle_cf, h, p, depth, variant))
    for m in (0, 5, 300):
        got = outcome(recursion_coeffs, m, p, variant)
        want = outcome(series._tables, p, variant, m + 1)
        if isinstance(got, series.RecursionCoeffs):
            M, D, K = want
            got, want = (got.M, got.L, got.K), (M[m], h - D[m], K[m])
        assert same_bits(got, want)
    qt = termination_check(p)
    if qt is not None and qt <= 12:
        want = outcome(oracle_matrix, p, qt + 1, variant)
        if isinstance(want, np.ndarray):
            want = series._tridiagonal_eigvals(want)
            want = want[np.argsort(want.real + 1e-9 * want.imag)]
        assert same_bits(outcome(polynomial_eigenvalues, p, qt, variant), want)


def test_auto_mode_builds_the_tables_once():
    p = ParamTuple(0.123456789, 0.2, 0.3, 1.5, 5.44, k=0.6)   # a tuple no other test uses
    before = series._weights.cache_info().misses
    dl_coefficients(p, 200)
    assert series._weights.cache_info().misses - before == 1


@pytest.mark.parametrize("order", [(0, 0.0), (0.0, 0)])
def test_cached_tables_keep_the_parameter_types(order):
    # 0 and 0.0 are equal and hash alike; a build must not depend on which came first
    series._weights.cache_clear()
    for zero in order:
        p = ParamTuple(zero, zero, zero, zero, zero, k=0.05)
        assert type(recursion_coeffs(0, p).M) is type(zero)
        assert {type(x) for x in series._tables(p, "corrected", 10)[0]} == {type(zero)}


def test_cached_tables_are_read_only():
    tables = series._tables(ParamTuple(0.1, 0.2, 0.3, 1.5, 0.0, k=0.6), "corrected", 10)
    assert len(tables) == 3
    for table in tables:
        with pytest.raises(TypeError):
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


@pytest.mark.parametrize("mode", ["auto", "forward", "minimal"])
def test_negative_term_count_refused(mode):
    # as recursion_coeffs refuses m < 0: never one coefficient or numpy's own error
    p = ParamTuple(0.1, 0.2, 0.3, 1.5, 5.0, k=0.6)
    with pytest.raises(ValueError, match="^N must be >= 0$"):
        dl_coefficients(p, -3, mode=mode)
    with pytest.raises(ValueError, match="^N must be >= 0$"):
        series.dl_eval(p, 0.3, N=-3, mode=mode)


@pytest.mark.parametrize("depth", [1, 5, 40, 400])
@pytest.mark.parametrize("nu", [0.0, 1.3])
def test_vanishing_partial_denominator(depth, nu):
    # xi = eta = mu = 0, k = 1/2: A_j + B_j = 1.25 (2j+2)^2 exactly, so
    # L_depth = 0 and the first partial denominator of the pass vanishes
    p = ParamTuple(0.0, 0.0, 0.0, nu, 0.0, k=0.5)
    with pytest.raises(ZeroPivot, match=f"^vanishing partial denominator at level {depth}$"):
        infinite_cf(1.25 * (2 * depth + 2) ** 2, p, depth=depth)


@pytest.mark.parametrize("exps", [
    (math.inf, 0.2, 0.3, 1.5),
    (math.nan, 0.2, 0.3, 1.5),
    (complex(math.inf, 0.0), 0.2, 0.3, 1.5),
    (0.1, 0.2, complex(0.3, math.nan), 1.5),
    (0.1, 0.2, 0.3, -math.inf),
])
def test_nonfinite_exponent_refused_before_any_table(exps):
    p = ParamTuple(*exps, 5.0, k=0.6)
    with pytest.raises(NonFiniteExponent):
        dl_coefficients(p, 200)
    with pytest.raises(NonFiniteExponent):
        infinite_cf(5.0, p)
    with pytest.raises(NonFiniteExponent):
        recursion_coeffs(0, p)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("h, c1", [
    (1e153, None),
    (1e160, -4.6e-160),
    (1e160 * (1 + 1j), -2.3e-160 + 2.3e-160j),
], ids=["1e153", "1e160", "1e160(1+1j)"])
def test_minimal_mode_at_huge_h_is_finite(h, c1):
    # the tails are about K_m / h: their products decay, the later ones to
    # an exact zero, never to a silent NaN or a numpy warning
    p = ParamTuple(0.1, 0.2, 0.3, 1.5, h, k=0.6)
    values = dl_coefficients(p, 200, mode="minimal").values
    assert np.isfinite(values).all()
    if c1 is not None:
        assert values[1] == pytest.approx(c1, rel=0.05)
        assert not values[3:].any()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("h", [math.inf, math.nan, complex(0, math.inf)])
def test_nonfinite_accessory_parameter_refused(h):
    p = ParamTuple(0.1, 0.2, 0.3, 1.5, h, k=0.6)
    with pytest.raises(NonFiniteExponent, match="accessory parameter h"):
        infinite_cf(h, p)
    for mode in ("auto", "forward", "minimal"):
        with pytest.raises(NonFiniteExponent, match="accessory parameter h"):
            dl_coefficients(p, 200, mode=mode)
    with pytest.raises(NonFiniteExponent, match="accessory parameter h"):
        series.dl_eval(p, 0.3)


@pytest.mark.parametrize("exps, k, variant", [
    *(((1e200, 0.2, 0.3, 1.5), 0.6, v) for v in VARIANTS),
    ((1e200, -1e200, -1e200, 1e200), 0.6, "paper"),   # finite tables, an overflowing paper constant
    *(((10**200, 0, 0, 0), 0.6, v) for v in VARIANTS),  # an int beyond the float range
    ((0.1, 0.2, 0.3, 1.5), 1e200, "corrected"),
    ((0.1, 0.2, 0.3, 1.5), 1e200j, "paper"),
])
def test_overflowing_tables_are_refused(exps, k, variant):
    # never a silent NaN fraction, a numpy LinAlgError or a RuntimeWarning
    p = ParamTuple(*exps, 5.0, k=k)
    with pytest.raises(CoefficientOverflow, match="^recursion tables overflow"):
        infinite_cf(5.0, p, variant=variant)
    with pytest.raises(CoefficientOverflow):
        series.darboux_function_eigenvalues(p, (0, 12), variant=variant)
    with pytest.raises(CoefficientOverflow):
        dl_coefficients(p, 200, variant=variant)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("exps, k", [
    ((4 * 10**18, 0, 0, 0), 0.6),   # M_3 = 8 (8e18 + 9) passes 2^63
    ((1, 0, 2, 3), 2**31),          # k^2 = 2^62 times (2m + b1)(2m + b2)
])
def test_int_tables_that_could_pass_int64_are_built_in_float(exps, k, variant):
    # an int64 table would wrap silently (M_3 read 8659767778871345224, g(5) = 78)
    p = ParamTuple(*exps, 5.0, k=k)
    flt = ParamTuple(*map(float, exps), 5.0, k=float(k))
    assert recursion_coeffs(3, p, variant) == recursion_coeffs(3, flt, variant)
    assert type(recursion_coeffs(3, p, variant).M) is float
    assert infinite_cf(5.0, p, variant=variant) == infinite_cf(5.0, flt, variant=variant)
