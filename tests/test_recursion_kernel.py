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
    _cf_pass,
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
    M, D, K = series._weights(p, variant, N)
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
    M, D, K = series._weights(p, variant, depth + 1)
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
    M, D, K = series._weights(p, variant, n)
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


def kernel_cf(h, p, depth, variant):
    return _cf_pass(h, series._weights(p, variant, depth + 1), depth)[0]


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
    got = outcome(series._weights, p, variant, 300)
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
        assert same_bits(outcome(kernel_cf, h, p, depth, variant), outcome(oracle_cf, h, p, depth, variant))
    for m in (0, 5, 300):
        got = outcome(recursion_coeffs, m, p, variant)
        want = outcome(series._weights, p, variant, m + 1)
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


#: The adaptive fraction agrees with the depth-400 pass to this many units of
#: 2^-52 (|l_0| + |t_1|).  Both carry rounding that the fraction's
#: conditioning amplifies: on 20,000 random tuples of this domain the worst
#: was 26 units (median 0), and there the depth-400 value was the one
#: farther from the exact fraction (31 units against 5).
CF_AGREEMENT = 32


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    exps=st.tuples(exponent, exponent, exponent, exponent),
    k=modulus,
    h=accessory,
    variant=st.sampled_from(VARIANTS),
    q=st.one_of(st.none(), st.integers(0, 8)),
)
def test_adaptive_fraction_matches_the_depth_400_pass(exps, k, h, variant, q):
    if q is not None:
        exps = (*exps[:3], -(exps[0] + exps[1] + exps[2]) - 2 * q - 4)
    p = ParamTuple(*exps, h=h, k=k)
    try:
        tables = series._weights(p, variant, 401)
        full = _cf_pass(h, tables, 400)[0]
    except DarbouxError:    # refused tables, or a vanishing denominator at a fixed level
        return
    g, slope, bound, n = series._cf_value(h, tables, 400)
    M, D, _ = tables
    ell0 = (h - D[0]) / M[0]
    scale = 2.0**-52 * (abs(ell0) + abs(ell0 - full))
    assert abs(g - full) <= CF_AGREEMENT * scale
    assert (g, slope) == _cf_pass(h, tables, n)[:2]
    assert n == 400 or bound <= 2.0**-52 * (abs(ell0) + abs(ell0 - g))


@pytest.mark.parametrize("k", [0.05, 0.6, 0.9, 0.97, 0.999, 1.1, 3.0, 0.5 + 0.8j])
@pytest.mark.parametrize("cap", [1, 9, 37, 100, 400, 800])
def test_adaptive_fraction_runs_at_most_one_and_a_half_caps(monkeypatch, k, cap):
    levels, run = [], series._cf_pass
    monkeypatch.setattr(series, "_cf_pass", lambda h, tables, n, **kw: levels.append(n) or run(h, tables, n, **kw))
    p = ParamTuple(0.1, 0.2, 0.3, 1.5, 0.0, k=k)
    tables = series._weights(p, "corrected", cap + 1)
    for h in (-7.0, 0.5, 5.44, 30.0 + 2j):
        levels.clear()
        g, _, _, n = series._cf_value(h, tables, cap)
        assert sum(levels) <= 1.5 * cap and levels[-1] == n <= cap
        assert g == _cf_pass(h, tables, n)[0]


@pytest.fixture
def builds(monkeypatch):
    """The sizes of the tables that ``_weights`` builds."""
    sizes, build = [], series._weights
    monkeypatch.setattr(series, "_weights", lambda p, variant, n: sizes.append(n) or build(p, variant, n))
    return sizes


def test_auto_mode_builds_the_tables_once(builds):
    # one build serves the depth-400 fraction and the forward pass it falls back to
    coeffs = dl_coefficients(ParamTuple(0.1, 0.2, 0.3, 1.5, 5.44, k=0.6), 200)
    assert coeffs.mode == "forward" and builds == [401]


LAME = ParamTuple(0, 0, 0, 1, 0.0, k=0.6)
LAME_ROOT = ParamTuple(0, 0, 0, 1, 3.6066522808608408, k=0.6)   # the Lame root on (0, 12)
TERMINATING = ParamTuple(0, 0, 0, 7, 0.0, k=0.6)                 # q = 2


@pytest.mark.parametrize("call, size", [
    (lambda: dl_coefficients(LAME_ROOT, 200, mode="forward"), 200),
    (lambda: dl_coefficients(LAME_ROOT, 200, mode="auto"), 401),
    (lambda: dl_coefficients(LAME_ROOT, 200, mode="minimal"), 401),
    (lambda: dl_coefficients(LAME_ROOT, 30, mode="auto"), 201),
    (lambda: dl_coefficients(TERMINATING, 200, mode="minimal"), 200),
    (lambda: series.darboux_function_eigenvalues(LAME, (0.0, 12.0), depth=400), 801),
    (lambda: infinite_cf(5.0, LAME, depth=300), 302),   # entry 301 bounds a pass at the cap
    (lambda: polynomial_eigenvalues(TERMINATING, 2), 3),
    (lambda: recursion_coeffs(7, LAME), 8),
    (lambda: series.convergence_domain(LAME, 5.0, depth=400), 401),
], ids=["forward", "auto", "minimal", "auto-N30", "terminating", "function-eigenvalues",
        "infinite-cf", "polynomial-eigenvalues", "recursion-coeffs", "convergence-domain"])
def test_one_table_per_call_sized_to_what_it_reads(builds, call, size):
    call()
    assert builds == [size]


def test_evaluation_with_coefficients_builds_no_table(builds):
    coeffs = dl_coefficients(LAME_ROOT, 200)
    builds.clear()
    series.dl_eval(LAME_ROOT, np.array([0.3, 2.5 + 1j]), coeffs=coeffs)
    assert builds == []


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("h", [-1e8 + 1e8j, 1e12])
@pytest.mark.parametrize("k", [3.0, 3j, 2.5 + 1j])
def test_forward_pass_through_several_rescales(k, h, variant):
    # |C_m| grows like |k^2|^m from a large |h|: past 2^512 four or nine times
    p = ParamTuple(0.1, 0.2, 0.3, 1.5, h, k=k)
    got = coefficient_outcome(p, 200, variant, "forward")
    assert len(np.unique(got[1])) >= 5
    assert same_bits(got, outcome(oracle_forward, p, 200, variant))


@pytest.mark.parametrize("mode", ["forward", "auto"])
@pytest.mark.parametrize("exps, h, k", [((0.1, 0.2, 0.3, 1.5), 5.44, 0.6), ((0.17, 0.69, -0.05, 0.77), 9.18, 0.91),
                                        ((0.82, -0.33, 0.66, 1.34), 6.67, 0.9999999972),
                                        ((0.5, 0, 1, 2.2), 3.0, 1.7)])
def test_real_modulus_with_complex_parameters_keeps_signed_zeros(exps, h, k, mode):
    # every coefficient is real, and the sign of its zero imaginary part is
    # decided by the order of the step's operations (the first three tuples
    # see a step written x / (-M) flip some of them)
    p = ParamTuple(*map(complex, exps), complex(h), k=complex(k))
    got = coefficient_outcome(p, 200, "corrected", mode)
    assert not got[0].imag.any() and np.signbit(got[0].imag).any() and not np.signbit(got[0].imag).all()
    assert same_bits(got, outcome(oracle_forward, p, 200, "corrected"))


@pytest.mark.parametrize("mode", ["auto", "forward", "minimal"])
@pytest.mark.parametrize("p", [LAME_ROOT, TERMINATING, ParamTuple(0.1, 0.2, 0.3, 1.5, 5.44, k=0.6)],
                         ids=["root", "terminating", "generic"])
def test_one_termination_check_per_coefficient_call(monkeypatch, p, mode):
    calls, check = [], series.termination_check
    monkeypatch.setattr(series, "termination_check", lambda p: calls.append(p) or check(p))
    dl_coefficients(p, 200, mode=mode)
    assert calls == [p]


@pytest.mark.parametrize("zero", [0, 0.0])
def test_tables_keep_the_parameter_types(zero):
    p = ParamTuple(zero, zero, zero, zero, zero, k=0.05)
    assert type(recursion_coeffs(0, p).M) is type(zero)
    assert {type(x) for x in series._weights(p, "corrected", 10)[0]} == {type(zero)}


@pytest.mark.parametrize("exps, k", [((0.1, 0.2, 0.3, 1.5), 0.6), ((0.4, -0.3, 1.1, 2.7j), 0.5 + 0.8j),
                                     ((1, 0, 2, 3), 1.7), ((0, 0, 0, 1), 0.6)])
@pytest.mark.parametrize("variant", VARIANTS)
def test_an_entry_does_not_depend_on_the_table_length(exps, k, variant):
    p = ParamTuple(*exps, 0.0, k=k)
    full = series._weights(p, variant, 1024)
    for n in (0, 1, 7, 33, 200, 401, 801):
        assert same_bits(series._weights(p, variant, n), tuple(t[:n] for t in full))


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
    # L_depth = 0 and the first partial denominator of the fixed-depth pass
    # vanishes (the adaptive fraction may stop before level `depth`)
    p = ParamTuple(0.0, 0.0, 0.0, nu, 0.0, k=0.5)
    tables = series._weights(p, "corrected", depth + 1)
    for tails in (False, True):
        with pytest.raises(ZeroPivot, match=f"^vanishing partial denominator at level {depth}$"):
            _cf_pass(1.25 * (2 * depth + 2) ** 2, tables, depth, tails=tails)


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
