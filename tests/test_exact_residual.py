"""The exact catalog residual.

``series.dl_second_derivative`` against ``mpmath.diff`` of the same
truncated series, and its refusals against ``dl_eval``'s;
``catalog.exact_residuals`` against the finite-difference oracle, against
a perturbed accessory map, and its theta-call plan; a non-finite series sum
at a large accessory parameter as a typed refusal.
"""

import dataclasses
import json

import mpmath as mp
import numpy as np
import pytest

from darboux import catalog, reductions, series, verify
from darboux.catalog import (
    RESIDUAL_GATE,
    SolutionId,
    enumerate_192,
    exact_residuals,
    instantiate,
    sample_points,
    transformed_tuple,
)
from darboux.cli import EXIT_DOMAIN, EXIT_OK, main
from darboux.elliptic import jacobi_sn_cn_dn
from darboux.errors import NonConvergence, OutsideConvergence, PoleProximity
from darboux.series import dl_coefficients, dl_eval, dl_second_derivative
from darboux.symmetry import ParamTuple, gii_by_name
from darboux.verify import ode_residual

README = ParamTuple(0, 0, 0, 3, h=5.44, k=0.6)


def P(xi, eta, mu, nu, h, k):
    return ParamTuple(complex(xi), complex(eta), complex(mu), complex(nu), h=complex(h), k=complex(k))


def mp_solution(p, coeffs):
    """w -> Y(w) of the same truncated series in mpmath (30 digits in the
    tests' ``workdps``): C_m =
    values[m] 2^exps[m] exactly, principal-branch powers, mpmath's sn, cn,
    dn at m = k^2."""
    upto = coeffs.terminated_at if coeffs.terminated_at is not None else len(coeffs) - 1
    C = [mp.mpc(complex(v)) * mp.mpf(2) ** int(e) for v, e in zip(coeffs.values[: upto + 1], coeffs.exps)]
    m = mp.mpc(p.k) ** 2
    a, b, c = (mp.mpc(g + 1) for g in p.exponents[:3])

    def Y(w):
        sn, cn, dn = (mp.ellipfun(f, w, m=m) for f in ("sn", "cn", "dn"))
        return sn**a * cn**b * dn**c * mp.polyval(C[::-1], sn * sn)

    return Y


def rel(x, ref):
    return float(abs(x - ref) / abs(ref))


#: (label, tuple): a generic tuple, a complex modulus, |kappa| > 1, the
#: rescaled C0[+++] series at k = 0.02 (kappa = 50, h_C = 13600) and the
#: README tuple, which terminates at q = 0
KERNEL_CASES = [
    ("generic", P(0.3, -0.2, 0.1, 1.3, 2.0, 0.6)),
    ("complex kappa", P(0.3, -0.2, 0.1, 1.3, 2.0 + 0.5j, 0.5 + 0.3j)),
    ("|kappa| > 1", P(1.5, 0.4, -0.3, 0.2, 3.0, 1.7)),
    ("rescaled", transformed_tuple(SolutionId(1, 1, 1, gii_by_name("C0")), P(0, 0, 0, 3, 5.44, 0.02))),
    ("terminated", README),
]


@pytest.mark.parametrize("label, p", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
def test_kernel_matches_mpmath_diff(label, p):
    coeffs = dl_coefficients(p, 200)
    if label == "rescaled":
        assert coeffs.exps.any()
    if label == "terminated":
        assert coeffs.terminated_at == 0
    rng = np.random.default_rng(5)
    radius = min(1.0, 1.0 / abs(p.k))
    w = rng.uniform(0.1, 0.6, 6) * radius * np.exp(1j * rng.uniform(0.1, 1.2, 6))
    y, y2 = dl_second_derivative(p, coeffs, *jacobi_sn_cn_dn(w, p.k))
    assert np.array_equal(y, dl_eval(p, w, coeffs=coeffs))
    Y = mp_solution(p, coeffs)
    with mp.workdps(30):
        for i, x in enumerate(w):
            x = mp.mpc(complex(x))
            assert rel(y[i], Y(x)) < 1e-13, (label, i)
            assert rel(y2[i], mp.diff(Y, x, 2)) < 1e-12, (label, i)


@pytest.mark.parametrize("xi", [0, 1, 3, -1])
def test_kernel_at_the_singular_point(xi):
    """At w = 0 (sn = 0) with an integer exponent the solution is analytic,
    and Y'' is the series' own: C_1 and C_2 enter without a division."""
    p = P(xi, 0.3, -0.2, 1.3, 2.0, 0.6)
    coeffs = dl_coefficients(p, 60)
    y, y2 = dl_second_derivative(p, coeffs, *jacobi_sn_cn_dn(np.zeros(1, complex), p.k))
    with mp.workdps(30):
        ref = mp.diff(mp_solution(p, coeffs), mp.mpc(0), 2)
    assert abs(y2[0] - complex(ref)) <= 1e-13 * max(1.0, float(abs(ref)))
    assert y[0] == dl_eval(p, 0)


def outcome(call):
    try:
        call()
    except (OutsideConvergence, PoleProximity, NonConvergence) as exc:
        return type(exc), getattr(exc, "index", None)
    return None


#: (tuple, points): outside the radius at the second point, a base that
#: vanishes under a negative exponent, a sum that overflows at a large h,
#: and inputs both answer
REFUSAL_CASES = [
    (P(0.3, -0.2, 0.1, 1.3, 2.0, 0.6), [0.3, 1.0 + 0.7j, 0.2]),
    (P(-2, 0, 0, 1, 2.0, 0.6), [0.3, 0.0]),
    (P(0, 0, 0, 1, 1e8, 0.6), [0.1, 0.5, 1.0]),
    (P(0, 0, 0, 1, 1e12, 0.6), [0.5]),
    (P(0, -1, -1, 1, 1.36, 0.6), [0.0, 0.4, 1.2]),
    (P(2, 0.5, 0, 3, 4.0, 0.5 + 0.3j), [0.0, 0.3 + 0.2j]),
]


@pytest.mark.parametrize("p, us", REFUSAL_CASES)
def test_kernel_refuses_what_dl_eval_refuses(p, us):
    us = np.array(us, complex)
    coeffs = dl_coefficients(p, 200)
    want = outcome(lambda: dl_eval(p, us, coeffs=coeffs))
    assert outcome(lambda: dl_second_derivative(p, coeffs, *jacobi_sn_cn_dn(us, p.k))) == want


def test_unbounded_second_derivative_at_a_vanishing_base_is_refused():
    """The one input dl_eval answers and the kernel refuses: sn = 0 under
    0 < Re(xi + 1) < 2, xi != 0, where Y = 0 but Y'' is unbounded."""
    p = P(-0.5, 0, 0, 1, 2.0, 0.6)
    assert dl_eval(p, 0) == 0
    with pytest.raises(PoleProximity):
        dl_second_derivative(p, dl_coefficients(p, 60), *jacobi_sn_cn_dn(np.zeros(1, complex), p.k))


# --------------------------------------------------------------------------
# a non-finite sum at a large accessory parameter


@pytest.mark.parametrize("h", [1e8, 1e12])
def test_large_h_sum_is_a_typed_refusal(h):
    # runs under the suite's error::RuntimeWarning filter: the block sum
    # must not warn before the refusal
    with pytest.raises(NonConvergence, match="not finite"):
        dl_eval(P(0, 0, 0, 1, h, 0.6), np.linspace(0.1, 1.0, 9))


@pytest.mark.parametrize("argv", [
    ["eval", "--k", "0.6", "--nu", "1", "--h", "1e8"],
    ["eval", "--k", "0.6", "--nu", "1", "--h", "1e12"],
    ["catalog", "verify", "--all", "--k", "0.6", "--nu", "3", "--h", "1e12"],
])
def test_large_h_cli_exits_2(argv, capsys):
    assert main(argv) == EXIT_DOMAIN
    assert "series sum is not finite" in capsys.readouterr().err


# --------------------------------------------------------------------------
# the batch


@pytest.mark.parametrize("k", [0.6, 1.7, 0.5 + 0.3j, -0.6, 0.02, 0.9999])
def test_every_id_below_the_gate_and_the_fd_oracle_agrees(k):
    p = dataclasses.replace(README, k=complex(k))
    ids = enumerate_192()
    for sid, (residual, points) in zip(ids, exact_residuals(ids, p)):
        assert residual <= RESIDUAL_GATE, (sid.label, residual)
        fn, _ = instantiate(sid, p)
        pts = sample_points(sid, p)
        assert points == len(pts) == 5, sid.label
        assert ode_residual(fn, p, pts).max_relative_residual <= 1e-6, sid.label


def test_a_perturbed_accessory_map_fails_every_id(monkeypatch):
    """h_X off by 1e-7 relative, what a wrong accessory map does: the exact
    gate fails every id, where the FD oracle's 1e-6 passes every one."""
    exact = catalog.sigma_and_h
    monkeypatch.setattr(catalog, "sigma_and_h",
                        lambda row, q: dataclasses.replace(exact(row, q), h=exact(row, q).h * (1 + 1e-7)))
    ids = enumerate_192()
    assert all(r > RESIDUAL_GATE for r, _ in exact_residuals(ids, README))
    for sid in ids:
        fn, _ = instantiate(sid, README)
        assert ode_residual(fn, README, sample_points(sid, README)).max_relative_residual <= 1e-6


def test_catalog_verify_makes_one_theta_plan(monkeypatch, capsys):
    """One walk and one (sn, cn, dn) call per anharmonic type, and one
    potential call for every id's points: 6 + 6 + 1 calls."""
    calls = []

    def spy(u, k):
        calls.append(np.size(u))
        return jacobi_sn_cn_dn(u, k)

    for module in (catalog, series, verify, reductions):
        monkeypatch.setattr(module, "jacobi_sn_cn_dn", spy)
    assert main(["catalog", "verify", "--all", "--k", "0.6", "--nu", "3", "--h", "5.44"]) == EXIT_OK
    assert len(calls) == 13 and calls[-1] == 192 * 5
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 192 and all(set(json.loads(line)) == {"id", "residual", "points"} for line in out)
