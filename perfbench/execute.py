"""Run one op against the public API of ``darboux`` and describe its result.

Every call goes through a module attribute looked up at call time
(``catalog.instantiate``, ``series.dl_eval``, ...), so the wrappers that the
traced mode installs see it.  ``execute`` returns the raw result, or a
``Raised`` for an exception; ``describe`` turns either into a plain record
(floats kept exactly) that repeats byte for byte when the computation does.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

import darboux
from darboux import catalog, elliptic, reductions, series, symmetry, verify, weierstrass

from workloads import Op

_IDS = catalog.enumerate_192()


@dataclass(frozen=True)
class Raised:
    """An op that raised: the exception's type name and whether it is typed."""

    name: str
    message: str
    typed: bool


def _params(exps, h, k) -> symmetry.ParamTuple:
    return symmetry.ParamTuple(*(complex(g) for g in exps), h=complex(h), k=complex(k))


def _catalog(a):
    xi, eta, mu, nu, h, k = a["tuple"]
    p = _params((xi, eta, mu, nu), h, k)
    sid = _IDS[a["id"]]
    fn, _ = catalog.instantiate(sid, p)
    pts = catalog.sample_points(sid, p)
    return verify.ode_residual(fn, p, pts), len(pts)


def _function(a):
    return series.darboux_function_eigenvalues(_params(a["exponents"], 0, a["k"]), a["region"])


def _polynomial(a):
    return series.polynomial_eigenvalues(_params(a["exponents"], 0, a["k"]), a["q"])


def _modulus(a):
    k = a["k"]
    md = elliptic.ModulusData.from_modulus(k)
    triples = [elliptic.jacobi_sn_cn_dn(u, k) for u in a["points"]]
    ev = weierstrass.evalues_from_modulus(k)
    wps = [weierstrass.wp(z, ev, k) for z in a["points"][: a["wp_points"]]]
    coeffs = series.dl_coefficients(_params(a["exponents"], a["h"], k), a["N"], mode="forward")
    return md, triples, ev, wps, coeffs


def _harness(a):
    return verify.identity_harness(k_values=a["k_values"], u_grid=list(a["u_grid"]))


def _adjudicator(a):
    return verify.lvariant_adjudicator(k_values=a["k_values"])


def _glyphs(a):
    k = a["k"]
    p = _params(a["exponents"], a["h"], k)
    rows = []
    for row in symmetry.gii_elements():
        pairs = [f(u, k) for f in symmetry.jacobi_transform_row(row) for u in a["points"]]
        rows.append((row.name, pairs, symmetry.sigma_and_h(row, p)))
    glyphs = [[elliptic.jacobi(code, u, k) for code in elliptic.JACOBI_CODES] for u in a["points"]]
    return rows, glyphs


def _landen(a):
    k, u = a["k"], a["u"]
    return (reductions.landen_potential_identity(u, k),
            reductions.landen_pair(0.0, 1.0, 0.83, k, u))


def _duplication(a):
    k, u = a["k"], a["u"]
    return (reductions.duplication_potential_identity(u, k),
            reductions.duplication_pair(0.31, 1.7, k, u))


_EXECUTORS = {
    "catalog": _catalog,
    "function": _function,
    "window": _function,
    "polynomial": _polynomial,
    "box": _function,
    "modulus": _modulus,
    "harness": _harness,
    "adjudicator": _adjudicator,
    "glyphs": _glyphs,
    "landen": _landen,
    "duplication": _duplication,
}


def execute(op: Op):
    """Run `op`; an exception becomes a ``Raised`` result (the loop goes on)."""
    try:
        return _EXECUTORS[op.kind](op.args)
    except Exception as exc:  # every failure is counted by cause, never dropped
        return Raised(type(exc).__name__, str(exc), isinstance(exc, darboux.errors.DarbouxError))


# ---------------------------------------------------------------------------


def _c(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


def describe(op: Op, result) -> dict:
    """A plain, exactly reproducible record of `result` (no timings)."""
    if isinstance(result, Raised):
        return {"raised": result.name, "message": result.message}
    kind = op.kind
    if kind == "catalog":
        rep, n = result
        return {"residual": rep.max_relative_residual,
                "calibration": rep.calibration_residual, "points": n}
    if kind in ("function", "window", "polynomial", "box"):
        return {"roots": [_c(h) for h in result]}
    if kind == "modulus":
        md, triples, ev, wps, coeffs = result
        return {"K": _c(md.K), "Kp": _c(md.Kp), "q": _c(md.q),
                "sncndn": [[_c(v) for v in t] for t in triples],
                "e": [_c(e) for e in ev.as_tuple()], "wp": [_c(w) for w in wps],
                "coeffs": {"mode": coeffs.mode, "terminated_at": coeffs.terminated_at,
                           "digest": _digest(coeffs.values, coeffs.exps)}}
    if kind == "harness":
        return {"records": [[r.table, r.row, r.fld, r.status, r.max_error] for r in result.records]}
    if kind == "adjudicator":
        verdict, evidence = result
        return {"verdict": verdict, "residuals": [[e.variant, e.residual] for e in evidence]}
    if kind == "glyphs":
        rows, glyphs = result
        return {"rows": [[name, [[_c(l), _c(r)] for l, r in pairs],
                          [_c(g) for g in (*pt.exponents, pt.h, pt.k)]]
                         for name, pairs, pt in rows],
                "glyphs": [[_c(g) for g in per_point] for per_point in glyphs]}
    if kind in ("landen", "duplication"):
        potential, (lhs, rhs) = result
        errs = potential if isinstance(potential, tuple) else (potential,)
        return {"potential": list(errs), "lhs": _c(lhs), "rhs": _c(rhs)}
    raise ValueError(f"unknown op kind {kind!r}")
