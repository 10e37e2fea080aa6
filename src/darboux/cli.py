"""Batch-mode command line: evaluate solutions, find eigenvalues, list and
verify the catalog, run identity suites, emit machine-readable records.

Output is line-delimited JSON (one record per result; CSV is a projection
of the same fields) so reports diff cleanly in version control.  Identical
configuration and seed produce byte-identical output.  Exit codes:
0 ok, 2 domain/input error, 3 mode mismatch, 4 verification failure,
141 (128 + SIGPIPE) when the reader closes stdout early, with nothing on
stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .elliptic import lambda_of_tau
from .errors import DarbouxError, OutsideConvergence
from .series import (
    darboux_function_eigenvalues,
    dl_coefficients,
    dl_eval,
    polynomial_eigenvalues,
    termination_check,
)
from .symmetry import ANH_TAGS, ParamTuple, anh_element, gii_by_name, scalar_repr, sigma_and_h

# catalog, reductions, verify and weierstrass are imported by the commands that
# call them, so that eval, eigen, transform and lambda never compile them

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_MODE = 3
EXIT_VERIFY = 4
EXIT_PIPE = 141


@dataclass
class RunConfig:
    truncation: int = 200
    cf_depth: int = 400
    tolerance: float = 1e-10
    guard: float = 0.05
    seed: int = 0
    fmt: str = "json-lines"

    def validate(self) -> None:
        if self.truncation < 8:
            raise ValueError("truncation must be >= 8")
        if self.cf_depth < 1:
            raise ValueError("cf depth must be >= 1")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be > 0")
        if self.guard <= 0:
            raise ValueError("pole guard must be > 0")


#: tuning flag -> RunConfig field (whose default gives the flag's default and
#: type); each command takes only the flags it reads
_TUNING = {"trunc": "truncation", "depth": "cf_depth", "tol": "tolerance", "guard": "guard",
           "seed": "seed"}


class _Emitter:
    """One record per line: JSON, or a CSV row under a header line that is
    written again whenever a record's keys differ from the last header's."""

    def __init__(self, cfg: RunConfig, stream=None):
        self.cfg = cfg
        self.stream = stream or sys.stdout
        self._csv = csv.writer(self.stream, lineterminator="\n")
        self._header = None

    def emit(self, record: dict) -> None:
        if self.cfg.fmt == "csv":
            if list(record) != self._header:
                self._header = list(record)
                self._csv.writerow(self._header)
            self._csv.writerow(record.values())
        else:
            self.stream.write(json.dumps(record, sort_keys=True) + "\n")


def _parse_number(text: str):
    """Exact rational when possible (integers survive termination checks
    exactly), complex otherwise; a zero denominator or a rational beyond
    the float range is an input error."""
    try:
        value = Fraction(text)
    except ValueError:
        return complex(text.replace(" ", ""))
    except ZeroDivisionError:
        raise ValueError(f"{text!r} has a zero denominator") from None
    if abs(value) > Fraction(sys.float_info.max):
        raise ValueError(f"{text!r} is beyond the float range")
    return value


def _to_complex(v) -> complex:
    return complex(float(v), 0.0) if isinstance(v, Fraction) else complex(v)


def _cstr(z: complex) -> str:
    z = complex(z)
    return f"{z.real:.15g}{z.imag:+.15g}j"


def _param_tuple(args, need_h: bool = True) -> ParamTuple:
    vals = [_parse_number(getattr(args, name)) for name in ("xi", "eta", "mu", "nu")]
    h = _parse_number(args.h) if need_h and args.h is not None else 0
    return ParamTuple(*[_to_complex(v) for v in vals], h=_to_complex(h), k=complex(args.k))


def _add_param_flags(sp, need_h: bool = True):
    sp.add_argument("--k", type=str, required=True, help="modulus (complex accepted)")
    sp.add_argument("--xi", type=str, default="0")
    sp.add_argument("--eta", type=str, default="0")
    sp.add_argument("--mu", type=str, default="0")
    sp.add_argument("--nu", type=str, default="0")
    if need_h:
        sp.add_argument("--h", type=str, default=None, help="accessory parameter")


def _add_common(sp, *tuning):
    """--format, plus the named tuning flags of ``_TUNING``."""
    sp.add_argument("--format", dest="fmt", choices=("json-lines", "csv"), default="json-lines")
    for flag in tuning:
        default = getattr(RunConfig, _TUNING[flag])
        sp.add_argument("--" + flag, dest=_TUNING[flag], type=type(default), default=default)


def _config(args) -> RunConfig:
    cfg = RunConfig(**{f.name: getattr(args, f.name)
                       for f in fields(RunConfig) if hasattr(args, f.name)})
    cfg.validate()
    return cfg


def cmd_eval(args, cfg: RunConfig, out: _Emitter) -> int:
    p = _param_tuple(args)
    if args.points:
        us = np.array([complex(t) for t in args.points])
    else:
        lo, hi, n = args.u_range
        if int(n) < 1:
            raise ValueError(f"--u-range needs N >= 1 points, got {n}")
        us = np.linspace(float(lo), float(hi), int(n)).astype(complex)
    coeffs = dl_coefficients(p, cfg.truncation)
    try:
        res = dl_eval(p, us, coeffs=coeffs, detail=True)
    except OutsideConvergence as exc:
        # domain violation: a single diagnostic record naming the first
        # offending point, no partial output
        out.emit({"u": _cstr(us[exc.index]), "error": str(exc)})
        return EXIT_DOMAIN
    for u, value, tail in zip(us, res.value, res.tail_bound):
        out.emit({"u": _cstr(u), "re": value.real, "im": value.imag, "tail_bound": tail})
    return EXIT_OK


def cmd_eigen(args, cfg: RunConfig, out: _Emitter) -> int:
    p = _param_tuple(args, need_h=False)
    if args.mode == "polynomial":
        q = termination_check(p)
        if q is None:
            print("polynomial mode requires a terminating parameter tuple", file=sys.stderr)
            return EXIT_MODE
        for h in polynomial_eigenvalues(p, q):
            out.emit({"h": _cstr(h), "mode": "polynomial", "q": q, "stable": True})
        return EXIT_OK
    if not args.region:
        print("function mode requires --region", file=sys.stderr)
        return EXIT_MODE
    region = tuple(float(x) for x in args.region)
    roots = darboux_function_eigenvalues(p, region, depth=cfg.cf_depth, tol=cfg.tolerance)
    for h in roots:
        out.emit({"h": _cstr(h), "mode": "function", "depth": cfg.cf_depth, "stable": True})
    return EXIT_OK


def cmd_catalog(args, cfg: RunConfig, out: _Emitter) -> int:
    from . import catalog as cat

    ids = cat.enumerate_192()
    if args.action == "list":
        for sid in ids:
            grp = cat.classify(sid)
            out.emit({
                "id": sid.label, "row": sid.row.name,
                "signs": "".join("+" if s > 0 else "-" for s in (sid.s_xi, sid.s_eta, sid.s_mu)),
                "singular_point": grp.singular_point,
                "branch": grp.exponent_branch,
            })
        return EXIT_OK
    # verify: exact residuals of the sampled ids' solutions against the original equation
    p = _param_tuple(args)
    rng = np.random.default_rng(cfg.seed)
    if args.all:
        sample = ids
    else:
        sample = []
        for row_idx in range(24):
            sid = ids[8 * row_idx + int(rng.integers(0, 8))]
            sample.append(sid)
    residuals = cat.exact_residuals(sample, p, N=cfg.truncation, guard=cfg.guard)
    for sid, (residual, points) in zip(sample, residuals):
        out.emit({"id": sid.label, "residual": residual, "points": points})
    worst = max(r for r, _ in residuals)
    return EXIT_OK if worst <= cat.RESIDUAL_GATE else EXIT_VERIFY


def cmd_transform(args, cfg: RunConfig, out: _Emitter) -> int:
    p = _param_tuple(args)
    row = gii_by_name(args.row)
    pt = sigma_and_h(row, p)
    a, b = row.substitution_parts(p.k)
    anh = anh_element(row.anh)
    out.emit({
        "row": row.name,
        "xi": _cstr(pt.xi), "eta": _cstr(pt.eta), "mu": _cstr(pt.mu), "nu": _cstr(pt.nu),
        "h": _cstr(pt.h), "kappa": _cstr(pt.k),
        "kappa_symbolic": scalar_repr(anh.kappa),
        "scale": _cstr(a), "offset": _cstr(b),
        "sigma": "".join(str(j) for j in row.perm),
    })
    return EXIT_OK


def cmd_identities(args, cfg: RunConfig, out: _Emitter) -> int:
    from . import reductions, verify

    failed = False
    if args.tables:
        report = verify.identity_harness(tol=cfg.tolerance)
        for rec in report.records:
            if rec.status != "ok" or args.verbose:
                out.emit({
                    "table": rec.table, "row": rec.row, "field": rec.fld,
                    "status": rec.status, "max_error": rec.max_error,
                    "printed": rec.printed, "adopted": rec.adopted, "note": rec.note,
                })
        failed = failed or not report.passed()
    k = complex(args.k) if args.k else 0.6
    # identity, its potential check, its series pair and the pair's leading
    # arguments; the i-th identity draws its points from seed + i
    suites = (
        ("landen", reductions.landen_potential_identity, reductions.landen_pair, (0.0, 1.0, 0.83)),
        ("duplication", reductions.duplication_potential_identity, reductions.duplication_pair,
         (0.31, 1.7)),
    )
    for offset, (name, potential, pair, lead) in enumerate(suites):
        if not getattr(args, name):
            continue
        rng = np.random.default_rng(cfg.seed + offset)
        for _ in range(args.samples):
            u = 0.08 + 0.2 * rng.random() + 0.1j * rng.random()
            e = potential(u, k)
            e = max(e) if isinstance(e, tuple) else e   # landen checks two potentials
            lhs, rhs = pair(*lead, k, u, N=cfg.truncation)
            err = abs(lhs / rhs - 1)
            out.emit({"identity": name, "u": _cstr(u), "potential_err": e, "dl_relative_err": err})
            failed = failed or e > 1e-12 or err > 1e-8
    return EXIT_VERIFY if failed else EXIT_OK


def cmd_lambda(args, cfg: RunConfig, out: _Emitter) -> int:
    for t in args.tau:
        lam = lambda_of_tau(complex(t))
        out.emit({"tau": t, "lambda_re": lam.real, "lambda_im": lam.imag})
    return EXIT_OK


def cmd_weierstrass(args, cfg: RunConfig, out: _Emitter) -> int:
    from . import verify, weierstrass

    if args.subaction == "evalues":
        ev = weierstrass.evalues_from_modulus(complex(args.k), scale=complex(args.scale))
        out.emit({"e1": _cstr(ev.e1), "e2": _cstr(ev.e2), "e3": _cstr(ev.e3),
                  "g2": _cstr(ev.g2), "g3": _cstr(ev.g3)})
        return EXIT_OK
    # covariance: weight-2 transformation of the lattice e-values
    _, records = verify.adjudicate_lambda_pairings(tol=cfg.tolerance)
    bad = False
    for rec in records:
        out.emit({"row": rec.row, "field": rec.fld, "status": rec.status,
                  "max_error": rec.max_error, "adopted": rec.adopted})
        bad = bad or rec.status == "failed"
    return EXIT_VERIFY if bad else EXIT_OK


def cmd_verify(args, cfg: RunConfig, out: _Emitter) -> int:
    from . import verify

    tables = verify.regenerate_tables(tol=cfg.tolerance)
    report = tables[2]
    for rec in report.records:
        if rec.status != "ok":
            out.emit({"check": rec.table, "row": rec.row, "field": rec.fld,
                      "status": rec.status, "note": rec.note})
    verdict, evidence = verify.lvariant_adjudicator()
    out.emit({"check": "lvariant", "verdict": verdict, "cases": len(evidence)})
    if args.emit_docs:
        verify.write_frozen_tables(args.emit_docs + "/data", tables, args.emit_docs)
        verify.write_variant_evidence(args.emit_docs, verdict, evidence)
    ok = report.passed() and verdict == "corrected"
    return EXIT_OK if ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="darboux",
        description="Local solutions and symmetries of the Darboux equation on a torus",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eval", help="evaluate a local series solution")
    _add_param_flags(sp)
    sp.add_argument("--points", nargs="+", default=None, help="explicit u points")
    sp.add_argument("--u-range", nargs=3, default=("0.1", "1.0", "9"),
                    metavar=("LO", "HI", "N"))
    _add_common(sp, "trunc")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("eigen", help="accessory-parameter eigenvalues")
    _add_param_flags(sp, need_h=False)
    sp.add_argument("--mode", choices=("polynomial", "function"), required=True)
    sp.add_argument("--region", nargs=2, default=None, metavar=("LO", "HI"))
    _add_common(sp, "depth", "tol")
    sp.set_defaults(func=cmd_eigen)

    sp = sub.add_parser("catalog", help="the 192 local solutions")
    sp.add_argument("action", choices=("list", "verify"))
    _add_param_flags(sp)
    sp.add_argument("--all", action="store_true", help="verify all 192 ids")
    _add_common(sp, "trunc", "guard", "seed")
    sp.set_defaults(func=cmd_catalog)

    sp = sub.add_parser("transform", help="apply one symmetry transformation")
    sp.add_argument("--row", required=True,
                    choices=[f"{X}{i}" for X in ANH_TAGS for i in range(4)],
                    help="transformation name, e.g. C0")
    _add_param_flags(sp)
    _add_common(sp)
    sp.set_defaults(func=cmd_transform)

    sp = sub.add_parser("identities", help="identity suites")
    sp.add_argument("--tables", action="store_true", help="run the table harness")
    sp.add_argument("--landen", action="store_true")
    sp.add_argument("--duplication", action="store_true")
    sp.add_argument("--samples", type=int, default=10)
    sp.add_argument("--verbose", action="store_true")
    sp.add_argument("--k", type=str, default=None)
    _add_common(sp, "trunc", "tol", "seed")
    sp.set_defaults(func=cmd_identities)

    sp = sub.add_parser("lambda", help="modular lambda values")
    sp.add_argument("tau", nargs="+", help="tau values, e.g. 1j 0.31+1.13j")
    _add_common(sp)
    sp.set_defaults(func=cmd_lambda)

    sp = sub.add_parser("weierstrass", help="e-values and covariance checks")
    sp.add_argument("subaction", choices=("evalues", "covariance"))
    sp.add_argument("--k", type=str, default="0.6")
    sp.add_argument("--scale", type=str, default="1")
    _add_common(sp, "tol")
    sp.set_defaults(func=cmd_weierstrass)

    sp = sub.add_parser("verify", help="full verification battery")
    sp.add_argument("--emit-docs", default=None,
                    help="directory for adjudication evidence files")
    _add_common(sp, "tol")
    sp.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config(args)
        code = args.func(args, cfg, _Emitter(cfg))
        sys.stdout.flush()   # a reader that closed early shows up here, not at exit
        return code
    except BrokenPipeError:
        # stop quietly, with stdout pointed at devnull so that the
        # interpreter's final flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except DarbouxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
